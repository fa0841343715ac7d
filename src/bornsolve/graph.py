"""Transition graphs: extraction, acyclicity analysis, weighted walks.

A transfer-operator entry at (row j, col i) is the directed edge i -> j.
An acyclic transition graph certifies that the operator is nilpotent with
index depth + 1, where depth is the longest directed-path length; that
certificate is structural and involves no floating-point test.

Edges are stored once, as predecessor rows {target: {source: amplitude}}:
the layout of SparseOperator's rows, which extract_graph shares rather
than copies.  Topological orders are by level, so by the pattern alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import TooManyPathsError, UnboundedEnumerationError
from .operators import _NO_COLS, SparseOperator, _label, _size

DEFAULT_PATH_BUDGET = 10**6


class TransitionGraph:
    """Directed graph on vertices 1..num_vertices with optional edge amplitudes.

    Edges are given as (i, j) pairs or (i, j, amplitude) triples with
    integer labels; parallel edges are rejected.  Successor lists come
    back sorted so walk enumeration is deterministic.
    """

    __slots__ = ("num_vertices", "_preds")

    def __init__(self, num_vertices: int, edges: Iterable = ()):
        num_vertices = _size(num_vertices, "vertex count")
        preds: dict[int, dict[int, complex | None]] = {}
        for edge in edges:
            if len(edge) == 2:
                i, j = edge
                amp: complex | None = None
            else:
                i, j, raw = edge
                amp = complex(raw)
            try:
                i, j = _label(i), _label(j)
            except TypeError:
                raise ValueError(f"edge ({i}, {j}) has a non-integral vertex") from None
            if not (1 <= i <= num_vertices and 1 <= j <= num_vertices):
                raise ValueError(f"edge ({i}, {j}) outside 1..{num_vertices}")
            sources = preds.setdefault(j, {})
            if i in sources:
                raise ValueError(f"duplicate edge ({i}, {j})")
            sources[i] = amp
        self.num_vertices = num_vertices
        self._preds = preds

    @property
    def num_edges(self) -> int:
        return sum(map(len, self._preds.values()))

    def edges(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self.edge_set()))

    def edge_set(self) -> set[tuple[int, int]]:
        return {(i, j) for j, sources in self._preds.items() for i in sources}

    def has_edge(self, i: int, j: int) -> bool:
        return i in self._preds.get(j, _NO_COLS)

    def amplitude(self, i: int, j: int) -> complex | None:
        """Amplitude annotation of edge (i, j); None when unannotated or absent."""
        return self._preds.get(j, _NO_COLS).get(i)

    def successors(self, i: int) -> tuple[int, ...]:
        """Targets of the edges leaving i, sorted; a scan of every row."""
        return tuple(sorted(j for j, sources in self._preds.items() if i in sources))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TransitionGraph):
            return NotImplemented
        return self.num_vertices == other.num_vertices and self._preds == other._preds

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"TransitionGraph(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges})"
        )


@dataclass(frozen=True)
class AcyclicityReport:
    """Outcome of cycle analysis.

    Acyclic graphs carry a topological order and the depth (edges on a
    longest directed path, 0 for an edgeless graph); cyclic ones carry a
    witness cycle instead.
    """

    is_acyclic: bool
    topological_order: tuple[int, ...] | None = None
    depth: int | None = None
    witness_cycle: tuple[int, ...] | None = None


@dataclass(frozen=True)
class WeightedPath:
    """A directed walk together with the product of its edge amplitudes."""

    vertices: tuple[int, ...]
    weight: complex

    @property
    def length(self) -> int:
        return len(self.vertices) - 1


def extract_graph(op: SparseOperator) -> TransitionGraph:
    """Transition graph of an operator: stored entry (j, i) becomes edge i -> j.

    The operator's rows already are predecessor rows that meet the
    constructor's checks (in range, no duplicates, finite amplitudes),
    so the graph shares them: no entry is copied or checked again.
    """
    graph = TransitionGraph.__new__(TransitionGraph)
    graph.num_vertices = op.dim
    graph._preds = op._rows
    return graph


def analyze_acyclicity(graph: TransitionGraph) -> AcyclicityReport:
    """Classify the graph as acyclic or exhibit a directed cycle.

    One depth-first search over sorted predecessor lists, with an explicit
    stack (deep graphs would blow the recursion limit).  A vertex finishes
    at level 1 + its predecessors' largest level (0 for a source); depth
    is the largest level and the order is by (level, label).  A
    predecessor still on the trail closes a cycle, returned in edge
    direction.
    """
    n = graph.num_vertices
    preds = graph._preds
    # None: not reached yet; -1: on the trail; otherwise the finished level
    level: list[int | None] = [None] * (n + 1)
    for root in range(1, n + 1):
        if level[root] is not None:
            continue
        level[root] = -1
        trail = [root]
        frames = [iter(sorted(preds.get(root, _NO_COLS)))]
        while frames:
            p = next(frames[-1], None)
            if p is None:
                frames.pop()
                v = trail.pop()
                sources = preds.get(v)
                level[v] = 1 + max(map(level.__getitem__, sources)) if sources else 0
                continue
            mark = level[p]
            if mark is None:
                level[p] = -1
                trail.append(p)
                frames.append(iter(sorted(preds.get(p, _NO_COLS))))
            elif mark < 0:
                # p -> trail[-1] -> trail[-2] -> ... -> trail[start + 1] -> p
                start = trail.index(p)
                return AcyclicityReport(
                    is_acyclic=False,
                    witness_cycle=(p, *reversed(trail[start + 1:])),
                )
    order = sorted(range(1, n + 1), key=level.__getitem__)
    return AcyclicityReport(
        is_acyclic=True, topological_order=tuple(order), depth=max(level[1:])
    )


def _check_vertex(graph: TransitionGraph, v: int, name: str) -> None:
    if not 1 <= v <= graph.num_vertices:
        raise ValueError(f"{name} vertex {v} outside 1..{graph.num_vertices}")


def _edge_amplitude(graph: TransitionGraph, i: int, j: int) -> complex:
    amp = graph.amplitude(i, j)
    if amp is None:
        raise ValueError(f"edge ({i}, {j}) has no amplitude annotation")
    return amp


def enumerate_paths(
    graph: TransitionGraph,
    start: int,
    end: int,
    max_len: int | None = None,
    max_paths: int = DEFAULT_PATH_BUDGET,
) -> list[WeightedPath]:
    """All directed walks from start to end with at most max_len edges.

    On an acyclic graph every walk is a simple path and max_len may be
    omitted; a cyclic graph without a bound has infinitely many walks, so
    UnboundedEnumerationError is raised.  Walks come back in lexicographic
    vertex order; finding more than max_paths raises TooManyPathsError
    (the budget exists because path counts grow exponentially with size).
    """
    _check_vertex(graph, start, "start")
    _check_vertex(graph, end, "end")
    if max_len is None:
        if not analyze_acyclicity(graph).is_acyclic:
            raise UnboundedEnumerationError(
                "cyclic graph: walk enumeration needs a finite max_len"
            )
    elif max_len < 0:
        return []

    found: list[WeightedPath] = []

    def record(vertices: list[int], weight: complex) -> None:
        if len(found) >= max_paths:
            raise TooManyPathsError(
                f"more than {max_paths} walks from {start} to {end}; "
                f"raise max_paths to keep going"
            )
        found.append(WeightedPath(tuple(vertices), weight))

    if start == end:
        record([start], 1.0 + 0j)
    walk = [start]
    weights: list[complex] = [1.0 + 0j]
    frames = [iter(graph.successors(start))]
    while frames:
        if max_len is not None and len(walk) - 1 >= max_len:
            frames.pop()
            walk.pop()
            weights.pop()
            continue
        succ = next(frames[-1], None)
        if succ is None:
            frames.pop()
            walk.pop()
            weights.pop()
            continue
        weight = weights[-1] * _edge_amplitude(graph, walk[-1], succ)
        walk.append(succ)
        weights.append(weight)
        frames.append(iter(graph.successors(succ)))
        if succ == end:
            record(walk, weight)
    return found


def path_sum_entry(graph: TransitionGraph, start: int, end: int, k: int) -> complex:
    """Total amplitude of all length-k walks from start to end.

    Chain-sum oracle for the (end, start) entry of the k-th operator
    power, computed recursively from edge amplitudes alone; it shares no
    machinery with the matrix arithmetic it is used to check.
    """
    _check_vertex(graph, start, "start")
    _check_vertex(graph, end, "end")
    if k < 0:
        raise ValueError(f"walk length must be >= 0, got {k}")
    if k == 0:
        return 1.0 + 0j if start == end else 0j
    total = 0j
    for succ in graph.successors(start):
        total += _edge_amplitude(graph, start, succ) * path_sum_entry(
            graph, succ, end, k - 1
        )
    return total
