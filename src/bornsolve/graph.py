"""Transition graphs: extraction, acyclicity analysis, weighted walks.

A transfer-operator entry at (row j, col i) is the directed edge i -> j.
An acyclic transition graph certifies that the operator is nilpotent with
index depth + 1, where depth is the longest directed-path length; that
certificate is structural and involves no floating-point test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import TooManyPathsError, UnboundedEnumerationError
from .operators import SparseOperator

DEFAULT_PATH_BUDGET = 10**6

_WHITE, _GRAY, _BLACK = 0, 1, 2


class TransitionGraph:
    """Directed graph on vertices 1..num_vertices with optional edge amplitudes.

    Edges are given as (i, j) pairs or (i, j, amplitude) triples; parallel
    edges are rejected.  Successor lists are kept sorted so traversals and
    walk enumeration are deterministic.
    """

    __slots__ = ("num_vertices", "_edges", "_adj")

    def __init__(self, num_vertices: int, edges: Iterable = ()):
        if num_vertices < 1:
            raise ValueError(f"need at least one vertex, got {num_vertices}")
        store: dict[tuple[int, int], complex | None] = {}
        for edge in edges:
            if len(edge) == 2:
                i, j = edge
                amp: complex | None = None
            else:
                i, j, raw = edge
                amp = complex(raw)
            if not (1 <= i <= num_vertices and 1 <= j <= num_vertices):
                raise ValueError(f"edge ({i}, {j}) outside 1..{num_vertices}")
            if (i, j) in store:
                raise ValueError(f"duplicate edge ({i}, {j})")
            store[(i, j)] = amp
        self._set_edges(num_vertices, store)

    @classmethod
    def _from_edges(
        cls, num_vertices: int, store: dict[tuple[int, int], complex | None]
    ) -> "TransitionGraph":
        """Wrap an edge dict that already meets the constructor's checks."""
        graph = cls.__new__(cls)
        graph._set_edges(num_vertices, store)
        return graph

    def _set_edges(
        self, num_vertices: int, store: dict[tuple[int, int], complex | None]
    ) -> None:
        adj: dict[int, list[int]] = {}
        for i, j in store:
            adj.setdefault(i, []).append(j)
        self.num_vertices = num_vertices
        self._edges = store
        self._adj = {i: tuple(sorted(js)) for i, js in adj.items()}

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def edges(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._edges))

    def edge_set(self) -> set[tuple[int, int]]:
        return set(self._edges)

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in self._edges

    def amplitude(self, i: int, j: int) -> complex | None:
        """Amplitude annotation of edge (i, j); None when unannotated or absent."""
        return self._edges.get((i, j))

    def successors(self, i: int) -> tuple[int, ...]:
        return self._adj.get(i, ())

    def __eq__(self, other) -> bool:
        if not isinstance(other, TransitionGraph):
            return NotImplemented
        return self.num_vertices == other.num_vertices and self._edges == other._edges

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

    The operator's rows are already checked (in range, no duplicates,
    finite), so the edges are taken from them without a second check.
    """
    return TransitionGraph._from_edges(
        op.dim,
        {(col, row): amp for row, cols in op._rows.items() for col, amp in cols.items()},
    )


def analyze_acyclicity(graph: TransitionGraph) -> AcyclicityReport:
    """Classify the graph as acyclic or exhibit a directed cycle.

    Depth-first search with an explicit stack (deep graphs would blow the
    recursion limit); a back edge yields the witness cycle straight off
    the gray trail.
    """
    n = graph.num_vertices
    color = [_WHITE] * (n + 1)
    postorder: list[int] = []
    for root in range(1, n + 1):
        if color[root] != _WHITE:
            continue
        color[root] = _GRAY
        trail = [root]
        frames = [iter(graph.successors(root))]
        while frames:
            succ = next(frames[-1], None)
            if succ is None:
                frames.pop()
                done = trail.pop()
                color[done] = _BLACK
                postorder.append(done)
                continue
            if color[succ] == _GRAY:
                start = trail.index(succ)
                return AcyclicityReport(
                    is_acyclic=False, witness_cycle=tuple(trail[start:])
                )
            if color[succ] == _WHITE:
                color[succ] = _GRAY
                trail.append(succ)
                frames.append(iter(graph.successors(succ)))
        # vertices reached from this root are all black now
    order = tuple(reversed(postorder))
    longest = [0] * (n + 1)
    depth = 0
    for v in reversed(order):
        best = 0
        for w in graph.successors(v):
            if longest[w] + 1 > best:
                best = longest[w] + 1
        longest[v] = best
        if best > depth:
            depth = best
    return AcyclicityReport(is_acyclic=True, topological_order=order, depth=depth)


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
