"""Test oracles: an edge-list graph, weighted walks and exact Born terms.

The library certifies an operator straight from its stored rows
(bornsolve.graph.analyze_acyclicity).  The oracles here reach the same
quantities another way, from explicit edge lists: walk enumeration with
weights, the recursive path sum that the matrix powers are checked
against, and strongly connected components by mutual reachability.  The walks share no machinery with the operator arithmetic, and
nothing in the library imports this module.

Every float is a dyadic rational, so the Born terms T^k phi of an
acyclic T have an exact value: rational_terms computes them in Gaussian
rationals, (re, im) pairs of fractions.Fraction built from the stored
floats without rounding, by a matvec over the operator's stored rows,
columns and amplitudes.  rational_remainder sums the terms beyond an
order, the exact remainder of that truncation, and rational_power forms
the operator power T^k itself, entry by entry, in the same arithmetic.
dense_det is det(I - T) by one dense LU of the whole matrix, blind to
its block structure.  from_dense, scaled and pattern build and read
operators through the public constructor and entries() alone.

An edge i -> j is the operator entry (row j, col i).  Every graph carries
.operator, the SparseOperator with its pattern (unannotated edges get
amplitude 1), so tests certify hand-built graphs with
analyze_acyclicity(graph.operator).  An amplitude the store rule drops
(an exact zero) would leave its edge out of .operator.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from bornsolve.graph import analyze_acyclicity
from bornsolve.operators import SparseOperator, _label, _size
from bornsolve.scenarios import WeightedPath

DEFAULT_PATH_BUDGET = 10**6

_NO_SOURCES: dict[int, complex | None] = {}

Gaussian = tuple[Fraction, Fraction]  # (re, im), exact

_ZERO: Gaussian = (Fraction(0), Fraction(0))


class UnboundedEnumerationError(Exception):
    """Walk enumeration on a cyclic graph needs an explicit length bound."""


class TooManyPathsError(Exception):
    """Walk enumeration exceeded the configured budget."""


class TransitionGraph:
    """Directed graph on vertices 1..num_vertices with optional edge amplitudes.

    Edges are given as (i, j) pairs or (i, j, amplitude) triples with
    integer labels; parallel edges are rejected.  Successor lists come
    back sorted so walk enumeration is deterministic.
    """

    __slots__ = ("num_vertices", "_preds", "operator")

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
        self.operator = SparseOperator(num_vertices, [
            (j, i, 1.0 if amp is None else amp)
            for j, sources in preds.items() for i, amp in sources.items()
        ])

    @property
    def num_edges(self) -> int:
        return sum(map(len, self._preds.values()))

    def edges(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self.edge_set()))

    def edge_set(self) -> set[tuple[int, int]]:
        return {(i, j) for j, sources in self._preds.items() for i in sources}

    def has_edge(self, i: int, j: int) -> bool:
        return i in self._preds.get(j, _NO_SOURCES)

    def amplitude(self, i: int, j: int) -> complex | None:
        """Amplitude annotation of edge (i, j); None when unannotated or absent."""
        return self._preds.get(j, _NO_SOURCES).get(i)

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


def longest_path_levels(graph: TransitionGraph) -> dict[int, int]:
    """Each vertex's level: edges on a longest directed path ending there.

    Brute force for acyclic graphs: every edge relaxed once per vertex,
    level[j] = max(level[j], level[i] + 1), which settles every path of
    up to num_vertices - 1 edges.
    """
    level = dict.fromkeys(range(1, graph.num_vertices + 1), 0)
    for _ in range(graph.num_vertices):
        for i, j in graph.edges():
            level[j] = max(level[j], level[i] + 1)
    return level


def extract_graph(op: SparseOperator) -> TransitionGraph:
    """Transition graph of an operator: stored entry (j, i) becomes edge i -> j."""
    return TransitionGraph(op.dim, [(c, r, a) for r, c, a in op.entries()])


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
        if not analyze_acyclicity(graph.operator).is_acyclic:
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


def mutually_reachable_classes(graph: TransitionGraph) -> set[frozenset[int]]:
    """Strongly connected components by brute force: i and j share one when each reaches the other.

    Reachability is Warshall's transitive closure over the edge set, with
    every vertex reaching itself; it shares nothing with Tarjan's walk.
    """
    vertices = range(1, graph.num_vertices + 1)
    reach = {v: {v} for v in vertices}
    for i, j in graph.edges():
        reach[i].add(j)
    for k in vertices:
        for v in vertices:
            if k in reach[v]:
                reach[v] |= reach[k]
    return {frozenset(u for u in reach[v] if v in reach[u]) for v in vertices}


def gaussian(z) -> Gaussian:
    """The exact value of a complex float: a float's Fraction is the float itself."""
    z = complex(z)
    return Fraction(z.real), Fraction(z.imag)


def rational_matvec(op: SparseOperator, x: list[Gaussian]) -> list[Gaussian]:
    """T x in Gaussian rationals, one stored entry at a time."""
    y = [_ZERO] * op.dim
    for r, c, a in zip(op._row.tolist(), op._col.tolist(), op._amp.tolist()):
        (ar, ai), (xr, xi), (yr, yi) = gaussian(a), x[c - 1], y[r - 1]
        y[r - 1] = (yr + ar * xr - ai * xi, yi + ar * xi + ai * xr)
    return y


def rational_terms(op: SparseOperator, phi) -> list[list[Gaussian]]:
    """The Born terms T^k phi, k = 0, 1, ..., up to the last nonzero one, exactly.

    T^dim is zero on an acyclic T, so a term still nonzero at k = dim
    means that T has a cycle, and raises ValueError.
    """
    terms = [[gaussian(z) for z in phi]]
    while any(z != _ZERO for z in terms[-1]):
        if len(terms) > op.dim:
            raise ValueError("T^dim phi is not zero: T has a cycle")
        terms.append(rational_matvec(op, terms[-1]))
    return terms[:-1]


def rational_sum(vectors: Iterable[list[Gaussian]], dim: int) -> list[Gaussian]:
    """Componentwise sum of Gaussian rational vectors of length dim."""
    total = [_ZERO] * dim
    for v in vectors:
        total = [(tr + vr, ti + vi) for (tr, ti), (vr, vi) in zip(total, v)]
    return total


def rational_remainder(op: SparseOperator, phi, m: int) -> list[Gaussian]:
    """sum_{m < k <= depth} T^k phi, the exact remainder of the order-m truncation."""
    return rational_sum(rational_terms(op, phi)[m + 1:], op.dim)


def rational_power(op: SparseOperator, k: int,
                   base: dict[tuple[int, int], Gaussian] | None = None) -> dict[tuple[int, int], Gaussian]:
    """base T^k in Gaussian rationals, {(row, col): value} over its nonzero entries.

    base is such a dict too, the identity when omitted, so T^k by
    default.  Each factor T multiplies from the right, one stored entry
    at a time, with no rounding.
    """
    by_row: dict[int, list[tuple[int, Gaussian]]] = {}
    for r, c, a in zip(op._row.tolist(), op._col.tolist(), op._amp.tolist()):
        by_row.setdefault(r, []).append((c, gaussian(a)))
    out = base if base is not None else {(j, j): (Fraction(1), Fraction(0))
                                         for j in range(1, op.dim + 1)}
    for _ in range(k):
        nxt: dict[tuple[int, int], Gaussian] = {}
        for (r, mid), (pr, pi) in out.items():
            for c, (ar, ai) in by_row.get(mid, ()):
                nxt[r, c] = _add_product(nxt.get((r, c), _ZERO), (pr, pi), (ar, ai))
        out = {key: value for key, value in nxt.items() if value != _ZERO}
    return out


def _add_product(y: Gaussian, p: Gaussian, a: Gaussian) -> Gaussian:
    """y + p a, exactly; a part of p or a that is zero forms no product."""
    (yr, yi), (pr, pi), (ar, ai) = y, p, a
    if ar:
        yr, yi = (yr + pr * ar if pr else yr), (yi + pi * ar if pi else yi)
    if ai:
        yr, yi = (yr - pi * ai if pi else yr), (yi + pr * ai if pr else yi)
    return yr, yi


def dense_det(op: SparseOperator) -> complex:
    """det(I - T) by numpy.linalg.det of the dense matrix."""
    return complex(np.linalg.det(np.eye(op.dim, dtype=complex) - op.to_dense()))


def from_dense(matrix) -> SparseOperator:
    """The operator holding a square matrix's nonzero entries, through the public constructor."""
    a = np.asarray(matrix, dtype=complex)
    row, col = np.nonzero(a)
    entries = zip((row + 1).tolist(), (col + 1).tolist(), a[row, col].tolist())
    return SparseOperator(len(a), list(entries))


def scaled(op: SparseOperator, factor: complex) -> SparseOperator:
    """op with every amplitude multiplied by factor, built from its entries."""
    return SparseOperator(op.dim, [(r, c, factor * a) for r, c, a in op.entries()])


def pattern(op: SparseOperator) -> set[tuple[int, int]]:
    """The (row, col) positions of op's stored entries."""
    return {(r, c) for r, c, _ in op.entries()}
