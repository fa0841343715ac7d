"""The acyclicity certificate, read from an operator's stored pattern.

A transfer-operator entry at (row j, col i) is the directed edge i -> j
of the transition graph, so the operator's stored arrays are that
graph's edge list, grouped by target, and no separate graph is built.  An
acyclic transition graph certifies that the operator is nilpotent with
index depth + 1, where depth is the longest directed-path length; that
certificate is structural and involves no floating-point test.
Topological orders are by level, so by the pattern alone, and the
pattern memory of operators keeps a report for the next operator with
that pattern.  On a cyclic graph, the strongly connected components in
sources-first order (_strong_components) order the solver's block solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import SparseOperator, _derived


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


def analyze_acyclicity(op: SparseOperator) -> AcyclicityReport:
    """Classify the operator's transition graph as acyclic or exhibit a directed cycle.

    The report follows from dim and the stored _row and _col alone, so
    it is one of the facts the pattern memory keeps (operators._derived):
    the next operator with that pattern, as an energy scan's transfer
    operators keep their potential's, gets the same report object again.
    """
    return _derived(op, _certify, _report_bytes)


def _report_bytes(report: AcyclicityReport) -> int:
    """Bytes the pattern memory counts for a report: 40 a label, a tuple slot and an int object."""
    return 40 * len(report.topological_order or report.witness_cycle)


def _certify(op: SparseOperator) -> AcyclicityReport:
    """analyze_acyclicity's report, computed from the stored pattern.

    Kahn's algorithm by levels over a by-source index of the stored
    entries.  Each vertex first waits for its in-degree, the count of
    its stored row, in predecessors.  Level 0 holds the sources, and a
    vertex joins level k + 1 once its last predecessor has joined level
    k, so its level is 1 + its predecessors' largest level.  Depth is
    the largest level and the order is by (level, label).  Vertices
    never reached lie on or behind a cycle; walking from the smallest of
    them to its smallest unreached predecessor, again and again, closes
    one, which is returned in edge direction from its smallest label.
    """
    n = op.dim
    by_source, start = op._by_source()
    targets = op._row[by_source].tolist()
    waiting = np.bincount(op._row, minlength=n + 1).tolist()  # unplaced predecessors
    level = [v for v in range(1, n + 1) if not waiting[v]]
    order: list[int] = []
    depth = -1
    while level:
        order += level
        depth += 1
        reached = []
        for v in level:
            for t in targets[start[v - 1]:start[v]]:
                waiting[t] -= 1
                if not waiting[t]:
                    reached.append(t)
        level = sorted(reached)
    if len(order) == n:
        return AcyclicityReport(is_acyclic=True, topological_order=tuple(order), depth=depth)
    return AcyclicityReport(is_acyclic=False, witness_cycle=_witness_cycle(op, waiting))


def _witness_cycle(op: SparseOperator, waiting: list[int]) -> tuple[int, ...]:
    """A directed cycle among the vertices Kahn's algorithm left with waiting predecessors.

    Each of them has such a predecessor itself, so the walk to the
    smallest one must come back to a vertex it has seen.
    """
    ptr = op._row_ptr().tolist()
    sources = op._col.tolist()
    v = next(u for u, count in enumerate(waiting) if count)
    trail = [v]
    seen = {v: 0}
    while True:
        v = min(u for u in sources[ptr[v - 1]:ptr[v]] if waiting[u])
        if v in seen:
            break
        seen[v] = len(trail)
        trail.append(v)
    # v -> trail[-1] -> trail[-2] -> ... -> trail[seen[v] + 1] -> v
    cycle = (v, *reversed(trail[seen[v] + 1:]))
    first = cycle.index(min(cycle))
    return cycle[first:] + cycle[:first]


def _strong_components(op: SparseOperator) -> list[list[int]]:
    """The strongly connected components of the transition graph, sources first.

    Tarjan's algorithm (1972), iterative.  It walks each vertex's stored
    row, so from a state to its predecessors, and completes a component
    only after every component upstream of it: the list comes out in
    topological order of the components, every edge between two of them
    from an earlier one to a later one.  Each component lists its states
    ascending.
    """
    ptr = op._row_ptr().tolist()
    sources = op._col.tolist()
    found = [0] * (op.dim + 1)  # discovery number, 0 for a vertex not yet reached
    low = [0] * (op.dim + 1)
    on_stack = [False] * (op.dim + 1)  # in a component not yet complete
    stack: list[int] = []
    components: list[list[int]] = []
    count = 0
    for root in range(1, op.dim + 1):
        if found[root]:
            continue
        count += 1
        found[root] = low[root] = count
        stack.append(root)
        on_stack[root] = True
        walk = [(root, ptr[root - 1])]
        while walk:
            v, k = walk[-1]
            while k < ptr[v]:
                u = sources[k]
                k += 1
                if not found[u]:
                    walk[-1] = (v, k)
                    count += 1
                    found[u] = low[u] = count
                    stack.append(u)
                    on_stack[u] = True
                    walk.append((u, ptr[u - 1]))
                    break
                if on_stack[u] and found[u] < low[v]:
                    low[v] = found[u]
            else:
                walk.pop()
                if walk and low[v] < low[walk[-1][0]]:
                    low[walk[-1][0]] = low[v]
                if low[v] == found[v]:
                    at = len(stack) - 1
                    while stack[at] != v:
                        at -= 1
                    component = stack[at:]
                    del stack[at:]
                    for u in component:
                        on_stack[u] = False
                    components.append(sorted(component))
    return components
