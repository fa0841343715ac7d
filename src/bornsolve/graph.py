"""The acyclicity certificate, read from an operator's stored pattern.

A transfer-operator entry at (row j, col i) is the directed edge i -> j
of the transition graph, so the operator's rows {j: {i: T[j, i]}} are
that graph's predecessor lists and no separate graph is built.  An
acyclic transition graph certifies that the operator is nilpotent with
index depth + 1, where depth is the longest directed-path length; that
certificate is structural and involves no floating-point test.
Topological orders are by level, so by the pattern alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .operators import _NO_COLS, SparseOperator


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

    One depth-first search over the sorted predecessor lists (the stored
    rows), with an explicit stack (deep graphs would blow the recursion
    limit).  A vertex finishes at level 1 + its predecessors' largest
    level (0 for a source); depth is the largest level and the order is
    by (level, label).  A predecessor still on the trail closes a cycle,
    returned in edge direction.
    """
    n = op.dim
    preds = op._rows
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
