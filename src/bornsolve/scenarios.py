"""Builders for the named multilevel systems and the interference classifier.

The diamond routes an initial state to a final state along two two-step
branches.  Its exact final amplitude is the coherent sum of the two branch
products, while the first-order truncation predicts zero for it in every
regime; the classifier separates the cases where the branches reinforce,
cancel, or neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import TopologyError
from .operators import SparseOperator
from .solver import AcyclicSystem, make_system

# Relative scale below which the branch products count as cancelling
# (dark state) or as equal (constructive).  Measured against the
# incoherent sum |p_left| + |p_right|, so the classification is invariant
# under rescaling all couplings at once.
DARK_THRESHOLD = 1e-12

DIAMOND_EDGES = frozenset({(1, 2), (1, 3), (2, 4), (3, 4)})
_BRANCH_EDGES = (((1, 2), (2, 4)), ((1, 3), (3, 4)))
# branch products whose scale lies between these are compared unscaled
_NORMAL_LO, _NORMAL_HI = 2.0**-900, 2.0**900

REGIME_CONSTRUCTIVE = "constructive"
REGIME_DARK = "dark_state"
REGIME_GENERIC = "generic"


@dataclass(frozen=True)
class WeightedPath:
    """A directed walk together with the product of its edge amplitudes."""

    vertices: tuple[int, ...]
    weight: complex

    @property
    def length(self) -> int:
        return len(self.vertices) - 1


@dataclass(frozen=True)
class InterferenceReport:
    """Exact versus first-order view of the diamond's final-state amplitude."""

    a4: complex
    a4_born1: complex
    path_contributions: tuple[WeightedPath, WeightedPath]
    regime: str
    relative_error_born1: float | None  # None exactly when a4 == 0


def build_cascade(amplitudes: Sequence[complex]) -> AcyclicSystem:
    """Downward chain n -> n-1 -> ... -> 1 on n = len(amplitudes) + 1 levels.

    amplitudes[k] couples the decay from level k+2 to level k+1 and is
    stored at matrix entry (k+1, k+2).
    """
    if len(amplitudes) < 1:
        raise ValueError("a cascade needs at least one coupling (two levels)")
    dim = len(amplitudes) + 1
    entries = [(k + 1, k + 2, amp) for k, amp in enumerate(amplitudes)]
    return make_system(SparseOperator(dim, entries))


def build_diamond(t21, t31, t42, t43) -> AcyclicSystem:
    """Four-level branch-and-recombine system.

    t21 couples 1 -> 2, t31 couples 1 -> 3, t42 couples 2 -> 4, t43
    couples 3 -> 4; entry (j, i) holds the i -> j coupling.  A zero
    coupling simply deletes its edge.
    """
    entries = [(2, 1, t21), (3, 1, t31), (4, 2, t42), (4, 3, t43)]
    return make_system(SparseOperator(4, entries))


def build_double_diamond(amplitudes: Sequence[complex]) -> AcyclicSystem:
    """Two branch-and-recombine stages chained through a shared middle state.

    Seven states with edges 1->2, 1->3, 2->4, 3->4, 4->5, 4->6, 5->7,
    6->7; the eight amplitudes are taken in that edge order.
    """
    if len(amplitudes) != 8:
        raise ValueError(
            f"a double diamond needs exactly 8 couplings, got {len(amplitudes)}"
        )
    layout = ((1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (4, 6), (5, 7), (6, 7))
    entries = [(j, i, amp) for (i, j), amp in zip(layout, amplitudes)]
    return make_system(SparseOperator(7, entries))


def _scaled_branches(amp: dict[tuple[int, int], complex]) -> tuple[complex, complex]:
    """The branch products of the couplings scaled by one power of two.

    The scaling brings the larger product to about 1 (or as near as keeps
    every coupling finite), so no product overflows or underflows unless
    it is negligible.  It is exact but for a coupling pushed into the
    subnormal range, whose rounding (about 2**-50 of the larger product)
    is negligible.
    """
    exp = {edge: math.frexp(max(abs(z.real), abs(z.imag)))[1] for edge, z in amp.items()}
    top = max((exp[a] + exp[b] for a, b in _BRANCH_EDGES if a in exp and b in exp), default=0)
    shift = min(-(top // 2), 1024 - max(exp.values(), default=0))
    unit = {edge: complex(math.ldexp(z.real, shift), math.ldexp(z.imag, shift))
            for edge, z in amp.items()}
    return (unit.get((2, 4), 0j) * unit.get((1, 2), 0j),
            unit.get((3, 4), 0j) * unit.get((1, 3), 0j))


def classify_interference(system: AcyclicSystem) -> InterferenceReport:
    """Interference regime of a diamond system's final-state amplitude.

    dark_state: the branch products cancel relative to their incoherent
    sum; constructive: the products agree at the same relative scale;
    generic: anything else.  The first-order amplitude a4_born1 is a
    structural zero because both routes to the final state take two steps.
    """
    t = system.operator
    edges = list(zip(t._col.tolist(), t._row.tolist()))
    if system.dim != 4 or not DIAMOND_EDGES.issuperset(edges):
        raise TopologyError(
            f"expected a 4-state system with edges within "
            f"{sorted(DIAMOND_EDGES)}, got dimension {system.dim} "
            f"with edges {sorted(edges)}"
        )
    amp = dict(zip(edges, t._amp.tolist()))  # edge i -> j: T[j, i]
    p_left = amp.get((2, 4), 0j) * amp.get((1, 2), 0j)
    p_right = amp.get((3, 4), 0j) * amp.get((1, 3), 0j)
    # every walk 1 -> 4 is one of the two branches; a sum started at +0j,
    # as a substitution's is, keeps a cut branch's zeros positive
    a4 = 0j + (p_left + p_right)
    # orders 0 and 1 at state 4 from state 1: 0 + T[4, 1], and 1 -> 4 is no edge
    a4_born1 = 0j
    q_left, q_right = p_left, p_right
    scale = abs(p_left) + abs(p_right)
    if not _NORMAL_LO < scale < _NORMAL_HI:
        # a product that overflows or underflows does not decide the regime;
        # inside the normal range the scaling would change no comparison
        q_left, q_right = _scaled_branches(amp)
        scale = abs(q_left) + abs(q_right)
    if abs(q_left + q_right) <= DARK_THRESHOLD * scale:
        regime = REGIME_DARK
    elif abs(q_left - q_right) <= DARK_THRESHOLD * scale:
        regime = REGIME_CONSTRUCTIVE
    else:
        regime = REGIME_GENERIC
    relative_error = abs(a4 - a4_born1) / abs(a4) if a4 != 0 else None
    return InterferenceReport(
        a4=a4,
        a4_born1=a4_born1,
        path_contributions=(
            WeightedPath((1, 2, 4), p_left),
            WeightedPath((1, 3, 4), p_right),
        ),
        regime=regime,
        relative_error_born1=relative_error,
    )
