"""Truncation-error budget for operators that are not exactly nilpotent.

A cyclic transition graph leaves a residual beyond every finite
truncation order.  The residual after order m is (I - T)^(-1) T^(m+1) phi
whenever I - T is invertible.  The budget at order m holds the norms of
T and of its (m+1)-th power, formed sparsely by operators.power.  The
power's plans and the solver's block layout follow from T's pattern
alone, and operators' pattern memory keeps them for the last two
patterns, up to 4 MiB in all: a scan of reports on one pattern, in
alternation with another operator or not, derives them once.
defect_norm is zero exactly when truncation at order m is exact.  The
budget also holds the geometric bound ||T^(m+1)|| ||phi|| / (1 - ||T||)
when ||T|| < 1, and the residual's norm, exactly: zero with no solve
when the power vanishes structurally, else from the solver's
substitution over the strong components of T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import SparseOperator, as_state_vector, matvec, operator_norm, power, vector_norm
from .solver import _block_solve

# Reporting convention only, nothing derived: a defect at or below this
# counts as "quasi-nilpotent" in reports.
QUASI_NILPOTENT_DEFECT = 1e-3

_BOUND_KINDS = ("inf", "one")


@dataclass(frozen=True)
class TruncationReport:
    """Error budget for truncating the Born expansion at a given order.

    bound is None when operator_norm >= 1, where the geometric estimate
    has nothing to say; the exact remainder is still reported whenever
    I - T is invertible.  quasi_nilpotent applies the QUASI_NILPOTENT_DEFECT
    convention to defect_norm.
    """

    order: int
    norm_kind: str
    operator_norm: float
    defect_norm: float
    phi_norm: float
    exact_remainder_norm: float
    bound: float | None
    quasi_nilpotent: bool


def exact_remainder(operator: SparseOperator, phi, m: int) -> np.ndarray:
    """Exact residual (I - T)^(-1) T^(m+1) phi of the order-m truncation.

    The power is formed sparsely first, so a structurally vanishing
    power gives an exactly zero remainder with no solve involved; see
    _remainder for the general case.
    """
    if m < 0:
        raise ValueError(f"order must be >= 0, got {m}")
    return _remainder(operator, as_state_vector(phi, operator.dim), power(operator, m + 1))


def _remainder(operator: SparseOperator, v: np.ndarray, tail: SparseOperator) -> np.ndarray:
    """(I - T)^(-1) tail v for an already formed tail = T^(m+1); zero if the tail is.

    Otherwise the solver's substitution over T's strong components.
    """
    if tail.is_zero():
        return np.zeros(operator.dim, dtype=complex)
    return _block_solve(operator, matvec(tail, v))


def remainder_bound(
    operator: SparseOperator, phi, m: int, norm_kind: str = "inf"
) -> TruncationReport:
    """Full truncation report at order m.

    norm_kind must be an induced kind ("inf" or "one"): those are
    submultiplicative and paired with a compatible vector norm, which is
    what the geometric bound ||T^(m+1)|| ||phi|| / (1 - ||T||) needs.
    """
    if norm_kind not in _BOUND_KINDS:
        raise ValueError(
            f"remainder bounds need an induced norm kind {_BOUND_KINDS}, got {norm_kind!r}"
        )
    if m < 0:
        raise ValueError(f"order must be >= 0, got {m}")
    v = as_state_vector(phi, operator.dim)
    tail = power(operator, m + 1)
    op_norm = operator_norm(operator, norm_kind)
    defect = operator_norm(tail, norm_kind)
    phi_norm = vector_norm(v, norm_kind)
    remainder = _remainder(operator, v, tail)
    bound = defect * phi_norm / (1.0 - op_norm) if op_norm < 1.0 else None
    return TruncationReport(
        order=m,
        norm_kind=norm_kind,
        operator_norm=op_norm,
        defect_norm=defect,
        phi_norm=phi_norm,
        exact_remainder_norm=vector_norm(remainder, norm_kind),
        bound=bound,
        quasi_nilpotent=defect <= QUASI_NILPOTENT_DEFECT,
    )
