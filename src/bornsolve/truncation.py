"""Truncation-error control for operators that are not exactly nilpotent.

A cyclic transition graph leaves a residual beyond every finite
truncation order.  The residual after order m is (I - T)^(-1) T^(m+1) phi
whenever I - T is invertible; it is bounded in norm by the geometric
estimate when ||T|| < 1, and reported exactly by a forward substitution
over the strongly connected components of T: a single state with no
self-loop is a step of the solver's own substitution loop, and every
other component, a self-loop state included, is a block that takes one
dense solve.  An acyclic T, every component a single state with no
loop, is the solver's substitution throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain

import numpy as np

from .graph import _strong_components
from .operators import (
    SparseOperator,
    _bin_sums,
    _products,
    as_state_vector,
    matvec,
    operator_norm,
    power,
    vector_norm,
)
from .solver import _check_invertible, _sweep

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


def nilpotency_defect(operator: SparseOperator, m: int, norm_kind: str = "inf") -> float:
    """Norm of the (m+1)-th power; zero exactly when truncation at order m is exact."""
    if m < 0:
        raise ValueError(f"order must be >= 0, got {m}")
    return operator_norm(power(operator, m + 1), norm_kind)


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

    Otherwise _block_solve over T's strong components.
    """
    if tail.is_zero():
        return np.zeros(operator.dim, dtype=complex)
    return _block_solve(operator, _strong_components(operator), matvec(tail, v))


def _block_solve(op: SparseOperator, components: list[list[int]], x: np.ndarray) -> np.ndarray:
    """Overwrite x with (I - T)^(-1) x, by forward substitution over T's components.

    With its strongly connected components in sources-first order,
    I - T is block lower triangular (Duff & Reid 1978).  A single state
    with no self-loop is a step of solver._sweep, the acyclic solve's
    own loop.  Every other component, a self-loop state included, is a
    block: it adds its inflow from finished states, then takes one dense
    solve of its own rows, in label order.  det(I - T) is the product of
    the blocks' determinants; before any solve it goes through the
    singularity test of direct_solve_oracle.  components are T's,
    sources first (graph._strong_components).
    """
    row, col, amp = op._row, op._col, op._amp
    sizes = np.array([len(states) for states in components])
    labels = np.fromiter(chain.from_iterable(components), dtype=np.intp, count=op.dim)
    of = np.empty(op.dim + 1, dtype=np.intp)  # each state's component ...
    of[labels] = np.repeat(np.arange(sizes.size), sizes)
    at = np.empty(op.dim + 1, dtype=np.intp)  # ... and its place in it
    at[labels] = np.arange(op.dim) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    inner = of[row] == of[col]
    # entries grouped by their row's component, in storage order within it
    grouped = np.argsort(of[row], kind="stable")
    bounds = list(accumulate(np.bincount(of[row], minlength=sizes.size).tolist(), initial=0))
    log_det = 0.0
    blocks = {}
    for k in np.unique(of[row[inner]]).tolist():  # components with a cycle or a self-loop
        e = grouped[bounds[k]:bounds[k + 1]]
        own = e[inner[e]]
        block = np.eye(sizes[k], dtype=complex)  # np.eye - to_dense(), as the oracle's
        block[at[row[own]], at[col[own]]] -= amp[own]
        log_det += np.linalg.slogdet(block)[1]
        blocks[k] = block, e[~inner[e]]
    _check_invertible(log_det)
    ptr = op._row_ptr().tolist()
    source = col - 1
    for k, states in enumerate(components):
        if k not in blocks:
            _sweep(states, ptr, source, amp, x)
            continue
        block, e = blocks[k]
        rows = np.array(states) - 1
        rhs = x[rows]
        if e.size:
            rhs += _bin_sums(at[row[e]], *_products(amp[e], x[source[e]]), rows.size)
        x[rows] = np.linalg.solve(block, rhs)
    return x


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
