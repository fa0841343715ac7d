"""Exact finite Born expansions for certified-nilpotent transfer operators.

When the transition graph of T is acyclic, T is nilpotent and the Neumann
series of (I - T)^(-1) closes after depth + 1 terms, whatever the size of
||T||.  Scattered states, the full resolvent and the transition matrix
then come out as exact finite sums, all run by one term loop that applies
T to a state depth times (the resolvent one column at a time).  A dense LU
route is kept alongside as an independent cross-check; it shares none of
the power-sum code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NotNilpotentError, SingularError
from .graph import TransitionGraph, analyze_acyclicity, extract_graph
from .operators import SparseOperator, _apply, as_state_vector, basis_state

# Smallest |det(I - T)| the dense oracle accepts.  Pivot-versus-scale
# tests misfire here: graded systems put legitimate pivots many orders
# below the matrix scale, while det(I - T) is 1 for every nilpotent T
# and bounded away from 0 for contractions, so the determinant separates
# the genuinely singular inputs.
SINGULAR_DET_THRESHOLD = 1e-12


@dataclass(frozen=True)
class AcyclicSystem:
    """A transfer operator certified nilpotent by its acyclic transition graph.

    depth is the longest directed-path length of the graph; structurally,
    the (depth + 1)-th power of the operator vanishes, so every expansion
    below closes after depth + 1 terms.  Instances come from make_system.
    """

    operator: SparseOperator
    graph: TransitionGraph
    depth: int

    @property
    def dim(self) -> int:
        return self.operator.dim

    @property
    def term_count(self) -> int:
        return self.depth + 1


@dataclass(frozen=True)
class BornExpansion:
    """Term-by-term scattered state: terms[k] is the k-interaction piece."""

    terms: tuple[np.ndarray, ...]
    total: np.ndarray

    @property
    def order(self) -> int:
        return len(self.terms) - 1


def make_system(operator: SparseOperator) -> AcyclicSystem:
    """Certify an operator through its transition graph.

    Raises NotNilpotentError, carrying a witness cycle, when the graph is
    cyclic.  The certificate is purely structural: no power of the
    operator is formed and no floating-point comparison is involved.
    """
    graph = extract_graph(operator)
    report = analyze_acyclicity(graph)
    if not report.is_acyclic:
        raise NotNilpotentError(report.witness_cycle)
    assert report.depth is not None
    return AcyclicSystem(operator=operator, graph=graph, depth=report.depth)


def solve_exact(system: AcyclicSystem, phi) -> BornExpansion:
    """Scattered state (I - T)^(-1) phi as an exact finite sum.

    terms[k] is the k-fold application of the transfer operator to phi;
    the truncation error of the total is exactly zero, not merely small.
    """
    v = as_state_vector(phi, system.dim)
    return _born_expansion(system.operator, v, system.depth)


def born_approximation(operator: SparseOperator, phi, order: int) -> np.ndarray:
    """Partial Born sum through the given interaction order.

    Defined for any operator, nilpotent or not; for a certified system it
    matches solve_exact once order reaches the depth.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    return _born_sum(operator, as_state_vector(phi, operator.dim), order)


def _born_sum(operator: SparseOperator, v: np.ndarray, order: int) -> np.ndarray:
    """Running sum of terms 0..order, stopped at the first all-zero term (T 0 = 0)."""
    terms = _born_terms(operator, v, order)
    total = next(terms).copy()
    for term in terms:
        total += term
        if not term.any():
            break
    return total


def _born_expansion(operator: SparseOperator, v: np.ndarray, order: int) -> BornExpansion:
    """Terms 0..order of the Born series for a state already checked by as_state_vector."""
    terms = tuple(_born_terms(operator, v, order))
    return BornExpansion(terms=terms, total=np.sum(terms, axis=0))


def _born_terms(operator: SparseOperator, v: np.ndarray, order: int):
    """Yield v, T v, ..., T^order v: the one term loop every Born sum runs."""
    yield v
    for _ in range(order):
        v = _apply(operator, v)
        yield v


def finite_neumann_inverse(system: AcyclicSystem) -> np.ndarray:
    """(I - T)^(-1) as the exact finite power sum, returned dense.

    Column c is the Born sum of the one term loop on basis state c + 1: at
    most depth applications of T, added up as they come, so no power of T
    is formed and no stack of terms is held.
    """
    n = system.dim
    out = np.empty((n, n), dtype=complex)
    for c in range(n):
        out[:, c] = _born_sum(system.operator, basis_state(n, c + 1), system.depth)
    return out


def det_i_minus_t(operator: SparseOperator) -> complex:
    """det(I - T) by dense factorization; works for any operator."""
    a = np.eye(operator.dim, dtype=complex) - operator.to_dense()
    return complex(np.linalg.det(a))


def det_check(system: AcyclicSystem) -> complex:
    """Determinant of I - T for a certified system.

    Mathematically this is exactly 1, independent of the amplitudes, so
    its distance from 1 measures nothing but accumulated rounding.  The
    full complex value is returned rather than its real part; hiding the
    imaginary component would hide half the rounding error.
    """
    return det_i_minus_t(system.operator)


def full_resolvent(system: AcyclicSystem, free_resolvent_diag) -> np.ndarray:
    """Full resolvent (E - H0 - V)^(-1) = (power sum) diag(G0), dense.

    free_resolvent_diag must be the diagonal of (E - H0)^(-1) for the
    same Hamiltonian and energy the transfer operator was built from;
    that consistency is the caller's contract.
    """
    g0 = np.asarray(free_resolvent_diag, dtype=complex)
    if g0.shape != (system.dim,):
        raise DimensionError(
            f"free-resolvent diagonal has shape {g0.shape}, expected ({system.dim},)"
        )
    return finite_neumann_inverse(system) * g0[np.newaxis, :]


def t_matrix(system: AcyclicSystem, potential: SparseOperator) -> np.ndarray:
    """Transition matrix V (I - T)^(-1) as a dense array."""
    if potential.dim != system.dim:
        raise DimensionError(
            f"potential has dimension {potential.dim}, system has {system.dim}"
        )
    return potential.to_dense() @ finite_neumann_inverse(system)


def direct_solve_oracle(operator: SparseOperator, phi) -> np.ndarray:
    """Solve (I - T) psi = phi by dense partial-pivot LU (numpy.linalg).

    Independent reference route: it never touches the sparse power
    machinery, so agreement with solve_exact is a genuine cross-check.
    Raises SingularError when |det(I - T)| is at or below
    SINGULAR_DET_THRESHOLD, exactly singular I - T included.
    """
    v = as_state_vector(phi, operator.dim)
    a = np.eye(operator.dim, dtype=complex) - operator.to_dense()
    # log|det| so that graded pivot magnitudes cannot overflow
    log_det = np.linalg.slogdet(a)[1]
    if log_det <= np.log(SINGULAR_DET_THRESHOLD):
        raise SingularError(
            f"I - T is numerically singular "
            f"(|det| {np.exp(log_det):.3e}, at or below {SINGULAR_DET_THRESHOLD:.0e})"
        )
    return np.linalg.solve(a, v)
