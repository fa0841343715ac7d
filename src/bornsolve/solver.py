"""Solves of I - T: exact for certified-nilpotent T, by components for any invertible T.

When the transition graph of T is acyclic, T is nilpotent and the Neumann
series of (I - T)^(-1) closes after depth + 1 terms, whatever the size of
||T||.  In the certificate's topological order I - T is also unit lower
triangular and I - T^T unit upper triangular.  Scattered states and the
full resolvent come from one forward substitution, one numpy dot per
stored row, for a state and a block of columns alike; the transition
matrix comes from one transposed (backward) substitution, one numpy dot
per stored column, with no dense matrix product.  Both are one loop,
_sweep, over two indexes of the same stored entries, and det(I - T) = 1
exactly.
Any other invertible I - T is solved by the same forward substitution
over the strongly connected components of T (_block_solve), where a
component with a cycle or a self-loop is a dense block.  det(I - T) of
any operator is the product of those blocks' determinants, from one
slogdet per block, and I - T counts as singular when that determinant
fails the dense oracle's test.  The components and each block's entries
(_layout) follow from T's pattern alone and the pattern memory keeps
them; each call forms the blocks from its own values.
The term loop, which applies T once per order, makes the Born terms on
demand and the truncations of any operator.  A dense LU route is kept
alongside as an independent cross-check; it shares none of this code.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain

import numpy as np

from .errors import DimensionError, NotNilpotentError, SingularError
from .graph import _strong_components, analyze_acyclicity
from .operators import (SparseOperator, _apply, _bin_sums, _derived, _products, _stable_order,
                        _state, as_state_vector)

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
    below closes after depth + 1 terms.  topological_order lists the
    vertices by level, every edge's source before its target.  Instances
    come from make_system.  Equality compares the operators' contents;
    the hash reads only depth and order, which equal systems share.
    """

    operator: SparseOperator
    depth: int
    topological_order: tuple[int, ...]

    def __hash__(self) -> int:
        return hash((self.depth, self.topological_order))

    @property
    def dim(self) -> int:
        return self.operator.dim

    @property
    def term_count(self) -> int:
        return self.depth + 1


@dataclass(frozen=True, eq=False)
class BornExpansion:
    """Scattered state of a certified system, with its Born terms on demand.

    total is (I - T)^(-1) phi by forward substitution; terms[k] = T^k phi,
    k = 0..order, come from the term loop the first time they are read.
    Equality is identity: the fields are arrays, which compare elementwise.
    """

    system: AcyclicSystem
    phi: np.ndarray
    total: np.ndarray

    @property
    def order(self) -> int:
        return self.system.depth

    @cached_property
    def terms(self) -> tuple[np.ndarray, ...]:
        return tuple(_born_terms(self.system.operator, self.phi, self.order))


def make_system(operator: SparseOperator) -> AcyclicSystem:
    """Certify an operator through its transition graph.

    Raises NotNilpotentError, carrying a witness cycle, when the graph is
    cyclic.  The certificate is purely structural: no power of the
    operator is formed and no floating-point comparison is involved.  So
    analyze_acyclicity returns an operator's certificate again for the
    next one with the same stored pattern, as an energy scan's transfer
    operators have; the system always holds the operator given.
    """
    report = analyze_acyclicity(operator)
    if not report.is_acyclic:
        raise NotNilpotentError(report.witness_cycle)
    assert report.depth is not None and report.topological_order is not None
    return AcyclicSystem(operator, report.depth, report.topological_order)


def solve_exact(system: AcyclicSystem, phi) -> BornExpansion:
    """Scattered state (I - T)^(-1) phi, exactly, by forward substitution.

    psi[j] = phi[j] + sum_c T[j, c] psi[c], one numpy dot over the stored
    row j, rows taken in topological order, so every psi[c] it reads is
    already final.  One pass over the stored entries; the result
    has no truncation error.
    """
    v = as_state_vector(phi, system.dim)
    # phi is copied too: the terms are made later, from the state of this call
    return BornExpansion(system, v.copy(), _substitute(system, v.copy()))


def born_approximation(operator: SparseOperator, phi, order: int) -> np.ndarray:
    """Partial Born sum through the given interaction order.

    Defined for any operator, nilpotent or not; for a certified system it
    matches solve_exact, to rounding, once order reaches the depth.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    terms = _born_terms(operator, as_state_vector(phi, operator.dim), order)
    # a running sum, stopped at the first all-zero term (T 0 = 0)
    total = next(terms).copy()
    for term in terms:
        total += term
        if not term.any():
            break
    return total


def _born_terms(operator: SparseOperator, v: np.ndarray, order: int):
    """Yield v, T v, ..., T^order v: the one term loop of every Born term and truncation."""
    yield v
    for _ in range(order):
        v = _apply(operator, v)
        yield v


def finite_neumann_inverse(system: AcyclicSystem) -> np.ndarray:
    """(I - T)^(-1), exact and dense, by the substitution of solve_exact.

    Row j of N = (I - T)^(-1) is e_j + sum_c T[j, c] N[c], so the identity
    block goes through the same substitution as a state: one numpy dot
    per stored row, a vector-matrix product here, no power of T.
    """
    return _substitute(system, np.eye(system.dim, dtype=complex))


def _substitute(system: AcyclicSystem, x: np.ndarray) -> np.ndarray:
    """Overwrite x, a state (n,) or a block (n, m), with (I - T)^(-1) x.

    Rows are taken in topological order, so each row's dot reads rows of
    x that are already final; (I - T) is unit lower triangular in that
    order, and this is its forward substitution.
    """
    op = system.operator
    return _sweep(system.topological_order, op._row_ptr().tolist(), op._col - 1, op._amp, x)


def _substitute_transposed(system: AcyclicSystem, x: np.ndarray) -> np.ndarray:
    """Overwrite x, a state (n,) or a block (n, m), with (I - T^T)^(-1) x.

    y[i] = x[i] + sum_j T[j, i] y[j], one numpy dot over the stored
    entries of source i, states taken in reversed topological order, so
    each dot reads rows of x that are already final; (I - T^T) is unit
    upper triangular in topological order, and this is its backward
    substitution.
    """
    op = system.operator
    by_source, ptr = op._by_source()
    return _sweep(reversed(system.topological_order), ptr,
                  op._row[by_source] - 1, op._amp[by_source], x)


def _sweep(order: Iterable[int], ptr: list[int], index: np.ndarray,
           amp: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The one substitution loop: x[j - 1] += amp @ x[index] over each state j's group.

    State j's group of entries sits at ptr[j - 1]:ptr[j] of index, the
    0-based states it reads, and of amp, their amplitudes.  A state's
    groups of two or more entries go through np.dot, which runs @'s dot
    kernel on two vectors without the matmul ufunc's dispatch, 0.3 us a
    group.  A group of one entry, and a block's groups, keep @: np.dot
    takes a 1-entry vector for a scalar and returns the bare product,
    where @ adds it to +0.0 (so a -0.0 part becomes +0.0), and scales a
    block's row by it with other roundings.
    """
    at = np.matmul  # @ as a function
    dot = np.dot if x.ndim == 1 else at
    for j in order:
        lo, hi = ptr[j - 1], ptr[j]
        if lo < hi:
            x[j - 1] += (dot if hi - lo > 1 else at)(amp[lo:hi], x[index[lo:hi]])
    return x


def _layout(op: SparseOperator) -> tuple:
    """T's strong components as the steps of a block forward substitution (Duff & Reid 1978).

    They follow from T's pattern alone, so the pattern memory keeps them.
    Sources first, a maximal run of single states with no self-loop is a
    list of their labels, one _sweep; any other component is a block
    (rows, own, at_row, at_col, inflow, inflow_at): its 0-based states,
    its stored entries and their places in it, and the entries flowing
    into it from earlier components and their rows' places.
    """
    components = _strong_components(op)
    row, col = op._row, op._col
    sizes = np.array([len(states) for states in components])
    labels = np.fromiter(chain.from_iterable(components), dtype=np.intp, count=op.dim)
    of = np.empty(op.dim + 1, dtype=np.intp)  # each state's component ...
    of[labels] = np.repeat(np.arange(sizes.size), sizes)
    at = np.empty(op.dim + 1, dtype=np.intp)  # ... and its place in it
    at[labels] = np.arange(op.dim) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    inner = of[row] == of[col]
    # entries grouped by their row's component, in storage order within it
    grouped = _stable_order(of[row], sizes.size)
    bounds = list(accumulate(np.bincount(of[row], minlength=sizes.size).tolist(), initial=0))
    blocks = set(np.unique(of[row[inner]]).tolist())  # components with a cycle or a self-loop
    steps: list = []
    for k, states in enumerate(components):
        if k in blocks:
            e = grouped[bounds[k]:bounds[k + 1]]
            own, inflow = e[inner[e]], e[~inner[e]]
            steps.append((np.array(states) - 1, own, at[row[own]], at[col[own]],
                          inflow, at[row[inflow]]))
        elif steps and isinstance(steps[-1], list):
            steps[-1] += states
        else:
            steps.append(list(states))
    return tuple(steps)


def _layout_bytes(steps: tuple) -> int:
    """Bytes the pattern memory counts for a layout: its blocks' arrays, 40 a state in a run."""
    return sum(40 * len(s) if isinstance(s, list) else sum(a.nbytes for a in s) for s in steps)


def _dense_blocks(op: SparseOperator, steps: tuple) -> tuple[list[np.ndarray], complex, float]:
    """The blocks' rows of I - T from op's values, in the steps' order, and det(I - T).

    Returns (blocks, sign, log_det), det = sign * exp(log_det) from one slogdet a block.
    """
    dense, sign, log_det = [], 1 + 0j, 0.0
    for step in steps:
        if isinstance(step, tuple):
            rows, own, at_row, at_col, _, _ = step
            a = np.eye(rows.size, dtype=complex)  # I - T as the oracle forms it
            a[at_row, at_col] -= op._amp[own]
            block_sign, block_log = np.linalg.slogdet(a)
            sign *= block_sign
            log_det += block_log
            dense.append(a)
    return dense, sign, log_det


def _block_solve(op: SparseOperator, x: np.ndarray) -> np.ndarray:
    """Overwrite x with (I - T)^(-1) x, by forward substitution over T's components.

    Sources first, I - T is block lower triangular.  A run of single
    states with no self-loop is one call of _sweep, the acyclic solve's
    own loop; every other component, a self-loop state included, adds
    its inflow from finished states, then takes one dense solve of its
    rows.  Before any solve, the blocks' log|det(I - T)| goes through
    the singularity test of direct_solve_oracle.
    """
    steps = _derived(op, _layout, _layout_bytes)
    dense, _, log_det = _dense_blocks(op, steps)
    _check_invertible(log_det)
    amp, source, ptr = op._amp, op._col - 1, op._row_ptr().tolist()
    blocks = iter(dense)  # in the steps' order
    for step in steps:
        if isinstance(step, list):
            _sweep(step, ptr, source, amp, x)
            continue
        rows, _, _, _, inflow, inflow_at = step
        rhs = x[rows]
        if inflow.size:
            rhs += _bin_sums(inflow_at, *_products(amp[inflow], x[source[inflow]]), rows.size)
        x[rows] = np.linalg.solve(next(blocks), rhs)
    return x


def det_i_minus_t(operator: SparseOperator) -> complex:
    """det(I - T) for any operator, from the blocks of its strong components.

    Exactly 1 + 0j for an acyclic T, where no component is a block; no
    dense matrix of the whole operator is formed.
    """
    _, sign, log_det = _dense_blocks(operator, _derived(operator, _layout, _layout_bytes))
    return complex(sign * np.exp(log_det))


def det_check(system: AcyclicSystem) -> complex:
    """Determinant of I - T for a certified system: exactly 1 + 0j.

    I - T is unit triangular in topological order, so every component
    of T is a single state with no self-loop and contributes exactly 1.
    """
    return det_i_minus_t(system.operator)


def full_resolvent(system: AcyclicSystem, free_resolvent_diag) -> np.ndarray:
    """Full resolvent (E - H0 - V)^(-1) = (I - T)^(-1) diag(G0), dense.

    free_resolvent_diag must be the diagonal of (E - H0)^(-1) for the
    same Hamiltonian and energy the transfer operator was built from;
    that consistency is the caller's contract.  A non-finite component
    raises ValueError, as a state vector's does.
    """
    g0 = _state(free_resolvent_diag, system.dim, "free-resolvent diagonal")
    x = finite_neumann_inverse(system)
    x *= g0
    return x


def t_matrix(system: AcyclicSystem, potential: SparseOperator) -> np.ndarray:
    """Transition matrix TM = V (I - T)^(-1), dense, C-contiguous complex (n, n).

    TM (I - T) = V transposes to TM^T = (I - T^T)^(-1) V^T, so the dense
    V^T goes through one transposed substitution, one numpy dot per
    stored column of T; neither (I - T)^(-1) nor a dense matrix product
    is formed.
    """
    if potential.dim != system.dim:
        raise DimensionError(
            f"potential has dimension {potential.dim}, system has {system.dim}"
        )
    x = np.zeros((system.dim, system.dim), dtype=complex)
    x[potential._col - 1, potential._row - 1] = potential._amp  # V^T
    return np.ascontiguousarray(_substitute_transposed(system, x).T)


def direct_solve_oracle(operator: SparseOperator, phi) -> np.ndarray:
    """Solve (I - T) psi = phi by dense partial-pivot LU (numpy.linalg).

    Independent reference route: it never touches the sparse power
    machinery, so agreement with solve_exact is a genuine cross-check.
    Raises SingularError when |det(I - T)| is at or below
    SINGULAR_DET_THRESHOLD, exactly singular I - T included.
    """
    v = as_state_vector(phi, operator.dim)
    a = np.eye(operator.dim, dtype=complex) - operator.to_dense()
    _check_invertible(np.linalg.slogdet(a)[1])
    return np.linalg.solve(a, v)


def _check_invertible(log_det: float) -> None:
    """Raise SingularError when log|det(I - T)| is at or below log(SINGULAR_DET_THRESHOLD).

    log|det| so that graded pivot magnitudes cannot overflow; -inf, an
    exactly singular I - T, raises too.
    """
    if log_det <= np.log(SINGULAR_DET_THRESHOLD):
        raise SingularError(
            f"I - T is numerically singular "
            f"(|det| {np.exp(log_det):.3e}, at or below {SINGULAR_DET_THRESHOLD:.0e})"
        )
