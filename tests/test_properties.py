"""Property tests of the certified solve on random DAGs with shuffled labels."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bornsolve.graph import analyze_acyclicity
from bornsolve.operators import SparseOperator, build_transfer_operator
from bornsolve.solver import (
    _substitute,
    _substitute_transposed,
    finite_neumann_inverse,
    make_system,
    solve_exact,
)
from conftest import assert_same_bits, backward_error

EPS = np.finfo(float).eps

# derandomized and without an example database: every run, locally and in
# CI, tries the same examples
PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                             database=None)

amplitudes = st.builds(
    complex,
    st.floats(-2.0, 2.0, allow_nan=False),
    st.floats(-2.0, 2.0, allow_nan=False),
)


@st.composite
def shuffled_dags(draw):
    """(dim, entries, phi): forward edges of a random vertex order, labels shuffled."""
    dim = draw(st.integers(1, 30))
    labels = draw(st.permutations(range(1, dim + 1)))
    pairs = [(a, b) for a in range(dim) for b in range(a + 1, dim)]
    kept = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=4 * dim)
                if pairs else st.just([]))
    entries = [(labels[b], labels[a], draw(amplitudes)) for a, b in kept]
    phi = np.array(draw(st.lists(amplitudes, min_size=dim, max_size=dim)))
    return dim, entries, phi


@PROPERTY_SETTINGS
@given(shuffled_dags())
def test_substitution_is_backward_stable(case):
    dim, entries, phi = case
    op = SparseOperator(dim, entries)
    psi = solve_exact(make_system(op), phi).total
    assert backward_error(op, phi, psi) <= 8 * dim * EPS


@PROPERTY_SETTINGS
@given(shuffled_dags(), st.data())
def test_basis_permutation_permutes_psi(case, data):
    dim, entries, phi = case
    new = data.draw(st.permutations(range(1, dim + 1)))  # label k becomes new[k - 1]
    moved = [(new[row - 1], new[col - 1], amp) for row, col, amp in entries]
    moved_phi = np.empty_like(phi)
    moved_phi[[k - 1 for k in new]] = phi
    psi = solve_exact(make_system(SparseOperator(dim, entries)), phi).total
    moved_psi = solve_exact(make_system(SparseOperator(dim, moved)), moved_phi).total
    scale = float(np.abs(psi).max(initial=0.0))
    npt.assert_allclose(moved_psi[[k - 1 for k in new]], psi,
                        rtol=0, atol=8 * dim * EPS * scale)


@PROPERTY_SETTINGS
@given(shuffled_dags(), st.integers(0, 3))
@example((3, [], np.array([1.0, 2j, -0.5])), 2)  # depth 0: nothing to sweep
def test_transposed_sweep_is_the_transposed_inverse(case, width):
    """The backward sweep's (I - T^T)^(-1) x is N^T x, N = (I - T)^(-1), for states and blocks.

    Both sides are within about n eps of the exact value componentwise,
    relative to |N|^T (I + |T|)^T |N|^T |x|: the sweep's own error, and the
    rounding of N by forward substitution and of the product.
    """
    dim, entries, phi = case
    system = make_system(SparseOperator(dim, entries))
    # a state, or a block of width columns that differ from one another
    x = phi if not width else np.stack([np.roll(phi, k) * 1j ** k for k in range(width)], axis=1)
    inverse = finite_neumann_inverse(system)
    got = _substitute_transposed(system, x.copy())
    expected = inverse.T @ x
    size = np.abs(inverse).T
    bound = size @ (np.eye(dim) + np.abs(system.operator.to_dense())).T @ size @ np.abs(x)
    assert got.shape == x.shape
    assert np.all(np.abs(got - expected) <= 8 * dim * EPS * bound)


SIGNED_ZEROS = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]


@PROPERTY_SETTINGS
@given(shuffled_dags(), st.lists(st.sampled_from([None, *SIGNED_ZEROS]), max_size=30),
       st.integers(0, 3))
@example((2, [(2, 1, -1 + 0j)], np.array([0j, 0j])), [None, complex(-0.0, 0.0)], 0)
def test_sweep_dots_are_the_matmul_loop_bits(case, zeros, width):
    """_substitute of a state or a block is a loop of @ over the rows, bit for bit.

    phi takes a signed zero wherever zeros has one.  A state's groups of
    two or more entries go through np.dot, which runs @'s kernel on two
    vectors; np.dot of 1-entry vectors gives -0.0 where @ gives +0.0, as
    in the example: -1 times state 1's +0 added to state 2's -0.
    """
    dim, entries, phi = case
    for k, zero in enumerate(zeros[:dim]):
        if zero is not None:
            phi[k] = zero
    system = make_system(SparseOperator(dim, entries))
    x = phi if not width else np.stack([np.roll(phi, k) * 1j ** k for k in range(width)], axis=1)
    op, want = system.operator, x.copy()
    ptr = op._row_ptr()
    for j in system.topological_order:
        lo, hi = ptr[j - 1], ptr[j]
        if lo < hi:
            want[j - 1] += op._amp[lo:hi] @ want[op._col[lo:hi] - 1]
    assert_same_bits(_substitute(system, x.copy()), want)


# a part is an exact zero or lies within a factor 4 of 1, so that every
# scaled value below stays in the normal range
parts = st.one_of(st.just(0.0), st.floats(0.5, 2.0), st.floats(-2.0, -0.5))


@st.composite
def hamiltonian_systems(draw):
    """(h0, records, energy): levels, potential records of any pattern, an energy off the real axis."""
    dim = draw(st.integers(1, 12))
    h0 = draw(st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim))
    cells = [(row, col) for row in range(1, dim + 1) for col in range(1, dim + 1)]
    kept = draw(st.lists(st.sampled_from(cells), unique=True, max_size=3 * dim))
    records = [(row, col, complex(draw(parts), draw(parts))) for row, col in kept]
    energy = complex(draw(st.floats(-3.0, 3.0)), draw(st.floats(0.1, 1.0)))
    return np.array(h0), records, energy


@PROPERTY_SETTINGS
@given(hamiltonian_systems(), st.integers(-30, 30))
def test_scaling_the_hamiltonian_changes_nothing(case, k):
    h0, records, energy = case
    scale = 10.0 ** k
    t = build_transfer_operator(h0, SparseOperator(h0.size, records), energy)
    scaled = SparseOperator(h0.size, [(row, col, amp * scale) for row, col, amp in records])
    t_scaled = build_transfer_operator(h0 * scale, scaled, energy * scale)
    # same pattern in the same storage order, so the same certificate
    npt.assert_array_equal(t_scaled._row, t._row)
    npt.assert_array_equal(t_scaled._col, t._col)
    assert analyze_acyclicity(t_scaled) == analyze_acyclicity(t)
    # T = V / (E - H0) is scale-free; scaled inputs round differently, and
    # the gap E - H0 magnifies that rounding by (|E| + |H0|) / |E - H0|
    cond = (abs(energy) + np.abs(h0)) / np.abs(energy - h0)
    bound = 8 * EPS * (1 + cond[t._row - 1]) * np.abs(t._amp)
    assert np.all(np.abs(t_scaled._amp - t._amp) <= bound)


@st.composite
def records_over_decades(draw):
    """(dim, records): any pattern, amplitudes from 1e-300 to 1e300 or exact zeros."""
    dim = draw(st.integers(1, 12))
    cells = [(row, col) for row in range(1, dim + 1) for col in range(1, dim + 1)]
    kept = draw(st.lists(st.sampled_from(cells), unique=True, max_size=2 * dim))
    exponents = st.integers(-300, 300)
    records = [(row, col, complex(draw(parts) * 10.0 ** draw(exponents),
                                  draw(parts) * 10.0 ** draw(exponents)))
               for row, col in kept]
    return dim, records


@PROPERTY_SETTINGS
@given(records_over_decades())
def test_witness_cycle_is_a_cycle_of_declared_records(case):
    dim, records = case
    edges = {(col, row) for row, col, amp in records if amp != 0}  # source -> target
    report = analyze_acyclicity(SparseOperator(dim, records))
    # the declared nonzero pattern is acyclic exactly when its 0/1 matrix is nilpotent
    adjacency = np.zeros((dim, dim), dtype=np.int64)
    for source, target in edges:
        adjacency[target - 1, source - 1] = 1
    reach = adjacency
    for _ in range(dim):
        reach = np.minimum(reach @ adjacency, 1)
    assert report.is_acyclic == (not reach.any())
    if not report.is_acyclic:
        cycle = report.witness_cycle
        assert len(set(cycle)) == len(cycle)
        closed = cycle + cycle[:1]
        assert all(step in edges for step in zip(closed, closed[1:]))
