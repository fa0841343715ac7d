"""Property tests of the certified solve on random DAGs with shuffled labels."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
from hypothesis import given, settings
from hypothesis import strategies as st

from bornsolve.operators import SparseOperator
from bornsolve.solver import make_system, solve_exact
from conftest import backward_error

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
