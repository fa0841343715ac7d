"""Truncation residuals and the geometric error bound."""

from __future__ import annotations

import re
import warnings
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornsolve.errors import SingularError
from bornsolve.graph import analyze_acyclicity
from bornsolve.operators import SparseOperator, basis_state, matvec, operator_norm, power, vector_norm
from bornsolve.solver import (
    _block_solve,
    _substitute,
    born_approximation,
    direct_solve_oracle,
    make_system,
    solve_exact,
)
from bornsolve.specfile import load_spec, spec_to_operator
from bornsolve.truncation import (
    QUASI_NILPOTENT_DEFECT,
    exact_remainder,
    remainder_bound,
)
from conftest import (
    DYADIC,
    assert_same_bits,
    forget,
    planted_blocks,
    random_dag,
    random_operator,
    random_state,
    scaled_to_norm,
)
from oracles import (gaussian, rational_matvec, rational_power, rational_remainder, rational_sum,
                     rational_terms)

EPS = np.finfo(float).eps

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                             database=None)

# two-level loop: 1 -> 2 with 0.04, 2 -> 1 with 0.5; every number in the
# order-2 budget is hand-checkable (powers of two keep them exact)
WORKED = SparseOperator(2, [(1, 2, 0.5), (2, 1, 0.04)])


def diamond_operator(t21=1.0, t31=1.0, t42=1.0, t43=1.0) -> SparseOperator:
    return SparseOperator(4, [(2, 1, t21), (3, 1, t31), (4, 2, t42), (4, 3, t43)])


def nonzero_operator(rng, dim, density=0.4):
    op = random_operator(rng, dim, density)
    while op.is_zero():
        op = random_operator(rng, dim, density)
    return op


class TestWorkedExample:
    def test_budget_numbers(self):
        report = remainder_bound(WORKED, basis_state(2, 1), 2, "inf")
        assert report.order == 2
        assert report.operator_norm == 0.5
        assert report.defect_norm == 0.01
        assert report.phi_norm == 1.0
        assert report.bound == 0.02
        assert not report.quasi_nilpotent

    def test_remainder_closed_form(self):
        # T^3 e1 = 8e-4 e2 and (I - T)^(-1) = [[1, 0.5], [0.04, 1]] / 0.98
        report = remainder_bound(WORKED, basis_state(2, 1), 2, "inf")
        npt.assert_allclose(report.exact_remainder_norm, 8e-4 / 0.98, rtol=1e-13)
        assert report.exact_remainder_norm <= report.bound

    def test_remainder_vector(self):
        remainder = exact_remainder(WORKED, basis_state(2, 1), 2)
        npt.assert_allclose(remainder, [4e-4 / 0.98, 8e-4 / 0.98], rtol=1e-13)


class TestNilpotentCases:
    def test_everything_zero_at_depth(self):
        report = remainder_bound(diamond_operator(3.0, -2.0, 1.5j, 7.0),
                                 basis_state(4, 1), 2, "inf")
        assert report.defect_norm == 0.0
        assert report.exact_remainder_norm == 0.0
        assert report.bound is None  # norm is 5 here, no geometric bound
        assert report.quasi_nilpotent

    def test_zero_bound_for_contraction_at_depth(self):
        report = remainder_bound(diamond_operator(0.1, 0.2, 0.3, 0.4),
                                 basis_state(4, 1), 2, "inf")
        assert report.defect_norm == 0.0
        assert report.bound == 0.0
        assert report.exact_remainder_norm == 0.0

    def test_truncation_below_depth_leaves_tail(self):
        op = diamond_operator(0.3, 0.2, 0.1, 0.4)
        phi = basis_state(4, 1)
        report = remainder_bound(op, phi, 1, "inf")
        assert report.defect_norm > 0.0
        # with T^3 = 0 the residual beyond order 1 is exactly T^2 phi
        expected = matvec(power(op, 2), phi)
        npt.assert_allclose(exact_remainder(op, phi, 1), expected,
                            rtol=1e-12, atol=1e-15)
        assert report.exact_remainder_norm <= report.bound

    def test_structural_cancellation_counts_as_nilpotent(self):
        # branch products cancel exactly, so the square is a structural
        # zero and the order-1 budget is identically zero
        op = diamond_operator(2.0, 4.0, 3.0, -1.5)
        report = remainder_bound(op, basis_state(4, 1), 1, "inf")
        assert report.defect_norm == 0.0
        assert report.exact_remainder_norm == 0.0


class TestBoundProperties:
    def test_bound_dominates_remainder(self):
        rng = np.random.default_rng(137)
        for _ in range(50):
            dim = int(rng.integers(2, 8))
            target = rng.uniform(0.1, 0.9)
            op = scaled_to_norm(nonzero_operator(rng, dim), target)
            phi = random_state(rng, dim)
            m = int(rng.integers(0, 5))
            report = remainder_bound(op, phi, m, "inf")
            assert report.bound is not None
            assert report.exact_remainder_norm <= report.bound * (1 + 1e-12) + 1e-15

    def test_remainder_is_full_solution_minus_partial_sum(self):
        rng = np.random.default_rng(139)
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            op = scaled_to_norm(nonzero_operator(rng, dim), 0.8)
            phi = random_state(rng, dim)
            m = int(rng.integers(0, 4))
            a = np.eye(dim, dtype=complex) - op.to_dense()
            full = np.linalg.solve(a, phi)
            partial = born_approximation(op, phi, m)
            npt.assert_allclose(exact_remainder(op, phi, m), full - partial,
                                rtol=1e-9, atol=1e-11)

    def test_geometric_decay_in_order(self):
        rng = np.random.default_rng(149)
        for _ in range(15):
            dim = int(rng.integers(2, 7))
            op = scaled_to_norm(nonzero_operator(rng, dim), 0.8)
            phi = random_state(rng, dim)
            norms = [remainder_bound(op, phi, m, "inf").exact_remainder_norm
                     for m in range(5)]
            op_norm = 0.8
            for earlier, later in zip(norms, norms[1:]):
                assert later <= op_norm * earlier + 1e-12

    def test_defect_zero_implies_remainder_zero(self):
        # whenever the reported defect vanishes the remainder must vanish
        # too, bitwise, because the tail power is a structural zero
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            dim = int(rng.integers(2, 9))
            op = random_dag(rng, dim)
            phi = random_state(rng, dim)
            for m in range(dim + 1):
                report = remainder_bound(op, phi, m, "inf")
                if report.defect_norm == 0.0:
                    hits += 1
                    assert report.exact_remainder_norm == 0.0
        assert hits > 20


class TestArgumentHandling:
    def test_frobenius_rejected(self):
        with pytest.raises(ValueError, match="induced"):
            remainder_bound(WORKED, basis_state(2, 1), 2, "fro")

    def test_one_norm_accepted(self):
        report = remainder_bound(WORKED, basis_state(2, 1), 2, "one")
        assert report.norm_kind == "one"
        assert report.operator_norm == 0.5  # symmetric pattern, same value

    def test_negative_order_rejected(self):
        phi = basis_state(2, 1)
        with pytest.raises(ValueError, match=">= 0"):
            exact_remainder(WORKED, phi, -1)
        with pytest.raises(ValueError, match=">= 0"):
            remainder_bound(WORKED, phi, -1)

    def test_bound_withheld_above_unit_norm(self):
        op = scaled_to_norm(WORKED, 1.5)
        report = remainder_bound(op, basis_state(2, 1), 2, "inf")
        assert report.bound is None
        assert report.exact_remainder_norm > 0.0
        assert report.defect_norm > 0.0

    def test_quasi_nilpotent_flag_threshold(self):
        assert QUASI_NILPOTENT_DEFECT == 1e-3
        # T^2 = ab * I for the two-level loop, so the order-1 defect is |ab|
        just_below = SparseOperator(2, [(1, 2, 0.1), (2, 1, 0.009)])
        just_above = SparseOperator(2, [(1, 2, 0.1), (2, 1, 0.011)])
        phi = basis_state(2, 1)
        assert remainder_bound(just_below, phi, 1, "inf").quasi_nilpotent
        assert not remainder_bound(just_above, phi, 1, "inf").quasi_nilpotent

    def test_defect_matches_dense_power_norm(self):
        rng = np.random.default_rng(157)
        op = random_operator(rng, 6)
        d = op.to_dense()
        for m in range(4):
            dense = np.linalg.matrix_power(d, m + 1)
            npt.assert_allclose(operator_norm(power(op, m + 1), "inf"),
                                np.linalg.norm(dense, np.inf),
                                rtol=1e-12, atol=1e-13)
            npt.assert_allclose(operator_norm(power(op, m + 1), "one"),
                                np.linalg.norm(dense, 1),
                                rtol=1e-12, atol=1e-13)


def states(dim):
    return st.lists(st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False),
                    min_size=dim, max_size=dim).map(lambda v: np.array(v, dtype=complex))


def exactly_singular(op: SparseOperator, block: list[int]) -> SparseOperator:
    """op with its entries inside block replaced by a cycle whose amplitudes multiply to 1.

    The cycle's block of I - T then has determinant 1 - 1 = 0 exactly; a
    single state gets a unit self-loop.
    """
    inside = set(block)
    kept = [(j, i, a) for j, i, a in op.entries() if not (j in inside and i in inside)]
    gains = (1.0,) if len(block) == 1 else (2.0, 0.5, 1.0, 1.0)
    cycle = [(block[(k + 1) % len(block)], block[k], gains[k]) for k in range(len(block))]
    return SparseOperator(op.dim, kept + cycle)


class TestBlockRoute:
    """The remainder's forward substitution over the strong components of T."""

    @PROPERTY_SETTINGS
    @given(planted_blocks(), st.data())
    def test_matches_the_dense_lu(self, case, data):
        # several blocks, self-loops, blocks downstream of blocks; with
        # ||T||_inf = 0.5, cond_inf(I - T) is at most 3
        dim, entries, _ = case
        op = SparseOperator(dim, entries)
        if not op.is_zero():
            op = scaled_to_norm(op, 0.5)
        phi = data.draw(states(dim))
        want = direct_solve_oracle(op, phi)
        got = _block_solve(op, phi.copy())
        assert np.abs(got - want).max() <= 32 * dim * EPS * np.abs(want).max()
        m = data.draw(st.integers(0, 3))
        tail = matvec(power(op, m + 1), phi)
        want = direct_solve_oracle(op, tail)
        got = exact_remainder(op, phi, m)
        assert np.abs(got - want).max() <= 32 * dim * EPS * np.abs(want).max()

    @PROPERTY_SETTINGS
    @given(planted_blocks(), st.data())
    def test_singular_block_raises(self, case, data):
        dim, entries, blocks = case
        op = SparseOperator(dim, entries)
        if not op.is_zero():
            op = scaled_to_norm(op, 0.5)
        singular = exactly_singular(op, data.draw(st.sampled_from(blocks)))
        phi = data.draw(states(dim))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no division by the zero pivot
            with pytest.raises(SingularError, match=r"\(\|det\| 0\.000e\+00, at or below 1e-12\)"):
                exact_remainder(singular, phi, data.draw(st.integers(0, 3)))
        with pytest.raises(SingularError):
            direct_solve_oracle(singular, phi)

    def test_unit_self_loop_raises_the_oracles_message(self):
        for op in (SparseOperator.identity(3), SparseOperator(2, [(1, 1, 1.0), (2, 1, 0.5)])):
            phi = np.ones(op.dim)
            with pytest.raises(SingularError) as oracle:
                direct_solve_oracle(op, phi)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SingularError) as block:
                    exact_remainder(op, phi, 0)
            assert str(block.value) == str(oracle.value)

    def test_near_singular_block_raises_the_oracles_message(self):
        # |det(I - T)| = 1 - t12 t21: about 1e-13, 1e-12 and 1e-11, around the 1e-12
        # threshold; both routes decide alike, and raise with the same message
        for t in (1.0 - 1e-13, 1.0 - 1e-12, 1.0 - 1e-11):
            op = SparseOperator(2, [(1, 2, 0.5), (2, 1, 2.0 * t)])
            phi = np.array([1.0, 2.0], dtype=complex)
            try:
                want = direct_solve_oracle(op, phi)
            except SingularError as exc:
                with pytest.raises(SingularError, match=re.escape(str(exc))):
                    exact_remainder(op, phi, 1)
            else:
                npt.assert_allclose(_block_solve(op, phi.copy()), want)

    def test_one_block_is_the_dense_solve_bit_for_bit(self):
        # the two-level loop is one block spanning the matrix in label order
        rng = np.random.default_rng(163)
        for phi in [basis_state(2, 1), basis_state(2, 2), *(random_state(rng, 2) for _ in range(5))]:
            for m in range(5):
                want = direct_solve_oracle(WORKED, matvec(power(WORKED, m + 1), phi))
                assert_same_bits(exact_remainder(WORKED, phi, m), want)

    def test_acyclic_components_are_the_solvers_sweep(self):
        # every component a single state with no loop: the block route is
        # solver._sweep, dot for dot, whatever order the components come in
        rng = np.random.default_rng(173)
        for _ in range(20):
            dim = int(rng.integers(2, 16))
            op = random_dag(rng, dim, density=0.5)
            phi = random_state(rng, dim)
            want = _substitute(make_system(op), phi.copy())
            assert_same_bits(_block_solve(op, phi.copy()), want)
            for m in range(analyze_acyclicity(op).depth):
                want = _substitute(make_system(op), matvec(power(op, m + 1), phi))
                assert_same_bits(exact_remainder(op, phi, m), want)

    def test_dyadic_self_loop_chain_is_exact(self):
        # 1 and 2 are self-loop blocks of one: psi = (1 / 0.5, (1 + 0.25 * 2) / 2,
        # 1 + 0.5 * 0.75), every step exact in binary
        op = SparseOperator(3, [(1, 1, 0.5), (2, 1, 0.25), (2, 2, -1.0), (3, 2, 0.5)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _block_solve(op, np.ones(3, dtype=complex))
        assert_same_bits(got, np.array([2.0, 0.75, 1.375], dtype=complex))


@st.composite
def dyadic_dags(draw, max_dim: int = 16):
    """(op, phi): a DAG and a state with every amplitude and component in DYADIC.

    Each pair of states draws its amplitude from DYADIC with the zero
    repeated up to 24 times, so the density runs from sparse to full.
    """
    dim = draw(st.integers(2, max_dim))
    order = draw(st.permutations(range(1, dim + 1)))
    pairs = list(combinations(range(dim), 2))
    amplitude = st.sampled_from([0.0] * draw(st.integers(0, 23)) + DYADIC)
    amps = draw(st.lists(amplitude, min_size=len(pairs), max_size=len(pairs)))
    op = SparseOperator(dim, [(order[b], order[a], amp) for (a, b), amp in zip(pairs, amps)])
    phi = np.array(draw(st.lists(st.sampled_from(DYADIC), min_size=dim, max_size=dim)),
                   dtype=complex)
    return op, phi


class TestExactRemainder:
    """The solve and its remainder against exact Gaussian-rational Born terms (tests/oracles.py)."""

    @PROPERTY_SETTINGS
    @given(dyadic_dags())
    def test_dyadic_dag_solve_is_the_exact_born_sum(self, case):
        # the paper's identity with no rounding: the substitution's psi is
        # sum_{k <= depth} T^k phi, and psi - T psi == phi
        op, phi = case
        psi = [gaussian(z) for z in solve_exact(make_system(op), phi).total]
        assert psi == rational_sum(rational_terms(op, phi), op.dim)
        residual = [(pr - tr, pi - ti)
                    for (pr, pi), (tr, ti) in zip(psi, rational_matvec(op, psi))]
        assert residual == [gaussian(z) for z in phi]

    @PROPERTY_SETTINGS
    @given(dyadic_dags())
    def test_certified_depth_is_the_nilpotency_index(self, case):
        # positive amplitudes: no two walks cancel, so T^k is zero exactly
        # when no walk has k edges, and T^(depth + 1) == 0 != T^depth; the
        # second certificate is the remembered one
        op, _ = case
        op = SparseOperator(op.dim, [(r, c, abs(a)) for r, c, a in op.entries()])
        forget()  # remember no pattern of these
        fresh, remembered = make_system(op), make_system(op)
        assert remembered.topological_order is fresh.topological_order
        powers = [rational_power(op, 0)]
        while powers[-1]:
            powers.append(rational_power(op, 1, powers[-1]))
        for system in (fresh, remembered):
            assert powers[system.depth] != {}
            assert powers[system.depth + 1] == {}

    @PROPERTY_SETTINGS
    @given(dyadic_dags())
    def test_dyadic_dag_remainder_is_exact(self, case):
        op, phi = case
        terms = rational_terms(op, phi)
        for m in range(analyze_acyclicity(op).depth):
            want = rational_sum(terms[m + 1:], op.dim)
            assert [gaussian(z) for z in exact_remainder(op, phi, m)] == want

    def test_layered200_remainder_is_nearer_than_the_dense_lu(self):
        # solve --phi 1 --order 1 on the golden spec: its printed
        # remainder_norm is the substitution's, not LU's
        op = spec_to_operator(load_spec(Path(__file__).parent / "golden" / "layered200.spec"))
        phi = basis_state(op.dim, 1)
        exact = max(re * re + im * im for re, im in rational_remainder(op, phi, 1))

        def error(v):
            return abs(Fraction(vector_norm(v, "inf")) ** 2 - exact)

        lu = direct_solve_oracle(op, matvec(power(op, 2), phi))
        assert error(exact_remainder(op, phi, 1)) < error(lu)

    def test_large_couplings_are_no_singular_system(self):
        # det(I - T) = 1 whatever the couplings' units; the dense LU of
        # this chain finds |det| 0
        op = SparseOperator(40, [(k + 1, k, 1e3) for k in range(1, 40)]
                            + [(k + 2, k, -1e3) for k in range(1, 39)])
        phi = basis_state(40, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = exact_remainder(op, phi, 1)
            want = solve_exact(make_system(op), phi).total - phi - matvec(op, phi)
        npt.assert_allclose(got, want, rtol=1e-14)
