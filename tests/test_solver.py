"""Finite expansion solver: certification, solves, resolvent, T-matrix."""

from __future__ import annotations

import warnings

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import given, settings

from bornsolve.errors import DimensionError, NotNilpotentError, SingularError
from bornsolve.operators import (
    SparseOperator,
    _apply,
    basis_state,
    build_transfer_operator,
    free_resolvent_diagonal,
    matvec,
    operator_norm,
    power,
)
from bornsolve.solver import (
    born_approximation,
    det_check,
    det_i_minus_t,
    direct_solve_oracle,
    finite_neumann_inverse,
    full_resolvent,
    make_system,
    solve_exact,
    t_matrix,
)
from bornsolve.scenarios import build_diamond
from conftest import (
    backward_error,
    planted_blocks,
    random_dag,
    random_operator,
    random_state,
    scaled_to_norm,
)
from oracles import dense_det

EPS = np.finfo(float).eps


def diamond_operator(t21=1.0, t31=1.0, t42=1.0, t43=1.0) -> SparseOperator:
    return SparseOperator(4, [(2, 1, t21), (3, 1, t31), (4, 2, t42), (4, 3, t43)])


def assert_close_to_termwise(expansion, termwise) -> None:
    """The substitution total against a termwise Born sum of the same state.

    The two sum in different orders, so they agree to 8 n eps relative to
    the largest term; the total is also backward stable to 8 n eps.
    """
    n = expansion.system.dim
    scale = max(float(np.abs(term).max()) for term in expansion.terms)
    assert float(np.abs(expansion.total - termwise).max()) <= 8 * n * EPS * scale
    assert backward_error(expansion.system.operator, expansion.phi,
                          expansion.total) <= 8 * n * EPS


def relative_gap(a, b) -> float:
    scale = max(float(np.linalg.norm(np.asarray(b).ravel())), 1e-300)
    return float(np.linalg.norm((np.asarray(a) - np.asarray(b)).ravel())) / scale


class TestMakeSystem:
    def test_diamond_certification(self):
        system = make_system(diamond_operator())
        assert system.dim == 4
        assert system.depth == 2
        assert system.term_count == 3

    def test_cyclic_operator_rejected_with_witness(self):
        op = SparseOperator(3, [(1, 2, 0.5), (2, 1, 0.5), (3, 1, 1.0)])
        with pytest.raises(NotNilpotentError) as excinfo:
            make_system(op)
        witness = excinfo.value.witness_cycle
        assert sorted(witness) == [1, 2]
        assert "cycle" in str(excinfo.value)

    def test_zero_operator_depth_zero(self):
        system = make_system(SparseOperator(3))
        assert system.depth == 0
        assert system.term_count == 1

    def test_keeps_the_topological_order(self):
        system = make_system(diamond_operator())
        assert system.topological_order == (1, 2, 3, 4)
        rng = np.random.default_rng(67)
        for _ in range(10):
            system = make_system(random_dag(rng, 12))
            position = {v: k for k, v in enumerate(system.topological_order)}
            assert sorted(position) == list(range(1, 13))
            for row, col, _ in system.operator.entries():
                assert position[col] < position[row]

    def test_systems_hash_by_certificate(self):
        # the operator is unhashable, so the generated field hash raised
        a = build_diamond(0.5, 2.0, -1.0, 3.0)
        b = build_diamond(0.5, 2.0, -1.0, 3.0)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        rng = np.random.default_rng(71)
        for _ in range(10):
            entries = list(random_dag(rng, 9).entries())
            shuffled = [entries[k] for k in rng.permutation(len(entries))]
            first = make_system(SparseOperator(9, entries))
            second = make_system(SparseOperator(9, shuffled))
            assert first == second
            assert hash(first) == hash(second)


class TestSolveExact:
    def test_cascade3_termwise(self):
        # three-level decay chain driven at the top: term k occupies one
        # level lower each step, carrying the product of couplings so far
        t21, t32 = 0.8 + 0.1j, 0.5 - 0.2j
        op = SparseOperator(3, [(1, 2, t21), (2, 3, t32)])
        system = make_system(op)
        assert system.depth == 2
        expansion = solve_exact(system, basis_state(3, 3))
        assert len(expansion.terms) == 3
        npt.assert_array_equal(expansion.terms[0], [0, 0, 1])
        npt.assert_array_equal(expansion.terms[1], [0, t32, 0])
        npt.assert_array_equal(expansion.terms[2], [t21 * t32, 0, 0])
        npt.assert_allclose(expansion.total, [t21 * t32, t32, 1.0], rtol=0, atol=0)

    def test_diamond_final_amplitude(self):
        t21, t31, t42, t43 = 0.5, 2.0, -1.5, 0.25j
        system = make_system(diamond_operator(t21, t31, t42, t43))
        total = solve_exact(system, basis_state(4, 1)).total
        npt.assert_allclose(total[3], t42 * t21 + t43 * t31, rtol=1e-15)

    def test_expansions_compare_by_identity(self):
        # the fields are arrays, so a field-wise == would be ambiguous
        system = make_system(diamond_operator())
        first = solve_exact(system, basis_state(4, 1))
        second = solve_exact(system, basis_state(4, 1))
        assert (first == second) is False
        assert (first == first) is True
        assert first != second
        assert hash(first) == hash(first)
        assert len({first, second, first}) == 2

    def test_total_is_sum_of_terms(self):
        rng = np.random.default_rng(71)
        system = make_system(random_dag(rng, 9))
        expansion = solve_exact(system, random_state(rng, 9))
        assert_close_to_termwise(expansion, np.sum(expansion.terms, axis=0))
        assert expansion.order == system.depth

    def test_term_count_is_depth_plus_one(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            dim = int(rng.integers(1, 10))
            system = make_system(random_dag(rng, dim))
            expansion = solve_exact(system, random_state(rng, dim))
            assert len(expansion.terms) == system.depth + 1

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(79)
        for _ in range(40):
            dim = int(rng.integers(1, 11))
            system = make_system(random_dag(rng, dim))
            phi = random_state(rng, dim)
            born = solve_exact(system, phi).total
            lu = direct_solve_oracle(system.operator, phi)
            assert relative_gap(born, lu) <= 1e-11

    def test_no_smallness_condition(self):
        # couplings far above 1: the finite sum stays exact anyway
        system = make_system(diamond_operator(12.0, -9.0, 8.0j, 15.0))
        assert operator_norm(system.operator, "inf") >= 20.0
        phi = basis_state(4, 1)
        assert relative_gap(solve_exact(system, phi).total,
                            direct_solve_oracle(system.operator, phi)) <= 1e-12

    def test_large_norm_random_systems(self):
        rng = np.random.default_rng(83)
        for _ in range(10):
            dim = int(rng.integers(2, 9))
            base = random_dag(rng, dim, density=0.5)
            while base.is_zero():
                base = random_dag(rng, dim, density=0.5)
            op = scaled_to_norm(base, 1e3)
            system = make_system(op)
            phi = random_state(rng, dim)
            assert relative_gap(solve_exact(system, phi).total,
                                direct_solve_oracle(op, phi)) <= 1e-9

    def test_terms_are_repeated_matvec_bit_for_bit(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            system = make_system(random_dag(rng, 14, density=0.6))
            phi = random_state(rng, 14)
            expansion = solve_exact(system, phi)
            current = phi
            for k, term in enumerate(expansion.terms):
                npt.assert_array_equal(term, current, err_msg=f"term {k}")
                current = matvec(system.operator, current)
            assert_close_to_termwise(
                expansion, born_approximation(system.operator, phi, system.depth))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            solve_exact(make_system(diamond_operator()), np.zeros(3))


class TestSubstitution:
    def test_total_applies_nothing_and_terms_come_on_demand(self, monkeypatch):
        applies = []

        def counting_apply(op, v):
            applies.append(v)
            return _apply(op, v)

        monkeypatch.setattr("bornsolve.solver._apply", counting_apply)
        rng = np.random.default_rng(19)
        system = make_system(random_dag(rng, 12, density=0.6))
        assert system.depth >= 2
        phi = random_state(rng, 12)
        expansion = solve_exact(system, phi)
        assert applies == []
        assert relative_gap(expansion.total,
                            direct_solve_oracle(system.operator, phi)) <= 1e-12
        terms = expansion.terms
        assert len(applies) == system.depth
        # made once: reading them again applies nothing
        assert expansion.terms is terms
        assert len(applies) == system.depth
        current = phi
        for k, term in enumerate(terms):
            npt.assert_array_equal(term, current, err_msg=f"term {k}")
            current = matvec(system.operator, current)

    def test_terms_follow_the_state_of_the_call(self):
        system = make_system(diamond_operator(0.5, 2.0, -1.5, 0.25j))
        phi = basis_state(4, 1)
        expansion = solve_exact(system, phi)
        phi[0] = 7.0  # the caller reuses its buffer before reading the terms
        npt.assert_array_equal(expansion.terms[0], basis_state(4, 1))
        npt.assert_array_equal(expansion.terms[1], [0, 0.5, 2.0, 0])

    def test_backward_error_no_worse_than_termwise(self):
        rng = np.random.default_rng(23)
        worst_substitution = worst_termwise = 0.0
        for k in range(240):
            dim = int(rng.integers(2, 25))
            op = random_dag(rng, dim, density=0.5)
            if k % 2 and not op.is_zero():
                op = scaled_to_norm(op, 1e3)
            system = make_system(op)
            phi = random_state(rng, dim)
            total = solve_exact(system, phi).total
            termwise = born_approximation(op, phi, system.depth)
            worst_substitution = max(worst_substitution, backward_error(op, phi, total))
            worst_termwise = max(worst_termwise, backward_error(op, phi, termwise))
        assert worst_substitution <= worst_termwise

    def test_inverse_matches_lu_within_condition(self):
        rng = np.random.default_rng(29)
        for k in range(40):
            dim = int(rng.integers(1, 30))
            op = random_dag(rng, dim, density=0.3)
            if k % 2 and not op.is_zero():
                op = scaled_to_norm(op, 1e3)
            a = np.eye(dim, dtype=complex) - op.to_dense()
            inverse = scipy.linalg.lu_solve(scipy.linalg.lu_factor(a),
                                            np.eye(dim, dtype=complex))
            cond = np.linalg.cond(a, 1)
            assert relative_gap(finite_neumann_inverse(make_system(op)),
                                inverse) <= 8 * dim * EPS * cond


class TestBornApproximation:
    def test_matches_exact_at_and_beyond_depth(self):
        rng = np.random.default_rng(89)
        system = make_system(random_dag(rng, 8))
        phi = random_state(rng, 8)
        expansion = solve_exact(system, phi)
        assert_close_to_termwise(
            expansion, born_approximation(system.operator, phi, system.depth))
        assert_close_to_termwise(
            expansion, born_approximation(system.operator, phi, system.depth + 3))

    def test_order_zero_is_phi(self):
        phi = basis_state(4, 1)
        npt.assert_array_equal(born_approximation(diamond_operator(), phi, 0), phi)

    def test_first_order_diamond_misses_final_state(self):
        # both routes to the final state take two steps, so order one
        # leaves its amplitude at exactly zero, whatever the couplings
        phi = basis_state(4, 1)
        out = born_approximation(diamond_operator(3.0, -2.0j, 5.5, 41.0), phi, 1)
        assert out[3] == 0

    def test_partial_sums_are_prefix_sums(self):
        rng = np.random.default_rng(97)
        op = random_operator(rng, 6)
        phi = random_state(rng, 6)
        for order in range(4):
            expected = phi.copy()
            current = phi
            for _ in range(order):
                current = matvec(op, current)
                expected = expected + current
            npt.assert_allclose(born_approximation(op, phi, order), expected,
                                rtol=1e-13, atol=1e-13)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            born_approximation(diamond_operator(), basis_state(4, 1), -1)


class TestNeumannInverse:
    def test_diamond_closed_form(self):
        t21, t31, t42, t43 = 1.5, -0.5, 2.0, 0.25
        system = make_system(diamond_operator(t21, t31, t42, t43))
        expected = np.eye(4, dtype=complex)
        expected[1, 0] = t21
        expected[2, 0] = t31
        expected[3, 1] = t42
        expected[3, 2] = t43
        expected[3, 0] = t42 * t21 + t43 * t31
        npt.assert_allclose(finite_neumann_inverse(system), expected, rtol=1e-15)

    def test_matches_lu_inverse(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            dim = int(rng.integers(1, 11))
            system = make_system(random_dag(rng, dim))
            a = np.eye(dim, dtype=complex) - system.operator.to_dense()
            inverse = scipy.linalg.lu_solve(scipy.linalg.lu_factor(a),
                                            np.eye(dim, dtype=complex))
            assert relative_gap(finite_neumann_inverse(system), inverse) <= 1e-11

    def test_left_inverse_identity(self):
        rng = np.random.default_rng(103)
        for _ in range(15):
            dim = int(rng.integers(1, 10))
            system = make_system(random_dag(rng, dim))
            a = np.eye(dim, dtype=complex) - system.operator.to_dense()
            product = finite_neumann_inverse(system) @ a
            assert np.max(np.abs(product - np.eye(dim))) <= 1e-9


class TestEarlyExit:
    def test_born_sum_stops_at_first_zero_term(self, monkeypatch):
        applies = []

        def counting_apply(op, v):
            applies.append(v)
            return _apply(op, v)

        monkeypatch.setattr("bornsolve.solver._apply", counting_apply)
        t21, t32 = 0.8 + 0.1j, 0.5 - 0.2j
        op = SparseOperator(3, [(1, 2, t21), (2, 3, t32)])
        # from state 2: T e2 = t21 e1, T^2 e2 = 0, and nothing after that
        total = born_approximation(op, basis_state(3, 2), 10)
        assert len(applies) == 2
        npt.assert_array_equal(total, [t21, 1, 0])
        applies.clear()
        # the inverse is a substitution over the rows: T is never applied
        inverse = finite_neumann_inverse(make_system(op))
        assert len(applies) == 0
        npt.assert_array_equal(inverse, [[1, t21, t21 * t32], [0, 1, t32], [0, 0, 1]])


class TestDeterminant:
    def test_unit_determinant_for_nilpotent(self):
        rng = np.random.default_rng(107)
        for _ in range(30):
            dim = int(rng.integers(1, 13))
            system = make_system(random_dag(rng, dim))
            assert abs(det_check(system) - 1.0) <= 1e-10

    def test_known_diagonal_determinant(self):
        op = SparseOperator(2, [(1, 1, 0.5), (2, 2, 0.25)])
        npt.assert_allclose(det_i_minus_t(op), 0.375, rtol=1e-14)

    def test_zero_operator(self):
        assert det_i_minus_t(SparseOperator(4)) == 1.0

    def test_exactly_one_for_acyclic(self):
        # every component a single state with no loop: no block, no rounding
        rng = np.random.default_rng(139)
        for _ in range(30):
            dim = int(rng.integers(1, 40))
            op = random_dag(rng, dim, min_modulus=0.0, max_modulus=5.0)
            assert repr(det_i_minus_t(op)) == "(1+0j)"
            assert repr(det_check(make_system(op))) == "(1+0j)"

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(planted_blocks())
    def test_blocks_match_the_dense_determinant(self, case):
        # several blocks, self-loops, blocks downstream of blocks; with
        # ||T||_inf = 0.5 every eigenvalue of I - T lies in |z - 1| <= 0.5
        dim, entries, _ = case
        op = SparseOperator(dim, entries)
        if not op.is_zero():
            op = scaled_to_norm(op, 0.5)
        want = dense_det(op)
        assert abs(det_i_minus_t(op) - want) <= 4 * dim * EPS * abs(want)


class TestResolventAndTMatrix:
    def random_system(self, rng, dim):
        potential = random_dag(rng, dim, density=0.5)
        h0 = rng.uniform(-1.0, 1.0, size=dim)
        energy = complex(rng.uniform(2.0, 4.0), rng.uniform(0.2, 1.0))
        transfer = build_transfer_operator(h0, potential, energy)
        return h0, potential, energy, make_system(transfer)

    def test_resolvent_defining_identity(self):
        rng = np.random.default_rng(109)
        for _ in range(25):
            dim = int(rng.integers(1, 11))
            h0, potential, energy, system = self.random_system(rng, dim)
            g0 = free_resolvent_diagonal(h0, energy)
            resolvent = full_resolvent(system, g0)
            hamiltonian_gap = (energy * np.eye(dim) - np.diag(h0)
                               - potential.to_dense())
            residual = resolvent @ hamiltonian_gap - np.eye(dim)
            assert np.max(np.abs(residual)) <= 1e-9

    def test_resolvent_matches_dense_inverse(self):
        rng = np.random.default_rng(113)
        for _ in range(15):
            dim = int(rng.integers(1, 9))
            h0, potential, energy, system = self.random_system(rng, dim)
            g0 = free_resolvent_diagonal(h0, energy)
            dense = np.linalg.inv(energy * np.eye(dim) - np.diag(h0)
                                  - potential.to_dense())
            assert relative_gap(full_resolvent(system, g0), dense) <= 1e-10

    def test_resolvent_dimension_mismatch(self):
        system = make_system(diamond_operator())
        with pytest.raises(DimensionError):
            full_resolvent(system, np.ones(3, dtype=complex))

    @pytest.mark.parametrize("bad", [np.inf, np.nan, complex(1.0, -np.inf)],
                             ids=["inf", "nan", "imaginary-inf"])
    def test_resolvent_refuses_a_non_finite_diagonal(self, bad):
        # scaling by it gave (inf+nanj) entries, with only a RuntimeWarning
        system = make_system(SparseOperator(2, [(2, 1, 0.5)]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="free-resolvent diagonal has non-finite"):
                full_resolvent(system, [bad, 1.0])

    def test_t_matrix_matches_lu_route(self):
        rng = np.random.default_rng(127)
        for _ in range(25):
            dim = int(rng.integers(1, 11))
            h0, potential, energy, system = self.random_system(rng, dim)
            a = np.eye(dim, dtype=complex) - system.operator.to_dense()
            inverse = scipy.linalg.lu_solve(scipy.linalg.lu_factor(a),
                                            np.eye(dim, dtype=complex))
            expected = potential.to_dense() @ inverse
            assert relative_gap(t_matrix(system, potential), expected) <= 1e-10

    @pytest.mark.parametrize("dim", [1, 2, 7, 31, 90, 200])
    def test_t_matrix_matches_lu_route_for_any_potential(self, dim):
        # V with T's pattern and with others: the identity, an unrelated
        # random pattern, none at all; the result is a C-contiguous
        # complex (n, n) array for each
        rng = np.random.default_rng(137 + dim)
        potential = random_dag(rng, dim, density=min(0.5, 4.0 / dim))
        h0 = rng.uniform(-1.0, 1.0, size=dim)
        energy = complex(rng.uniform(2.0, 4.0), rng.uniform(0.2, 1.0))
        system = make_system(build_transfer_operator(h0, potential, energy))
        a = np.eye(dim, dtype=complex) - system.operator.to_dense()
        inverse = scipy.linalg.lu_solve(scipy.linalg.lu_factor(a),
                                        np.eye(dim, dtype=complex))
        for v in (potential, SparseOperator.identity(dim),
                  random_operator(rng, dim, density=min(0.4, 5.0 / dim)),
                  SparseOperator(dim)):
            got = t_matrix(system, v)
            assert got.shape == (dim, dim)
            assert got.dtype == np.complex128
            assert got.flags.c_contiguous
            assert relative_gap(got, v.to_dense() @ inverse) <= 1e-10

    def test_t_matrix_forms_no_inverse(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("t_matrix formed (I - T)^(-1)")

        monkeypatch.setattr("bornsolve.solver.finite_neumann_inverse", refuse)
        monkeypatch.setattr("bornsolve.solver._substitute", refuse)
        system = make_system(diamond_operator(0.5, 2.0, -1.5, 0.25j))
        v = SparseOperator(4, [(1, 4, 1.0), (3, 2, 2j)])
        expected = v.to_dense() @ np.linalg.inv(np.eye(4) - system.operator.to_dense())
        npt.assert_allclose(t_matrix(system, v), expected, rtol=0, atol=1e-15)

    def test_t_matrix_dimension_mismatch(self):
        system = make_system(diamond_operator())
        with pytest.raises(DimensionError):
            t_matrix(system, SparseOperator.identity(3))


class TestDirectOracle:
    def test_matches_numpy_solve(self):
        rng = np.random.default_rng(131)
        for _ in range(20):
            dim = int(rng.integers(1, 9))
            op = random_operator(rng, dim)
            a = np.eye(dim, dtype=complex) - op.to_dense()
            if abs(np.linalg.det(a)) < 1e-6:
                continue
            phi = random_state(rng, dim)
            npt.assert_allclose(direct_solve_oracle(op, phi),
                                np.linalg.solve(a, phi), rtol=1e-9, atol=1e-12)

    def test_singular_matrix_rejected(self):
        with pytest.raises(SingularError, match="singular"):
            direct_solve_oracle(SparseOperator.identity(3), np.ones(3))

    def test_single_unit_self_loop_rejected(self):
        op = SparseOperator(2, [(1, 1, 1.0)])
        with pytest.raises(SingularError):
            direct_solve_oracle(op, np.ones(2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            direct_solve_oracle(SparseOperator.identity(2), np.zeros(3))
