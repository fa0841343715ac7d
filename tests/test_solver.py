"""Finite expansion solver: certification, solves, resolvent, T-matrix."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

from bornsolve.errors import DimensionError, NotNilpotentError, SingularError
from bornsolve.operators import (
    SparseOperator,
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
from conftest import random_dag, random_operator, random_state, scaled_to_norm


def diamond_operator(t21=1.0, t31=1.0, t42=1.0, t43=1.0) -> SparseOperator:
    return SparseOperator(4, [(2, 1, t21), (3, 1, t31), (4, 2, t42), (4, 3, t43)])


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
        system = make_system(SparseOperator.zero(3))
        assert system.depth == 0
        assert system.term_count == 1


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

    def test_total_is_sum_of_terms(self):
        rng = np.random.default_rng(71)
        system = make_system(random_dag(rng, 9))
        expansion = solve_exact(system, random_state(rng, 9))
        npt.assert_array_equal(expansion.total, np.sum(expansion.terms, axis=0))
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
            npt.assert_array_equal(
                born_approximation(system.operator, phi, system.depth), expansion.total)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            solve_exact(make_system(diamond_operator()), np.zeros(3))


class TestBornApproximation:
    def test_matches_exact_at_and_beyond_depth(self):
        rng = np.random.default_rng(89)
        system = make_system(random_dag(rng, 8))
        phi = random_state(rng, 8)
        total = solve_exact(system, phi).total
        npt.assert_array_equal(born_approximation(system.operator, phi,
                                                  system.depth), total)
        npt.assert_array_equal(born_approximation(system.operator, phi,
                                                  system.depth + 3), total)

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
        assert det_i_minus_t(SparseOperator.zero(4)) == 1.0


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
