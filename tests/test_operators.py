"""Sparse operator core: construction, arithmetic, norms, transfer build."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from bornsolve.errors import DimensionError, ResonanceError
from bornsolve.graph import analyze_acyclicity, extract_graph
from bornsolve.operators import (
    NORM_KINDS,
    ZERO_THRESHOLD,
    SparseOperator,
    as_state_vector,
    basis_state,
    build_transfer_operator,
    free_resolvent_diagonal,
    matmul,
    matvec,
    operator_norm,
    power,
    vector_norm,
)
from conftest import random_dag, random_operator, random_state

RTOL = 1e-12
ATOL = 1e-13


def diamond_operator(t21=1.0, t31=1.0, t42=1.0, t43=1.0) -> SparseOperator:
    return SparseOperator(4, [(2, 1, t21), (3, 1, t31), (4, 2, t42), (4, 3, t43)])


class TestConstruction:
    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(ValueError, match="positive"):
            SparseOperator(0)

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(ValueError, match="outside"):
            SparseOperator(3, [(1, 4, 1.0)])
        with pytest.raises(ValueError, match="outside"):
            SparseOperator(3, [(0, 2, 1.0)])

    def test_rejects_duplicate_entries(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseOperator(3, [(1, 2, 1.0), (1, 2, 2.0)])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            SparseOperator(2, [(1, 2, complex(np.inf, 0.0))])
        with pytest.raises(ValueError, match="finite"):
            SparseOperator(2, [(1, 2, complex(0.0, np.nan))])

    def test_drops_subthreshold_amplitudes(self):
        op = SparseOperator(2, [(1, 2, 1e-15), (2, 1, 1e-13)])
        assert op.index_set() == {(2, 1)}
        assert op.entry(1, 2) == 0

    def test_zero_and_identity(self):
        assert SparseOperator.zero(3).is_zero()
        eye = SparseOperator.identity(3)
        npt.assert_array_equal(eye.to_dense(), np.eye(3, dtype=complex))

    def test_dense_round_trip(self):
        rng = np.random.default_rng(7)
        a = random_state(rng, 16).reshape(4, 4)
        op = SparseOperator.from_dense(a)
        npt.assert_array_equal(op.to_dense(), a)

    def test_from_dense_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            SparseOperator.from_dense(np.zeros((2, 3)))

    def test_entries_sorted(self):
        op = SparseOperator(3, [(3, 1, 1.0), (1, 2, 2.0), (1, 1, 3.0)])
        assert [(r, c) for r, c, _ in op.entries()] == [(1, 1), (1, 2), (3, 1)]

    def test_equality_and_nnz(self):
        a = SparseOperator(2, [(1, 2, 0.5)])
        b = SparseOperator(2, [(1, 2, 0.5)])
        assert a == b
        assert a != SparseOperator(2, [(1, 2, 0.6)])
        assert a.nnz == 1

    def test_scaled(self):
        op = diamond_operator()
        npt.assert_array_equal(op.scaled(2.0).to_dense(), 2.0 * op.to_dense())


class TestStateVectors:
    def test_basis_state(self):
        v = basis_state(3, 2)
        npt.assert_array_equal(v, [0, 1, 0])

    def test_basis_state_rejects_bad_label(self):
        with pytest.raises(ValueError, match="label"):
            basis_state(3, 4)

    def test_as_state_vector_shape_mismatch(self):
        with pytest.raises(DimensionError):
            as_state_vector([1.0, 2.0], 3)

    def test_as_state_vector_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            as_state_vector([1.0, np.nan], 2)


class TestMatvec:
    def test_diamond_first_application(self):
        # one application of T to the initial state populates exactly the
        # two intermediate levels, with the bare couplings as amplitudes
        t21, t31 = 0.3 + 0.4j, -1.25 + 0j
        op = diamond_operator(t21, t31, 2.0, 1.0 - 1.0j)
        out = matvec(op, basis_state(4, 1))
        npt.assert_array_equal(out, [0, t21, t31, 0])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            dim = int(rng.integers(1, 9))
            op = random_operator(rng, dim)
            v = random_state(rng, dim)
            npt.assert_allclose(matvec(op, v), op.to_dense() @ v,
                                rtol=RTOL, atol=ATOL)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            matvec(SparseOperator.identity(3), np.zeros(4))


class TestMatmul:
    def test_cascade_second_power(self):
        # squaring the 3-level chain leaves a single two-step amplitude
        t21, t32 = 0.8 + 0.1j, 0.5 - 0.2j
        op = SparseOperator(3, [(1, 2, t21), (2, 3, t32)])
        sq = matmul(op, op)
        assert sq.index_set() == {(1, 3)}
        assert sq.entry(1, 3) == t21 * t32

    def test_diamond_second_power(self):
        t21, t31, t42, t43 = 1.5, -0.5j, 2.0 + 1.0j, 0.25
        sq = matmul(diamond_operator(t21, t31, t42, t43),
                    diamond_operator(t21, t31, t42, t43))
        assert sq.index_set() == {(4, 1)}
        npt.assert_allclose(sq.entry(4, 1), t42 * t21 + t43 * t31,
                            rtol=RTOL, atol=0)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            dim = int(rng.integers(1, 9))
            a, b = random_operator(rng, dim), random_operator(rng, dim)
            dense = a.to_dense() @ b.to_dense()
            npt.assert_allclose(matmul(a, b).to_dense(), dense,
                                rtol=RTOL, atol=ATOL)

    def test_associative_against_dense(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            dim = int(rng.integers(2, 8))
            a, b, c = (random_operator(rng, dim) for _ in range(3))
            dense = a.to_dense() @ b.to_dense() @ c.to_dense()
            scale = max(float(np.max(np.abs(dense))), 1.0)
            left = matmul(matmul(a, b), c).to_dense()
            right = matmul(a, matmul(b, c)).to_dense()
            assert np.max(np.abs(left - dense)) <= 1e-12 * scale
            assert np.max(np.abs(right - dense)) <= 1e-12 * scale

    def test_drops_exact_cancellation(self):
        # branch products 2*3 and 4*(-1.5) cancel exactly, so the square
        # holds no entry at all: a structural zero, not a tiny number
        op = diamond_operator(2.0, 4.0, 3.0, -1.5)
        assert matmul(op, op).is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            matmul(SparseOperator.identity(2), SparseOperator.identity(3))


class TestPower:
    def test_zeroth_power_is_identity(self):
        op = diamond_operator()
        assert power(op, 0) == SparseOperator.identity(4)

    def test_diamond_cube_vanishes_structurally(self):
        assert power(diamond_operator(1.5, 2.5, -3.0, 7.0), 3).is_zero()

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            dim = int(rng.integers(2, 8))
            op = random_operator(rng, dim)
            for k in range(5):
                dense = np.linalg.matrix_power(op.to_dense(), k)
                scale = max(float(np.max(np.abs(dense))), 1.0)
                assert np.max(np.abs(power(op, k).to_dense() - dense)) <= 1e-12 * scale

    def test_negative_exponent_raises(self):
        with pytest.raises(ValueError, match=">= 0"):
            power(SparseOperator.identity(2), -1)


class TestNorms:
    def test_identity_norms(self):
        eye = SparseOperator.identity(4)
        assert operator_norm(eye, "inf") == 1.0
        assert operator_norm(eye, "one") == 1.0
        assert operator_norm(eye, "fro") == 2.0

    def test_zero_norms(self):
        for kind in NORM_KINDS:
            assert operator_norm(SparseOperator.zero(3), kind) == 0.0

    def test_hand_computed_values(self):
        op = SparseOperator(2, [(1, 1, 3.0), (1, 2, -4.0j), (2, 1, 1.0j)])
        assert operator_norm(op, "inf") == 7.0
        assert operator_norm(op, "one") == 4.0
        npt.assert_allclose(operator_norm(op, "fro"), np.sqrt(26.0), rtol=1e-15)

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            dim = int(rng.integers(1, 9))
            op = random_operator(rng, dim)
            d = op.to_dense()
            npt.assert_allclose(operator_norm(op, "inf"),
                                np.linalg.norm(d, np.inf), rtol=RTOL)
            npt.assert_allclose(operator_norm(op, "one"),
                                np.linalg.norm(d, 1), rtol=RTOL)
            npt.assert_allclose(operator_norm(op, "fro"),
                                np.linalg.norm(d, "fro"), rtol=RTOL)

    def test_induced_norms_submultiplicative(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            dim = int(rng.integers(2, 8))
            a, b = random_operator(rng, dim), random_operator(rng, dim)
            for kind in ("inf", "one"):
                lhs = operator_norm(matmul(a, b), kind)
                rhs = operator_norm(a, kind) * operator_norm(b, kind)
                assert lhs <= rhs * (1.0 + 1e-12) + 1e-12

    def test_matvec_compatibility(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            dim = int(rng.integers(1, 8))
            op = random_operator(rng, dim)
            v = random_state(rng, dim)
            for kind in ("inf", "one"):
                lhs = vector_norm(matvec(op, v), kind)
                rhs = operator_norm(op, kind) * vector_norm(v, kind)
                assert lhs <= rhs * (1.0 + 1e-12) + 1e-12

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(37)
        op = random_operator(rng, 6)
        factor = 2.5 - 1.5j
        for kind in NORM_KINDS:
            npt.assert_allclose(operator_norm(op.scaled(factor), kind),
                                abs(factor) * operator_norm(op, kind), rtol=RTOL)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="norm kind"):
            operator_norm(SparseOperator.identity(2), "two")
        with pytest.raises(ValueError, match="norm kind"):
            vector_norm(np.zeros(2), "two")

    def test_vector_norm_kinds(self):
        v = np.array([3.0, -4.0j])
        assert vector_norm(v, "inf") == 4.0
        assert vector_norm(v, "one") == 7.0
        npt.assert_allclose(vector_norm(v, "fro"), 5.0, rtol=1e-15)


class TestTransferOperator:
    def test_entrywise_division_oracle(self):
        h0 = np.array([0.0, 1.0, 2.5])
        energy = 4.0 + 0.5j
        potential = SparseOperator(3, [(1, 2, 0.7), (2, 3, -0.3 + 0.2j), (3, 1, 1.1j)])
        t = build_transfer_operator(h0, potential, energy)
        expected = potential.to_dense() / (energy - h0)[:, np.newaxis]
        npt.assert_allclose(t.to_dense(), expected, rtol=RTOL, atol=0)

    def test_pattern_preserved(self):
        rng = np.random.default_rng(41)
        potential = random_dag(rng, 7)
        h0 = rng.uniform(-1.0, 1.0, size=7)
        t = build_transfer_operator(h0, potential, 3.0 + 0.25j)
        assert t.index_set() == potential.index_set()

    def test_resonant_energy_rejected(self):
        h0 = np.array([0.0, 1.0])
        with pytest.raises(ResonanceError, match="level 2"):
            build_transfer_operator(h0, SparseOperator(2, [(1, 2, 1.0)]), 1.0)

    def test_resonance_threshold_boundary(self):
        # threshold is 1e-10 * (1 + |E|); a gap of 5e-10 clears it at
        # |E| near 1, a gap of 1e-10 does not
        h0 = np.array([1.0])
        assert free_resolvent_diagonal(h0, 1.0 + 5e-10).shape == (1,)
        with pytest.raises(ResonanceError):
            free_resolvent_diagonal(h0, 1.0 + 1e-10)

    def test_complex_energy_unlocks_near_level_probe(self):
        h0 = np.array([1.0])
        g0 = free_resolvent_diagonal(h0, 1.0 + 1e-3j)
        npt.assert_allclose(g0, [1.0 / 1e-3j], rtol=1e-15)

    def test_free_resolvent_values(self):
        h0 = np.array([0.0, 2.0])
        energy = 5.0 - 1.0j
        npt.assert_allclose(free_resolvent_diagonal(h0, energy),
                            1.0 / (energy - h0), rtol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            build_transfer_operator(np.zeros(2), SparseOperator.identity(3), 5.0)

    def test_zero_threshold_constant(self):
        # the drop threshold is part of the structural-zero contract
        assert ZERO_THRESHOLD == 1e-14


def python_matvec(dim, entries, v) -> np.ndarray:
    """Reference apply: each row summed left to right with Python complex multiply-adds.

    entries are taken in the order given, which must be the order they
    were passed to the SparseOperator constructor.
    """
    out = [0j] * dim
    for row, col, amp in entries:
        out[row - 1] += complex(amp) * complex(v[col - 1])
    return np.array(out, dtype=complex)


def assert_same_bits(got, want) -> None:
    """Equal values and equal signs, so -0.0 and 0.0 count as different."""
    npt.assert_array_equal(got, want)
    npt.assert_array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))


def wide_entries(rng, dim, density, empty_rows=()):
    """Shuffled entries with amplitudes over many decades, some with a zero part."""
    entries = []
    for row in range(1, dim + 1):
        if row in empty_rows:
            continue
        for col in range(1, dim + 1):
            if rng.random() < density:
                re, im = rng.standard_normal(2) * 10.0 ** rng.integers(-6, 6, 2)
                kind = rng.integers(4)
                if kind == 1:
                    im = 0.0
                elif kind == 2:
                    re = -0.0
                entries.append((row, col, complex(re, im)))
    return [entries[k] for k in rng.permutation(len(entries))]


def wide_state(rng, dim) -> np.ndarray:
    v = random_state(rng, dim) * 10.0 ** rng.integers(-8, 8, dim)
    v[rng.random(dim) < 0.15] = complex(-0.0, 0.0)
    v.imag[rng.random(dim) < 0.15] = 0.0
    return v


class TestKernel:
    def test_bitwise_equal_to_python_accumulation(self):
        # rows of more than 8 entries: numpy's pairwise summation would
        # change the last bits there, a left-to-right sum must not
        rng = np.random.default_rng(2024)
        for _ in range(30):
            dim = int(rng.integers(12, 30))
            empty = set(rng.choice(np.arange(1, dim + 1), size=dim // 4, replace=False).tolist())
            entries = wide_entries(rng, dim, 0.7, empty)
            op = SparseOperator(dim, entries)
            assert max(sum(e[0] == r for e in entries) for r in range(1, dim + 1)) > 8
            assert not analyze_acyclicity(extract_graph(op)).is_acyclic
            for _ in range(3):
                v = wide_state(rng, dim)
                out = matvec(op, v)
                assert_same_bits(out, python_matvec(dim, entries, v))
                assert all(out[row - 1] == 0 for row in empty)

    def test_signed_zeros_match_python(self):
        entries = [(1, 1, complex(0.0, 2.0)), (1, 2, complex(-0.0, -1.0)),
                   (2, 1, complex(3.0, 0.0)), (2, 2, complex(-0.0, 0.0))]
        op = SparseOperator(2, entries)
        for v in ([complex(-0.0, 0.0), complex(0.0, -0.0)],
                  [complex(-0.0, -0.0), complex(1.0, -0.0)],
                  [complex(2.0, 0.0), complex(-0.0, 5.0)]):
            assert_same_bits(matvec(op, v), python_matvec(2, entries, v))

    def test_zero_and_empty_operators(self):
        v = np.arange(5) + 1j
        npt.assert_array_equal(matvec(SparseOperator.zero(5), v), np.zeros(5))
        npt.assert_array_equal(matvec(SparseOperator.identity(5), v), v)

    def test_strided_and_real_states(self):
        rng = np.random.default_rng(5)
        entries = wide_entries(rng, 9, 0.6)
        op = SparseOperator(9, entries)
        backing = wide_state(rng, 18)
        assert_same_bits(matvec(op, backing[::2]), python_matvec(9, entries, backing[::2]))
        real = rng.standard_normal(9)
        assert_same_bits(matvec(op, real), python_matvec(9, entries, real))

    def test_applied_operator_still_equals_fresh_copy(self):
        rng = np.random.default_rng(8)
        op = random_operator(rng, 14, 0.7)
        v = random_state(rng, 14)
        first = matvec(op, v)
        fresh = SparseOperator(op.dim, list(op.entries()))
        assert op == fresh
        assert fresh == op
        npt.assert_array_equal(matvec(op, v), first)
        assert op == fresh

    def test_derived_operators_apply_correctly(self):
        rng = np.random.default_rng(9)
        op = random_operator(rng, 11, 0.8)
        v = random_state(rng, 11)
        before = matvec(op, v)  # fills op's cache before anything is derived
        scaled = op.scaled(0.5 - 2.0j)
        # scaled stores its entries in (row, col) order
        assert_same_bits(matvec(scaled, v), python_matvec(11, list(scaled.entries()), v))
        for derived in (matmul(op, op), power(op, 3)):
            npt.assert_allclose(matvec(derived, v), derived.to_dense() @ v,
                                rtol=RTOL, atol=ATOL)
        npt.assert_array_equal(matvec(power(op, 0), v), v)
        npt.assert_array_equal(matvec(op, v), before)


class TestDirectBuilds:
    """scaled and build_transfer_operator skip re-validation but keep its rules."""

    def test_scaled_matches_constructor_route(self):
        rng = np.random.default_rng(12)
        for factor in (2.0, 0.3 - 1.1j, 1e-14, 0.0, np.complex128(-0.7j), 3):
            op = random_operator(rng, 9, 0.6)
            want = SparseOperator(op.dim, [(r, c, factor * a) for r, c, a in op.entries()])
            got = op.scaled(factor)
            assert got == want
            assert list(got.entries()) == list(want.entries())

    def test_scaled_rejects_overflow(self):
        with pytest.raises(ValueError, match=r"entry \(1, 2\) is not finite"):
            SparseOperator(2, [(1, 2, 1e300), (2, 1, 1e300)]).scaled(1e10)

    def test_transfer_matches_constructor_route(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            potential = random_operator(rng, 8, 0.5)
            h0 = rng.uniform(-2.0, 2.0, size=8)
            energy = complex(rng.uniform(-3.0, 3.0), rng.uniform(0.1, 1.0))
            g0 = free_resolvent_diagonal(h0, energy)
            want = SparseOperator(8, [(r, c, complex(g0[r - 1]) * a)
                                      for r, c, a in potential.entries()])
            got = build_transfer_operator(h0, potential, energy)
            assert got == want
            assert list(got.entries()) == list(want.entries())

    def test_transfer_drops_entries_that_vanish_after_scaling(self):
        potential = SparseOperator(2, [(1, 2, 1e-10), (2, 1, 1.0)])
        t = build_transfer_operator(np.zeros(2), potential, 1e5)
        assert t.index_set() == {(2, 1)}

    def test_transfer_rejects_overflow(self):
        potential = SparseOperator(2, [(1, 2, 1e300)])
        with pytest.raises(ValueError, match="not finite"):
            build_transfer_operator(np.array([0.0, 0.0]), potential, 1e-9)
