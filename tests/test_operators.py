"""Sparse operator core: construction, arithmetic, norms, transfer build."""

from __future__ import annotations

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornsolve.errors import DimensionError, ResonanceError
from bornsolve.graph import analyze_acyclicity
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
    _LOOP_RECORDS,
    _loop_records,
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

    def test_rejects_non_integral_dimension(self):
        # 2.5 used to be built and fail later in unrelated places
        for bad in (2.5, 3.0, True, "3", None):
            with pytest.raises(ValueError, match="dimension must be a positive integer"):
                SparseOperator(bad, [(1, 1, 1.0)])
        with pytest.raises(ValueError, match="dimension must be a positive integer"):
            SparseOperator.from_dense(np.zeros((0, 0)))
        op = SparseOperator(np.int64(2), [(1, 2, 1.0)])
        assert type(op.dim) is int and op.dim == 2
        npt.assert_array_equal(matvec(op, [0, 1]), [1, 0])

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(ValueError, match="outside"):
            SparseOperator(3, [(1, 4, 1.0)])
        with pytest.raises(ValueError, match="outside"):
            SparseOperator(3, [(0, 2, 1.0)])

    def test_rejects_duplicate_entries(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseOperator(3, [(1, 2, 1.0), (1, 2, 2.0)])

    def test_rejects_duplicates_of_dropped_entries(self):
        # an entry dropped at the threshold still occupies its position
        for pair in ([(1, 2, 1e-15), (1, 2, 1.0)], [(1, 2, 1.0), (1, 2, 1e-15)],
                     [(1, 2, 0.0), (1, 2, 0.0)]):
            with pytest.raises(ValueError, match="duplicate"):
                SparseOperator(3, pair)
        op = SparseOperator(3, [(1, 2, 0.0), (1, 3, 1.0), (2, 2, 0.0)])
        assert op.index_set() == {(1, 3)}
        assert SparseOperator(3, [(2, 1, 0.0)]).is_zero()

    def test_rejects_non_integral_indices(self):
        # a float column used to land in the imaginary part of a state
        with pytest.raises(ValueError, match=r"entry \(1\.5, 2\) has a non-integral"):
            SparseOperator(3, [(1.5, 2, 1.0)])
        with pytest.raises(ValueError, match="non-integral"):
            SparseOperator(3, [(1, 2.0, 1.0)])
        op = SparseOperator(3, [(np.int64(1), np.int32(2), 1.0)])
        assert list(op.entries()) == [(1, 2, 1.0)]
        npt.assert_array_equal(matvec(op, [0, 1, 0]), [1, 0, 0])

    def test_rejects_bool_indices(self):
        # operator.index(True) is 1, so a bool used to be stored as label 1
        with pytest.raises(ValueError, match=r"entry \(True, 2\) has a non-integral"):
            SparseOperator(3, [(True, 2, 1.0)])
        with pytest.raises(ValueError, match=r"entry \(1, False\) has a non-integral"):
            SparseOperator(3, [(1, False, 1.0)])
        with pytest.raises(ValueError, match="non-integral"):
            SparseOperator(3, [(np.True_, 2, 1.0)])

    def test_index_faults_reported_before_value_faults(self):
        # the whole declared pattern is checked before any value is
        with pytest.raises(ValueError, match="outside"):
            SparseOperator(2, [(1, 1, np.nan), (1, 3, 1.0)])
        with pytest.raises(ValueError, match="duplicate"):
            SparseOperator(2, [(1, 1, np.inf), (1, 1, 1.0)])

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
            assert not analyze_acyclicity(op).is_acyclic
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


def stored_rows(op: SparseOperator) -> dict:
    """The operator's stored arrays as rows {row: {col: amp}}, all in storage order."""
    rows: dict = {}
    for row, col, amp in zip(op._row.tolist(), op._col.tolist(), op._amp.tolist()):
        rows.setdefault(row, {})[col] = amp
    return rows


def stored_arrays(stored) -> list:
    """An operator's stored arrays, or a (row, col, amp) triple of arrays, as lists."""
    if isinstance(stored, SparseOperator):
        stored = stored._row, stored._col, stored._amp
    return [array.tolist() for array in stored]


def storage(rows: dict) -> list:
    """Rows with their entries, in storage order: the order _apply sums in."""
    return [(row, list(cols.items())) for row, cols in rows.items()]


def python_product(a_rows: dict, b_rows: dict) -> dict:
    """Reference product of row dicts, a triple loop column by column.

    Rows come in a's storage order and, within a row, columns in the order
    a's row first reaches them through b's rows.  Each value is summed
    left to right from 0j over a's row in storage order; values at or
    below ZERO_THRESHOLD and rows left empty are dropped.
    """
    out = {}
    for row, mids in a_rows.items():
        reached = []
        for mid in mids:
            for col in b_rows.get(mid, {}):
                if col not in reached:
                    reached.append(col)
        cols = {}
        for col in reached:
            value = 0j
            for mid, left in mids.items():
                right = b_rows.get(mid, {}).get(col)
                if right is not None:
                    value += left * right
            if abs(value) > ZERO_THRESHOLD:
                cols[col] = value
        if cols:
            out[row] = cols
    return out


def shuffled_operator(rng, dim: int, density: float) -> SparseOperator:
    """random_operator's entries, declared in a random order."""
    entries = list(random_operator(rng, dim, density).entries())
    return SparseOperator(dim, [entries[k] for k in rng.permutation(len(entries))])


class TestStoreRule:
    """Every route to an operator stores values by one rule, NaN included."""

    def test_from_dense_rejects_nan(self):
        with pytest.raises(ValueError, match=r"entry \(1, 2\) is not finite"):
            SparseOperator.from_dense([[0, np.nan], [1, 0]])

    def test_from_dense_drops_small_values_and_empty_rows(self):
        op = SparseOperator.from_dense([[0, 1e-15], [2, 0]])
        assert storage(stored_rows(op)) == [(2, [(1, 2 + 0j)])]

    def test_matmul_overflow_raises(self):
        # the two products overflow to +inf and -inf; their sum is NaN,
        # which used to be dropped as a structural zero
        a = SparseOperator(2, [(1, 1, 1e200), (1, 2, -1e200)])
        b = SparseOperator(2, [(1, 1, 1e200 + 1j), (2, 1, 1e200 + 1j)])
        with pytest.raises(ValueError, match=r"entry \(1, 1\) is not finite"):
            matmul(a, b)

    def test_matmul_equals_python_reference(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            dim = int(rng.integers(1, 10))
            a = shuffled_operator(rng, dim, 0.5)
            b = shuffled_operator(rng, dim, 0.5)
            assert storage(stored_rows(matmul(a, b))) == storage(python_product(stored_rows(a), stored_rows(b)))

    def test_matmul_reference_with_cancellation(self):
        op = diamond_operator(2.0, 4.0, 3.0, -1.5)
        assert python_product(stored_rows(op), stored_rows(op)) == {}
        assert storage(stored_rows(matmul(op, op))) == []

    def test_power_equals_python_reference(self):
        rng = np.random.default_rng(29)
        for _ in range(15):
            dim = int(rng.integers(1, 9))
            op = shuffled_operator(rng, dim, 0.4)
            want = {k: {k: 1 + 0j} for k in range(1, dim + 1)}
            for k in range(6):
                assert storage(stored_rows(power(op, k))) == storage(want)
                want = python_product(want, stored_rows(op))


def python_norm(op: SparseOperator, kind: str) -> float:
    """Reference norm: a left-to-right sum over the stored entries in (row, col) order."""
    entries = sorted(zip(op._row.tolist(), op._col.tolist(), op._amp.tolist()))
    if kind == "fro":
        total = 0.0
        for _, _, amp in entries:
            total += abs(amp) ** 2
        return math.sqrt(total)
    sums: dict[int, float] = {}
    for row, col, amp in entries:
        key = row if kind == "inf" else col
        sums[key] = sums.get(key, 0.0) + abs(amp)
    return max(sums.values(), default=0.0)


class TestNormReference:
    """operator_norm sums in (row, col) order, whatever the storage order."""

    def test_bitwise_equal_on_shuffled_declarations(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            dim = int(rng.integers(1, 25))
            op = SparseOperator(dim, wide_entries(rng, dim, 0.6))
            for kind in NORM_KINDS:
                assert operator_norm(op, kind) == python_norm(op, kind)

    def test_bitwise_equal_on_products(self):
        # a product stores each row's columns in first-reached order
        rng = np.random.default_rng(43)
        for _ in range(20):
            dim = int(rng.integers(2, 20))
            a = SparseOperator(dim, wide_entries(rng, dim, 0.4))
            b = SparseOperator(dim, wide_entries(rng, dim, 0.4))
            product = matmul(a, b)
            for kind in NORM_KINDS:
                assert operator_norm(product, kind) == python_norm(product, kind)


def padded_records(n: int, seed: int) -> list:
    """n valid records on rows 2..DIM-1 (rows 1 and DIM stay free for faults)."""
    rng = np.random.default_rng(seed)
    cells = rng.choice((RECORD_DIM - 2) * RECORD_DIM, size=n, replace=False)
    return [(int(c // RECORD_DIM) + 2, int(c % RECORD_DIM) + 1,
             complex(*rng.uniform(0.5, 1.5, 2))) for c in cells.tolist()]


RECORD_DIM = 40
INF, NAN = float("inf"), float("nan")


def with_fault(kind: str, records: list) -> tuple[list, str]:
    """records with one fault (or several) put in; the exact message it raises."""
    out = list(records)
    k = len(out) // 2
    row, col, _ = out[k]
    if kind == "non_integral":
        out[k] = (1.5, col, 1.0)
        return out, f"entry (1.5, {col}) has a non-integral index"
    if kind == "bool":
        out[k] = (row, True, 1.0)
        return out, f"entry ({row}, True) has a non-integral index"
    if kind == "out_of_range":
        out[k] = (RECORD_DIM + 1, col, 1.0)
        return out, f"entry ({RECORD_DIM + 1}, {col}) outside 1..{RECORD_DIM}"
    if kind == "zero_label":
        out[k] = (row, 0, 1.0)
        return out, f"entry ({row}, 0) outside 1..{RECORD_DIM}"
    if kind == "duplicate":
        out.append((row, col, 2.0))
        return out, f"duplicate entry at ({row}, {col})"
    if kind == "non_finite":
        out[k] = (row, col, complex(INF, 1.0))
        return out, f"entry ({row}, {col}) is not finite: {complex(INF, 1.0)}"
    if kind == "nan":
        out[k] = (row, col, complex(1.0, NAN))
        return out, f"entry ({row}, {col}) is not finite: {complex(1.0, NAN)}"
    if kind == "index_before_value":
        # a NaN early, then a label out of range: every index is checked first
        out[1] = (out[1][0], out[1][1], NAN)
        out[k] = (row, RECORD_DIM + 5, 1.0)
        out.append((out[0][0], out[0][1], 1.0))
        return out, f"entry ({row}, {RECORD_DIM + 5}) outside 1..{RECORD_DIM}"
    if kind == "first_row_first":
        # values are tested row by row, rows in order of first appearance:
        # row RECORD_DIM appears first, so its entry is named, not row 1's
        out.insert(0, (RECORD_DIM, 1, complex(INF, 0.0)))
        out.append((1, 1, complex(NAN, 0.0)))
        return out, f"entry ({RECORD_DIM}, 1) is not finite: {complex(INF, 0.0)}"
    raise AssertionError(kind)


FAULT_KINDS = ("non_integral", "bool", "out_of_range", "zero_label", "duplicate",
               "non_finite", "nan", "index_before_value", "first_row_first")
# record counts on both sides of the cutoff between the loop and the array checks
RECORD_COUNTS = (5, _LOOP_RECORDS - 1, _LOOP_RECORDS + 1, 300)


class TestRecordChecks:
    """Short and long record lists raise the same messages, in the same precedence."""

    @pytest.mark.parametrize("count", RECORD_COUNTS)
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_fault_message(self, kind, count):
        records, message = with_fault(kind, padded_records(count, seed=count))
        with pytest.raises(ValueError) as excinfo:
            SparseOperator(RECORD_DIM, records)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("count", RECORD_COUNTS)
    def test_other_label_and_value_types(self, count):
        # numpy labels and int amplitudes take the loop; they store alike
        records = padded_records(count, seed=count)
        want = SparseOperator(RECORD_DIM, records)
        converted = [(np.int64(r), np.int32(c), np.complex128(a)) for r, c, a in records]
        assert SparseOperator(RECORD_DIM, converted) == want
        assert SparseOperator(RECORD_DIM, iter(records)) == want
        ints = [(r, c, 1) for r, c, _ in records]
        assert SparseOperator(RECORD_DIM, ints) == SparseOperator(
            RECORD_DIM, [(r, c, 1.0 + 0j) for r, c, _ in records])

    @pytest.mark.parametrize("count", RECORD_COUNTS)
    def test_largest_dimension_stores_as_the_loop(self, count):
        # dim + 1 is beyond intp, so no sort key fits: the loop decides
        dim = 2**63 - 1
        records = padded_records(count, seed=count)
        assert stored_arrays(SparseOperator(dim, records)) == stored_arrays(
            _loop_records(dim, records))

    @pytest.mark.parametrize("dim", [2**40, 2**62])
    def test_wrapping_keys_fall_back_to_the_loop(self, dim):
        # the sort keys row * (dim + 1) + col and row * n + position would
        # wrap in intp; wrapped, they once stored row dim first at 2**62
        records = [(dim, 1, 1.0), (1, 2, 2.0), (dim, 4, 3.0), (1, dim, 4.0)]
        records += [(2, col, 1.0) for col in range(1, _LOOP_RECORDS)]
        want = stored_arrays(_loop_records(dim, records))
        assert stored_arrays(SparseOperator(dim, records)) == want
        assert want[0][:3] == [1, 1, 2]

    def test_records_that_are_not_triples(self):
        for count in RECORD_COUNTS:
            records = padded_records(count, seed=count)
            with pytest.raises(ValueError, match="not enough values"):
                SparseOperator(RECORD_DIM, records + [(1, 2)])
            with pytest.raises(TypeError):
                SparseOperator(RECORD_DIM, records + [7])


record_lists = st.integers(1, 2 * _LOOP_RECORDS + 20).flatmap(
    lambda n: st.tuples(
        st.integers(1, 30),
        st.lists(st.tuples(st.integers(1, 30), st.integers(1, 30)),
                 min_size=n, max_size=n, unique=True),
        st.lists(st.complex_numbers(min_magnitude=0.5, max_magnitude=2.0),
                 min_size=n, max_size=n),
        st.randoms(use_true_random=False),
    )
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(record_lists)
def test_shuffled_records_store_alike(case):
    """Any declaration order gives an equal operator; each row keeps its own order."""
    dim, cells, values, random = case
    dim = max(dim, max(max(cell) for cell in cells))
    records = [(row, col, amp) for (row, col), amp in zip(cells, values)]
    shuffled = random.sample(records, len(records))
    op, other = SparseOperator(dim, records), SparseOperator(dim, shuffled)
    assert op == other
    assert list(op.entries()) == list(other.entries())
    for declared, built in ((records, op), (shuffled, other)):
        assert stored_rows(built) == {
            row: {col: complex(amp) for r, col, amp in declared if r == row}
            for row in sorted({r for r, _, _ in declared})
        }
        for row, cols in stored_rows(built).items():
            assert list(cols) == [col for r, col, _ in declared if r == row]
