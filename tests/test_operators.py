"""Sparse operator core: construction, arithmetic, norms, transfer build."""

from __future__ import annotations

import cmath
import math
import re
import sys
import tracemalloc
import warnings
from bisect import bisect_right

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornsolve import operators
from bornsolve.errors import DimensionError, ResonanceError
from bornsolve.graph import analyze_acyclicity
from bornsolve.operators import (
    NORM_KINDS,
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
    _FLAT_BINS,
    _LOOP_RECORDS,
    _PANEL_TERMS,
    _checked_columns,
    _loop_records,
    _panels,
)
from conftest import DYADIC, assert_same_bits, random_dag, random_operator, random_state
from oracles import from_dense, gaussian, pattern, rational_power, scaled

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
            from_dense(np.zeros((0, 0)))
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
        assert pattern(op) == {(1, 3)}
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

    def test_keeps_tiny_amplitudes_and_drops_exact_zeros(self):
        # no magnitude makes a structural zero; only an exact zero does
        op = SparseOperator(3, [(1, 2, 1e-15), (2, 1, 1e-300), (2, 3, 0.0), (3, 1, -0.0j)])
        assert pattern(op) == {(1, 2), (2, 1)}
        dense = op.to_dense()
        assert dense[0, 1] == 1e-15 and dense[1, 0] == 1e-300
        assert dense[1, 2] == 0 and dense[2, 0] == 0

    def test_zero_and_identity(self):
        assert SparseOperator(3).is_zero()
        eye = SparseOperator.identity(3)
        npt.assert_array_equal(eye.to_dense(), np.eye(3, dtype=complex))

    def test_dense_round_trip(self):
        rng = np.random.default_rng(7)
        a = random_state(rng, 16).reshape(4, 4)
        op = from_dense(a)
        npt.assert_array_equal(op.to_dense(), a)

    def test_entries_sorted(self):
        op = SparseOperator(3, [(3, 1, 1.0), (1, 2, 2.0), (1, 1, 3.0)])
        assert [(r, c) for r, c, _ in op.entries()] == [(1, 1), (1, 2), (3, 1)]

    def test_equality_and_nnz(self):
        a = SparseOperator(2, [(1, 2, 0.5)])
        b = SparseOperator(2, [(1, 2, 0.5)])
        assert a == b
        assert a != SparseOperator(2, [(1, 2, 0.6)])
        assert a.nnz == 1


class TestStateVectors:
    def test_basis_state(self):
        v = basis_state(3, 2)
        npt.assert_array_equal(v, [0, 1, 0])

    def test_basis_state_rejects_bad_label(self):
        with pytest.raises(ValueError, match="label"):
            basis_state(3, 4)

    @pytest.mark.parametrize("label", [True, 2.0, np.float64(2.0)])
    def test_basis_state_rejects_a_non_integral_label(self, label):
        # as a record's label: True once gave e_1, 2.0 numpy's IndexError
        with pytest.raises(TypeError):
            basis_state(4, label)
        npt.assert_array_equal(basis_state(4, np.intp(2)), [0, 1, 0, 0])

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
        assert pattern(sq) == {(1, 3)}
        assert sq.to_dense()[0, 2] == t21 * t32

    def test_diamond_second_power(self):
        t21, t31, t42, t43 = 1.5, -0.5j, 2.0 + 1.0j, 0.25
        sq = matmul(diamond_operator(t21, t31, t42, t43),
                    diamond_operator(t21, t31, t42, t43))
        assert pattern(sq) == {(4, 1)}
        npt.assert_allclose(sq.to_dense()[3, 0], t42 * t21 + t43 * t31,
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
            assert operator_norm(SparseOperator(3), kind) == 0.0

    def test_fro_norm_out_of_range(self):
        # squared moduli that overflow or underflow are summed over the
        # largest modulus instead, quietly
        for scale in (1e200, 1e-170):
            op = SparseOperator(2, [(1, 2, 3.0 * scale), (2, 1, 4.0j * scale)])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                fro = operator_norm(op, "fro")
            npt.assert_allclose(fro, 5.0 * scale, rtol=4 * np.finfo(float).eps)
            assert operator_norm(SparseOperator(1, [(1, 1, scale)]), "fro") == scale

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
            npt.assert_allclose(operator_norm(scaled(op, factor), kind),
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

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_vector_fro_norm_out_of_range(self, scale):
        # the squares overflow or underflow; np.linalg.norm gave inf or 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fro = vector_norm([scale * 1j, scale], "fro")
        npt.assert_allclose(fro, math.sqrt(2.0) * scale, rtol=4 * np.finfo(float).eps)

    def test_vector_fro_norm_is_the_one_column_norm(self):
        rng = np.random.default_rng(43)
        for scale in (1.0, 1e200, 1e-200, 1e-310):
            for dim in (1, 5, 60):
                v = wide_state(rng, dim) * scale
                column = SparseOperator(dim, [(k, 1, z) for k, z in enumerate(v.tolist(), 1)])
                assert vector_norm(v, "fro") == operator_norm(column, "fro")


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
        assert pattern(t) == pattern(potential)

    def test_resonant_energy_rejected(self):
        h0 = np.array([0.0, 1.0])
        with pytest.raises(ResonanceError, match="level 2"):
            build_transfer_operator(h0, SparseOperator(2, [(1, 2, 1.0)]), 1.0)

    def test_resonance_threshold_boundary(self):
        # threshold is 1e-10 * max(|E|, max|H0|): at |E| near the top level
        # a relative gap of 2e-10 clears it and one of 5e-11 does not, at
        # any scale
        for scale in (1.0, 1e-19, 1e-30, 1e30):
            h0 = np.array([0.0, scale])
            assert free_resolvent_diagonal(h0, scale * (1.0 + 2e-10)).shape == (2,)
            energy = scale * (1.0 + 5e-11)
            with pytest.raises(ResonanceError) as excinfo:
                free_resolvent_diagonal(h0, energy)
            assert excinfo.value.level == 2
            assert excinfo.value.threshold == 1e-10 * energy

    def test_resonance_margin_follows_the_levels(self):
        # the largest level sets the scale when it exceeds |E|
        h0 = np.array([0.0, 10.0])
        with pytest.raises(ResonanceError, match="level 1"):
            free_resolvent_diagonal(h0, 5e-10)
        assert free_resolvent_diagonal(h0, 2e-9)[0] == 1 / 2e-9

    def test_joule_scale_hamiltonian(self):
        # atomic levels in joules: a margin of 1e-10 * (1 + |E|) was wider
        # than the whole spectrum, so every energy was a resonance
        ev = 1.602176634e-19  # one electronvolt in joules
        h0 = np.array([0.0, 1.0, 2.5]) * ev
        potential = SparseOperator(3, [(2, 1, 1e-21), (3, 2, 2e-21)])
        t = build_transfer_operator(h0, potential, 1.7 * ev)
        npt.assert_allclose(t.to_dense(), potential.to_dense() / (1.7 * ev - h0)[:, None],
                            rtol=1e-15)
        assert analyze_acyclicity(t).depth == 2

    @pytest.mark.parametrize("energy", [complex(math.nan, 0.0), complex(1.0, math.nan),
                                        math.inf, -math.inf], ids=["nan-re", "nan-im", "inf", "-inf"])
    def test_non_finite_energy_rejected(self, energy):
        # checked before the resonance test, which would pass NaN on to a
        # division and take inf for a resonance
        h0 = np.array([0.0, 1.0])
        message = re.escape(f"energy is not finite: {complex(energy)}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                free_resolvent_diagonal(h0, energy)
            with pytest.raises(ValueError, match=message):
                build_transfer_operator(h0, SparseOperator(2, [(1, 2, 1.0)]), energy)

    @pytest.mark.parametrize("h0", [np.zeros((2, 2)), np.array([])], ids=["2-d", "empty"])
    def test_levels_must_be_a_non_empty_vector(self, h0):
        with pytest.raises(ValueError, match="free Hamiltonian must be a non-empty 1-d real array"):
            free_resolvent_diagonal(h0, 1.0)

    def test_complex_energy_unlocks_near_level_probe(self):
        h0 = np.array([1.0])
        g0 = free_resolvent_diagonal(h0, 1.0 + 1e-3j)
        npt.assert_allclose(g0, [1.0 / 1e-3j], rtol=1e-15)

    def test_free_resolvent_values(self):
        h0 = np.array([0.0, 2.0])
        energy = 5.0 - 1.0j
        npt.assert_allclose(free_resolvent_diagonal(h0, energy),
                            1.0 / (energy - h0), rtol=1e-15)

    def test_subnormal_gap_rejected_before_the_division(self):
        # the diamond scaled by 2**-1070: every gap is subnormal, so 1 / gap
        # overflowed and T's first entry read (inf+nanj); the least gap is
        # now refused with a message naming its level, and no warning
        h0 = np.array([0.0, 1.0, -1.0, 0.5]) * 2.0**-1070
        potential = scaled(diamond_operator(), 2.0**-1070)
        energy = complex(0.25, 0.125) * 2.0**-1070
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: free_resolvent_diagonal(h0, energy),
                         lambda: build_transfer_operator(h0, potential, energy)):
                with pytest.raises(ValueError, match=r"of free level 1, below the least normal"):
                    call()

    def test_overflowing_gap_rejected(self):
        # E - H0[1] overflows: 1 / inf gave 0, row 1 was dropped and the
        # 2-cycle of V came out as an acyclic T; now the level is named
        h0 = np.array([-1.7e308, 0.0])
        potential = SparseOperator(2, [(1, 2, 1.0), (2, 1, 1.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: free_resolvent_diagonal(h0, 1.7e308),
                         lambda: build_transfer_operator(h0, potential, 1.7e308)):
                with pytest.raises(ValueError, match="beyond the largest float from free level 1;"):
                    call()
            # gaps up to 1.7e308 keep every row, whether or not the levels are scanned
            for levels, energy in (([-0.85e308, 0.0], 0.85e308), ([1e308, 0.0], 1.5e308)):
                t = build_transfer_operator(np.array(levels), potential, energy)
                assert pattern(t) == pattern(potential)

    def test_overflowing_modulus_rejected(self):
        # |E|, or |E - H0[j]| with a finite real part, beyond the largest
        # float: abs raised a bare OverflowError ("absolute value too
        # large"); now the energy is named, and the first such level.  So
        # is a level whose gap, 1.61e308, is finite but whose reciprocal
        # overflows inside the division: it came out 0, with numpy's
        # overflow warning, and dropped the level's row
        potential = SparseOperator(3, [(1, 2, 1.0), (2, 1, 1.0)])
        for levels, energy, message in (
                ([0.0, 1.0, 2.0], 1.5e308 + 1.5e308j,
                 "energy (1.5e+308+1.5e+308j) has a modulus beyond the largest float"),
                ([0.5e308, -1e308, -1.2e308], 1.5e308j,
                 "energy 1.5e+308j is beyond the largest float from free level 2"),
                ([1e308, 0.0, 2.0], 8e307 + 1.4e308j,
                 "energy (8e+307+1.4e+308j) is beyond the largest float from free level 2")):
            h0 = np.array(levels)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for call in (lambda: free_resolvent_diagonal(h0, energy),
                             lambda: build_transfer_operator(h0, potential, energy)):
                    with pytest.raises(ValueError) as excinfo:
                        call()
                    assert str(excinfo.value) == f"{message}; rescale the Hamiltonian and energy"

    def test_underflowing_cycle_rejected(self):
        # T = V / 1e30 underflows to zero: T once had no entry, and the
        # 2-cycle of V was certified acyclic with depth 0
        potential = SparseOperator(2, [(1, 2, 1e-300), (2, 1, 1e-300)])
        with pytest.raises(ValueError, match=re.escape("entry (1, 2) underflows to zero: ")):
            build_transfer_operator(np.zeros(2), potential, 1e30)

    def test_least_normal_gap_is_accepted(self):
        tiny = np.finfo(float).tiny
        g0 = free_resolvent_diagonal(np.array([0.0, 4.0 * tiny]), tiny)
        assert g0.tolist() == [1.0 / tiny, -1.0 / (3.0 * tiny)]
        with pytest.raises(ValueError, match="free level 1, below the least normal"):
            free_resolvent_diagonal(np.array([0.0, 4.0 * tiny]), tiny / 2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            build_transfer_operator(np.zeros(2), SparseOperator.identity(3), 5.0)


def python_matvec(dim, entries, v) -> np.ndarray:
    """Reference apply: each row summed left to right with Python complex multiply-adds.

    entries are taken in the order given, which must be the order they
    were passed to the SparseOperator constructor.
    """
    out = [0j] * dim
    for row, col, amp in entries:
        out[row - 1] += complex(amp) * complex(v[col - 1])
    return np.array(out, dtype=complex)


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
        npt.assert_array_equal(matvec(SparseOperator(5), v), np.zeros(5))
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
        before = matvec(op, v)  # applied before anything is derived from it
        rescaled = scaled(op, 0.5 - 2.0j)
        # built from entries(), so stored in (row, col) order
        assert_same_bits(matvec(rescaled, v), python_matvec(11, list(rescaled.entries()), v))
        h0 = rng.uniform(-2.0, 2.0, size=11)
        # products store each row by column
        for derived in (matmul(op, op), power(op, 3), from_dense(op.to_dense()),
                        build_transfer_operator(h0, op, 0.3 + 0.7j)):
            out = matvec(derived, v)
            npt.assert_allclose(out, derived.to_dense() @ v, rtol=RTOL, atol=ATOL)
            assert_same_bits(out, python_matvec(11, stored_entries(derived), v))
        npt.assert_array_equal(matvec(power(op, 0), v), v)
        npt.assert_array_equal(matvec(op, v), before)

    def test_overflow_warns_and_gives_inf(self):
        # a product that overflows is reported, not hidden as in matmul,
        # whose _store rejects what overflowed
        op = SparseOperator(2, [(1, 2, 1e200), (2, 1, 1.0)])
        with pytest.warns(RuntimeWarning, match="overflow"):
            out = matvec(op, [0, 1e200])
        npt.assert_array_equal(out, [math.inf, 0])


class TestDirectBuilds:
    """build_transfer_operator skips re-validation but keeps its rules."""

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

    def test_transfer_keeps_tiny_entries_and_refuses_lost_ones(self):
        # 1e-10 / 1e100 is kept however small; 1e-300 / 1e100 underflows to
        # an exact zero, which once dropped the entry: now it is refused
        tiny = SparseOperator(3, [(1, 2, 1e-10), (2, 1, 1.0)])
        t = build_transfer_operator(np.zeros(3), tiny, 1e100)
        assert pattern(t) == {(1, 2), (2, 1)}
        npt.assert_allclose(t.to_dense()[0, 1], 1e-110, rtol=1e-15)
        lost = SparseOperator(3, [(1, 2, 1e-10), (2, 1, 1.0), (3, 1, 1e-300)])
        with pytest.raises(ValueError, match=re.escape("entry (3, 1) underflows to zero: ")):
            build_transfer_operator(np.zeros(3), lost, 1e100)

    def test_transfer_keeps_storage_order(self):
        # T keeps V's storage order: by row, each row as declared
        rng = np.random.default_rng(17)
        for _ in range(10):
            potential = shuffled_operator(rng, 9, 0.6)
            h0 = rng.uniform(-2.0, 2.0, size=9)
            g0 = free_resolvent_diagonal(h0, 3.0 + 0.5j)
            t = build_transfer_operator(h0, potential, 3.0 + 0.5j)
            npt.assert_array_equal(t._row, potential._row)
            npt.assert_array_equal(t._col, potential._col)
            want = [complex(g0[r - 1]) * a
                    for r, a in zip(potential._row.tolist(), potential._amp.tolist())]
            assert_same_bits(t._amp, np.array(want, dtype=complex))

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


def stored_entries(op: SparseOperator) -> list:
    """The operator's entries as (row, col, amp), in storage order."""
    return list(zip(*stored_arrays(op)))


def storage(rows: dict) -> list:
    """Rows with their entries, in storage order: the order _apply sums in."""
    return [(row, list(cols.items())) for row, cols in rows.items()]


def python_product(a_rows: dict, b_rows: dict) -> dict:
    """Reference product of row dicts, a triple loop column by column.

    Rows come in a's storage order and, within a row, columns in ascending
    order.  Each value is summed left to right from 0j over a's row in
    storage order; exact zeros and rows left empty are dropped.
    """
    out = {}
    for row, mids in a_rows.items():
        reached = set()
        for mid in mids:
            reached.update(b_rows.get(mid, {}))
        cols = {}
        for col in sorted(reached):
            value = 0j
            for mid, left in mids.items():
                right = b_rows.get(mid, {}).get(col)
                if right is not None:
                    value += left * right
            if value:
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
            from_dense([[0, np.nan], [1, 0]])

    def test_from_dense_keeps_small_values_and_drops_zeros(self):
        op = from_dense([[0, 1e-15, 0], [2, 0, -0.0], [0, 0, 0]])
        assert storage(stored_rows(op)) == [(1, [(2, 1e-15 + 0j)]), (2, [(1, 2 + 0j)])]

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

    def test_products_stored_by_row_and_column(self):
        # the same product, whatever order its operands were declared in
        rng = np.random.default_rng(31)
        for _ in range(20):
            dim = int(rng.integers(2, 12))
            entries = [list(random_operator(rng, dim, 0.5).entries()) for _ in range(2)]
            runs = []
            for _ in range(3):
                a, b = (SparseOperator(dim, [e[k] for k in rng.permutation(len(e))])
                        for e in entries)
                runs.append((matmul(a, b), power(a, 2)))
            for run in runs:
                for got, want in zip(run, runs[0]):
                    npt.assert_array_equal(got._row, want._row)
                    npt.assert_array_equal(got._col, want._col)
                    keys = got._row * (dim + 1) + got._col
                    assert np.all(keys[1:] > keys[:-1])

    def test_product_without_terms_is_zero(self):
        edge = SparseOperator(3, [(2, 1, 1.0)])
        product = matmul(edge, edge)
        assert product == SparseOperator(3)
        assert product._row.dtype == product._col.dtype == np.intp
        assert product._row.size == product._col.size == product.nnz == 0

    def test_matmul_reference_with_cancellation(self):
        op = diamond_operator(2.0, 4.0, 3.0, -1.5)
        assert python_product(stored_rows(op), stored_rows(op)) == {}
        assert storage(stored_rows(matmul(op, op))) == []

    def test_power_equals_python_reference(self):
        rng = np.random.default_rng(29)
        for _ in range(15):
            dim = int(rng.integers(1, 9))
            op = shuffled_operator(rng, dim, 0.4)
            identity = {k: {k: 1 + 0j} for k in range(1, dim + 1)}
            assert storage(stored_rows(power(op, 0))) == storage(identity)
            want = stored_rows(op)
            for k in range(1, 6):
                assert storage(stored_rows(power(op, k))) == storage(want)
                want = python_product(want, stored_rows(op))

    def test_power_multiplies_from_the_operand(self):
        # power(T, 1) is T as declared and power(T, 2) is matmul(T, T), bit
        # for bit: no identity product re-sorts T's rows or re-rounds a term
        rng = np.random.default_rng(37)
        for _ in range(100):
            dim = int(rng.integers(1, 30))
            op = shuffled_operator(rng, dim, float(rng.uniform(0.1, 0.7)))
            for got, want in ((power(op, 1), op), (power(op, 2), matmul(op, op))):
                npt.assert_array_equal(got._row, want._row)
                npt.assert_array_equal(got._col, want._col)
                assert_same_bits(got._amp, want._amp)


def panel_sizes(a: SparseOperator, b: SparseOperator) -> list[tuple[int, int]]:
    """(rows, terms) of each of matmul(a, b)'s panels, rows counted from its first to its last."""
    ptr = b._row_ptr()
    count = ptr[a._col] - ptr[a._col - 1]
    return [(int(a._row[hi - 1] - a._row[lo] + 1), int(count[lo:hi].sum()))
            for lo, hi in _panels(a._row, count)]


def flat_binned(a: SparseOperator, b: SparseOperator) -> bool:
    """Whether matmul(a, b) sums some panel's terms in flat bins rather than by np.unique."""
    return any(rows * (a.dim + 1) <= _FLAT_BINS * terms for rows, terms in panel_sizes(a, b))


class TestBinningPaths:
    """matmul's two ways of grouping terms store the same bits."""

    @staticmethod
    def both_paths(monkeypatch, a, b):
        products = []
        for ratio in (0, 10**18):  # np.unique for every product, then flat bins for all with terms
            with monkeypatch.context() as patch:
                patch.setattr(operators, "_FLAT_BINS", ratio)
                products.append(matmul(a, b))
        return products

    def assert_same_store(self, monkeypatch, a, b):
        by_sort, by_bins = self.both_paths(monkeypatch, a, b)
        for got in (by_sort, by_bins):
            assert got._row.dtype == got._col.dtype == np.intp
        npt.assert_array_equal(by_bins._row, by_sort._row)
        npt.assert_array_equal(by_bins._col, by_sort._col)
        assert_same_bits(by_bins._amp, by_sort._amp)
        natural = matmul(a, b)
        assert_same_bits(natural._amp, by_sort._amp)

    def test_random_products_on_both_sides_of_the_switch(self, monkeypatch):
        rng = np.random.default_rng(47)
        sides = set()
        for _ in range(150):
            dim = int(rng.integers(1, 30))
            density = float(rng.uniform(0.02, 0.9))
            a = SparseOperator(dim, wide_entries(rng, dim, density))
            b = SparseOperator(dim, wide_entries(rng, dim, density))
            sides.add(flat_binned(a, b))
            self.assert_same_store(monkeypatch, a, b)
        assert sides == {False, True}

    def test_edge_cases(self, monkeypatch):
        edge = SparseOperator(3, [(2, 1, 1.0)])
        cancel = diamond_operator(2.0, 4.0, 3.0, -1.5)  # its square sums to exact zeros
        signed = SparseOperator(2, [(1, 1, complex(-0.0, 1.0)), (1, 2, complex(1.0, -0.0)),
                                    (2, 1, complex(1e-300, -0.0)), (2, 2, -1.0)])
        one = SparseOperator(1, [(1, 1, complex(-0.0, 2.0))])
        for a, b in ((edge, edge), (cancel, cancel), (signed, signed), (one, one),
                     (SparseOperator(1), one), (SparseOperator.identity(4), cancel)):
            self.assert_same_store(monkeypatch, a, b)
        by_sort, by_bins = self.both_paths(monkeypatch, cancel, cancel)
        assert by_sort.is_zero() and by_bins.is_zero()

    def test_overflow_names_the_same_entry(self, monkeypatch):
        a = SparseOperator(2, [(1, 1, 1e200), (1, 2, -1e200)])
        b = SparseOperator(2, [(1, 1, 1e200 + 1j), (2, 1, 1e200 + 1j)])
        for ratio in (0, 10**18):
            monkeypatch.setattr(operators, "_FLAT_BINS", ratio)
            with pytest.raises(ValueError, match=r"entry \(1, 1\) is not finite"):
                matmul(a, b)

    def test_sparse_products_allocate_no_flat_bins(self):
        # dim 2000 and a few thousand terms: (dim + 1)^2 bins would take 32 MB
        rng = np.random.default_rng(53)
        dim = 2000
        cells = rng.choice(dim * dim, size=3000, replace=False)
        op = SparseOperator(dim, list(zip((cells // dim + 1).tolist(), (cells % dim + 1).tolist(),
                                          rng.standard_normal(3000).tolist())))
        assert not flat_binned(op, op)
        tracemalloc.start()
        try:
            product = matmul(op, op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert product.nnz > 0
        assert peak < (dim + 1) ** 2  # bytes: an eighth of one array of the bins


# one panel a row with terms, rows beyond a panel, the default, one panel
PANEL_SIZES = (1, 3, _PANEL_TERMS, 10**18)

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                             database=None)


def assert_stores(got: SparseOperator, rows: dict) -> None:
    """got's stored arrays are the row dicts' entries in their order, bit for bit."""
    want = [(row, col, amp) for row, cols in rows.items() for col, amp in cols.items()]
    assert list(zip(got._row.tolist(), got._col.tolist())) == [entry[:2] for entry in want]
    assert_same_bits(got._amp, np.array([entry[2] for entry in want], dtype=complex))


def panel_cases(rng):
    """Operand pairs with rows of many terms, rows without terms and panels without terms.

    b leaves about a third of its rows empty, so an entry of a in one of
    those columns starts no term.
    """
    for _ in range(30):
        dim = int(rng.integers(1, 14))
        empty = rng.choice(np.arange(1, dim + 1), size=dim // 3, replace=False).tolist()
        a = SparseOperator(dim, wide_entries(rng, dim, float(rng.uniform(0.1, 0.9))))
        b = SparseOperator(dim, wide_entries(rng, dim, float(rng.uniform(0.1, 0.9)), empty))
        yield a, b
    yield SparseOperator(3, [(2, 1, 1.0)]), SparseOperator(3, [(2, 1, 1.0)])
    yield diamond_operator(2.0, 4.0, 3.0, -1.5), diamond_operator(2.0, 4.0, 3.0, -1.5)
    yield SparseOperator(4), SparseOperator.identity(4)


@pytest.mark.parametrize("panel", PANEL_SIZES)
class TestRowPanels:
    """matmul forms and sums a's rows in panels of terms; no panel size moves a bit."""

    @pytest.mark.parametrize("flat", [0, 10**18])  # np.unique for every panel, flat bins for all with terms
    def test_products_and_powers_equal_the_python_reference(self, monkeypatch, panel, flat):
        monkeypatch.setattr(operators, "_PANEL_TERMS", panel)
        monkeypatch.setattr(operators, "_FLAT_BINS", flat)
        panels = []
        for a, b in panel_cases(np.random.default_rng(59)):
            panels += [terms for _, terms in panel_sizes(a, b)]
            assert_stores(matmul(a, b), python_product(stored_rows(a), stored_rows(b)))
            want = stored_rows(a)
            for k in range(1, 6):
                assert_stores(power(a, k), want)
                want = python_product(want, stored_rows(a))
        if panel in (1, 3):
            assert 0 in panels and max(panels) > panel  # panels without terms, rows beyond one

    def test_cuts_fall_at_row_starts(self, monkeypatch, panel):
        monkeypatch.setattr(operators, "_PANEL_TERMS", panel)
        # rows 1, 2, 3 and 5 start 2, 0, 5 and 0 terms
        row = np.array([1, 1, 2, 3, 3, 5])
        count = np.array([2, 0, 0, 4, 1, 0])
        want = {1: [(0, 2), (2, 5), (5, 6)], 3: [(0, 5), (5, 6)]}
        assert list(_panels(row, count)) == want.get(panel, [(0, 6)])
        assert list(_panels(row[:0], count[:0])) == []

    def test_overflow_in_a_later_panel_names_the_same_entry(self, monkeypatch, panel):
        # rows 1 and 2 are finite; row 3's two products overflow to +inf
        # and -inf, whose sum is NaN, in the third panel of one-term panels
        a = SparseOperator(3, [(1, 1, 1.0), (2, 2, 2.0), (3, 1, 1e200), (3, 2, -1e200)])
        b = SparseOperator(3, [(1, 1, 1e200 + 1j), (1, 3, 1.0), (2, 1, 1e200 + 1j)])
        monkeypatch.setattr(operators, "_PANEL_TERMS", panel)
        assert len(panel_sizes(a, b)) == {1: 3, 3: 2}.get(panel, 1)
        for flat in (0, 10**18):
            monkeypatch.setattr(operators, "_FLAT_BINS", flat)
            with pytest.raises(ValueError, match=r"^entry \(3, 1\) is not finite: \(nan"):
                matmul(a, b)


def resolvent_like_input() -> SparseOperator:
    """A dim-300 contraction with cycles, made as the resolvent benchmark's cyclic input.

    The same pattern stream: a DAG at density 0.05 in a random vertex
    order with five of its edges reversed; amplitudes on the complex
    unit disk, scaled to a largest absolute row sum of 0.9.
    """
    dim, pattern = 300, np.random.default_rng(300_010)
    order = pattern.permutation(dim)
    pos_a, pos_b = np.triu_indices(dim, k=1)
    keep = pattern.random(pos_a.size) < 0.05
    rows, cols = order[pos_b[keep]] + 1, order[pos_a[keep]] + 1
    flip = pattern.choice(rows.size, size=5, replace=False)
    rows, cols = np.concatenate([rows, cols[flip]]), np.concatenate([cols, rows[flip]])
    values = np.random.default_rng(61)
    amps = np.sqrt(values.random(rows.size)) * np.exp(2j * np.pi * values.random(rows.size))
    op = SparseOperator(dim, list(zip(rows.tolist(), cols.tolist(), amps.tolist())))
    return scaled(op, 0.9 / operator_norm(op))


def test_products_of_powers_stay_in_panels():
    # T^3 T on the resolvent benchmark's input: all its terms formed at
    # once peak at 5.9 MB traced, row panels at 2.8 MB
    op = resolvent_like_input()
    assert not analyze_acyclicity(op).is_acyclic
    cube = power(op, 3)
    tracemalloc.start()
    try:
        product = matmul(cube, op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(panel_sizes(cube, op)) > 1 and product.nnz > 10_000
    assert peak < 3.5e6  # bytes


@st.composite
def dyadic_operators(draw, max_dim: int = 16):
    """An operator, cycles allowed, with every amplitude in DYADIC.

    Each position draws its amplitude from DYADIC with the zero repeated
    up to 24 times, so the density runs from sparse to full.
    """
    dim = draw(st.integers(2, max_dim))
    amplitude = st.sampled_from([0.0] * draw(st.integers(0, 23)) + DYADIC)
    amps = draw(st.lists(amplitude, min_size=dim * dim, max_size=dim * dim))
    return SparseOperator(dim, [(k // dim + 1, k % dim + 1, amp) for k, amp in enumerate(amps)])


@PROPERTY_SETTINGS
@given(dyadic_operators())
def test_dyadic_powers_are_exact(op):
    exact = [rational_power(op, 0)]
    for _ in range(5):
        exact.append(rational_power(op, 1, exact[-1]))
    for panel in (1, _PANEL_TERMS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(operators, "_PANEL_TERMS", panel)
            for k, want in enumerate(exact):
                got = power(op, k)
                assert {(r, c): gaussian(a) for r, c, a in got.entries()} == want


def lexsorted(op: SparseOperator) -> np.ndarray:
    return np.lexsort((op._col, op._row))


class TestSortedOrder:
    """The stored entries in (row, col) order, skipping the lexsort where they already are."""

    def operators(self, rng):
        for _ in range(40):
            dim = int(rng.integers(1, 20))
            declared = SparseOperator(dim, wide_entries(rng, dim, float(rng.uniform(0.1, 0.8))))
            yield declared
            yield matmul(declared, declared)

    def test_order_equals_the_lexsort(self):
        rng = np.random.default_rng(59)
        taken = set()
        for op in self.operators(rng):
            order = op._sorted()
            taken.add(isinstance(order, slice))
            npt.assert_array_equal(np.arange(op.nnz)[order], lexsorted(op))
            if isinstance(order, np.ndarray):
                assert order.dtype == np.intp
        assert taken == {False, True}

    def test_norms_entries_and_equality_as_with_the_lexsort(self):
        rng = np.random.default_rng(61)
        for op in self.operators(rng):
            order = lexsorted(op)
            row, col, amp = op._row[order], op._col[order], op._amp[order]
            for kind in NORM_KINDS:
                assert operator_norm(op, kind) == python_norm(op, kind)
            assert list(op.entries()) == list(zip(row.tolist(), col.tolist(), amp.tolist()))
            shuffled = [(r, c, a) for r, c, a in op.entries()]
            shuffled = [shuffled[k] for k in rng.permutation(len(shuffled))]
            other = SparseOperator(op.dim, shuffled)
            assert op == other and other == op
            if op.nnz:
                changed = shuffled[:-1] + [(*shuffled[-1][:2], shuffled[-1][2] + 1.0)]
                assert op != SparseOperator(op.dim, changed)


class TestBySource:
    """The stored entries stably by column, and the column pointer."""

    # labels up to 2**16 - 1 sort as 16-bit keys, larger ones as they are
    @pytest.mark.parametrize("dim, count", [(1, 0), (1, 1), (6, 20), (40, 900), (70000, 300)])
    def test_stable_by_column_with_its_pointer(self, dim, count):
        rng = np.random.default_rng(67)
        cells = {(dim, dim)} if count else set()
        while len(cells) < count:
            cells.add(tuple(int(v) for v in rng.integers(1, dim + 1, size=2)))
        records = [(row, col, complex(*rng.standard_normal(2))) for row, col in cells]
        op = SparseOperator(dim, records)
        order, ptr = op._by_source()
        col = op._col.tolist()
        assert order.tolist() == sorted(range(op.nnz), key=col.__getitem__)
        ascending = sorted(col)
        assert ptr == [bisect_right(ascending, i) for i in range(dim + 1)]


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
        # a product stores each row by column, a declared operator as declared
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

    def test_large_labels_sort_stably_by_row(self):
        # dim + 1 > 2**16: the rows sort as intp keys, not 16-bit ones, and
        # each row keeps its declaration order, as Python's sort keeps it
        dim = 70000
        rng = np.random.default_rng(79)
        rows = rng.choice([1, 3, 2**16 - 1, 2**16, 2**16 + 1, dim], size=6 * _LOOP_RECORDS)
        cols = rng.choice(dim, size=rows.size, replace=False) + 1
        records = [(int(r), int(c), complex(k + 1)) for k, (r, c) in enumerate(zip(rows, cols))]
        checked = _checked_columns(dim, rows.tolist(), cols.tolist(),
                                   np.array([a for _, _, a in records]))
        want = sorted(records, key=lambda record: record[0])
        assert stored_arrays(checked) == [list(part) for part in zip(*want)]
        assert stored_arrays(SparseOperator(dim, records)) == stored_arrays(checked)

    @pytest.mark.parametrize("dim", [2**40, 2**62])
    def test_wrapping_keys_fall_back_to_the_loop(self, dim):
        # the keys row * (dim + 1) + col would wrap in intp; wrapped, sort
        # keys once stored row dim first at 2**62
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

    @pytest.mark.parametrize("kind", ["by_position", "by_name", "set", "short_list",
                                      "long_tuple", "iterator", "no_items"])
    def test_records_read_alike_in_short_and_long_lists(self, kind):
        # the same records, one of them at position 1 not a plain triple, in
        # a list the loop reads and one the array checks see first
        outcomes = []
        for count in (3, _LOOP_RECORDS + 1):
            records = padded_records(_LOOP_RECORDS + 1, seed=5)[:count]
            row, col, amp = records[1]
            records[1] = {
                "by_position": {0: row, 1: col, 2: amp},
                "by_name": {"to": row, "from": col, "amp": amp},
                "set": {row, col, amp},
                "short_list": [row, col],
                "long_tuple": (row, col, amp, 1.0),
                "iterator": iter((row, col, amp)),
                "no_items": 7,
            }[kind]
            try:
                op = SparseOperator(RECORD_DIM, records)
            except (TypeError, ValueError) as fault:
                outcomes.append((type(fault), str(fault)))
            else:
                plain = padded_records(_LOOP_RECORDS + 1, seed=5)[:count]
                assert stored_arrays(op) == stored_arrays(SparseOperator(RECORD_DIM, plain))
                outcomes.append("stored")
        assert outcomes[0] == outcomes[1]
        if kind in ("by_position", "iterator"):
            assert outcomes[0] == "stored"
        else:
            assert outcomes[0][0] is (TypeError if kind == "no_items" else ValueError)
            assert outcomes[0][1].startswith("record 1 is not a (row, col, amplitude) triple")


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


# The transfer build has one path at every size.  Its two steps are held
# to references formed here, over 1 to 120 levels and entries, on both
# sides of the record loop's cut at _LOOP_RECORDS = 48, where they once
# switched path: the level scan to numpy's gaps, moduli and reciprocals,
# the row scaling to Python's products complex(g[r - 1]) * a.
ORDINARY = [1.0, -2.5, 0.75j, complex(1.5, -0.5), complex(-0.0, 3.0)]
RESCALE = "rescale the Hamiltonian and energy"


def outcome(call):
    """What a call gives, with warnings as errors: its result, or its error's type, message and fields."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except (ValueError, ResonanceError) as fault:
            return type(fault), str(fault), vars(fault)


def row_scaling_reference(op: SparseOperator, factors: np.ndarray):
    """_row_scaled's outcome from Python's products: their array, or the first lost entry named."""
    products = []
    for r, c, a in zip(op._row.tolist(), op._col.tolist(), op._amp.tolist()):
        g = complex(factors[r - 1])
        product = g * a
        if not cmath.isfinite(product):
            return ValueError, f"entry ({r}, {c}) is not finite: {product}", {}
        if product == 0:
            return ValueError, (f"entry ({r}, {c}) underflows to zero: {a} * {g}, "
                                "which would drop its coupling; rescale the potential"), {}
        products.append(product)
    return np.array(products, dtype=complex)


def assert_row_scaling(op: SparseOperator, factors: np.ndarray) -> None:
    """_row_scaled gives op's own rows and columns with the reference's products, or its error."""
    got, want = outcome(lambda: operators._row_scaled(op, factors)), row_scaling_reference(op, factors)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, SparseOperator) and got.dim == op.dim
        assert got._row is op._row and got._col is op._col
        assert got._amp.dtype == complex and got._amp.flags.c_contiguous
        assert_same_bits(got._amp, want)


@st.composite
def row_scalings(draw):
    """An operator of 1 to 120 entries on up to 11 states and factors for its rows.

    Amplitudes mix ordinary values with 1e-200 and 1e200.  The factors are
    ordinary, or some are zero, 1e-200, 1e200 or NaN, so that whole rows
    come out zero, products underflow to exact zeros or overflow.
    """
    dim = draw(st.integers(1, 11))
    nnz = draw(st.integers(1, min(120, dim * dim)))
    cells = draw(st.lists(st.integers(0, dim * dim - 1), min_size=nnz, max_size=nnz, unique=True))
    amps = draw(st.lists(st.sampled_from(ORDINARY + [1e-200, -1e200j] * 2), min_size=nnz,
                         max_size=nnz))
    op = SparseOperator(dim, [(k // dim + 1, k % dim + 1, a) for k, a in zip(cells, amps)])
    extreme = draw(st.sampled_from([[], [0.0], [complex(0.0, 1e-200)], [1e200],
                                    [complex(math.nan, 0.0)]]))
    factors = draw(st.lists(st.sampled_from(ORDINARY + extreme), min_size=dim, max_size=dim))
    return op, np.array(factors, dtype=complex)


@PROPERTY_SETTINGS
@given(row_scalings())
def test_row_scalings_keep_the_pattern_or_refuse(case):
    # V's own rows and columns with Python's products, or the first
    # product in storage order that is zero or not finite is named
    assert_row_scaling(*case)


@pytest.mark.parametrize("nnz", [1, 48, 49, 120])
@pytest.mark.parametrize("last", [0.0, 1e-200, 1e200, math.nan])
def test_row_scaling_of_the_last_entry(nnz, last):
    # only the last product is zero, underflows, overflows or is NaN; a
    # zero or underflow is refused as an overflow is, no longer dropped
    op = SparseOperator(nnz, [(k + 1, k + 1, complex(k + 1, -1.0)) for k in range(nnz - 1)]
                        + [(nnz, 1, 1e-200 if last == 1e-200 else 1e200)])
    factors = np.ones(nnz, dtype=complex)
    factors[-1] = last if last == last else complex(math.nan, 0.0)
    assert_row_scaling(op, factors)
    got = outcome(lambda: operators._row_scaled(op, factors))
    fault = "underflows to zero" if last in (0.0, 1e-200) else "is not finite"
    assert got[0] is ValueError and got[1].startswith(f"entry ({nnz}, 1) {fault}: ")


def lost_reciprocal(gap: complex) -> bool:
    """Whether |gap| overflows or Python's 1 / gap rounds to 0: either would drop a level's row."""
    try:
        return math.isinf(abs(gap)) or gap != 0 and 1 / gap == 0
    except OverflowError:
        return True


def level_scan_reference(h0: np.ndarray, energy: complex):
    """free_resolvent_diagonal's outcome from numpy's moduli of E and E - H0, with its messages."""
    e = complex(energy)
    if not np.isfinite(h0).all():
        return ValueError, "free Hamiltonian has non-finite levels", {}
    with np.errstate(over="ignore"):
        modulus = float(np.abs(np.complex128(e)))
        gaps = e - h0
        distance = np.abs(gaps)
    if math.isinf(modulus):
        return ValueError, f"energy {e} has a modulus beyond the largest float; {RESCALE}", {}
    far = [k for k, x in enumerate(h0.tolist(), 1) if lost_reciprocal(e - x)]
    if far:
        return ValueError, (f"energy {e} is beyond the largest float from free level "
                            f"{far[0]}; {RESCALE}"), {}
    threshold = operators.RESONANCE_MARGIN * max(modulus, float(np.abs(h0).max()))
    level, gap = int(distance.argmin()) + 1, float(distance.min())
    if gap <= threshold:
        fault = ResonanceError(level=level, energy=e, gap=gap, threshold=threshold)
        return ResonanceError, str(fault), vars(fault)
    if gap < sys.float_info.min:
        return ValueError, (f"energy {e} is within {gap:.3e} of free level {level}, below the "
                            f"least normal float {sys.float_info.min:.3e}; {RESCALE}"), {}
    return 1.0 / gaps


@st.composite
def level_scans(draw):
    """1 to 120 levels and an energy, at a scale from subnormal to where moduli overflow.

    The energy sits on a drawn level, at an offset from exact resonance to
    well clear of it, or away from every level, and may have a large
    imaginary part; a level may be NaN or infinite.  The top scale is
    drawn twice as often, so that |E| or some |E - H0[j]| overflows in a
    fair share of the examples.
    """
    n = draw(st.integers(1, 120))
    levels = draw(st.lists(st.integers(-40, 40), min_size=n, max_size=n))
    scale = draw(st.sampled_from([1.0, 1e-300, 2.0**-1060, 2.0**-1070, 2.0**1019, 2.0**1019]))
    h0 = np.array(levels, dtype=float) * 0.5 * scale
    energy = complex(draw(st.integers(-50, 50)) * 0.5 * scale, 0.0)
    if draw(st.booleans()):
        offset = draw(st.sampled_from([0.0, 1e-12, -3e-11, 1e-3, complex(0.0, 0.25), 0.25]))
        energy = complex(float(h0[draw(st.integers(0, n - 1))]) + offset * scale)
    energy += complex(0.0, draw(st.sampled_from([0.0, 0.0, 25.0, 30.0])) * scale)
    bad = draw(st.sampled_from([None, math.nan, math.inf, -math.inf]))
    if bad is not None and draw(st.booleans()):
        h0[draw(st.integers(0, n - 1))] = bad
    return h0, energy


@PROPERTY_SETTINGS
@given(level_scans())
def test_level_scans_match_the_array_reference(case):
    # the same reciprocals, the same ResonanceError (level, gap, threshold),
    # the same non-finite-level, overflow and subnormal-gap messages, and
    # no warning
    h0, energy = case
    got, want = outcome(lambda: free_resolvent_diagonal(h0, energy)), level_scan_reference(h0, energy)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, np.ndarray)
        assert_same_bits(got, want)


def test_level_scan_names_the_first_nearest_level():
    # levels 3 and 5 are equally near; a resonance, or a subnormal gap, names 3
    for n in (5, 48, 49, 120):
        h0 = np.full(n, 40.0)
        h0[2], h0[4] = 1.0, 1.0
        got = outcome(lambda: free_resolvent_diagonal(h0, 1.0))
        assert got[0] is ResonanceError and got[2]["level"] == 3
        h0 *= 2.0**-1070
        got = outcome(lambda: free_resolvent_diagonal(h0, 2.0**-1070 * (1 + 1j)))
        assert got[0] is ValueError and "of free level 3, below the least normal float" in got[1]


@st.composite
def transfer_builds(draw):
    """A potential, cyclic or not, with amplitudes from 1e-300 to 1e300, and levels and an energy.

    The levels and the energy each get their own power of ten, from
    1e-300 to 1e300, so the reciprocal gaps span 1e-300 to 1e300 and
    products underflow, overflow or stay in range.
    """
    dim = draw(st.integers(1, 11))
    nnz = draw(st.integers(1, min(120, dim * dim)))
    cells = draw(st.lists(st.integers(0, dim * dim - 1), min_size=nnz, max_size=nnz, unique=True))
    if draw(st.booleans()):  # below the diagonal: acyclic
        cells = [k for k in cells if k // dim > k % dim]
        nnz = len(cells)
    powers = draw(st.lists(st.integers(-300, 300), min_size=nnz, max_size=nnz))
    phases = draw(st.lists(st.sampled_from(ORDINARY), min_size=nnz, max_size=nnz))
    potential = SparseOperator(dim, [(k // dim + 1, k % dim + 1, phase * 10.0**p)
                                     for k, p, phase in zip(cells, powers, phases)])
    levels = draw(st.lists(st.integers(-4, 4), min_size=dim, max_size=dim))
    h0 = np.array(levels, dtype=float) * 10.0 ** draw(st.integers(-300, 300))
    energy = complex(draw(st.sampled_from([0.5, -2.5, 3.5])),
                     draw(st.sampled_from([0.0, 0.25]))) * 10.0 ** draw(st.integers(-300, 300))
    return h0, potential, energy


@PROPERTY_SETTINGS
@given(transfer_builds())
def test_transfer_keeps_the_pattern_or_refuses(case):
    # a product lost to underflow once dropped its entry, so a cyclic V
    # could give a T certified acyclic: T has V's pattern, or the build
    # raises, and T's certificate is V's
    h0, potential, energy = case
    t = outcome(lambda: build_transfer_operator(h0, potential, energy))
    if isinstance(t, tuple):
        assert t[0] in (ValueError, ResonanceError)
        return
    npt.assert_array_equal(t._row, potential._row)
    npt.assert_array_equal(t._col, potential._col)
    assert analyze_acyclicity(t) == analyze_acyclicity(potential)
