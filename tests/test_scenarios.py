"""Named systems (cascade, diamond, double diamond) and the classifier."""

from __future__ import annotations

import math

import numpy as np
import numpy.testing as npt
import pytest

from bornsolve.errors import TopologyError
from bornsolve.operators import basis_state
from bornsolve.scenarios import (
    DARK_THRESHOLD,
    REGIME_CONSTRUCTIVE,
    REGIME_DARK,
    REGIME_GENERIC,
    build_cascade,
    build_diamond,
    build_double_diamond,
    classify_interference,
)
from bornsolve.solver import solve_exact
from conftest import random_phase
from oracles import enumerate_paths, extract_graph


def random_amplitude(rng, lo=0.5, hi=2.0) -> complex:
    return rng.uniform(lo, hi) * random_phase(rng)


class TestCascade:
    def test_three_level_terms(self):
        t21, t32 = 0.8 + 0.1j, 0.5 - 0.2j
        system = build_cascade([t21, t32])
        assert system.dim == 3
        assert system.depth == 2
        expansion = solve_exact(system, basis_state(3, 3))
        npt.assert_array_equal(expansion.terms[0], [0, 0, 1])
        npt.assert_array_equal(expansion.terms[1], [0, t32, 0])
        npt.assert_array_equal(expansion.terms[2], [t21 * t32, 0, 0])

    @pytest.mark.parametrize("levels", [2, 3, 5, 9])
    def test_depth_scales_with_levels(self, levels):
        system = build_cascade([1.0] * (levels - 1))
        assert system.dim == levels
        assert system.depth == levels - 1
        assert system.term_count == levels

    def test_term_k_is_suffix_product(self):
        rng = np.random.default_rng(163)
        amps = [random_amplitude(rng) for _ in range(5)]
        system = build_cascade(amps)
        expansion = solve_exact(system, basis_state(6, 6))
        for k in range(6):
            term = expansion.terms[k]
            expected = np.zeros(6, dtype=complex)
            product = 1.0 + 0j
            for step in range(k):
                product = amps[-(step + 1)] * product
            expected[5 - k] = product
            npt.assert_allclose(term, expected, rtol=1e-13, atol=0)

    def test_zero_coupling_cuts_the_chain(self):
        system = build_cascade([1.0, 0.0, 1.0])
        assert system.depth == 1

    def test_requires_at_least_one_coupling(self):
        with pytest.raises(ValueError, match="at least one"):
            build_cascade([])


class TestDiamond:
    def test_final_amplitude_is_sum_of_branch_products(self):
        rng = np.random.default_rng(167)
        for _ in range(50):
            t21, t31, t42, t43 = (random_amplitude(rng, 0.1, 3.0) for _ in range(4))
            system = build_diamond(t21, t31, t42, t43)
            a4 = solve_exact(system, basis_state(4, 1)).total[3]
            npt.assert_allclose(a4, t42 * t21 + t43 * t31, rtol=1e-14)
            npt.assert_allclose(classify_interference(system).a4, a4, rtol=1e-14)

    def test_depth_two_with_all_couplings(self):
        assert build_diamond(1.0, 2.0, 3.0, 4.0).depth == 2

    def test_zero_couplings_delete_edges(self):
        system = build_diamond(1.0, 0.0, 1.0, 0.0)
        assert extract_graph(system.operator).edge_set() == {(1, 2), (2, 4)}
        assert system.depth == 2


class TestDoubleDiamond:
    def test_depth_four(self):
        system = build_double_diamond([1.0] * 8)
        assert system.dim == 7
        assert system.depth == 4
        assert system.term_count == 5

    def test_layout(self):
        system = build_double_diamond([1.0] * 8)
        assert extract_graph(system.operator).edge_set() == {
            (1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (4, 6), (5, 7), (6, 7),
        }

    def test_final_amplitude_factorizes_through_middle(self):
        # every route to state 7 passes through state 4, so the exact
        # amplitude is the product of the two stage sums
        rng = np.random.default_rng(173)
        amps = [random_amplitude(rng) for _ in range(8)]
        a12, a13, a24, a34, a45, a46, a57, a67 = amps
        system = build_double_diamond(amps)
        total = solve_exact(system, basis_state(7, 1)).total
        stage1 = a24 * a12 + a34 * a13
        stage2 = a57 * a45 + a67 * a46
        npt.assert_allclose(total[6], stage1 * stage2, rtol=1e-13)
        npt.assert_allclose(total[3], stage1, rtol=1e-14)

    def test_silencing_second_stage_halves_depth(self):
        system = build_double_diamond([1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        assert system.depth == 2

    def test_requires_exactly_eight_couplings(self):
        with pytest.raises(ValueError, match="8"):
            build_double_diamond([1.0] * 7)


class TestClassifier:
    def test_constructive_on_symmetric_couplings(self):
        report = classify_interference(build_diamond(1.0, 1.0, 1.0, 1.0))
        assert report.regime == REGIME_CONSTRUCTIVE
        assert report.a4 == 2.0
        assert report.a4_born1 == 0.0
        assert report.relative_error_born1 == 1.0

    def test_constructive_needs_equal_products_not_equal_couplings(self):
        # 2 * 3 == 1.5 * 4: products match even though no couplings do
        report = classify_interference(build_diamond(2.0, 1.5, 3.0, 4.0))
        assert report.regime == REGIME_CONSTRUCTIVE
        npt.assert_allclose(report.a4, 12.0, rtol=1e-14)

    def test_constructive_doubles_single_branch(self):
        rng = np.random.default_rng(179)
        for _ in range(20):
            t21, t42 = random_amplitude(rng), random_amplitude(rng)
            scale = random_amplitude(rng)
            # second branch carries the same product, split differently
            t31, t43 = t21 * scale, t42 / scale
            report = classify_interference(build_diamond(t21, t31, t42, t43))
            assert report.regime == REGIME_CONSTRUCTIVE
            npt.assert_allclose(report.a4, 2.0 * t42 * t21, rtol=1e-12)

    def test_dark_state_on_engineered_cancellation(self):
        rng = np.random.default_rng(181)
        for _ in range(20):
            t21, t31, t42 = (random_amplitude(rng) for _ in range(3))
            t43 = -t42 * t21 / t31
            report = classify_interference(build_diamond(t21, t31, t42, t43))
            assert report.regime == REGIME_DARK
            scale = (abs(report.path_contributions[0].weight)
                     + abs(report.path_contributions[1].weight))
            assert abs(report.a4) <= DARK_THRESHOLD * scale

    def test_dark_state_scale_invariance(self):
        t21, t31, t42 = 0.7 + 0.3j, -1.2 + 0.5j, 0.9 - 0.4j
        t43 = -t42 * t21 / t31
        for lam in (1e-3, 1.0, 1e3, 1e6):
            report = classify_interference(
                build_diamond(lam * t21, lam * t31, lam * t42, lam * t43)
            )
            assert report.regime == REGIME_DARK

    def test_generic_regime(self):
        report = classify_interference(build_diamond(1.0, 1.0, 1.0, 0.5))
        assert report.regime == REGIME_GENERIC
        npt.assert_allclose(report.a4, 1.5, rtol=1e-15)

    def test_first_order_amplitude_is_structural_zero(self):
        rng = np.random.default_rng(191)
        for _ in range(30):
            system = build_diamond(*(random_amplitude(rng, 0.0, 4.0)
                                     for _ in range(4)))
            report = classify_interference(system)
            assert report.a4_born1 == 0.0

    def test_relative_error_is_one_whenever_a4_nonzero(self):
        rng = np.random.default_rng(193)
        seen_nonzero = 0
        for _ in range(30):
            system = build_diamond(*(random_amplitude(rng) for _ in range(4)))
            report = classify_interference(system)
            if report.a4 != 0:
                seen_nonzero += 1
                assert report.relative_error_born1 == 1.0
        assert seen_nonzero > 0

    def test_relative_error_undefined_iff_a4_zero(self):
        # exact cancellation in floats: products 6 and -6
        report = classify_interference(build_diamond(2.0, 4.0, 3.0, -1.5))
        assert report.a4 == 0.0
        assert report.regime == REGIME_DARK
        assert report.relative_error_born1 is None

    def test_all_zero_diamond_is_dark(self):
        report = classify_interference(build_diamond(0.0, 0.0, 0.0, 0.0))
        assert report.regime == REGIME_DARK
        assert report.a4 == 0.0
        assert report.relative_error_born1 is None

    def test_cut_branches_give_positive_zero(self):
        # both branch products are -0.0 + 0j; the amplitude prints 0.0, not -0.0
        a4 = classify_interference(build_diamond(-1.0, -1.0, 0.0, 0.0)).a4
        assert math.copysign(1.0, a4.real) == 1.0
        assert math.copysign(1.0, a4.imag) == 1.0

    def test_path_contributions_match_walk_enumeration(self):
        t21, t31, t42, t43 = 0.5, 2.0, -1.5, 0.25j
        system = build_diamond(t21, t31, t42, t43)
        report = classify_interference(system)
        walks = enumerate_paths(extract_graph(system.operator), 1, 4)
        assert [p.vertices for p in report.path_contributions] == \
            [w.vertices for w in walks]
        for reported, walked in zip(report.path_contributions, walks):
            npt.assert_allclose(reported.weight, walked.weight, rtol=1e-15)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(TopologyError, match="dimension 3"):
            classify_interference(build_cascade([1.0, 1.0]))

    def test_rejects_wrong_edges(self):
        from bornsolve.operators import SparseOperator
        from bornsolve.solver import make_system

        op = SparseOperator(4, [(2, 1, 1.0), (4, 1, 1.0)])
        with pytest.raises(TopologyError, match=r"\(1, 4\)"):
            classify_interference(make_system(op))

    def test_rejection_names_every_edge(self):
        from bornsolve.operators import SparseOperator
        from bornsolve.solver import make_system

        op = SparseOperator(4, [(4, 1, 1.0), (2, 1, 1.0)])
        with pytest.raises(TopologyError) as excinfo:
            classify_interference(make_system(op))
        assert str(excinfo.value) == (
            "expected a 4-state system with edges within "
            "[(1, 2), (1, 3), (2, 4), (3, 4)], got dimension 4 "
            "with edges [(1, 2), (1, 4)]"
        )

    def test_pattern_check_reads_the_rows(self, monkeypatch):
        from bornsolve.operators import SparseOperator

        def refuse(self):
            raise AssertionError("classify enumerated the entries")

        monkeypatch.setattr(SparseOperator, "entries", refuse)
        report = classify_interference(build_diamond(1.0, 1.0, 1.0, 1.0))
        assert report.regime == REGIME_CONSTRUCTIVE
        assert report.a4_born1 == 0

    def test_degenerate_single_branch_is_generic(self):
        report = classify_interference(build_diamond(1.0, 0.0, 1.0, 0.0))
        assert report.regime == REGIME_GENERIC
        assert report.a4 == 1.0
        assert report.path_contributions[1].weight == 0.0
