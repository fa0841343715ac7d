"""Transition graphs: extraction, acyclicity, depth, weighted walks."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from bornsolve.errors import TooManyPathsError, UnboundedEnumerationError
from bornsolve.graph import (
    TransitionGraph,
    WeightedPath,
    analyze_acyclicity,
    enumerate_paths,
    extract_graph,
    path_sum_entry,
)
from bornsolve.operators import SparseOperator, power
from conftest import random_dag, random_operator

RTOL = 1e-12


def diamond_graph(t21=1.0, t31=1.0, t42=1.0, t43=1.0) -> TransitionGraph:
    op = SparseOperator(4, [(2, 1, t21), (3, 1, t31), (4, 2, t42), (4, 3, t43)])
    return extract_graph(op)


def chain_operator(amplitudes) -> SparseOperator:
    n = len(amplitudes) + 1
    return SparseOperator(n, [(k + 1, k + 2, a) for k, a in enumerate(amplitudes)])


def assert_valid_topological_order(graph, order):
    assert sorted(order) == list(range(1, graph.num_vertices + 1))
    position = {v: k for k, v in enumerate(order)}
    for i, j in graph.edges():
        assert position[i] < position[j]


def assert_genuine_cycle(graph, cycle):
    assert len(cycle) >= 1
    for a, b in zip(cycle, cycle[1:]):
        assert graph.has_edge(a, b)
    assert graph.has_edge(cycle[-1], cycle[0])


class TestConstruction:
    def test_rejects_bad_vertex_count(self):
        with pytest.raises(ValueError, match="vertex"):
            TransitionGraph(0)

    def test_rejects_out_of_range_edges(self):
        with pytest.raises(ValueError, match="outside"):
            TransitionGraph(2, [(1, 3)])

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError, match="duplicate"):
            TransitionGraph(2, [(1, 2), (1, 2, 0.5)])

    def test_successors_sorted(self):
        g = TransitionGraph(4, [(1, 4), (1, 2), (1, 3)])
        assert g.successors(1) == (2, 3, 4)
        assert g.successors(2) == ()

    def test_amplitude_annotation_optional(self):
        g = TransitionGraph(2, [(1, 2)])
        assert g.amplitude(1, 2) is None
        assert g.amplitude(2, 1) is None


class TestExtraction:
    def test_diamond_edges(self):
        # column index is the source state, row the target
        g = diamond_graph(0.5j, 2.0, -1.0, 3.0)
        assert g.edge_set() == {(1, 2), (1, 3), (2, 4), (3, 4)}
        assert g.amplitude(1, 2) == 0.5j
        assert g.amplitude(1, 3) == 2.0
        assert g.amplitude(2, 4) == -1.0
        assert g.amplitude(3, 4) == 3.0

    def test_zero_operator_has_no_edges(self):
        g = extract_graph(SparseOperator.zero(5))
        assert g.num_edges == 0
        assert g.num_vertices == 5

    def test_matches_graph_built_from_entries(self):
        # extract_graph skips the constructor's checks; the result must
        # still be the graph the checked constructor builds
        rng = np.random.default_rng(31)
        for trial in range(40):
            dim = int(rng.integers(1, 12))
            op = random_dag(rng, dim) if trial % 2 else random_operator(rng, dim)
            got = extract_graph(op)
            want = TransitionGraph(dim, [(c, r, a) for r, c, a in op.entries()])
            assert got == want
            assert got.num_edges == want.num_edges == op.nnz
            for v in range(1, dim + 1):
                assert got.successors(v) == want.successors(v)
            assert analyze_acyclicity(got) == analyze_acyclicity(want)


class TestAcyclicity:
    def test_diamond(self):
        report = analyze_acyclicity(diamond_graph())
        assert report.is_acyclic
        assert report.depth == 2
        assert report.witness_cycle is None
        assert_valid_topological_order(diamond_graph(), report.topological_order)

    @pytest.mark.parametrize("levels", [2, 3, 4, 5, 6, 7, 8])
    def test_cascade_depth_is_level_count_minus_one(self, levels):
        op = chain_operator([1.0] * (levels - 1))
        report = analyze_acyclicity(extract_graph(op))
        assert report.is_acyclic
        assert report.depth == levels - 1

    def test_double_diamond_depth_four(self):
        layout = ((1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (4, 6), (5, 7), (6, 7))
        g = TransitionGraph(7, layout)
        report = analyze_acyclicity(g)
        assert report.is_acyclic
        assert report.depth == 4

    def test_edgeless_graph_depth_zero(self):
        report = analyze_acyclicity(TransitionGraph(4))
        assert report.is_acyclic
        assert report.depth == 0
        assert sorted(report.topological_order) == [1, 2, 3, 4]

    def test_two_cycle_witness(self):
        g = TransitionGraph(2, [(1, 2), (2, 1)])
        report = analyze_acyclicity(g)
        assert not report.is_acyclic
        assert report.topological_order is None
        assert report.depth is None
        assert sorted(report.witness_cycle) == [1, 2]
        assert_genuine_cycle(g, report.witness_cycle)

    def test_self_loop_witness(self):
        g = TransitionGraph(3, [(1, 2), (3, 3)])
        report = analyze_acyclicity(g)
        assert not report.is_acyclic
        assert report.witness_cycle == (3,)

    def test_cycle_behind_dag_prefix(self):
        g = TransitionGraph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 3)])
        report = analyze_acyclicity(g)
        assert not report.is_acyclic
        assert_genuine_cycle(g, report.witness_cycle)

    def test_random_cyclic_witnesses_are_genuine(self):
        rng = np.random.default_rng(43)
        seen_cyclic = 0
        for _ in range(60):
            dim = int(rng.integers(2, 10))
            g = extract_graph(random_operator(rng, dim, density=0.45))
            report = analyze_acyclicity(g)
            if not report.is_acyclic:
                seen_cyclic += 1
                assert_genuine_cycle(g, report.witness_cycle)
        assert seen_cyclic > 10

    def test_random_dag_topological_orders_valid(self):
        rng = np.random.default_rng(47)
        for _ in range(40):
            dim = int(rng.integers(1, 12))
            g = extract_graph(random_dag(rng, dim))
            report = analyze_acyclicity(g)
            assert report.is_acyclic
            assert_valid_topological_order(g, report.topological_order)

    def test_depth_matches_brute_force(self):
        def longest_from(g, v):
            best = 0
            for w in g.successors(v):
                best = max(best, 1 + longest_from(g, w))
            return best

        rng = np.random.default_rng(53)
        for _ in range(40):
            dim = int(rng.integers(1, 8))
            g = extract_graph(random_dag(rng, dim, density=0.5))
            report = analyze_acyclicity(g)
            brute = max(longest_from(g, v) for v in range(1, dim + 1))
            assert report.depth == brute

    def test_relabeling_preserves_structure(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            dim = int(rng.integers(2, 10))
            g = extract_graph(random_dag(rng, dim, density=0.4))
            perm = rng.permutation(dim)
            relabel = {v: int(perm[v - 1]) + 1 for v in range(1, dim + 1)}
            g2 = TransitionGraph(
                dim, [(relabel[i], relabel[j]) for i, j in g.edges()]
            )
            r1, r2 = analyze_acyclicity(g), analyze_acyclicity(g2)
            assert r1.is_acyclic and r2.is_acyclic
            assert r1.depth == r2.depth
            assert_valid_topological_order(g2, r2.topological_order)

    def test_deep_graph_does_not_hit_recursion_limit(self):
        n = 5000
        g = TransitionGraph(n, [(k, k + 1) for k in range(1, n)])
        report = analyze_acyclicity(g)
        assert report.is_acyclic
        assert report.depth == n - 1


class TestEnumeration:
    def test_diamond_paths(self):
        g = diamond_graph(0.5, 2.0, -1.5, 0.25j)
        paths = enumerate_paths(g, 1, 4)
        assert [p.vertices for p in paths] == [(1, 2, 4), (1, 3, 4)]
        npt.assert_allclose(paths[0].weight, 0.5 * -1.5, rtol=0)
        npt.assert_allclose(paths[1].weight, 2.0 * 0.25j, rtol=0)
        assert all(p.length == 2 for p in paths)

    def test_trivial_walk_when_start_equals_end(self):
        g = diamond_graph()
        paths = enumerate_paths(g, 2, 2)
        assert paths == [WeightedPath((2,), 1.0 + 0j)]

    def test_no_paths(self):
        assert enumerate_paths(diamond_graph(), 4, 1) == []

    def test_max_len_filters(self):
        g = diamond_graph()
        assert enumerate_paths(g, 1, 4, max_len=1) == []
        assert len(enumerate_paths(g, 1, 4, max_len=2)) == 2
        assert enumerate_paths(g, 1, 4, max_len=-1) == []

    def test_cyclic_needs_explicit_bound(self):
        g = TransitionGraph(2, [(1, 2, 0.5), (2, 1, 0.25)])
        with pytest.raises(UnboundedEnumerationError):
            enumerate_paths(g, 1, 1)

    def test_cyclic_walks_with_bound(self):
        a, b = 0.5, 0.25
        g = TransitionGraph(2, [(1, 2, a), (2, 1, b)])
        walks = enumerate_paths(g, 1, 1, max_len=4)
        assert [w.vertices for w in walks] == [
            (1,),
            (1, 2, 1),
            (1, 2, 1, 2, 1),
        ]
        npt.assert_allclose([w.weight for w in walks],
                            [1.0, a * b, (a * b) ** 2], rtol=1e-15)

    def test_budget_enforced_and_overridable(self):
        # complete order on 12 vertices: 2^10 = 1024 routes end to end
        n = 12
        g = TransitionGraph(
            n, [(i, j, 1.0) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        )
        with pytest.raises(TooManyPathsError, match="raise max_paths"):
            enumerate_paths(g, 1, n, max_paths=100)
        paths = enumerate_paths(g, 1, n, max_paths=2000)
        assert len(paths) == 2 ** (n - 2)

    def test_lexicographic_ordering(self):
        n = 6
        g = TransitionGraph(
            n, [(i, j, 1.0) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        )
        routes = [p.vertices for p in enumerate_paths(g, 1, n)]
        assert routes == sorted(routes)

    def test_unannotated_edge_rejected(self):
        g = TransitionGraph(2, [(1, 2)])
        with pytest.raises(ValueError, match="annotation"):
            enumerate_paths(g, 1, 2)

    def test_bad_endpoints_rejected(self):
        with pytest.raises(ValueError, match="vertex"):
            enumerate_paths(diamond_graph(), 0, 4)
        with pytest.raises(ValueError, match="vertex"):
            enumerate_paths(diamond_graph(), 1, 5)


class TestPathSum:
    def test_identity_at_length_zero(self):
        g = diamond_graph()
        assert path_sum_entry(g, 2, 2, 0) == 1.0
        assert path_sum_entry(g, 1, 2, 0) == 0.0

    def test_diamond_interference_entry(self):
        t21, t31, t42, t43 = 0.5, 2.0, -1.5, 0.25j
        g = diamond_graph(t21, t31, t42, t43)
        npt.assert_allclose(path_sum_entry(g, 1, 4, 2),
                            t42 * t21 + t43 * t31, rtol=1e-15)

    def test_matches_power_entries_on_dags(self):
        rng = np.random.default_rng(61)
        for _ in range(15):
            dim = int(rng.integers(2, 9))
            op = random_dag(rng, dim, density=0.45)
            g = extract_graph(op)
            for k in range(4):
                pk = power(op, k)
                for target in range(1, dim + 1):
                    for source in range(1, dim + 1):
                        expected = path_sum_entry(g, source, target, k)
                        got = pk.entry(target, source)
                        scale = max(abs(expected), 1.0)
                        assert abs(got - expected) <= 1e-12 * scale

    def test_matches_power_entries_on_cycles(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            dim = int(rng.integers(2, 6))
            op = random_operator(rng, dim, density=0.5)
            g = extract_graph(op)
            for k in range(4):
                pk = power(op, k)
                for target in range(1, dim + 1):
                    for source in range(1, dim + 1):
                        expected = path_sum_entry(g, source, target, k)
                        got = pk.entry(target, source)
                        scale = max(abs(expected), 1.0)
                        assert abs(got - expected) <= 1e-12 * scale

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            path_sum_entry(diamond_graph(), 1, 4, -1)
