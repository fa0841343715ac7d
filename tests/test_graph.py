"""The acyclicity certificate, and the edge-list graph and walk oracles."""

from __future__ import annotations

import gc
import sys
import threading
import weakref
from importlib import resources

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings

from bornsolve.errors import NotNilpotentError
from bornsolve import operators
from bornsolve.graph import _strong_components, analyze_acyclicity
from bornsolve.operators import SparseOperator, build_transfer_operator, power
from bornsolve.scenarios import WeightedPath
from bornsolve.solver import make_system
from bornsolve.specfile import parse_spec, spec_to_operator
from conftest import forget, planted_blocks, random_dag, random_operator
from oracles import (
    TooManyPathsError,
    TransitionGraph,
    UnboundedEnumerationError,
    enumerate_paths,
    extract_graph,
    longest_path_levels,
    mutually_reachable_classes,
    path_sum_entry,
    scaled,
)

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

    def test_rejects_non_integral_vertex_count(self):
        for bad in (2.5, 3.0, True, "3", None):
            with pytest.raises(ValueError, match="vertex count must be a positive integer"):
                TransitionGraph(bad, [(1, 2)])
        g = TransitionGraph(np.int32(3), [(1, 3)])
        assert type(g.num_vertices) is int and g.num_vertices == 3
        assert analyze_acyclicity(g.operator).depth == 1

    def test_rejects_out_of_range_edges(self):
        with pytest.raises(ValueError, match="outside"):
            TransitionGraph(2, [(1, 3)])

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError, match="duplicate"):
            TransitionGraph(2, [(1, 2), (1, 2, 0.5)])

    def test_rejects_non_integral_vertices(self):
        with pytest.raises(ValueError, match=r"edge \(1\.5, 2\) has a non-integral"):
            TransitionGraph(3, [(1.5, 2)])
        g = TransitionGraph(3, [(np.int64(1), np.int64(2), 0.5)])
        assert g.edge_set() == {(1, 2)}
        assert g.amplitude(1, 2) == 0.5

    def test_rejects_bool_vertices(self):
        with pytest.raises(ValueError, match=r"edge \(True, 2\) has a non-integral"):
            TransitionGraph(3, [(True, 2)])
        with pytest.raises(ValueError, match="non-integral"):
            TransitionGraph(3, [(1, False, 0.5)])

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
        g = extract_graph(SparseOperator(5))
        assert g.num_edges == 0
        assert g.num_vertices == 5

    def test_graph_carries_its_operator(self):
        # hand-built graphs are certified through .operator, so its
        # pattern must be the edge list: unannotated edges count as 1
        g = TransitionGraph(3, [(1, 2), (2, 3, 0.5j)])
        assert g.operator == SparseOperator(3, [(2, 1, 1.0), (3, 2, 0.5j)])
        rng = np.random.default_rng(31)
        for trial in range(40):
            dim = int(rng.integers(1, 12))
            op = random_dag(rng, dim) if trial % 2 else random_operator(rng, dim)
            g = extract_graph(op)
            assert g.operator == op
            assert g.num_edges == op.nnz


class TestAcyclicity:
    def test_diamond(self):
        report = analyze_acyclicity(diamond_graph().operator)
        assert report.is_acyclic
        assert report.depth == 2
        assert report.witness_cycle is None
        assert_valid_topological_order(diamond_graph(), report.topological_order)

    def test_diamond_order_is_by_level(self):
        assert analyze_acyclicity(diamond_graph().operator).topological_order == (1, 2, 3, 4)

    def test_order_is_level_then_label(self):
        rng = np.random.default_rng(71)
        for trial in range(80):
            dim = int(rng.integers(1, 9 if trial < 40 else 40))
            op = random_dag(rng, dim, density=float(rng.uniform(0.05, 0.6)))
            levels = longest_path_levels(extract_graph(op))
            report = analyze_acyclicity(op)
            assert report.topological_order == tuple(
                sorted(levels, key=lambda v: (levels[v], v))
            )
            assert report.depth == max(levels.values())

    def test_report_ignores_entry_order(self):
        rng = np.random.default_rng(73)
        seen_cyclic = 0
        for trial in range(60):
            dim = int(rng.integers(1, 10))
            op = random_dag(rng, dim) if trial % 2 else random_operator(rng, dim)
            entries = list(op.entries())
            want = analyze_acyclicity(op)
            seen_cyclic += not want.is_acyclic
            for _ in range(3):
                shuffled = [entries[k] for k in rng.permutation(len(entries))]
                got = analyze_acyclicity(SparseOperator(dim, shuffled))
                assert got == want
        assert seen_cyclic > 10

    @pytest.mark.parametrize("levels", [2, 3, 4, 5, 6, 7, 8])
    def test_cascade_depth_is_level_count_minus_one(self, levels):
        op = chain_operator([1.0] * (levels - 1))
        report = analyze_acyclicity(op)
        assert report.is_acyclic
        assert report.depth == levels - 1

    def test_double_diamond_depth_four(self):
        layout = ((1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (4, 6), (5, 7), (6, 7))
        g = TransitionGraph(7, layout)
        report = analyze_acyclicity(g.operator)
        assert report.is_acyclic
        assert report.depth == 4

    def test_edgeless_graph_depth_zero(self):
        report = analyze_acyclicity(TransitionGraph(4).operator)
        assert report.is_acyclic
        assert report.depth == 0
        assert sorted(report.topological_order) == [1, 2, 3, 4]

    def test_two_cycle_witness(self):
        g = TransitionGraph(2, [(1, 2), (2, 1)])
        report = analyze_acyclicity(g.operator)
        assert not report.is_acyclic
        assert report.topological_order is None
        assert report.depth is None
        assert sorted(report.witness_cycle) == [1, 2]
        assert_genuine_cycle(g, report.witness_cycle)

    def test_self_loop_witness(self):
        g = TransitionGraph(3, [(1, 2), (3, 3)])
        report = analyze_acyclicity(g.operator)
        assert not report.is_acyclic
        assert report.witness_cycle == (3,)

    def test_cycle_behind_dag_prefix(self):
        g = TransitionGraph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 3)])
        report = analyze_acyclicity(g.operator)
        assert not report.is_acyclic
        assert_genuine_cycle(g, report.witness_cycle)

    def test_random_cyclic_witnesses_are_genuine(self):
        rng = np.random.default_rng(43)
        seen_cyclic = 0
        for _ in range(60):
            dim = int(rng.integers(2, 10))
            op = random_operator(rng, dim, density=0.45)
            g = extract_graph(op)
            report = analyze_acyclicity(op)
            if not report.is_acyclic:
                seen_cyclic += 1
                assert_genuine_cycle(g, report.witness_cycle)
        assert seen_cyclic > 10

    def test_witness_is_a_simple_cycle_from_its_smallest_label(self):
        # a DAG plus one edge back to a source: cycles of many lengths,
        # with acyclic parts before and behind them
        rng = np.random.default_rng(45)
        seen_cyclic = 0
        for _ in range(80):
            dim = int(rng.integers(2, 30))
            dag = random_dag(rng, dim, density=0.3)
            order = analyze_acyclicity(dag).topological_order
            back = order[-int(rng.integers(1, dim))]
            op = SparseOperator(dim, [*dag.entries(), (order[0], back, 1.0)])
            report = analyze_acyclicity(op)
            if report.is_acyclic:
                continue
            seen_cyclic += 1
            cycle = report.witness_cycle
            assert_genuine_cycle(extract_graph(op), cycle)
            assert len(set(cycle)) == len(cycle)
            assert cycle[0] == min(cycle)
        assert seen_cyclic > 40

    def test_random_dag_topological_orders_valid(self):
        rng = np.random.default_rng(47)
        for _ in range(40):
            dim = int(rng.integers(1, 12))
            op = random_dag(rng, dim)
            g = extract_graph(op)
            report = analyze_acyclicity(op)
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
            op = random_dag(rng, dim, density=0.5)
            g = extract_graph(op)
            report = analyze_acyclicity(op)
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
            r1, r2 = analyze_acyclicity(g.operator), analyze_acyclicity(g2.operator)
            assert r1.is_acyclic and r2.is_acyclic
            assert r1.depth == r2.depth
            assert_valid_topological_order(g2, r2.topological_order)

    def test_deep_graph_does_not_hit_recursion_limit(self):
        n = 5000
        g = TransitionGraph(n, [(k, k + 1) for k in range(1, n)])
        report = analyze_acyclicity(g.operator)
        assert report.is_acyclic
        assert report.depth == n - 1


def assert_brute_force_levels(op, report):
    """report is op's certificate by tests/oracles.py's longest_path_levels."""
    levels = longest_path_levels(extract_graph(op))
    assert report.is_acyclic and report.witness_cycle is None
    assert report.topological_order == tuple(sorted(levels, key=lambda v: (levels[v], v)))
    assert report.depth == max(levels.values())


class TestRememberedCertificate:
    """analyze_acyclicity returns a remembered pattern's report again, and only for that pattern."""

    def test_hit_equals_miss(self):
        # a transfer operator keeps its potential's stored pattern: the same
        # report object comes back, equal to the fresh one and to the oracle's
        rng = np.random.default_rng(83)
        seen_cyclic = 0
        for trial in range(60):
            dim = int(rng.integers(1, 14))
            op = random_dag(rng, dim) if trial % 2 else random_operator(rng, dim, density=0.3)
            forget()
            miss = analyze_acyclicity(op)
            hit = analyze_acyclicity(build_transfer_operator(np.zeros(dim), op, 2j))
            assert hit is miss
            assert (hit.topological_order, hit.depth, hit.witness_cycle) == (
                miss.topological_order, miss.depth, miss.witness_cycle)
            if miss.is_acyclic:
                assert_brute_force_levels(op, hit)
            else:
                seen_cyclic += 1
                assert_genuine_cycle(extract_graph(op), hit.witness_cycle)
        assert seen_cyclic > 10

    def test_cyclic_operator_raises_the_same_witness_twice(self):
        op = SparseOperator(5, [(2, 1, 1.0), (3, 2, 0.5), (4, 3, 0.25), (2, 4, 2.0), (5, 4, 1.0)])
        forget()
        witnesses = []
        for current in (op, scaled(op, 3.0)):
            with pytest.raises(NotNilpotentError) as excinfo:
                make_system(current)
            witnesses.append(excinfo.value.witness_cycle)
        assert witnesses == [(2, 3, 4), (2, 3, 4)]

    def test_bundled_specs_keep_their_certificates(self):
        # the diamond and the cascade, certified in alternation, each keep
        # their first order and depth, whichever pattern was remembered last
        specs = resources.files("bornsolve").joinpath("specs")
        ops = [spec_to_operator(parse_spec(specs.joinpath(name).read_text(encoding="utf-8")))
               for name in ("diamond.spec", "cascade3.spec")]
        forget()
        want = [(s.topological_order, s.depth) for s in map(make_system, ops)]
        for op, certificate in zip(ops, want):
            report = analyze_acyclicity(op)
            assert_brute_force_levels(op, report)
            assert (report.topological_order, report.depth) == certificate
        for _ in range(100):
            assert [(s.topological_order, s.depth) for s in map(make_system, ops)] == want

    def test_a_different_pattern_misses(self):
        # same dim and nnz but one label moved; another dim; the same
        # entries declared in another order within row 3
        entries = [(3, 1, 1.0), (3, 2, 1.0), (5, 3, 1.0), (4, 2, 1.0)]
        base = SparseOperator(5, entries)
        variants = {
            "label": SparseOperator(5, [*entries[:2], (4, 3, 1.0), entries[3]]),
            "dim": SparseOperator(6, entries),
            "order": SparseOperator(5, [entries[1], entries[0], *entries[2:]]),
        }
        assert variants["order"] == base
        assert variants["order"]._col.tobytes() != base._col.tobytes()
        for name, op in variants.items():
            remembered = analyze_acyclicity(base)
            got = analyze_acyclicity(op)
            assert got is not remembered, name
            assert_brute_force_levels(op, got)
        assert analyze_acyclicity(variants["label"]).topological_order == (1, 2, 5, 3, 4)
        assert analyze_acyclicity(variants["dim"]).topological_order == (1, 2, 6, 3, 4, 5)

    def test_system_holds_the_callers_operator(self):
        h0 = np.array([0.0, 1.0, 1.5, 3.0])
        potential = SparseOperator(4, [(2, 1, 0.5), (3, 1, 0.25), (4, 2, -1.0), (4, 3, 0.75)])
        a = build_transfer_operator(h0, potential, 0.4 + 0.1j)
        b = build_transfer_operator(h0, potential, 2.2 + 0.1j)
        first = make_system(a)
        second = make_system(b)
        assert analyze_acyclicity(b) is analyze_acyclicity(a)
        assert second.operator is b and first.operator is a
        assert second.topological_order == first.topological_order == (1, 2, 3, 4)
        assert second.depth == 2
        assert list(second.operator.entries()) == list(b.entries()) != list(a.entries())

    def test_only_small_patterns_are_kept(self, monkeypatch):
        # a pattern whose labels and report pass the memory's bound is
        # certified, and nothing of it is kept; nor is the operator's array
        # of a small one, whose report is kept until two others evict it
        monkeypatch.setattr(operators, "_REMEMBERED_BYTES", 1000)
        large = random_dag(np.random.default_rng(89), 65)
        forget()
        kept = weakref.ref(large._row), weakref.ref(analyze_acyclicity(large))
        assert operators._memory == ()
        del large
        gc.collect()
        assert kept[0]() is None and kept[1]() is None
        small = SparseOperator(3, [(2, 1, 1.0), (3, 2, 1.0)])
        kept = weakref.ref(small._row), weakref.ref(analyze_acyclicity(small))
        del small
        gc.collect()
        assert kept[0]() is None and kept[1]() is not None
        analyze_acyclicity(SparseOperator(3, [(3, 1, 1.0)]))
        analyze_acyclicity(SparseOperator(3, [(3, 2, 1.0)]))
        gc.collect()
        assert kept[1]() is None

    def test_a_large_operator_is_not_remembered(self, monkeypatch):
        # one that passes the bound neither hits nor replaces the small entry
        monkeypatch.setattr(operators, "_REMEMBERED_BYTES", 1000)
        small = SparseOperator(3, [(2, 1, 1.0), (3, 2, 1.0)])
        large = random_dag(np.random.default_rng(97), 65)
        forget()
        remembered = analyze_acyclicity(small)
        assert analyze_acyclicity(large) is not analyze_acyclicity(large)
        assert analyze_acyclicity(small) is remembered

    def test_threads_get_their_own_certificate(self):
        a = SparseOperator(4, [(2, 1, 1.0), (3, 1, 1.0), (4, 2, 1.0), (4, 3, 1.0)])
        b = SparseOperator(4, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
        want = {id(a): analyze_acyclicity(a), id(b): analyze_acyclicity(b)}
        assert want[id(a)] != want[id(b)]
        wrong = []
        start = threading.Barrier(4)

        def certify(first, second):
            start.wait()
            for _ in range(2000):
                for op in (first, second):
                    if analyze_acyclicity(op) != want[id(op)]:
                        wrong.append(op)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=certify, args=(a, b) if k % 2 else (b, a))
                       for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert not wrong


def assert_sources_first(graph, components):
    """Every edge stays inside its component or runs to a later one."""
    position = {v: k for k, states in enumerate(components) for v in states}
    for i, j in graph.edges():
        assert position[i] <= position[j]


class TestStrongComponents:
    def test_blocks_behind_a_source(self):
        g = TransitionGraph(5, [(1, 2), (2, 1), (2, 3), (3, 4), (4, 3), (5, 1)])
        assert _strong_components(g.operator) == [[5], [1, 2], [3, 4]]

    def test_self_loop_is_a_single_state(self):
        g = TransitionGraph(3, [(1, 2), (2, 2), (2, 3)])
        assert _strong_components(g.operator) == [[1], [2], [3]]

    def test_partition_and_order_match_brute_force(self):
        # random patterns, declared in shuffled order
        rng = np.random.default_rng(61)
        seen_blocks = 0
        for _ in range(200):
            dim = int(rng.integers(1, 20))
            entries = list(random_operator(rng, dim, float(rng.uniform(0.02, 0.4))).entries())
            op = SparseOperator(dim, [entries[k] for k in rng.permutation(len(entries))])
            g = extract_graph(op)
            components = _strong_components(op)
            assert {frozenset(states) for states in components} == mutually_reachable_classes(g)
            assert len(components) == len(mutually_reachable_classes(g))
            assert all(states == sorted(states) for states in components)
            assert_sources_first(g, components)
            seen_blocks += any(len(states) > 1 for states in components)
        assert seen_blocks > 80

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(planted_blocks())
    def test_planted_blocks_are_found_sources_first(self, case):
        # blocks downstream of blocks, self-loops, and single states between
        dim, entries, blocks = case
        g = TransitionGraph(dim, [(i, j, amp) for j, i, amp in entries])
        components = _strong_components(g.operator)
        assert {frozenset(states) for states in components} == mutually_reachable_classes(g)
        assert sorted(components) == sorted(blocks)
        assert_sources_first(g, components)

    def test_dag_components_are_a_topological_order(self):
        rng = np.random.default_rng(67)
        for _ in range(30):
            dim = int(rng.integers(1, 15))
            g = extract_graph(random_dag(rng, dim))
            components = _strong_components(g.operator)
            assert all(len(states) == 1 for states in components)
            assert_valid_topological_order(g, [v for (v,) in components])

    def test_long_cycle_does_not_hit_recursion_limit(self):
        n = 5000
        g = TransitionGraph(n + 1, [(k, k + 1) for k in range(1, n)] + [(n, 1), (n, n + 1)])
        assert _strong_components(g.operator) == [list(range(1, n + 1)), [n + 1]]


class TestEnumeration:
    def test_diamond_paths(self):
        g = diamond_graph(0.5, 2.0, -1.5, 0.25j)
        paths = enumerate_paths(g, 1, 4)
        assert [p.vertices for p in paths] == [(1, 2, 4), (1, 3, 4)]
        npt.assert_allclose(paths[0].weight, 0.5 * -1.5, rtol=0)
        npt.assert_allclose(paths[1].weight, 2.0 * 0.25j, rtol=0)
        assert all(len(p.vertices) - 1 == 2 for p in paths)

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
                pk = power(op, k).to_dense()
                for target in range(1, dim + 1):
                    for source in range(1, dim + 1):
                        expected = path_sum_entry(g, source, target, k)
                        got = pk[target - 1, source - 1]
                        scale = max(abs(expected), 1.0)
                        assert abs(got - expected) <= 1e-12 * scale

    def test_matches_power_entries_on_cycles(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            dim = int(rng.integers(2, 6))
            op = random_operator(rng, dim, density=0.5)
            g = extract_graph(op)
            for k in range(4):
                pk = power(op, k).to_dense()
                for target in range(1, dim + 1):
                    for source in range(1, dim + 1):
                        expected = path_sum_entry(g, source, target, k)
                        got = pk[target - 1, source - 1]
                        scale = max(abs(expected), 1.0)
                        assert abs(got - expected) <= 1e-12 * scale

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            path_sum_entry(diamond_graph(), 1, 4, -1)
