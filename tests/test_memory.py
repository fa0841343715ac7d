"""The one pattern memory: what is derived from a stored pattern alone, kept for the last two."""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornsolve import graph, operators, solver
from bornsolve.errors import SingularError
from bornsolve.graph import analyze_acyclicity
from bornsolve.operators import SparseOperator, power
from bornsolve.solver import _block_solve, _layout, det_check, det_i_minus_t, make_system
from bornsolve.truncation import remainder_bound
from conftest import DYADIC, assert_same_bits, forget, planted_blocks, random_dag, random_operator

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)

NONZERO_DYADIC = [value for value in DYADIC if value]


def revalued(op: SparseOperator, values) -> SparseOperator:
    """An operator with op's stored pattern, in op's storage order, and the given values."""
    return SparseOperator(op.dim, list(zip(op._row.tolist(), op._col.tolist(), values)))


def fact(op: SparseOperator, derive):
    """What the memory keeps of derive for op's pattern, or None."""
    for key, facts in operators._memory:
        if key == (op.dim, op._row.tobytes(), op._col.tobytes()):
            return facts.get(derive, (None, 0))[0]
    return None


def solve_outcome(op: SparseOperator, phi: np.ndarray):
    """_block_solve(op, phi) as an array, or the message of its SingularError."""
    try:
        return _block_solve(op, phi.copy())
    except SingularError as fault:
        return str(fault)


def counting(monkeypatch, module, name: str) -> list:
    """Count the calls of module.name from now on; the list grows by one a call."""
    calls, original = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(1) or original(*args))
    return calls


def test_alternating_patterns_both_hit(monkeypatch):
    # a scan alternates a certified T and a cyclic C, each on its fixed
    # pattern with new values a request, as resolvent_truncation does:
    # Kahn, Tarjan and the product plans run on the first request only,
    # and every request gives what a fresh memory gives
    rng = np.random.default_rng(401)
    t, c = random_dag(rng, 30, 0.2), random_operator(rng, 30, 0.08)
    assert not analyze_acyclicity(c).is_acyclic
    phi = rng.standard_normal(30) + 0j
    calls = [counting(monkeypatch, graph, "_certify"),
             counting(monkeypatch, solver, "_strong_components"),
             counting(monkeypatch, operators, "_plan")]
    forget()

    def request(t_now, c_now):
        return repr((make_system(t_now).topological_order, det_check(make_system(t_now)),
                     remainder_bound(c_now, phi, 3), det_i_minus_t(c_now)))

    for k in range(5):
        t_now = revalued(t, 0.5 + 0.5 * rng.random(t.nnz))
        c_now = revalued(c, 0.2 * rng.standard_normal(c.nnz) + 0j)
        before = list(map(len, calls))
        got = request(t_now, c_now)
        # one certificate, two layouts (T's for det_check, C's) and C^4's three plans
        assert [len(made) - was for made, was in zip(calls, before)] == ([1, 2, 3] if k == 0
                                                                         else [0, 0, 0])
        assert len(operators._memory) == 2
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(operators, "_memory", ())
            assert got == request(t_now, c_now)


def test_a_third_pattern_evicts_the_least_recent():
    # A, then B, then A again: A is the most recent, so C evicts B, and
    # nothing derived from B stays alive
    rng = np.random.default_rng(403)
    a, b, c = (random_operator(rng, dim, 0.3) for dim in (6, 7, 8))
    forget()
    kept = {}
    for name, op in (("a", a), ("b", b)):
        det_i_minus_t(op)
        power(op, 3)
        block = next(step for step in fact(op, _layout) if isinstance(step, tuple))
        kept[name] = [weakref.ref(analyze_acyclicity(op)), weakref.ref(block[0]),
                      weakref.ref(fact(op, power)[0][2][0][3])]
        del block
    remembered = analyze_acyclicity(a)
    analyze_acyclicity(c)
    gc.collect()
    assert [ref() is None for ref in kept["b"]] == [True, True, True]
    assert [ref() is None for ref in kept["a"]] == [False, False, False]
    assert analyze_acyclicity(a) is remembered
    assert [key[0] for key, _ in operators._memory] == [6, 8]


@PROPERTY_SETTINGS
@given(planted_blocks(), st.data())
def test_a_remembered_layout_gives_the_fresh_bits(case, data):
    # dyadic values on a planted block pattern: the layout remembered from
    # one value set gives another value set the det and block-solve bits
    # a fresh memory gives it; neither keeps the other's values
    dim, entries, _ = case
    values = [data.draw(st.lists(st.sampled_from(NONZERO_DYADIC), min_size=len(entries),
                                 max_size=len(entries))) for _ in range(2)]
    first, second = (SparseOperator(dim, [(r, c, v) for (r, c, _), v in zip(entries, vs)])
                     for vs in values)
    phi = np.array(data.draw(st.lists(st.sampled_from(DYADIC), min_size=dim, max_size=dim)),
                   dtype=complex)
    forget()
    want = repr(det_i_minus_t(second)), solve_outcome(second, phi)
    forget()
    det_i_minus_t(first)
    solve_outcome(first, phi)
    layout = fact(first, _layout)
    got = repr(det_i_minus_t(second)), solve_outcome(second, phi)
    assert fact(second, _layout) is layout
    assert got[0] == want[0]
    if isinstance(want[1], str):
        assert got[1] == want[1]
    else:
        assert_same_bits(got[1], want[1])


def test_patterns_of_equal_rows_are_told_apart():
    # same dim, nnz and stored rows, columns moved on by one: each keeps
    # its own certificate, layout and plans, whatever was remembered last
    rng = np.random.default_rng(405)
    for trial in range(30):
        dim = int(rng.integers(3, 9))
        op = random_operator(rng, dim, 0.35) if trial % 2 else random_dag(rng, dim, 0.4)
        sibling = SparseOperator(dim, [(r, c % dim + 1, a) for r, c, a in
                                       zip(op._row.tolist(), op._col.tolist(), op._amp.tolist())])
        phi = rng.standard_normal(dim) + 0j
        wants = []
        for current in (op, sibling):
            forget()
            wants.append(repr((analyze_acyclicity(current), det_i_minus_t(current),
                               solve_outcome(current, phi), list(power(current, 3).entries()))))
        forget()
        for _ in range(2):
            for current, want in zip((op, sibling), wants):
                got = repr((analyze_acyclicity(current), det_i_minus_t(current),
                            solve_outcome(current, phi), list(power(current, 3).entries())))
                assert got == want


def test_the_memory_stays_within_its_bound(monkeypatch):
    # at most two patterns and at most the bound in all; an operator whose
    # labels alone pass the bound leaves the memory as it was
    rng = np.random.default_rng(407)
    ops = [random_operator(rng, int(rng.integers(2, 30)), 0.3) for _ in range(12)]
    for bound in (4 << 20, 20_000, 3_000):
        monkeypatch.setattr(operators, "_REMEMBERED_BYTES", bound)
        forget()
        for op in ops:
            before = operators._memory
            det_i_minus_t(op)
            power(op, 3)
            analyze_acyclicity(op)
            assert len(operators._memory) <= 2
            assert sum(map(operators._entry_bytes, operators._memory)) <= bound
            if 2 * op._row.nbytes > bound:
                assert operators._memory is before
    assert any(2 * op._row.nbytes > 3_000 for op in ops)


def test_threads_see_whole_entries():
    # four threads raise, certify and solve three patterns of equal dim in
    # turn, so entries are evicted and replaced all along; each call gives
    # the single-threaded answer
    rng = np.random.default_rng(409)
    ops = [random_operator(rng, 8, 0.3), random_dag(rng, 8, 0.4), random_operator(rng, 8, 0.3)]
    phi = rng.standard_normal(8) + 0j

    def answer(op):
        return repr((analyze_acyclicity(op), det_i_minus_t(op), solve_outcome(op, phi),
                     list(power(op, 3).entries())))

    forget()
    want = {id(op): answer(op) for op in ops}
    wrong = []
    start = threading.Barrier(4, timeout=60)

    def run(order):
        start.wait()
        for _ in range(60):
            for op in order:
                if answer(op) != want[id(op)]:
                    wrong.append(op)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(ops[k % 3:] + ops[:k % 3],))
                   for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong
