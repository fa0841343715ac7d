"""Hostile values at every value argument of the public surface.

Each exported callable that takes numbers, number sequences, dimensions
or labels is called with some of those arguments drawn from a pool of
hostile values: None, bools, strings, ints beyond the float range, NaN
and infinities, object, 2-d and empty arrays, numpy scalars, and valid
sequences with one such component put in.  The other arguments keep a
valid value.  With warnings raised as errors, each call must return or
raise TypeError, ValueError or a BornsolveError: never OverflowError,
MemoryError, AttributeError or a numpy warning.

Arguments of the package's own types (operators, systems, specs) are out
of scope, and so are order arguments, norm kinds, paths, the fields of
record and exception types and the benchmark drivers' arguments:
ELSEWHERE names each callable left out and why.  REFUSALS and
BAD_RECORDS pin the refusals of values that once got through.
"""

from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bornsolve
from bornsolve import (
    BornsolveError,
    SparseOperator,
    as_state_vector,
    basis_state,
    born_approximation,
    build_cascade,
    build_diamond,
    build_double_diamond,
    build_transfer_operator,
    direct_solve_oracle,
    exact_remainder,
    free_resolvent_diagonal,
    full_resolvent,
    make_system,
    matvec,
    parse_spec,
    remainder_bound,
    solve_exact,
    vector_norm,
)
from bornsolve.operators import _LOOP_RECORDS

SCALARS = [None, True, False, np.bool_(True), "1", 10**400, -10**400, math.nan, math.inf,
           -math.inf, np.float64(1.5), np.int64(2), np.complex128(0.5j), np.float32(0.25),
           np.uint8(3), np.float64(math.nan), np.complex128(complex(math.inf, 0.0))]
ARRAYS = [np.array([1, 10**400], dtype=object), np.array([1.0, None], dtype=object),
          np.array([1.0, "a"], dtype=object), np.zeros((2, 2)), np.zeros((4, 1)),
          np.zeros(0), np.array(["1", "2"]), np.array([True, False])]

DIAMOND = [(2, 1, 0.5), (3, 1, 0.25j), (4, 2, 1.0), (4, 3, -0.5)]
LONG_DIM = 10
LONG = [(row, col, complex(row, -col)) for row in range(1, LONG_DIM + 1)
        for col in range(1, LONG_DIM + 1)][:_LOOP_RECORDS + 12]
OP = SparseOperator(4, DIAMOND)
SYSTEM = make_system(OP)
CYCLE = SparseOperator(2, [(1, 2, 0.5), (2, 1, 0.5)])
PHI = [1.0, 0.0, 0.5j, 0.0]
H0 = [0.0, 1.0, -1.0, 0.5]
SPEC = json.dumps({"dimension": 2, "transfer_entries": [{"from": 1, "to": 2, "re": 1, "im": 0}]})

# name: (call, valid value of each value argument, by keyword); a name
# after ", " tells two tables of one callable apart
CALLS = {
    "SparseOperator": (SparseOperator, {"dim": 4, "entries": DIAMOND}),
    "SparseOperator, long": (SparseOperator, {"dim": LONG_DIM, "entries": LONG}),
    "SparseOperator.identity": (SparseOperator.identity, {"dim": 4}),
    "as_state_vector": (as_state_vector, {"values": PHI, "dim": 4}),
    "basis_state": (basis_state, {"dim": 4, "label": 2}),
    "born_approximation": (lambda phi: born_approximation(OP, phi, 2), {"phi": PHI}),
    "build_cascade": (build_cascade, {"amplitudes": [0.5, 1.0, 0.25j]}),
    "build_diamond": (build_diamond, {"t21": 0.5, "t31": 0.25j, "t42": 1.0, "t43": -0.5}),
    "build_double_diamond": (build_double_diamond, {"amplitudes": [0.5, 1j] * 4}),
    "build_transfer_operator": (lambda h0, energy: build_transfer_operator(h0, OP, energy),
                                {"h0": H0, "energy": 2.0 + 0.5j}),
    "direct_solve_oracle": (lambda phi: direct_solve_oracle(CYCLE, phi), {"phi": [1.0, 0.5]}),
    "exact_remainder": (lambda phi: exact_remainder(CYCLE, phi, 1), {"phi": [1.0, 0.5]}),
    "free_resolvent_diagonal": (free_resolvent_diagonal,
                                {"h0_diagonal": H0, "energy": 2.0 + 0.5j}),
    "full_resolvent": (lambda g0: full_resolvent(SYSTEM, g0), {"g0": [0.5, 1j, -2.0, 1.0]}),
    "matvec": (lambda vec: matvec(OP, vec), {"vec": PHI}),
    "parse_spec": (parse_spec, {"text": SPEC}),
    "remainder_bound": (lambda phi: remainder_bound(CYCLE, phi, 1), {"phi": [1.0, 0.5]}),
    "solve_exact": (lambda phi: solve_exact(SYSTEM, phi), {"phi": PHI}),
    "vector_norm": (vector_norm, {"vec": PHI}),
}

RECORDS = "a record type: its fields come from the library, which checked them"
RAISED = "an exception type: the library raises it with values it computed"
OWN = "takes only the package's own objects"
BENCH = "a benchmark driver: tests/test_bench.py pins its checks; its draw enters the constructor"
ELSEWHERE = {
    "AcyclicSystem": RECORDS, "AcyclicityReport": RECORDS, "BenchResult": RECORDS,
    "BornExpansion": RECORDS, "InterferenceReport": RECORDS, "SystemSpec": RECORDS,
    "TruncationReport": RECORDS, "WeightedPath": RECORDS,
    "BornsolveError": RAISED, "DimensionError": RAISED, "NotNilpotentError": RAISED,
    "ResonanceError": RAISED, "SingularError": RAISED, "SpecFormatError": RAISED,
    "TopologyError": RAISED,
    "analyze_acyclicity": OWN, "classify_interference": OWN, "det_check": OWN,
    "det_i_minus_t": OWN, "finite_neumann_inverse": OWN, "make_system": OWN, "matmul": OWN,
    "serialize_spec": OWN, "spec_to_operator": OWN, "t_matrix": OWN,
    "power": "its order already raises TypeError or ValueError",
    "operator_norm": "its norm kind is a name, checked against NORM_KINDS",
    "load_spec": "its argument is a path; parse_spec reads the text",
    "random_dag_operator": BENCH, "run_benchmark": BENCH,
}


def test_every_callable_is_in_one_table():
    callables = {name for name in bornsolve.__all__ if callable(getattr(bornsolve, name))}
    called = {name.split(",")[0].split(".")[0] for name in CALLS}
    assert called.isdisjoint(ELSEWHERE)
    assert called | set(ELSEWHERE) == callables


@st.composite
def spliced(draw, valid: list):
    """valid with one component, or one field of one record, made hostile; as a list or an array."""
    out = list(valid)
    k = draw(st.integers(0, len(out) - 1))
    value = draw(st.sampled_from(SCALARS))
    if isinstance(out[k], tuple):
        field = draw(st.integers(0, 2))
        out[k] = out[k][:field] + (value,) + out[k][field + 1:]
        return out
    out[k] = value
    return out if draw(st.booleans()) else np.array(out)


def hostile(valid) -> st.SearchStrategy:
    pool = st.sampled_from(SCALARS + ARRAYS)
    return st.one_of(pool, spliced(valid)) if isinstance(valid, list) else pool


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_hostile_values_are_refused_or_handled(name, data):
    call, valid = CALLS[name]
    chosen = data.draw(st.sets(st.sampled_from(sorted(valid)), min_size=1), label="hostile")
    args = {key: data.draw(hostile(value), label=key) if key in chosen else value
            for key, value in valid.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(**args)
        except (TypeError, ValueError, BornsolveError):
            pass


def refusal(call):
    """The type and message of the error call raises; it must raise one."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call()
        except (TypeError, ValueError, BornsolveError) as fault:
            return type(fault), str(fault)
    raise AssertionError("no refusal")


# each of these once returned, or raised a bare OverflowError or MemoryError
REFUSALS = {
    "string level": (lambda: free_resolvent_diagonal([-1, "1.5"], 3.0), TypeError),
    "bool levels": (lambda: free_resolvent_diagonal([True, False], 3.0), TypeError),
    "object levels": (lambda: free_resolvent_diagonal(np.array([1.0], dtype=object), 3.0),
                      TypeError),
    "string energy": (lambda: free_resolvent_diagonal([0.0], "3"), TypeError),
    "bool energy": (lambda: free_resolvent_diagonal([0.0], True), TypeError),
    "string amplitude": (lambda: SparseOperator(2, [(1, 2, "1")]), TypeError),
    "string state": (lambda: as_state_vector(["1"], 1), TypeError),
    "bool state": (lambda: as_state_vector([True], 1), TypeError),
    "string resolvent diagonal": (lambda: full_resolvent(make_system(SparseOperator(1)), ["1"]),
                                  TypeError),
    "huge int state": (lambda: as_state_vector([10**400], 1), TypeError),
    "huge int cascade": (lambda: build_cascade([10**400]), ValueError),
    "huge int diamond": (lambda: build_diamond(10**400, 1, 1, 1), ValueError),
    "huge int double diamond": (lambda: build_double_diamond([10**400] * 8), ValueError),
    "huge int remainder phi": (lambda: exact_remainder(CYCLE, [10**400, 0], 0), TypeError),
    "huge int resolvent diagonal": (
        lambda: full_resolvent(make_system(SparseOperator(1)), [10**400]), TypeError),
    "huge int norm": (lambda: vector_norm([10**400]), TypeError),
    "huge int level": (lambda: build_transfer_operator([10**400], SparseOperator(1), 1.0),
                       TypeError),
    "huge int energy": (lambda: build_transfer_operator([0.0], SparseOperator(1), 10**400),
                        ValueError),
    "dimension 10**20": (lambda: make_system(SparseOperator(10**20)), ValueError),
    "dimension 2**40": (lambda: SparseOperator(2**40), ValueError),
    "identity 2**40": (lambda: SparseOperator.identity(2**40), ValueError),
    "basis state 2**62": (lambda: basis_state(2**62, 1), ValueError),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusal(name):
    call, kind = REFUSALS[name]
    assert refusal(call)[0] is kind


# a record with one bad field, in a list the loop reads and in one the array
# checks see first: both name the same record the same way
BAD_RECORDS = {
    "string amplitude": ((1, 2, "1"), TypeError, "entry (1, 2) amplitude is not a number: '1'"),
    "bool amplitude": ((1, 2, True), TypeError, "entry (1, 2) amplitude is not a number: True"),
    "None amplitude": ((1, 2, None), TypeError, "entry (1, 2) amplitude is not a number: None"),
    "huge int amplitude": ((1, 2, 10**400), ValueError,
                           "entry (1, 2) amplitude is an int beyond the float range"),
    "huge label": ((2**70, 2, 1.0), ValueError, f"entry ({2**70}, 2) outside 1..{LONG_DIM}"),
}


@pytest.mark.parametrize("count", [1, _LOOP_RECORDS + 1])
@pytest.mark.parametrize("name", sorted(BAD_RECORDS))
def test_short_and_long_record_lists_refuse_alike(name, count):
    record, kind, message = BAD_RECORDS[name]
    records = [record] + [r for r in LONG if r[:2] != (1, 2)][:count - 1]
    assert refusal(lambda: SparseOperator(LONG_DIM, records)) == (kind, message)

