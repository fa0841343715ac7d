"""Spec file parsing, serialization, and conversion to operators."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bornsolve
from bornsolve import operators
from bornsolve.errors import BornsolveError, ResonanceError, SpecFormatError
from bornsolve.operators import SparseOperator, build_transfer_operator
from bornsolve.specfile import (
    SystemSpec,
    _column_records,
    _loop_records,
    _parse_records,
    load_spec,
    parse_spec,
    serialize_spec,
    spec_to_operator,
)


def direct_spec(dim, records, labels=None):
    doc = {"dimension": dim, "transfer_entries": records}
    if labels is not None:
        doc["basis_labels"] = labels
    return json.dumps(doc)


class TestParsing:
    def test_direct_form(self):
        spec = parse_spec(direct_spec(3, [
            {"from": 1, "to": 2, "re": 0.5, "im": -0.25},
        ]))
        assert spec.dimension == 3
        assert spec.is_direct
        assert spec.transfer_entries == SparseOperator(3, [(2, 1, 0.5 - 0.25j)])

    def test_from_to_maps_to_row_col(self):
        # record i -> j populates matrix entry (row j, column i)
        op = spec_to_operator(parse_spec(direct_spec(2, [
            {"from": 2, "to": 1, "re": 0.75, "im": 0.0},
        ])))
        assert op.to_dense()[0, 1] == 0.75
        assert op.to_dense()[1, 0] == 0.0

    def test_hamiltonian_form(self):
        doc = json.dumps({
            "dimension": 2,
            "free_hamiltonian": [0.0, 1.0],
            "potential_entries": [{"from": 1, "to": 2, "re": 0.3, "im": 0.0}],
            "energy": {"re": 2.0, "im": 0.0},
        })
        spec = parse_spec(doc)
        assert not spec.is_direct
        op = spec_to_operator(spec)
        oracle = build_transfer_operator(
            [0.0, 1.0], SparseOperator(2, [(2, 1, 0.3)]), 2.0
        )
        assert op == oracle
        npt.assert_allclose(op.to_dense()[1, 0], 0.3 / (2.0 - 1.0), rtol=0)

    def test_hamiltonian_form_complex_energy(self):
        doc = json.dumps({
            "dimension": 2,
            "free_hamiltonian": [0.0, 1.0],
            "potential_entries": [{"from": 1, "to": 2, "re": 1.0, "im": 0.0}],
            "energy": {"re": 1.0, "im": 0.5},
        })
        op = spec_to_operator(parse_spec(doc))
        npt.assert_allclose(op.to_dense()[1, 0], 1.0 / 0.5j, rtol=1e-15)

    def test_resonant_energy_surfaces_through_conversion(self):
        doc = json.dumps({
            "dimension": 2,
            "free_hamiltonian": [0.0, 1.0],
            "potential_entries": [{"from": 1, "to": 2, "re": 1.0, "im": 0.0}],
            "energy": {"re": 1.0, "im": 0.0},
        })
        spec = parse_spec(doc)
        with pytest.raises(ResonanceError, match="level 2"):
            spec_to_operator(spec)

    def test_basis_labels(self):
        spec = parse_spec(direct_spec(2, [], labels=["g", "e"]))
        assert spec.basis_labels == ("g", "e")

    def test_zero_amplitude_record_parses_but_drops(self):
        spec = parse_spec(direct_spec(2, [
            {"from": 1, "to": 2, "re": 0.0, "im": 0.0},
        ]))
        assert spec.transfer_entries.is_zero()
        assert spec_to_operator(spec).is_zero()


class TestRoundTrip:
    def test_serialize_then_parse_preserves_semantics(self):
        rng = np.random.default_rng(197)
        records = [
            {"from": int(i), "to": int(j),
             "re": float(rng.normal()), "im": float(rng.normal())}
            for i, j in [(1, 3), (3, 2), (2, 4), (1, 4)]
        ]
        original = parse_spec(direct_spec(4, records))
        recovered = parse_spec(serialize_spec(original))
        assert recovered.dimension == original.dimension
        assert recovered.transfer_entries == original.transfer_entries
        assert spec_to_operator(recovered) == spec_to_operator(original)

    def test_round_trip_keeps_the_label_order(self):
        labels = ["g", "e2", "e1"]
        spec = parse_spec(direct_spec(3, [{"from": 1, "to": 3, "re": 1.0, "im": 0.0}], labels))
        assert json.loads(serialize_spec(spec))["basis_labels"] == labels
        recovered = parse_spec(serialize_spec(spec))
        assert recovered.basis_labels == tuple(labels)
        assert recovered == spec

    def test_serialized_records_sorted_by_endpoint(self):
        spec = parse_spec(direct_spec(3, [
            {"from": 2, "to": 3, "re": 1.0, "im": 0.0},
            {"from": 1, "to": 2, "re": 1.0, "im": 0.0},
        ]))
        doc = json.loads(serialize_spec(spec))
        pairs = [(r["from"], r["to"]) for r in doc["transfer_entries"]]
        assert pairs == sorted(pairs)

    def test_serialized_output_ends_with_newline(self):
        spec = parse_spec(direct_spec(2, []))
        assert serialize_spec(spec).endswith("\n")

    def test_hamiltonian_round_trip(self):
        doc = json.dumps({
            "dimension": 3,
            "free_hamiltonian": [0.0, 0.5, 1.25],
            "potential_entries": [
                {"from": 1, "to": 2, "re": 0.1, "im": 0.2},
                {"from": 2, "to": 3, "re": -0.4, "im": 0.0},
            ],
            "energy": {"re": 3.0, "im": 0.0},
        })
        original = parse_spec(doc)
        recovered = parse_spec(serialize_spec(original))
        assert recovered == original


class TestLoading:
    def test_load_from_path(self, tmp_path):
        path = tmp_path / "toy.spec"
        path.write_text(direct_spec(2, [
            {"from": 1, "to": 2, "re": 1.0, "im": 0.0},
        ]))
        assert load_spec(path).dimension == 2

    @pytest.mark.parametrize("name, dim", [
        ("diamond.spec", 4),
        ("cascade3.spec", 3),
        ("double-diamond.spec", 7),
    ])
    def test_bundled_fixtures_parse(self, name, dim):
        text = resources.files("bornsolve").joinpath("specs", name).read_text()
        spec = parse_spec(text)
        assert spec.dimension == dim
        assert not spec_to_operator(spec).is_zero()


class TestFormatErrors:
    @pytest.mark.parametrize("text, fragment", [
        ("{not json", "JSON"),
        ("[1, 2]", "object"),
        (json.dumps({"dimension": 2, "transfer_entries": [], "tuning": 1}),
         "tuning"),
        (json.dumps({"transfer_entries": []}), "dimension"),
        (json.dumps({"dimension": 0, "transfer_entries": []}), "dimension"),
        (json.dumps({"dimension": True, "transfer_entries": []}), "dimension"),
        (json.dumps({"dimension": 2.5, "transfer_entries": []}), "dimension"),
        (json.dumps({"dimension": 2}), "transfer_entries"),
        (json.dumps({
            "dimension": 2,
            "transfer_entries": [],
            "free_hamiltonian": [0.0, 1.0],
            "potential_entries": [],
            "energy": {"re": 2.0, "im": 0.0},
        }), "exactly one"),
        (json.dumps({
            "dimension": 2,
            "free_hamiltonian": [0.0, 1.0],
            "potential_entries": [],
        }), "energy"),
        (json.dumps({"dimension": 2, "free_hamiltonian": [0.0, 1.0]}),
         "potential_entries"),
        (json.dumps({
            "dimension": 2,
            "free_hamiltonian": [0.0],
            "potential_entries": [],
            "energy": {"re": 2.0, "im": 0.0},
        }), "free_hamiltonian"),
        (json.dumps({
            "dimension": 2,
            "free_hamiltonian": [0.0, 1.0],
            "potential_entries": [],
            "energy": {"re": 2.0},
        }), "im"),
        (json.dumps({"dimension": 2, "transfer_entries": {"from": 1, "to": 2}}),
         "transfer_entries: expected a list of coupling records"),
        (json.dumps({
            "dimension": 2,
            "free_hamiltonian": [0.0, 1.0],
            "potential_entries": {"from": 1, "to": 2},
            "energy": {"re": 2.0, "im": 0.0},
        }), "potential_entries: expected a list of coupling records"),
        (json.dumps({
            "dimension": 2,
            "free_hamiltonian": {"1": 0.0, "2": 1.0},
            "potential_entries": [],
            "energy": {"re": 2.0, "im": 0.0},
        }), "free_hamiltonian: expected a list of numbers"),
        (json.dumps({
            "dimension": 2,
            "free_hamiltonian": [0.0, 1.0],
            "potential_entries": [],
            "energy": 2.0,
        }), 'energy: expected an object with "re" and "im"'),
        (json.dumps({
            "dimension": 2,
            "free_hamiltonian": [0.0, 1.0],
            "potential_entries": [],
            "energy": {"re": 2.0, "im": 0.0, "width": 0.1},
        }), r"energy: unknown keys \['width'\]"),
        (json.dumps({"dimension": 2, "transfer_entries": [
            {"from": 1, "to": 2, "re": 0.5},
        ]}), r"transfer_entries\[0\]"),
        (json.dumps({"dimension": 2, "transfer_entries": [
            {"from": 1, "to": 2, "re": 0.5, "im": 0.0},
            {"to": 1, "re": 0.5, "im": 0.0},
        ]}), r"transfer_entries\[1\]"),
        (json.dumps({"dimension": 2, "transfer_entries": [
            {"from": 1, "to": 2, "re": 0.5, "im": 0.0, "phase": 0.0},
        ]}), "phase"),
        (json.dumps({"dimension": 2, "transfer_entries": [
            {"from": 1, "to": 3, "re": 0.5, "im": 0.0},
        ]}), "outside"),
        (json.dumps({"dimension": 2, "transfer_entries": [
            {"from": 0, "to": 1, "re": 0.5, "im": 0.0},
        ]}), "outside"),
        (json.dumps({"dimension": 2, "transfer_entries": [
            {"from": 1, "to": 2, "re": 0.5, "im": 0.0},
            {"from": 1, "to": 2, "re": 0.25, "im": 0.0},
        ]}), "duplicate"),
        (json.dumps({"dimension": 2, "transfer_entries": [],
                     "basis_labels": ["only-one"]}), "basis_labels"),
        (json.dumps({"dimension": 2, "transfer_entries": [],
                     "basis_labels": ["a", 3]}), "basis_labels"),
        ('{"dimension": 2, "transfer_entries": '
         '[{"from": 1, "to": 2, "re": 1e999, "im": 0.0}]}', "finite"),
        # float() of a 400-digit integer raises OverflowError
        ('{"dimension": 2, "transfer_entries": '
         '[{"from": 1, "to": 2, "re": 0.5, "im": -1%s}]}' % ("0" * 400),
         r"transfer_entries\[0\]\.im: value is not finite"),
    ])
    def test_rejected_documents(self, text, fragment):
        with pytest.raises(SpecFormatError, match=fragment):
            parse_spec(text)

    def test_missing_keys_named_in_fixed_order(self, tmp_path):
        # the first missing key in from, to, re, im order, whatever the
        # hash seed; iterating over a set of keys made it vary
        path = tmp_path / "system.spec"
        path.write_text(direct_spec(2, [{"from": 1}]), encoding="utf-8")
        package = str(Path(bornsolve.__file__).parents[1])
        for seed in range(1, 7):
            env = dict(os.environ, PYTHONPATH=package, PYTHONHASHSEED=str(seed))
            done = subprocess.run(
                [sys.executable, "-m", "bornsolve", "analyze", str(path)],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert (done.returncode, done.stderr) == (
                1, 'error: transfer_entries[0]: missing "to"\n'), seed

    def test_error_type_is_package_error(self):
        # the CLI maps the whole family to a single input-error exit code
        assert issubclass(SpecFormatError, BornsolveError)

    def test_direct_spec_has_no_energy(self):
        spec = parse_spec(direct_spec(2, []))
        assert spec.energy is None
        assert spec.free_hamiltonian is None


class TestSystemSpecType:
    def test_frozen(self):
        spec = parse_spec(direct_spec(2, []))
        with pytest.raises(AttributeError):
            spec.dimension = 5

    def test_equality(self):
        a = parse_spec(direct_spec(2, [
            {"from": 1, "to": 2, "re": 0.5, "im": 0.0},
        ]))
        b = parse_spec(direct_spec(2, [
            {"from": 1, "to": 2, "re": 0.5, "im": 0.0},
        ]))
        assert a == b
        assert isinstance(a, SystemSpec)


# ------------------------------------------- column check against the loop

FAULTS = (
    "bool label", "float label", "huge label", "huge value", "nan", "infinity",
    "duplicate", "out of range", "missing key", "extra key", "not a dict",
    "misnamed key", "non-number value",
)
# values the loop accepts, which the column check must read the same way
EDGES = ("int value", "big int value", "negative zero", "tiny value")


def clean_records(seed: int, dim: int, count: int) -> list[dict]:
    """`count` records with distinct (from, to) pairs in 1..dim."""
    rng = np.random.default_rng(seed)
    pairs = rng.choice(dim * dim, size=count, replace=False)
    return [
        {"from": int(k // dim) + 1, "to": int(k % dim) + 1,
         "re": float(re), "im": float(im)}
        for k, re, im in zip(pairs, rng.normal(size=count), rng.normal(size=count))
    ]


def inject(raw: list, kind: str, pos: int, dim: int) -> None:
    item = raw[pos]
    if not isinstance(item, dict):  # an earlier change replaced it
        return
    label = "from" if pos % 2 else "to"
    part = "im" if pos % 2 else "re"
    if kind == "bool label":
        item[label] = pos % 3 == 0
    elif kind == "float label":
        item[label] = float(item[label])
    elif kind == "huge label":
        item[label] = 2**70
    elif kind == "huge value":
        item[part] = 10**400
    elif kind == "nan":
        item[part] = float("nan")
    elif kind == "infinity":
        item[part] = float("inf") if pos % 3 else float("-inf")
    elif kind == "duplicate":
        twin = raw[(pos + 1) % len(raw)]
        if isinstance(twin, dict):
            item.update((key, twin[key]) for key in ("from", "to") if key in twin)
    elif kind == "out of range":
        item[label] = (0, dim + 1, -1)[pos % 3]
    elif kind == "missing key":
        item.pop(("from", "to", "re", "im")[pos % 4], None)
    elif kind == "extra key":
        item["phase"] = 0.0
    elif kind == "not a dict":
        raw[pos] = (list(item.values()), None, "record")[pos % 3]
    elif kind == "misnamed key":  # four keys still, one of them not a record key
        item["imag"] = item.pop("im", 0.0)
    elif kind == "non-number value":
        item[part] = ("1.5", None, True)[pos % 3]
    elif kind == "int value":
        item[part] = pos - 3
    elif kind == "big int value":
        item[part] = 2**64 + 1
    elif kind == "negative zero":
        item[part] = -0.0
    elif kind == "tiny value":
        item[part] = 5e-324


def stored(op: SparseOperator):
    """An operator's dimension and the dtype and bytes of its stored arrays."""
    return op.dim, [(a.dtype, a.tobytes()) for a in (op._row, op._col, op._amp)]


def outcome(parse, raw: list, dim: int):
    try:
        op = parse(raw, "transfer_entries", dim)
    except SpecFormatError as exc:
        return "error", str(exc)
    return "operator", stored(op)


class TestColumnCheck:
    # every record well formed but one: the column check's key and part gates
    # each refuse the list, and the loop names the record
    @example(seed=1, count=9, dim=5, changes=[("misnamed key", 0.5)])
    @example(seed=1, count=9, dim=5, changes=[("non-number value", 0.5)])
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.sampled_from([0, 1, 2, 9, 1000]),
        dim=st.integers(1, 40),
        changes=st.lists(
            st.tuples(st.sampled_from(FAULTS + EDGES), st.floats(0, 1, exclude_max=True)),
            max_size=3,
        ),
    )
    def test_same_outcome_as_the_loop(self, seed, count, dim, changes):
        if count > dim * dim:
            dim = 40
        raw = clean_records(seed, dim, count)
        for kind, where in changes if raw else ():
            inject(raw, kind, int(where * len(raw)), dim)
        raw = json.loads(json.dumps(raw))  # as a spec file gives it: NaN, Infinity
        expected = outcome(_loop_records, raw, dim)
        assert outcome(_parse_records, raw, dim) == expected
        if raw and not any(kind in FAULTS for kind, _ in changes):
            assert _column_records(raw, dim) is not None
            # bit for bit the operator built from (to, from, amplitude) triples
            assert expected == ("operator", stored(SparseOperator(dim, [
                (r["to"], r["from"], complex(r["re"], r["im"])) for r in raw])))

    def test_wrapping_keys_fall_back_to_the_loop(self):
        # from * (dim + 1) + to wraps in int64 here: the array checks leave the
        # records to the operators' loop.  No machine allocates a state of dim
        # components, so the loader refuses the dimension before either runs
        dim = 2**40
        raw = [{"from": dim, "to": 1, "re": 1.0, "im": 0.0},
               {"from": 1, "to": dim, "re": 1.0, "im": 0.0}]
        triples = [(r["to"], r["from"], complex(r["re"], r["im"])) for r in raw]
        assert operators._array_records(dim, triples) is None
        assert [a.tolist() for a in operators._loop_records(dim, triples)] == [
            [1, dim], [dim, 1], [1 + 0j, 1 + 0j]]
        with pytest.raises(SpecFormatError) as excinfo:
            parse_spec(direct_spec(dim, raw))
        assert str(excinfo.value) == f"dimension: {dim} states are too many to index or allocate"
