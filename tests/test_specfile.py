"""Spec file parsing, serialization, and conversion to operators."""

from __future__ import annotations

import json
from importlib import resources

import numpy as np
import numpy.testing as npt
import pytest

from bornsolve.errors import BornsolveError, ResonanceError, SpecFormatError
from bornsolve.operators import SparseOperator, build_transfer_operator
from bornsolve.specfile import (
    CouplingRecord,
    SystemSpec,
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
        assert spec.transfer_entries == (CouplingRecord(1, 2, 0.5 - 0.25j),)

    def test_from_to_maps_to_row_col(self):
        # record i -> j populates matrix entry (row j, column i)
        op = spec_to_operator(parse_spec(direct_spec(2, [
            {"from": 2, "to": 1, "re": 0.75, "im": 0.0},
        ])))
        assert op.entry(1, 2) == 0.75
        assert op.entry(2, 1) == 0.0

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
        npt.assert_allclose(op.entry(2, 1), 0.3 / (2.0 - 1.0), rtol=0)

    def test_hamiltonian_form_complex_energy(self):
        doc = json.dumps({
            "dimension": 2,
            "free_hamiltonian": [0.0, 1.0],
            "potential_entries": [{"from": 1, "to": 2, "re": 1.0, "im": 0.0}],
            "energy": {"re": 1.0, "im": 0.5},
        })
        op = spec_to_operator(parse_spec(doc))
        npt.assert_allclose(op.entry(2, 1), 1.0 / 0.5j, rtol=1e-15)

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
        assert len(spec.transfer_entries) == 1
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
        assert set(recovered.transfer_entries) == set(original.transfer_entries)
        assert spec_to_operator(recovered) == spec_to_operator(original)

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
