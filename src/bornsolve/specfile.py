"""Reading and writing system description files.

A system file is a JSON object using 1-based state indices.  A coupling
record {"from": i, "to": j, "re": a, "im": b} stores the complex
amplitude a + b*i at matrix entry (j, i): the coupling for the transition
from state i to state j.  Complex numbers always spell out both "re" and
"im"; there is no string form to parse ambiguously.

Exactly one of two forms must be present on top of "dimension":

* direct form: "transfer_entries" lists the transfer-operator couplings;
* Hamiltonian form: "free_hamiltonian" (n real level energies),
  "potential_entries" (interaction couplings) and "energy"
  ({"re": ..., "im": ...}) describe the transfer operator as the free
  resolvent applied to the potential.

"basis_labels" (n strings) is optional and only affects human-readable
tables.  A state file, read by load_state, is a JSON array of n such
{"re", "im"} objects.

A parsed spec holds its record lists as checked operators: T in the
direct form, V in the Hamiltonian form.  The loader does the JSON work
only: its gates ask for every item a dict with exactly the four record
keys and parts of type int or float.  A list that passes goes to
SparseOperator as (to, from, complex(re, im)) triples, and the
constructor decides the labels' type and range, duplicates, finiteness,
the exact zero drop and the storage order.  A list that fails a gate,
or that the constructor refuses, goes to the per-record loop instead,
which is the only code that names a fault, so every SpecFormatError
names the first faulty record in list order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Any

import numpy as np

from .errors import SpecFormatError
from .operators import SparseOperator, _size, as_state_vector, build_transfer_operator

_TOP_LEVEL_KEYS = {
    "dimension",
    "basis_labels",
    "transfer_entries",
    "free_hamiltonian",
    "potential_entries",
    "energy",
}

# checked in this order, so a record missing several keys names the first
_RECORD_KEYS = ("from", "to", "re", "im")


@dataclass(frozen=True)
class SystemSpec:
    """Parsed system description; exactly one of the two forms is populated.

    The record fields, named after the file's keys, hold checked operators:
    transfer_entries the transfer operator T, potential_entries the
    potential V.
    """

    dimension: int
    basis_labels: tuple[str, ...] | None = None
    transfer_entries: SparseOperator | None = None
    free_hamiltonian: tuple[float, ...] | None = None
    potential_entries: SparseOperator | None = None
    energy: complex | None = None

    @property
    def is_direct(self) -> bool:
        return self.transfer_entries is not None


def _require_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecFormatError(f"{where}: expected an integer, got {value!r}")
    return value


def _require_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecFormatError(f"{where}: expected a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise SpecFormatError(f"{where}: value is not finite")
    return out


def _parse_complex(obj: Any, where: str) -> complex:
    if not isinstance(obj, dict):
        raise SpecFormatError(f'{where}: expected an object with "re" and "im"')
    extra = set(obj) - {"re", "im"}
    if extra:
        raise SpecFormatError(f"{where}: unknown keys {sorted(extra)}")
    for key in ("re", "im"):
        if key not in obj:
            raise SpecFormatError(f'{where}: missing "{key}"')
    return complex(_require_number(obj["re"], f"{where}.re"),
                   _require_number(obj["im"], f"{where}.im"))


def _column_records(raw: list, dimension: int) -> SparseOperator | None:
    """The operator of raw's records if every one passes the checks of _loop_records, else None."""
    # four keys each, and itemgetter finds all four: exactly the record keys
    if set(map(type, raw)) != {dict} or set(map(len, raw)) != {len(_RECORD_KEYS)}:
        return None
    try:
        sources, targets, reals, imags = (list(map(itemgetter(key), raw))
                                          for key in _RECORD_KEYS)
    except KeyError:
        return None
    if not {int, float}.issuperset(set(map(type, reals)) | set(map(type, imags))):
        return None
    try:
        return SparseOperator(dimension, list(zip(targets, sources, map(complex, reals, imags))))
    except (ValueError, OverflowError):  # a fault the loop names; a part beyond the float range
        return None


def _loop_records(raw: list, field: str, dimension: int) -> SparseOperator:
    entries = []
    seen: set[tuple[int, int]] = set()
    for pos, item in enumerate(raw):
        where = f"{field}[{pos}]"
        if not isinstance(item, dict):
            raise SpecFormatError(f"{where}: expected an object")
        extra = item.keys() - _RECORD_KEYS
        if extra:
            raise SpecFormatError(f"{where}: unknown keys {sorted(extra)}")
        for key in _RECORD_KEYS:
            if key not in item:
                raise SpecFormatError(f'{where}: missing "{key}"')
        source = _require_int(item["from"], f"{where}.from")
        target = _require_int(item["to"], f"{where}.to")
        for name, value in (("from", source), ("to", target)):
            if not 1 <= value <= dimension:
                raise SpecFormatError(
                    f'{where}.{name}: state index {value} outside 1..{dimension}'
                )
        if (source, target) in seen:
            raise SpecFormatError(
                f"{where}: duplicate coupling for transition {source} -> {target}"
            )
        seen.add((source, target))
        amplitude = complex(_require_number(item["re"], f"{where}.re"),
                            _require_number(item["im"], f"{where}.im"))
        entries.append((target, source, amplitude))
    return SparseOperator(dimension, entries)


def _parse_records(raw: Any, field: str, dimension: int) -> SparseOperator:
    if not isinstance(raw, list):
        raise SpecFormatError(f"{field}: expected a list of coupling records")
    op = _column_records(raw, dimension)
    return _loop_records(raw, field, dimension) if op is None else op


def parse_spec(text: str) -> SystemSpec:
    """Parse a system description from JSON text.

    Raises SpecFormatError naming the offending field or record on any
    structural problem.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SpecFormatError("top level must be a JSON object")
    unknown = set(raw) - _TOP_LEVEL_KEYS
    if unknown:
        raise SpecFormatError(f"unknown top-level keys {sorted(unknown)}")
    if "dimension" not in raw:
        raise SpecFormatError('missing "dimension"')
    try:
        dimension = _size(raw["dimension"], "dimension")
    except ValueError as fault:
        raise SpecFormatError(str(fault)) from None

    labels: tuple[str, ...] | None = None
    if "basis_labels" in raw:
        raw_labels = raw["basis_labels"]
        if not isinstance(raw_labels, list) or not all(
            isinstance(s, str) for s in raw_labels
        ):
            raise SpecFormatError("basis_labels: expected a list of strings")
        if len(raw_labels) != dimension:
            raise SpecFormatError(
                f"basis_labels: expected {dimension} labels, got {len(raw_labels)}"
            )
        labels = tuple(raw_labels)

    direct = "transfer_entries" in raw
    ham_keys = [k for k in ("free_hamiltonian", "potential_entries", "energy") if k in raw]
    if direct and ham_keys:
        raise SpecFormatError(
            f'"transfer_entries" cannot be combined with {ham_keys}; '
            f"give exactly one form"
        )
    if direct:
        return SystemSpec(
            dimension=dimension,
            basis_labels=labels,
            transfer_entries=_parse_records(raw["transfer_entries"],
                                            "transfer_entries", dimension),
        )
    if len(ham_keys) != 3:
        missing = [k for k in ("free_hamiltonian", "potential_entries", "energy")
                   if k not in raw]
        raise SpecFormatError(
            f'expected either "transfer_entries" or the full Hamiltonian form; '
            f"missing {missing}"
        )
    raw_h0 = raw["free_hamiltonian"]
    if not isinstance(raw_h0, list):
        raise SpecFormatError("free_hamiltonian: expected a list of numbers")
    if len(raw_h0) != dimension:
        raise SpecFormatError(
            f"free_hamiltonian: expected {dimension} levels, got {len(raw_h0)}"
        )
    h0 = tuple(_require_number(x, f"free_hamiltonian[{k}]") for k, x in enumerate(raw_h0))
    return SystemSpec(
        dimension=dimension,
        basis_labels=labels,
        free_hamiltonian=h0,
        potential_entries=_parse_records(raw["potential_entries"],
                                         "potential_entries", dimension),
        energy=_parse_complex(raw["energy"], "energy"),
    )


def load_spec(path) -> SystemSpec:
    """Read and parse a system description file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_spec(handle.read())


def load_state(path, dim: int) -> np.ndarray:
    """Read a state vector of dim components from a JSON array of {"re", "im"} objects."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SpecFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise SpecFormatError(f'{path}: expected a JSON array of {{"re", "im"}} objects')
    if len(raw) != dim:
        raise SpecFormatError(f"{path}: expected {dim} components, got {len(raw)}")
    components = [_parse_complex(item, f"{path}[{pos}]") for pos, item in enumerate(raw)]
    return as_state_vector(components, dim)


def _record_objs(op: SparseOperator) -> list[dict]:
    """An operator's entries as JSON records, sorted by (from, to)."""
    return [
        {"from": source, "to": target, "re": amplitude.real, "im": amplitude.imag}
        for target, source, amplitude in sorted(op.entries(), key=itemgetter(1, 0))
    ]


def serialize_spec(spec: SystemSpec) -> str:
    """Canonical JSON text for a spec; records sorted by (from, to)."""
    out: dict[str, Any] = {"dimension": spec.dimension}
    if spec.basis_labels is not None:
        out["basis_labels"] = list(spec.basis_labels)
    if spec.is_direct:
        assert spec.transfer_entries is not None
        out["transfer_entries"] = _record_objs(spec.transfer_entries)
    else:
        assert spec.free_hamiltonian is not None
        assert spec.potential_entries is not None
        assert spec.energy is not None
        out["free_hamiltonian"] = list(spec.free_hamiltonian)
        out["potential_entries"] = _record_objs(spec.potential_entries)
        out["energy"] = {"re": spec.energy.real, "im": spec.energy.imag}
    return json.dumps(out, indent=2) + "\n"


def spec_to_operator(spec: SystemSpec) -> SparseOperator:
    """Transfer operator described by a spec.

    A record with source i and target j lands at matrix entry (j, i).
    The direct form's operator was checked as it was parsed and comes
    back as it is.  The Hamiltonian form runs through the free resolvent
    and can raise ResonanceError for an energy too close to a level.
    """
    if spec.transfer_entries is not None:
        return spec.transfer_entries
    assert spec.potential_entries is not None
    return build_transfer_operator(spec.free_hamiltonian, spec.potential_entries, spec.energy)
