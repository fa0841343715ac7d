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
tables.

A record list is checked by column first.  The loader's own gates ask
for every item a dict with exactly the four record keys, labels of type
int and values of type int or float within the float range; range,
duplicates and finiteness are then left to the operators module's one
check of record columns, whose verdict alone is used.  Any fault sends
the list to the per-record loop instead, which is the only code that
names a fault, so every SpecFormatError names the first faulty record
in list order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Any

import numpy as np

from .errors import SpecFormatError
from .operators import SparseOperator, _checked_columns, build_transfer_operator

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
class CouplingRecord:
    """One off-diagonal coupling: amplitude for the transition source -> target."""

    source: int
    target: int
    amplitude: complex


@dataclass(frozen=True)
class SystemSpec:
    """Parsed system description; exactly one of the two forms is populated."""

    dimension: int
    basis_labels: tuple[str, ...] | None = None
    transfer_entries: tuple[CouplingRecord, ...] | None = None
    free_hamiltonian: tuple[float, ...] | None = None
    potential_entries: tuple[CouplingRecord, ...] | None = None
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


def _column_records(raw: list, dimension: int) -> tuple[CouplingRecord, ...] | None:
    """The records of raw if every one passes the checks of _loop_records, else None."""
    # four keys each, and itemgetter finds all four: exactly the record keys
    if set(map(type, raw)) != {dict} or set(map(len, raw)) != {len(_RECORD_KEYS)}:
        return None
    try:
        sources, targets, reals, imags = (list(map(itemgetter(key), raw))
                                          for key in _RECORD_KEYS)
    except KeyError:
        return None
    if set(map(type, sources)) | set(map(type, targets)) != {int}:
        return None
    if not {int, float}.issuperset(set(map(type, reals)) | set(map(type, imags))):
        return None
    try:
        amplitude = np.empty(len(raw), dtype=complex)
        amplitude.real = reals
        amplitude.imag = imags
    except OverflowError:  # an integer beyond the float range
        return None
    if _checked_columns(dimension, targets, sources, amplitude) is None:
        return None
    return tuple(map(CouplingRecord, sources, targets, amplitude.tolist()))


def _loop_records(raw: list, field: str, dimension: int) -> tuple[CouplingRecord, ...]:
    records = []
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
        records.append(CouplingRecord(source=source, target=target, amplitude=amplitude))
    return tuple(records)


def _parse_records(raw: Any, field: str, dimension: int) -> tuple[CouplingRecord, ...]:
    if not isinstance(raw, list):
        raise SpecFormatError(f"{field}: expected a list of coupling records")
    records = _column_records(raw, dimension)
    return _loop_records(raw, field, dimension) if records is None else records


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
    dimension = _require_int(raw["dimension"], "dimension")
    if dimension < 1:
        raise SpecFormatError(f"dimension: must be >= 1, got {dimension}")

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


def _record_objs(records: tuple[CouplingRecord, ...]) -> list[dict]:
    """Records as JSON objects, sorted by (from, to)."""
    return [
        {"from": r.source, "to": r.target, "re": r.amplitude.real, "im": r.amplitude.imag}
        for r in sorted(records, key=lambda r: (r.source, r.target))
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
    The Hamiltonian form runs through the free resolvent and can raise
    ResonanceError for an energy too close to a level.
    """
    records = spec.transfer_entries if spec.is_direct else spec.potential_entries
    assert records is not None
    op = SparseOperator(spec.dimension, [(r.target, r.source, r.amplitude) for r in records])
    if spec.is_direct:
        return op
    return build_transfer_operator(
        np.asarray(spec.free_hamiltonian, dtype=float), op, spec.energy
    )
