"""Structured text reports: a flat key = value view plus optional tables.

The machine view prints one `path = value` line per leaf of a report
tree.  Nested dicts extend the dotted path, complex leaves split into
.re and .im, sequences of plain integers or strings are emitted inline
(space separated) and other sequences get numeric path components.
A 1-d complex ndarray leaf is a state vector: component k (1-based)
prints as `path.k.re` and `path.k.im`, the lines a dict {"1": z1, ...}
of complex leaves would give, rendered from the array's columns.
Floats print with shortest-roundtrip precision; tables reuse the same
formatting so both views carry identical numbers.

One rule covers every printed number: no report prints inf, -inf or
nan.  The walk that forms the lines finds the first that would
(`report_lines`), and the command line refuses that report.
"""

from __future__ import annotations

from itertools import count
from typing import Any, Iterable

import numpy as np

_NON_FINITE = frozenset({"inf", "-inf", "nan"})  # repr of a non-finite float


def format_scalar(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, str):
        return value
    raise TypeError(f"cannot format {type(value).__name__} as a report scalar")


def format_complex(value: complex) -> str:
    """Human-view rendering of a complex number, shortest-roundtrip parts."""
    z = complex(value)
    sign = "+" if z.imag >= 0 else "-"
    return f"{format_scalar(z.real)} {sign} {format_scalar(abs(z.imag))}j"


def _inline(value: list | tuple) -> str | None:
    kinds = set(map(type, value))  # each item's type is read once
    if all(issubclass(kind, (int, np.integer, str)) and kind is not bool for kind in kinds):
        # str() prints a plain int or str as format_scalar does, and sooner
        return " ".join(map(str if kinds <= {int, str} else format_scalar, value))
    return None


def _vector_lines(path: str, vec: np.ndarray, lines: list[str]) -> str | None:
    start = len(lines)
    # repr of a Python float is what format_scalar prints for it
    for k, re, im in zip(count(1), map(repr, vec.real.tolist()),
                         map(repr, vec.imag.tolist())):
        lines.append(f"{path}.{k}.re = {re}")
        lines.append(f"{path}.{k}.im = {im}")
    if np.isfinite(vec).all():
        return None
    return next(line for line in lines[start:] if line.rpartition(" = ")[2] in _NON_FINITE)


def _walk(tree: dict[str, Any], prefix: str, lines: list[str]) -> str | None:
    """Append tree's lines to lines; return the first whose number is not finite."""
    first = None
    for key, value in tree.items():
        path = f"{prefix}{key}"
        if value is None:
            continue
        if isinstance(value, dict):
            found = _walk(value, f"{path}.", lines)
        elif isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype.kind == "c":
            found = _vector_lines(path, value, lines)
        elif isinstance(value, (complex, np.complexfloating)):
            found = _walk({"re": value.real, "im": value.imag}, f"{path}.", lines)
        elif isinstance(value, (list, tuple)):
            inline = _inline(value)
            if inline is None:
                found = _walk({str(k): v for k, v in enumerate(value)}, f"{path}.", lines)
            else:  # ints and strings: nothing to refuse
                lines.append(f"{path} = {inline}")
                found = None
        else:
            text = format_scalar(value)
            lines.append(f"{path} = {text}")
            found = lines[-1] if text in _NON_FINITE and not isinstance(value, str) else None
        first = first or found
    return first


def report_lines(tree: dict[str, Any], prefix: str = "") -> tuple[list[str], str | None]:
    """A tree's `path = value` lines, depth first; the first to print inf, -inf or nan, or None."""
    lines: list[str] = []
    return lines, _walk(tree, prefix, lines)


def format_table(headers: Iterable[str], rows: Iterable[Iterable[Any]]) -> str:
    """Plain column-aligned table; every cell is formatted before layout."""
    head = [str(h) for h in headers]
    body = [[cell if isinstance(cell, str) else format_scalar(cell) for cell in row]
            for row in rows]
    for row in body:
        if len(row) != len(head):
            raise ValueError(
                f"table row has {len(row)} cells, expected {len(head)}"
            )
    widths = [len(h) for h in head]
    for row in body:
        for k, cell in enumerate(row):
            widths[k] = max(widths[k], len(cell))
    def line(cells):
        return "  ".join(cell.ljust(widths[k]) for k, cell in enumerate(cells)).rstrip()
    out = [line(head), line(["-" * w for w in widths])]
    out.extend(line(row) for row in body)
    return "\n".join(out) + "\n"
