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
"""

from __future__ import annotations

from itertools import count
from typing import Any, Iterable

import numpy as np


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


def _is_inline_sequence(value: Any) -> bool:
    return isinstance(value, (list, tuple)) and all(
        isinstance(item, (int, np.integer, str)) and not isinstance(item, bool)
        for item in value
    )


def _is_state_vector(value: Any) -> bool:
    return (isinstance(value, np.ndarray) and value.ndim == 1
            and value.dtype.kind == "c")


def _vector_lines(path: str, vec: np.ndarray) -> list[str]:
    # repr of a Python float is what format_scalar prints for it
    lines: list[str] = []
    for k, re, im in zip(count(1), map(repr, vec.real.tolist()),
                         map(repr, vec.imag.tolist())):
        lines.append(f"{path}.{k}.re = {re}")
        lines.append(f"{path}.{k}.im = {im}")
    return lines


def kv_lines(tree: dict[str, Any], prefix: str = "") -> list[str]:
    """Flatten a report tree into `path = value` lines, depth first."""
    lines: list[str] = []
    for key, value in tree.items():
        path = f"{prefix}{key}"
        if value is None:
            continue
        if isinstance(value, dict):
            lines.extend(kv_lines(value, f"{path}."))
        elif _is_state_vector(value):
            lines.extend(_vector_lines(path, value))
        elif isinstance(value, (complex, np.complexfloating)):
            z = complex(value)
            lines.append(f"{path}.re = {format_scalar(z.real)}")
            lines.append(f"{path}.im = {format_scalar(z.imag)}")
        elif _is_inline_sequence(value):
            lines.append(f"{path} = {' '.join(format_scalar(v) for v in value)}")
        elif isinstance(value, (list, tuple)):
            lines.extend(kv_lines({str(k): v for k, v in enumerate(value)}, f"{path}."))
        else:
            lines.append(f"{path} = {format_scalar(value)}")
    return lines


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
