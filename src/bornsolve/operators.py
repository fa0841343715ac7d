"""Sparse complex operators over a finite ordered basis.

Basis states carry the 1-based labels 1..dim of the kets |1>..|n|.  A
stored matrix entry (row j, col i) holds the amplitude for the transition
from state i to state j, so columns index the source state and rows the
target state.  State vectors are plain numpy arrays of complex128 whose
position k holds the amplitude of basis state k + 1.

Absence of an entry is a structural zero: the transition graph, and with
it every nilpotency statement, is read off the stored pattern.  One store
rule, _store, decides what every operator holds, however it was built: a
non-finite value (NaN included) raises a ValueError naming its entry, and
values at or below ZERO_THRESHOLD in modulus are dropped.

The stored rows are the only source of truth.  The first time an
operator is applied to a state it derives flat arrays from them (for
every entry, in storage order: its output row, the positions of its
column's real and imaginary parts in the state, and its amplitude's
real and imaginary parts) and caches them in the _arrays slot; every
application is then an O(nnz) gather, product and per-row sum in numpy.
The cache is derived data: it plays no part in equality, and since the
rows are never mutated it cannot go stale.
"""

from __future__ import annotations

import math
from cmath import isfinite
from operator import index
from typing import Iterable, Iterator

import numpy as np

from .errors import DimensionError, ResonanceError

# Dropped-entry modulus: anything at or below this after arithmetic is
# treated as a structural zero.
ZERO_THRESHOLD = 1e-14

# Minimum allowed distance between the energy and a free level, relative
# to 1 + |E|.
RESONANCE_MARGIN = 1e-10

NORM_KINDS = ("inf", "one", "fro")

Entry = tuple[int, int, complex]

_NO_COLS: dict[int, complex] = {}


def _label(value) -> int:
    """A basis label as int; TypeError unless integral (bool is not)."""
    if isinstance(value, bool):
        raise TypeError("bool is not a basis label")
    return index(value)


def _size(value, name: str) -> int:
    """A dimension as int; ValueError unless a positive integer (bool is not)."""
    try:
        size = _label(value)
    except TypeError:
        size = 0
    if size < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return size


def _store(rows: dict[int, dict[int, complex]]) -> dict[int, dict[int, complex]]:
    """The one store rule, applied in place to freshly built rows, which it returns.

    Values become complex; a non-finite one raises, naming its entry; those
    at or below ZERO_THRESHOLD go, and so do rows left empty.  Order is kept.
    """
    dropped = []
    for row, cols in rows.items():
        for col, amp in cols.items():
            value = cols[col] = complex(amp)
            if not isfinite(value):
                raise ValueError(f"entry ({row}, {col}) is not finite: {value}")
            if abs(value) <= ZERO_THRESHOLD:
                dropped.append((row, col))
    for row, col in dropped:
        cols = rows[row]
        del cols[col]
        if not cols:
            del rows[row]
    return rows


class SparseOperator:
    """Immutable sparse complex matrix with 1-based indices.

    Used for transfer operators and interaction potentials alike.  No
    method mutates an instance; arithmetic returns new operators.
    """

    __slots__ = ("dim", "_rows", "_arrays")

    def __init__(self, dim: int, entries: Iterable[Entry] = ()):
        dim = _size(dim, "dimension")
        rows: dict[int, dict[int, complex]] = {}
        for row, col, amp in entries:
            if type(row) is not int or type(col) is not int:
                try:
                    row, col = _label(row), _label(col)
                except TypeError:
                    raise ValueError(f"entry ({row}, {col}) has a non-integral index") from None
            if not (1 <= row <= dim and 1 <= col <= dim):
                raise ValueError(f"entry ({row}, {col}) outside 1..{dim}")
            cols = rows.get(row)
            if cols is None:
                cols = rows[row] = {}
            elif col in cols:
                raise ValueError(f"duplicate entry at ({row}, {col})")
            cols[col] = amp
        self.dim = dim
        self._rows = _store(rows)
        self._arrays = None

    @classmethod
    def _from_rows(cls, dim: int, rows: dict[int, dict[int, complex]]) -> "SparseOperator":
        """Operator taking over fresh, non-empty rows with valid indices; see _store."""
        op = cls.__new__(cls)
        op.dim = dim
        op._rows = _store(rows)
        op._arrays = None
        return op

    @classmethod
    def zero(cls, dim: int) -> "SparseOperator":
        return cls(dim)

    @classmethod
    def identity(cls, dim: int) -> "SparseOperator":
        return cls(dim, [(k, k, 1.0 + 0j) for k in range(1, dim + 1)])

    @classmethod
    def from_dense(cls, matrix) -> "SparseOperator":
        a = np.asarray(matrix, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        rows: dict[int, dict[int, complex]] = {}
        for j, line in enumerate(a.tolist(), 1):
            cols = {i: value for i, value in enumerate(line, 1) if value}
            if cols:
                rows[j] = cols
        return cls._from_rows(_size(a.shape[0], "dimension"), rows)

    @property
    def nnz(self) -> int:
        return sum(len(cols) for cols in self._rows.values())

    def entry(self, row: int, col: int) -> complex:
        """Stored amplitude at (row, col); structural zeros come back as 0."""
        return self._rows.get(row, _NO_COLS).get(col, 0j)

    def entries(self) -> Iterator[Entry]:
        """Stored entries as (row, col, amplitude), sorted by (row, col)."""
        for row in sorted(self._rows):
            cols = self._rows[row]
            for col in sorted(cols):
                yield row, col, cols[col]

    def index_set(self) -> set[tuple[int, int]]:
        return {(row, col) for row, cols in self._rows.items() for col in cols}

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for row, cols in self._rows.items():
            for col, amp in cols.items():
                out[row - 1, col - 1] = amp
        return out

    def scaled(self, factor: complex) -> "SparseOperator":
        return _row_scaled(self, [factor] * self.dim)

    def is_zero(self) -> bool:
        return not self._rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseOperator):
            return NotImplemented
        return self.dim == other.dim and self._rows == other._rows

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"SparseOperator(dim={self.dim}, nnz={self.nnz})"


def basis_state(dim: int, label: int) -> np.ndarray:
    """Unit amplitude on basis state `label` (1-based), zero elsewhere."""
    if not 1 <= label <= dim:
        raise ValueError(f"basis label {label} outside 1..{dim}")
    v = np.zeros(dim, dtype=complex)
    v[label - 1] = 1.0
    return v


def as_state_vector(values, dim: int) -> np.ndarray:
    """Validate and convert to a contiguous complex state vector of the given dimension."""
    v = np.asarray(values, dtype=complex, order="C")
    if v.shape != (dim,):
        raise DimensionError(f"state vector has shape {v.shape}, expected ({dim},)")
    if not np.all(np.isfinite(v)):
        raise ValueError("state vector has non-finite components")
    return v


def matvec(op: SparseOperator, vec) -> np.ndarray:
    """Apply the operator to a state: out[j] = sum_i T[j, i] vec[i].

    Validates the state, then runs the cached index-array kernel (see
    the module docstring); the operator is never densified and nothing
    is dropped from the result.
    """
    return _apply(op, as_state_vector(vec, op.dim))


def _apply(op: SparseOperator, v: np.ndarray) -> np.ndarray:
    """matvec for a state already checked by as_state_vector.

    Works on v, which as_state_vector leaves complex and contiguous,
    viewed as interleaved real and imaginary parts.  For an entry
    a = ar + i ai in column c the first product block holds (ar xr, ai xr)
    and the second (-ai xi, ar xi), where xr + i xi is v[c]; their sum is
    the complex product a * v[c] with Python's roundings.  bincount then
    adds each row's products in storage order, starting from 0.0,
    exactly like a left-to-right multiply-add loop.
    """
    arrays = op._arrays
    if arrays is None:
        arrays = op._arrays = _index_arrays(op)
    rows, gather, amps = arrays
    products = v.view(float).take(gather)
    products *= amps
    half = rows.size
    return np.bincount(
        rows, products[:half] + products[half:], 2 * op.dim
    ).view(complex)


# Gather offsets from 2 * col of the two product blocks: real parts, then
# imaginary parts, of v at the entry's 1-based column col.
_GATHER_OFFSETS = np.array([[[-2, -2]], [[-1, -1]]], dtype=np.intp)


def _index_arrays(op: SparseOperator):
    """_apply's cached arrays, entries in storage order.

    rows: the interleaved output position of each product pair; gather:
    positions in the interleaved state; amps: (ar, ai) pairs, then
    (-ai, ar) pairs.
    """
    rows: list[int] = []
    cols: list[int] = []
    amps: list[complex] = []
    for row, entries in op._rows.items():
        rows += [2 * row - 2, 2 * row - 1] * len(entries)
        cols += entries
        amps += entries.values()
    c = np.array(cols, dtype=np.intp)
    a = np.array(amps, dtype=complex)
    swapped = np.conj(a).view(float).reshape(-1, 2)[:, ::-1]
    return (
        np.array(rows, dtype=np.intp),
        ((c + c)[None, :, None] + _GATHER_OFFSETS).ravel(),
        np.concatenate((a.view(float), swapped.ravel())),
    )


def matmul(a: SparseOperator, b: SparseOperator) -> SparseOperator:
    """Sparse operator product a b; each row is accumulated, then stored by _store."""
    if a.dim != b.dim:
        raise DimensionError(f"cannot multiply dimension {a.dim} by {b.dim}")
    rows: dict[int, dict[int, complex]] = {}
    for row, cols in a._rows.items():
        acc: dict[int, complex] = {}
        for mid, left in cols.items():
            for col, right in b._rows.get(mid, _NO_COLS).items():
                acc[col] = acc.get(col, 0j) + left * right
        if acc:
            rows[row] = acc
    return SparseOperator._from_rows(a.dim, rows)


def power(op: SparseOperator, k: int) -> SparseOperator:
    """k-th operator power, k >= 0.

    Multiplies sequentially, reusing the previous power each step; once a
    power comes out structurally zero all higher ones are too, so the
    loop stops early.
    """
    if k < 0:
        raise ValueError(f"power needs k >= 0, got {k}")
    out = SparseOperator.identity(op.dim)
    for _ in range(k):
        if out.is_zero():
            break
        out = matmul(out, op)
    return out


def operator_norm(op: SparseOperator, kind: str = "inf") -> float:
    """Matrix norm of the stored entries.

    "inf" is the maximum absolute row sum, "one" the maximum absolute
    column sum, "fro" the root of the total squared modulus.  The two
    induced kinds are submultiplicative, which the truncation bound
    relies on; "fro" is offered for reporting only.
    """
    if kind not in NORM_KINDS:
        raise ValueError(f"unknown norm kind {kind!r}; expected one of {NORM_KINDS}")
    if kind == "fro":
        return math.sqrt(sum(abs(amp) ** 2 for _, _, amp in op.entries()))
    sums: dict[int, float] = {}
    for row, col, amp in op.entries():
        key = row if kind == "inf" else col
        sums[key] = sums.get(key, 0.0) + abs(amp)
    return max(sums.values(), default=0.0)


def vector_norm(vec, kind: str = "inf") -> float:
    """Vector norm compatible with the operator norm of the same kind."""
    v = np.asarray(vec, dtype=complex)
    if kind == "inf":
        return float(np.max(np.abs(v))) if v.size else 0.0
    if kind == "one":
        return float(np.sum(np.abs(v)))
    if kind == "fro":
        return float(np.linalg.norm(v))
    raise ValueError(f"unknown norm kind {kind!r}; expected one of {NORM_KINDS}")


def free_resolvent_diagonal(h0_diagonal, energy: complex) -> np.ndarray:
    """Diagonal of (E - H0)^(-1) for a diagonal free Hamiltonian.

    Raises ResonanceError when the energy comes within
    RESONANCE_MARGIN * (1 + |E|) of any level; a complex energy keeps a
    probe near a level well posed.
    """
    h0 = np.asarray(h0_diagonal, dtype=float)
    if h0.ndim != 1 or h0.size == 0:
        raise ValueError("free Hamiltonian must be a non-empty 1-d real array")
    if not np.all(np.isfinite(h0)):
        raise ValueError("free Hamiltonian has non-finite levels")
    e = complex(energy)
    threshold = RESONANCE_MARGIN * (1.0 + abs(e))
    gaps = np.abs(e - h0)
    worst = int(np.argmin(gaps))
    if gaps[worst] <= threshold:
        raise ResonanceError(
            level=worst + 1, energy=e, gap=float(gaps[worst]), threshold=threshold
        )
    return 1.0 / (e - h0)


def build_transfer_operator(
    h0_diagonal, potential: SparseOperator, energy: complex
) -> SparseOperator:
    """Compose the free resolvent with the interaction: T[j, i] = V[j, i] / (E - H0[j]).

    The result keeps the sparsity pattern of the potential, so the
    transition graph of T is the transition graph of V.
    """
    h0 = np.asarray(h0_diagonal, dtype=float)
    if h0.shape != (potential.dim,):
        raise DimensionError(
            f"free Hamiltonian has shape {h0.shape}, potential has dimension {potential.dim}"
        )
    g0 = free_resolvent_diagonal(h0, energy)
    return _row_scaled(potential, g0.tolist())


def _row_scaled(op: SparseOperator, factors) -> SparseOperator:
    """Operator with entries factors[row - 1] * T[row, col], in (row, col) order."""
    rows: dict[int, dict[int, complex]] = {}
    for row in sorted(op._rows):
        factor = factors[row - 1]
        cols = op._rows[row]
        rows[row] = out = {}
        for col, amp in sorted(cols.items()):
            out[col] = factor * amp
    return SparseOperator._from_rows(op.dim, rows)
