"""Sparse complex operators over a finite ordered basis.

Basis states carry the 1-based labels 1..dim of the kets |1>..|n|.  A
stored matrix entry (row j, col i) holds the amplitude for the transition
from state i to state j, so columns index the source state and rows the
target state.  State vectors are plain numpy arrays of complex128 whose
position k holds the amplitude of basis state k + 1.

Absence of an entry is a structural zero: the transition graph, and with
it every nilpotency statement, is read off the stored pattern.

An operator stores one CSR-style set of numpy arrays: for every entry its
row, column and amplitude.  Entries are in storage order: grouped by
row, rows ascending, and each row in the order its entries were declared
(a stable sort by row).  Every sum over a row runs in storage order.
One store rule decides what every operator holds, however it was built:
values become complex, a non-finite one (NaN included) raises a
ValueError naming its entry, and values at or below ZERO_THRESHOLD in
modulus are dropped.  _store applies it to arrays.  Record columns are
checked on whole arrays in one place, _checked_columns, which gives None
on any fault; its callers keep only their own gates: _array_records
those of a long record list (triples, int labels, complex or float
values), the spec loader those of its JSON records, and the benchmark
generator none.  Lists of up to _LOOP_RECORDS records, where numpy's
fixed cost per call would dominate, and any that fail are checked and
stored record by record in _loop_records, the only code that names a fault.

Products and norms work on whole arrays with Python's roundings: a
complex product is formed from four float products as Python forms it,
moduli come from hypot as Python's abs does, and bincount adds the terms
of each bin in index order from 0.0, as a left-to-right loop does.  The
first time they are needed, an operator derives the row pointer (row
j's entries sit at ptr[j - 1]:ptr[j]) and the kernel arrays of _apply
from the store and caches them in the _ptr and _arrays slots; the caches
play no part in equality, and since the stored arrays are never mutated
they cannot go stale.
"""

from __future__ import annotations

import math
from cmath import isfinite
from operator import index, itemgetter
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

# Record lists up to this length are checked and stored record by record:
# the whole-array checks cost a fixed 40 us or so, the loop about 0.8 us a
# record, and the two break even near 48 records (2-core Xeon VM).
_LOOP_RECORDS = 48

Entry = tuple[int, int, complex]


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


def _store(op: "SparseOperator", dim: int, row, col, amp) -> "SparseOperator":
    """The one store rule: fill op with the given entries, which are in storage order.

    row and col are integer arrays of valid labels.  Values become
    complex; the first non-finite one raises, naming its entry; those at
    or below ZERO_THRESHOLD in modulus go.  Order is kept.
    """
    amp = np.ascontiguousarray(amp, dtype=complex)
    finite = np.isfinite(amp)
    if np.count_nonzero(finite) < amp.size:
        k = int(finite.argmin())
        raise ValueError(f"entry ({row[k]}, {col[k]}) is not finite: {complex(amp[k])}")
    keep = np.hypot(amp.real, amp.imag) > ZERO_THRESHOLD
    if np.count_nonzero(keep) < amp.size:
        row, col, amp = row[keep], col[keep], amp[keep]
    return _fill(op, dim, row, col, amp)


def _fill(op: "SparseOperator", dim: int, row, col, amp) -> "SparseOperator":
    """Fill op's slots with arrays that already satisfy the store rule."""
    op.dim = dim
    op._row, op._col, op._amp = row, col, amp
    op._ptr = op._arrays = None
    return op


def _loop_records(dim: int, records: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check and store records one by one; their rows, columns and values as arrays.

    Index faults are found first, in record order: a non-integral label,
    one outside 1..dim, a repeated position.  Values are then made
    complex and tested for finiteness row by row, rows in order of first
    appearance.  The first fault raises a ValueError naming its entry.
    What is kept follows the store rule, record by record: values at or
    below ZERO_THRESHOLD in modulus go; storage order is by row, each row
    in declaration order.
    """
    rows: dict[int, dict[int, complex]] = {}
    for row, col, amp in records:
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
    for row, cols in rows.items():
        for col, amp in cols.items():
            value = cols[col] = complex(amp)
            if not isfinite(value):
                raise ValueError(f"entry ({row}, {col}) is not finite: {value}")
    row_of: list[int] = []
    col_of: list[int] = []
    amp_of: list[complex] = []
    for row in sorted(rows):
        for col, value in rows[row].items():
            if abs(value) > ZERO_THRESHOLD:
                row_of.append(row)
                col_of.append(col)
                amp_of.append(value)
    labels = np.array(row_of + col_of, dtype=np.intp)
    return labels[:len(row_of)], labels[len(row_of):], np.array(amp_of, dtype=complex)


def _array_records(dim: int, records: list):
    """Rows, columns and values of records, in storage order, if all pass _checked_columns.

    None also for records that are not triples and for labels or values
    of other types than int and complex or float; the loop decides those.
    """
    try:
        if set(map(len, records)) != {3}:
            return None
    except TypeError:  # a record without a length
        return None
    # itemgetter, not zip(*records): that makes an iterator per record,
    # and so many short-lived containers set off the cyclic collector
    rows, cols, amps = (list(map(itemgetter(k), records)) for k in range(3))
    if set(map(type, rows)) | set(map(type, cols)) != {int}:
        return None
    if not {complex, float}.issuperset(map(type, amps)):
        return None
    return _checked_columns(dim, rows, cols, np.array(amps, dtype=complex))


def _checked_columns(dim: int, rows, cols, amp: np.ndarray):
    """Record columns stably sorted by row, into storage order, if they pass; else None.

    rows and cols hold int labels, amp complex values, in declaration
    order.  Faults: a label outside 1..dim, a repeated (row, col), a
    non-finite value, a label or sort key beyond intp.  Zero entries pass.
    """
    # every sort key below is less than this bound, so none wraps
    if (dim + 1) * max(dim + 1, amp.size) > np.iinfo(np.intp).max:
        return None
    try:
        row = np.asarray(rows, dtype=np.intp)
        col = np.asarray(cols, dtype=np.intp)
    except OverflowError:
        return None
    if row.size and (min(row.min(), col.min()) < 1 or max(row.max(), col.max()) > dim):
        return None
    keys = np.sort(row * (dim + 1) + col)
    if np.count_nonzero(keys[1:] == keys[:-1]) or np.count_nonzero(np.isfinite(amp)) < amp.size:
        return None
    # a stable sort by row: the keys row * n + position are distinct
    order = np.argsort(row * row.size + np.arange(row.size))
    return row[order], col[order], amp[order]


class SparseOperator:
    """Immutable sparse complex matrix with 1-based indices.

    Used for transfer operators and interaction potentials alike.  No
    method mutates an instance; arithmetic returns new operators.
    """

    __slots__ = ("dim", "_ptr", "_row", "_col", "_amp", "_arrays")

    def __init__(self, dim: int, entries: Iterable[Entry] = ()):
        dim = _size(dim, "dimension")
        records = entries if isinstance(entries, list) else list(entries)
        checked = _array_records(dim, records) if len(records) > _LOOP_RECORDS else None
        if checked is None:
            _fill(self, dim, *_loop_records(dim, records))
        else:
            _store(self, dim, *checked)

    @classmethod
    def _from_arrays(cls, dim: int, row, col, amp) -> "SparseOperator":
        """Operator holding entries with valid labels, given in storage order; see _store."""
        return _store(cls.__new__(cls), dim, row, col, amp)

    @classmethod
    def zero(cls, dim: int) -> "SparseOperator":
        return cls(dim)

    @classmethod
    def identity(cls, dim: int) -> "SparseOperator":
        dim = _size(dim, "dimension")
        labels = np.arange(1, dim + 1)
        return cls._from_arrays(dim, labels, labels, np.ones(dim, dtype=complex))

    @classmethod
    def from_dense(cls, matrix) -> "SparseOperator":
        a = np.asarray(matrix, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        row, col = np.nonzero(a)
        return cls._from_arrays(_size(a.shape[0], "dimension"), row + 1, col + 1, a[row, col])

    @property
    def nnz(self) -> int:
        return self._amp.size

    def entry(self, row: int, col: int) -> complex:
        """Stored amplitude at (row, col); structural zeros come back as 0."""
        if 1 <= row <= self.dim:
            ptr = self._row_ptr()
            lo, hi = ptr[row - 1], ptr[row]
            hit = np.flatnonzero(self._col[lo:hi] == col)
            if hit.size:
                return complex(self._amp[lo + hit[0]])
        return 0j

    def entries(self) -> Iterator[Entry]:
        """Stored entries as (row, col, amplitude), sorted by (row, col)."""
        order = self._sorted()
        return zip(self._row[order].tolist(), self._col[order].tolist(),
                   self._amp[order].tolist())

    def _row_ptr(self) -> np.ndarray:
        """Row pointer, derived on first use: row j's entries sit at ptr[j - 1]:ptr[j]."""
        if self._ptr is None:
            self._ptr = np.add.accumulate(np.bincount(self._row, minlength=self.dim + 1))
        return self._ptr

    def _sorted(self) -> np.ndarray:
        """Positions of the stored entries in (row, col) order."""
        return np.lexsort((self._col, self._row))

    def index_set(self) -> set[tuple[int, int]]:
        return set(zip(self._row.tolist(), self._col.tolist()))

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        out[self._row - 1, self._col - 1] = self._amp
        return out

    def scaled(self, factor: complex) -> "SparseOperator":
        return _row_scaled(self, np.full(self.dim, factor, dtype=complex))

    def is_zero(self) -> bool:
        return not self._amp.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseOperator):
            return NotImplemented
        if self.dim != other.dim or not np.array_equal(self._row, other._row):
            return False
        mine, theirs = self._sorted(), other._sorted()
        return (np.array_equal(self._col[mine], other._col[theirs])
                and np.array_equal(self._amp[mine], other._amp[theirs]))

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
    if np.count_nonzero(np.isfinite(v)) < v.size:
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
_PAIR_OFFSETS = np.array([-2, -1], dtype=np.intp)


def _index_arrays(op: SparseOperator):
    """_apply's cached arrays, entries in storage order.

    rows: the interleaved output position of each product pair; gather:
    positions in the interleaved state; amps: (ar, ai) pairs, then
    (-ai, ar) pairs.
    """
    r, c, a = op._row, op._col, op._amp
    swapped = np.conj(a).view(float).reshape(-1, 2)[:, ::-1]
    return (
        ((r + r)[:, None] + _PAIR_OFFSETS).ravel(),
        ((c + c)[None, :, None] + _GATHER_OFFSETS).ravel(),
        np.concatenate((a.view(float), swapped.ravel())),
    )


def matmul(a: SparseOperator, b: SparseOperator) -> SparseOperator:
    """Sparse operator product a b, row by row (Gustavson), stored by _store.

    Every term a[row, mid] b[mid, col] is formed, a's entries in storage
    order and each followed through b's row mid in storage order, from
    four float products as Python's complex product forms it (numpy's
    complex multiply may fuse one into the sum).  An output entry sums
    its terms in that order from 0, and each output row keeps its columns
    in the order its terms first reach them.
    """
    if a.dim != b.dim:
        raise DimensionError(f"cannot multiply dimension {a.dim} by {b.dim}")
    ptr = b._row_ptr()
    start = ptr[a._col - 1]
    count = ptr[a._col] - start
    left = np.repeat(np.arange(a.nnz), count)
    right = np.arange(left.size) + np.repeat(start - (np.cumsum(count) - count), count)
    if not left.size:
        return SparseOperator(a.dim)
    width = a.dim + 1
    keys = a._row[left] * width + b._col[right]
    # group the terms by key; each group's first term is its smallest index
    order = keys.argsort()
    keys = keys[order]
    new = np.empty(keys.size, dtype=bool)
    new[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    slot = np.empty_like(order)
    slot[order] = np.cumsum(new) - 1
    with np.errstate(over="ignore", invalid="ignore"):  # _store rejects what overflowed
        xr, xi = a._amp.real[left], a._amp.imag[left]
        yr, yi = b._amp.real[right], b._amp.imag[right]
        re = xr * yr - xi * yi
        im = xr * yi + xi * yr
    out = np.empty(starts.size, dtype=complex)
    out.real = np.bincount(slot, re, starts.size)
    out.imag = np.bincount(slot, im, starts.size)
    placed = np.argsort(np.minimum.reduceat(order, starts))
    keys = keys[starts[placed]]
    return SparseOperator._from_arrays(a.dim, keys // width, keys % width, out[placed])


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
    relies on; "fro" is offered for reporting only.  Every sum runs over
    the entries in (row, col) order.
    """
    if kind not in NORM_KINDS:
        raise ValueError(f"unknown norm kind {kind!r}; expected one of {NORM_KINDS}")
    if op.is_zero():
        return 0.0
    order = op._sorted()
    amp = op._amp[order]
    modulus = np.hypot(amp.real, amp.imag)
    if kind == "fro":
        # float_power is libm's pow, as Python's ** is; cumsum adds in order
        return math.sqrt(np.cumsum(np.float_power(modulus, 2.0))[-1])
    key = op._row if kind == "inf" else op._col
    return float(np.bincount(key[order], modulus).max())


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
    if np.count_nonzero(np.isfinite(h0)) < h0.size:
        raise ValueError("free Hamiltonian has non-finite levels")
    e = complex(energy)
    threshold = RESONANCE_MARGIN * (1.0 + abs(e))
    gaps = e - h0
    distance = np.abs(gaps)
    if distance.min() <= threshold:
        worst = int(distance.argmin())
        raise ResonanceError(
            level=worst + 1, energy=e, gap=float(distance[worst]), threshold=threshold
        )
    return 1.0 / gaps


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
    return _row_scaled(potential, free_resolvent_diagonal(h0, energy))


def _row_scaled(op: SparseOperator, factors: np.ndarray) -> SparseOperator:
    """Operator with entries factors[row - 1] * T[row, col], in (row, col) order."""
    order = op._sorted()
    row = op._row[order]
    factor = factors.tolist()
    amp = [factor[r - 1] * a for r, a in zip(row.tolist(), op._amp[order].tolist())]
    return SparseOperator._from_arrays(op.dim, row, op._col[order], amp)
