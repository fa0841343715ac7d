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
row, rows ascending.  Within a row, declared operators and their row
scalings keep declaration order (a stable sort by row); products are
stored by (row, col).  Every sum over a row runs in storage order.
One store rule decides what every operator holds, however it was built:
values become complex, a non-finite one (NaN included) raises a
ValueError naming its entry, and only exact zeros are dropped: no unit
makes a structural zero.  _store applies it to arrays.  Record columns are
checked on whole arrays in one place, _checked_columns, which gives None
on any fault; its callers keep only their own gates: _array_records
those of a long record list (triples, int labels, complex or float
values), and the spec loader, its only caller outside this module,
those of its JSON records.  Lists of up to _LOOP_RECORDS records, where numpy's
fixed cost per call would dominate, and any that fail are checked and
stored record by record in _loop_records, the only code that names a fault.
Both read a record's items 0, 1 and 2 by position (_triple), so a record
list gives the same operator or the same fault whatever its length.  The
transfer build has one path at every size: it scans the levels and forms
the products in Python, and T keeps V's rows and columns or raises, so no
coupling is lost between V and T (_row_scaled).

Products and norms work on whole arrays with Python's roundings: a
complex product is formed from four float products as Python forms it
(_products), moduli come from hypot as Python's abs does, and bincount
adds the terms of each bin in index order from 0.0, as a left-to-right
loop does (_bin_sums); _apply and matmul share both.  matmul works in
row panels of a, about _PANEL_TERMS terms each (_panels), so its
temporaries follow a panel's terms, not the whole product's, and no
array has (dim + 1)^2 bins.  A panel's bins are its rows' flat keys
when dense enough, the stored keys being those of the nonzero sums,
else its distinct keys; each bin adds the same terms in the same order
either way and whatever the panels, since a row never spans two.  Sums
in (row, col) order (_sorted) skip the lexsort when the entries are
stored so, as products are.  An operator holds its three stored arrays
and nothing derived from them; a caller that walks rows derives the
row pointer once per call (_row_ptr), and one that walks columns the
stable by-source index (_by_source).  Stable sorts by key: _stable_order.
"""

from __future__ import annotations

import math
import sys
from cmath import isfinite
from itertools import accumulate
from operator import index, itemgetter
from typing import Iterable, Iterator

import numpy as np

from .errors import DimensionError, ResonanceError

# Least gap between the energy and a free level, over max(|E|, max|H0|).
RESONANCE_MARGIN = 1e-10

NORM_KINDS = ("inf", "one", "fro")

# Record lists up to this length are checked and stored record by record:
# the whole-array checks cost a fixed 40 us or so, the loop about 0.8 us a
# record, and the two break even near 48 records (2-core Xeon VM).
_LOOP_RECORDS = 48

# matmul sums a panel's terms in one bin per flat key (row - first row) *
# (dim + 1) + col, with no sort, when there are at most this many keys a
# term; else in one bin per distinct key, which np.unique sorts out.  The
# flat bins won at up to 3.7 keys a term and lost from 4.2 on (random
# products, dim 10-600, 2-core Xeon VM; BENCH_truncation_floor.json).
_FLAT_BINS = 3

# matmul forms and sums the terms of a's rows one panel of about this many
# terms at a time.  A panel is sized in terms, not in rows or entries,
# because its temporaries (indices, keys, gathered amplitudes, products)
# hold a few numbers a term, and an entry of a starts anywhere from none
# to dim terms.  Of 4096 to 65536, 8192 and 16384 ran resolvent_truncation's
# requests fastest, tied within noise (2-core Xeon VM; BENCH_row_panels.json).
_PANEL_TERMS = 16384

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
    complex; the first non-finite one raises, naming its entry; exact
    zeros go.  Order is kept.
    """
    amp = np.ascontiguousarray(amp, dtype=complex)
    finite = np.isfinite(amp)
    if np.count_nonzero(finite) < amp.size:
        k = int(finite.argmin())
        raise ValueError(f"entry ({row[k]}, {col[k]}) is not finite: {complex(amp[k])}")
    keep = amp != 0
    if np.count_nonzero(keep) < amp.size:
        row, col, amp = row[keep], col[keep], amp[keep]
    return _fill(op, dim, row, col, amp)


def _fill(op: "SparseOperator", dim: int, row, col, amp) -> "SparseOperator":
    """Fill op's slots with arrays that satisfy the store rule."""
    op.dim = dim
    op._row, op._col, op._amp = row, col, amp
    return op


def _loop_records(dim: int, records: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check and store records one by one; their rows, columns and values as arrays.

    Every record is read as _triple reads it.  Index faults are found
    first, in record order: a record that is no triple, a non-integral
    label, one outside 1..dim, a repeated position.  Values are then made
    complex and tested for finiteness row by row, rows in order of first
    appearance.  The first fault raises a ValueError naming its record
    by position or its entry by labels; a record with neither a length
    nor items raises a TypeError naming it.
    What is kept follows the store rule, record by record: exact zeros
    go; storage order is by row, each row in declaration order.
    """
    rows: dict[int, dict[int, complex]] = {}
    for record in records:
        if type(record) is not tuple or len(record) != 3:
            try:
                record = _triple(record)
            except (TypeError, ValueError) as fault:
                # every record before this one stored one entry, so their count is its position
                raise type(fault)(f"record {sum(map(len, rows.values()))} {fault}") from None
        row, col, amp = record
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
            if value:
                row_of.append(row)
                col_of.append(col)
                amp_of.append(value)
    labels = np.array(row_of + col_of, dtype=np.intp)
    return labels[:len(row_of)], labels[len(row_of):], np.array(amp_of, dtype=complex)


def _triple(record) -> tuple:
    """A record's (row, col, amplitude): its items 0, 1 and 2, as _array_records reads them.

    A record with a length is read by position, so a tuple, a list and a
    mapping with keys 0, 1 and 2 read alike whatever the list's length;
    one without a length, an iterator, is read by iteration.  A record
    that does not give exactly three items raises a ValueError, a
    TypeError if it has neither a length nor items.
    """
    problem = "is not a (row, col, amplitude) triple"
    try:
        size = len(record)
    except TypeError:
        try:
            record = tuple(record)
        except TypeError:
            raise TypeError(f"{problem}: {record!r}") from None
        size = len(record)
    if size != 3:
        count = "not enough values" if size < 3 else "too many values"
        raise ValueError(f"{problem}, {count}: {record!r}")
    try:
        return record[0], record[1], record[2]
    except (TypeError, LookupError):  # a set, or a mapping without keys 0, 1 and 2
        raise ValueError(f"{problem}: {record!r}") from None


def _array_records(dim: int, records: list):
    """Rows, columns and values of records, in storage order, if all pass _checked_columns.

    None also for records that are not read by position as triples and
    for labels or values of other types than int and complex or float;
    the loop decides those.
    """
    try:
        if set(map(len, records)) != {3}:
            return None
        # itemgetter, not zip(*records): that makes an iterator per record,
        # and so many short-lived containers set off the cyclic collector
        rows, cols, amps = (list(map(itemgetter(k), records)) for k in range(3))
    except (TypeError, LookupError):  # a record without a length or an item 0, 1 or 2
        return None
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
    # the (row, col) keys below are less than this bound, so none wraps
    if (dim + 1) ** 2 > np.iinfo(np.intp).max:
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
    order = _stable_order(row, dim + 1)
    return row[order], col[order], amp[order]


def _stable_order(keys: np.ndarray, size: int) -> np.ndarray:
    """Indices that sort keys, each in 0..size-1, stably: equal keys keep their order.

    numpy sorts 16-bit keys stably by radix, so keys that fit are cast to them.
    """
    if size <= 1 << 16:
        keys = keys.astype(np.uint16)
    return keys.argsort(kind="stable")


class SparseOperator:
    """Immutable sparse complex matrix with 1-based indices.

    Used for transfer operators and interaction potentials alike.  No
    method mutates an instance; arithmetic returns new operators.
    """

    __slots__ = ("dim", "_row", "_col", "_amp")

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
    def identity(cls, dim: int) -> "SparseOperator":
        dim = _size(dim, "dimension")
        labels = np.arange(1, dim + 1, dtype=np.intp)
        return cls._from_arrays(dim, labels, labels, np.ones(dim, dtype=complex))

    @property
    def nnz(self) -> int:
        return self._amp.size

    def entries(self) -> Iterator[Entry]:
        """Stored entries as (row, col, amplitude), sorted by (row, col)."""
        order = self._sorted()
        return zip(self._row[order].tolist(), self._col[order].tolist(),
                   self._amp[order].tolist())

    def _row_ptr(self) -> np.ndarray:
        """Row pointer, derived anew on each call: row j's entries sit at ptr[j - 1]:ptr[j]."""
        return np.add.accumulate(np.bincount(self._row, minlength=self.dim + 1))

    def _by_source(self) -> tuple[np.ndarray, list[int]]:
        """Stored entries by column, derived anew on each call, and the column pointer.

        Returns (order, ptr): order lists the entry indices stably by
        column, so in storage order within a column; column i's entries
        are order[ptr[i - 1]:ptr[i]].  ptr is a list, as its callers walk it.
        """
        count = np.bincount(self._col, minlength=self.dim + 1).tolist()
        return _stable_order(self._col, self.dim + 1), list(accumulate(count))

    def _sorted(self) -> np.ndarray | slice:
        """Index of the stored entries in (row, col) order; all of them as stored if already so.

        Rows never descend in storage order, so the entries are sorted
        when each one starts a new row or has a larger column than the one
        before; products are stored so, and skip the lexsort.
        """
        row, col = self._row, self._col
        if np.all((row[1:] > row[:-1]) | (col[1:] > col[:-1])):
            return slice(None)
        return np.lexsort((col, row))

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        out[self._row - 1, self._col - 1] = self._amp
        return out

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
    """Unit amplitude on basis state `label` (1-based), else zero; TypeError unless integral."""
    label = _label(label)
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

    Validates the state, then sums each row's products in storage order
    with Python's roundings (see the module docstring); the operator is
    never densified and nothing is dropped from the result.
    """
    return _apply(op, as_state_vector(vec, op.dim))


def _apply(op: SparseOperator, v: np.ndarray) -> np.ndarray:
    """matvec for a state already checked by as_state_vector; a new array."""
    return _bin_sums(op._row - 1, *_products(op._amp, v[op._col - 1]), op.dim)


def _products(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of x * y, from four float products as Python forms them.

    numpy's complex multiply may fuse one product into the sum.
    """
    xr, xi, yr, yi = x.real, x.imag, y.real, y.imag
    return xr * yr - xi * yi, xr * yi + xi * yr


def _bin_sums(bins: np.ndarray, re: np.ndarray, im: np.ndarray, size: int) -> np.ndarray:
    """Complex sums of re + i im over each of size bins, in index order from 0.0."""
    out = np.empty(size, dtype=complex)
    out.real = np.bincount(bins, re, size)
    out.imag = np.bincount(bins, im, size)
    return out


def matmul(a: SparseOperator, b: SparseOperator) -> SparseOperator:
    """Sparse operator product a b, row by row (Gustavson), stored by (row, col).

    Every term a[row, mid] b[mid, col] is formed by _products, a's
    entries in storage order and each followed through b's row mid in
    storage order.  a's rows are cut into panels of about _PANEL_TERMS
    terms, never inside a row, and the panels are formed and summed one
    after another.  An output entry sums its panel's terms in that order
    from 0, in a bin of its own: one of the panel's (rows) * (dim + 1)
    flat keys, relative to its first row, when that is at most
    _FLAT_BINS keys a term, the stored keys being those of the nonzero
    sums (NaN is not zero, so _store still names it); else one of the
    distinct keys, from np.unique.  The two give the same bits, and so
    does any panel size: an entry's terms all lie in its row's panel, in
    the same order.
    """
    if a.dim != b.dim:
        raise DimensionError(f"cannot multiply dimension {a.dim} by {b.dim}")
    ptr = b._row_ptr()
    start = ptr[a._col - 1]
    count = ptr[a._col] - start
    width = a.dim + 1
    keys, sums = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=complex)]
    for lo, hi in _panels(a._row, count):
        n = count[lo:hi]
        left = np.repeat(np.arange(lo, hi), n)
        right = np.arange(left.size) + np.repeat(start[lo:hi] - (np.cumsum(n) - n), n)
        first = a._row[lo]
        flat = (a._row[left] - first) * width + b._col[right]
        with np.errstate(over="ignore", invalid="ignore"):  # _store rejects what overflowed
            products = _products(a._amp[left], b._amp[right])
        span = (a._row[hi - 1] - first + 1) * width
        if span <= _FLAT_BINS * flat.size:
            re, im = (np.bincount(flat, part, span) for part in products)
            key = np.flatnonzero((re != 0) | (im != 0))
            out = np.empty(key.size, dtype=complex)
            out.real, out.imag = re[key], im[key]
        else:
            key, slot = np.unique(flat, return_inverse=True)
            out = _bin_sums(slot, *products, key.size)
        keys.append(key + first * width)
        sums.append(out)
    row, col = np.divmod(np.concatenate(keys), width)
    return SparseOperator._from_arrays(a.dim, row, col, np.concatenate(sums))


def _panels(row: np.ndarray, count: np.ndarray) -> Iterator[tuple[int, int]]:
    """(lo, hi) slices of entries in storage order, cut at row starts about every _PANEL_TERMS terms.

    count[k] is the number of terms entry k starts.  The first row starts
    a panel, and so does each later row whose terms before it have passed
    a multiple of _PANEL_TERMS that those before the previous row had not.
    """
    starts = np.flatnonzero(np.diff(row, prepend=0))
    before = (np.cumsum(count) - count)[starts]
    cuts = starts[np.flatnonzero(np.diff(before // _PANEL_TERMS, prepend=-1))].tolist()
    return zip(cuts, cuts[1:] + [row.size])


def power(op: SparseOperator, k: int) -> SparseOperator:
    """k-th operator power, k >= 0.

    The identity for k = 0; otherwise op, multiplied by op k - 1 times,
    so power(op, 1) is op and power(op, 2) is matmul(op, op), bit for
    bit.  Each step reuses the previous power; once a power comes out
    structurally zero all higher ones are too, so the loop stops early.
    """
    if k < 0:
        raise ValueError(f"power needs k >= 0, got {k}")
    out = op if k else SparseOperator.identity(op.dim)
    for _ in range(k - 1):
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
        return _root_sum_squares(modulus)
    key = op._row if kind == "inf" else op._col
    return float(np.bincount(key[order], modulus).max())


def _root_sum_squares(modulus: np.ndarray) -> float:
    """Root of the sum of squares of a non-empty array, as Python's ** and += round in index order.

    A sum outside the normal range is formed again over the values divided by the largest.
    """
    top = 1.0
    with np.errstate(over="ignore"):
        total = np.cumsum(np.float_power(modulus, 2.0))[-1]
    if not np.finfo(float).tiny <= total < math.inf and 0.0 < modulus.max() < math.inf:
        top = modulus.max()
        total = np.cumsum(np.float_power(modulus / top, 2.0))[-1]
    return float(top * math.sqrt(total))


def vector_norm(vec, kind: str = "inf") -> float:
    """Vector norm compatible with the operator norm of the same kind; "fro" sums as it does."""
    v = np.asarray(vec, dtype=complex)
    if kind == "inf":
        return float(np.max(np.abs(v))) if v.size else 0.0
    if kind == "one":
        return float(np.sum(np.abs(v)))
    if kind == "fro":
        return _root_sum_squares(np.hypot(v.real, v.imag)) if v.size else 0.0
    raise ValueError(f"unknown norm kind {kind!r}; expected one of {NORM_KINDS}")


def free_resolvent_diagonal(h0_diagonal, energy: complex) -> np.ndarray:
    """Diagonal of (E - H0)^(-1) for a diagonal free Hamiltonian.

    Raises ResonanceError when the energy comes within RESONANCE_MARGIN *
    max(|E|, max|H0|) of any level, a margin on the Hamiltonian's own
    scale; a complex energy keeps a probe near a level well posed.  Raises
    ValueError for a non-finite level or energy, an |E| beyond the largest
    float, a gap whose modulus or reciprocal overflows (which would drop
    its row) and a least gap below the least normal float (whose
    reciprocal may overflow), naming the first such or nearest level.
    Levels are scanned as Python floats; gaps and reciprocals are numpy's.
    """
    h0 = np.asarray(h0_diagonal, dtype=float)
    if h0.ndim != 1 or h0.size == 0:
        raise ValueError("free Hamiltonian must be a non-empty 1-d real array")
    levels = h0.tolist()
    if not all(map(math.isfinite, levels)):
        raise ValueError("free Hamiltonian has non-finite levels")
    e = complex(energy)
    if not isfinite(e):
        raise ValueError(f"energy is not finite: {e}")
    rescale = "; rescale the Hamiltonian and energy"
    try:
        scale = max(abs(e), max(map(abs, levels)))
    except OverflowError:
        raise ValueError(f"energy {e} has a modulus beyond the largest float{rescale}") from None
    if scale >= 2.0**1022:  # else neither |E - H0[j]| <= 2 * scale nor 1 / (E - H0[j]) overflows
        with np.errstate(all="ignore"):  # a zero gap is a resonance, refused below
            gaps = e - h0
            lost = np.flatnonzero(np.isinf(np.abs(gaps)) | (1.0 / gaps == 0))
        if lost.size:
            raise ValueError(f"energy {e} is beyond the largest float from free level {lost[0] + 1}"
                             + rescale)
    threshold = RESONANCE_MARGIN * scale
    gaps = e - h0
    distance = list(map(abs, gaps.tolist()))
    least = min(distance)
    if least <= threshold or least < sys.float_info.min:
        level = distance.index(least) + 1
        if least <= threshold:
            raise ResonanceError(level=level, energy=e, gap=least, threshold=threshold)
        raise ValueError(f"energy {e} is within {least:.3e} of free level {level}, below the least "
                         f"normal float {sys.float_info.min:.3e}{rescale}")
    return 1.0 / gaps


def build_transfer_operator(h0_diagonal, potential: SparseOperator,
                            energy: complex) -> SparseOperator:
    """Compose the free resolvent with the interaction: T[j, i] = V[j, i] * (1 / (E - H0[j])).

    Each entry is one Python product of V's amplitude and the reciprocal
    free_resolvent_diagonal gives, so T is not scale invariant at the top
    of the float range (ROADMAP, known defects).  T keeps the sparsity
    pattern, so the transition graph, of V, or raises: see _row_scaled.
    """
    h0 = np.asarray(h0_diagonal, dtype=float)
    if h0.shape != (potential.dim,):
        raise DimensionError(f"free Hamiltonian has shape {h0.shape}, "
                             f"potential has dimension {potential.dim}")
    return _row_scaled(potential, free_resolvent_diagonal(h0, energy))


def _row_scaled(op: SparseOperator, factors: np.ndarray) -> SparseOperator:
    """Operator with op's rows and columns and entries factors[row - 1] * op[row, col].

    The products are Python's.  op holds no zeros and the transfer build's
    factors are finite and nonzero, so the first product in storage order
    that is zero (lost to underflow) or not finite raises, naming its entry.
    """
    factor, rows, amps = factors.tolist(), op._row.tolist(), op._amp.tolist()
    amp = [factor[r - 1] * a for r, a in zip(rows, amps)]
    if 0 in amp or not all(map(isfinite, amp)):
        k = next(k for k, x in enumerate(amp) if not (x and isfinite(x)))
        entry = f"entry ({rows[k]}, {op._col[k]})"
        if amp[k]:
            raise ValueError(f"{entry} is not finite: {amp[k]}")
        raise ValueError(f"{entry} underflows to zero: {amps[k]} * {factor[rows[k] - 1]}, "
                         "which would drop its coupling; rescale the potential")
    out = SparseOperator.__new__(SparseOperator)
    return _fill(out, op.dim, op._row, op._col, np.array(amp, dtype=complex))
