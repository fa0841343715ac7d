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
Input values pass four gates, each raising TypeError or ValueError:
_label (a basis label), _size (a dimension numpy can allocate), _number
(a scalar number) and _numbers (an array, by dtype kind before any cast).
One store rule decides what every operator holds, however it was built:
values become complex, a non-finite one (NaN included) raises a
ValueError naming its entry, and only exact zeros are dropped: no unit
makes a structural zero.  _store applies it to computed arrays.  Every
record list, the spec loader's too, enters through the constructor: one
of more than _LOOP_RECORDS records is checked on whole arrays, and its
nonzero entries sorted into storage order, by _array_records, which
gives None on any fault.  Shorter lists, where numpy's fixed cost per
call would dominate, and any that fail are checked and stored record by
record in _loop_records, the only code that names a fault: the first
faulty record in list order, as the spec loader does.
Both read a record's items 0, 1 and 2 by position (_triple), so a record
list gives the same operator or the same fault whatever its length.  The
transfer build has one path at every size: it scans the levels and forms
the products in Python, and T keeps V's rows and columns or raises, so no
coupling is lost between V and T (_row_scaled).

Products and norms work on whole arrays with Python's roundings: a
complex product is formed from four float products as Python forms it
(_products), moduli come from hypot as Python's abs does, and bincount
adds the terms of each bin in index order from 0.0, as a left-to-right
loop does (_bin_sums); _apply and matmul share both.  A product is a
pattern-only plan (_plan) and a values pass over it (_sums), the
symbolic and numeric phases of Gustavson's method, one row panel of a,
about _PANEL_TERMS terms, at a time (_panels): a panel is planned,
then summed, before the next is planned, so nothing larger than a
panel's terms is held besides the output, and no array has (dim + 1)^2
bins.  A panel's plan holds b's gather index and each term's bin,
int32 where they fit, and its bins are the dense rank of its rows'
flat keys, from a mark over all of them when dense enough, else from
np.unique; each bin adds the same terms in the same order either way
and whatever the panels, since a row never spans two.  Between its
steps, power keeps exact-zero sums as entries, so its plans follow the
pattern alone; only the result drops them.  The one pattern memory
(_derived) keeps what follows from a stored pattern alone, for the
next operator with it, as an energy or coupling scan's operators share
one: graph's certificate, solver's block layout and power's plans of
its first steps; matmul remembers nothing.  It holds the last
_REMEMBERED_PATTERNS patterns, most recent first, in _REMEMBERED_BYTES
in all, keys included; a fact beyond that is derived, used and not
kept.  Sums in (row, col) order (_sorted) skip the sort when the
entries are stored so, as products are.  An operator holds its three
stored arrays and nothing derived from them; a caller that walks rows
derives the row pointer once per call (_row_ptr), and one that walks
columns the stable by-source index (_by_source).  Stable sorts by key:
_stable_order.
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
# the whole-array checks cost a fixed 18-19 us and 0.23-0.25 us a record,
# the loop 2-5 us and 0.61-0.62 us a record, and the two break even at 37
# to 43 records (three linear fits over 8-128 records at dim 300, 2-core
# Xeon VM, one core pinned).  No workload's list lies near the cut.
_LOOP_RECORDS = 40

# _bins ranks a panel's flat keys (row - first row) * (dim + 1) + col by
# marking the present ones in an array over all of them, with no sort,
# when there are at most this many keys a term; else by np.unique, which
# sorts them.  The mark won at up to 8.3 keys a term and lost from 10 on
# (plans of random squares, dim 150-1000, the median over a product's
# panels, 2-core Xeon VM, one core pinned).
_FLAT_BINS = 8

# A product is planned and summed one panel of a's rows, about this many
# terms, at a time.  A panel is sized in terms, not in rows or entries,
# because its temporaries (indices, keys, gathered amplitudes, products)
# hold a few numbers a term, and an entry of a starts anywhere from none
# to dim terms.  Of 4096 to 65536, 8192 and 16384 ran resolvent_truncation's
# requests fastest, tied within noise (2-core Xeon VM; BENCH_row_panels.json).
_PANEL_TERMS = 16384

# The pattern memory: ((dim, _row bytes, _col bytes), facts) of the last
# _REMEMBERED_PATTERNS patterns, most recent first, facts mapping the function
# that derived a fact to (fact, bytes).  Two, so that a scan alternating two
# fixed operators, as resolvent_truncation alternates T and its cyclic one,
# keeps both.  Their power needs 2.05 MB of plans (T^2 to T^4, dim 300, 2290
# entries); the bound, copied labels included, is about twice that.
_REMEMBERED_PATTERNS = 2
_REMEMBERED_BYTES = 4 << 20
_memory: tuple[tuple[tuple, dict], ...] = ()

Entry = tuple[int, int, complex]

# _number's exact types: Python's numbers and numpy's up to double precision; no bool
_NUMBERS = frozenset({int, float, complex, np.float16, np.float32, np.float64, np.complex64,
                      np.complex128, *(np.dtype(c).type for c in np.typecodes["AllInteger"])})


def _label(value) -> int:
    """A basis label as int; TypeError unless integral (bool and numpy's bool are not)."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError("bool is not a basis label")
    return index(value)


def _size(value, name: str) -> int:
    """A dimension as int; ValueError unless a positive integer (bool is not) numpy can allocate."""
    try:
        size = _label(value)
    except TypeError:
        size = 0
    if size < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    if size >= 1 << 16:  # a state vector under 1 MiB fits wherever numpy runs
        try:  # numpy refuses one beyond indexing or memory; one that fits touches no page
            np.empty(size, complex)
        except (OverflowError, ValueError, MemoryError):
            raise ValueError(f"{name}: {size} states are too many to index or allocate") from None
    return size


def _number(value, name: str) -> complex:
    """A number as complex; TypeError unless of a type in _NUMBERS, ValueError beyond the floats."""
    if type(value) not in _NUMBERS:
        raise TypeError(f"{name} is not a number: {value!r}")
    try:
        return complex(value)
    except OverflowError:
        raise ValueError(f"{name} is an int beyond the float range") from None


def _numbers(values, name: str) -> np.ndarray:
    """values as an array; TypeError, before any cast, unless of dtype kind i, u, f or c."""
    array = np.asarray(values)
    if array.dtype.kind not in "iufc":
        raise TypeError(f"{name} holds {array.dtype}, not numbers")
    return array


def _store(op: "SparseOperator", dim: int, row, col, amp) -> "SparseOperator":
    """The one store rule: fill op with the given entries, which are in storage order.

    row and col are integer arrays of valid labels.  Values become
    complex; the first non-finite one raises, naming its entry; exact
    zeros go.  Order is kept.
    """
    amp = np.ascontiguousarray(amp, dtype=complex)
    _finite(row, col, amp)
    keep = amp != 0
    if np.count_nonzero(keep) < amp.size:
        row, col, amp = row[keep], col[keep], amp[keep]
    return _fill(op, dim, row, col, amp)


def _finite(row, col, amp: np.ndarray) -> None:
    """The store rule's non-finite test: a ValueError naming the first such entry in order."""
    finite = np.isfinite(amp)
    if np.count_nonzero(finite) < amp.size:
        k = int(finite.argmin())
        raise ValueError(f"entry ({row[k]}, {col[k]}) is not finite: {complex(amp[k])}")


def _fill(op: "SparseOperator", dim: int, row, col, amp) -> "SparseOperator":
    """Fill op's slots with arrays that satisfy the store rule."""
    op.dim = dim
    op._row, op._col, op._amp = row, col, amp
    return op


def _loop_records(dim: int, records: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check and store records one by one; their rows, columns and values as arrays.

    Each record passes every check before the next is read: it is read as
    _triple reads it, its labels must be integral, within 1..dim and at a
    position not yet declared, and its value must pass _number and be
    finite.  So the first faulty record in list order raises, as in the
    spec loader: a ValueError naming it by position or its entry by
    labels; a TypeError if it has neither a length nor items, or its
    value is of no number type.  What is kept follows the store rule,
    record by record: exact zeros go; storage order is by row, each row
    in declaration order.
    """
    rows: dict[int, dict[int, complex]] = {}
    for position, record in enumerate(records):
        if type(record) is not tuple or len(record) != 3:
            try:
                record = _triple(record)
            except (TypeError, ValueError) as fault:
                raise type(fault)(f"record {position} {fault}") from None
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
        try:
            value = cols[col] = _number(amp, "amplitude")
        except (TypeError, ValueError) as fault:
            raise type(fault)(f"entry ({row}, {col}) {fault}") from None
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
    """Rows, columns and nonzero values of records, in storage order, if all pass; else None.

    The checks are _loop_records', on whole arrays: records read by
    position as triples, labels of type int within 1..dim, no repeated
    (row, col), values of a type in _NUMBERS, all finite.  None also for
    a label or sort key beyond intp and an int value beyond the floats;
    the loop decides those.  Exact zeros go; the rest are stably sorted by row.
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
    if not _NUMBERS.issuperset(map(type, amps)):
        return None
    # the (row, col) keys below are less than this bound, so none wraps
    if (dim + 1) ** 2 > np.iinfo(np.intp).max:
        return None
    try:
        row = np.array(rows, dtype=np.intp)
        col = np.array(cols, dtype=np.intp)
        amp = np.array(amps, dtype=complex)
    except OverflowError:  # a label beyond intp, an int amplitude beyond the floats
        return None
    if min(row.min(), col.min()) < 1 or max(row.max(), col.max()) > dim:
        return None
    keys = np.sort(row * (dim + 1) + col)
    if np.count_nonzero(keys[1:] == keys[:-1]) or np.count_nonzero(np.isfinite(amp)) < amp.size:
        return None
    keep = amp != 0
    if np.count_nonzero(keep) < amp.size:
        row, col, amp = row[keep], col[keep], amp[keep]
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
        _fill(self, dim, *(_loop_records(dim, records) if checked is None else checked))

    @classmethod
    def identity(cls, dim: int) -> "SparseOperator":
        dim = _size(dim, "dimension")
        labels = np.arange(1, dim + 1, dtype=np.intp)
        return _fill(cls.__new__(cls), dim, labels, labels, np.ones(dim, dtype=complex))

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
        before; products are stored so, and skip the sort.  Else two
        stable passes, by column, then by row, give np.lexsort((col, row))'s
        order: each (row, col) is stored once.
        """
        row, col = self._row, self._col
        if np.all((row[1:] > row[:-1]) | (col[1:] > col[:-1])):
            return slice(None)
        by_col = _stable_order(col, self.dim + 1)
        return by_col[_stable_order(row[by_col], self.dim + 1)]

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
    dim, label = _size(dim, "dimension"), _label(label)
    if not 1 <= label <= dim:
        raise ValueError(f"basis label {label} outside 1..{dim}")
    v = np.zeros(dim, dtype=complex)
    v[label - 1] = 1.0
    return v


def as_state_vector(values, dim: int) -> np.ndarray:
    """Validate and convert to a contiguous complex state vector of the given dimension."""
    return _state(values, _label(dim), "state vector")


def _state(values, dim: int, name: str) -> np.ndarray:
    """values, numbers as _numbers takes them, as a contiguous complex vector of dim finite ones."""
    v = _numbers(values, name).astype(complex, order="C", copy=False)
    if v.shape != (dim,):
        raise DimensionError(f"{name} has shape {v.shape}, expected ({dim},)")
    if np.count_nonzero(np.isfinite(v)) < v.size:
        raise ValueError(f"{name} has non-finite components")
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

    The product is planned (_plan) and summed (_sums) one row panel at a
    time, then passes the store rule; nothing is remembered, and nothing
    larger than a panel's terms is held besides the output.  Every term
    a[row, mid] b[mid, col] is formed by _products, a's entries in
    storage order and each followed through b's row mid in storage order.
    An output entry sums its terms in that order from 0, in a bin of its
    own, so the bits do not depend on the panels or on how the plan
    ranked the bins.
    """
    if a.dim != b.dim:
        raise DimensionError(f"cannot multiply dimension {a.dim} by {b.dim}")
    row, col, amp, _ = _planned(a._row, a._col, a._amp, b, -1)
    return _store(SparseOperator.__new__(SparseOperator), a.dim, row, col, amp)


def _plan(a_row: np.ndarray, a_col: np.ndarray, b: SparseOperator) -> Iterator[tuple]:
    """The pattern-only half of a b for a's stored rows and columns, one panel at a time.

    a's rows are cut into panels of about _PANEL_TERMS terms, never inside
    a row (_panels).  Each panel is yielded as ((lo, hi, count, right,
    bins, size), keys): a's entries lo:hi, each repeated count times,
    meet b's entries right; term t goes to the panel's bin bins[t] of
    size, whose flat keys row * (dim + 1) + col are keys, in order,
    whatever their sums (_bins).  Indices are int32 where they fit.
    """
    ptr = b._row_ptr()
    start = ptr[a_col - 1]
    count = ptr[a_col] - start
    index = np.int32 if max(int(count.sum()), b.nnz) <= np.iinfo(np.int32).max else np.intp
    for lo, hi in _panels(a_row, count):
        n = count[lo:hi]
        right = np.repeat((start[lo:hi] - (np.cumsum(n) - n)).astype(index), n)
        right += np.arange(right.size, dtype=index)
        keys, bins = _bins(a_row[lo:hi], n, b._col.take(right), b.dim + 1, index)
        yield (lo, hi, n, right, bins, keys.size), keys


def _bins(row: np.ndarray, count: np.ndarray, col: np.ndarray, width: int, index) -> tuple:
    """A panel's distinct flat keys row * width + col, in order, and each term's bin among them.

    Term t pairs row r, repeated count times, with col[t].  Bins are the
    dense rank of the keys: from a mark of the present ones in an array
    over all of the panel's rows' keys, with no sort, when there are at
    most _FLAT_BINS keys a term, else from np.unique.  The bins are of
    dtype index; the temporaries die on return, before the values pass.
    """
    first = row[0]
    flat = np.repeat((row - first) * width, count)
    flat += col
    span = (row[-1] - first + 1) * width
    if span <= _FLAT_BINS * flat.size:
        present = np.zeros(span, dtype=bool)
        present[flat] = True
        keys = np.flatnonzero(present)
        rank = np.empty(span, dtype=index)
        rank[keys] = np.arange(keys.size, dtype=index)
        bins = rank[flat]
    else:
        keys, bins = np.unique(flat, return_inverse=True)
    return keys + first * width, bins.astype(index, copy=False)


def _sums(panel: tuple, a_amp: np.ndarray, b_amp: np.ndarray) -> np.ndarray:
    """The values pass over one planned panel: its bins' sums, zeros kept.

    It repeats a's amplitudes by count, gathers b's, forms the terms by
    _products and sums them by _bin_sums.
    """
    lo, hi, count, right, bins, size = panel
    with np.errstate(over="ignore", invalid="ignore"):  # _finite rejects what overflowed
        products = _products(np.repeat(a_amp[lo:hi], count), b_amp.take(right))
    return _bin_sums(bins, *products, size)


def _planned(a_row, a_col, a_amp, b: SparseOperator, room: int) -> tuple:
    """a b's positions and sums, zeros kept, planned and summed panel by panel, and its plan.

    Returns (row, col, amp, plan).  plan is (row, col, panels), the
    planned panels in order, when it takes at most room bytes
    (_plan_bytes), else None: panels are collected only while their
    running size stays within room, so beyond room bytes of them only
    the panel at hand is held.
    """
    keys, sums = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=complex)]
    panels, size = [] if room >= 0 else None, 0
    for panel, key in _plan(a_row, a_col, b):
        keys.append(key)
        sums.append(_sums(panel, a_amp, b._amp))
        if panels is not None:
            size += 2 * key.size * np.dtype(np.intp).itemsize + _panel_bytes(panel)
            if size <= room:
                panels.append(panel)
            else:
                panels = None
    row, col = np.divmod(np.concatenate(keys), b.dim + 1)
    plan = None if panels is None else (row, col, tuple(panels))
    return row, col, np.concatenate(sums), plan


def _panel_bytes(panel: tuple) -> int:
    """Bytes of a planned panel's arrays: count, right and bins."""
    return sum(part.nbytes for part in panel[2:5])


def _plan_bytes(plan: tuple) -> int:
    """Bytes of a plan's arrays: its output rows and columns and its panels'."""
    row, col, panels = plan
    return row.nbytes + col.nbytes + sum(map(_panel_bytes, panels))


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
    bit.  Each step takes its plan from the pattern memory or plans it
    afresh, panel by panel, runs the values pass on the previous power's
    values and applies the non-finite test; exact zeros stay as entries
    until the last step, whose result alone passes the store rule's zero
    drop.  A term with a zero factor is +-0, and adding +-0 to a sum that
    starts at +0.0 leaves its bits unchanged, so the result is what
    dropping them at each step would give, and the plans depend on op's
    pattern alone, whatever the values cancel.  Once a power's values are
    all zero, its pattern empty or its sums cancelled, all higher powers
    are zero too, and the steps stop.  Only one step's plan is held at a
    time beyond those kept: the pattern memory keeps the first steps'
    plans while they fit beside op's labels and its other facts.
    """
    if k < 0:
        raise ValueError(f"power needs k >= 0, got {k}")
    if k < 2:
        return op if k else SparseOperator.identity(op.dim)
    entry = _recall(op)
    remembered, held = entry[1].get(power, ((), 0))
    kept, room = [], _REMEMBERED_BYTES - _entry_bytes(entry) + held
    row, col, amp = op._row, op._col, op._amp
    try:
        for step in range(k - 1):
            if step:
                _finite(row, col, amp)
            if not amp.any():
                break
            if step < len(remembered):
                row, col, panels = plan = remembered[step]
                amp = np.concatenate([_sums(panel, amp, op._amp) for panel in panels])
            else:
                row, col, amp, plan = _planned(row, col, amp, op, room if len(kept) == step else -1)
            if plan is not None and len(kept) == step:
                kept.append(plan)
                room -= _plan_bytes(plan)
    finally:  # the plans hold for op's pattern whatever its values, a non-finite one too
        if len(kept) > len(remembered):
            _remember(entry, power, tuple(kept), sum(map(_plan_bytes, kept)))
    return _store(SparseOperator.__new__(SparseOperator), op.dim, row, col, amp)


def _derived(op: SparseOperator, derive, nbytes):
    """derive(op), a fact of op's stored pattern alone, kept in the pattern memory.

    The same object again while the memory keeps it; else derived and
    kept, counted as nbytes(fact) bytes (_remember).
    """
    entry = _recall(op)
    if derive in entry[1]:
        return entry[1][derive][0]
    fact = derive(op)
    _remember(entry, derive, fact, nbytes(fact))
    return fact


def _recall(op: SparseOperator) -> tuple:
    """The pattern memory's entry for op's pattern, made the most recent; a new, empty one if none.

    A pattern is a dim and stored rows and columns, byte for byte; rows
    of another length compare unequal at once.  The memory is replaced
    whole, so a concurrent caller reads the old one or the new one.
    """
    global _memory
    memory, key = _memory, (op.dim, op._row.tobytes(), op._col.tobytes())
    if memory and memory[0][0] == key:
        return memory[0]
    for entry in memory[1:]:
        if entry[0] == key:
            _memory = (entry, *(other for other in memory if other is not entry))
            return entry
    return key, {}


def _remember(entry: tuple, derive, fact, nbytes: int) -> None:
    """Keep fact, counted as nbytes bytes, as what derive gives for the pattern of entry.

    entry, as _recall gave it, comes first with the fact, then the other
    patterns' entries, most recent first, while they number at most
    _REMEMBERED_PATTERNS and take at most _REMEMBERED_BYTES in all; if
    it alone passes the bound, the memory stays and the fact is not kept.
    """
    global _memory
    kept = ((entry[0], {**entry[1], derive: (fact, nbytes)}),)
    if _entry_bytes(kept[0]) > _REMEMBERED_BYTES:
        return
    for other in _memory:
        if len(kept) < _REMEMBERED_PATTERNS and other[0] != entry[0]:
            if sum(map(_entry_bytes, (*kept, other))) <= _REMEMBERED_BYTES:
                kept += (other,)
    _memory = kept


def _entry_bytes(entry: tuple) -> int:
    """Bytes of a memory entry: its copied labels and its facts as counted."""
    return len(entry[0][1]) + len(entry[0][2]) + sum(size for _, size in entry[1].values())


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
    v = _numbers(vec, "vector").astype(complex, copy=False)
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
    scale; a complex energy keeps a probe near a level well posed.  Levels
    and energy pass _numbers and _number.  Raises ValueError for levels
    that are not a non-empty 1-d real array (no cast drops an imaginary
    part), a non-finite level or energy, an |E| beyond the largest float,
    a gap whose modulus or reciprocal overflows (which would drop its row)
    and a least gap below the least normal float (whose reciprocal may
    overflow), naming the first such or nearest level.  Levels are
    scanned as Python floats; gaps and reciprocals are numpy's.
    """
    h0 = _numbers(h0_diagonal, "free Hamiltonian")
    if h0.dtype.kind == "c" or h0.ndim != 1 or h0.size == 0:
        raise ValueError("free Hamiltonian must be a non-empty 1-d real array")
    h0 = h0.astype(float, copy=False)
    levels = h0.tolist()
    if not all(map(math.isfinite, levels)):
        raise ValueError("free Hamiltonian has non-finite levels")
    e = _number(energy, "energy")
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
    h0 = np.asarray(h0_diagonal)
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
