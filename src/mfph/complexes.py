"""Filtered simplicial complexes and the sparse columns reducers read.

A filtration is stored as one simplex per step, ordered by
(value, dimension, vertex tuple).  Both reducers work on the
anti-transposed coboundary matrix: simplex i of m is column m+1-i, and
its rows are m+1-j for its cofacets j.  Pivots are still the largest
row, and each pivot (row k, column c) is the persistence pair
(m+1-c, m+1-k).  Validation fills one int32 facet table, kept for the
life of the complex: row j holds the filtration indices of simplex j's
facets.  The matrix is its transpose.  The first reduction sorts the
table's entries once into compressed sparse columns (Coboundary:
column pointers, int32 rows, int8 signs), finds the clearing order
and the apparent pairs on those arrays, and keeps them for later
reductions; boundary_rows reads one row, for checks.  A column is
apparent when no earlier column in the clearing order has an entry in
its largest row (U. Bauer, "Ripser: efficient computation of
Vietoris-Rips persistence barcodes", JACT 2021): its pivot is +1/-1,
a unit in every field, so both reducers pair it without a loop.  A
reducer turns a column into a dict from row to coefficient only when
its loop reads it, and reduces that working column in place, like the
pivot columns of PHAT (U. Bauer, M. Kerber, J. Reininghaus and H.
Wagner, "PHAT - Persistent Homology Algorithms Toolbox", JSC 2017):
column_axpy adds a multiple of a source column into it by looping over
the source alone, so an axpy costs the source's length and copies
nothing.  Coefficients are read modulo the working modulus Q, listed
columns start from the signs +1/-1, and column_axpy writes values in
[1, Q).  An entry that is zero modulo some of the basis primes but not
all of them stays in the column, which is what lets one column carry
every field at once.

`FilteredComplex(items)` and `load_filtration` feed one array ingest:
it sorts each dimension's vertex rows as int64 arrays, checks ids,
values, duplicates and faces with numpy, and orders the filtration
with one stable sort of the values of the rows taken in (dimension,
vertex tuple) order.  A fault names one input simplex, and the loader
names its line.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import isfinite

import numpy as np

Simplex = tuple[int, ...]
SparseColumn = dict[int, int]  # row -> coefficient

_VERTEX_MAX = (1 << 63) - 1  # vertex ids are matched as int64 rows of the facet table

__all__ = [
    "Coboundary",
    "FilteredComplex",
    "Simplex",
    "SparseColumn",
    "column_axpy",
    "data_lines",
    "finite_float",
    "format_value",
    "load_filtration",
    "save_filtration",
]


class _Fault(ValueError):
    """A ValueError about one input simplex, at position `at` (0-based)
    in the order the simplices were given, so a loader can name its line."""

    def __init__(self, message: str, at: int):
        super().__init__(message)
        self.at = at


class FilteredComplex:
    """Immutable filtered simplicial complex; indices are 1-based.

    Built from (vertices, value) pairs; simplices are ordered by
    (value, dimension, vertex tuple) so that ties in value are broken
    deterministically, and the result is validated: faces must be
    present, enter no later than their cofaces, each step adds exactly
    one simplex, and every value is finite.
    """

    __slots__ = ("simplices", "values", "dims", "_facets", "_coboundary")

    def __init__(self, items):
        verts, values = tuple(zip(*items)) or ((), ())
        verts = tuple(map(tuple, verts))
        dims = np.fromiter(map(len, verts), np.int64, len(verts)) - 1
        self._ingest(list(chain.from_iterable(verts)), dims, list(map(float, values)))

    @classmethod
    def _from_flat(cls, flat, dims, values) -> FilteredComplex:
        """The complex of simplex i = dims[i]+1 ids from `flat` (taken in
        turn) entering at values[i]; faults raise _Fault with i."""
        cx = cls.__new__(cls)
        cx._ingest(flat, dims, values)
        return cx

    def _ingest(self, flat, dims, values) -> None:
        """Validate and order simplices given in input order as flat vertex
        ids, dimensions and values.  Faults are checked in this order, the
        first of each kind named: a simplex that is empty or has a repeated,
        negative or too large vertex id (first in input order), a
        non-finite value (first in input order), a duplicate (first in
        filtration order), a missing or late face (first in filtration
        order); each raises _Fault at an input position.
        """
        dims = np.asarray(dims, dtype=np.int64)
        vals = np.array(values, dtype=np.float64)
        try:
            ids = np.array(flat, dtype=np.int64)
        except OverflowError:  # an id beyond int64, rejected below as too large
            ids = np.array(flat, dtype=object)
        start = np.cumsum(dims + 1) - (dims + 1)
        top = int(dims.max(initial=-1))

        def verts_at(i):
            return tuple(sorted(ids[start[i] : start[i] + dims[i] + 1].tolist()))

        # per input simplex, 0 or the number of its first fault in `faults`
        faults = (
            None,
            "repeated vertex in simplex {}",
            "negative vertex id in simplex {}",
            f"vertex id above {_VERTEX_MAX} in simplex {{}}",
            "empty simplex",
        )
        fault = np.where(dims < 0, 4, 0)
        rows_by_dim = []
        for d in range(top + 1):
            at = np.flatnonzero(dims == d)
            rows = ids[start[at, None] + np.arange(d + 1)]
            rows.sort(axis=1)
            fault[at] = np.select(
                [(rows[:, 1:] == rows[:, :-1]).any(axis=1), rows[:, 0] < 0, rows[:, -1] > _VERTEX_MAX],
                [1, 2, 3],
                0,
            )
            rows_by_dim.append((at, rows))
        bad = np.flatnonzero(fault)
        if bad.size:
            i = int(bad[0])
            raise _Fault(faults[fault[i]].format(verts_at(i)), i)
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            i = int(bad[0])
            raise _Fault(f"simplex {verts_at(i)} has non-finite value {values[i]}", i)

        # each dimension's rows in lexicographic order, equal rows by value
        # and then input order (the sort is stable); all dimensions in turn
        # are the (dimension, vertex tuple) order, and a stable sort of
        # their values is the filtration order
        for d, (at, rows) in enumerate(rows_by_dim):
            srt = np.lexsort((vals[at], *rows.T[::-1]))
            rows_by_dim[d] = (at[srt], rows[srt])
        origin = np.concatenate([at for at, _ in rows_by_dim] or [np.zeros(0, np.int64)])
        perm = np.argsort(vals[origin], kind="stable")
        origin = origin[perm]  # input position of each filtration index - 1
        fidx = np.empty(len(perm), dtype=np.int32)
        fidx[perm] = np.arange(1, len(perm) + 1, dtype=np.int32)
        index_by_dim = []
        dup = None  # (filtration index, simplex, input position) of the first duplicate
        offset = 0
        for at, rows in rows_by_dim:
            index = fidx[offset : offset + len(rows)]
            offset += len(rows)
            index_by_dim.append(index)
            # a row equal to the one before it enters after it: report the
            # earliest such, at the later input position of the two
            later = np.flatnonzero((rows[1:] == rows[:-1]).all(axis=1)) + 1
            if later.size:
                k = later[np.argmin(index[later])]
                if dup is None or index[k] < dup[0]:
                    dup = (index[k], tuple(rows[k].tolist()), int(max(at[k - 1], at[k])))
        if dup is not None:
            raise _Fault(f"duplicate simplex {dup[1]}", dup[2])
        ranked: list[Simplex] = []
        for _, rows in rows_by_dim:
            ranked.extend(zip(*rows.T.tolist()))
        self.simplices: tuple[Simplex, ...] = tuple(map(ranked.__getitem__, perm.tolist()))
        # the caller's value objects, not copies
        self.values: tuple[float, ...] = tuple(map(values.__getitem__, origin.tolist()))
        dims = dims[origin]
        self.dims: tuple[int, ...] = tuple(dims.tolist())
        self._facets = self._facet_table([rows for _, rows in rows_by_dim], index_by_dim, dims, origin)
        self._coboundary = None  # built from the table on first use

    def _facet_table(self, rows_by_dim, index_by_dim, dims, origin) -> np.ndarray:
        """The (m+1) x (top+1) int32 facet table: at [j, p] the filtration
        index of simplex j's facet without vertex p, or 0 for no entry,
        found by binary search among the sorted rows_by_dim[d-1] (at
        index_by_dim[d-1]); simplex j has dimension dims[j-1].  Raises
        _Fault for the first simplex, in filtration order, with a face
        missing (at the simplex's input position) or entering after it
        (at the face's).
        """
        m, top = len(dims), len(rows_by_dim) - 1
        table = np.zeros((m + 1, top + 1), dtype=np.int32)
        below_keys = below_index = None  # dimension d-1, then a sentinel
        for d, (rows, index) in enumerate(zip(rows_by_dim, index_by_dim)):
            rows = rows.astype(">i8")  # big-endian: keys sort as the rows do
            for p in range(d + 1 if d else 0):
                key = _row_keys(np.delete(rows, p, axis=1))
                pos = np.searchsorted(below_keys, key)
                table[index, p] = np.where(below_keys[pos] == key, below_index[pos], 0)
            # the sentinel (all bytes 0xff) sorts after every key of
            # non-negative ids, so a search past the last row lands on it
            sentinel = _row_keys(np.full((1, d + 1), -1, ">i8"))
            below_keys = np.concatenate((_row_keys(rows), sentinel))
            below_index = np.append(index, np.int32(0))
        # entries 0..d of a d-simplex j, d >= 1, name simplices before j
        dim = np.concatenate(([0], dims))[:, None]
        need = (np.arange(top + 1) <= dim) & (dim > 0)
        bad = need & ((table == 0) | (table >= np.arange(m + 1)[:, None]))
        hit = np.flatnonzero(bad.any(axis=1))
        if hit.size:
            j = int(hit[0])
            p = int(np.argmax(bad[j]))
            face = int(table[j, p])
            verts = self.simplices[j - 1]
            facet = verts[:p] + verts[p + 1 :]
            if not face:
                raise _Fault(f"simplex {verts} is missing its face {facet}", int(origin[j - 1]))
            raise _Fault(f"face {facet} enters after its coface {verts}", int(origin[face - 1]))
        return table

    def __len__(self) -> int:
        return len(self.simplices)

    def simplex(self, j: int) -> Simplex:
        return self.simplices[j - 1]

    def value(self, j: int) -> float:
        return self.values[j - 1]

    def dim(self, j: int) -> int:
        return self.dims[j - 1]

    @property
    def max_dim(self) -> int:
        return max(self.dims) if self.dims else -1

    def boundary_rows(self, j: int) -> tuple[tuple[int, int], ...]:
        """Facet rows of simplex j with signs +1/-1, sorted by row."""
        d = self.dims[j - 1]
        facets = self._facets[j, : d + 1].tolist() if d else ()
        return tuple(sorted((f, -1 if p % 2 else 1) for p, f in enumerate(facets)))

    def coboundary(self) -> Coboundary:
        """The anti-transposed coboundary matrix as CSR arrays, with its
        clearing order and apparent pairs.  Built on first use; later
        calls return the same object."""
        if self._coboundary is None:
            self._coboundary = self._build_coboundary()
        return self._coboundary

    def _build_coboundary(self) -> Coboundary:
        """One sort of the facet table's entries by (column, row).  Column
        c holds (m+1-j, sign of m+1-c in the boundary of j) for every
        cofacet j; entry 0 and the columns of top-dimensional simplices are
        empty.  Row k's earliest column is that of simplex m+1-k's latest
        facet, so a column is apparent iff it is the earliest column of its
        largest row."""
        m1 = len(self.simplices) + 1
        width = 2 * m1  # an entry's code is 2*row + (1 for sign -1)
        j, p = np.nonzero(self._facets)
        keys = (m1 - self._facets[j, p].astype(np.int64)) * width + 2 * (m1 - j) + p % 2
        keys.sort()
        del j, p
        indptr = np.zeros(m1 + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // width, minlength=m1), out=indptr[1:])
        code = keys % width
        rows = (code >> 1).astype(np.int32)
        signs = (1 - 2 * (code & 1)).astype(np.int8)
        del keys, code
        filled = np.flatnonzero(indptr[1:] > indptr[:-1])
        low = m1 - rows[indptr[filled + 1] - 1].astype(np.int64)  # simplex of the largest row
        apparent = filled[m1 - self._facets[low].max(axis=1, initial=0) == filled]
        dims = np.array(self.dims[::-1], dtype=np.int64)
        order = np.argsort(dims, kind="stable") + 1
        bounds = np.searchsorted(dims[order - 1], np.arange(self.max_dim + 2))
        return Coboundary(indptr, rows, signs, order, tuple(bounds.tolist()), apparent)


@dataclass(frozen=True, eq=False)  # compared and hashed by identity: fields are arrays
class Coboundary:
    """The anti-transposed coboundary matrix of a complex with m simplices,
    in compressed sparse columns: column c (1..m) holds rows[a:b] with
    coefficients signs[a:b] (+1/-1), a, b = indptr[c], indptr[c+1], in
    ascending row.  order lists the columns in clearing order: ascending
    dimension, and ascending column (descending simplex index) within a
    dimension, so every pivot row a column could clear is known before
    that column is reached; order[bounds[d]:bounds[d+1]] holds dimension
    d.  apparent lists, ascending, the columns that no earlier column in
    that order meets in their largest row (Bauer, "Ripser", 2021): such a
    column is reduced as it stands, its pivot +1/-1 is a unit in every
    field, and it can never be cleared.
    """

    indptr: np.ndarray
    rows: np.ndarray
    signs: np.ndarray
    order: np.ndarray
    bounds: tuple[int, ...]
    apparent: np.ndarray

    def column(self, c: int) -> SparseColumn:
        """Column c as a dict from row to sign."""
        a, b = self.indptr[c : c + 2].tolist()
        return dict(zip(self.rows[a:b].tolist(), self.signs[a:b].tolist()))

    def apparent_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(columns, pivot rows, pivot signs) of the apparent columns."""
        last = self.indptr[self.apparent + 1] - 1
        return self.apparent, self.rows[last].astype(np.int64), self.signs[last]

    def pending(self, skip: np.ndarray):
        """Yield the nonempty columns in clearing order that are not
        marked in the boolean array skip (indexed by column).  Each
        dimension's columns are chosen when the dimension is reached, so
        marks made while the dimension below ran are seen."""
        for lo, hi in zip(self.bounds, self.bounds[1:]):
            cols = self.order[lo:hi]
            yield from cols[(self.indptr[cols + 1] > self.indptr[cols]) & ~skip[cols]].tolist()


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One key per row of int64 vertex ids, its bytes: keys of rows of
    one width are equal iff the rows are, and sort in a fixed order."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def column_axpy(target: SparseColumn, alpha: int, source: SparseColumn, q_all: int) -> SparseColumn:
    """Add alpha*source into target over Z/QZ in place and return target.

    Only the source is looped over, and it is left unchanged; an entry
    that becomes 0 mod Q is deleted from target."""
    alpha %= q_all
    if alpha:
        get = target.get
        for row, c in source.items():
            c = (get(row, 0) + alpha * c) % q_all
            if c:
                target[row] = c
            else:
                target.pop(row, None)
    return target


def data_lines(path):
    """Yield (line number, whitespace-split fields) for each line of a
    text file that is neither blank nor a '#' comment.  A byte that is
    not UTF-8 reads as a lone surrogate, so the field holding it fails
    to parse and its caller names the line."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            fields = raw.split()
            if fields and not fields[0].startswith("#"):
                yield lineno, fields


def finite_float(text: str) -> float:
    """float(text), rejecting NaN and +-inf with ValueError."""
    value = float(text)
    if not isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def format_value(v: float) -> str:
    """A filtration value as written to files: integral values without
    the '.0', others (inf included) as repr."""
    return repr(int(v)) if float(v).is_integer() else repr(v)


def load_filtration(path) -> FilteredComplex:
    """Read a filtration file: one `dim v0 v1 ... vd value` line per simplex.

    Blank lines and lines starting with '#' are skipped.  Lines need not
    be sorted; the deterministic (value, dimension, vertices) order is
    imposed on load and closure is validated.  Values must be finite.
    Every fault that one line holds is reported as `path:lineno: ...`.
    """
    flat: list[int] = []
    dims: list[int] = []
    values: list[float] = []
    lines: list[int] = []
    for lineno, parts in data_lines(path):
        try:
            dim = int(parts[0])
            if dim < 0:
                raise ValueError(f"negative dimension {dim}")
            if len(parts) != dim + 3:
                raise ValueError(
                    f"expected {dim + 3} fields for dimension {dim}"
                )
            flat.extend(map(int, parts[1:-1]))
            value = finite_float(parts[-1])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad simplex line: {exc}") from None
        dims.append(dim)
        values.append(value)
        lines.append(lineno)
    if not dims:
        raise ValueError(f"{path}: empty filtration")
    try:
        return FilteredComplex._from_flat(flat, dims, values)
    except _Fault as exc:
        raise ValueError(f"{path}:{lines[exc.at]}: {exc}") from None


def save_filtration(cx: FilteredComplex, path, header=()) -> None:
    """Write a filtration file; `header` lines are emitted as '#' comments.

    One `dim v0 ... vd value` line per simplex in filtration order, the
    value by format_value.  Each distinct value is formatted once (-0.0
    and 0.0 are one value, and both read 0), and the lines in one
    %-format over the whole file.
    """
    uniq, which = np.unique(np.array(cx.values, dtype=np.float64), return_inverse=True)
    text = [format_value(v) for v in uniq.tolist()]
    fmt = [f"{d} " + "%d " * (d + 1) + "%s\n" for d in range(cx.max_dim + 1)]
    value_text = map(text.__getitem__, which.tolist())
    # each simplex's vertex ids, then its value's text
    fields = chain.from_iterable(map(tuple.__add__, cx.simplices, zip(value_text)))
    with open(path, "w", encoding="utf-8") as fh:
        for line in header:
            fh.write(f"# {line}\n")
        fh.write("".join(map(fmt.__getitem__, cx.dims)) % tuple(fields))
