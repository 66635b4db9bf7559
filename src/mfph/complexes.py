"""Filtered simplicial complexes and the sparse columns reducers read.

A filtration is stored as one simplex per step, ordered by
(value, dimension, vertex tuple).  Both reducers work on the
anti-transposed coboundary matrix: simplex i of m is column m+1-i, and
its rows are m+1-j for its cofacets j.  Pivots are still the largest
row, and each pivot (row k, column c) is the persistence pair
(m+1-c, m+1-k).  The matrix is the transpose of the facet table that
validation fills, so the first reduction builds every column in one
sweep and later ones reuse them.  Columns are sorted sequences of
(row, coefficient), with coefficients read modulo the working modulus
Q: built columns hold the signs +1/-1, and the reducers start from them
without a copy; column_axpy writes values in [1, Q).  An entry that is
zero modulo some of the basis primes but not all of them stays in the
column, which is what lets one column carry every field at once.
boundary_rows gives one simplex's facet rows straight from index_of,
uncached, for checks against the coboundary columns.

`FilteredComplex(items)` and `load_filtration` feed one array ingest:
it sorts each dimension's vertex rows as int64 arrays, checks ids,
values, duplicates and faces with numpy, and orders the filtration
with one stable sort of the values of the rows taken in (dimension,
vertex tuple) order.  A fault names one input simplex, and the loader
names its line.
"""

from __future__ import annotations

from itertools import chain
from math import isfinite

import numpy as np

Simplex = tuple[int, ...]
Entry = tuple[int, int]
SparseColumn = list[Entry]

_VERTEX_MAX = (1 << 63) - 1  # vertex ids are matched as int64 rows of the facet table

__all__ = [
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

    __slots__ = (
        "simplices", "values", "index_of", "dims", "_facets", "_columns", "_order"
    )

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
        self.dims: tuple[int, ...] = tuple(dims[origin].tolist())
        self.index_of: dict[Simplex, int] = dict(zip(self.simplices, range(1, len(perm) + 1)))
        self._facets = self._facet_table([rows for _, rows in rows_by_dim], index_by_dim, origin)
        self._columns = self._order = None  # built from the table on first use

    def _facet_table(self, rows_by_dim, index_by_dim, origin) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per dimension d >= 1: the filtration indices of the d-simplices
        (rows_by_dim[d], lexicographically sorted, at index_by_dim[d]) and,
        at [n, p], the index of the n-th one's facet without vertex p
        (int32), found by binary search among the row keys of the
        (d-1)-simplices.  Raises _Fault for the first simplex, in
        filtration order, with a face missing (at the simplex's input
        position) or entering after it (at the face's).
        """
        table = []
        fault = None  # (index, facet position, facet index or 0 if missing)
        below_keys = below_index = None  # dimension d-1, then a sentinel
        for d, (rows, index) in enumerate(zip(rows_by_dim, index_by_dim)):
            rows = rows.astype(">i8")  # big-endian: keys sort as the rows do
            if d:
                facets = np.empty(rows.shape, dtype=np.int32)
                for p in range(d + 1):
                    key = _row_keys(np.delete(rows, p, axis=1))
                    pos = np.searchsorted(below_keys, key)
                    facets[:, p] = np.where(below_keys[pos] == key, below_index[pos], 0)
                bad = (facets == 0) | (facets >= index[:, None])
                hit = np.flatnonzero(bad.any(axis=1))
                if hit.size:
                    n = hit[np.argmin(index[hit])]
                    if fault is None or index[n] < fault[0]:
                        p = int(np.argmax(bad[n]))
                        fault = (int(index[n]), p, int(facets[n, p]))
                table.append((index, facets))
            # the sentinel (all bytes 0xff) sorts after every key of
            # non-negative ids, so a search past the last row lands on it
            sentinel = _row_keys(np.full((1, d + 1), -1, ">i8"))
            below_keys = np.concatenate((_row_keys(rows), sentinel))
            below_index = np.append(index, np.int32(0))
        if fault is not None:
            j, p, face = fault
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
        verts = self.simplices[j - 1]
        rows: list[tuple[int, int]] = []
        if len(verts) > 1:
            for i in range(len(verts)):
                rows.append((self.index_of[verts[:i] + verts[i + 1 :]], 1 if i % 2 == 0 else -1))
            rows.sort()
        return tuple(rows)

    def coboundary_columns(self) -> list[tuple[tuple[int, int], ...]]:
        """The anti-transposed coboundary matrix, indexed by column: entry
        c (1..m) holds simplex m+1-c's rows (m+1-j, sign of m+1-c in the
        boundary of j) for every cofacet j, sorted by row; entry 0 and the
        columns of top-dimensional simplices are empty.  Built whole on
        first use; later calls return the same list."""
        if self._facets is not None:
            self._build_coboundary()
        return self._columns

    def coboundary_order(self) -> tuple[int, ...]:
        """Columns of the anti-transposed coboundary matrix in clearing
        order: ascending dimension, and ascending column (descending
        simplex index) within a dimension, so every pivot row a column
        could clear is known before that column is reached.  Built with
        the columns; later calls return the same tuple."""
        if self._facets is not None:
            self._build_coboundary()
        return self._order

    def _build_coboundary(self) -> None:
        """One sort of the facet table's entries by (column, row), then
        drop the table.  Each row's (row, +1) and (row, -1) are one tuple
        each, shared by every column holding them."""
        m1 = len(self.simplices) + 1
        width = 2 * m1  # an entry's code is 2*row + (1 for sign -1)
        parts = [np.zeros(0, dtype=np.int64)]
        entry: list[tuple[int, int] | None] = [None] * width
        for index, facets in self._facets:
            rows = m1 - index.astype(np.int64)
            for r in rows.tolist():
                entry[2 * r : 2 * r + 2] = (r, 1), (r, -1)
            cols = m1 - facets.astype(np.int64)
            sign = np.arange(facets.shape[1]) % 2
            parts.append((cols * width + 2 * rows[:, None] + sign).ravel())
        keys = np.sort(np.concatenate(parts))
        bounds = [0] + np.cumsum(np.bincount(keys // width, minlength=m1)).tolist()
        entries = tuple(map(entry.__getitem__, (keys % width).tolist()))
        del parts, keys, entry
        self._columns = [entries[a:b] for a, b in zip(bounds, bounds[1:])]
        dims = np.array(self.dims[::-1], dtype=np.int64)
        self._order = tuple((np.argsort(dims, kind="stable") + 1).tolist())
        self._facets = None


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One key per row of int64 vertex ids, its bytes: keys of rows of
    one width are equal iff the rows are, and sort in a fixed order."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def column_axpy(target: SparseColumn, alpha: int, source: SparseColumn, q_all: int) -> SparseColumn:
    """target + alpha*source over Z/QZ; entries equal to 0 mod Q are dropped."""
    alpha %= q_all
    if alpha == 0 or not source:
        return target
    out: SparseColumn = []
    push = out.append
    i = j = 0
    n, m = len(target), len(source)
    while i < n and j < m:
        ti = target[i]
        sj = source[j]
        ri, rj = ti[0], sj[0]
        if ri < rj:
            push(ti)
            i += 1
        elif ri > rj:
            c = alpha * sj[1] % q_all
            if c:
                push((rj, c))
            j += 1
        else:
            c = (ti[1] + alpha * sj[1]) % q_all
            if c:
                push((ri, c))
            i += 1
            j += 1
    if i < n:
        out.extend(target[i:])
    while j < m:
        sj = source[j]
        c = alpha * sj[1] % q_all
        if c:
            push((sj[0], c))
        j += 1
    return out


def data_lines(path):
    """Yield (line number, whitespace-split fields) for each line of a
    text file that is neither blank nor a '#' comment."""
    with open(path, "r", encoding="utf-8") as fh:
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
