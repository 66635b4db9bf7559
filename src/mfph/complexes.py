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

A complex holds arrays only, as Ripser never stores a simplex as a
tuple: each dimension's vertex rows in lexicographic order, and per
filtration index its row there, its dimension and its value, beside
the facet table.  `simplex(j)` reads one row; `simplices`,
`values` and `dims` build their tuples afresh on each access, for
callers that want them.  `FilteredComplex(items)`, the generators and
`load_filtration` feed one array ingest: it sorts each dimension's
vertex rows, checks ids, values, duplicates and faces with numpy, and
orders the filtration with one stable sort of the values of the rows
taken in (dimension, vertex tuple) order.  A fault names one input
simplex, and the loader names its line.  The loader reads the file in
blocks of whole lines and parses each block's tokens at once, each
distinct token text once; a block it rejects is parsed again line by
line, which names the first bad line.  `save_filtration` gathers its
fields from the same arrays, and so does `save_diagram`, the one
writer of both reducers' diagrams.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from math import isfinite
from operator import itemgetter

import numpy as np

Simplex = tuple[int, ...]
SparseColumn = dict[int, int]  # row -> coefficient

_VERTEX_MAX = (1 << 63) - 1  # vertex ids are matched as int64 rows of the facet table
_BLOCK_CHARS = 1 << 16  # load_filtration reads whole lines about this many at a time

__all__ = [
    "Coboundary",
    "FilteredComplex",
    "Simplex",
    "SparseColumn",
    "column_axpy",
    "comment_lines",
    "data_lines",
    "finite_float",
    "format_value",
    "load_filtration",
    "save_diagram",
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
    one simplex, and every value is finite.  Only arrays are kept: each
    dimension's vertex rows in lexicographic order (int32 when every id
    fits), and per filtration index its row there, its dimension and its
    value.  `simplices`, `values` and `dims` build their tuples afresh
    on each access.
    """

    __slots__ = ("_rows", "_pos", "_dims", "_values", "_facets", "_coboundary")

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
        ids, dimensions and values (sequences or arrays).  Faults are
        checked in this order, the first of each kind named: a simplex
        that is empty or has a repeated, negative or too large vertex id
        (first in input order), a non-finite value (first in input order),
        a duplicate (first in filtration order), a missing or late face
        (first in filtration order); each raises _Fault at an input
        position.
        """
        dims = np.asarray(dims, dtype=np.int64)
        vals = np.asarray(values, dtype=np.float64)
        try:
            ids = np.asarray(flat, dtype=np.int64)
        except OverflowError:  # an id beyond int64, rejected below as too large
            ids = np.asarray(flat, dtype=object)
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
            raise _Fault(f"simplex {verts_at(i)} has non-finite value {float(vals[i])}", i)

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
        self._rows = tuple(rows for _, rows in rows_by_dim)
        self._dims = dims[origin]
        # perm holds positions among all dimensions' rows in turn
        first_row = np.cumsum([0] + [len(rows) for rows in self._rows])
        self._pos = (perm - first_row[self._dims]).astype(np.int32)
        self._values = vals[origin]  # -0.0 keeps its sign
        # shared with every diagram of the complex, so never written
        self._dims.setflags(write=False)
        self._values.setflags(write=False)
        self._facets = self._facet_table(self._rows, index_by_dim, origin)
        self._coboundary = None  # built from the table on first use
        # every id is a vertex's, and the largest vertex row comes last:
        # ids that fit in int32 are kept so, in half the memory
        if top >= 0 and self._rows[0][-1, 0] <= np.iinfo(np.int32).max:
            self._rows = tuple(rows.astype(np.int32) for rows in self._rows)

    def _facet_table(self, rows_by_dim, index_by_dim, origin) -> np.ndarray:
        """The (m+1) x (top+1) int32 facet table: at [j, p] the filtration
        index of simplex j's facet without vertex p, or 0 for no entry,
        found by binary search among the sorted rows_by_dim[d-1] (at
        index_by_dim[d-1]).  Raises _Fault for the first simplex, in
        filtration order, with a face missing (at the simplex's input
        position) or entering after it (at the face's).
        """
        m, top = len(self), len(rows_by_dim) - 1
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
        dim = np.concatenate(([0], self._dims))[:, None]
        need = (np.arange(top + 1) <= dim) & (dim > 0)
        bad = need & ((table == 0) | (table >= np.arange(m + 1)[:, None]))
        hit = np.flatnonzero(bad.any(axis=1))
        if hit.size:
            j = int(hit[0])
            p = int(np.argmax(bad[j]))
            face = int(table[j, p])
            verts = self.simplex(j)
            facet = verts[:p] + verts[p + 1 :]
            if not face:
                raise _Fault(f"simplex {verts} is missing its face {facet}", int(origin[j - 1]))
            raise _Fault(f"face {facet} enters after its coface {verts}", int(origin[face - 1]))
        return table

    def __len__(self) -> int:
        return len(self._dims)

    @property
    def simplices(self) -> tuple[Simplex, ...]:
        """Every simplex as a vertex tuple, in filtration order."""
        ranked: list[Simplex] = []
        for rows in self._rows:
            ranked.extend(zip(*rows.T.tolist()))
        first_row = np.cumsum([0] + [len(rows) for rows in self._rows])
        return tuple(map(ranked.__getitem__, (first_row[self._dims] + self._pos).tolist()))

    @property
    def values(self) -> tuple[float, ...]:
        # the values ascend: one float object per run of one bit pattern
        # (-0.0 and 0.0 apart), not one per simplex
        bits = self._values.view(np.int64)
        new = np.ones(len(bits), dtype=bool)
        new[1:] = bits[1:] != bits[:-1]
        floats = self._values[new].tolist()
        return tuple(map(floats.__getitem__, (np.cumsum(new) - 1).tolist()))

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(self._dims.tolist())

    def simplex(self, j: int) -> Simplex:
        return tuple(self._rows[self._dims[j - 1]][self._pos[j - 1]].tolist())

    def value(self, j: int) -> float:
        return float(self._values[j - 1])

    def dim(self, j: int) -> int:
        return int(self._dims[j - 1])

    @property
    def max_dim(self) -> int:
        return len(self._rows) - 1

    def boundary_rows(self, j: int) -> tuple[tuple[int, int], ...]:
        """Facet rows of simplex j with signs +1/-1, sorted by row."""
        d = self.dim(j)
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
        m1 = len(self) + 1
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
        dims = self._dims[::-1]
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
    the '.0', others (inf included) as repr.  A numpy scalar is written
    as the Python float it equals."""
    v = float(v)
    return repr(int(v)) if v.is_integer() else repr(v)


def comment_lines(header) -> str:
    """The header lines of a data file as '#' comments.  A line holding a
    line break raises ValueError: it would end its comment and add data
    lines to the file."""
    header = list(header)
    for line in header:
        if "\n" in line or "\r" in line:
            raise ValueError(f"header line {line!r} holds a line break")
    return "".join(f"# {line}\n" for line in header)


def save_diagram(path, births, deaths, ids, labels, index_dims, index_values) -> None:
    """Write one `dim birth death birth_value death_value label` line per
    diagram entry, by (dim, birth, death).  Entry e pairs births[e] with
    deaths[e], or is an essential class born at births[e] when deaths[e]
    is 0, written after the pairs of its birth with `inf` for its death
    and death value; its label is labels[ids[e]].  index_dims and
    index_values are the complex's arrays: index j at j-1.  Each
    distinct value is formatted once, as save_filtration does."""
    dims = index_dims[births - 1]
    at = np.lexsort((np.where(deaths > 0, deaths, len(index_dims) + 1), births, dims))
    uniq, which = np.unique(index_values, return_inverse=True)
    text = [format_value(v) for v in uniq.tolist()]
    text = list(map(text.__getitem__, which.tolist())) + ["inf"]  # index j at j-1, death 0 at -1
    rows = zip(dims[at].tolist(), births[at].tolist(), deaths[at].tolist(), ids[at].tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(
            f"{d} {b} {e or 'inf'} {text[b - 1]} {text[e - 1]} {labels[i]}\n" for d, b, e, i in rows
        )


def load_filtration(path) -> FilteredComplex:
    """Read a filtration file: one `dim v0 v1 ... vd value` line per simplex.

    Blank lines and lines starting with '#' are skipped.  Lines need not
    be sorted; the deterministic (value, dimension, vertices) order is
    imposed on load and closure is validated.  Values must be finite.
    Every fault that one line holds is reported as `path:lineno: ...`.
    The file is read in blocks of whole lines, each parsed at once into
    arrays; a block that _parse_block rejects is parsed again line by
    line, which names the first bad line.
    """
    blocks = []  # (flat vertex ids, dims, values) per block
    first = 1  # the line number of a block's first line
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        while block := fh.readlines(_BLOCK_CHARS):
            blocks.append(_parse_block(block) or _parse_lines(path, block, first))
            first += len(block)
    if not sum(len(dims) for _, dims, _ in blocks):
        raise ValueError(f"{path}: empty filtration")
    flat, dims, values = map(np.concatenate, zip(*blocks))
    try:
        return FilteredComplex._from_flat(flat, dims, values)
    except _Fault as exc:
        # exc.at counts data lines; only a fault pays for finding its line
        lineno, _ = next(islice(data_lines(path), exc.at, None))
        raise ValueError(f"{path}:{lineno}: {exc}") from None


def _parse_block(lines):
    """(flat vertex ids, dims, values) arrays of the data lines among
    `lines`, or None unless every one is `dim v0 ... vd value` with
    dim >= 0, ids within int64 and a finite value.  Tokens are read by
    int and float, as in _parse_lines."""
    lines = [fields for fields in map(str.split, lines) if fields and fields[0][0] != "#"]
    try:
        dims = _parse_each(list(map(itemgetter(0), lines)), int, np.int64)
        values = _parse_each(list(map(itemgetter(-1), lines)), float, np.float64)
        vertices = list(chain.from_iterable(map(itemgetter(slice(1, -1)), lines)))
        flat = _parse_each(vertices, int, np.int64)
    except (ValueError, OverflowError):
        return None
    width = np.fromiter(map(len, lines), np.int64, len(lines))
    if (dims < 0).any() or (width != dims + 3).any() or not np.isfinite(values).all():
        return None
    return flat, dims, values


def _parse_each(texts: list[str], parse, dtype) -> np.ndarray:
    """The array of parse(text) over texts, parsing each distinct text once."""
    distinct = dict.fromkeys(texts)
    parsed = dict(zip(distinct, map(parse, distinct)))
    return np.fromiter(map(parsed.__getitem__, texts), dtype, len(texts))


def _parse_lines(path, lines, first: int):
    """(flat vertex ids, dims, values) arrays of the data lines among
    `lines`, numbered from `first`, parsed one line at a time; the first
    bad line raises `path:lineno: bad simplex line: ...`.  Ids beyond
    int64 are kept as Python ints, for the ingest to name."""
    flat: list[int] = []
    dims: list[int] = []
    values: list[float] = []
    for lineno, raw in enumerate(lines, start=first):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        try:
            dim = int(parts[0])
            if dim < 0:
                raise ValueError(f"negative dimension {dim}")
            if len(parts) != dim + 3:
                raise ValueError(f"expected {dim + 3} fields for dimension {dim}")
            flat.extend(map(int, parts[1:-1]))
            value = finite_float(parts[-1])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad simplex line: {exc}") from None
        dims.append(dim)
        values.append(value)
    return np.array(flat, dtype=object), np.array(dims, dtype=np.int64), np.array(values, dtype=np.float64)


def save_filtration(cx: FilteredComplex, path, header=()) -> None:
    """Write a filtration file; `header` lines are emitted as '#' comments.

    One `dim v0 ... vd value` line per simplex in filtration order, the
    value by format_value.  Each distinct value is formatted once (-0.0
    and 0.0 are one value, and both read 0), and the lines in one
    %-format over the whole file, whose fields are gathered from the
    complex's arrays.  The header is checked by comment_lines before
    the file is opened.
    """
    comments = comment_lines(header)
    uniq, which = np.unique(cx._values, return_inverse=True)
    text = np.array([format_value(v) for v in uniq.tolist()], dtype=object)
    dims = cx._dims
    ends = np.cumsum(dims + 2)  # a line's fields: its d+1 vertex ids, then its value
    fields = np.empty(int(ends[-1]) if len(ends) else 0, dtype=object)
    fields[ends - 1] = text[which]
    for d, rows in enumerate(cx._rows):
        at = np.flatnonzero(dims == d)
        fields[ends[at, None] - (d + 2) + np.arange(d + 1)] = rows[cx._pos[at]]
    fmt = [f"{d} " + "%d " * (d + 1) + "%s\n" for d in range(cx.max_dim + 1)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(comments)
        fh.write("".join(map(fmt.__getitem__, dims.tolist())) % tuple(fields.tolist()))
