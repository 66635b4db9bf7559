"""Filtered simplicial complexes and the sparse columns reducers read.

A filtration is stored as one simplex per step, ordered by
(value, dimension, vertex tuple).  Both reducers work on the
anti-transposed coboundary matrix: simplex i of m is column m+1-i, and
its rows are m+1-j for its cofacets j.  Pivots are still the largest
row, and each pivot (row k, column c) is the persistence pair
(m+1-c, m+1-k).  The matrix is the transpose of the facet table that
validation fills, so the first reduction builds every column in one
sweep and later ones reuse them.  Boundary columns, whose rows are the
1-based filtration indices of facets, serve cycle reconstruction.
Columns are sorted sequences of (row, coefficient), with coefficients
read modulo the working modulus Q: built columns hold the signs +1/-1,
and the reducers start from them without a copy; column_axpy writes
values in [1, Q).  An entry that is zero modulo some of the basis
primes but not all of them stays in the column, which is what lets one
column carry every field at once.
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
    "low_extended",
    "save_filtration",
]


def _normalize_simplex(vertices) -> Simplex:
    verts = tuple(sorted(vertices))
    if not verts:
        raise ValueError("empty simplex")
    if len(set(verts)) != len(verts):
        raise ValueError(f"repeated vertex in simplex {verts}")
    if verts[0] < 0:
        raise ValueError(f"negative vertex id in simplex {verts}")
    if verts[-1] > _VERTEX_MAX:
        raise ValueError(f"vertex id above {_VERTEX_MAX} in simplex {verts}")
    return verts


class FilteredComplex:
    """Immutable filtered simplicial complex; indices are 1-based.

    Built from (vertices, value) pairs; simplices are ordered by
    (value, dimension, vertex tuple) so that ties in value are broken
    deterministically, and the result is validated: faces must be
    present, enter no later than their cofaces, each step adds exactly
    one simplex, and every value is finite.
    """

    __slots__ = (
        "simplices", "values", "index_of", "dims", "_brows", "_facets", "_columns", "_order"
    )

    def __init__(self, items):
        pairs = [(_normalize_simplex(v), float(f)) for v, f in items]
        pairs.sort(key=lambda p: (p[1], len(p[0]), p[0]))
        self.simplices: tuple[Simplex, ...] = tuple(p[0] for p in pairs)
        self.values: tuple[float, ...] = tuple(p[1] for p in pairs)
        del pairs  # freed before the facet table allocates its numpy temporaries
        if not all(map(isfinite, self.values)):
            verts, value = next(p for p in zip(self.simplices, self.values) if not isfinite(p[1]))
            raise ValueError(f"simplex {verts} has non-finite value {value}")
        index: dict[Simplex, int] = {}
        for j, s in enumerate(self.simplices, start=1):
            if s in index:
                raise ValueError(f"duplicate simplex {s}")
            index[s] = j
        self.index_of: dict[Simplex, int] = index
        self.dims: tuple[int, ...] = tuple(len(s) - 1 for s in self.simplices)
        self._brows: list[tuple[tuple[int, int], ...] | None] = [None] * len(self.simplices)
        self._facets = self._facet_table()
        self._columns = self._order = None  # built from the table on first use

    def _facet_table(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per dimension d >= 1: the filtration indices of the d-simplices
        and, at [n, p], the index of the n-th one's facet without vertex p
        (int32), found by binary search among the sorted row keys of the
        (d-1)-simplices.  Raises ValueError for the first simplex, in
        filtration order, with a face missing or entering after it.
        """
        simplices = self.simplices
        dims = np.fromiter(self.dims, np.int64, len(simplices))
        start = np.cumsum(dims + 1) - (dims + 1)
        flat = np.fromiter(chain.from_iterable(simplices), np.int64, int(dims.sum()) + len(dims))
        top = int(dims.max(initial=-1))
        table = []
        fault = None  # (index, facet position, missing) of the first bad simplex
        below_keys = below_index = None  # dimension d-1, sorted by key, then a sentinel
        for d in range(top + 1):
            at = np.flatnonzero(dims == d)
            verts = flat[start[at, None] + np.arange(d + 1)]
            index = (at + 1).astype(np.int32)
            if d:
                facets = np.empty(verts.shape, dtype=np.int32)
                for p in range(d + 1):
                    key = _row_keys(np.delete(verts, p, axis=1))
                    pos = np.searchsorted(below_keys[:-1], key)
                    facets[:, p] = np.where(below_keys[pos] == key, below_index[pos], 0)
                bad = (facets == 0) | (facets >= index[:, None])
                rows = np.flatnonzero(bad.any(axis=1))
                if rows.size and (fault is None or index[rows[0]] < fault[0]):
                    p = int(np.argmax(bad[rows[0]]))
                    fault = (int(index[rows[0]]), p, facets[rows[0], p] == 0)
                table.append((index, facets))
            keys = _row_keys(verts)
            order = np.argsort(keys)
            sentinel = _row_keys(np.full((1, d + 1), -1, np.int64))
            below_keys = np.concatenate((keys[order], sentinel))
            below_index = np.append(index[order], np.int32(0))
        if fault is not None:
            j, p, missing = fault
            verts = simplices[j - 1]
            facet = verts[:p] + verts[p + 1 :]
            if missing:
                raise ValueError(f"simplex {verts} is missing its face {facet}")
            raise ValueError(f"face {facet} enters after its coface {verts}")
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
        """Facet rows of simplex j with signs +1/-1, sorted by row; cached."""
        cached = self._brows[j - 1]
        if cached is not None:
            return cached
        verts = self.simplices[j - 1]
        rows: list[tuple[int, int]] = []
        if len(verts) > 1:
            for i in range(len(verts)):
                rows.append((self.index_of[verts[:i] + verts[i + 1 :]], 1 if i % 2 == 0 else -1))
            rows.sort()
        result = tuple(rows)
        self._brows[j - 1] = result
        return result

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


def low_extended(col: SparseColumn, mask: int) -> int | None:
    """Largest row whose coefficient is nonzero mod mask; None if no such row."""
    for row, c in reversed(col):
        if c % mask:
            return row
    return None


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
    """
    items = []
    for lineno, parts in data_lines(path):
        try:
            dim = int(parts[0])
            if dim < 0:
                raise ValueError(f"negative dimension {dim}")
            if len(parts) != dim + 3:
                raise ValueError(
                    f"expected {dim + 3} fields for dimension {dim}"
                )
            verts = tuple(int(p) for p in parts[1 : dim + 2])
            value = finite_float(parts[-1])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad simplex line: {exc}") from None
        items.append((verts, value))
    if not items:
        raise ValueError(f"{path}: empty filtration")
    try:
        return FilteredComplex(items)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_filtration(cx: FilteredComplex, path, header=()) -> None:
    """Write a filtration file; `header` lines are emitted as '#' comments."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in header:
            fh.write(f"# {line}\n")
        for j in range(1, len(cx) + 1):
            verts = cx.simplex(j)
            fh.write(
                f"{len(verts) - 1} "
                + " ".join(str(v) for v in verts)
                + f" {format_value(cx.value(j))}\n"
            )
