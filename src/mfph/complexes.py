"""Filtered simplicial complexes and the sparse columns reducers read.

A filtration is stored as one simplex per step, ordered by
(value, dimension, vertex tuple).  Both reducers work on the
anti-transposed coboundary matrix: simplex i of m is column m+1-i, and
its rows are m+1-j for its cofacets j.  Pivots are still the largest
row, and each pivot (row k, column c) is the persistence pair
(m+1-c, m+1-k).  Boundary columns, whose rows are the 1-based
filtration indices of facets, serve cycle reconstruction.  Columns are
sorted sequences of (row, coefficient), with coefficients read modulo
the working modulus Q: cached columns hold the signs +1/-1, and the
reducers start from them without a copy; column_axpy writes values in
[1, Q).  An entry that is zero modulo some of the basis primes but not
all of them stays in the column, which is what lets one column carry
every field at once.
"""

from __future__ import annotations

from bisect import bisect

from .crt import PrimeBasis, partial_identity

Simplex = tuple[int, ...]
Entry = tuple[int, int]
SparseColumn = list[Entry]

__all__ = [
    "FilteredComplex",
    "Simplex",
    "SparseColumn",
    "boundary_column",
    "column_axpy",
    "column_scale",
    "load_filtration",
    "low_extended",
    "partial_negate",
    "partial_swap",
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
    return verts


class FilteredComplex:
    """Immutable filtered simplicial complex; indices are 1-based.

    Built from (vertices, value) pairs; simplices are ordered by
    (value, dimension, vertex tuple) so that ties in value are broken
    deterministically, and the result is validated: faces must be
    present, enter no later than their cofaces, and each step adds
    exactly one simplex.
    """

    __slots__ = (
        "simplices", "values", "index_of", "_dims", "_brows", "_crows", "_nbrs", "_top"
    )

    def __init__(self, items):
        pairs = [(_normalize_simplex(v), float(f)) for v, f in items]
        pairs.sort(key=lambda p: (p[1], len(p[0]), p[0]))
        self.simplices: tuple[Simplex, ...] = tuple(p[0] for p in pairs)
        self.values: tuple[float, ...] = tuple(p[1] for p in pairs)
        index: dict[Simplex, int] = {}
        for j, s in enumerate(self.simplices, start=1):
            if s in index:
                raise ValueError(f"duplicate simplex {s}")
            index[s] = j
        self.index_of: dict[Simplex, int] = index
        self._dims: tuple[int, ...] = tuple(len(s) - 1 for s in self.simplices)
        self._brows: list[tuple[tuple[int, int], ...] | None] = [None] * len(pairs)
        # coboundary cache and vertex neighbourhoods, built on first use
        self._crows: list[tuple[tuple[int, int], ...] | None] | None = None
        self._nbrs: dict[int, set[int]] = {}
        self._top = -1
        self._validate()

    def _validate(self) -> None:
        for j, verts in enumerate(self.simplices, start=1):
            if len(verts) == 1:
                continue
            for i in range(len(verts)):
                facet = verts[:i] + verts[i + 1 :]
                fj = self.index_of.get(facet)
                if fj is None:
                    raise ValueError(
                        f"simplex {verts} is missing its face {facet}"
                    )
                if fj >= j:
                    raise ValueError(
                        f"face {facet} enters after its coface {verts}"
                    )

    def __len__(self) -> int:
        return len(self.simplices)

    def simplex(self, j: int) -> Simplex:
        return self.simplices[j - 1]

    def value(self, j: int) -> float:
        return self.values[j - 1]

    def dim(self, j: int) -> int:
        return self._dims[j - 1]

    @property
    def max_dim(self) -> int:
        return max(self._dims) if self._dims else -1

    def indices_by_dim(self) -> dict[int, list[int]]:
        """Filtration indices grouped by simplex dimension, ascending."""
        out: dict[int, list[int]] = {}
        for j, d in enumerate(self._dims, start=1):
            out.setdefault(d, []).append(j)
        return out

    def boundary_rows(self, j: int) -> tuple[tuple[int, int], ...]:
        """Facet rows of simplex j with signs +1/-1, sorted by row; cached."""
        cached = self._brows[j - 1]
        if cached is not None:
            return cached
        verts = self.simplices[j - 1]
        rows: list[tuple[int, int]] = []
        if len(verts) > 1:
            for i in range(len(verts)):
                facet = verts[:i] + verts[i + 1 :]
                row = self.index_of.get(facet)
                if row is None:
                    raise ValueError(
                        f"face {facet} of simplex {verts} not in complex"
                    )
                rows.append((row, 1 if i % 2 == 0 else -1))
            rows.sort()
        result = tuple(rows)
        self._brows[j - 1] = result
        return result

    def coboundary_rows(self, i: int) -> tuple[tuple[int, int], ...]:
        """Rows of simplex i's column in the anti-transposed coboundary
        matrix: (m+1-j, sign of i in the boundary of j) for every cofacet
        j, sorted by row; cached, except for top-dimensional simplices,
        whose columns are empty.

        A cofacet is the simplex plus one vertex adjacent to all of its
        vertices, so candidates come from the vertex neighbourhoods and
        are kept when the complex contains them.
        """
        crows = self._crows
        if crows is None:
            crows = self._crows = [None] * len(self.simplices)
            nbrs = self._nbrs = {s[0]: set() for s in self.simplices if len(s) == 1}
            for s in self.simplices:
                if len(s) == 2:
                    nbrs[s[0]].add(s[1])
                    nbrs[s[1]].add(s[0])
            self._top = self.max_dim
        cached = crows[i - 1]
        if cached is not None:
            return cached
        if self._dims[i - 1] == self._top:
            return ()
        nbrs = self._nbrs
        verts = self.simplices[i - 1]
        index_of = self.index_of
        m1 = len(self.simplices) + 1
        rows: list[tuple[int, int]] = []
        for v in nbrs[verts[0]].intersection(*(nbrs[u] for u in verts[1:])):
            pos = bisect(verts, v)
            j = index_of.get(verts[:pos] + (v,) + verts[pos:])
            if j is not None:
                rows.append((m1 - j, 1 if pos % 2 == 0 else -1))
        rows.sort()
        result = tuple(rows)
        crows[i - 1] = result
        return result

    def coboundary_order(self) -> list[int]:
        """Columns of the anti-transposed coboundary matrix in clearing
        order: ascending dimension, and ascending column (descending
        simplex index) within a dimension, so every pivot row a column
        could clear is known before that column is reached."""
        m1 = len(self.simplices) + 1
        by_dim = self.indices_by_dim()
        return [m1 - i for d in sorted(by_dim) for i in reversed(by_dim[d])]


def boundary_column(cx: FilteredComplex, basis: PrimeBasis, j: int) -> SparseColumn:
    """Boundary of simplex j as a sparse column with signs 1 and Q-1."""
    q_all = basis.product
    return [(row, 1 if sign > 0 else q_all - 1) for row, sign in cx.boundary_rows(j)]


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


def column_scale(col: SparseColumn, alpha: int, q_all: int) -> SparseColumn:
    """alpha*col over Z/QZ, zeros dropped."""
    alpha %= q_all
    if alpha == 1:
        return list(col)
    out = []
    for row, c in col:
        c = c * alpha % q_all
        if c:
            out.append((row, c))
    return out


def low_extended(col: SparseColumn, mask: int) -> int | None:
    """Largest row whose coefficient is nonzero mod mask; None if no such row."""
    for row, c in reversed(col):
        if c % mask:
            return row
    return None


def partial_swap(a: SparseColumn, b: SparseColumn, basis: PrimeBasis, mask: int):
    """Exchange the projections of two columns on the fields of the mask."""
    q_all = basis.product
    l_in = partial_identity(basis, mask)
    l_out = (1 - l_in) % q_all
    a2 = column_axpy(column_scale(a, l_out, q_all), l_in, b, q_all)
    b2 = column_axpy(column_scale(b, l_out, q_all), l_in, a, q_all)
    return a2, b2


def partial_negate(a: SparseColumn, basis: PrimeBasis, mask: int) -> SparseColumn:
    """Negate the projection of a column on the fields of the mask."""
    q_all = basis.product
    return column_scale(a, (1 - 2 * partial_identity(basis, mask)) % q_all, q_all)


def load_filtration(path) -> FilteredComplex:
    """Read a filtration file: one `dim v0 v1 ... vd value` line per simplex.

    Blank lines and lines starting with '#' are skipped.  Lines need not
    be sorted; the deterministic (value, dimension, vertices) order is
    imposed on load and closure is validated.
    """
    items = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                dim = int(parts[0])
                if len(parts) != dim + 3:
                    raise ValueError(
                        f"expected {dim + 3} fields for dimension {dim}"
                    )
                verts = tuple(int(p) for p in parts[1 : dim + 2])
                value = float(parts[-1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad simplex line: {exc}") from None
            items.append((verts, value))
    if not items:
        raise ValueError(f"{path}: empty filtration")
    return FilteredComplex(items)


def _format_value(v: float) -> str:
    return repr(int(v)) if float(v).is_integer() else repr(v)


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
                + f" {_format_value(cx.value(j))}\n"
            )
