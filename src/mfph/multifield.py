"""Multi-field persistence in one reduction pass over Z/QZ.

One matrix with coefficients in Z/QZ, Q = q_1 * ... * q_r, is reduced so
that its projection mod every q_s reaches column echelon form
simultaneously.  The matrix is the anti-transposed coboundary matrix
(persistent cohomology), reduced in ascending dimension with clearing:
it pairs the same simplices as the boundary matrix (de Silva, Morozov
and Vejdemo-Johansson, 2011) and skips almost every column that would
need work.  The boundary matrix is reduced only when the caller keeps
the basis for cycle reconstruction.  Because a coefficient can be zero
in some fields and invertible in others, a column can have several
pivot rows, one per group of fields; each produces a triple (birth,
death, mask) where the mask is the product of the primes whose fields
share that pair.  The collection of triples, plus essentials grouped
the same way, is the multi-field diagram: P_r entries instead of
sum_s P_F(s), with every pair shared by all fields stored once.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from math import gcd

from .complexes import FilteredComplex, SparseColumn, column_axpy, low_extended
from .crt import InconsistencyError, PrimeBasis, mask_primes, partial_inverse
from .single_field import FieldDiagram

__all__ = [
    "MultiFieldDiagram",
    "ReduceStats",
    "ReducerState",
    "project_diagram",
    "reconstruct_cycle",
    "reduce_multifield",
    "save_multifield_diagram",
]

_INF = float("inf")


@dataclass(frozen=True)
class ReduceStats:
    """Operation accounting for one multi-field run."""

    axpy_count: int
    partial_inverse_count: int
    cache_hits: int


@dataclass(frozen=True)
class ReducerState:
    """Retained columns for cycle reconstruction (keep_basis=True runs)."""

    reduced: dict[int, SparseColumn]
    combination: dict[int, SparseColumn]


@dataclass(frozen=True)
class MultiFieldDiagram:
    """All r persistence diagrams, deduplicated by field mask.

    triples: finite pairs (birth, death, mask); essentials: (birth, mask).
    A mask is the product of the basis primes in whose fields the entry
    holds.  index_dims/index_values give dimension and filtration value
    per filtration index for reporting.
    """

    basis: PrimeBasis
    triples: tuple[tuple[int, int, int], ...]
    essentials: tuple[tuple[int, int], ...]
    index_dims: tuple[int, ...]
    index_values: tuple[float, ...]
    state: ReducerState | None = field(default=None, repr=False, compare=False)

    @property
    def p_r(self) -> int:
        return len(self.triples) + len(self.essentials)

    def project(self, s: int) -> FieldDiagram:
        """The single-field diagram of field s (1-based)."""
        q = self.basis.primes[s - 1]
        pairs: list[tuple[int, int | None]] = [
            (i, j) for i, j, mask in self.triples if mask % q == 0
        ]
        pairs.extend((i, None) for i, mask in self.essentials if mask % q == 0)
        pairs.sort(key=lambda p: p[0])
        dims = tuple(self.index_dims[i - 1] for i, _ in pairs)
        return FieldDiagram(prime=q, pairs=tuple(pairs), dims=dims)

    def registry_sizes(self) -> dict[int, int]:
        """Number of registered pivot rows per death column j."""
        sizes: dict[int, int] = {}
        for _, j, _ in self.triples:
            sizes[j] = sizes.get(j, 0) + 1
        return sizes


def project_diagram(mf: MultiFieldDiagram, s: int) -> FieldDiagram:
    if not 1 <= s <= mf.basis.r:
        raise ValueError(f"field index {s} out of range 1..{mf.basis.r}")
    return mf.project(s)


def _coeff_at(col: SparseColumn, row: int) -> int:
    pos = bisect_left(col, (row,))
    if pos < len(col) and col[pos][0] == row:
        return col[pos][1]
    return 0


def reduce_multifield(
    cx: FilteredComplex,
    basis: PrimeBasis,
    clearing: bool = True,
    keep_basis: bool = False,
) -> tuple[MultiFieldDiagram, ReduceStats]:
    """Reduce the coboundary matrix over Z/QZ for all basis fields at once.

    Columns are those of the anti-transposed coboundary matrix (see
    mfph.complexes), run in ascending dimension.  Per column j the
    working mask Q_S starts at Q and loses the fields of every pivot the
    column settles on.  At each pivot row k the candidate mask Q_T
    collects the fields of Q_S where col_j[k] is nonzero; previously
    reduced columns registered at row k cancel their share of Q_T via
    partial inverses, and whatever survives is recorded as the triple
    (m+1-j, m+1-k, Q_T).  With clearing on, a column is skipped once its
    index is a pivot row in every field.

    keep_basis reduces the boundary matrix in index order instead, and
    retains the reduced columns and the accumulated combination columns
    for reconstruct_cycle, which then returns cycles; it requires
    clearing off (a skipped column has no recorded combination).  Both
    matrices give the same triples and essentials.

    Raises InconsistencyError if an invariant of the reduction fails.
    """
    if keep_basis and clearing:
        raise ValueError("keep_basis requires clearing=False")
    q_all = basis.product
    m = len(cx)

    if keep_basis:
        order, column, flip = range(1, m + 1), cx.boundary_rows, 0
    else:
        flip = m + 1
        order = cx.coboundary_order() if clearing else range(1, m + 1)
        column = lambda j: cx.coboundary_rows(flip - j)  # noqa: E731

    reduced: dict[int, SparseColumn] = {}
    combo: dict[int, SparseColumn] = {}
    # row -> [(column, mask, pivot coefficient)], masks pairwise coprime
    registry: dict[int, list[tuple[int, int, int]]] = {}
    pivots: list[tuple[int, int, int]] = []  # (row, column, mask)
    row_mask = [1] * (m + 1)
    col_mask = [1] * (m + 1)
    inv_cache: dict[tuple[int, int], int] = {}
    axpy_count = 0
    pinv_count = 0
    cache_hits = 0

    for j in order:
        if clearing and row_mask[j] == q_all:
            continue
        col = column(j)
        vcol: SparseColumn = [(j, 1)]
        mask_s = q_all
        prev = (q_all + 1, m + 1)
        while True:
            k = low_extended(col, mask_s)
            if k is None:
                break
            if not (mask_s < prev[0] or k < prev[1]):
                raise InconsistencyError(
                    f"column {j} neither shrank its mask nor lowered its pivot {k}"
                )
            prev = (mask_s, k)
            ck = _coeff_at(col, k)
            mask_t = mask_s // gcd(ck, mask_s)
            while mask_t > 1:
                hit = None
                for entry in registry.get(k, ()):
                    shared = gcd(entry[1], mask_t)
                    if shared > 1:
                        hit = entry
                        break
                if hit is None:
                    break
                j2, mask2, c2 = hit
                mask_t //= gcd(mask2, mask_t)
                key = (c2, mask2)
                xbar = inv_cache.get(key)
                if xbar is None:
                    xbar, inv_mask = partial_inverse(basis, c2, mask2)
                    if inv_mask != mask2:
                        raise InconsistencyError(
                            f"pivot {c2} of column {j2} is not invertible on mask {mask2}"
                        )
                    inv_cache[key] = xbar
                    pinv_count += 1
                else:
                    cache_hits += 1
                ck = _coeff_at(col, k)
                alpha = -ck * xbar % q_all
                col = column_axpy(col, alpha, reduced[j2], q_all)
                axpy_count += 1
                if keep_basis:
                    vcol = column_axpy(vcol, alpha, combo[j2], q_all)
            if mask_t != 1:
                ck = _coeff_at(col, k)
                pivots.append((k, j, mask_t))
                registry.setdefault(k, []).append((j, mask_t, ck))
                row_mask[k] *= mask_t
                col_mask[j] *= mask_t
                mask_s //= mask_t
        if col:
            reduced[j] = col
        if keep_basis:
            combo[j] = vcol

    essentials = []
    for i in range(1, m + 1):
        covered = row_mask[i] * col_mask[i]
        if q_all % covered:
            raise InconsistencyError(f"index {i} is paired twice in one field")
        if covered < q_all:
            essentials.append((i, q_all // covered))

    # a pivot (row k, column j) pairs birth k with death j in the boundary
    # matrix, and birth flip-j with death flip-k in the coboundary matrix
    if flip:
        triples = [(flip - j, flip - k, mask) for k, j, mask in pivots]
        essentials = [(flip - i, mask) for i, mask in reversed(essentials)]
    else:
        triples = pivots
    triples.sort(key=lambda tr: (tr[0], tr[1]))
    state = ReducerState(reduced=reduced, combination=combo) if keep_basis else None
    diagram = MultiFieldDiagram(
        basis=basis,
        triples=tuple(triples),
        essentials=tuple(essentials),
        index_dims=tuple(cx.dim(i) for i in range(1, m + 1)),
        index_values=tuple(cx.value(i) for i in range(1, m + 1)),
        state=state,
    )
    stats = ReduceStats(
        axpy_count=axpy_count,
        partial_inverse_count=pinv_count,
        cache_hits=cache_hits,
    )
    return diagram, stats


def reconstruct_cycle(mf: MultiFieldDiagram, j: int, s: int) -> list[tuple[int, int]]:
    """Chain over Z/q_sZ attached to column j.

    For a column that died in field s the reduced column itself is
    returned: a chain whose lowest row is the recorded birth.  For a
    column that is a (finite or essential) birth in field s the reduced
    column vanishes there, and the retained combination column is
    returned instead: a cycle, since its boundary is that zero column.
    """
    if mf.state is None:
        raise ValueError("reduction did not retain columns (keep_basis=False)")
    if not 1 <= s <= mf.basis.r:
        raise ValueError(f"field index {s} out of range 1..{mf.basis.r}")
    q = mf.basis.primes[s - 1]
    chain = [(row, c % q) for row, c in mf.state.reduced.get(j, []) if c % q]
    if chain:
        return chain
    return [(row, c % q) for row, c in mf.state.combination[j] if c % q]


def _fmt_value(v: float) -> str:
    if v == _INF:
        return "inf"
    return repr(int(v)) if float(v).is_integer() else repr(v)


def save_multifield_diagram(mf: MultiFieldDiagram, path) -> None:
    """Write `dim birth death birth_value death_value primes=...` lines."""
    rows: list[tuple[int, int, int | None, int]] = [
        (mf.index_dims[i - 1], i, j, mask) for i, j, mask in mf.triples
    ]
    rows.extend((mf.index_dims[i - 1], i, None, mask) for i, mask in mf.essentials)
    rows.sort(key=lambda e: (e[0], e[1], e[2] if e[2] is not None else 1 << 62))
    with open(path, "w", encoding="utf-8") as fh:
        for dim, birth, death, mask in rows:
            primes = ",".join(str(q) for q in mask_primes(mf.basis, mask))
            bval = _fmt_value(mf.index_values[birth - 1])
            if death is None:
                fh.write(f"{dim} {birth} inf {bval} inf primes={primes}\n")
            else:
                dval = _fmt_value(mf.index_values[death - 1])
                fh.write(f"{dim} {birth} {death} {bval} {dval} primes={primes}\n")
