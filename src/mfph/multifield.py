"""Multi-field persistence in one reduction pass over Z/QZ.

One matrix with coefficients in Z/QZ, Q = q_1 * ... * q_r, is reduced so
that its projection mod every q_s reaches column echelon form
simultaneously.  The matrix is the anti-transposed coboundary matrix
(persistent cohomology), reduced in ascending dimension with clearing:
it pairs the same simplices as the boundary matrix (de Silva, Morozov
and Vejdemo-Johansson, 2011) and skips almost every column that would
need work.  An apparent column (Bauer, "Ripser", 2021; see
mfph.complexes) has a +1/-1 pivot, a unit in every field, so its
triple has mask Q and is registered before the loop; the loop visits
only the columns that are neither empty, apparent nor cleared, and the
diagram is assembled from arrays.  Because a coefficient can be zero in
some fields and invertible in others, a column can have several pivot
rows, one per group of fields, each the largest row nonzero modulo the
fields still open; each produces a triple (birth, death, mask) where
the mask is the product of the primes whose fields share that pair.
The loop meets each earlier pivot at a row once, and keeps no more
state than the reduction of Boissonnat and Maria (2019).  The
collection of triples, plus essentials grouped the same way, is the
multi-field diagram: P_r entries instead of sum_s P_F(s), with every
pair shared by all fields stored once.  It holds pairs, not
representative cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from math import gcd

import numpy as np

from .complexes import FilteredComplex, SparseColumn, column_axpy, format_value
from .crt import InconsistencyError, PrimeBasis, mask_primes, partial_inverse
from .single_field import FieldDiagram

__all__ = [
    "MultiFieldDiagram",
    "ReduceStats",
    "reduce_multifield",
    "save_multifield_diagram",
]

@dataclass(frozen=True)
class ReduceStats:
    """Operation accounting for one multi-field run."""

    axpy_count: int
    partial_inverse_count: int
    cache_hits: int
    apparent_pairs: int  # columns settled as apparent pairs, without the loop


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

    @property
    def p_r(self) -> int:
        return len(self.triples) + len(self.essentials)

    def project(self, s: int) -> FieldDiagram:
        """The single-field diagram of field s (1-based); ValueError
        unless 1 <= s <= r."""
        if not 1 <= s <= self.basis.r:
            raise ValueError(f"field index {s} out of range 1..{self.basis.r}")
        q = self.basis.primes[s - 1]
        pairs: list[tuple[int, int | None]] = [
            (i, j) for i, j, mask in self.triples if mask % q == 0
        ]
        pairs.extend((i, None) for i, mask in self.essentials if mask % q == 0)
        pairs.sort(key=lambda p: p[0])
        dims = tuple(self.index_dims[i - 1] for i, _ in pairs)
        return FieldDiagram(prime=q, pairs=tuple(pairs), dims=dims)


def reduce_multifield(
    cx: FilteredComplex, basis: PrimeBasis
) -> tuple[MultiFieldDiagram, ReduceStats]:
    """Reduce the coboundary matrix over Z/QZ for all basis fields at once.

    Columns are those of the anti-transposed coboundary matrix (see
    mfph.complexes), run in ascending dimension.  Every apparent column
    is a pivot of mask Q as it stands, so its triple is registered up
    front with its own sign as pivot coefficient, and its pivot row is
    cleared.  The loop visits only the other nonempty columns that are
    not cleared.  Per column j the working mask Q_S starts at Q and
    loses the fields of every pivot the column settles on.  The pivot
    row k is the largest row nonzero modulo Q_S, which while Q_S = Q is
    the largest stored row.  The candidate mask Q_T collects the fields
    of Q_S where col_j[k] is nonzero; one pass over the pivots earlier
    registered at row k lets each that shares fields with Q_T cancel its
    share by an axpy with a partial inverse, and whatever survives is
    recorded as the triple (m+1-j, m+1-k, Q_T).  The search then starts
    afresh on the smaller Q_S, so a pivot the axpys failed to cancel is
    found again and raises.  The column is done once Q_S is 1 or no
    entry is nonzero modulo Q_S.  A column is skipped (cleared) once its
    index is a pivot row in every field.

    Raises InconsistencyError if an invariant of the reduction fails: a
    column is reduced by one that comes later in the clearing order, a
    column's pivot neither falls nor loses fields, or an index is paired
    twice in one field.
    """
    q_all = basis.product
    m = len(cx)
    cb = cx.coboundary()
    app_cols, app_rows, app_signs = cb.apparent_pairs()

    # row -> ((column, mask, pivot coefficient), ...), masks pairwise
    # coprime; an apparent pivot row starts with its column's one entry
    entries = zip(app_cols.tolist(), repeat(q_all), app_signs.tolist())
    registry: dict[int, tuple[tuple[int, int, int], ...]]
    registry = dict(zip(app_rows.tolist(), zip(entries)))
    reduced: dict[int, SparseColumn] = {}
    # index -> product of the masks of the loop pairs that hold it, as
    # row or column; apparent pairs hold their two indices on Q
    cover: dict[int, int] = {}
    # the pivots (column, row, mask) the loop settles
    loop_cols: list[int] = []
    loop_rows: list[int] = []
    loop_masks: list[int] = []
    skip = np.zeros(m + 1, dtype=bool)
    skip[app_cols] = skip[app_rows] = True
    inv_cache: dict[tuple[int, int], int] = {}
    axpy_count = 0
    pinv_count = 0
    cache_hits = 0

    for j in cb.pending(skip):
        col = cb.column(j)
        mask_s = q_all
        prev = (q_all + 1, m + 1)
        while mask_s > 1:
            # the pivot row is the largest row nonzero mod mask_s; on Q
            # every stored row is, as column_axpy drops zeros mod Q
            if mask_s == q_all:
                k = max(col, default=0)
            else:
                k = max((row for row, c in col.items() if c % mask_s), default=0)
            if not k:
                break
            if not (mask_s < prev[0] or k < prev[1]):
                raise InconsistencyError(
                    f"column {j} neither shrank its mask nor lowered its pivot {k}"
                )
            prev = (mask_s, k)
            mask_t = mask_s // gcd(col[k], mask_s)
            # mask_t only shrinks, so one pass meets every earlier pivot at
            # row k that still shares fields with it
            for j2, mask2, c2 in registry.get(k, ()):
                shared = gcd(mask2, mask_t)
                if shared == 1:
                    continue
                if j2 >= j:
                    raise InconsistencyError(
                        f"column {j} meets column {j2}, later in the clearing order, at row {k}"
                    )
                mask_t //= shared
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
                source = reduced.get(j2)
                if source is None:  # an apparent column, listed once
                    source = reduced[j2] = cb.column(j2)
                col = column_axpy(col, -col.get(k, 0) * xbar, source, q_all)
                axpy_count += 1
            if mask_t != 1:
                registry[k] = registry.get(k, ()) + ((j, mask_t, col[k]),)
                loop_cols.append(j)
                loop_rows.append(k)
                loop_masks.append(mask_t)
                # column k comes later in the clearing order, so cover[k]
                # holds only row masks yet
                cover[k] = cover.get(k, 1) * mask_t
                if cover[k] == q_all:
                    skip[k] = True  # column k is cleared
                mask_s //= mask_t
        if mask_s < q_all:
            cover[j] = cover.get(j, 1) * (q_all // mask_s)
        if col:
            reduced[j] = col

    # an apparent pair covers its two indices in every field, a pair of
    # the loop its own on its mask; an index is essential where no pair
    # covers it, and raises if two pairs cover it in one field
    m1 = m + 1
    in_apparent = np.bincount(np.concatenate((app_cols, app_rows)), minlength=m1)
    twice = np.flatnonzero(in_apparent > 1)
    if twice.size:
        raise InconsistencyError(f"index {int(twice[0])} is paired twice in one field")
    free = in_apparent == 0
    free[0] = False
    ess_idx: list[int] = []
    ess_masks: list[int] = []
    for i in sorted(cover):
        held = cover[i] * (q_all if in_apparent[i] else 1)
        if q_all % held:
            raise InconsistencyError(f"index {i} is paired twice in one field")
        if held < q_all:
            ess_idx.append(i)
            ess_masks.append(q_all // held)
        free[i] = False

    # a pivot (row k, column j) of the anti-transposed coboundary matrix
    # pairs birth m+1-j with death m+1-k; a column registers at a row once
    births = m1 - np.concatenate((app_cols, np.array(loop_cols, dtype=np.int64)))
    deaths = m1 - np.concatenate((app_rows, np.array(loop_rows, dtype=np.int64)))
    masks = [q_all] * len(app_cols) + loop_masks
    at = np.lexsort((deaths, births)).tolist()
    triples = zip(births[at].tolist(), deaths[at].tolist(), map(masks.__getitem__, at))
    free = np.flatnonzero(free)
    births = m1 - np.concatenate((free, np.array(ess_idx, dtype=np.int64)))
    masks = [q_all] * len(free) + ess_masks
    at = np.argsort(births).tolist()
    essentials = zip(births[at].tolist(), map(masks.__getitem__, at))
    diagram = MultiFieldDiagram(
        basis=basis,
        triples=tuple(triples),
        essentials=tuple(essentials),
        index_dims=cx.dims,
        index_values=cx.values,
    )
    stats = ReduceStats(
        axpy_count=axpy_count,
        partial_inverse_count=pinv_count,
        cache_hits=cache_hits,
        apparent_pairs=len(app_cols),
    )
    return diagram, stats


def save_multifield_diagram(mf: MultiFieldDiagram, path) -> None:
    """Write `dim birth death birth_value death_value primes=...` lines;
    each distinct mask's primes are named once."""
    rows: list[tuple[int, int, int | None, int]] = [
        (mf.index_dims[i - 1], i, j, mask) for i, j, mask in mf.triples
    ]
    rows.extend((mf.index_dims[i - 1], i, None, mask) for i, mask in mf.essentials)
    rows.sort(key=lambda e: (e[0], e[1], e[2] if e[2] is not None else 1 << 62))
    masks = {e[3] for e in rows}
    names = {mask: ",".join(map(str, mask_primes(mf.basis, mask))) for mask in masks}
    with open(path, "w", encoding="utf-8") as fh:
        for dim, birth, death, mask in rows:
            primes = names[mask]
            bval = format_value(mf.index_values[birth - 1])
            if death is None:
                fh.write(f"{dim} {birth} inf {bval} inf primes={primes}\n")
            else:
                dval = format_value(mf.index_values[death - 1])
                fh.write(f"{dim} {birth} {death} {bval} {dval} primes={primes}\n")
