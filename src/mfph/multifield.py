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
triples, plus essentials grouped the same way, are the multi-field
diagram: P_r entries instead of sum_s P_F(s), every pair shared by all
fields stored once, as pairs and not representative cycles.  It has
one form, the reducer's arrays of births, deaths and mask ids beside
the complex's own dimension and value arrays, and every reader pays
per distinct mask, not per field.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain, repeat
from math import gcd

import numpy as np

from .complexes import FilteredComplex, SparseColumn, column_axpy, save_diagram
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


@dataclass(frozen=True, eq=False)  # compared and hashed by identity: fields are arrays
class MultiFieldDiagram:
    """All r persistence diagrams, deduplicated by field mask, as arrays.

    Entry e pairs births[e] with deaths[e], or is an essential class
    born at births[e] when deaths[e] is 0, and holds in the fields whose
    primes divide its mask masks[ids[e]].  births, deaths and ids are
    read-only int64 arrays listing the finite pairs by (birth, death),
    then the essentials by birth; masks holds the distinct masks, Q
    first.  index_dims and index_values are the complex's own read-only
    arrays, shared and not copied: index j has dimension index_dims[j-1]
    and filtration value index_values[j-1].
    """

    basis: PrimeBasis
    births: np.ndarray
    deaths: np.ndarray
    ids: np.ndarray
    masks: tuple[int, ...]
    index_dims: np.ndarray
    index_values: np.ndarray

    @property
    def p_r(self) -> int:
        return len(self.births)

    @property
    def triples(self) -> tuple[tuple[int, int, int], ...]:
        """The finite pairs (birth, death, mask), built on each access."""
        at = np.flatnonzero(self.deaths)
        masks = map(self.masks.__getitem__, self.ids[at].tolist())
        return tuple(zip(self.births[at].tolist(), self.deaths[at].tolist(), masks))

    @property
    def essentials(self) -> tuple[tuple[int, int], ...]:
        """The essential classes (birth, mask), built on each access."""
        at = np.flatnonzero(self.deaths == 0)
        masks = map(self.masks.__getitem__, self.ids[at].tolist())
        return tuple(zip(self.births[at].tolist(), masks))

    def project(self, s: int) -> FieldDiagram:
        """The single-field diagram of field s (1-based); ValueError
        unless 1 <= s <= r."""
        if not 1 <= s <= self.basis.r:
            raise ValueError(f"field index {s} out of range 1..{self.basis.r}")
        q = self.basis.primes[s - 1]
        held = np.array([mask % q == 0 for mask in self.masks])[self.ids]
        births, deaths = self.births[held], self.deaths[held]
        at = np.argsort(births, kind="stable")
        births = births[at]
        pairs = tuple(zip(births.tolist(), [d or None for d in deaths[at].tolist()]))
        return FieldDiagram(prime=q, pairs=pairs, dims=tuple(self.index_dims[births - 1].tolist()))

    def projections(self) -> list[FieldDiagram]:
        """project(s) for s = 1..r.  Fields whose primes divide the same
        masks have the same pairs, so each such group is projected once
        and its diagram shared, with the prime of each field."""
        group: dict[tuple[bool, ...], FieldDiagram] = {}
        out = []
        for s, q in enumerate(self.basis.primes, start=1):
            key = tuple(mask % q == 0 for mask in self.masks)
            if key in group:
                out.append(replace(group[key], prime=q))
            else:
                out.append(group.setdefault(key, self.project(s)))
        return out

    def field_sizes(self) -> tuple[int, ...]:
        """P_F per field, in basis order: the entries whose mask its prime
        divides, summed from one count per distinct mask."""
        count = np.bincount(self.ids, minlength=len(self.masks)).tolist()
        return tuple(sum(n for mask, n in zip(self.masks, count) if mask % q == 0) for q in self.basis.primes)


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
    # pairs birth m+1-j with death m+1-k, and an essential index i is born
    # at m+1-i; the entries are the apparent pairs, the loop's pairs, the
    # free indices and the loop's essentials, with Q as mask 0
    free = np.flatnonzero(free)
    masks = tuple(dict.fromkeys(chain((q_all,), loop_masks, ess_masks)))
    mask_id = dict(zip(masks, range(len(masks))))
    n_app, n_fin, n_free = len(app_cols), len(app_cols) + len(loop_cols), len(free)
    births = m1 - np.concatenate((app_cols, np.array(loop_cols, np.int64), free, np.array(ess_idx, np.int64)))
    deaths = np.zeros(len(births), dtype=np.int64)
    deaths[:n_fin] = m1 - np.concatenate((app_rows, np.array(loop_rows, np.int64)))
    ids = np.zeros(len(births), dtype=np.int64)
    ids[n_app:n_fin] = list(map(mask_id.__getitem__, loop_masks))
    ids[n_fin + n_free :] = list(map(mask_id.__getitem__, ess_masks))
    # the finite pairs by (birth, death), then the essentials by birth; a
    # column registers at a row once, and an index is essential once
    at = np.lexsort((deaths, births, deaths == 0))
    births, deaths, ids = births[at], deaths[at], ids[at]
    for array in (births, deaths, ids):
        array.setflags(write=False)
    diagram = MultiFieldDiagram(basis, births, deaths, ids, masks, cx._dims, cx._values)
    stats = ReduceStats(
        axpy_count=axpy_count,
        partial_inverse_count=pinv_count,
        cache_hits=cache_hits,
        apparent_pairs=len(app_cols),
    )
    return diagram, stats


def save_multifield_diagram(mf: MultiFieldDiagram, path) -> None:
    """Write `dim birth death birth_value death_value primes=...` lines by
    save_diagram, each distinct mask's primes listed once."""
    labels = ["primes=" + ",".join(map(str, mask_primes(mf.basis, mask))) for mask in mf.masks]
    save_diagram(path, mf.births, mf.deaths, mf.ids, labels, mf.index_dims, mf.index_values)
