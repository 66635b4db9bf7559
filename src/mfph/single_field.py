"""Single-field persistence by left-to-right column reduction.

The textbook algorithm over one prime field Z/qZ, run on the same
anti-transposed coboundary matrix and in the same column order as the
multi-field reduction (persistent cohomology with clearing; see
mfph.complexes).  It takes the same shortcut too: apparent pairs
(Bauer, "Ripser", 2021) are paired before the loop, which visits only
the columns that are neither empty, apparent nor cleared, and the pair
list is assembled from arrays.  It is otherwise kept deliberately
plain: it is the per-field brute-force baseline that the benchmark
times, and the oracle the multi-field reduction is checked against.
Both reducers share the one column source and the one shortcut, so
their time ratio measures sharing between fields alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import FilteredComplex, SparseColumn, column_axpy, save_diagram
from .crt import InconsistencyError, is_prime

__all__ = [
    "FieldDiagram",
    "reduce_single_field",
    "save_field_diagram",
]

@dataclass(frozen=True)
class FieldDiagram:
    """Indexed persistence diagram over one prime field.

    pairs[k] is (birth, death) with death None for essential classes;
    dims[k] is the dimension of the class (= dim of the birth simplex).
    Every filtration index occurs in exactly one pair.
    """

    prime: int
    pairs: tuple[tuple[int, int | None], ...]
    dims: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.pairs)


def reduce_single_field(cx: FilteredComplex, q: int) -> tuple[FieldDiagram, int]:
    """Reduce the coboundary matrix over Z/qZ.

    Returns the diagram and the number of column operations performed.
    Apparent pairs are registered up front; the loop visits the other
    nonempty columns in ascending dimension and skips a column whose
    index is already a pivot row (cleared).  The diagram equals that of
    the boundary matrix.  Raises InconsistencyError if a column is
    reduced by one that comes later in the clearing order, or an index
    is paired twice.
    """
    if q < 2 or not is_prime(q):
        raise ValueError(f"q must be a prime >= 2, got {q}")
    m1 = len(cx) + 1
    cb = cx.coboundary()
    app_cols, app_rows, _ = cb.apparent_pairs()
    pivot_owner = dict(zip(app_rows.tolist(), app_cols.tolist()))
    reduced: dict[int, SparseColumn] = {}
    loop_cols: list[int] = []
    loop_rows: list[int] = []
    skip = np.zeros(m1, dtype=bool)
    skip[app_cols] = skip[app_rows] = True
    ops = 0

    for j in cb.pending(skip):
        col = cb.column(j)
        while col:
            k = max(col)  # the pivot row
            owner = pivot_owner.get(k)
            if owner is None:
                pivot_owner[k] = j
                skip[k] = True  # column k is cleared
                reduced[j] = col
                loop_cols.append(j)
                loop_rows.append(k)
                break
            if owner >= j:
                raise InconsistencyError(
                    f"column {j} meets column {owner}, later in the clearing order, at row {k}"
                )
            own_col = reduced.get(owner)
            if own_col is None:  # an apparent column, listed once
                own_col = reduced[owner] = cb.column(owner)
            # the owner's pivot row is k too
            alpha = -col[k] * pow(own_col[k], -1, q) % q
            col = column_axpy(col, alpha, own_col, q)
            ops += 1

    # pivot (row k, column j) pairs birth m1-j with death m1-k
    births = m1 - np.concatenate((app_cols, np.array(loop_cols, dtype=np.int64)))
    deaths = m1 - np.concatenate((app_rows, np.array(loop_rows, dtype=np.int64)))
    seen = np.bincount(np.concatenate((births, deaths)), minlength=m1)
    twice = np.flatnonzero(seen > 1)
    if twice.size:
        raise InconsistencyError(f"index {int(twice[0])} is paired twice")
    death_of = np.zeros(m1, dtype=np.int64)
    death_of[births] = deaths
    first = (seen == 0) | (death_of > 0)
    first[0] = False
    born = np.flatnonzero(first)
    pairs = tuple(zip(born.tolist(), [d or None for d in death_of[born].tolist()]))
    return FieldDiagram(prime=q, pairs=pairs, dims=tuple(cx._dims[born - 1].tolist())), ops


def save_field_diagram(diagram: FieldDiagram, cx: FilteredComplex, path) -> None:
    """Write `dim birth death birth_value death_value q` lines by
    save_diagram, an essential with `inf` for its death."""
    births = np.array([birth for birth, _ in diagram.pairs], dtype=np.int64)
    deaths = np.array([death or 0 for _, death in diagram.pairs], dtype=np.int64)
    ids = np.zeros(len(births), dtype=np.int64)
    save_diagram(path, births, deaths, ids, (str(diagram.prime),), cx._dims, cx._values)
