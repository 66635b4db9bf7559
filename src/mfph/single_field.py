"""Single-field persistence by left-to-right column reduction.

The textbook algorithm over one prime field Z/qZ, run on the same
anti-transposed coboundary matrix and in the same column order as the
multi-field reduction (persistent cohomology with clearing; see
mfph.complexes).  It is kept deliberately plain: it is the per-field
brute-force baseline that the benchmark times, and the oracle the
multi-field reduction is checked against.  Field arithmetic uses
machine words with a precomputed inverse table for q < 2^16.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import FilteredComplex, column_axpy
from .crt import is_prime

__all__ = [
    "FieldDiagram",
    "betti_at",
    "reduce_single_field",
    "save_field_diagram",
]

_INF = float("inf")


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

    def pair_set(self) -> frozenset[tuple[int, int | None]]:
        return frozenset(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


def _inverse_table(q: int) -> list[int]:
    inv = [0, 1] + [0] * (q - 2)
    for x in range(2, q):
        inv[x] = (q - q // x) * inv[q % x] % q
    return inv


def reduce_single_field(
    cx: FilteredComplex, q: int, clearing: bool = True
) -> tuple[FieldDiagram, int]:
    """Reduce the coboundary matrix over Z/qZ.

    Returns the diagram and the number of column operations performed.
    With clearing on, columns run in ascending dimension and a column
    whose index is already a pivot row is skipped; the resulting diagram
    is identical either way, and equal to that of the boundary matrix.
    """
    if q < 2 or not is_prime(q):
        raise ValueError(f"q must be a prime >= 2, got {q}")
    m1 = len(cx) + 1
    if q < 1 << 16:
        inv_table = _inverse_table(q)
        inv = inv_table.__getitem__
    else:
        inv = lambda x: pow(x, q - 2, q)  # noqa: E731

    order = cx.coboundary_order() if clearing else range(1, m1)
    pivot_owner: dict[int, int] = {}
    reduced: dict[int, list[tuple[int, int]]] = {}
    finite_pairs: list[tuple[int, int]] = []
    ops = 0

    for j in order:
        if clearing and j in pivot_owner:
            continue
        col = cx.coboundary_rows(m1 - j)
        while col:
            k, c = col[-1]
            owner = pivot_owner.get(k)
            if owner is None:
                break
            own_col = reduced[owner]
            alpha = -c * inv(own_col[-1][1] % q) % q
            col = column_axpy(col, alpha, own_col, q)
            ops += 1
        if col:
            k = col[-1][0]
            pivot_owner[k] = j
            reduced[j] = col
            finite_pairs.append((m1 - j, m1 - k))

    in_finite = {i for pair in finite_pairs for i in pair}
    pairs: list[tuple[int, int | None]] = list(finite_pairs)
    pairs.extend((i, None) for i in range(1, m1) if i not in in_finite)
    pairs.sort(key=lambda p: p[0])
    dims = tuple(cx.dim(i) for i, _ in pairs)
    return FieldDiagram(prime=q, pairs=tuple(pairs), dims=dims), ops


def betti_at(diagram: FieldDiagram, t: int, d: int) -> int:
    """Classes of dimension d alive at index t: birth <= t < death."""
    count = 0
    for (birth, death), dim in zip(diagram.pairs, diagram.dims):
        if dim == d and birth <= t and (death is None or death > t):
            count += 1
    return count


def _fmt_value(v: float) -> str:
    if v == _INF:
        return "inf"
    return repr(int(v)) if float(v).is_integer() else repr(v)


def save_field_diagram(diagram: FieldDiagram, cx: FilteredComplex, path) -> None:
    """Write `dim birth_index death_index birth_value death_value q` lines."""
    rows = sorted(
        zip(diagram.pairs, diagram.dims), key=lambda e: (e[1], e[0][0])
    )
    with open(path, "w", encoding="utf-8") as fh:
        for (birth, death), dim in rows:
            dstr = str(death) if death is not None else "inf"
            dval = _fmt_value(cx.value(death)) if death is not None else "inf"
            fh.write(
                f"{dim} {birth} {dstr} {_fmt_value(cx.value(birth))} {dval}"
                f" {diagram.prime}\n"
            )
