"""Single-field persistence by left-to-right column reduction.

The textbook algorithm over one prime field Z/qZ, run on the same
anti-transposed coboundary matrix and in the same column order as the
multi-field reduction (persistent cohomology with clearing; see
mfph.complexes).  It is kept deliberately plain: it is the per-field
brute-force baseline that the benchmark times, and the oracle the
multi-field reduction is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import FilteredComplex, column_axpy, format_value
from .crt import is_prime

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

    def pair_set(self) -> frozenset[tuple[int, int | None]]:
        return frozenset(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


def reduce_single_field(cx: FilteredComplex, q: int) -> tuple[FieldDiagram, int]:
    """Reduce the coboundary matrix over Z/qZ.

    Returns the diagram and the number of column operations performed.
    Columns run in ascending dimension and a column whose index is
    already a pivot row is skipped (cleared); the diagram equals that of
    the boundary matrix.
    """
    if q < 2 or not is_prime(q):
        raise ValueError(f"q must be a prime >= 2, got {q}")
    m1 = len(cx) + 1
    columns = cx.coboundary_columns()
    pivot_owner: dict[int, int] = {}
    reduced: dict[int, list[tuple[int, int]]] = {}
    finite_pairs: list[tuple[int, int]] = []
    ops = 0

    for j in cx.coboundary_order():
        if j in pivot_owner:
            continue
        col = columns[j]
        while col:
            k, c = col[-1]
            owner = pivot_owner.get(k)
            if owner is None:
                break
            own_col = reduced[owner]
            alpha = -c * pow(own_col[-1][1], -1, q) % q
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
    dims = tuple(cx.dims[i - 1] for i, _ in pairs)
    return FieldDiagram(prime=q, pairs=tuple(pairs), dims=dims), ops


def save_field_diagram(diagram: FieldDiagram, cx: FilteredComplex, path) -> None:
    """Write `dim birth_index death_index birth_value death_value q` lines."""
    rows = sorted(
        zip(diagram.pairs, diagram.dims), key=lambda e: (e[1], e[0][0])
    )
    with open(path, "w", encoding="utf-8") as fh:
        for (birth, death), dim in rows:
            dstr = str(death) if death is not None else "inf"
            dval = format_value(cx.value(death)) if death is not None else "inf"
            fh.write(
                f"{dim} {birth} {dstr} {format_value(cx.value(birth))} {dval}"
                f" {diagram.prime}\n"
            )
