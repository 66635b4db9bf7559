"""Correctness checks that do not rely on the code they check.

The single-field reducer is the oracle for every projection of the
multi-field diagram.  Everything else here is computed from the
generated simplices alone: simplex counts for the Euler characteristic,
connected components of the 1-skeleton by union-find, Betti numbers of
Linial-Meshulam prefixes by a dense rank over Z/pZ, and the universal
coefficient recurrence behind `mfph torsion`.  Each check returns a list
of error strings; an empty list means the output passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

_INF = float("inf")


@dataclass(frozen=True)
class FieldSummary:
    """What the checks need from one field's diagram of one complex."""

    prime: int
    digest: int
    betti_end: tuple[int, ...]
    b1_deaths: tuple[int, ...]


def digest(diagram) -> int:
    """Order-independent fingerprint of a diagram's pairs and dimensions."""
    return hash(tuple(sorted(zip(diagram.pairs, diagram.dims), key=lambda e: e[0][0])))


def summarize(diagram, max_dim: int) -> FieldSummary:
    betti = [0] * (max_dim + 1)
    deaths = []
    for (_, death), dim in zip(diagram.pairs, diagram.dims):
        if death is None:
            betti[dim] += 1
        elif dim == 1:
            deaths.append(death)
    deaths.sort()
    return FieldSummary(diagram.prime, digest(diagram), tuple(betti), tuple(deaths))


def diagram_points(diagram, simplices, values) -> set:
    """(dim, birth value, death value) of every pair, inf for essentials."""
    return {
        (len(simplices[b - 1]) - 1, values[b - 1], _INF if d is None else values[d - 1])
        for b, d in diagram.pairs
    }


def perturbed(diagram):
    """Two wrong variants of a field diagram, and the check each must fail.

    Swapping the deaths of two finite pairs keeps every Betti number, so
    only the comparison with the other route can see it ("projection");
    dropping an essential 0-class must fail the Euler characteristic and
    union-find checks ("field").
    """
    pairs, dims = list(diagram.pairs), list(diagram.dims)
    finite = [k for k, (_, d) in enumerate(pairs) if d is not None]
    a, b = finite[0], finite[1]
    swapped = list(pairs)
    swapped[a], swapped[b] = (pairs[a][0], pairs[b][1]), (pairs[b][0], pairs[a][1])
    e = next(k for k, (_, d) in enumerate(pairs) if d is None and dims[k] == 0)
    dropped = replace(diagram, pairs=tuple(pairs[:e] + pairs[e + 1 :]), dims=tuple(dims[:e] + dims[e + 1 :]))
    return [("projection", replace(diagram, pairs=tuple(swapped))), ("field", dropped)]


def self_test(diagram, max_dim: int, counts, n_components: int) -> list[str]:
    """Errors if a perturbed copy of a correct diagram passes its check."""
    good = digest(diagram)
    errors = []
    for check, bad in perturbed(diagram):
        summary = summarize(bad, max_dim)
        caught = summary.digest != good if check == "projection" else check_field(summary, counts, n_components)
        if not caught:
            errors.append(f"a diagram perturbed for the {check} check passes it")
    return errors


def simplex_counts(simplices) -> list[int]:
    counts: list[int] = []
    for s in simplices:
        d = len(s) - 1
        if d >= len(counts):
            counts.extend([0] * (d + 1 - len(counts)))
        counts[d] += 1
    return counts


def components(simplices) -> int:
    """Connected components of the 1-skeleton, by union-find."""
    parent: dict[int, int] = {}

    def find(v: int) -> int:
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    for s in simplices:
        if len(s) == 1:
            parent.setdefault(s[0], s[0])
    count = len(parent)
    for s in simplices:
        if len(s) == 2:
            a, b = find(s[0]), find(s[1])
            if a != b:
                parent[a] = b
                count -= 1
    return count


def check_field(summary: FieldSummary, counts, n_components: int) -> list[str]:
    """Euler characteristic of the final complex and beta_0 by union-find."""
    errors = []
    euler = sum((-1) ** d * n for d, n in enumerate(counts))
    chi = sum((-1) ** d * b for d, b in enumerate(summary.betti_end))
    if chi != euler:
        errors.append(
            f"q={summary.prime}: Euler characteristic {chi} of Betti numbers"
            f" {summary.betti_end} != {euler} from simplex counts {counts}"
        )
    if summary.betti_end[0] != n_components:
        errors.append(
            f"q={summary.prime}: beta_0 = {summary.betti_end[0]}, union-find"
            f" finds {n_components} components"
        )
    return errors


def check_full_2_skeleton(summary: FieldSummary, n: int) -> list[str]:
    """Y(n, C(n,3)) is the full 2-skeleton of a simplex: beta = (1, 0, C(n-1,3))."""
    want = (1, 0, math.comb(n - 1, 3))
    if summary.betti_end != want:
        return [f"q={summary.prime}: Betti numbers {summary.betti_end} at the end, want {want}"]
    return []


def uct_csv_rows(summaries: list[FieldSummary], t: int) -> list[str]:
    """Expected `mfph torsion --csv` rows at index t = end of the filtration.

    The reference field is the largest prime; t(0, q) = 0 and
    t(d, q) = beta_d(q) - beta_d(ref) - t(d-1, q).
    """
    ref = max(summaries, key=lambda s: s.prime)
    rows = ["t,d,beta_Z,q,t_d_q"]
    prev = [0] * len(summaries)
    for d in range(len(ref.betti_end)):
        cur = []
        for k, s in enumerate(summaries):
            t_dq = 0 if d == 0 else s.betti_end[d] - ref.betti_end[d] - prev[k]
            cur.append(t_dq)
            rows.append(f"{t},{d},{ref.betti_end[d]},{s.prime},{t_dq}")
        prev = cur
    return rows


def check_uct(summaries: list[FieldSummary], t: int, csv_text: str) -> list[str]:
    errors = []
    want = uct_csv_rows(summaries, t)
    got = csv_text.splitlines()
    if got != want:
        errors.append(f"torsion CSV differs from the UCT recurrence: {got[:4]} ... vs {want[:4]} ...")
    for row in want[1:]:
        if int(row.rsplit(",", 1)[1]) < 0:
            errors.append(f"UCT profile is inconsistent: negative torsion count in {row}")
            break
    return errors


def boundary2_columns(simplices) -> tuple[int, list[list[tuple[int, int]]]]:
    """Edge count and the boundary of each triangle over the edges, in order."""
    edge_row: dict[tuple[int, ...], int] = {}
    cols = []
    for s in simplices:
        if len(s) == 2:
            edge_row[s] = len(edge_row)
        elif len(s) == 3:
            a, b, c = s
            cols.append([(edge_row[(b, c)], 1), (edge_row[(a, c)], -1), (edge_row[(a, b)], 1)])
    return len(edge_row), cols


def prefix_ranks(nrows: int, cols, p: int, limit: int) -> list[int]:
    """rank over Z/pZ of the first i columns, for i = 1..len(cols).

    Dense Gaussian elimination kept in reduced row echelon form, so each
    new column is reduced against all pivots in one product (exact in
    int64 while nrows * p**2 < 2**63).  limit is
    an upper bound on the rank (the cycle rank for boundary columns);
    once it is reached the remaining prefixes have that rank too.
    """
    if nrows * p * p >= 2**63:
        raise ValueError(f"prime {p} too large for exact int64 elimination")
    basis = np.zeros((limit, nrows), dtype=np.int64)  # row k: 1 at pivots[k], 0 at other pivots
    pivots = np.zeros(limit, dtype=np.int64)
    rank = 0
    ranks = []
    for col in cols:
        if rank == limit:
            ranks.extend([limit] * (len(cols) - len(ranks)))
            break
        v = np.zeros(nrows, dtype=np.int64)
        for row, c in col:
            v[row] = c % p
        if rank:
            v = (v - v[pivots[:rank]] @ basis[:rank]) % p
        nz = np.flatnonzero(v)
        if nz.size:
            i = int(nz[0])
            v = v * pow(int(v[i]), p - 2, p) % p
            if rank:
                basis[:rank] -= np.outer(basis[:rank, i], v)
                basis[:rank] %= p
            basis[rank] = v
            pivots[rank] = i
            rank += 1
        ranks.append(rank)
    return ranks


def beta1_from_ranks(n_vertices: int, n_edges: int, ranks) -> list[int]:
    """beta_1 after each triangle of a filtration whose graph is connected."""
    cycles = n_edges - (n_vertices - 1)
    return [cycles - rk for rk in ranks]


def beta1_from_diagram(summary: FieldSummary, first_triangle: int, n_triangles: int) -> list[int]:
    """beta_1 after each triangle, read off one field's diagram."""
    alive = len(summary.b1_deaths) + summary.betti_end[1]
    out = []
    k = 0
    deaths = summary.b1_deaths
    for i in range(n_triangles):
        t = first_triangle + i
        while k < len(deaths) and deaths[k] <= t:
            k += 1
        out.append(alive - k)
    return out


def check_beta1_by_rank(
    summaries: list[FieldSummary], simplices, rank_cache: dict[int, list[int]]
) -> tuple[list[str], int]:
    """Where fields disagree on beta_1, confirm both sides by dense rank.

    Returns the errors and the number of indices at which fields
    disagree.  rank_cache maps a prime to its prefix ranks and is filled
    on demand.
    """
    n_vertices = sum(1 for s in simplices if len(s) == 1)
    nrows, cols = boundary2_columns(simplices)
    first = len(simplices) - len(cols) + 1
    seqs = {s.prime: beta1_from_diagram(s, first, len(cols)) for s in summaries}
    ref = max(seqs)
    involved = {ref}
    disagree = 0
    for i in range(len(cols)):
        values = {q: seq[i] for q, seq in seqs.items()}
        if len(set(values.values())) > 1:
            disagree += 1
            involved.update(q for q, v in values.items() if v != values[ref])
    errors = []
    for q in sorted(involved):
        if q not in rank_cache:
            rank_cache[q] = prefix_ranks(nrows, cols, q, nrows - n_vertices + 1)
        dense = beta1_from_ranks(n_vertices, nrows, rank_cache[q])
        bad = [first + i for i in range(len(cols)) if dense[i] != seqs[q][i]]
        if bad:
            errors.append(
                f"q={q}: beta_1 from the diagram differs from the dense rank"
                f" at {len(bad)} indices, first {bad[0]}"
            )
    return errors, disagree


def shows_torsion(simplices, primes, reference: int) -> bool:
    """Some prefix of a complete-graph 2-complex has a smaller boundary
    rank mod one of primes than mod reference."""
    n_vertices = sum(1 for s in simplices if len(s) == 1)
    nrows, cols = boundary2_columns(simplices)
    limit = nrows - n_vertices + 1
    ref = prefix_ranks(nrows, cols, reference, limit)
    return any(prefix_ranks(nrows, cols, q, limit) != ref for q in primes)
