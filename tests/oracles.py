"""Independent oracles for the tests: dense rank computation over prime
fields, Betti numbers of filtration prefixes via rank-nullity, small
random complexes, fixed triangulations with known homology (Moore
spaces M(Z/q, 1) among them), the CRT conversions between Z/QZ and its
fields, integral homology by integer elimination, and the per-row
writers, loaders and UCT loop that the library's array code replaced.

Everything here deliberately avoids the library's sparse reduction so
that test comparisons cross two unrelated code paths.
"""

import math
import random
from itertools import combinations

from mfph.complexes import FilteredComplex, _Fault, data_lines, finite_float, format_value
from mfph.crt import _check_mask
from mfph.generators import linial_meshulam, minimal_projective_plane, random_flag
from mfph.torsion import IntegralProfile


def mod_rank(rows, q):
    """Rank of an integer matrix over Z/qZ by dense Gaussian elimination."""
    mat = [[x % q for x in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    pivot_row = 0
    for col in range(ncols):
        pivot = None
        for i in range(pivot_row, len(mat)):
            if mat[i][col] % q:
                pivot = i
                break
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        inv = pow(mat[pivot_row][col], q - 2, q) if q > 2 else mat[pivot_row][col]
        mat[pivot_row] = [(x * inv) % q for x in mat[pivot_row]]
        for i in range(len(mat)):
            if i != pivot_row and mat[i][col]:
                factor = mat[i][col]
                mat[i] = [
                    (a - factor * b) % q for a, b in zip(mat[i], mat[pivot_row])
                ]
        rank += 1
        pivot_row += 1
    return rank


def boundary_facets(cx):
    """Entry j (1..m) lists simplex j's facets as (index, sign), the
    facet without vertex ell signed (-1)^ell, found by a simplex -> index
    dict built here from cx.simplices; entry 0 is empty."""
    index = {s: j for j, s in enumerate(cx.simplices, start=1)}
    facets = [[]]
    for verts in cx.simplices:
        ells = range(len(verts)) if len(verts) > 1 else ()
        facets.append([(index[verts[:ell] + verts[ell + 1 :]], (-1) ** ell) for ell in ells])
    return facets


def boundary_dense(cx, d, t):
    """Dense matrix of the d-boundary of the prefix complex K_t."""
    if d == 0:
        return []
    rows = [j for j in range(1, t + 1) if cx.dim(j) == d - 1]
    cols = [j for j in range(1, t + 1) if cx.dim(j) == d]
    row_pos = {cx.simplex(j): i for i, j in enumerate(rows)}
    mat = [[0] * len(cols) for _ in rows]
    for c, j in enumerate(cols):
        verts = cx.simplex(j)
        for ell in range(len(verts)):
            mat[row_pos[verts[:ell] + verts[ell + 1 :]]][c] = (-1) ** ell
    return mat


def boundary_pairs(cx, q):
    """Persistence pairs of cx over Z/qZ by the standard left-to-right
    reduction of the boundary matrix: (birth, death) for each pivot and
    (birth, None) for each index that is neither.  Columns come from
    boundary_facets."""
    reduced = {}  # pivot row -> reduced column {row: coefficient}
    pairs = set()
    facets = boundary_facets(cx)
    for j in range(1, len(cx) + 1):
        col = {face: sign % q for face, sign in facets[j]}
        low = max(col, default=None)
        while low in reduced:
            other = reduced[low]
            factor = col[low] * pow(other[low], q - 2, q) % q
            for row, c in other.items():
                col[row] = (col.get(row, 0) - factor * c) % q
                if not col[row]:
                    del col[row]
            low = max(col, default=None)
        if col:
            reduced[low] = col
            pairs.add((low, j))
    paired = {i for pair in pairs for i in pair}
    pairs.update((i, None) for i in range(1, len(cx) + 1) if i not in paired)
    return frozenset(pairs)


def apparent_columns(cx):
    """The apparent columns of the anti-transposed coboundary matrix,
    ascending: those that no earlier column in the clearing order
    (ascending dimension, then ascending column) has an entry in their
    largest row.  Columns come from boundary_facets: column m+1-f holds
    row m+1-j for every facet f of simplex j."""
    m1 = len(cx) + 1
    rows = [set() for _ in range(m1)]
    for j, facets in enumerate(boundary_facets(cx)):
        for f, _ in facets:
            rows[m1 - f].add(m1 - j)
    seen = set()
    apparent = []
    for c in sorted(range(1, m1), key=lambda c: (cx.dim(m1 - c), c)):
        if rows[c] and max(rows[c]) not in seen:
            apparent.append(c)
        seen |= rows[c]
    return sorted(apparent)


def reference_flag_complex(n, edges, max_dim):
    """Flag complex up to max_dim of the graph on vertices 0..n-1 whose
    edges are given as {(u, w): value} with u < w, by recursive clique
    expansion: vertices at 0.0, and each clique at the largest value
    among its edges, ties keeping the value reached first."""
    lower = [[] for _ in range(n)]
    weight = [{} for _ in range(n)]
    for (u, w), value in edges.items():
        lower[w].append(u)
        weight[u][w] = value
    for nbrs in lower:
        nbrs.sort()
    lower_sets = [set(nbrs) for nbrs in lower]
    items = [((v,), 0.0) for v in range(n)]

    # every clique is built exactly once by repeatedly prepending a
    # smaller common neighbour to the current simplex
    def expand(simplex, cands, value):
        # simplex is ascending; cands are all below simplex[0], ascending
        for pos in range(len(cands) - 1, -1, -1):
            u = cands[pos]
            row = weight[u]
            uval = max(row[w] for w in simplex)
            nval = value if value >= uval else uval
            extended = (u,) + simplex
            items.append((extended, nval))
            if len(extended) <= max_dim:
                ncands = [w for w in cands[:pos] if w in lower_sets[u]]
                if ncands:
                    expand(extended, ncands, nval)

    if max_dim >= 1:
        for v, nbrs in enumerate(lower):
            if nbrs:
                expand((v,), nbrs, 0.0)
    return FilteredComplex(items)


def reference_random_flag(n, m_edges, max_dim, seed):
    """random_flag's filtration, by reference_flag_complex: the same
    m_edges distinct edges, drawn as ranks into the lexicographic list of
    pairs, enter at values 1..m_edges in draw order."""
    pairs = list(combinations(range(n), 2))
    drawn = random.Random(seed).sample(range(len(pairs)), m_edges)
    edges = {pairs[t]: float(value) for value, t in enumerate(drawn, start=1)}
    return reference_flag_complex(n, edges, max_dim)


def betti_prefix(cx, q, t=None, d_max=None):
    """Betti numbers of K_t over Z/qZ: beta_d = n_d - rank d_d - rank d_{d+1}."""
    if t is None:
        t = len(cx)
    if d_max is None:
        d_max = max((cx.dim(j) for j in range(1, t + 1)), default=0)
    counts = [0] * (d_max + 2)
    for j in range(1, t + 1):
        if cx.dim(j) <= d_max + 1:
            counts[cx.dim(j)] += 1
    betti = []
    ranks = [mod_rank(boundary_dense(cx, d, t), q) for d in range(d_max + 2)]
    for d in range(d_max + 1):
        betti.append(counts[d] - ranks[d] - ranks[d + 1])
    return betti


def _diagonal(mat):
    """The absolute values of the nonzero entries of a diagonal form of
    the integer matrix {(row, col): value}, by unimodular row and column
    operations over Python ints.  Each step pivots on an entry of least
    absolute value, the sparsest such first, and reduces its column and
    row by it; a remainder is a smaller pivot for a later step."""
    rows, cols = {}, {}
    for (i, j), v in mat.items():
        rows.setdefault(i, {})[j] = cols.setdefault(j, {})[i] = v

    def put(i, j, v):
        if v:
            rows[i][j] = cols[j][i] = v
        else:
            rows[i].pop(j, None)
            cols[j].pop(i, None)

    diagonal = []
    while any(cols.values()):
        _, i, j = min(((abs(v), len(rows[i]) * len(col)), i, j) for j, col in cols.items() for i, v in col.items())
        a = rows[i][j]
        for k in [k for k in cols[j] if k != i]:
            f = cols[j][k] // a
            for ell, v in list(rows[i].items()):
                put(k, ell, rows[k].get(ell, 0) - f * v)
        for ell in [ell for ell in rows[i] if ell != j]:
            f = rows[i][ell] // a
            for k, v in list(cols[j].items()):
                put(k, ell, cols[ell].get(k, 0) - f * v)
        if len(rows[i]) == len(cols[j]) == 1:
            diagonal.append(abs(a))
            del rows[i], cols[j]
    return diagonal


def integral_homology(cx, t):
    """H_d(K_t; Z) for d = 0..cx.max_dim as (free rank, torsion
    coefficients), from a diagonal form of each integer boundary matrix:
    the free rank is n_d - rank d_d - rank d_{d+1}, and each diagonal
    entry e > 1 of d_{d+1} is a summand Z/eZ.  The form need not be the
    Smith normal form (Z/3 + Z/5 may stay apart from Z/15), but a prime
    q divides as many coefficients as H_d has Z/q^kZ summands."""
    index = {cx.simplex(j): j for j in range(1, t + 1)}
    counts = [0] * (cx.max_dim + 1)
    mats = [{} for _ in range(cx.max_dim + 2)]  # mats[d]: the d-boundary
    for j in range(1, t + 1):
        verts = cx.simplex(j)
        d = len(verts) - 1
        counts[d] += 1
        for ell in range(len(verts) if d else 0):
            mats[d][index[verts[:ell] + verts[ell + 1 :]], j] = (-1) ** ell
    diagonals = [_diagonal(mat) for mat in mats]
    return [
        (counts[d] - len(diagonals[d]) - len(diagonals[d + 1]), tuple(sorted(e for e in diagonals[d + 1] if e > 1)))
        for d in range(cx.max_dim + 1)
    ]


def betti_at(diagram, t, d):
    """Per-field Betti oracle for betti_table: the classes of dimension d
    in a FieldDiagram that are alive at index t (birth <= t < death)."""
    count = 0
    for (birth, death), dim in zip(diagram.pairs, diagram.dims):
        if dim == d and birth <= t and (death is None or death > t):
            count += 1
    return count


def random_small_complex(rng, max_simplices=300):
    """A random flag or Linial-Meshulam filtration with at most 300 simplices."""
    while True:
        if rng.random() < 0.5:
            n = rng.randint(5, 10)
            m = rng.randint(n, min(math.comb(n, 2), 3 * n))
            cx = random_flag(n, m, rng.choice([2, 3]), rng.randrange(2**32))
        else:
            n = rng.randint(5, 8)
            m = rng.randint(1, min(25, math.comb(n, 3)))
            cx = linial_meshulam(n, m, rng.randrange(2**32))
        if len(cx) <= max_simplices:
            return cx


def filled_triangle():
    """Vertices a,b,c then edges ab, ac, then bc, then the face: the
    standard 7-step filtration with one 1-cycle closed at step 6."""
    return FilteredComplex(
        [
            ((1,), 1.0),
            ((2,), 2.0),
            ((3,), 3.0),
            ((1, 2), 4.0),
            ((1, 3), 5.0),
            ((2, 3), 6.0),
            ((1, 2, 3), 7.0),
        ]
    )


def coned_projective_plane():
    """The 6-vertex projective plane at value 0, coned off from vertex 7
    at value 1.  The cone is contractible, but mod 2 the plane's 1- and
    2-classes live until value 1, while mod 3 and mod 5 the triangle
    that closes the 2-class mod 2 kills the 1-cycle instead."""
    rp2 = minimal_projective_plane()
    faces = [rp2.simplex(j) for j in range(1, len(rp2) + 1)]
    items = [(face, 0.0) for face in faces]
    items.append(((7,), 1.0))
    items.extend((face + (7,), 1.0) for face in faces)
    return FilteredComplex(items)


def _closure(cells):
    """{face: value} over every face of the (simplex, value) pairs, each
    face at the least value of a simplex that holds it."""
    values = {}
    for simplex, v in cells:
        simplex = tuple(sorted(simplex))
        for k in range(1, len(simplex) + 1):
            for face in combinations(simplex, k):
                values[face] = min(v, values.get(face, v))
    return values


def _moore_cells(q, circle, first, value):
    """M(Z/q, 1) as (simplex, value) pairs: the circle on the three vertex
    ids `circle` at value 0; at `value`, an annulus of 6q triangles whose
    outer ring wraps the circle q times, and the cone from one apex over
    its inner ring of 3q vertices.  The inner ring is numbered from
    `first`, and the apex follows it."""
    ring = 3 * q
    apex = first + ring
    cells = [((circle[k], circle[(k + 1) % 3]), 0.0) for k in range(3)]
    for k in range(ring):
        c0, c1 = circle[k % 3], circle[(k + 1) % 3]
        i0, i1 = first + k, first + (k + 1) % ring
        cells += [((c0, c1, i0), value), ((c1, i0, i1), value), ((i0, i1, apex), value)]
    return cells


def moore_space(q, cone=False):
    """The Moore space M(Z/q, 1) in 24q + 7 simplices: the mapping cone
    of the degree-q map on a circle.  Over Z, H_1 is Z on [0, 1) and Z/q
    from 1 on; with cone=True, a cone over everything at value 2 ends
    the Z/q there."""
    cells = _moore_cells(q, (0, 1, 2), 3, 1.0)
    if cone:
        apex = 3 * q + 4
        cells += [(face + (apex,), 2.0) for face in _closure(cells)]
    return FilteredComplex(sorted(_closure(cells).items()))


def moore_wedge():
    """M(Z/3, 1) with its disk at value 1 and M(Z/5, 1) with its disk at
    value 2, wedged at vertex 0, both circles at value 0 (205 simplices).
    Over Z, H_1 is Z^2 on [0, 1), Z + Z/3 on [1, 2) and Z/3 + Z/5 from 2."""
    cells = _moore_cells(3, (0, 1, 2), 3, 1.0) + _moore_cells(5, (0, 13, 14), 15, 2.0)
    return FilteredComplex(sorted(_closure(cells).items()))


def moore_suspension_wedge():
    """M(Z/2, 1) with its disk at value 1, wedged at vertex 0 with the
    suspension of M(Z/3, 1) whose disk is at value 2 (293 simplices);
    each cone over a cell of M(Z/3, 1) enters with that cell.  Over Z,
    H_1 is Z on [0, 1) and Z/2 from 1; H_2 is Z on [0, 2) and Z/3 from 2.
    So over {2, 3} each field sees torsion at the end."""
    cells = [(cell + (pole,), v) for cell, v in _moore_cells(3, (0, 1, 2), 3, 2.0) for pole in (13, 14)]
    cells += _moore_cells(2, (0, 15, 16), 17, 1.0)
    return FilteredComplex(sorted(_closure(cells).items()))


def klein_grid(a=4, b=4):
    """Triangulated Klein bottle: an a-by-b grid with the u-direction
    glued after reversing v.  All simplices at value 0."""

    def vid(i, j):
        if i == a:
            i, j = 0, (b - j) % b
        return i * b + (j % b) + 1

    triangles = []
    for i in range(a):
        for j in range(b):
            triangles.append((vid(i, j), vid(i + 1, j), vid(i, j + 1)))
            triangles.append((vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)))
    edges = set()
    for tri in triangles:
        edges.update(combinations(sorted(tri), 2))
    items = [((v,), 0.0) for v in range(1, a * b + 1)]
    items.extend((e, 0.0) for e in sorted(edges))
    items.extend((tuple(sorted(t)), 0.0) for t in triangles)
    return FilteredComplex(items)


def axpy_upper_bound(mf):
    """Output-sensitivity bound on the modular axpy count.

    Column j can be hit at most once per finite pairing that died
    strictly before j, so the total is sum over triples of (m - death).
    """
    m = len(mf.index_dims)
    return sum(m - death for _, death, _ in mf.triples)


def reference_divergence(mf, m_max):
    """One torsion_window trial as it was computed per entry: each birth
    index's death values across fields (an essential dying at m_max + 1),
    and the hull, over births with more than one, of the intervals from
    the earliest death to one step before the latest, capped at m_max;
    None without such a birth."""
    deaths = {}
    for birth, death, _mask in mf.triples:
        deaths.setdefault(birth, []).append(float(mf.index_values[death - 1]))
    for birth, _mask in mf.essentials:
        deaths.setdefault(birth, []).append(float(m_max + 1))
    lo = hi = None
    for versions in deaths.values():
        if len(versions) < 2:
            continue
        v_lo = min(versions)
        v_hi = min(max(versions) - 1.0, float(m_max))
        lo = v_lo if lo is None else min(lo, v_lo)
        hi = v_hi if hi is None else max(hi, v_hi)
    return None if lo is None else (lo, hi)


def reference_load_filtration(path):
    """The filtration loader as it was before it read blocks of lines:
    one line at a time through data_lines, each token through int or
    finite_float, and the first bad line named as `path:lineno: ...`;
    the ingest's faults are named by the line of the simplex."""
    flat, dims, values, lines = [], [], [], []
    for lineno, parts in data_lines(path):
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
        lines.append(lineno)
    if not dims:
        raise ValueError(f"{path}: empty filtration")
    try:
        return FilteredComplex._from_flat(flat, dims, values)
    except _Fault as exc:
        raise ValueError(f"{path}:{lines[exc.at]}: {exc}") from None


def crt_combine(basis, residues):
    """The unique x in [0, Q) with x = u_s mod q_s for every field s."""
    us = list(residues)
    if len(us) != basis.r:
        raise ValueError(f"expected {basis.r} residues, got {len(us)}")
    for u, q in zip(us, basis.primes):
        if not 0 <= u < q:
            raise ValueError(f"residue {u} out of range for prime {q}")
    return sum(u * partial_identity(basis, q) for u, q in zip(us, basis.primes)) % basis.product


def crt_project(basis, x, s):
    """Residue of x in field s (1-based)."""
    if not 1 <= s <= basis.r:
        raise ValueError(f"field index {s} out of range 1..{basis.r}")
    return x % basis.primes[s - 1]


def partial_identity(basis, mask):
    """L_S: the element that is 1 mod q_s for s in S, 0 mod the rest.

    With c = Q / Q_S, it is c * (c^-1 mod Q_S): c vanishes on the fields
    outside S, and the product is below c * Q_S = Q.
    """
    _check_mask(basis, mask)
    c = basis.product // mask
    return c * pow(c, -1, mask)


def reference_save_field_diagram(diagram, cx, path):
    """The single-field diagram writer as it was: rows sorted by (dim,
    birth) in Python, each value formatted per row."""
    rows = sorted(zip(diagram.pairs, diagram.dims), key=lambda e: (e[1], e[0][0]))
    with open(path, "w", encoding="utf-8") as fh:
        for (birth, death), dim in rows:
            dstr = str(death) if death is not None else "inf"
            dval = format_value(cx.value(death)) if death is not None else "inf"
            fh.write(
                f"{dim} {birth} {dstr} {format_value(cx.value(birth))} {dval}"
                f" {diagram.prime}\n"
            )


def reference_infer_torsion(table):
    """The UCT recurrence as it was: one Python step per (dimension,
    field), carrying the previous dimension's row by hand, against the
    field of the largest prime whose Betti number is the least of its
    dimension's at every d (or, with none, of the largest prime)."""
    r = table.basis.r
    least = [s for s in range(1, r + 1) if all(row[s - 1] == min(row) for row in table.beta)]
    reference = max(least or range(1, r + 1), key=lambda s: table.basis.primes[s - 1])
    beta_z = tuple(row[reference - 1] for row in table.beta)
    offenders = []
    torsion = []
    prev = [0] * r
    for d in range(len(table.beta)):
        row = []
        for s in range(1, r + 1):
            if d == 0:
                t_ds = 0
                if table.beta[0][s - 1] != beta_z[0]:
                    offenders.append((0, table.basis.primes[s - 1]))
            else:
                t_ds = table.beta[d][s - 1] - beta_z[d] - prev[s - 1]
                if t_ds < 0:
                    offenders.append((d, table.basis.primes[s - 1]))
            row.append(t_ds)
        torsion.append(tuple(row))
        prev = row
    return IntegralProfile(
        basis=table.basis,
        t=table.t,
        reference=reference,
        beta_z=beta_z,
        torsion=tuple(torsion),
        consistent=not offenders,
        offenders=tuple(offenders),
    )


def reference_torsion_csv_rows(profile):
    """torsion_csv_rows as it was, indexing the primes per cell."""
    rows = ["t,d,beta_Z,q,t_d_q"]
    for d in range(len(profile.beta_z)):
        for s in range(1, profile.basis.r + 1):
            rows.append(
                f"{profile.t},{d},{profile.beta_z[d]},"
                f"{profile.basis.primes[s - 1]},{profile.torsion[d][s - 1]}"
            )
    return rows
