"""Independent oracles for the tests: dense rank computation over prime
fields, Betti numbers of filtration prefixes via rank-nullity, small
random complexes, and fixed triangulations with known homology.

Everything here deliberately avoids the library's sparse reduction so
that test comparisons cross two unrelated code paths.
"""

import math
import random
from itertools import combinations

from mfph.complexes import FilteredComplex
from mfph.generators import linial_meshulam, minimal_projective_plane, random_flag


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
