"""Complex generators: Rips filtrations, random complexes, shape samplers.

Random complexes use the stdlib Mersenne Twister (``random.Random``) and
point samplers use numpy's PCG64 generator; both are fully determined by
the seed, and the generator name and seed are recorded in file headers
written by the CLI so runs can be replayed.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .complexes import FilteredComplex, data_lines, finite_float

__all__ = [
    "COMPLEX_PRNG",
    "POINT_PRNG",
    "distance_matrix",
    "linial_meshulam",
    "load_distance_matrix",
    "load_points",
    "minimal_projective_plane",
    "random_flag",
    "rips_filtration",
    "sample_shape",
    "save_points",
]

COMPLEX_PRNG = "mt19937"
POINT_PRNG = "pcg64"

SHAPES = ("cube-uniform", "sphere-S3", "klein-bottle-R5")


def distance_matrix(points: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances, (n, n) symmetric with zero diagonal."""
    pts = np.asarray(points, dtype=float)
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def _flag_complex(lower: list[list[int]], weight, max_dim: int) -> FilteredComplex:
    """Flag complex up to max_dim of a graph on vertices 0..n-1.

    lower[v] lists the neighbours u < v of v in ascending order, and
    weight[u][w] (u < w) is the value of edge uw.  Vertices enter at 0
    and every clique at the largest value among its edges.
    """
    lower_sets = [set(nbrs) for nbrs in lower]
    items: list[tuple[tuple[int, ...], float]] = [((v,), 0.0) for v in range(len(lower))]

    # every clique is built exactly once by repeatedly prepending a
    # smaller common neighbour to the current simplex
    def expand(simplex: tuple[int, ...], cands: list[int], value: float) -> None:
        # simplex is ascending; cands are all below simplex[0], ascending
        for pos in range(len(cands) - 1, -1, -1):
            u = cands[pos]
            row = weight[u]
            uval = max(row[w] for w in simplex)
            nval = value if value >= uval else uval
            extended = (u,) + simplex
            items.append((extended, nval))
            if len(extended) <= max_dim:
                usets = lower_sets[u]
                ncands = [w for w in cands[:pos] if w in usets]
                if ncands:
                    expand(extended, ncands, nval)

    if max_dim >= 1:
        for v, nbrs in enumerate(lower):
            if nbrs:
                expand((v,), nbrs, 0.0)
    return FilteredComplex(items)


def rips_filtration(
    data, rho: float, max_dim: int, precomputed: bool = False
) -> FilteredComplex:
    """Vietoris-Rips filtration up to max_dim at threshold rho.

    data is an (n, D) point array, or an (n, n) distance matrix when
    precomputed is true.  A simplex enters at the largest pairwise
    distance of its vertices; vertices are at value 0, and an edge
    exists iff its length is <= rho.  rho and every distance must be
    finite, and a precomputed distance must be >= 0.
    """
    if not (math.isfinite(rho) and rho >= 0):
        raise ValueError(f"rho must be finite and >= 0, got {rho}")
    if max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    dm = np.asarray(data, dtype=float) if precomputed else distance_matrix(data)
    if not np.isfinite(dm).all():
        raise ValueError("distances must be finite")
    if precomputed:
        if dm.ndim != 2 or dm.shape[0] != dm.shape[1]:
            raise ValueError("distance matrix must be square")
        if not np.allclose(dm, dm.T, atol=1e-9):
            raise ValueError("distance matrix must be symmetric")
        if not np.allclose(np.diag(dm), 0.0, atol=1e-9):
            raise ValueError("distance matrix must have a zero diagonal")
        if (dm < 0).any():
            raise ValueError("distances must be >= 0")
    dist = dm.tolist()
    lower = [[u for u in range(v) if row[u] <= rho] for v, row in enumerate(dist)]
    return _flag_complex(lower, dist, max_dim)


def _unrank_pair(t: int, n: int) -> tuple[int, int]:
    i = 0
    while t >= n - 1 - i:
        t -= n - 1 - i
        i += 1
    return i, i + 1 + t


def _unrank_triple(t: int, n: int) -> tuple[int, int, int]:
    i = 0
    while t >= math.comb(n - 1 - i, 2):
        t -= math.comb(n - 1 - i, 2)
        i += 1
    j, k = _unrank_pair(t, n - 1 - i)
    return i, i + 1 + j, i + 1 + k


def linial_meshulam(n: int, m_triangles: int, seed: int) -> FilteredComplex:
    """Random 2-complex: complete graph plus m random triangles.

    All n vertices and C(n,2) edges enter at value 0; m distinct
    triangles, sampled uniformly, enter at values 1..m in sample order.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = math.comb(n, 3)
    if not 0 <= m_triangles <= total:
        raise ValueError(f"m_triangles must be in [0, {total}]")
    rng = random.Random(seed)
    items: list[tuple[tuple[int, ...], float]] = [((v,), 0.0) for v in range(n)]
    items.extend(
        ((u, v), 0.0) for u in range(n) for v in range(u + 1, n)
    )
    for val, t in enumerate(rng.sample(range(total), m_triangles), start=1):
        items.append((_unrank_triple(t, n), float(val)))
    return FilteredComplex(items)


def random_flag(n: int, m_edges: int, max_dim: int, seed: int) -> FilteredComplex:
    """Flag complex of a random graph, filtered by edge insertion order.

    Vertices at value 0; m distinct edges at values 1..m in sample
    order; every clique on up to max_dim+1 vertices enters at the
    largest value among its edges.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = math.comb(n, 2)
    if not 0 <= m_edges <= total:
        raise ValueError(f"m_edges must be in [0, {total}]")
    if max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    rng = random.Random(seed)
    weight: list[dict[int, float]] = [{} for _ in range(n)]
    lower: list[list[int]] = [[] for _ in range(n)]
    for val, t in enumerate(rng.sample(range(total), m_edges), start=1):
        u, v = _unrank_pair(t, n)
        weight[u][v] = float(val)
        lower[v].append(u)
    for nbrs in lower:
        nbrs.sort()
    return _flag_complex(lower, weight, max_dim)


def _klein_points(params: np.ndarray) -> np.ndarray:
    """Embed (u, v) parameter pairs on the figure-eight Klein bottle in R^5.

    The cross-section is the figure-eight curve g(v) = (sin v, sin 2v),
    rotated by u/2 while u runs around a circle of radius a = 2:

        c(u,v) = cos(u/2) sin v - sin(u/2) sin 2v
        x1, x2 = (a + c) cos u, (a + c) sin u     classic immersion radius
        x3     = sin(u/2) sin v + cos(u/2) sin 2v classic immersion height
        x4     = c
        x5     = cos v

    (x1,x2,x3) is the classical figure-eight immersion, which self-
    intersects in R^3; x4 and x5 separate the sheets.  Every coordinate
    is invariant under the Klein identification (u,v) ~ (u+2pi, -v),
    and conversely (x1,x2) determine u, then undoing the u/2 rotation
    of (x4,x3) and reading x5 determine (sin v, cos v), so distinct
    surface points map to distinct points of R^5: an embedding.
    """
    u = params[:, 0]
    v = params[:, 1]
    a = 2.0
    c = np.cos(u / 2) * np.sin(v) - np.sin(u / 2) * np.sin(2 * v)
    x3 = np.sin(u / 2) * np.sin(v) + np.cos(u / 2) * np.sin(2 * v)
    return np.column_stack(
        ((a + c) * np.cos(u), (a + c) * np.sin(u), x3, c, np.cos(v))
    )


def sample_shape(shape: str, n: int, seed: int) -> np.ndarray:
    """Sample n points from a named parametric shape, reproducibly.

    cube-uniform: uniform in [0,1]^3.  sphere-S3: uniform on the unit
    3-sphere in R^4.  klein-bottle-R5: stratified jittered sample of the
    figure-eight Klein bottle embedded in R^5 (see _klein_points).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    if shape == "cube-uniform":
        return rng.random((n, 3))
    if shape == "sphere-S3":
        g = rng.normal(size=(n, 4))
        return g / np.linalg.norm(g, axis=1, keepdims=True)
    if shape == "klein-bottle-R5":
        # stratify (u, v) over a grid with ~2:1 aspect to match the
        # longer u-direction, jitter within cells, embed
        sv = max(1, int(math.sqrt(n / 2)))
        su = math.ceil(n / sv)
        uu, vv = np.meshgrid(np.arange(su), np.arange(sv), indexing="ij")
        cells = np.column_stack((uu.ravel(), vv.ravel())).astype(float)
        jitter = rng.random((len(cells), 2))
        params = np.empty_like(cells)
        params[:, 0] = (cells[:, 0] + jitter[:, 0]) * (2 * math.pi / su)
        params[:, 1] = (cells[:, 1] + jitter[:, 1]) * (2 * math.pi / sv)
        keep = rng.choice(len(cells), size=n, replace=False)
        keep.sort()
        return _klein_points(params[keep])
    raise ValueError(f"unknown shape {shape!r}; choose from {SHAPES}")


def minimal_projective_plane() -> FilteredComplex:
    """The 6-vertex triangulation of the projective plane, all at value 0.

    6 vertices, all 15 edges, 10 triangles; every edge lies in exactly
    two triangles and the Euler characteristic is 1.
    """
    faces = [
        (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
        (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6),
    ]
    items: list[tuple[tuple[int, ...], float]] = [((v,), 0.0) for v in range(1, 7)]
    items.extend(
        ((u, v), 0.0) for u in range(1, 7) for v in range(u + 1, 7)
    )
    items.extend((f, 0.0) for f in faces)
    return FilteredComplex(items)


def save_points(points: np.ndarray, path, header=()) -> None:
    """One point per line, whitespace-separated coordinates."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in header:
            fh.write(f"# {line}\n")
        for row in np.asarray(points, dtype=float):
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def load_points(path) -> np.ndarray:
    """One point per line, whitespace-separated finite coordinates."""
    rows = []
    for lineno, fields in data_lines(path):
        try:
            rows.append([finite_float(x) for x in fields])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad coordinate line: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no points")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path}: inconsistent point dimensions")
    return np.array(rows, dtype=float)


def load_distance_matrix(path) -> np.ndarray:
    """Lower-triangular text format: the k-th data line holds d(k, 0..k-1).

    Blank lines (including the empty one for point 0) and '#' comments
    are skipped; distances must be finite and >= 0.
    """
    rows: list[tuple[int, list[float]]] = []
    for lineno, fields in data_lines(path):
        try:
            row = [finite_float(x) for x in fields]
            if min(row) < 0:
                raise ValueError(f"negative distance {min(row)!r}")
            rows.append((lineno, row))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad distance line: {exc}") from None
    n = len(rows) + 1
    dm = np.zeros((n, n))
    for k, (lineno, row) in enumerate(rows, start=1):
        if len(row) != k:
            raise ValueError(
                f"{path}:{lineno}: line for point {k} has {len(row)} entries, expected {k}"
            )
        dm[k, :k] = row
        dm[:k, k] = row
    return dm
