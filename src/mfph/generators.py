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

from . import complexes
from .complexes import FilteredComplex, comment_lines, data_lines, finite_float

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


_BLOCK_CELLS = 1 << 20  # coordinate differences distance_matrix holds at once


def distance_matrix(points: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances, (n, n) symmetric with zero diagonal,
    by blocks of rows; the bytes do not depend on the block size."""
    pts = np.asarray(points, dtype=float)
    n, dim = pts.shape
    out = np.empty((n, n))
    step = max(1, _BLOCK_CELLS // max(1, n * dim))
    for a in range(0, n, step):
        diff = pts[a : a + step, None, :] - pts[None, :, :]
        out[a : a + step] = np.sqrt((diff * diff).sum(axis=2))
    return out


def _flag_complex(n: int, eu, ew, ev, max_dim: int) -> FilteredComplex:
    """Flag complex up to max_dim of a graph on vertices 0..n-1.

    Edge k joins eu[k] < ew[k] and enters at ev[k] >= 0; vertices enter
    at 0 and every clique at the largest value among its edges.  The
    cliques are enumerated one dimension at a time: each d-row, a sorted
    vertex tuple, is extended by every upper neighbour w of its last
    vertex that is adjacent to all its other vertices, which lists each
    (d+1)-clique once, from its first d+1 vertices.
    """
    eu, ew = np.asarray(eu, np.int64), np.asarray(ew, np.int64)
    keys = eu * n + ew
    srt = np.argsort(keys)
    keys, ew = keys[srt], ew[srt]
    # +0.0 turns a -0.0 weight into 0.0, the value its vertices enter at
    ev = np.asarray(ev, np.float64)[srt] + 0.0
    # upper neighbours of v: ew[ptr[v]:ptr[v+1]], ascending
    ptr = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(eu, minlength=n), out=ptr[1:])
    flat, dims, values = [np.arange(n, dtype=np.int64)], [np.zeros(n, np.int64)], [np.zeros(n)]
    rows, vals = np.column_stack((eu[srt], ew)), ev  # the 1-rows: edges, ascending
    for d in range(1, max_dim + 1):
        flat.append(rows.ravel())
        dims.append(np.full(len(rows), d, np.int64))
        values.append(vals)
        if d == max_dim:
            break
        # candidate k extends rows[of[k]] by w[k] via edge e[k]
        last = rows[:, -1]
        count = ptr[last + 1] - ptr[last]
        of = np.repeat(np.arange(len(rows)), count)
        e = np.arange(len(of)) + np.repeat(ptr[last] - np.cumsum(count) + count, count)
        w = ew[e]
        vals = np.maximum(vals[of], ev[e])
        for i in range(d):
            key = rows[of, i] * n + w
            pos = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
            hit = keys[pos] == key
            of, w = of[hit], w[hit]
            vals = np.maximum(vals[hit], ev[pos[hit]])
        rows = np.column_stack((rows[of], w))
    # looked up through the module: a timing wrapper without _from_flat
    # may stand in for this module's name (perfbench/spans.py)
    return complexes.FilteredComplex._from_flat(
        np.concatenate(flat), np.concatenate(dims), np.concatenate(values)
    )


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
    # an edge uv (u < v) exists iff d(v, u) <= rho and enters at d(u, v)
    eu, ew = np.triu_indices(len(dm), 1)
    edge = dm[ew, eu] <= rho
    eu, ew = eu[edge], ew[edge]
    return _flag_complex(len(dm), eu, ew, dm[eu, ew], max_dim)


def _unrank(ranks, n: int, k: int) -> np.ndarray:
    """The k-subsets of range(n) with the given lexicographic ranks (the
    order of itertools.combinations), one ascending int64 row each."""
    left = np.asarray(ranks, dtype=np.int64)
    out = np.empty((len(left), k), dtype=np.int64)
    lo = np.zeros(len(left), dtype=np.int64)
    for i in range(k):
        # before[v]: the (k-i)-subsets of range(n) whose least element is
        # < v; element i is the largest v with before[v] - before[lo] <= left
        before = np.cumsum([0] + [math.comb(n - 1 - v, k - 1 - i) for v in range(n)])
        left = left + before[lo]
        out[:, i] = v = np.searchsorted(before, left, side="right") - 1
        left = left - before[v]
        lo = v + 1
    return out


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
    triangles = _unrank(rng.sample(range(total), m_triangles), n, 3)
    edges = np.column_stack(np.triu_indices(n, 1))
    flat = np.concatenate((np.arange(n), edges.ravel(), triangles.ravel()))
    dims = np.repeat([0, 1, 2], [n, len(edges), m_triangles])
    values = np.concatenate((np.zeros(n + len(edges)), np.arange(1.0, m_triangles + 1)))
    # looked up through the module, as in _flag_complex
    return complexes.FilteredComplex._from_flat(flat, dims, values)


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
    eu, ew = _unrank(rng.sample(range(total), m_edges), n, 2).T
    return _flag_complex(n, eu, ew, np.arange(1.0, m_edges + 1), max_dim)


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
    """One point per line, whitespace-separated coordinates, after the
    header checked by comment_lines."""
    comments = comment_lines(header)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(comments)
        for row in np.asarray(points, dtype=float):
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def load_points(path) -> np.ndarray:
    """One point per line, whitespace-separated finite coordinates."""
    rows = []
    for lineno, fields in data_lines(path):
        try:
            rows.append([finite_float(x) for x in fields])
            if len(fields) != len(rows[0]):
                raise ValueError(f"inconsistent point dimensions: {len(fields)}, not {len(rows[0])}")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad coordinate line: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no points")
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
