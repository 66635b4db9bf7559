"""Generators: Rips expansion, random complexes, shapes, point files."""

import itertools
import math
import random

import numpy as np
import pytest

import oracles
from mfph.generators import (
    _flag_complex,
    _klein_points,
    _unrank_pair,
    _unrank_triple,
    distance_matrix,
    linial_meshulam,
    load_distance_matrix,
    load_points,
    minimal_projective_plane,
    random_flag,
    rips_filtration,
    sample_shape,
    save_points,
)

from oracles import betti_prefix, reference_flag_complex, reference_random_flag

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def test_rips_square_below_diagonal():
    cx = rips_filtration(SQUARE, rho=1.1, max_dim=2)
    assert len(cx) == 8  # 4 vertices + 4 sides, diagonals too long
    assert cx.max_dim == 1
    assert betti_prefix(cx, 2) == [1, 1]


def test_rips_square_full_clique():
    cx = rips_filtration(SQUARE, rho=1.5, max_dim=3)
    assert len(cx) == 15  # full K4 flag complex
    assert cx.max_dim == 3
    diag = math.sqrt(2.0)
    values = {cx.simplex(j): cx.value(j) for j in range(1, 16)}
    # every triangle contains one diagonal, so enters at sqrt(2)
    for simplex, value in values.items():
        if len(simplex) >= 3:
            assert value == pytest.approx(diag)
    assert values[(0, 1)] == pytest.approx(1.0)


def test_rips_simplex_value_is_max_edge_length():
    rng = np.random.default_rng(7)
    pts = rng.random((12, 3))
    dm = distance_matrix(pts)
    cx = rips_filtration(pts, rho=0.6, max_dim=3)
    for j in range(1, len(cx) + 1):
        simplex = cx.simplex(j)
        if len(simplex) == 1:
            assert cx.value(j) == 0.0
        else:
            expect = max(dm[u][v] for u, v in itertools.combinations(simplex, 2))
            assert cx.value(j) == pytest.approx(expect)
            assert expect <= 0.6


def test_rips_precomputed_matches_points():
    rng = np.random.default_rng(11)
    pts = rng.random((15, 2))
    a = rips_filtration(pts, rho=0.5, max_dim=2)
    b = rips_filtration(distance_matrix(pts), rho=0.5, max_dim=2, precomputed=True)
    assert len(a) == len(b)
    for j in range(1, len(a) + 1):
        assert a.simplex(j) == b.simplex(j)
        assert a.value(j) == b.value(j)


def test_rips_matches_brute_force_enumeration():
    rng = np.random.default_rng(13)
    pts = rng.random((9, 2))
    dm = distance_matrix(pts)
    rho = 0.55
    cx = rips_filtration(pts, rho=rho, max_dim=3)
    got = {cx.simplex(j) for j in range(1, len(cx) + 1)}
    expect = set()
    for k in range(1, 5):
        for simplex in itertools.combinations(range(9), k):
            if all(dm[u][v] <= rho for u, v in itertools.combinations(simplex, 2)):
                expect.add(simplex)
    assert got == expect


def test_rips_validation():
    with pytest.raises(ValueError):
        rips_filtration(SQUARE, rho=-0.1, max_dim=1)
    with pytest.raises(ValueError):
        rips_filtration(SQUARE, rho=1.0, max_dim=-1)
    with pytest.raises(ValueError):
        rips_filtration(np.zeros((3, 4)), rho=1.0, max_dim=1, precomputed=True)
    asym = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        rips_filtration(asym, rho=1.0, max_dim=1, precomputed=True)
    bad_diag = np.array([[0.5, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        rips_filtration(bad_diag, rho=1.0, max_dim=1, precomputed=True)
    # NaN compares false with every threshold, so it would drop edges
    for rho in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="rho"):
            rips_filtration(SQUARE, rho=rho, max_dim=1)
    with pytest.raises(ValueError, match="finite"):
        rips_filtration(np.array([[0.0, 0.0], [np.nan, 1.0]]), rho=1.0, max_dim=1)
    inf_dm = np.array([[0.0, np.inf], [np.inf, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        rips_filtration(inf_dm, rho=1.0, max_dim=1, precomputed=True)
    # a negative distance would put the edge at the vertices' value
    neg_dm = np.array([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(ValueError, match=">= 0"):
        rips_filtration(neg_dm, rho=1.0, max_dim=1, precomputed=True)


def test_rips_max_dim_zero():
    cx = rips_filtration(SQUARE, rho=2.0, max_dim=0)
    assert len(cx) == 4
    assert cx.max_dim == 0


def test_unrank_pair_matches_lexicographic():
    n = 9
    expect = list(itertools.combinations(range(n), 2))
    assert [_unrank_pair(t, n) for t in range(math.comb(n, 2))] == expect


def test_unrank_triple_matches_lexicographic():
    n = 9
    expect = list(itertools.combinations(range(n), 3))
    assert [_unrank_triple(t, n) for t in range(math.comb(n, 3))] == expect


def test_linial_meshulam_shape():
    cx = linial_meshulam(10, 30, seed=5)
    assert len(cx) == 10 + 45 + 30
    tri_values = sorted(
        cx.value(j) for j in range(1, len(cx) + 1) if cx.dim(j) == 2
    )
    assert tri_values == [float(v) for v in range(1, 31)]
    assert all(cx.value(j) == 0.0 for j in range(1, 56))
    triangles = {cx.simplex(j) for j in range(1, len(cx) + 1) if cx.dim(j) == 2}
    assert len(triangles) == 30


def test_linial_meshulam_determinism_and_validation():
    a = linial_meshulam(8, 12, seed=3)
    b = linial_meshulam(8, 12, seed=3)
    assert [a.simplex(j) for j in range(1, len(a) + 1)] == [
        b.simplex(j) for j in range(1, len(b) + 1)
    ]
    c = linial_meshulam(8, 12, seed=4)
    assert {a.simplex(j) for j in range(37, 49)} != {
        c.simplex(j) for j in range(37, 49)
    }
    with pytest.raises(ValueError):
        linial_meshulam(6, math.comb(6, 3) + 1, seed=0)
    with pytest.raises(ValueError):
        linial_meshulam(0, 0, seed=0)


def test_random_flag_matches_brute_force_cliques():
    n, m, seed = 7, 12, 9
    cx = random_flag(n, m, max_dim=3, seed=seed)
    edge_value = {
        cx.simplex(j): cx.value(j) for j in range(1, len(cx) + 1) if cx.dim(j) == 1
    }
    assert len(edge_value) == m
    assert sorted(edge_value.values()) == [float(v) for v in range(1, m + 1)]
    got = {
        cx.simplex(j): cx.value(j)
        for j in range(1, len(cx) + 1)
        if cx.dim(j) >= 2
    }
    expect = {}
    for k in (3, 4):
        for simplex in itertools.combinations(range(n), k):
            pairs = list(itertools.combinations(simplex, 2))
            if all(p in edge_value for p in pairs):
                expect[simplex] = max(edge_value[p] for p in pairs)
    assert got == expect


def test_random_flag_respects_max_dim():
    cx = random_flag(6, 15, max_dim=1, seed=2)  # complete graph, edges only
    assert len(cx) == 21
    assert cx.max_dim == 1


def _same_filtration(cx, ref):
    assert cx.simplices == ref.simplices
    assert cx.values == ref.values
    # a zero value is +0.0 in both, never -0.0
    assert [math.copysign(1.0, v) for v in cx.values] == [
        math.copysign(1.0, v) for v in ref.values
    ]


def test_flag_enumerator_matches_recursive_reference():
    rng = random.Random(53)
    for trial in range(300):
        n = rng.choice([1, 2, rng.randint(3, 9), rng.randint(10, 16)])
        pairs = list(itertools.combinations(range(n), 2))
        chosen = rng.sample(pairs, rng.randint(0, len(pairs)))
        levels = rng.choice([1, 2, 3, 50])  # few levels: many tied values
        edges = {e: rng.randrange(levels) * rng.choice([0.5, 1.0]) for e in chosen}
        if trial % 3 == 0:
            edges = {e: -0.0 if v == 0 else v for e, v in edges.items()}
        max_dim = trial % 5
        rng.shuffle(chosen)  # the enumerator takes edges in any order
        cx = _flag_complex(
            n,
            np.array([u for u, _ in chosen], dtype=np.int64),
            np.array([w for _, w in chosen], dtype=np.int64),
            np.array([edges[e] for e in chosen]),
            max_dim,
        )
        _same_filtration(cx, reference_flag_complex(n, edges, max_dim))


def test_flag_enumerator_edge_cases():
    for max_dim in range(5):
        # one vertex; no edges; isolated vertices beside a clique
        _same_filtration(_flag_complex(1, [], [], [], max_dim), reference_flag_complex(1, {}, max_dim))
        _same_filtration(_flag_complex(6, [], [], [], max_dim), reference_flag_complex(6, {}, max_dim))
        k5 = {e: float(sum(e)) for e in itertools.combinations((1, 3, 4, 6, 7), 2)}
        eu, ew = zip(*k5)
        cx = _flag_complex(9, eu, ew, list(k5.values()), max_dim)
        _same_filtration(cx, reference_flag_complex(9, k5, max_dim))
        assert len(cx) == 9 + sum(math.comb(5, k + 1) for k in range(1, max_dim + 1))


def test_rips_matches_recursive_reference_on_tied_distances():
    rng = np.random.default_rng(59)
    for trial in range(60):
        n = int(rng.integers(1, 12))
        dm = rng.integers(0, 4, size=(n, n)).astype(float)
        dm = np.triu(dm, 1) + np.triu(dm, 1).T
        if trial % 4 == 1:
            dm[dm == 0] = -0.0
        if trial % 3 == 0:
            # symmetric up to 1e-12: an edge uv (u < v) is kept by
            # d(v, u) and enters at d(u, v)
            dm += np.triu(rng.random((n, n)) * 1e-12, 1)
        rho = float(rng.integers(0, 4))
        max_dim = trial % 5
        edges = {
            (u, w): float(dm[u, w])
            for u, w in itertools.combinations(range(n), 2)
            if dm[w, u] <= rho
        }
        cx = rips_filtration(dm, rho=rho, max_dim=max_dim, precomputed=True)
        _same_filtration(cx, reference_flag_complex(n, edges, max_dim))


def test_random_flag_matches_reference_on_oracle_corpora(monkeypatch):
    # every random_flag call random_small_complex makes for the seeds the
    # test modules give it is checked against the recursive reference
    calls = []

    def checked(n, m_edges, max_dim, seed):
        cx = random_flag(n, m_edges, max_dim, seed)
        _same_filtration(cx, reference_random_flag(n, m_edges, max_dim, seed))
        calls.append(cx)
        return cx

    monkeypatch.setattr(oracles, "random_flag", checked)
    for seed in (7, 19, 23, 29, 31, 37, 41, 2026):
        rng = random.Random(seed)
        for _ in range(25):
            oracles.random_small_complex(rng)
    assert len(calls) > 80
    for n, m, max_dim, seed in ((7, 12, 3, 9), (30, 200, 3, 7), (12, 66, 4, 1), (1, 0, 2, 0), (60, 900, 2, 5)):
        _same_filtration(random_flag(n, m, max_dim, seed), reference_random_flag(n, m, max_dim, seed))


def test_sphere_sample():
    pts = sample_shape("sphere-S3", 50, seed=1)
    assert pts.shape == (50, 4)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)


def test_cube_sample():
    pts = sample_shape("cube-uniform", 40, seed=1)
    assert pts.shape == (40, 3)
    assert pts.min() >= 0.0 and pts.max() <= 1.0


def test_klein_sample_shape_and_determinism():
    a = sample_shape("klein-bottle-R5", 30, seed=6)
    b = sample_shape("klein-bottle-R5", 30, seed=6)
    assert a.shape == (30, 5)
    assert np.array_equal(a, b)
    c = sample_shape("klein-bottle-R5", 30, seed=7)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        sample_shape("torus", 10, seed=0)
    with pytest.raises(ValueError):
        sample_shape("cube-uniform", 0, seed=0)


def test_klein_embedding_respects_identification():
    rng = np.random.default_rng(21)
    params = rng.uniform(0, 2 * math.pi, size=(40, 2))
    glued = np.column_stack((params[:, 0] + 2 * math.pi, -params[:, 1]))
    assert np.allclose(_klein_points(params), _klein_points(glued))


def test_klein_embedding_separates_points():
    # points with equal R^3 shadow under the classical immersion still
    # differ in the last two coordinates
    us = np.linspace(0.1, 2 * math.pi - 0.1, 25)
    vs = np.linspace(0.1, 2 * math.pi - 0.1, 25)
    uu, vv = np.meshgrid(us, vs)
    params = np.column_stack((uu.ravel(), vv.ravel()))
    pts = _klein_points(params)
    dm = distance_matrix(pts)
    np.fill_diagonal(dm, 1.0)
    assert dm.min() > 1e-6


def test_projective_plane_complex():
    cx = minimal_projective_plane()
    assert len(cx) == 31
    counts = {0: 0, 1: 0, 2: 0}
    for j in range(1, 32):
        counts[cx.dim(j)] += 1
    assert counts == {0: 6, 1: 15, 2: 10}
    assert counts[0] - counts[1] + counts[2] == 1  # Euler characteristic
    edge_uses: dict[tuple[int, int], int] = {}
    for j in range(1, 32):
        if cx.dim(j) == 2:
            for e in itertools.combinations(cx.simplex(j), 2):
                edge_uses[e] = edge_uses.get(e, 0) + 1
    assert len(edge_uses) == 15
    assert all(c == 2 for c in edge_uses.values())  # closed surface


def test_points_roundtrip(tmp_path):
    pts = sample_shape("cube-uniform", 12, seed=4)
    path = tmp_path / "pts.txt"
    save_points(pts, path, header=("shape=cube-uniform", "seed=4"))
    text = path.read_text()
    assert text.startswith("# shape=cube-uniform\n# seed=4\n")
    assert np.array_equal(load_points(path), pts)


def test_load_points_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0 2.0\n1.0 x\n")
    with pytest.raises(ValueError, match=r"bad\.txt:2"):
        load_points(path)
    path.write_text("# only comments\n\n")
    with pytest.raises(ValueError, match="no points"):
        load_points(path)
    path.write_text("1.0 2.0\n3.0\n")
    with pytest.raises(ValueError, match="inconsistent"):
        load_points(path)


def test_distance_matrix_roundtrip(tmp_path):
    rng = np.random.default_rng(17)
    pts = rng.random((6, 3))
    dm = distance_matrix(pts)
    path = tmp_path / "dist.txt"
    lines = ["# lower-triangular", ""]
    for k in range(1, 6):
        lines.append(" ".join(repr(float(dm[k, i])) for i in range(k)))
    path.write_text("\n".join(lines) + "\n")
    assert np.allclose(load_distance_matrix(path), dm)


def test_load_distance_matrix_errors(tmp_path):
    path = tmp_path / "dist.txt"
    path.write_text("1.0\n2.0 3.0 4.0\n")
    with pytest.raises(ValueError, match="expected 2"):
        load_distance_matrix(path)
    path.write_text("1.0\nx y\n")
    with pytest.raises(ValueError, match=r"dist\.txt:2"):
        load_distance_matrix(path)


def test_distance_matrix_values():
    pts = np.array([[0.0, 0.0], [3.0, 4.0]])
    dm = distance_matrix(pts)
    assert dm.shape == (2, 2)
    assert dm[0, 1] == pytest.approx(5.0)
    assert dm[1, 0] == pytest.approx(5.0)
    assert dm[0, 0] == 0.0
