"""Single-field reduction against dense rank oracles and hand examples."""

import random

import pytest

from mfph.single_field import reduce_single_field, save_field_diagram
from mfph.complexes import load_filtration
from mfph.generators import linial_meshulam, minimal_projective_plane

from oracles import betti_at, betti_prefix, boundary_pairs, filled_triangle, random_small_complex
from test_acceptance import CORPUS_PRIMES, _small_flag, _small_ym


def test_filled_triangle_pairs():
    cx = filled_triangle()
    diagram, ops = reduce_single_field(cx, 2)
    assert diagram.pairs == ((1, None), (2, 4), (3, 5), (6, 7))
    assert diagram.dims == (0, 0, 0, 1)
    # in cohomology the vertex cocolumns cancel one another: vertex 1
    # meets the pivots of vertices 2 and 3, one axpy each; clearing then
    # skips the two paired edges, and the last edge pairs at once
    assert ops == 2


def test_prime_validation():
    cx = filled_triangle()
    with pytest.raises(ValueError):
        reduce_single_field(cx, 4)
    with pytest.raises(ValueError):
        reduce_single_field(cx, 1)


def test_cleared_reduction_matches_boundary_oracle_random():
    rng = random.Random(23)
    for _ in range(20):
        cx = random_small_complex(rng)
        for q in (2, 3):
            diagram, _ = reduce_single_field(cx, q)
            assert diagram.pair_set() == boundary_pairs(cx, q)


def test_betti_curves_match_rank_oracle():
    rng = random.Random(29)
    for _ in range(10):
        cx = random_small_complex(rng)
        m = len(cx)
        checkpoints = sorted({1, m // 4, m // 2, (3 * m) // 4, m} - {0})
        for q in (2, 3, 5):
            diagram, _ = reduce_single_field(cx, q)
            for t in checkpoints:
                want = betti_prefix(cx, q, t)
                got = [betti_at(diagram, t, d) for d in range(len(want))]
                assert got == want


def test_projective_plane_betti_depends_on_field():
    cx = minimal_projective_plane()
    m = len(cx)
    d2, _ = reduce_single_field(cx, 2)
    d3, _ = reduce_single_field(cx, 3)
    d5, _ = reduce_single_field(cx, 5)
    assert [betti_at(d2, m, d) for d in range(3)] == [1, 1, 1]
    assert [betti_at(d3, m, d) for d in range(3)] == [1, 0, 0]
    assert [betti_at(d5, m, d) for d in range(3)] == [1, 0, 0]
    # pairings agree with the dense oracle at every dimension
    assert betti_prefix(cx, 2, m) == [1, 1, 1]
    assert betti_prefix(cx, 3, m) == [1, 0, 0]


def test_tetrahedron_boundary_is_a_sphere():
    from itertools import combinations

    items = [((v,), 0.0) for v in range(1, 5)]
    items += [(e, 0.0) for e in combinations(range(1, 5), 2)]
    items += [(f, 0.0) for f in combinations(range(1, 5), 3)]
    from mfph.complexes import FilteredComplex

    cx = FilteredComplex(items)
    diagram, _ = reduce_single_field(cx, 7)
    m = len(cx)
    assert [betti_at(diagram, m, d) for d in range(3)] == [1, 0, 1]
    essentials = [b for b, death in diagram.pairs if death is None]
    assert len(essentials) == 2


def test_op_count_counts_axpys_only():
    # in cohomology both vertex cocolumns have the edge as pivot: the
    # second is added to the first once and vanishes (the essential class)
    from mfph.complexes import FilteredComplex

    cx = FilteredComplex([((1,), 0.0), ((2,), 0.0), ((1, 2), 1.0)])
    diagram, ops = reduce_single_field(cx, 2)
    assert ops == 1
    assert diagram.pairs == ((1, None), (2, 3))


def test_op_counts_on_acceptance_corpus_are_pinned():
    # per-prime totals over the 100 acceptance-corpus filtrations; the
    # column loop may change how it scans, but not this arithmetic
    rng = random.Random(2026)
    totals = dict.fromkeys(CORPUS_PRIMES, 0)
    for i in range(100):
        cx = _small_flag(rng) if i % 2 == 0 else _small_ym(rng)
        for q in CORPUS_PRIMES:
            totals[q] += reduce_single_field(cx, q)[1]
    assert totals == dict.fromkeys(CORPUS_PRIMES, 1077)


def test_op_counts_that_differ_by_prime_are_pinned():
    cx = linial_meshulam(20, 1140, 1)
    ops = {q: reduce_single_field(cx, q)[1] for q in (2, 3, 5, 7)}
    assert ops == {2: 408, 3: 421, 5: 422, 7: 422}


def test_save_field_diagram_format(tmp_path):
    cx = filled_triangle()
    diagram, _ = reduce_single_field(cx, 3)
    path = tmp_path / "tri.dgm"
    save_field_diagram(diagram, cx, path)
    lines = path.read_text().strip().splitlines()
    # dim birth death birth_value death_value q, essentials marked inf
    assert lines[0].split() == ["0", "1", "inf", "1", "inf", "3"]
    assert lines[1].split() == ["0", "2", "4", "2", "4", "3"]
    assert lines[-1].split() == ["1", "6", "7", "6", "7", "3"]


def test_loaded_filtration_reduces_identically(tmp_path):
    from mfph.complexes import save_filtration

    rng = random.Random(31)
    cx = random_small_complex(rng)
    path = tmp_path / "r.flt"
    save_filtration(cx, path)
    back = load_filtration(path)
    a, _ = reduce_single_field(cx, 5)
    b, _ = reduce_single_field(back, 5)
    assert a.pair_set() == b.pair_set()
