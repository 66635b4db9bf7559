"""Multi-field reduction: oracle equivalence, masks, accounting."""

import random

import pytest

import mfph.multifield
from mfph.crt import InconsistencyError, PrimeBasis
from mfph.multifield import reduce_multifield, save_multifield_diagram
from mfph.single_field import reduce_single_field
from mfph.generators import minimal_projective_plane

from oracles import (
    axpy_upper_bound,
    betti_at,
    betti_prefix,
    boundary_pairs,
    coned_projective_plane,
    filled_triangle,
    random_small_complex,
)
from test_acceptance import CORPUS_PRIMES, _small_flag, _small_ym


def test_filled_triangle_triples():
    cx = filled_triangle()
    basis = PrimeBasis.of([2, 3])
    mf, stats = reduce_multifield(cx, basis)
    assert mf.triples == ((2, 4, 6), (3, 5, 6), (6, 7, 6))
    assert mf.essentials == ((1, 6),)
    assert mf.p_r == 4
    # in cohomology the vertex cocolumns cancel one another: vertex 1
    # meets the pivots of vertices 2 and 3, one axpy each, and becomes
    # the essential class; clearing then skips the two paired edges
    assert stats.axpy_count == 2


def test_projections_match_single_field_runs():
    rng = random.Random(37)
    basis = PrimeBasis.first(5)
    for _ in range(25):
        cx = random_small_complex(rng)
        mf, _ = reduce_multifield(cx, basis)
        for s, q in enumerate(basis.primes, start=1):
            single, _ = reduce_single_field(cx, q)
            assert mf.project(s).pair_set() == single.pair_set()


def test_cleared_reduction_matches_boundary_oracle():
    # a column is skipped only once its index is a pivot row in every
    # field: in the coned-off projective plane, the triangle that kills
    # the 2-torsion 1-cycle mod 3 and mod 5 is a pivot row in those fields
    # only, and its column must still run mod 2, where it opens a 2-class
    rng = random.Random(41)
    basis = PrimeBasis.of([2, 3, 5])
    complexes = [random_small_complex(rng) for _ in range(10)]
    complexes.append(coned_projective_plane())
    for cx in complexes:
        mf, _ = reduce_multifield(cx, basis)
        for s, q in enumerate(basis.primes, start=1):
            assert mf.project(s).pair_set() == boundary_pairs(cx, q)


def test_single_prime_degenerates_to_single_field():
    rng = random.Random(43)
    cx = random_small_complex(rng)
    basis = PrimeBasis.of([2])
    mf, _ = reduce_multifield(cx, basis)
    single, _ = reduce_single_field(cx, 2)
    assert mf.project(1).pair_set() == single.pair_set()
    assert all(mask == 2 for _, _, mask in mf.triples)
    assert all(mask == 2 for _, mask in mf.essentials)


def test_projective_plane_masks():
    cx = minimal_projective_plane()
    basis = PrimeBasis.of([2, 3])
    mf, _ = reduce_multifield(cx, basis)
    masks = [mask for _, _, mask in mf.triples] + [m for _, m in mf.essentials]
    # torsion shows as entries confined to single fields: the 2-torsion
    # class stays alive mod 2 (mask 2) while mod 3 it is paired (mask 3)
    assert 2 in masks and 3 in masks
    partial_triples = [(b, d, m) for b, d, m in mf.triples if m != 6]
    assert partial_triples == [(12, 31, 3)]
    assert (12, 2) in mf.essentials and (31, 2) in mf.essentials


def test_project_diagram_validates_field_index():
    cx = filled_triangle()
    mf, _ = reduce_multifield(cx, PrimeBasis.of([2, 3]))
    with pytest.raises(ValueError):
        mf.project(0)
    with pytest.raises(ValueError):
        mf.project(3)


def test_mask_coverage_partitions_each_field():
    # per field, every index is born once, dies once, or stays essential
    rng = random.Random(47)
    basis = PrimeBasis.of([2, 3, 5])
    cx = random_small_complex(rng)
    mf, _ = reduce_multifield(cx, basis)
    m = len(cx)
    for q in basis.primes:
        seen = {}
        for b, d, mask in mf.triples:
            if mask % q == 0:
                for idx in (b, d):
                    assert idx not in seen
                    seen[idx] = True
        for b, mask in mf.essentials:
            if mask % q == 0:
                assert b not in seen
                seen[b] = True
        assert len(seen) == m


def test_axpy_accounting_and_bound():
    rng = random.Random(53)
    basis = PrimeBasis.of([2, 3, 5])
    for _ in range(10):
        cx = random_small_complex(rng)
        mf, stats = reduce_multifield(cx, basis)
        assert stats.axpy_count <= axpy_upper_bound(mf)
        # every axpy consults the partial-inverse memo exactly once
        assert stats.partial_inverse_count + stats.cache_hits == stats.axpy_count


def test_save_multifield_diagram_format(tmp_path):
    cx = minimal_projective_plane()
    basis = PrimeBasis.of([2, 3])
    mf, _ = reduce_multifield(cx, basis)
    path = tmp_path / "rp2.mdgm"
    save_multifield_diagram(mf, path)
    lines = path.read_text().strip().splitlines()
    assert any(line.endswith("primes=2,3") for line in lines)
    assert any("inf" in line and line.endswith("primes=2") for line in lines)
    fields = lines[0].split()
    assert len(fields) == 6  # dim birth death bval dval primes=...


def test_homology_and_cohomology_agree_on_corpus():
    # the oracle reduces the boundary matrix, built from cx.simplices, and
    # not the coboundary columns that both library reducers read
    rng = random.Random(2026)
    basis = PrimeBasis.of([2, 3, 5, 7, 11])
    for _ in range(40):
        cx = random_small_complex(rng)
        mf, _ = reduce_multifield(cx, basis)
        for s, q in enumerate(basis.primes, start=1):
            assert mf.project(s).pair_set() == boundary_pairs(cx, q)


def test_cohomology_homology_and_dense_oracle_agree_on_acceptance_corpus():
    # the 100 filtrations of the acceptance corpus; both oracles read
    # cx.simplices, not the coboundary columns
    rng = random.Random(2026)
    basis = PrimeBasis.of(CORPUS_PRIMES)
    for i in range(100):
        cx = _small_flag(rng) if i % 2 == 0 else _small_ym(rng)
        cohomology, _ = reduce_multifield(cx, basis)
        m = len(cx)
        for s, q in enumerate(basis.primes, start=1):
            diagram = cohomology.project(s)
            assert diagram.pair_set() == boundary_pairs(cx, q)
            betti = [betti_at(diagram, m, d) for d in range(cx.max_dim + 1)]
            assert betti == betti_prefix(cx, q)


def test_op_counts_on_acceptance_corpus_are_pinned():
    # totals over the 100 acceptance-corpus filtrations; the column loop
    # may scan less, but it must do exactly this arithmetic
    rng = random.Random(2026)
    basis = PrimeBasis.of(CORPUS_PRIMES)
    totals = [0, 0, 0]
    for i in range(100):
        cx = _small_flag(rng) if i % 2 == 0 else _small_ym(rng)
        _, stats = reduce_multifield(cx, basis)
        totals[0] += stats.axpy_count
        totals[1] += stats.partial_inverse_count
        totals[2] += stats.cache_hits
    assert totals == [1077, 183, 894]


def test_large_prime_matches_projection():
    # a prime above 2^16, where field elements outgrow 16 bits
    rng = random.Random(67)
    basis = PrimeBasis.of([2, 65537])
    ops_total = 0
    for _ in range(10):
        cx = random_small_complex(rng)
        mf, _ = reduce_multifield(cx, basis)
        single, ops = reduce_single_field(cx, 65537)
        ops_total += ops
        assert mf.project(2).pair_set() == single.pair_set()
    assert ops_total > 0


def test_prime_order_does_not_change_projections():
    rng = random.Random(71)
    sorted_basis = PrimeBasis.of([2, 3, 5])
    shuffled = PrimeBasis.of([5, 2, 3])
    for _ in range(10):
        cx = random_small_complex(rng)
        a, _ = reduce_multifield(cx, sorted_basis)
        b, _ = reduce_multifield(cx, shuffled)
        for q in (2, 3, 5):
            assert (
                a.project(sorted_basis.primes.index(q) + 1).pair_set()
                == b.project(shuffled.primes.index(q) + 1).pair_set()
            )


def test_wrong_partial_inverse_raises(monkeypatch):
    def wrong_mask(basis, x, mask):
        return 1, 1

    monkeypatch.setattr(mfph.multifield, "partial_inverse", wrong_mask)
    with pytest.raises(InconsistencyError):
        reduce_multifield(filled_triangle(), PrimeBasis.of([2, 3]))


def test_axpy_that_cancels_nothing_raises(monkeypatch):
    # the column keeps its low on the same mask after the axpy, which the
    # loop's rescan from the column's end must catch
    monkeypatch.setattr(mfph.multifield, "column_axpy", lambda target, alpha, source, q_all: target)
    with pytest.raises(InconsistencyError, match="neither shrank its mask nor lowered its pivot"):
        reduce_multifield(minimal_projective_plane(), PrimeBasis.of([2, 3]))
