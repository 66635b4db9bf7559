"""Multi-field reduction: oracle equivalence, masks, cycles, accounting."""

import random

import pytest

import mfph.multifield
from mfph.complexes import boundary_column, column_axpy
from mfph.crt import InconsistencyError, PrimeBasis
from mfph.multifield import (
    project_diagram,
    reconstruct_cycle,
    reduce_multifield,
    save_multifield_diagram,
)
from mfph.single_field import reduce_single_field
from mfph.generators import minimal_projective_plane

from oracles import axpy_upper_bound, filled_triangle, random_small_complex


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
            assert project_diagram(mf, s).pair_set() == single.pair_set()


def test_clearing_equivalence():
    rng = random.Random(41)
    basis = PrimeBasis.of([2, 3, 5])
    for _ in range(10):
        cx = random_small_complex(rng)
        with_c, _ = reduce_multifield(cx, basis, clearing=True)
        without_c, _ = reduce_multifield(cx, basis, clearing=False)
        assert sorted(with_c.triples) == sorted(without_c.triples)
        assert sorted(with_c.essentials) == sorted(without_c.essentials)


def test_single_prime_degenerates_to_single_field():
    rng = random.Random(43)
    cx = random_small_complex(rng)
    basis = PrimeBasis.of([2])
    mf, _ = reduce_multifield(cx, basis)
    single, _ = reduce_single_field(cx, 2)
    assert project_diagram(mf, 1).pair_set() == single.pair_set()
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
        project_diagram(mf, 0)
    with pytest.raises(ValueError):
        project_diagram(mf, 3)


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
        mf, stats = reduce_multifield(cx, basis, clearing=False)
        assert stats.axpy_count <= axpy_upper_bound(mf)
        # every axpy consults the partial-inverse memo exactly once
        assert stats.partial_inverse_count + stats.cache_hits == stats.axpy_count


def test_keep_basis_requires_no_clearing():
    cx = filled_triangle()
    basis = PrimeBasis.of([2, 3])
    with pytest.raises(ValueError):
        reduce_multifield(cx, basis, clearing=True, keep_basis=True)


def test_reconstruct_cycle_triangle():
    cx = filled_triangle()
    basis = PrimeBasis.of([2, 3])
    mf, _ = reduce_multifield(cx, basis, clearing=False, keep_basis=True)
    # the 1-cycle born at the closing edge: ab + ac + bc up to sign
    cycle = reconstruct_cycle(mf, 6, 1)
    assert [row for row, _ in cycle] == [4, 5, 6]
    # at the death column the retained reduced column is the same cycle
    dying = reconstruct_cycle(mf, 7, 1)
    assert [row for row, _ in dying] == [4, 5, 6]
    # a vertex represents its own 0-cycle
    assert reconstruct_cycle(mf, 1, 1) == [(1, 1)]


def test_reconstructed_cycles_satisfy_postconditions():
    rng = random.Random(59)
    basis = PrimeBasis.of([2, 3, 5])
    for _ in range(5):
        cx = random_small_complex(rng)
        mf, _ = reduce_multifield(cx, basis, clearing=False, keep_basis=True)
        q_all = basis.product
        alive = {b for b, _, _ in mf.triples} | {b for b, _ in mf.essentials}
        for s, q in enumerate(basis.primes, start=1):
            for j in sorted(alive):
                if cx.dim(j) == 0:
                    continue
                cycle = reconstruct_cycle(mf, j, s)
                col = [(r, c % q) for r, c in cycle if c % q]
                if not col:
                    continue
                # boundary of the chain vanishes mod q
                acc = []
                for row, c in col:
                    acc = column_axpy(
                        acc, c, boundary_column(cx, basis, row), q_all
                    )
                assert all(c % q == 0 for _, c in acc)


def test_requires_no_missing_state():
    cx = filled_triangle()
    basis = PrimeBasis.of([2, 3])
    mf, _ = reduce_multifield(cx, basis)
    with pytest.raises(ValueError):
        reconstruct_cycle(mf, 6, 1)


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


def test_registry_sizes_accounting():
    cx = minimal_projective_plane()
    basis = PrimeBasis.of([2, 3])
    mf, _ = reduce_multifield(cx, basis)
    sizes = mf.registry_sizes()
    assert sum(sizes.values()) == len(mf.triples)
    assert sizes[31] == 1


def test_homology_and_cohomology_agree_on_corpus():
    # keep_basis reduces the boundary matrix, the default the coboundary
    rng = random.Random(2026)
    basis = PrimeBasis.of([2, 3, 5, 7, 11])
    for _ in range(40):
        cx = random_small_complex(rng)
        cohomology, _ = reduce_multifield(cx, basis)
        homology, _ = reduce_multifield(cx, basis, clearing=False, keep_basis=True)
        assert cohomology.triples == homology.triples
        assert cohomology.essentials == homology.essentials


def test_large_prime_matches_projection():
    # q >= 2^16 inverts by pow() in the single-field reduction
    rng = random.Random(67)
    basis = PrimeBasis.of([2, 65537])
    ops_total = 0
    for _ in range(10):
        cx = random_small_complex(rng)
        mf, _ = reduce_multifield(cx, basis)
        single, ops = reduce_single_field(cx, 65537)
        ops_total += ops
        assert project_diagram(mf, 2).pair_set() == single.pair_set()
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
                a.project(sorted_basis.field_of(q)).pair_set()
                == b.project(shuffled.field_of(q)).pair_set()
            )


def test_wrong_partial_inverse_raises(monkeypatch):
    def wrong_mask(basis, x, mask):
        return 1, 1

    monkeypatch.setattr(mfph.multifield, "partial_inverse", wrong_mask)
    with pytest.raises(InconsistencyError):
        reduce_multifield(filled_triangle(), PrimeBasis.of([2, 3]))
