"""Multi-field reduction: oracle equivalence, masks, accounting."""

import dataclasses
import random

import numpy as np
import pytest

import mfph.multifield
from mfph.complexes import FilteredComplex, format_value
from mfph.crt import InconsistencyError, PrimeBasis, mask_primes
from mfph.multifield import ReduceStats, reduce_multifield, save_multifield_diagram
from mfph.single_field import reduce_single_field
from mfph.generators import linial_meshulam, minimal_projective_plane

from oracles import (
    axpy_upper_bound,
    betti_at,
    betti_prefix,
    boundary_pairs,
    coned_projective_plane,
    filled_triangle,
    klein_grid,
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
            assert frozenset(mf.project(s).pairs) == frozenset(single.pairs)


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
            assert frozenset(mf.project(s).pairs) == boundary_pairs(cx, q)


def test_single_prime_degenerates_to_single_field():
    rng = random.Random(43)
    cx = random_small_complex(rng)
    basis = PrimeBasis.of([2])
    mf, _ = reduce_multifield(cx, basis)
    single, _ = reduce_single_field(cx, 2)
    assert frozenset(mf.project(1).pairs) == frozenset(single.pairs)
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


def _reference_save(mf, path):
    """The writer as it was: mask_primes called once per row."""
    rows = [(mf.index_dims[i - 1], i, j, mask) for i, j, mask in mf.triples]
    rows.extend((mf.index_dims[i - 1], i, None, mask) for i, mask in mf.essentials)
    rows.sort(key=lambda e: (e[0], e[1], e[2] if e[2] is not None else 1 << 62))
    with open(path, "w", encoding="utf-8") as fh:
        for dim, birth, death, mask in rows:
            primes = ",".join(str(q) for q in mask_primes(mf.basis, mask))
            bval = format_value(mf.index_values[birth - 1])
            if death is None:
                fh.write(f"{dim} {birth} inf {bval} inf primes={primes}\n")
            else:
                dval = format_value(mf.index_values[death - 1])
                fh.write(f"{dim} {birth} {death} {bval} {dval} primes={primes}\n")


def test_save_multifield_diagram_matches_per_row_writer(tmp_path):
    # r = 100, with partial masks (RP^2 coned off, Y(n, m) with torsion)
    # and full ones; the writer names each distinct mask once
    basis = PrimeBasis.first(100)
    rng = random.Random(2026)
    complexes = [coned_projective_plane(), minimal_projective_plane(), filled_triangle()]
    complexes += [_small_ym(rng) for _ in range(6)]
    partial = 0
    for i, cx in enumerate(complexes):
        mf, _ = reduce_multifield(cx, basis)
        partial += any(mask != basis.product for *_, mask in mf.triples + mf.essentials)
        got, want = tmp_path / f"{i}.mdgm", tmp_path / f"{i}.ref"
        save_multifield_diagram(mf, got)
        _reference_save(mf, want)
        assert got.read_bytes() == want.read_bytes()
    assert partial >= 2


def test_homology_and_cohomology_agree_on_corpus():
    # the oracle reduces the boundary matrix, built from cx.simplices, and
    # not the coboundary columns that both library reducers read
    rng = random.Random(2026)
    basis = PrimeBasis.of([2, 3, 5, 7, 11])
    for _ in range(40):
        cx = random_small_complex(rng)
        mf, _ = reduce_multifield(cx, basis)
        for s, q in enumerate(basis.primes, start=1):
            assert frozenset(mf.project(s).pairs) == boundary_pairs(cx, q)


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
            assert frozenset(diagram.pairs) == boundary_pairs(cx, q)
            betti = [betti_at(diagram, m, d) for d in range(cx.max_dim + 1)]
            assert betti == betti_prefix(cx, q)


def test_op_counts_on_acceptance_corpus_are_pinned():
    # totals over the 100 acceptance-corpus filtrations; the column loop
    # may scan less, but it must do exactly this arithmetic
    rng = random.Random(2026)
    basis = PrimeBasis.of(CORPUS_PRIMES)
    totals = [0, 0, 0]
    apparent = 0
    for i in range(100):
        cx = _small_flag(rng) if i % 2 == 0 else _small_ym(rng)
        _, stats = reduce_multifield(cx, basis)
        totals[0] += stats.axpy_count
        totals[1] += stats.partial_inverse_count
        totals[2] += stats.cache_hits
        apparent += stats.apparent_pairs
    assert totals == [1077, 183, 894]
    assert apparent == 1146


def test_rows_holding_several_pivots_are_pinned():
    # Y(20, 1140) with 2-torsion over the first 25 primes: deaths 363 and
    # 368 each end two classes (masks 2 and Q/2), so their rows hold two
    # pivots, and births 51, 58 and 61 each settle two pivots
    basis = PrimeBasis.first(25)
    mf, stats = reduce_multifield(linial_meshulam(20, 1140, 1901292595), basis)
    assert stats == ReduceStats(363, 8, 355, 81)
    odd = basis.product // 2
    assert [t for t in mf.triples if t[2] != basis.product] == [
        (51, 363, 2),
        (51, 366, odd),
        (58, 368, odd),
        (58, 371, 2),
        (61, 363, odd),
        (61, 368, 2),
    ]
    assert [e for e in mf.essentials if e[1] != basis.product] == [(366, 2), (371, odd)]


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
        assert frozenset(mf.project(2).pairs) == frozenset(single.pairs)
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
                frozenset(a.project(sorted_basis.primes.index(q) + 1).pairs)
                == frozenset(b.project(shuffled.primes.index(q) + 1).pairs)
            )


def test_wrong_partial_inverse_raises(monkeypatch):
    def wrong_mask(basis, x, mask):
        return 1, 1

    monkeypatch.setattr(mfph.multifield, "partial_inverse", wrong_mask)
    with pytest.raises(InconsistencyError):
        reduce_multifield(filled_triangle(), PrimeBasis.of([2, 3]))


def test_complexes_without_columns_reduce():
    # no simplex, or no edge: nothing is apparent and every index is essential
    basis = PrimeBasis.of([2, 3])
    for items, births in (([], ()), ([((7,), 0.0), ((1,), 1.0)], (1, 2))):
        cx = FilteredComplex(items)
        mf, stats = reduce_multifield(cx, basis)
        assert (mf.triples, mf.essentials) == ((), tuple((i, 6) for i in births))
        assert stats.apparent_pairs == 0
        diagram, ops = reduce_single_field(cx, 3)
        assert (diagram.pairs, ops) == (tuple((i, None) for i in births), 0)


def test_false_apparent_column_raises_in_both_reducers():
    # mark one column apparent that is not: both reducers then register a
    # pivot at its largest row up front.  Where the diagram has no such
    # pair, that must raise; where it has, the diagram must not change.
    basis = PrimeBasis.of([2, 3])
    rng = random.Random(41)
    complexes = [minimal_projective_plane(), coned_projective_plane(), klein_grid()]
    complexes += [random_small_complex(rng) for _ in range(10)]
    faults = []  # per raise: (reducer, whether it named a later column)
    kept = 0

    def fault(reducer, call):
        with pytest.raises(InconsistencyError) as err:
            call()
        faults.append((reducer, "later in the clearing order" in str(err.value)))

    for cx in complexes:
        m1 = len(cx) + 1
        cb = cx.coboundary()
        want, _ = reduce_multifield(cx, basis)
        truth = {q: boundary_pairs(cx, q) for q in basis.primes}
        for c in range(1, m1):
            col = cb.column(c)
            if not col or c in cb.apparent:
                continue
            pair = (m1 - c, m1 - max(col))
            cx._coboundary = dataclasses.replace(cb, apparent=np.sort(np.append(cb.apparent, c)))
            try:
                if all(pair in truth[q] for q in basis.primes):
                    got, _ = reduce_multifield(cx, basis)
                    assert (got.triples, got.essentials) == (want.triples, want.essentials)
                    kept += 1
                else:
                    fault("multi", lambda: reduce_multifield(cx, basis))
                for q in basis.primes:
                    if pair in truth[q]:
                        assert frozenset(reduce_single_field(cx, q)[0].pairs) == truth[q]
                    else:
                        fault("single", lambda: reduce_single_field(cx, q))
            finally:
                cx._coboundary = cb
    # each reducer raised for a later owner and for an index paired twice
    assert set(faults) == {(r, later) for r in ("multi", "single") for later in (True, False)}
    assert kept > 0


def test_axpy_that_cancels_nothing_raises(monkeypatch):
    # the column keeps its low on the same mask after the axpy, which the
    # loop's rescan from the column's end must catch
    monkeypatch.setattr(mfph.multifield, "column_axpy", lambda target, alpha, source, q_all: target)
    with pytest.raises(InconsistencyError, match="neither shrank its mask nor lowered its pivot"):
        reduce_multifield(minimal_projective_plane(), PrimeBasis.of([2, 3]))
