"""Integral inference: UCT recurrence, rendering, annotation."""

import math
import random

import pytest

from mfph.crt import PrimeBasis, mask_primes
from mfph.generators import minimal_projective_plane
from mfph.multifield import reduce_multifield
from mfph.torsion import (
    BettiTable,
    IntegralProfile,
    annotate_diagram,
    betti_table,
    group_string,
    infer_torsion,
    torsion_csv_rows,
    torsion_report,
)

from oracles import betti_at, filled_triangle, klein_grid, random_small_complex


def rp2_profile(primes, reference=None):
    cx = minimal_projective_plane()
    mf, _ = reduce_multifield(cx, PrimeBasis.of(primes))
    table = betti_table(mf)
    return table, infer_torsion(table, reference=reference)


def test_projective_plane_betti_table():
    table, _ = rp2_profile([2, 3, 5])
    assert table.beta == ((1, 1, 1), (1, 0, 0), (1, 0, 0))
    assert table.t == 31 and table.d_max == 2
    assert tuple(row[0] for row in table.beta) == (1, 1, 1)
    assert tuple(row[2] for row in table.beta) == (1, 0, 0)


def test_projective_plane_torsion():
    _, profile = rp2_profile([2, 3, 5])
    assert profile.reference == 3  # field of the largest prime
    assert profile.beta_z == (1, 0, 0)
    assert profile.torsion == ((0, 0, 0), (1, 0, 0), (0, 0, 0))
    assert profile.consistent and profile.offenders == ()
    assert group_string(profile, 0) == "Z"
    assert group_string(profile, 1) == "Z/2^*Z"
    assert group_string(profile, 2) == "0"


def test_klein_grid_torsion():
    mf, _ = reduce_multifield(klein_grid(), PrimeBasis.of([2, 3]))
    profile = infer_torsion(betti_table(mf))
    assert profile.beta_z == (1, 1, 0)
    assert group_string(profile, 1) == "Z + Z/2^*Z"
    assert group_string(profile, 2) == "0"
    assert profile.consistent


def test_reference_prime_too_small_is_flagged():
    _, profile = rp2_profile([2, 3, 5], reference=1)
    assert not profile.consistent
    assert profile.beta_z == (1, 1, 1)
    assert profile.offenders == ((1, 3), (1, 5))
    report = torsion_report(profile)
    assert "WARNING" in report and "(d=1, q=3)" in report


def test_reference_choice_does_not_change_profile():
    _, small = rp2_profile([2, 3])
    _, large = rp2_profile([2, 3, 5])
    assert small.beta_z == large.beta_z
    for d in range(3):
        assert group_string(small, d) == group_string(large, d)


def test_uct_reconstruction_identity():
    # beta_d(F_s) = beta_d(Z) + t(d, s) + t(d-1, s) by construction,
    # and dimension 0 never disagrees across fields on real data
    rng = random.Random(61)
    basis = PrimeBasis.of([2, 3, 5])
    for _ in range(10):
        cx = random_small_complex(rng)
        mf, _ = reduce_multifield(cx, basis)
        table = betti_table(mf)
        profile = infer_torsion(table)
        assert all((0, q) not in profile.offenders for q in basis.primes)
        for d in range(table.d_max + 1):
            for s in range(1, 4):
                prev = profile.torsion[d - 1][s - 1] if d else 0
                assert (
                    table.beta[d][s - 1]
                    == profile.beta_z[d] + profile.torsion[d][s - 1] + prev
                )


def test_dimension_zero_mismatch_is_inconsistent():
    table = BettiTable(
        basis=PrimeBasis.of([2, 3]), t=5, d_max=0, beta=((1, 2),)
    )
    profile = infer_torsion(table)
    assert not profile.consistent
    assert profile.offenders == ((0, 2),)


def test_betti_table_partial_index():
    cx = filled_triangle()
    mf, _ = reduce_multifield(cx, PrimeBasis.of([2, 3]))
    at5 = betti_table(mf, t=5)
    assert tuple(row[0] for row in at5.beta) == (1, 0, 0)
    at6 = betti_table(mf, t=6)
    assert tuple(row[0] for row in at6.beta) == (1, 1, 0)
    with pytest.raises(ValueError):
        betti_table(mf, t=8)
    with pytest.raises(ValueError):
        betti_table(mf, t=-1)


def test_infer_torsion_validation():
    table, _ = rp2_profile([2, 3])
    with pytest.raises(ValueError):
        infer_torsion(table, reference=3)
    with pytest.raises(ValueError):
        infer_torsion(table, reference=0)
    empty = BettiTable(basis=PrimeBasis.of([2]), t=0, d_max=0, beta=())
    with pytest.raises(ValueError):
        infer_torsion(empty)


def test_group_string_rendering():
    profile = IntegralProfile(
        basis=PrimeBasis.of([2, 3]),
        t=10,
        reference=2,
        beta_z=(2, 0),
        torsion=((2, 0), (0, 1)),
        consistent=True,
        offenders=(),
    )
    assert group_string(profile, 0) == "Z^2 + Z/2^*Z + Z/2^*Z"
    assert group_string(profile, 1) == "Z/3^*Z"


def test_torsion_report_lines():
    _, profile = rp2_profile([2, 3, 5])
    lines = torsion_report(profile).splitlines()
    assert lines[0] == "integral homology at index t=31 (reference prime 5)"
    assert lines[1:] == ["H_0 = Z", "H_1 = Z/2^*Z", "H_2 = 0"]


def test_torsion_csv_rows():
    _, profile = rp2_profile([2, 3, 5])
    rows = torsion_csv_rows(profile)
    assert rows[0] == "t,d,beta_Z,q,t_d_q"
    assert len(rows) == 1 + 3 * 3
    assert "31,1,0,2,1" in rows
    assert "31,2,0,5,0" in rows


def test_annotate_diagram_triangle():
    cx = filled_triangle()
    mf, _ = reduce_multifield(cx, PrimeBasis.of([2, 3]))
    inf = math.inf
    assert annotate_diagram(mf) == [
        (0, 1.0, inf, (2, 3)),
        (0, 2.0, 4.0, (2, 3)),
        (0, 3.0, 5.0, (2, 3)),
        (1, 6.0, 7.0, (2, 3)),
    ]


def test_annotate_diagram_partial_masks():
    cx = minimal_projective_plane()
    mf, _ = reduce_multifield(cx, PrimeBasis.of([2, 3]))
    points = annotate_diagram(mf)
    inf = math.inf
    assert (1, 0.0, inf, (2,)) in points
    assert (2, 0.0, inf, (2,)) in points
    # the torsion pair collapses onto the value-0 diagonal point whose
    # prime set is the union over all dim-1 pairings there
    assert (1, 0.0, 0.0, (2, 3)) in points


def test_betti_table_matches_per_field_betti_at():
    rng = random.Random(2026)
    basis = PrimeBasis.of([5, 2, 3, 11, 7])
    for _ in range(30):
        cx = random_small_complex(rng)
        mf, _ = reduce_multifield(cx, basis)
        m = len(cx)
        diagrams = [mf.project(s) for s in range(1, basis.r + 1)]
        for t in sorted({0, 1, m // 3, m // 2, m - 1, m}):
            for d_max in (None, 0, cx.max_dim + 1):
                table = betti_table(mf, t=t, d_max=d_max)
                top = cx.max_dim if d_max is None else d_max
                assert table.beta == tuple(
                    tuple(betti_at(dg, t, d) for dg in diagrams)
                    for d in range(top + 1)
                )


def test_annotate_diagram_matches_per_triple_union():
    # all-zero values stack pairs of different masks on one location
    rng = random.Random(73)
    basis = PrimeBasis.of([3, 2, 5])
    corpus = [minimal_projective_plane(), klein_grid()]
    corpus += [random_small_complex(rng) for _ in range(30)]
    for cx in corpus:
        mf, _ = reduce_multifield(cx, basis)
        located = {}
        for birth, death, mask in mf.triples:
            key = (mf.index_dims[birth - 1], mf.index_values[birth - 1], mf.index_values[death - 1])
            located.setdefault(key, set()).update(mask_primes(basis, mask))
        for birth, mask in mf.essentials:
            key = (mf.index_dims[birth - 1], mf.index_values[birth - 1], math.inf)
            located.setdefault(key, set()).update(mask_primes(basis, mask))
        want = [(*key, tuple(sorted(qs))) for key, qs in sorted(located.items())]
        assert annotate_diagram(mf) == want
