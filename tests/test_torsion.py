"""Integral inference: UCT recurrence, rendering, annotation."""

import math
import random

import pytest

from mfph.complexes import FilteredComplex
from mfph.crt import PrimeBasis, first_primes, mask_primes
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

from oracles import (
    betti_at,
    filled_triangle,
    integral_homology,
    klein_grid,
    moore_space,
    moore_suspension_wedge,
    moore_wedge,
    random_small_complex,
    reference_infer_torsion,
    reference_torsion_csv_rows,
)


def rp2_profile(primes):
    cx = minimal_projective_plane()
    mf, _ = reduce_multifield(cx, PrimeBasis.of(primes))
    table = betti_table(mf)
    return table, infer_torsion(table)


def test_projective_plane_betti_table():
    table, _ = rp2_profile([2, 3, 5])
    assert table.beta == ((1, 1, 1), (1, 0, 0), (1, 0, 0))
    assert table.t == 31 and len(table.beta) == 3
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


MOORE = [
    # (id, complex, read at the last index of this value (None: at the
    # end), H_0, H_1, ..., the profile's offenders)
    *[(f"M{q}", lambda q=q: moore_space(q), None, ("Z", f"Z/{q}^*Z", "0"), ()) for q in (2, 3, 5, 7)],
    ("M3-before-disk", lambda: moore_space(3), 0.0, ("Z", "Z", "0"), ()),
    *[
        (f"M{q}-coned-at-1", lambda q=q: moore_space(q, cone=True), 1.0, ("Z", f"Z/{q}^*Z", "0", "0"), ())
        for q in (2, 3, 5, 7)
    ],
    *[
        (f"M{q}-coned", lambda q=q: moore_space(q, cone=True), None, ("Z", "0", "0", "0"), ())
        for q in (2, 3, 5, 7)
    ],
    ("wedge-at-1", moore_wedge, 1.0, ("Z", "Z + Z/3^*Z", "0"), ()),
    ("wedge", moore_wedge, None, ("Z", "Z/3^*Z + Z/5^*Z", "0"), ()),
    # 97 divides the torsion: its field alone sees a class in H_1 and
    # H_2, so the reference is 89, the largest prime whose field is least
    ("M97", lambda: moore_space(97), None, ("Z", "Z/97^*Z", "0"), ()),
]


@pytest.mark.parametrize(
    "build, value, groups, offenders", [case[1:] for case in MOORE], ids=[case[0] for case in MOORE]
)
def test_moore_space_torsion_over_the_first_25_primes(build, value, groups, offenders):
    mf, _ = reduce_multifield(build(), PrimeBasis.first(25))
    t = None if value is None else int((mf.index_values <= value).sum())
    profile = infer_torsion(betti_table(mf, t=t))
    assert tuple(group_string(profile, d) for d in range(len(profile.beta_z))) == groups
    assert profile.offenders == offenders
    assert profile.consistent == (offenders == ())


INTEGRAL = [
    *[(f"M{q}", lambda q=q: moore_space(q)) for q in (2, 3, 5, 7)],
    *[(f"M{q}-coned", lambda q=q: moore_space(q, cone=True)) for q in (2, 3, 5, 7)],
    ("wedge", moore_wedge),
    ("suspension-wedge", moore_suspension_wedge),
    ("rp2", minimal_projective_plane),
    ("klein", klein_grid),
]


@pytest.mark.parametrize("build", [case[1] for case in INTEGRAL], ids=[case[0] for case in INTEGRAL])
def test_default_reference_reads_the_integral_homology(build):
    # at the last index of each value, over bases with and without a
    # torsion-free prime: the fields' Betti numbers are the oracle's by
    # the UCT, and with a prime that divides no torsion coefficient the
    # profile is H_d(K_t; Z) itself
    cx = build()
    bases = [PrimeBasis.of(primes) for primes in ([2, 3], [5, 2, 3, 7], first_primes(25))]
    diagrams = [reduce_multifield(cx, basis)[0] for basis in bases]
    for t in sorted({int((diagrams[0].index_values <= v).sum()) for v in diagrams[0].index_values}):
        homology = integral_homology(cx, t)
        for basis, mf in zip(bases, diagrams):
            # counts[d][s]: the Z/q_s^kZ summands of H_d
            counts = [[sum(e % q == 0 for e in coefficients) for q in basis.primes] for _, coefficients in homology]
            table = betti_table(mf, t=t)
            assert table.beta == tuple(
                tuple(free + n + (counts[d - 1][s] if d else 0) for s, n in enumerate(counts[d]))
                for d, (free, _) in enumerate(homology)
            )
            if all(any(row[s] for row in counts) for s in range(basis.r)):
                continue  # no basis prime is torsion-free
            profile = infer_torsion(table)
            assert profile.consistent
            assert profile.beta_z == tuple(free for free, _ in homology)
            assert profile.torsion == tuple(map(tuple, counts))


def test_reference_prime_too_small_is_flagged():
    # H_1 = Z/2 and H_2 = Z/3: over {2, 3} no field is torsion-free, so
    # no column is least at every d and the largest prime is the reference
    mf, _ = reduce_multifield(moore_suspension_wedge(), PrimeBasis.of([2, 3]))
    table = betti_table(mf)
    assert table.beta == ((1, 1), (1, 0), (1, 1), (0, 1))
    profile = infer_torsion(table)
    assert not profile.consistent
    assert profile.reference == 2
    assert profile.beta_z == (1, 0, 1, 1)
    assert profile.offenders == ((2, 2),)
    report = torsion_report(profile)
    assert "WARNING" in report and "(d=2, q=2)" in report
    # a torsion-free field in the basis is read as the reference
    mf, _ = reduce_multifield(moore_suspension_wedge(), PrimeBasis.of([2, 3, 5]))
    profile = infer_torsion(betti_table(mf))
    assert profile.consistent and profile.reference == 3
    assert [group_string(profile, d) for d in range(4)] == ["Z", "Z/2^*Z", "Z/3^*Z", "0"]


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
        for d in range(len(table.beta)):
            for s in range(1, 4):
                prev = profile.torsion[d - 1][s - 1] if d else 0
                assert (
                    table.beta[d][s - 1]
                    == profile.beta_z[d] + profile.torsion[d][s - 1] + prev
                )


def test_dimension_zero_mismatch_is_inconsistent():
    # field 2's column is the least, so it is the reference
    table = BettiTable(basis=PrimeBasis.of([2, 3]), t=5, beta=((1, 2),))
    profile = infer_torsion(table)
    assert not profile.consistent
    assert profile.reference == 1
    assert profile.offenders == ((0, 3),)


def random_betti_table(rng):
    """A Betti table over up to 6 primes in any order, and the profile
    it was built from or None.  One in four is built by the UCT from
    random torsion counts with one torsion-free field, so it is
    consistent; the rest are random counts, mostly inconsistent, whose
    negative torsion counts carry into the next dimension."""
    primes = rng.sample(first_primes(12), rng.randint(1, 6))
    rows = rng.randint(1, 5)
    if rng.random() < 0.25:
        clean = rng.randrange(len(primes))
        torsion = [[0] * len(primes)] + [
            [0 if s == clean else rng.randint(0, 2) for s in range(len(primes))] for _ in range(rows - 1)
        ]
        beta_z = [rng.randint(0, 3) for _ in range(rows)]
        beta = [
            [beta_z[d] + torsion[d][s] + (torsion[d - 1][s] if d else 0) for s in range(len(primes))]
            for d in range(rows)
        ]
        planted = (tuple(beta_z), tuple(map(tuple, torsion)))
    else:
        beta = [[rng.randint(0, 4) for _ in primes] for _ in range(rows)]
        planted = None
    table = BettiTable(basis=PrimeBasis.of(primes), t=rng.randint(0, 50), beta=tuple(map(tuple, beta)))
    return table, planted


def test_infer_torsion_matches_the_per_field_loop():
    rng = random.Random(2027)
    consistent = carried = no_least = 0
    for _ in range(600):
        table, planted = random_betti_table(rng)
        want = reference_infer_torsion(table)
        got = infer_torsion(table)
        assert got == want
        # public fields hold Python ints, as the printers format them
        assert {type(x) for row in (got.beta_z, *got.torsion) for x in row} == {int}
        assert torsion_csv_rows(got) == reference_torsion_csv_rows(want)
        if planted is not None:
            # with a torsion-free field in the basis the profile is exact
            assert got.consistent and (got.beta_z, got.torsion) == planted
        consistent += got.consistent
        carried += any(min(row) < 0 for row in got.torsion[1:-1])
        no_least += not any(all(row[s] == min(row) for row in table.beta) for s in range(table.basis.r))
    # both branches ran, with and without a least column, and negative
    # counts fed later dimensions
    assert consistent > 150 and no_least > 150 and carried > 100


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
    empty = BettiTable(basis=PrimeBasis.of([2]), t=0, beta=())
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
        points = annotate_diagram(mf)
        assert points == want
        # Python numbers, as the value formatter needs, not numpy scalars
        assert {tuple(map(type, point)) for point in points} == {(int, float, float, tuple)}
    # births at -0.0 and 0.0 share a location, named by the value of the
    # first entry there (birth 2, at 0.0)
    cx = FilteredComplex(
        [((0,), -0.0), ((1,), 0.0), ((2,), -0.0), ((3,), 0.0), ((0, 1), 1.0), ((1, 2), 1.0), ((2, 3), 1.0)]
    )
    mf, _ = reduce_multifield(cx, basis)
    assert repr(annotate_diagram(mf)) == repr([(0, 0.0, 1.0, (2, 3, 5)), (0, -0.0, math.inf, (2, 3, 5))])
