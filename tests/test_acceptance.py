"""Acceptance gate: one test per shipped guarantee.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion.  Criteria 3, 6 and 7 build desk-scale inputs and take a
few minutes between them; everything else is fast.
"""

import itertools
import math
import random

import pytest

from mfph.bench import lambda_bound, run_bench
from mfph.crt import (
    PrimeBasis,
    first_primes,
    partial_inverse,
    word_length,
)
from mfph.generators import (
    linial_meshulam,
    minimal_projective_plane,
    random_flag,
    rips_filtration,
    sample_shape,
)
from mfph.multifield import reduce_multifield
from mfph.single_field import reduce_single_field
from mfph.torsion import (
    annotate_diagram,
    betti_table,
    five_number,
    group_string,
    infer_torsion,
    torsion_window,
)

from oracles import (
    axpy_upper_bound,
    betti_prefix,
    crt_combine,
    crt_project,
    filled_triangle,
    partial_identity,
)

CORPUS_PRIMES = (2, 3, 5, 7, 11)


def _small_flag(rng):
    while True:
        n = rng.randint(5, 10)
        m = rng.randint(n, min(math.comb(n, 2), 3 * n))
        cx = random_flag(n, m, rng.choice((2, 3)), rng.randrange(2**32))
        if len(cx) <= 300:
            return cx


def _small_ym(rng):
    n = rng.randint(5, 8)
    m = rng.randint(1, min(25, math.comb(n, 3)))
    return linial_meshulam(n, m, rng.randrange(2**32))


@pytest.fixture(scope="module")
def corpus():
    """100 random filtrations (half flag, half 2-complex), each reduced
    modularly over the first 5 primes and independently per field."""
    rng = random.Random(2026)
    basis = PrimeBasis.of(CORPUS_PRIMES)
    entries = []
    for i in range(100):
        cx = _small_flag(rng) if i % 2 == 0 else _small_ym(rng)
        mf, stats = reduce_multifield(cx, basis)
        singles = {q: reduce_single_field(cx, q)[0] for q in CORPUS_PRIMES}
        entries.append((cx, mf, stats, singles))
    return entries


def test_criterion_1_modular_equals_single_field_on_random_corpus(corpus):
    assert len(corpus) >= 100
    assert all(len(cx) <= 300 for cx, *_ in corpus)
    for cx, mf, _stats, singles in corpus:
        for s, q in enumerate(CORPUS_PRIMES, start=1):
            assert frozenset(mf.project(s).pairs) == frozenset(singles[q].pairs)


def test_criterion_2_crt_and_partial_inverse_laws_exhaustive():
    basis = PrimeBasis.of([2, 3, 5, 7])
    q_all = basis.product
    assert q_all == 210
    for x in range(q_all):
        residues = [crt_project(basis, x, s) for s in range(1, 5)]
        assert crt_combine(basis, residues) == x
    masks = [
        math.prod(sub) if sub else 1
        for k in range(5)
        for sub in itertools.combinations((2, 3, 5, 7), k)
    ]
    assert len(masks) == 16
    for mask in masks:
        for x in range(q_all):
            xbar, t_mask = partial_inverse(basis, x, mask)
            assert t_mask == mask // math.gcd(x, mask)
            l_t = partial_identity(basis, t_mask)
            assert (x * xbar) % q_all == l_t % q_all
            for q in (2, 3, 5, 7):
                if t_mask % q == 0:
                    assert (x * xbar) % q == 1
                else:
                    assert xbar % q == 0


def test_criterion_3_klein_bottle_torsion_pipeline():
    points = sample_shape("klein-bottle-R5", 600, seed=3)
    assert points.shape == (600, 5)
    cx = rips_filtration(points, rho=1.5, max_dim=3)
    assert len(cx) > 100_000
    mf, _ = reduce_multifield(cx, PrimeBasis.of([2, 3]))
    table = betti_table(mf, d_max=2)
    assert table.beta == ((1, 1), (2, 1), (1, 0))
    profile = infer_torsion(table)
    assert profile.consistent
    assert profile.beta_z == (1, 1, 0)
    assert group_string(profile, 1) == "Z + Z/2^*Z"
    assert profile.torsion[2] == (0, 0) and profile.beta_z[2] == 0
    # the two widest H_1 features: one class in both fields, one only mod 2
    essential_h1 = [
        qs for dim, _b, d, qs in annotate_diagram(mf)
        if dim == 1 and math.isinf(d)
    ]
    assert sorted(essential_h1) == [(2,), (2, 3)]


def test_criterion_4_projective_plane_golden():
    cx = minimal_projective_plane()
    basis = PrimeBasis.of([2, 3, 5])
    mf, _ = reduce_multifield(cx, basis)
    table = betti_table(mf)
    assert table.beta[1] == (1, 0, 0)
    assert table.beta[2] == (1, 0, 0)
    for s, q in enumerate((2, 3, 5), start=1):
        assert [row[s - 1] for row in table.beta] == betti_prefix(cx, q)
    profile = infer_torsion(table)
    assert basis.primes[profile.reference - 1] == 5
    assert profile.consistent
    assert group_string(profile, 1) == "Z/2^*Z"
    assert group_string(profile, 2) == "0"


def test_criterion_5_output_sensitive_accounting(corpus):
    cases = [(mf, stats, singles) for _cx, mf, stats, singles in corpus]
    for cx, primes in ((minimal_projective_plane(), (2, 3, 5)), (filled_triangle(), (2, 3))):
        mf, stats = reduce_multifield(cx, PrimeBasis.of(primes))
        singles = {q: reduce_single_field(cx, q)[0] for q in primes}
        cases.append((mf, stats, singles))
    for mf, stats, singles in cases:
        assert stats.axpy_count <= axpy_upper_bound(mf)
        full = mf.basis.product
        partial = sum(1 for *_, mask in mf.triples if mask != full)
        partial += sum(1 for _, mask in mf.essentials if mask != full)
        common = frozenset.intersection(
            *(frozenset(d.pairs) for d in singles.values())
        )
        assert partial == mf.p_r - len(common)


def test_criterion_6_performance_trend_and_word_counts():
    points = sample_shape("cube-uniform", 400, seed=11)
    cx = rips_filtration(points, rho=0.28, max_dim=3)
    assert len(cx) >= 100_000
    ratios = {}
    for r in (10, 50, 100):
        report, mf = run_bench(cx, first_primes(r), mode="both", repeats=1)
        ratios[r] = report.ratio
        if r == 10:
            # no pair differs between fields on this input
            full = math.prod(first_primes(10))
            assert all(mask == full for *_, mask in mf.triples)
            assert all(mask == full for _, mask in mf.essentials)
            assert mf.p_r == max(report.p_f) == min(report.p_f)
    assert ratios[50] >= 5.0
    assert ratios[50] >= 0.8 * ratios[10]
    assert ratios[100] >= 0.8 * ratios[50]
    assert tuple(lambda_bound(r) for r in (50, 100, 200)) == (7, 15, 32)
    words = tuple(
        word_length(math.prod(first_primes(r))) for r in (50, 100, 200)
    )
    assert words == (5, 12, 27)
    assert all(w <= b for w, b in zip(words, (7, 15, 32)))


def test_criterion_7_torsion_window_distribution():
    res = torsion_window(25, None, r=25, trials=25, c_star=2.754, seed=0)
    assert res.m_max == math.comb(25, 3)
    assert len(res.lower) == res.trials - res.empty_trials >= 15
    mn, _q1, med, _q3, mx = five_number(res.lower)
    assert -0.5 <= med <= 0.0
    assert -0.1 <= mx <= 0.2
    assert mn <= med <= mx
