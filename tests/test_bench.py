"""Benchmark harness: word bounds, timing report, torsion windows."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest

import mfph.bench
from mfph.bench import (
    BENCH_CSV_HEADER,
    bench_csv_rows,
    bench_text,
    check_projections,
    lambda_bound,
    run_bench,
)
from mfph.crt import InconsistencyError, PrimeBasis, first_primes, word_length
from mfph.generators import linial_meshulam, minimal_projective_plane, rips_filtration, sample_shape
from mfph.multifield import reduce_multifield
from mfph.single_field import FieldDiagram, reduce_single_field
from mfph.torsion import WINDOW_CSV_HEADER, five_number, torsion_window, window_csv_rows, window_text

from oracles import filled_triangle, reference_divergence


def test_lambda_bound_values():
    # the closed-form cap on lambda(Q) in 64-bit words for the first r primes
    assert lambda_bound(50) == 7
    assert lambda_bound(100) == 15
    assert lambda_bound(200) == 32
    assert lambda_bound(1) == 1


def test_lambda_bound_dominates_actual_word_length():
    for r in (1, 2, 5, 10, 50, 100, 200):
        q_product = math.prod(first_primes(r))
        assert word_length(q_product) <= lambda_bound(r)


def test_lambda_bound_is_reported_for_the_first_r_primes_only():
    # two primes near 2^80 make a Q of 3 words; the bound for r = 2, one
    # word, holds for the first two primes and not for these
    cx = filled_triangle()
    big, _ = run_bench(cx, [1208925819614629174706111, 1208925819614629174706083], mode="modular", repeats=1)
    assert big.lambda_q == 3 and big.lambda_q_bound is None
    assert "lambda(Q)=3 words at w=64" in bench_text(big)
    assert bench_csv_rows([big])[1].split(",")[2:4] == ["3", ""]
    gap, _ = run_bench(cx, [2, 5], mode="modular", repeats=1)
    assert gap.lambda_q_bound is None
    # the first r primes, in any order, keep it
    first, _ = run_bench(cx, [5, 2, 3], mode="modular", repeats=1)
    assert first.lambda_q_bound == lambda_bound(3) == 1
    assert "lambda(Q)=1 words (bound 1) at w=64" in bench_text(first)
    assert bench_csv_rows([first])[1].split(",")[2:4] == ["1", "1"]


def test_run_bench_both_mode():
    cx = minimal_projective_plane()
    report, mf = run_bench(cx, [2, 3], mode="both", repeats=1)
    assert report.r == 2
    assert report.n_simplices == 31 and report.max_dim == 2
    assert report.t_bf is not None and report.ratio is not None
    assert report.ratio == pytest.approx(report.t_bf / report.t_r)
    assert report.p_f == (17, 16)
    assert report.p_r == 18
    assert report.p_r >= max(report.p_f)
    assert report.t_bf > 0
    assert report.lambda_q == word_length(6)
    assert report.lambda_q_bound == lambda_bound(2)
    text = bench_text(report)
    assert "T_r" in text and "R_2" in text and "P_r = 18" in text


def test_run_bench_times_warm_columns(monkeypatch):
    # the untimed warm-up builds the whole CSR coboundary matrix without a
    # reduction; every timed route finds that same object and builds nothing
    seen = []

    def spy(name):
        original = getattr(mfph.bench, name)

        def timed(cx, *args):
            before = cx._coboundary
            result = original(cx, *args)
            seen.append((name, before, cx._coboundary))
            return result

        monkeypatch.setattr(mfph.bench, name, timed)

    spy("reduce_multifield")
    spy("reduce_single_field")
    cx = minimal_projective_plane()
    run_bench(cx, [2, 3], mode="both", repeats=1)
    assert [name for name, _, _ in seen] == ["reduce_multifield"] + ["reduce_single_field"] * 2
    built = cx.coboundary()
    assert built is not None
    assert all(before is built and after is built for _, before, after in seen)
    # columns 1..31 plus the unused entry 0; the 10 triangles are
    # top-dimensional and their columns empty
    assert len(built.indptr) == 32 + 1
    assert sum(1 for c in range(32) if built.column(c)) == 21


def test_run_bench_modular_mode():
    cx = filled_triangle()
    report, _ = run_bench(cx, [2, 3, 5], mode="modular", repeats=1)
    assert report.t_bf is None and report.ratio is None
    assert report.p_r >= max(report.p_f)
    assert "T_bf" not in bench_text(report)


def test_run_bench_validation():
    cx = filled_triangle()
    with pytest.raises(ValueError):
        run_bench(cx, [2], mode="bruteforce")
    with pytest.raises(ValueError):
        run_bench(cx, [2], repeats=0)


def test_bench_csv_rows():
    cx = filled_triangle()
    both, _ = run_bench(cx, [2, 3], mode="both", repeats=1)
    modular, _ = run_bench(cx, [2, 3], mode="modular", repeats=1)
    rows = bench_csv_rows([both, modular])
    assert rows[0] == BENCH_CSV_HEADER
    assert len(rows) == 3
    assert rows[1].startswith("2,64,1,")
    fields = rows[2].split(",")
    assert fields[5] == "" and fields[6] == ""  # no baseline columns
    assert len(fields) == len(BENCH_CSV_HEADER.split(","))


def test_check_projections_detects_mismatch():
    cx = minimal_projective_plane()
    mf, _ = reduce_multifield(cx, PrimeBasis.of([2, 3]))
    projections = [mf.project(s) for s in (1, 2)]
    singles = {q: reduce_single_field(cx, q)[0] for q in (2, 3)}
    check_projections(projections, singles)  # agreement passes silently
    singles[3] = FieldDiagram(prime=3, pairs=((1, None),), dims=(0,))
    with pytest.raises(InconsistencyError):
        check_projections(projections, singles)


def test_check_projections_catches_one_wrong_entry_in_any_field():
    # RP^2 over 2, 3 and 5: field 2 sees a pair the others do not
    cx = minimal_projective_plane()
    primes = (2, 3, 5)
    mf, _ = reduce_multifield(cx, PrimeBasis.of(primes))
    projections = [mf.project(s) for s in (1, 2, 3)]
    singles = {q: reduce_single_field(cx, q)[0] for q in primes}
    check_projections(projections, singles)
    mutations = 0
    for q in primes:
        good = singles[q].pairs
        changes = [
            # an essential class made finite, or a finite one essential
            {k: (birth, None if death is not None else len(cx) + 1)}
            for k, (birth, death) in enumerate(good)
        ]
        finite = [k for k, (_, death) in enumerate(good) if death is not None]
        changes.extend(
            # two finite pairs that trade deaths
            {a: (good[a][0], good[b][1]), b: (good[b][0], good[a][1])}
            for a, b in zip(finite, finite[1:])
        )
        for change in changes:
            pairs = tuple(change.get(k, pair) for k, pair in enumerate(good))
            bad = FieldDiagram(prime=q, pairs=pairs, dims=singles[q].dims)
            with pytest.raises(InconsistencyError, match=f"mod {q} "):
                check_projections(projections, {**singles, q: bad})
            with pytest.raises(InconsistencyError, match=f"mod {q} "):
                check_projections([bad if p.prime == q else p for p in projections], singles)
            mutations += 1
    assert mutations > sum(map(len, singles.values()))


def test_projections_are_shared_per_group_of_fields():
    # Rips: every mask is full, so the four fields form one group;
    # RP^2 over 2, 3 and 5: field 2 has pairs of its own
    rips = rips_filtration(sample_shape("cube-uniform", 30, seed=2), rho=0.5, max_dim=2)
    for cx, primes, groups in ((rips, (2, 3, 5, 7), 1), (minimal_projective_plane(), (2, 3, 5), 2)):
        mf, _ = reduce_multifield(cx, PrimeBasis.of(primes))
        projections = mf.projections()
        assert projections == [mf.project(s) for s in range(1, len(primes) + 1)]
        assert [p.prime for p in projections] == list(primes)
        assert len({id(p.pairs) for p in projections}) == groups
        assert mf.field_sizes() == tuple(map(len, projections))
        report, _ = run_bench(cx, primes, mode="modular", repeats=1)
        assert report.p_f == mf.field_sizes()


def test_grouped_check_catches_one_wrong_entry_in_any_field():
    # every field of the Rips complex shares one projection; a wrong
    # entry in any one field, on either side, still raises
    cx = rips_filtration(sample_shape("cube-uniform", 30, seed=2), rho=0.5, max_dim=2)
    primes = (2, 3, 5, 7)
    mf, _ = reduce_multifield(cx, PrimeBasis.of(primes))
    singles = {q: reduce_single_field(cx, q)[0] for q in primes}
    check_projections(mf.projections(), singles)
    mutations = 0
    for q in primes:
        good = singles[q].pairs
        for k in range(0, len(good), 7):
            birth, death = good[k]
            pairs = good[:k] + ((birth, None if death is not None else len(cx) + 1),) + good[k + 1 :]
            bad = FieldDiagram(prime=q, pairs=pairs, dims=singles[q].dims)
            with pytest.raises(InconsistencyError, match=f"mod {q} "):
                check_projections(mf.projections(), {**singles, q: bad})
            mutations += 1
        # the multi-field diagram loses field q on one entry: every 11th
        # finite pair and every 3rd essential in turn gets a mask of its own
        finite, essential = np.flatnonzero(mf.deaths), np.flatnonzero(mf.deaths == 0)
        for e in np.concatenate((finite[::11], essential[::3])).tolist():
            ids = mf.ids.copy()
            ids[e] = len(mf.masks)
            bad = replace(mf, ids=ids, masks=mf.masks + (mf.masks[mf.ids[e]] // q,))
            with pytest.raises(InconsistencyError, match=f"mod {q} "):
                check_projections(bad.projections(), singles)
            mutations += 1
    assert mutations > 4 * 20


def test_five_number():
    assert five_number([4, 1, 3, 2]) == (1, 1.75, 2.5, 3.25, 4)
    assert five_number([5.0]) == (5.0, 5.0, 5.0, 5.0, 5.0)
    with pytest.raises(ValueError):
        five_number([])


def test_torsion_window_shapes():
    res = torsion_window(10, None, r=2, trials=3, c_star=2.754, seed=0)
    assert res.m_max == math.comb(10, 3)
    assert len(res.lower) == res.trials - res.empty_trials
    assert len(res.lower) == len(res.upper)
    assert all(lo <= hi for lo, hi in zip(res.lower, res.upper))
    # normalized edges n*m/C(n,3) - c_star stay within [-c_star, n - c_star]
    assert all(-2.754 <= x <= 10 - 2.754 for x in res.lower)


def test_torsion_window_determinism():
    a = torsion_window(8, 40, r=2, trials=2, c_star=1.0, seed=5)
    b = torsion_window(8, 40, r=2, trials=2, c_star=1.0, seed=5)
    assert a == b


def test_torsion_window_matches_the_per_entry_reference_per_trial():
    # Y(20, m) over five fields: each trial's hull, from the same draws,
    # is compared exactly, on trials with and without torsion; at m = 145
    # one trial's torsion lasts to the end, where a field's class is
    # essential
    basis = PrimeBasis.first(5)
    for m_max, seed in ((145, 2), (math.comb(20, 3), 1)):
        res = torsion_window(20, m_max, r=5, trials=12, c_star=0.5, seed=seed)
        rng = random.Random(seed)
        hulls = []
        for _ in range(12):
            mf, _ = reduce_multifield(linial_meshulam(20, m_max, rng.randrange(2**63)), basis)
            hulls.append(reference_divergence(mf, m_max))
        found = [h for h in hulls if h is not None]
        assert 0 < len(found) < len(hulls) and res.empty_trials == len(hulls) - len(found)
        scale = 20 / math.comb(20, 3)
        assert res.lower == tuple(scale * lo - 0.5 for lo, _ in found)
        assert res.upper == tuple(scale * hi - 0.5 for _, hi in found)
        assert {type(x) for x in res.lower + res.upper} == {float}


def test_torsion_window_validation():
    with pytest.raises(ValueError):
        torsion_window(3, None, r=2, trials=1, c_star=0.0)
    with pytest.raises(ValueError):
        torsion_window(6, None, r=2, trials=0, c_star=0.0)
    with pytest.raises(ValueError):
        torsion_window(6, 21, r=2, trials=1, c_star=0.0)  # C(6,3) = 20
    for c_star in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="c_star"):
            torsion_window(6, None, r=2, trials=1, c_star=c_star)


def test_window_csv_rows():
    res = torsion_window(10, None, r=2, trials=3, c_star=2.754, seed=0)
    rows = window_csv_rows([res])
    assert rows[0] == WINDOW_CSV_HEADER
    if res.lower:
        assert rows[1].startswith(f"10,{res.m_max},2,3,2.754,lower,")
        assert len(rows) == 3
        assert rows[2].split(",")[5] == "upper"
    else:
        assert len(rows) == 1


def test_window_text():
    res = torsion_window(10, None, r=2, trials=2, c_star=2.754, seed=0)
    text = window_text(res)
    assert "trials with torsion:" in text
    assert "c_star = 2.754" in text
