"""Benchmark harness: word bounds, timing report, torsion windows."""

import math

import pytest

import mfph.bench
from mfph.bench import (
    BENCH_CSV_HEADER,
    WINDOW_CSV_HEADER,
    bench_csv_rows,
    bench_text,
    check_projections,
    five_number,
    lambda_bound,
    run_bench,
    torsion_window,
    window_csv_rows,
    window_text,
)
from mfph.crt import InconsistencyError, PrimeBasis, first_primes, word_length
from mfph.generators import minimal_projective_plane
from mfph.multifield import reduce_multifield
from mfph.single_field import FieldDiagram, reduce_single_field

from oracles import filled_triangle


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


def test_run_bench_both_mode():
    cx = minimal_projective_plane()
    report, mf = run_bench(cx, [2, 3], mode="both", repeats=1)
    assert report.r == 2
    assert report.n_simplices == 31 and report.max_dim == 2
    assert report.t_bf is not None and report.ratio is not None
    assert report.t_bf == pytest.approx(sum(report.t_bf_each))
    assert report.p_f == (17, 16)
    assert report.p_r == 18
    assert report.p_r >= max(report.p_f)
    assert len(report.single_field_ops) == 2
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
    assert report.single_field_ops is None
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
