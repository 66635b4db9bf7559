"""Benchmark harness: one multi-field reduction vs. r single-field runs.

T_r is the wall time of the modular run over r fields, T_bf the summed
wall times of the r per-field runs, and R_r = T_bf / T_r the speedup.
P_F counts the pairs (finite or essential) of one field's diagram and
P_r the distinct pairings of the multi-field diagram, so P_r - max P_F
measures the extra entries introduced by torsion.  lambda_q is the
64-bit word length of the CRT modulus Q; lambda_bound is a closed-form
prime-theoretic estimate of it for the first r primes.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

from .complexes import FilteredComplex
from .crt import InconsistencyError, PrimeBasis, word_length
from .multifield import MultiFieldDiagram, reduce_multifield
from .single_field import FieldDiagram, reduce_single_field

__all__ = [
    "BenchReport",
    "WindowResult",
    "bench_csv_rows",
    "bench_text",
    "check_projections",
    "five_number",
    "lambda_bound",
    "run_bench",
    "torsion_window",
    "window_csv_rows",
    "window_text",
]


def lambda_bound(r: int) -> int:
    """Closed-form 64-bit word-length estimate for the product of the
    first r primes.

    floor(1.46613 * r * ln(r * ln r) / 64) + 1; the r = 1 product is the
    single prime 2, one word.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if r == 1:
        return 1
    return math.floor(1.46613 * r * math.log(r * math.log(r)) / 64) + 1


@dataclass(frozen=True)
class BenchReport:
    primes: tuple[int, ...]
    repeats: int
    n_simplices: int
    max_dim: int
    t_r: float
    t_bf: float | None
    t_bf_each: tuple[float, ...] | None
    ratio: float | None
    p_r: int
    p_f: tuple[int, ...]
    axpy_count: int
    partial_inverse_count: int
    cache_hits: int
    single_field_ops: tuple[int, ...] | None
    lambda_q: int
    lambda_q_bound: int

    @property
    def r(self) -> int:
        return len(self.primes)


def _median_time(fn, repeats: int) -> tuple[float, object]:
    times = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def check_projections(
    projections: list[FieldDiagram], singles: dict[int, FieldDiagram]
) -> None:
    """Raise InconsistencyError unless every projected diagram (one per
    field, from MultiFieldDiagram.project) equals the single-field
    diagram of its prime.  Both list their pairs by birth, and every
    index is born once, so equal diagrams have equal pair tuples."""
    for proj in projections:
        if proj.pairs != singles[proj.prime].pairs:
            raise InconsistencyError(
                f"projected diagram mod {proj.prime} disagrees with the single-field run"
            )


def run_bench(
    cx: FilteredComplex,
    primes,
    mode: str = "both",
    repeats: int = 3,
) -> tuple[BenchReport, MultiFieldDiagram]:
    """Time the modular reduction and optionally its brute-force baseline.

    mode "both" first verifies that every projection of the multi-field
    diagram equals the corresponding single-field diagram and raises
    InconsistencyError otherwise; timings of wrong code are never
    reported.  The baseline runs its r reductions sequentially, so the
    summed time equals the wall time.  The CSR coboundary matrix of cx,
    with its clearing order and apparent pairs, is built first, untimed,
    so that both timed routes find it built: without it the first timed
    route alone would pay for the build.  Each timed reduction still
    lists, as Python lists, the columns its own loop reads.
    """
    if mode not in ("modular", "both"):
        raise ValueError("mode must be 'modular' or 'both'")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    basis = PrimeBasis.of(primes)
    cx.coboundary()
    t_r, (mf, stats) = _median_time(lambda: reduce_multifield(cx, basis), repeats)
    projections = [mf.project(s) for s in range(1, basis.r + 1)]
    p_f = tuple(map(len, projections))
    if mf.p_r < max(p_f):
        raise InconsistencyError("P_r fell below a per-field diagram size")

    t_bf_each = None
    t_bf = None
    ratio = None
    single_ops = None
    if mode == "both":
        singles = {}
        each = []
        ops = []
        for q in basis.primes:
            t_q, (diagram, op_count) = _median_time(
                lambda q=q: reduce_single_field(cx, q), repeats
            )
            singles[q] = diagram
            each.append(t_q)
            ops.append(op_count)
        check_projections(projections, singles)
        t_bf_each = tuple(each)
        t_bf = sum(each)
        ratio = t_bf / t_r if t_r > 0 else float("inf")
        single_ops = tuple(ops)

    report = BenchReport(
        primes=basis.primes,
        repeats=repeats,
        n_simplices=len(cx),
        max_dim=cx.max_dim,
        t_r=t_r,
        t_bf=t_bf,
        t_bf_each=t_bf_each,
        ratio=ratio,
        p_r=mf.p_r,
        p_f=p_f,
        axpy_count=stats.axpy_count,
        partial_inverse_count=stats.partial_inverse_count,
        cache_hits=stats.cache_hits,
        single_field_ops=single_ops,
        lambda_q=word_length(basis.product),
        lambda_q_bound=lambda_bound(basis.r),
    )
    return report, mf


def bench_text(report: BenchReport) -> str:
    lines = [
        f"complex: {report.n_simplices} simplices, max dim {report.max_dim}",
        f"fields: r={report.r} primes {report.primes[0]}..{report.primes[-1]},"
        f" lambda(Q)={report.lambda_q} words (bound {report.lambda_q_bound})"
        " at w=64",
        f"T_r = {report.t_r:.4f} s (median of {report.repeats})",
    ]
    if report.t_bf is not None:
        lines.append(f"T_bf = {report.t_bf:.4f} s over {report.r} single-field runs")
        lines.append(f"R_{report.r} = {report.ratio:.2f}")
    lines.append(
        f"P_r = {report.p_r}, max P_F = {max(report.p_f)},"
        f" axpys = {report.axpy_count},"
        f" partial inverses = {report.partial_inverse_count}"
        f" (cache hits {report.cache_hits})"
    )
    return "\n".join(lines)


BENCH_CSV_HEADER = (
    "r,word_size,lambda_q,lambda_q_bound,T_r,T_bf,R_r,"
    "P_r,P_F_max,axpys,partial_inverses,cache_hits"
)


def bench_csv_rows(reports) -> list[str]:
    """One row per report; empty fields where the baseline was not run."""
    rows = [BENCH_CSV_HEADER]
    for rep in reports:
        t_bf = f"{rep.t_bf:.6f}" if rep.t_bf is not None else ""
        ratio = f"{rep.ratio:.4f}" if rep.ratio is not None else ""
        rows.append(
            f"{rep.r},64,{rep.lambda_q},{rep.lambda_q_bound},"
            f"{rep.t_r:.6f},{t_bf},{ratio},{rep.p_r},{max(rep.p_f)},"
            f"{rep.axpy_count},{rep.partial_inverse_count},{rep.cache_hits}"
        )
    return rows


@dataclass(frozen=True)
class WindowResult:
    """Normalized torsion windows over Linial-Meshulam trials.

    For each trial, torsion is alive at triangle count m when some
    birth index carries pairings with different deaths across fields;
    the union of those divergence intervals is the trial's window,
    reported by its edges normalized as n * m / C(n,3) - c_star.
    Trials without divergence contribute to empty_trials only.
    """

    n: int
    m_max: int
    r: int
    trials: int
    c_star: float
    seed: int
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    empty_trials: int


def five_number(xs) -> tuple[float, float, float, float, float]:
    """(min, q1, median, q3, max) with inclusive quartiles."""
    xs = sorted(xs)
    if not xs:
        raise ValueError("no data")
    if len(xs) == 1:
        x = xs[0]
        return (x, x, x, x, x)
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return (xs[0], q1, med, q3, xs[-1])


def torsion_window(
    n: int,
    m_max: int | None,
    r: int,
    trials: int,
    c_star: float,
    seed: int = 0,
) -> WindowResult:
    """Locate torsion windows in random 2-complexes Y(n, m <= m_max).

    Each trial draws one Linial-Meshulam filtration and reduces it over
    the first r prime fields.  A birth whose pairings die at different
    times across fields (an essential counting as death past m_max)
    witnesses torsion precisely for m from its earliest death value to
    one step before its latest; the window is the union's hull.
    """
    import random

    from .generators import linial_meshulam

    if n < 4:
        raise ValueError("n must be >= 4")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not math.isfinite(c_star):
        raise ValueError(f"c_star must be finite, got {c_star}")
    if m_max is None:
        m_max = math.comb(n, 3)
    if not 1 <= m_max <= math.comb(n, 3):
        raise ValueError(f"m_max must be in [1, C(n,3)] = [1, {math.comb(n, 3)}]")
    rng = random.Random(seed)
    basis = PrimeBasis.first(r)
    scale = n / math.comb(n, 3)
    lower: list[float] = []
    upper: list[float] = []
    empty = 0
    for _ in range(trials):
        cx = linial_meshulam(n, m_max, rng.randrange(2**63))
        mf, _stats = reduce_multifield(cx, basis)
        deaths: dict[int, list[float]] = {}
        for birth, death, _mask in mf.triples:
            deaths.setdefault(birth, []).append(mf.index_values[death - 1])
        for birth, _mask in mf.essentials:
            deaths.setdefault(birth, []).append(float(m_max + 1))
        lo = None
        hi = None
        for versions in deaths.values():
            if len(versions) < 2:
                continue
            v_lo = min(versions)
            v_hi = min(max(versions) - 1.0, float(m_max))
            lo = v_lo if lo is None else min(lo, v_lo)
            hi = v_hi if hi is None else max(hi, v_hi)
        if lo is None:
            empty += 1
        else:
            lower.append(scale * lo - c_star)
            upper.append(scale * hi - c_star)
    return WindowResult(
        n=n,
        m_max=m_max,
        r=r,
        trials=trials,
        c_star=c_star,
        seed=seed,
        lower=tuple(lower),
        upper=tuple(upper),
        empty_trials=empty,
    )


WINDOW_CSV_HEADER = "n,m_max,r,trials,c_star,edge,min,q1,median,q3,max"


def window_csv_rows(results) -> list[str]:
    """Five-number summary per window edge, one lower and one upper row per n."""
    rows = [WINDOW_CSV_HEADER]
    for res in results:
        for name, data in (("lower", res.lower), ("upper", res.upper)):
            if not data:
                continue
            stats = ",".join(f"{x:.6f}" for x in five_number(data))
            rows.append(
                f"{res.n},{res.m_max},{res.r},{res.trials},{res.c_star},"
                f"{name},{stats}"
            )
    return rows


def window_text(res: WindowResult) -> str:
    lines = [
        f"Y(n={res.n}, m<={res.m_max}) over first {res.r} primes,"
        f" {res.trials} trials, seed {res.seed}",
        f"normalized edge = n*m/C(n,3) - c_star with c_star = {res.c_star}",
        f"trials with torsion: {res.trials - res.empty_trials},"
        f" without: {res.empty_trials}",
    ]
    for name, data in (("lower", res.lower), ("upper", res.upper)):
        if data:
            mn, q1, med, q3, mx = five_number(data)
            lines.append(
                f"{name} edge: min {mn:.4f}, q1 {q1:.4f}, median {med:.4f},"
                f" q3 {q3:.4f}, max {mx:.4f}"
            )
    return "\n".join(lines)
