"""Benchmark harness: one multi-field reduction vs. r single-field runs.

T_r is the wall time of the modular run over r fields, T_bf the summed
wall times of the r per-field runs, and R_r = T_bf / T_r the speedup.
P_F counts the pairs (finite or essential) of one field's diagram and
P_r the distinct pairings of the multi-field diagram, so P_r - max P_F
measures the extra entries introduced by torsion.  lambda_q is the
64-bit word length of the CRT modulus Q; lambda_bound is a closed-form
prime-theoretic estimate of it for the first r primes, reported only
for a run over those primes (in any order).
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

from .complexes import FilteredComplex
from .crt import InconsistencyError, PrimeBasis, first_primes, word_length
from .multifield import MultiFieldDiagram, reduce_multifield
from .single_field import FieldDiagram, reduce_single_field

__all__ = [
    "BenchReport",
    "bench_csv_rows",
    "bench_text",
    "check_projections",
    "lambda_bound",
    "run_bench",
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
    ratio: float | None
    p_r: int
    p_f: tuple[int, ...]
    axpy_count: int
    partial_inverse_count: int
    cache_hits: int
    lambda_q: int
    lambda_q_bound: int | None  # None unless the primes are the first r

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
    lists, as Python dicts from row to coefficient, the columns its own
    loop reads, and reduces them in place.
    """
    if mode not in ("modular", "both"):
        raise ValueError("mode must be 'modular' or 'both'")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    basis = PrimeBasis.of(primes)
    cx.coboundary()
    t_r, (mf, stats) = _median_time(lambda: reduce_multifield(cx, basis), repeats)
    p_f = mf.field_sizes()
    if mf.p_r < max(p_f):
        raise InconsistencyError("P_r fell below a per-field diagram size")

    t_bf = None
    ratio = None
    if mode == "both":
        singles = {}
        t_bf = 0.0
        for q in basis.primes:
            t_q, (singles[q], _ops) = _median_time(lambda q=q: reduce_single_field(cx, q), repeats)
            t_bf += t_q
        check_projections(mf.projections(), singles)
        ratio = t_bf / t_r if t_r > 0 else float("inf")

    first = sorted(basis.primes) == list(first_primes(basis.r))  # where lambda_bound holds
    report = BenchReport(
        primes=basis.primes,
        repeats=repeats,
        n_simplices=len(cx),
        max_dim=cx.max_dim,
        t_r=t_r,
        t_bf=t_bf,
        ratio=ratio,
        p_r=mf.p_r,
        p_f=p_f,
        axpy_count=stats.axpy_count,
        partial_inverse_count=stats.partial_inverse_count,
        cache_hits=stats.cache_hits,
        lambda_q=word_length(basis.product),
        lambda_q_bound=lambda_bound(basis.r) if first else None,
    )
    return report, mf


def bench_text(report: BenchReport) -> str:
    bound = "" if report.lambda_q_bound is None else f" (bound {report.lambda_q_bound})"
    lines = [
        f"complex: {report.n_simplices} simplices, max dim {report.max_dim}",
        f"fields: r={report.r} primes {report.primes[0]}..{report.primes[-1]},"
        f" lambda(Q)={report.lambda_q} words{bound} at w=64",
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
    """One row per report; empty fields where the baseline was not run,
    and an empty lambda_q_bound unless the primes are the first r."""
    rows = [BENCH_CSV_HEADER]
    for rep in reports:
        bound = rep.lambda_q_bound if rep.lambda_q_bound is not None else ""
        t_bf = f"{rep.t_bf:.6f}" if rep.t_bf is not None else ""
        ratio = f"{rep.ratio:.4f}" if rep.ratio is not None else ""
        rows.append(
            f"{rep.r},64,{rep.lambda_q},{bound},"
            f"{rep.t_r:.6f},{t_bf},{ratio},{rep.p_r},{max(rep.p_f)},"
            f"{rep.axpy_count},{rep.partial_inverse_count},{rep.cache_hits}"
        )
    return rows
