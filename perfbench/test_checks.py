"""Self-test of the benchmark's checks: they pass correct outputs and
reject perturbed ones.  Run with `python3 -m pytest perfbench`."""

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
from mfph.crt import PrimeBasis  # noqa: E402
from mfph.generators import minimal_projective_plane, rips_filtration, sample_shape  # noqa: E402
from mfph.multifield import reduce_multifield  # noqa: E402
from mfph.single_field import reduce_single_field  # noqa: E402
from mfph.torsion import betti_table, infer_torsion, torsion_csv_rows  # noqa: E402
from workloads import WORKLOADS, build, derive  # noqa: E402


def _summaries(cx, primes):
    diagrams = [reduce_single_field(cx, q)[0] for q in primes]
    return diagrams, [checks.summarize(d, cx.max_dim) for d in diagrams]


def test_rips_outputs_pass_and_perturbed_diagrams_fail():
    cx = rips_filtration(sample_shape("cube-uniform", 40, 3), 0.35, 2)
    basis = PrimeBasis.of((2, 3, 5))
    mf, _ = reduce_multifield(cx, basis)
    diagrams, summaries = _summaries(cx, basis.primes)
    counts, comps = checks.simplex_counts(cx.simplices), checks.components(cx.simplices)
    for s, summary in enumerate(summaries, start=1):
        assert checks.digest(mf.project(s)) == summary.digest
        assert checks.check_field(summary, counts, comps) == []
    assert checks.self_test(diagrams[0], cx.max_dim, counts, comps) == []
    for kind, bad in checks.perturbed(diagrams[0]):
        summary = checks.summarize(bad, cx.max_dim)
        assert summary.digest != summaries[0].digest
        assert bool(checks.check_field(summary, counts, comps)) == (kind == "field")


def test_self_test_reports_a_blind_check(monkeypatch):
    cx = rips_filtration(sample_shape("cube-uniform", 30, 5), 0.35, 2)
    diagram = reduce_single_field(cx, 2)[0]
    monkeypatch.setattr(checks, "check_field", lambda *args: [])
    errors = checks.self_test(diagram, cx.max_dim, checks.simplex_counts(cx.simplices), 1)
    assert errors == ["a diagram perturbed for the field check passes it"]


def test_prefix_ranks_see_the_torsion_of_the_projective_plane():
    cx = minimal_projective_plane()
    nrows, cols = checks.boundary2_columns(cx.simplices)
    assert checks.prefix_ranks(nrows, cols, 2, nrows - 5)[-1] == 9
    assert checks.prefix_ranks(nrows, cols, 3, nrows - 5)[-1] == 10


def test_uct_rows_agree_with_mfph_torsion_on_the_projective_plane():
    cx = minimal_projective_plane()
    basis = PrimeBasis.of((2, 3))
    mf, _ = reduce_multifield(cx, basis)
    _, summaries = _summaries(cx, basis.primes)
    rows = torsion_csv_rows(infer_torsion(betti_table(mf)))
    assert checks.uct_csv_rows(summaries, len(cx)) == rows
    assert "31,1,0,2,1" in rows  # H_1 = Z/2 at t = 31, the whole complex


def test_beta1_rank_check_on_a_torsion_filtration(tmp_path):
    w = dataclasses.replace(WORKLOADS["ym-torsion"], complexes=1)
    [(cx, _)] = build(w, derive(w, 7), tmp_path)
    primes = (2, 3, 97)
    _, summaries = _summaries(cx, primes)
    errors, disagree = checks.check_beta1_by_rank(summaries, cx.simplices, {})
    assert errors == [] and disagree > 0
    for summary in summaries:
        assert checks.check_full_2_skeleton(summary, w.n) == []
    # a dim-1 class of the mod-2 field dying one triangle late
    deaths = list(summaries[0].b1_deaths)
    deaths[-1] += 1
    late = dataclasses.replace(summaries[0], b1_deaths=tuple(deaths))
    errors, _ = checks.check_beta1_by_rank([late] + summaries[1:], cx.simplices, {})
    assert errors and errors[0].startswith("q=2:")
