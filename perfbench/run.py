"""Layer-by-layer benchmark of mfph: one workload per invocation.

    python3 perfbench/run.py --workload rips-shared --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; mfph is imported from src/.
The seed fixes every input.  Set-up (generate, build and save the
complexes) is repeated a few times per workload.  Then rounds run until
the routes have been timed for --seconds.  Round i takes complex i mod k
and times the modular route (`reduce_multifield` over the first r
primes), the brute-force route (r `reduce_single_field` calls) and the
torsion route (`mfph torsion ... --annotate --csv` through
`mfph.cli.main`), each on a complex whose boundary columns are cold.
A route metric is the sum over complexes of the median over each
complex's rounds.  Outputs are checked outside the timed spans (see
checks.py).

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced rounds, prints the per-layer metrics and an account of each
route's traced self times against its untraced time, and writes every
span to perfbench/.work/<workload>-<seed>/trace.json; the filtration
files and CSV output written there are removed at the end.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import os

# one thread in numpy's BLAS pool: the benchmark is a single-threaded process
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import mfph
    import mfph.cli
    import mfph.complexes
    import mfph.crt
    import mfph.multifield
    import mfph.single_field
except ImportError as exc:
    sys.exit(f"perfbench: cannot import mfph from {ROOT / 'src'}: {exc}")
if Path(mfph.__file__).resolve().parent != ROOT / "src" / "mfph":
    sys.exit(f"perfbench: mfph was imported from {mfph.__file__}, not from {ROOT / 'src'}")

import numpy as np  # noqa: E402

import checks  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, build, derive  # noqa: E402

ROUTES = {"route.modular": "modular_s", "route.bruteforce": "bruteforce_s", "route.torsion": "torsion_s"}
# the short routes run this many times per round, and a round reports
# their median, which keeps a few seconds of host slowdown from setting
# a complex's figure
PASSES = 3

# per-layer time metric -> (route whose subtree it is read from, span names)
LAYER_TIMES = {
    "multifield.reduce_s": ("route.modular", ("multifield.reduce_multifield",)),
    "crt.partial_inverse_s": ("route.modular", ("crt.partial_inverse",)),
    "single_field.reduce_s": ("route.bruteforce", ("single_field.reduce_single_field",)),
    "complexes.load_s": ("route.torsion", ("complexes.load_filtration",)),
    "multifield.project_s": ("route.torsion", ("multifield.project",)),
    "torsion.betti_s": ("route.torsion", ("torsion.betti_table",)),
    "torsion.infer_s": ("route.torsion", ("torsion.infer_torsion",)),
    "torsion.annotate_s": ("route.torsion", ("torsion.annotate_diagram",)),
    "torsion.report_s": ("route.torsion", ("torsion.torsion_report", "torsion.torsion_csv_rows")),
    "cli.torsion_self_s": ("route.torsion", ("cli.main",)),
}
COUNTS = (
    "generators.simplices",
    "crt.partial_inverses",
    "crt.cache_hits",
    "multifield.axpys",
    "multifield.p_r",
    "multifield.partial_entries",
    "single_field.ops",
    "single_field.p_f_max",
    "bench.disagree_indices",
)
SETUP_LAYERS = {
    "generators.generate_s": (
        "generators.sample_shape",
        "generators.rips_filtration",
        "generators.linial_meshulam",
    ),
    "complexes.save_s": ("complexes.save_filtration",),
}


def env() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


class Run:
    """One workload at one seed: inputs, timed rounds and their checks."""

    def __init__(self, workload, seed: int, traced: bool):
        self.w = workload
        self.seed = seed
        self.traced = traced
        self.tracer = Tracer(f"{workload.name}/seed={seed}")
        self.basis = mfph.crt.PrimeBasis.first(workload.r)
        self.workdir = HERE / ".work" / f"{workload.name}-{seed}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.setups: list[tuple[int, bool]] = []  # (span, traced)
        self.rounds: list[tuple[int, int, bool]] = []  # (span, complex, traced)
        self.first: list[dict | None] = []  # per complex, outputs of its first round
        self.counts = dict.fromkeys(COUNTS, 0)  # summed over complexes, first rounds
        self.check_s = 0.0

    def _patched(self, on: bool):
        return self.tracer.patched() if on else contextlib.nullcontext()

    def setup(self) -> None:
        recipes = derive(self.w, self.seed)
        for rep in range(self.w.setup_reps):
            traced = self.traced and rep % 2 == 1
            gc.collect()
            with self._patched(traced), self.tracer.span("bench.setup") as root:
                self.made = build(self.w, recipes, self.workdir)
            self.setups.append((root, traced))
            self.attempted += len(self.made)
        self.items = [list(zip(cx.simplices, cx.values)) for cx, _ in self.made]
        self.facts = [
            {
                "counts": checks.simplex_counts(cx.simplices),
                "components": checks.components(cx.simplices),
                "max_dim": cx.max_dim,
            }
            for cx, _ in self.made
        ]

    def measure(self, seconds: float) -> None:
        """Rounds until the routes have been timed for `seconds`.

        Round i runs every route on complex i mod k, so a run ends at most
        one complex's routes past `seconds`.  Every complex gets a round;
        in a traced run, untraced sweeps over the k complexes alternate
        with traced ones, and each complex gets one of each.
        """
        # the benchmark's own objects stay out of the collector's way, so
        # a route's garbage collections see about the heap a CLI run has
        gc.collect()
        gc.freeze()
        k = len(self.made)
        minimum = 2 * k if self.traced else k
        measured = 0.0
        while measured < seconds or len(self.rounds) < minimum:
            number = len(self.rounds)
            i = number % k
            traced = self.traced and (number // k) % 2 == 1
            with self.tracer.span("bench.round") as root:
                with self._patched(traced):
                    out = self._complex_round(i, self.made[i][1], traced)
                with self.tracer.span("bench.check") as check:
                    self._check(i, out, number)
            if number < k:
                self.check_s += self.tracer.duration(check)
            self.rounds.append((root, i, traced))
            measured += sum(self.tracer.duration(idx) for spans in self._route_spans(root).values() for idx in spans)

    def _complex_round(self, i: int, path: Path, traced: bool) -> dict:
        tr = self.tracer
        items = self.items[i]
        full = len(self.first) <= i  # a first round keeps what the full checks need
        if traced:
            with tr.span("bench.build"):
                cold = mfph.complexes.FilteredComplex(items)
            with tr.span("bench.boundary"):
                for j in range(1, len(cold) + 1):
                    cold.boundary_rows(j)
            del cold
        out: dict = {"failed": True}

        keys = set()
        for _ in range(PASSES):
            cx_m = mfph.complexes.FilteredComplex(items)
            gc.collect()
            self.attempted += 1
            try:
                with tr.span("route.modular"):
                    mf, stats = mfph.multifield.reduce_multifield(cx_m, self.basis)
            except Exception as exc:  # counted as failed; the run goes on
                return self._fail(out, f"reduce_multifield: {exc!r}")
            keys.add(hash((mf.triples, mf.essentials)))
        out["mf_key"] = keys.pop() if len(keys) == 1 else None
        out["mf"] = mf if full else None
        out["stats"] = stats
        del cx_m

        cx_s = mfph.complexes.FilteredComplex(items)
        gc.collect()
        out.update(summaries=[], digests=[], ops=[], sizes=[], points=set())
        for q in self.basis.primes:
            self.attempted += 1
            try:
                with tr.span("route.bruteforce"):
                    diagram, ops = mfph.single_field.reduce_single_field(cx_s, q)
            except Exception as exc:
                return self._fail(out, f"reduce_single_field(q={q}): {exc!r}")
            out["digests"].append(checks.digest(diagram))
            out["ops"].append(ops)
            out["sizes"].append(len(diagram))
            if full:
                out["summaries"].append(checks.summarize(diagram, self.facts[i]["max_dim"]))
                out["points"] |= checks.diagram_points(diagram, cx_s.simplices, cx_s.values)
                out.setdefault("sample", diagram)
        del cx_s, diagram

        csv_path = self.workdir / f"{path.stem}.torsion.csv"
        argv = ["torsion", "--input", str(path), "-r", str(self.w.r), "--annotate", "--csv", str(csv_path)]
        outputs = set()
        for _ in range(PASSES):
            stdout, stderr = io.StringIO(), io.StringIO()
            gc.collect()
            self.attempted += 1
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                with tr.span("route.torsion"):
                    code = mfph.cli.main(argv)
            if code != 0:
                return self._fail(out, f"mfph {' '.join(argv)} exited {code}: {stderr.getvalue().strip()}")
            outputs.add((stdout.getvalue(), csv_path.read_text(encoding="utf-8")))
        out["cli"] = outputs.pop() if len(outputs) == 1 else None
        out["failed"] = False
        return out

    def _fail(self, out: dict, message: str) -> dict:
        self.failed += 1
        self.errors.append(f"failed: {message}")
        return out

    def _check(self, i: int, out: dict, number: int) -> None:
        if not out["failed"] and (out["mf_key"] is None or out["cli"] is None):
            self.errors.append(f"complex {i}: passes of round {number} gave different outputs")
            out["failed"] = True
        if number < len(self.made):
            self.first.append(None if out["failed"] else out)
            if not out["failed"]:
                self.errors.extend(f"complex {i}: {e}" for e in self._full_check(i, out))
                out.pop("mf")
                out.pop("sample")
            return
        ref = self.first[i]
        if out["failed"] or ref is None:
            return
        keys = ("mf_key", "digests", "ops", "cli")
        if any(out[k] != ref[k] for k in keys):
            self.errors.append(f"complex {i}: round {number} outputs differ from its first round")

    def _full_check(self, i: int, out: dict) -> list[str]:
        facts = self.facts[i]
        cx, _ = self.made[i]
        mf, summaries = out["mf"], out["summaries"]
        errs = []
        for s, summ in enumerate(summaries, start=1):
            if checks.digest(mf.project(s)) != summ.digest:
                errs.append(f"projection mod {summ.prime} differs from the single-field run")
            errs += checks.check_field(summ, facts["counts"], facts["components"])
            if self.w.kind == "ym":
                errs += checks.check_full_2_skeleton(summ, self.w.n)
        if self.w.kind == "ym":
            rank_errs, disagree = checks.check_beta1_by_rank(summaries, cx.simplices, {})
            errs += rank_errs
            if disagree == 0:
                errs.append("no index where fields disagree on beta_1, though the input has torsion")
            self.counts["bench.disagree_indices"] += disagree
        stdout, csv_text = out["cli"]
        errs += checks.check_uct(summaries, len(cx), csv_text)
        if "WARNING" in stdout:
            errs.append("mfph torsion reports an inconsistent UCT profile")
        listed = sum(1 for line in stdout.splitlines() if line.startswith("  d="))
        if listed != len(out["points"]):
            errs.append(f"--annotate lists {listed} points, the fields have {len(out['points'])}")
        errs += checks.self_test(out["sample"], facts["max_dim"], facts["counts"], facts["components"])

        stats, q_all = out["stats"], self.basis.product
        partial = sum(1 for *_, m in mf.triples if m != q_all) + sum(1 for _, m in mf.essentials if m != q_all)
        for name, value in (
            ("generators.simplices", len(cx)),
            ("crt.partial_inverses", stats.partial_inverse_count),
            ("crt.cache_hits", stats.cache_hits),
            ("multifield.axpys", stats.axpy_count),
            ("multifield.p_r", mf.p_r),
            ("multifield.partial_entries", partial),
            ("single_field.ops", sum(out["ops"])),
            ("single_field.p_f_max", max(out["sizes"])),
        ):
            self.counts[name] += value
        return errs

    # -- metrics ---------------------------------------------------------

    def _route_spans(self, root: int) -> dict[str, list[int]]:
        spans: dict[str, list[int]] = {route: [] for route in ROUTES}
        for idx in self.tracer.subtree(root):
            name = self.tracer.spans[idx][0]
            if name in spans:
                spans[name].append(idx)
        return spans

    @staticmethod
    def _combine(route: str, values) -> float:
        """A round's value: the r brute-force calls add up, passes give a median."""
        return sum(values) if route == "route.bruteforce" else median(values)

    def _route_totals(self, root: int) -> dict[str, float]:
        return {
            route: self._combine(route, [self.tracer.duration(idx) for idx in spans])
            for route, spans in self._route_spans(root).items()
        }

    def _route_layers(self, root: int) -> dict[str, dict[str, float]]:
        """Self time per span name, per route, combined over a round."""
        layers: dict[str, dict[str, float]] = {}
        for route, spans in self._route_spans(root).items():
            per_span = [self.tracer.self_times(idx) for idx in spans]
            names = {name for st in per_span for name in st}
            layers[route] = {name: self._combine(route, [st.get(name, 0.0) for st in per_span]) for name in names}
        return layers

    def _over_complexes(self, traced: bool, value) -> float:
        """Sum over complexes of the median of value(round) over their rounds."""
        visits: dict[int, list[float]] = {}
        for root, i, t in self.rounds:
            if t == traced:
                visits.setdefault(i, []).append(value(root))
        return sum(median(v) for v in visits.values())

    def end_to_end(self) -> dict[str, float]:
        out = {"setup_s": median(self.tracer.duration(root) for root, traced in self.setups if not traced)}
        for route, metric in ROUTES.items():
            out[metric] = self._over_complexes(False, lambda root: self._route_totals(root)[route])
        out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return out

    def per_layer(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics from the traced rounds, and the route accounts."""
        tr = self.tracer
        e2e = self.end_to_end()
        layers = {root: self._route_layers(root) for root, _, t in self.rounds if t}

        def layer_time(route: str, names) -> float:
            return self._over_complexes(True, lambda root: sum(layers[root][route].get(n, 0.0) for n in names))

        def span_time(name: str) -> float:
            return self._over_complexes(
                True, lambda root: sum(tr.duration(idx) for idx in tr.subtree(root) if tr.spans[idx][0] == name)
            )

        out: dict[str, float] = {metric: layer_time(route, names) for metric, (route, names) in LAYER_TIMES.items()}
        out["complexes.build_s"] = span_time("bench.build")
        out["complexes.boundary_s"] = span_time("bench.boundary")
        setup_layers = [tr.self_times(root) for root, t in self.setups if t]
        for metric, names in SETUP_LAYERS.items():
            out[metric] = median(sum(st.get(n, 0.0) for n in names) for st in setup_layers)

        out.update({k: v for k, v in self.counts.items() if k != "bench.disagree_indices"})
        out["crt.lambda_q_words"] = mfph.crt.word_length(self.basis.product)
        out["multifield.axpys_per_s"] = out["multifield.axpys"] / (
            out["multifield.reduce_s"] + out["crt.partial_inverse_s"]
        )
        out["bench.R_r"] = e2e["bruteforce_s"] / e2e["modular_s"]
        out["bench.check_s"] = self.check_s

        # each route's traced self times, against its untraced time
        lines = []
        traced_total = untraced_total = 0.0
        for route, metric in ROUTES.items():
            names = {name for per_route in layers.values() for name in per_route[route]}
            parts = {name: layer_time(route, (name,)) for name in names}
            total = self._over_complexes(True, lambda root: self._route_totals(root)[route])
            traced_total += total
            untraced_total += e2e[metric]
            lines.append(
                f"{metric}: untraced {e2e[metric]:.4f} s; traced {total:.4f} s"
                f" ({100 * (total / e2e[metric] - 1):+.1f} %) = "
                + " + ".join(f"{name} {t:.4f}" for name, t in sorted(parts.items(), key=lambda kv: -kv[1]))
            )
        setup_traced = median(tr.duration(root) for root, t in self.setups if t)
        names = {name for st in setup_layers for name in st}
        lines.append(
            f"setup_s: untraced {e2e['setup_s']:.4f} s; traced {setup_traced:.4f} s"
            f" ({100 * (setup_traced / e2e['setup_s'] - 1):+.1f} %) = "
            + " + ".join(f"{name} {median(st.get(name, 0.0) for st in setup_layers):.4f}" for name in sorted(names))
        )
        out["bench.trace_overhead_pct"] = 100 * (traced_total / untraced_total - 1)
        return out, lines


UNITS = {
    "setup_s": "s",
    "modular_s": "s",
    "bruteforce_s": "s",
    "torsion_s": "s",
    "peak_rss_mib": "MiB",
    "generators.simplices": "count",
    "crt.lambda_q_words": "count",
    "crt.partial_inverses": "count",
    "crt.cache_hits": "count",
    "multifield.axpys": "count",
    "multifield.axpys_per_s": "1/s",
    "multifield.p_r": "count",
    "multifield.partial_entries": "count",
    "single_field.ops": "count",
    "single_field.p_f_max": "count",
    "bench.R_r": "ratio",
    "bench.trace_overhead_pct": "%",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run = Run(WORKLOADS[args.workload], args.seed, traced=bool(args.trace))
    info = env()
    print(f"# {args.workload} seed={args.seed} " + " ".join(f"{k}={v}" for k, v in info.items()))
    run.setup()
    run.measure(args.seconds)

    if args.trace:
        metrics, account = run.per_layer()
        for line in account:
            print(f"# {line}")
        run.tracer.write(
            run.workdir / "trace.json",
            {"env": info, "workload": args.workload, "seed": args.seed, "account": account, "metrics": metrics},
        )
    else:
        metrics = run.end_to_end()
        # the work done, so that runs of different speed can be told apart
        print("# work " + " ".join(f"{k}={v}" for k, v in sorted(run.counts.items())))
    for name, value in metrics.items():
        print(f"# {name} = {value} {UNITS.get(name, 's')}")
    # the inputs follow from the seed; only the trace is kept
    for path in [*run.workdir.glob("*.flt"), *run.workdir.glob("*.csv")]:
        path.unlink()
    for err in run.errors:
        print(f"perfbench: {err}", file=sys.stderr)
    result = {
        "correct": not [e for e in run.errors if not e.startswith("failed: ")],
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": UNITS.get(name, "s")} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
