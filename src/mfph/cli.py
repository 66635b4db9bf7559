"""Command-line front end.

Verbs: rips, gen-ym, gen-flag (build filtration files), reduce (persistence
over one or many prime fields), torsion (integral homology inference),
bench (modular vs. brute-force timings), window (random-complex torsion
window experiment).  Exit codes: 0 success, 1 usage error, 2 validation
or I/O error, 3 internal inconsistency (an algorithm invariant failed,
or modular and brute-force runs disagree).
"""

from __future__ import annotations

import argparse
import re
import sys

from .bench import bench_csv_rows, bench_text, check_projections, run_bench
from .complexes import format_value, load_filtration, save_filtration
from .crt import InconsistencyError, PrimeBasis, first_primes
from .generators import (
    COMPLEX_PRNG,
    POINT_PRNG,
    SHAPES,
    linial_meshulam,
    load_distance_matrix,
    load_points,
    random_flag,
    rips_filtration,
    sample_shape,
    save_points,
)
from .multifield import reduce_multifield, save_multifield_diagram
from .single_field import reduce_single_field, save_field_diagram
from .torsion import (
    annotate_diagram,
    betti_table,
    infer_torsion,
    torsion_csv_rows,
    torsion_report,
    torsion_window,
    window_csv_rows,
    window_text,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_INCONSISTENT = 3


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only plain negative decimals for values; widen
        # that to every float spelling, so `--c-star -1e-3` and
        # `--rho -inf` reach the option's own check
        self._negative_number_matcher = re.compile(
            r"-\.?\d|-(inf|infinity|nan)$", re.IGNORECASE
        )

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _add_primes_args(sub, sweep: bool = False) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument(
        "--primes", help="comma-separated distinct primes, e.g. 2,3,5"
    )
    if sweep:
        group.add_argument(
            "-r",
            dest="r",
            help="number of initial primes; a comma list (e.g. 1,10,50) sweeps",
        )
    else:
        group.add_argument(
            "-r", dest="r", type=int, help="use the first r primes"
        )


def _parse_prime_list(text: str) -> tuple[int, ...]:
    try:
        primes = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"bad prime list {text!r}") from None
    if not primes:
        raise ValueError("empty prime list")
    return primes


def _resolve_primes(args) -> list[tuple[int, ...]]:
    """[--primes], the first r primes for each r of -r, or [(2, 3)]."""
    if args.primes is not None:
        return [_parse_prime_list(args.primes)]
    if args.r is None:
        return [first_primes(2)]
    try:
        rs = [int(tok) for tok in str(args.r).split(",") if tok.strip()]
    except ValueError:
        rs = []
    if not rs:
        raise ValueError(f"bad r sweep {args.r!r}")
    return [first_primes(r) for r in rs]


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def _cmd_rips(args) -> int:
    if args.shape is not None:
        if args.n is None:
            raise ValueError("--shape requires --n")
        seed = 0 if args.seed is None else args.seed
        points = sample_shape(args.shape, args.n, seed)
        source = f"shape={args.shape} n={args.n} seed={seed} prng={POINT_PRNG}"
        if args.save_points:
            save_points(points, args.save_points, header=[source])
        cx = rips_filtration(points, args.rho, args.max_dim)
    elif args.save_points is not None:
        raise ValueError("--save-points requires --shape")
    elif args.n is not None:
        raise ValueError("--n requires --shape")
    elif args.seed is not None:
        raise ValueError("--seed requires --shape")
    elif args.points is not None:
        points = load_points(args.points)
        source = f"points={args.points}"
        cx = rips_filtration(points, args.rho, args.max_dim)
    else:
        dm = load_distance_matrix(args.distances)
        source = f"distances={args.distances}"
        cx = rips_filtration(dm, args.rho, args.max_dim, precomputed=True)
    header = [
        f"rips {source} rho={args.rho} max-dim={args.max_dim}",
        f"simplices={len(cx)}",
    ]
    save_filtration(cx, args.out, header=header)
    print(f"wrote {len(cx)} simplices (max dim {cx.max_dim}) to {args.out}")
    return EXIT_OK


def _cmd_gen_ym(args) -> int:
    cx = linial_meshulam(args.n, args.m, args.seed)
    header = [
        f"linial-meshulam n={args.n} m={args.m} seed={args.seed}"
        f" prng={COMPLEX_PRNG}"
    ]
    save_filtration(cx, args.out, header=header)
    print(f"wrote {len(cx)} simplices to {args.out}")
    return EXIT_OK


def _cmd_gen_flag(args) -> int:
    cx = random_flag(args.n, args.m_edges, args.max_dim, args.seed)
    header = [
        f"random-flag n={args.n} m-edges={args.m_edges}"
        f" max-dim={args.max_dim} seed={args.seed} prng={COMPLEX_PRNG}"
    ]
    save_filtration(cx, args.out, header=header)
    print(f"wrote {len(cx)} simplices to {args.out}")
    return EXIT_OK


def _cmd_reduce(args) -> int:
    cx = load_filtration(args.input)
    basis = PrimeBasis.of(_resolve_primes(args)[0])

    if args.mode == "bruteforce":
        for q in basis.primes:
            diagram, ops = reduce_single_field(cx, q)
            finite = sum(1 for _, death in diagram.pairs if death is not None)
            print(
                f"q={q}: {finite} finite pairs,"
                f" {len(diagram) - finite} essential, {ops} axpys"
            )
            if args.out:
                save_field_diagram(diagram, cx, f"{args.out}.q{q}")
        return EXIT_OK

    mf, stats = reduce_multifield(cx, basis)
    if args.mode == "both":
        singles = {q: reduce_single_field(cx, q)[0] for q in basis.primes}
        check_projections(mf.projections(), singles)
        print(f"verified: all {basis.r} projections match single-field runs")
    finite = int((mf.deaths > 0).sum())
    print(
        f"reduced {len(cx)} simplices over {basis.r} fields:"
        f" {finite} triples, {mf.p_r - finite} essentials"
        f" (P_r = {mf.p_r}), {stats.axpy_count} axpys,"
        f" {stats.partial_inverse_count} partial inverses"
    )
    if args.out:
        save_multifield_diagram(mf, args.out)
        print(f"wrote multi-field diagram to {args.out}")
    return EXIT_OK


def _cmd_torsion(args) -> int:
    cx = load_filtration(args.input)
    if args.at is not None and not 0 <= args.at <= len(cx):
        raise ValueError(f"--at must be in [0, {len(cx)}], got {args.at}")
    if args.d_max is not None and args.d_max < 0:
        raise ValueError(f"--d-max must be >= 0, got {args.d_max}")
    basis = PrimeBasis.of(_resolve_primes(args)[0])
    mf, _stats = reduce_multifield(cx, basis)
    profile = infer_torsion(betti_table(mf, t=args.at, d_max=args.d_max))
    print(torsion_report(profile))
    if args.annotate:
        print("superimposed diagram points:")
        points = annotate_diagram(mf)
        # points share a few prime lists and repeat values: format each once
        values = {v for _, b, d, _ in points for v in (b, d)}
        text = {v: format_value(v) for v in values}
        plists = {qs: ",".join(map(str, qs)) for qs in {p[3] for p in points}}
        sys.stdout.writelines(
            f"  d={dim} birth={text[b]} death={text[d]} primes={plists[qs]}\n"
            for dim, b, d, qs in points
        )
    if args.csv:
        _write_lines(args.csv, torsion_csv_rows(profile))
    return EXIT_OK


def _cmd_bench(args) -> int:
    cx = load_filtration(args.input)
    reports = []
    for primes in _resolve_primes(args):
        report, _mf = run_bench(cx, primes, mode=args.mode, repeats=args.repeats)
        reports.append(report)
        print(bench_text(report))
        print()
    if args.csv:
        _write_lines(args.csv, bench_csv_rows(reports))
    return EXIT_OK


def _cmd_window(args) -> int:
    res = torsion_window(
        n=args.n,
        m_max=args.m_max,
        r=args.r if args.r is not None else 2,
        trials=args.trials,
        c_star=args.c_star,
        seed=args.seed,
    )
    print(window_text(res))
    if args.csv:
        _write_lines(args.csv, window_csv_rows([res]))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(
        prog="mfph",
        description="Persistent homology over many prime fields at once.",
    )
    sub = parser.add_subparsers(dest="cmd", parser_class=_Parser)

    p = sub.add_parser("rips", help="build a Rips filtration file")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--points", help="point cloud file, one point per line")
    src.add_argument("--distances", help="lower-triangular distance matrix file")
    src.add_argument("--shape", choices=SHAPES, help="sample a built-in shape")
    p.add_argument("--n", type=int, help="number of sampled points (with --shape)")
    p.add_argument("--seed", type=int, help="sampling seed (with --shape; default 0)")
    p.add_argument("--rho", type=float, required=True, help="edge threshold")
    p.add_argument("--max-dim", type=int, required=True)
    p.add_argument("--save-points", help="also write the sampled points here")
    p.add_argument("--out", required=True, help="output filtration file")
    p.set_defaults(func=_cmd_rips)

    p = sub.add_parser("gen-ym", help="random 2-complex filtration")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True, help="number of triangles")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_ym)

    p = sub.add_parser("gen-flag", help="random flag complex filtration")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m-edges", type=int, required=True)
    p.add_argument("--max-dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_flag)

    p = sub.add_parser("reduce", help="compute persistence diagrams")
    p.add_argument("--input", required=True, help="filtration file")
    _add_primes_args(p)
    p.add_argument(
        "--mode",
        choices=("modular", "bruteforce", "both"),
        default="modular",
        help="multi-field run, per-field runs, or both with verification",
    )
    p.add_argument("--out", help="diagram output path (per-field: OUT.q<q>)")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("torsion", help="integral Betti numbers and torsion")
    p.add_argument("--input", required=True, help="filtration file")
    _add_primes_args(p)
    p.add_argument("--at", type=int, help="filtration index (default: end)")
    p.add_argument("--d-max", type=int, help="largest dimension to report")
    p.add_argument("--annotate", action="store_true", help="list diagram points with their fields")
    p.add_argument("--csv", help="write machine-readable rows here")
    p.set_defaults(func=_cmd_torsion)

    p = sub.add_parser("bench", help="time modular vs. brute-force reduction")
    p.add_argument("--input", required=True, help="filtration file")
    _add_primes_args(p, sweep=True)
    p.add_argument(
        "--mode", choices=("modular", "both"), default="both",
        help="'both' verifies agreement before reporting timings",
    )
    p.add_argument("--repeats", type=int, default=3, help="median of this many runs")
    p.add_argument("--csv", help="write one CSV row per r here")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("window", help="torsion window in random 2-complexes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m-max", type=int, help="default C(n,3)")
    p.add_argument("-r", dest="r", type=int, help="number of prime fields")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument(
        "--c-star",
        type=float,
        required=True,
        help="centering constant for n*m/C(n,3) - c_star (no default)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", help="write five-number summaries here")
    p.set_defaults(func=_cmd_window)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if getattr(args, "func", None) is None:
        parser.print_help()
        return EXIT_USAGE
    try:
        # numpy refuses a negative seed; stdlib Random would use |seed|
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except InconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
