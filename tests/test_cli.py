"""End-to-end CLI checks: every verb, file outputs, exit codes."""

import hashlib
import re
import shlex
from pathlib import Path

import pytest

import mfph.cli as cli
import mfph.multifield
from mfph.crt import InconsistencyError, PrimeBasis
from mfph.complexes import FilteredComplex, load_filtration, save_filtration
from mfph.generators import (
    distance_matrix,
    minimal_projective_plane,
    rips_filtration,
    sample_shape,
    save_points,
)
from mfph.multifield import reduce_multifield, save_multifield_diagram
from mfph.single_field import reduce_single_field
from mfph.torsion import annotate_diagram, betti_table, torsion_window

from oracles import filled_triangle, moore_suspension_wedge


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.flt"
    save_filtration(filled_triangle(), path)
    return str(path)


@pytest.fixture
def rp2_file(tmp_path):
    path = tmp_path / "rp2.flt"
    save_filtration(minimal_projective_plane(), path)
    return str(path)


def test_no_command_shows_help(capsys):
    assert cli.main([]) == 1
    assert "rips" in capsys.readouterr().out


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "Persistent homology" in capsys.readouterr().out


def test_unknown_command_is_usage_error(capsys):
    assert cli.main(["frobnicate"]) == 1


def test_gen_ym(tmp_path, capsys):
    out = tmp_path / "ym.flt"
    code = cli.main(
        ["gen-ym", "--n", "8", "--m", "10", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    assert "wrote 46 simplices" in capsys.readouterr().out
    text = out.read_text()
    assert text.startswith("# linial-meshulam n=8 m=10 seed=3 prng=mt19937\n")
    assert len(load_filtration(out)) == 46


def test_gen_flag(tmp_path, capsys):
    out = tmp_path / "flag.flt"
    code = cli.main(
        [
            "gen-flag", "--n", "7", "--m-edges", "12", "--max-dim", "3",
            "--seed", "9", "--out", str(out),
        ]
    )
    assert code == 0
    cx = load_filtration(out)
    assert sum(1 for j in range(1, len(cx) + 1) if cx.dim(j) == 1) == 12


# sha256 of the filtration files these commands write, recorded before
# the flag enumerator and the filtration writer were rewritten on arrays
PINNED_OUTPUTS = {
    "rips-shape": (
        ["rips", "--shape", "cube-uniform", "--n", "60", "--seed", "1", "--rho", "0.4", "--max-dim", "3"],
        "3c3fbffead0fb383522db47f16a5a3dd2947230214ddbaaa62ab40aa073cc0ca",
    ),
    "rips-distances": (
        ["rips", "--distances", "small.dist", "--rho", "1.5", "--max-dim", "3"],
        "1eb642a61f5a80970a57719b73386bb68331b4c217ab6554eef61ba55f025402",
    ),
    "gen-flag": (
        ["gen-flag", "--n", "30", "--m-edges", "200", "--max-dim", "3", "--seed", "7"],
        "e21899cbb3e599d8beb54e52508be2965e9baaade8c78f41a0c667159dd291d0",
    ),
    "gen-ym": (
        ["gen-ym", "--n", "12", "--m", "60", "--seed", "3"],
        "5e78329413ff97e57479ea5da5573bf77750e457680660e5ed56fb172b75e27d",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_generated_files_are_pinned(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the --distances path is written into the header
    with open("small.dist", "w", encoding="utf-8") as fh:
        # 12 points at distances in quarters, with many ties
        fh.write("# 12 points\n\n")
        for k in range(1, 12):
            fh.write(" ".join(str(((k * 7 + i * 3) % 9 + 1) / 4) for i in range(k)) + "\n")
    args, digest = PINNED_OUTPUTS[name]
    assert cli.main(args + ["--out", "out.flt"]) == 0
    assert hashlib.sha256((tmp_path / "out.flt").read_bytes()).hexdigest() == digest


def test_rips_shape_saves_points(tmp_path, capsys):
    filt = tmp_path / "cube.flt"
    pts = tmp_path / "cube.pts"
    code = cli.main(
        [
            "rips", "--shape", "cube-uniform", "--n", "12", "--seed", "1",
            "--rho", "0.8", "--max-dim", "2",
            "--save-points", str(pts), "--out", str(filt),
        ]
    )
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    assert pts.read_text().startswith("# shape=cube-uniform n=12 seed=1 prng=pcg64\n")
    data = [l for l in pts.read_text().splitlines() if not l.startswith("#")]
    assert len(data) == 12
    cx = load_filtration(filt)
    assert sum(1 for j in range(1, len(cx) + 1) if cx.dim(j) == 0) == 12


def test_rips_points_and_distances_agree(tmp_path):
    points = sample_shape("cube-uniform", 10, seed=2)
    pts_path = tmp_path / "pts.txt"
    save_points(points, pts_path)
    dm = distance_matrix(points)
    dist_path = tmp_path / "dist.txt"
    with open(dist_path, "w") as fh:
        for k in range(1, 10):
            fh.write(" ".join(repr(float(dm[k, i])) for i in range(k)) + "\n")
    out_a = tmp_path / "a.flt"
    out_b = tmp_path / "b.flt"
    base = ["--rho", "0.7", "--max-dim", "2"]
    assert cli.main(["rips", "--points", str(pts_path), *base, "--out", str(out_a)]) == 0
    assert cli.main(["rips", "--distances", str(dist_path), *base, "--out", str(out_b)]) == 0
    a = load_filtration(out_a)
    b = load_filtration(out_b)
    assert len(a) == len(b)
    for j in range(1, len(a) + 1):
        assert a.simplex(j) == b.simplex(j)
        assert a.value(j) == b.value(j)


def test_rips_shape_requires_n(tmp_path, capsys):
    code = cli.main(
        [
            "rips", "--shape", "sphere-S3", "--rho", "0.5", "--max-dim", "1",
            "--out", str(tmp_path / "x.flt"),
        ]
    )
    assert code == 2
    assert "requires --n" in capsys.readouterr().err


def test_rips_requires_a_source(tmp_path):
    code = cli.main(
        ["rips", "--rho", "0.5", "--max-dim", "1", "--out", str(tmp_path / "x.flt")]
    )
    assert code == 1


def test_reduce_modular_writes_diagram(triangle_file, tmp_path, capsys):
    out = tmp_path / "tri.mdgm"
    code = cli.main(["reduce", "--input", triangle_file, "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "over 2 fields: 3 triples, 1 essentials (P_r = 4)" in stdout
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4
    assert all(line.endswith("primes=2,3") for line in lines)


def test_reduce_both_verifies(triangle_file, capsys):
    code = cli.main(
        ["reduce", "--input", triangle_file, "--primes", "2,3,5", "--mode", "both"]
    )
    assert code == 0
    assert "verified: all 3 projections" in capsys.readouterr().out


def test_reduce_bruteforce_writes_per_field(triangle_file, tmp_path, capsys):
    out = tmp_path / "tri.dgm"
    code = cli.main(
        [
            "reduce", "--input", triangle_file, "-r", "2",
            "--mode", "bruteforce", "--out", str(out),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "q=2: 3 finite pairs, 1 essential" in stdout
    assert (tmp_path / "tri.dgm.q2").exists()
    assert (tmp_path / "tri.dgm.q3").exists()


def test_torsion_report(rp2_file, tmp_path, capsys):
    csv = tmp_path / "torsion.csv"
    code = cli.main(
        [
            "torsion", "--input", rp2_file, "--primes", "2,3,5",
            "--annotate", "--csv", str(csv),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "H_1 = Z/2^*Z" in stdout
    assert "H_2 = 0" in stdout
    assert "superimposed diagram points:" in stdout
    assert "d=1 birth=0 death=inf primes=2\n" in stdout
    assert "d=0 birth=0 death=inf primes=2,3,5\n" in stdout
    rows = csv.read_text().strip().splitlines()
    assert rows[0] == "t,d,beta_Z,q,t_d_q"
    assert "31,1,0,2,1" in rows


def test_annotate_prints_values_in_full(tmp_path, capsys):
    # 1.0000001 and 1.0000002 agree to six significant digits, so a
    # six-digit format would print the two essential points as one line
    path = tmp_path / "close.flt"
    path.write_text("0 0 0\n0 1 1.0000001\n0 2 1.0000002\n1 0 1 1234567.25\n")
    assert cli.main(["torsion", "--input", str(path), "-r", "2", "--annotate"]) == 0
    stdout = capsys.readouterr().out
    points = stdout.split("superimposed diagram points:\n")[1].splitlines()
    assert points == [
        "  d=0 birth=0 death=inf primes=2,3",
        "  d=0 birth=1.0000001 death=1234567.25 primes=2,3",
        "  d=0 birth=1.0000002 death=inf primes=2,3",
    ]


def test_torsion_reference_warning(tmp_path, capsys):
    # H_1 = Z/2 and H_2 = Z/3: neither field of {2, 3} is torsion-free
    path = tmp_path / "wedge.flt"
    save_filtration(moore_suspension_wedge(), path)
    code = cli.main(["torsion", "--input", str(path), "--primes", "2,3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "(reference prime 3)" in out
    assert "WARNING" in out and "offending entries: (d=2, q=2)" in out
    # the reference is read off the Betti table; there is no option for it
    assert cli.main(["torsion", "--input", str(path), "--reference", "1"]) == 1


def test_bench_sweep_csv(triangle_file, tmp_path, capsys):
    csv = tmp_path / "bench.csv"
    code = cli.main(
        [
            "bench", "--input", triangle_file, "-r", "1,2",
            "--repeats", "1", "--csv", str(csv),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.count("T_r") == 2
    rows = csv.read_text().strip().splitlines()
    assert rows[0].startswith("r,word_size,")
    assert len(rows) == 3
    assert rows[1].startswith("1,64,") and rows[2].startswith("2,64,")


def test_bench_word_size_is_64(triangle_file, tmp_path, capsys):
    csv = tmp_path / "bench.csv"
    argv = ["bench", "--input", triangle_file, "-r", "1,3", "--repeats", "1"]
    assert cli.main(argv + ["--csv", str(csv)]) == 0
    assert capsys.readouterr().out.count(" at w=64\n") == 2
    header, *rows = [line.split(",") for line in csv.read_text().splitlines()]
    column = header.index("word_size")
    assert column == 1 and [row[column] for row in rows] == ["64", "64"]
    # the word size is not an option
    assert cli.main(argv + ["--word-size", "32"]) == 1
    assert "unrecognized arguments: --word-size 32" in capsys.readouterr().err


def _readme_commands():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```sh\n(.*?)^```", readme.read_text(encoding="utf-8"), re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("mfph ")]


def test_readme_commands_parse():
    # a flag dropped from the CLI but left in the README fails here
    commands = _readme_commands()
    assert len(commands) == 11
    parser = cli.build_parser()
    for argv in commands:
        assert parser.parse_args(argv).func is not None, argv


def test_window_runs(tmp_path, capsys):
    csv = tmp_path / "window.csv"
    code = cli.main(
        [
            "window", "--n", "8", "--m-max", "30", "--trials", "2",
            "--c-star", "1.0", "--csv", str(csv),
        ]
    )
    assert code == 0
    assert "trials with torsion:" in capsys.readouterr().out
    assert csv.read_text().startswith("n,m_max,r,trials,c_star,edge,")


def test_window_requires_c_star(capsys):
    assert cli.main(["window", "--n", "8"]) == 1
    assert "c-star" in capsys.readouterr().err


@pytest.mark.parametrize("c_star", ["nan", "inf", "-inf"])
def test_window_rejects_non_finite_c_star(c_star, tmp_path, capsys):
    csv = tmp_path / "window.csv"
    code = cli.main(
        ["window", "--n", "8", "--trials", "2", f"--c-star={c_star}", "--csv", str(csv)]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "c_star" in captured.err
    assert captured.out == "" and not csv.exists()


@pytest.mark.parametrize("c_star, code", [("-1e-3", 0), ("-2.5E+1", 0), ("-inf", 2)])
def test_window_reads_a_negative_c_star_given_as_its_own_word(c_star, code, capsys):
    # argparse alone takes "-1e-3" and "-inf" for options and exits 1
    assert cli.main(["window", "--n", "6", "--trials", "1", "--c-star", c_star]) == code
    captured = capsys.readouterr()
    assert f"c_star = {float(c_star)}" in captured.out if code == 0 else "c_star" in captured.err


NEGATIVE_SEEDS = {
    "rips": ["rips", "--shape", "cube-uniform", "--n", "5", "--rho", "1", "--max-dim", "2", "--seed", "-1"],
    "gen-ym": ["gen-ym", "--n", "8", "--m", "10", "--seed", "-7"],
    "gen-flag": ["gen-flag", "--n", "7", "--m-edges", "12", "--max-dim", "2", "--seed", "-7"],
    "window": ["window", "--n", "6", "--trials", "1", "--c-star", "1", "--seed", "-5"],
}


@pytest.mark.parametrize("verb", sorted(NEGATIVE_SEEDS))
def test_negative_seed_exits_2_naming_the_option(verb, tmp_path, monkeypatch, capsys):
    # numpy refuses a negative seed; stdlib Random would use |seed|
    monkeypatch.chdir(tmp_path)
    argv = NEGATIVE_SEEDS[verb] + (["--out", "out.flt"] if verb != "window" else ["--csv", "out.csv"])
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert f"--seed must be >= 0, got {argv[argv.index('--seed') + 1]}" in captured.err
    assert captured.out == "" and list(tmp_path.iterdir()) == []


def test_missing_input_is_validation_error(tmp_path, capsys):
    code = cli.main(["reduce", "--input", str(tmp_path / "nope.flt")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_composite_prime_rejected(triangle_file, capsys):
    code = cli.main(["reduce", "--input", triangle_file, "--primes", "2,4"])
    assert code == 2
    err = capsys.readouterr().err
    assert "4" in err


def test_malformed_prime_list(triangle_file):
    assert cli.main(["reduce", "--input", triangle_file, "--primes", "2,x"]) == 2


def test_r_zero_rejected(triangle_file):
    assert cli.main(["reduce", "--input", triangle_file, "-r", "0"]) == 2
    assert cli.main(["bench", "--input", triangle_file, "-r", "1,0"]) == 2


def test_primes_and_r_are_exclusive(triangle_file):
    code = cli.main(
        ["reduce", "--input", triangle_file, "--primes", "2,3", "-r", "2"]
    )
    assert code == 1


def test_empty_filtration_is_validation_error(tmp_path, capsys):
    path = tmp_path / "empty.flt"
    path.write_text("# nothing here\n")
    code = cli.main(["reduce", "--input", str(path)])
    assert code == 2
    assert "empty filtration" in capsys.readouterr().err


def test_corrupt_filtration_line(tmp_path, capsys):
    path = tmp_path / "bad.flt"
    path.write_text("0 1 0\n1 1 2\n")  # second line is missing its value
    code = cli.main(["reduce", "--input", str(path)])
    assert code == 2
    assert "bad.flt:2" in capsys.readouterr().err


def test_projection_mismatch_exits_3(triangle_file, monkeypatch, capsys):
    def explode(mf, singles):
        raise InconsistencyError("forced for the test")

    monkeypatch.setattr(cli, "check_projections", explode)
    code = cli.main(["reduce", "--input", triangle_file, "--mode", "both"])
    assert code == 3
    assert "internal inconsistency" in capsys.readouterr().err


def test_broken_invariant_exits_3(triangle_file, monkeypatch, capsys):
    def wrong_mask(basis, x, mask):
        return 1, 1

    monkeypatch.setattr(mfph.multifield, "partial_inverse", wrong_mask)
    code = cli.main(["reduce", "--input", triangle_file])
    assert code == 3
    assert "internal inconsistency" in capsys.readouterr().err


def test_axpy_that_cancels_nothing_exits_3(rp2_file, monkeypatch, capsys):
    monkeypatch.setattr(mfph.multifield, "column_axpy", lambda target, alpha, source, q_all: target)
    code = cli.main(["reduce", "--input", rp2_file])
    assert code == 3
    assert "internal inconsistency" in capsys.readouterr().err


def test_diagram_routes_read_no_per_index_tuples(tmp_path, monkeypatch, capsys):
    # from file to every diagram, table and window the complex is read
    # as arrays only: its per-index tuples are never built
    cx = rips_filtration(sample_shape("cube-uniform", 40, seed=4), rho=0.45, max_dim=3)
    path = tmp_path / "rips.flt"
    save_filtration(cx, path)
    for name in ("simplices", "values", "dims"):

        def refuse(self, name=name):
            raise AssertionError(f"FilteredComplex.{name} was read")

        monkeypatch.setattr(FilteredComplex, name, property(refuse))
    mf, _ = reduce_multifield(cx, PrimeBasis.first(10))
    reduce_single_field(cx, 2)
    betti_table(mf)
    annotate_diagram(mf)
    save_multifield_diagram(mf, tmp_path / "rips.mdgm")
    assert torsion_window(12, None, 3, 2, 2.754, seed=1).trials == 2
    for argv in (
        ["reduce", "--input", str(path), "-r", "3", "--out", str(tmp_path / "r.mdgm")],
        ["reduce", "--input", str(path), "-r", "3", "--mode", "both"],
        ["torsion", "--input", str(path), "-r", "10", "--annotate", "--csv", str(tmp_path / "t.csv")],
        ["window", "--n", "12", "--trials", "2", "-r", "3", "--c-star", "2.754"],
    ):
        assert cli.main(argv) == 0, argv
    out = capsys.readouterr().out
    assert "verified: all 3 projections" in out and "superimposed diagram points:" in out


def test_unsorted_primes_verify(rp2_file, capsys):
    code = cli.main(["reduce", "--input", rp2_file, "--primes", "5,2,3", "--mode", "both"])
    assert code == 0
    assert "verified: all 3 projections" in capsys.readouterr().out


# (file name, file text, command before the file, arguments after it, what
# stderr must name); a fault on one line is named as file:line
MALFORMED = [
    ("nan.flt", "0 0 0\n0 1 0\n1 0 1 nan\n", ["reduce", "--input"], [], "nan.flt:3"),
    ("inf.flt", "0 0 0\n0 1 0\n1 0 1 inf\n", ["reduce", "--input"], [], "inf.flt:3"),
    ("negdim.flt", "0 0 0\n-1 0.5\n", ["reduce", "--input"], [], "negdim.flt:2"),
    ("short.flt", "0 0 0\n0 1 0\n1 0 1\n", ["reduce", "--input"], [], "short.flt:3"),
    ("vertex.flt", "0 0 0\n0 x 0\n", ["reduce", "--input"], [], "vertex.flt:2"),
    # a duplicate is named at its later line, a late face at the face's line
    ("dup.flt", "0 0 0\n0 0 1\n", ["torsion", "--input"], [], "dup.flt:2: duplicate"),
    ("face.flt", "0 0 0\n1 0 1 1\n", ["reduce", "--input"], [], "face.flt:2: simplex"),
    (
        "late.flt",
        "0 0 0\n1 0 1 0.5\n0 1 0.9\n",
        ["reduce", "--input"],
        [],
        "late.flt:3: face (1,) enters after its coface (0, 1)",
    ),
    (
        "gap.flt",
        "0 0 0\n0 1 0\n0 2 0\n2 0 1 2 1\n",
        ["reduce", "--input"],
        [],
        "gap.flt:4: simplex (0, 1, 2) is missing its face (1, 2)",
    ),
    ("bigid.flt", "0 9223372036854775808 0\n", ["reduce", "--input"], [], "bigid.flt:1: vertex id"),
    ("repeat.flt", "1 3 3 0.5\n", ["reduce", "--input"], [], "repeat.flt:1: repeated vertex"),
    # of two bad lines the first in the file is named, though the second
    # one's simplex comes first in filtration order
    (
        "twobad.flt",
        "0 0 0\n0 1 0\n1 7 7 2\n1 -1 0 0.5\n",
        ["reduce", "--input"],
        [],
        "twobad.flt:3: repeated vertex in simplex (7, 7)",
    ),
    ("empty.flt", "", ["reduce", "--input"], [], "empty.flt: empty"),
    ("nan.pts", "0 0\n1 nan\n", ["rips", "--points"], ["--rho", "2"], "nan.pts:2"),
    ("row.dist", "1\n1 2 3\n", ["rips", "--distances"], ["--rho", "2"], "row.dist:2"),
    ("inf.dist", "1\n1 inf\n", ["rips", "--distances"], ["--rho", "2"], "inf.dist:2"),
    ("neg.dist", "-1\n", ["rips", "--distances"], ["--rho", "2"], "neg.dist:1"),
    ("ok.pts", "0 0\n1 0\n", ["rips", "--points"], ["--rho", "nan"], "rho"),
    ("negrho.pts", "0 0\n1 0\n", ["rips", "--points"], ["--rho", "-1e-3"], "rho"),
    ("infrho.pts", "0 0\n1 0\n", ["rips", "--points"], ["--rho", "-inf"], "rho"),
    # a byte that is not UTF-8 fails its field, named by file and line;
    # in a comment line it is skipped with the line
    ("byte.flt", b"0 0 0\n0 1 0\n1 0 \xff1 1\n", ["reduce", "--input"], [], "byte.flt:3: bad simplex"),
    ("comment.flt", b"# caf\xe9\n0 0 0\n0 0 1\n", ["torsion", "--input"], [], "comment.flt:3: duplicate"),
    ("byte.pts", b"0 0\n1 \xff\n", ["rips", "--points"], ["--rho", "2"], "byte.pts:2: bad coordinate"),
    ("byte.dist", b"1\n1 \xff\n", ["rips", "--distances"], ["--rho", "2"], "byte.dist:2: bad distance"),
    # the first line whose width differs from the first line's
    ("width.pts", "0 0\n1 0\n0 1 2\n1 1\n", ["rips", "--points"], ["--rho", "2"], "width.pts:3"),
    # an empty prime list or r sweep is an error, not the default primes
    ("noprimes-reduce.flt", "0 0 0\n", ["reduce", "--input"], ["--primes", ""], "empty prime list"),
    ("noprimes-torsion.flt", "0 0 0\n", ["torsion", "--input"], ["--primes", ""], "empty prime list"),
    ("noprimes-bench.flt", "0 0 0\n", ["bench", "--input"], ["--primes", ""], "empty prime list"),
    ("nor-bench.flt", "0 0 0\n", ["bench", "--input"], ["-r", ""], "bad r sweep ''"),
    ("xr-bench.flt", "0 0 0\n", ["bench", "--input"], ["-r", "1,x"], "bad r sweep '1,x'"),
    # every verb resolves -r the same way
    ("r0-reduce.flt", "0 0 0\n", ["reduce", "--input"], ["-r", "0"], "r must be >= 1"),
    ("r0-bench.flt", "0 0 0\n", ["bench", "--input"], ["-r", "10,0"], "r must be >= 1"),
    # torsion's range errors name the option
    ("dmax.flt", "0 0 0\n", ["torsion", "--input"], ["--d-max", "-1"], "--d-max must be >= 0, got -1"),
    ("atneg.flt", "0 0 0\n", ["torsion", "--input"], ["--at", "-1"], "--at must be in [0, 1], got -1"),
    ("atpast.flt", "0 0 0\n", ["torsion", "--input"], ["--at", "2"], "--at must be in [0, 1], got 2"),
    # every mode checks the prime list as a whole before it reduces
    ("twice-bruteforce.flt", "0 0 0\n", ["reduce", "--input"], ["--primes", "2,2", "--mode", "bruteforce"], "distinct"),
    ("one-bruteforce.flt", "0 0 0\n", ["reduce", "--input"], ["--primes", "3,1", "--mode", "bruteforce"], "1 is not prime"),
    # a points file whose name holds a line break: written into the
    # header, it would end the comment and add a simplex to the file
    ("pts\n0 99 0\n#", "0 0\n1 0\n", ["rips", "--points"], ["--rho", "2"], "holds a line break"),
    # --save-points, --n and --seed act on sampled points only: with a
    # file they would be ignored, and no points file written
    ("save.pts", "0 0\n1 0\n", ["rips", "--points"], ["--rho", "2", "--save-points", "p.pts"], "--save-points requires --shape"),
    ("save.dist", "1\n", ["rips", "--distances"], ["--rho", "2", "--save-points", "p.pts"], "--save-points requires --shape"),
    ("n.pts", "0 0\n1 0\n", ["rips", "--points"], ["--rho", "2", "--n", "5"], "--n requires --shape"),
    ("n.dist", "1\n", ["rips", "--distances"], ["--rho", "2", "--n", "3"], "--n requires --shape"),
    ("seed.pts", "0 0\n1 0\n", ["rips", "--points"], ["--rho", "2", "--seed", "5"], "--seed requires --shape"),
    ("seed.dist", "1\n", ["rips", "--distances"], ["--rho", "2", "--seed", "5"], "--seed requires --shape"),
    # a strong pseudoprime to every Miller-Rabin witness the test uses
    (
        "bigprime.flt",
        "0 0 0\n",
        ["torsion", "--input"],
        ["--primes", "2,3317044064679887385961981"],
        "primes must be below 3317044064679887385961981",
    ),
]


@pytest.mark.parametrize(
    "name, text, command, args, where", MALFORMED, ids=[case[0] for case in MALFORMED]
)
def test_malformed_input_exits_2_with_its_location(
    tmp_path, capsys, name, text, command, args, where
):
    path = tmp_path / name
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    if command[0] == "rips":
        args = [*args, "--max-dim", "2", "--out", str(tmp_path / "out.flt")]
    # an exception escaping main would fail the test with its traceback
    code = cli.main([*command, str(path), *args])
    err = capsys.readouterr().err
    assert code == 2
    assert where in err
    assert "Traceback" not in err
