"""End-to-end CLI checks: every verb, file outputs, exit codes."""

import pytest

import mfph.cli as cli
import mfph.multifield
from mfph.bench import InconsistencyError
from mfph.complexes import load_filtration, save_filtration
from mfph.generators import (
    distance_matrix,
    minimal_projective_plane,
    sample_shape,
    save_points,
)

from oracles import filled_triangle


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


def test_reduce_no_clearing(triangle_file, capsys):
    code = cli.main(["reduce", "--input", triangle_file, "--no-clearing"])
    assert code == 0
    assert "3 triples" in capsys.readouterr().out


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
    assert "d=1 birth=0 death=inf primes=2" in stdout
    rows = csv.read_text().strip().splitlines()
    assert rows[0] == "t,d,beta_Z,q,t_d_q"
    assert "31,1,0,2,1" in rows


def test_torsion_reference_warning(rp2_file, capsys):
    code = cli.main(
        ["torsion", "--input", rp2_file, "--primes", "2,3", "--reference", "1"]
    )
    assert code == 0
    assert "WARNING" in capsys.readouterr().out


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


def test_unsorted_primes_verify(rp2_file, capsys):
    code = cli.main(["reduce", "--input", rp2_file, "--primes", "5,2,3", "--mode", "both"])
    assert code == 0
    assert "verified: all 3 projections" in capsys.readouterr().out
