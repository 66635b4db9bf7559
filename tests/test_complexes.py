"""Filtered complexes, sparse columns over Z/QZ, and file round-trips."""

import random

import pytest

from mfph.complexes import (
    FilteredComplex,
    column_axpy,
    load_filtration,
    low_extended,
    save_filtration,
)
from mfph.crt import PrimeBasis, crt_project

from oracles import filled_triangle, random_small_complex


def test_ordering_and_indexing():
    cx = FilteredComplex(
        [
            ((2, 1), 1.0),
            ((1,), 0.0),
            ((2,), 0.0),
            ((3,), 0.5),
            ((1, 3), 1.0),
            ((3, 2), 1.0),
            ((1, 2, 3), 1.0),
        ]
    )
    # sorted by (value, dimension, vertex tuple); indices are 1-based
    assert [cx.simplex(j) for j in range(1, 8)] == [
        (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3),
    ]
    assert cx.value(1) == 0.0 and cx.value(4) == 1.0
    assert cx.dim(7) == 2 and cx.max_dim == 2
    assert cx.index_of[(2, 3)] == 6
    assert len(cx) == 7
    assert cx.indices_by_dim()[1] == [4, 5, 6]


def test_validation_rejects_bad_complexes():
    with pytest.raises(ValueError):
        FilteredComplex([((1, 2), 0.0)])  # missing vertices
    with pytest.raises(ValueError):
        # face arrives after its coface in filtration order
        FilteredComplex([((1,), 0.0), ((1, 2), 0.5), ((2,), 0.9)])
    with pytest.raises(ValueError):
        FilteredComplex([((1, 1), 0.0)])
    with pytest.raises(ValueError):
        FilteredComplex([((-1,), 0.0)])
    with pytest.raises(ValueError):
        FilteredComplex([((1,), 0.0), ((1,), 0.0)])
    for value in ("nan", "inf", "-inf"):
        with pytest.raises(ValueError, match="non-finite"):
            FilteredComplex([((1,), 0.0), ((2,), 0.0), ((1, 2), float(value))])


def test_boundary_squares_to_zero():
    basis = PrimeBasis.of([2, 3, 5])
    q_all = basis.product
    rng = random.Random(7)
    cx = random_small_complex(rng)
    for j in range(1, len(cx) + 1):
        acc = []
        # column_axpy reads the signs +1/-1 modulo Q
        for row, c in cx.boundary_rows(j):
            acc = column_axpy(acc, c, cx.boundary_rows(row), q_all)
        assert acc == []


def test_column_axpy_matches_dict_model():
    basis = PrimeBasis.of([2, 3, 5])
    q_all = basis.product
    rng = random.Random(11)
    for _ in range(200):
        a = sorted(rng.sample(range(1, 30), rng.randint(0, 8)))
        b = sorted(rng.sample(range(1, 30), rng.randint(0, 8)))
        ca = [(r, rng.randrange(1, q_all)) for r in a]
        cb = [(r, rng.randrange(1, q_all)) for r in b]
        alpha = rng.randrange(q_all)
        got = column_axpy(list(ca), alpha, cb, q_all)
        model = {r: c for r, c in ca}
        for r, c in cb:
            model[r] = (model.get(r, 0) + alpha * c) % q_all
        want = sorted((r, c) for r, c in model.items() if c)
        assert got == want
        assert all(0 < c < q_all for _, c in got)


def test_axpy_commutes_with_projection():
    basis = PrimeBasis.of([2, 3, 5])
    q_all = basis.product
    rng = random.Random(13)
    for _ in range(100):
        rows_a = sorted(rng.sample(range(1, 20), 5))
        rows_b = sorted(rng.sample(range(1, 20), 5))
        a = [(r, rng.randrange(1, q_all)) for r in rows_a]
        b = [(r, rng.randrange(1, q_all)) for r in rows_b]
        alpha = rng.randrange(q_all)
        out = column_axpy(list(a), alpha, b, q_all)
        for s, q in enumerate(basis.primes, start=1):
            proj = {r: c % q for r, c in out}
            model = {r: c % q for r, c in a}
            for r, c in b:
                model[r] = (model.get(r, 0) + alpha * c) % q
            assert {r: c for r, c in model.items() if c} == {
                r: c for r, c in proj.items() if c
            }
            assert crt_project(basis, alpha, s) == alpha % q


def test_low_extended_is_max_of_field_lows():
    basis = PrimeBasis.of([2, 3, 5])
    q_all = basis.product
    rng = random.Random(17)
    for _ in range(200):
        rows = sorted(rng.sample(range(1, 25), rng.randint(1, 10)))
        col = [(r, rng.randrange(1, q_all)) for r in rows]
        for mask in (2, 3, 5, 6, 15, 30):
            lows = []
            for q in (2, 3, 5):
                if mask % q:
                    continue
                field_low = max(
                    (r for r, c in col if c % q), default=None
                )
                if field_low is not None:
                    lows.append(field_low)
            assert low_extended(col, mask) == (max(lows) if lows else None)


def test_filtration_file_roundtrip(tmp_path):
    cx = filled_triangle()
    path = tmp_path / "tri.flt"
    save_filtration(cx, path, header=["example", "second line"])
    text = path.read_text()
    assert text.startswith("# example\n# second line\n")
    back = load_filtration(path)
    assert len(back) == len(cx)
    for j in range(1, len(cx) + 1):
        assert back.simplex(j) == cx.simplex(j)
        assert back.value(j) == cx.value(j)


def test_filtration_file_float_values(tmp_path):
    path = tmp_path / "f.flt"
    path.write_text("0 1 0.25\n0 2 0.5\n1 1 2 0.75\n")
    cx = load_filtration(path)
    assert cx.value(1) == 0.25 and cx.value(3) == 0.75
    out = tmp_path / "g.flt"
    save_filtration(cx, out)
    assert load_filtration(out).value(3) == 0.75


def test_filtration_loader_errors(tmp_path):
    path = tmp_path / "bad.flt"
    path.write_text("0 1 0.0\nnot a line\n")
    with pytest.raises(ValueError, match="bad.flt:2"):
        load_filtration(path)
    path.write_text("1 1 2 0.0\n")
    with pytest.raises(ValueError):
        load_filtration(path)  # closure violation
    path.write_text("# only comments\n\n")
    with pytest.raises(ValueError, match="empty"):
        load_filtration(path)
    path.write_text("0 1\n")
    with pytest.raises(ValueError, match="bad.flt:1"):
        load_filtration(path)
