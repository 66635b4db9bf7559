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
from mfph.generators import minimal_projective_plane

from oracles import filled_triangle, klein_grid, random_small_complex


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
    assert cx.dims == (0, 0, 0, 1, 1, 1, 2)


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
    # a gap in dimensions: the triangle's edges are missing
    with pytest.raises(ValueError, match=r"simplex \(0, 1, 2\) is missing its face \(1, 2\)"):
        FilteredComplex([((0,), 0.0), ((1,), 0.0), ((2,), 0.0), ((0, 1, 2), 1.0)])
    # vertex ids are matched as int64
    with pytest.raises(ValueError, match=r"vertex id .* in simplex \(9223372036854775808,\)"):
        FilteredComplex([((1 << 63,), 0.0)])
    FilteredComplex([(((1 << 63) - 1,), 0.0)])


def _reference_fault(items):
    """The per-simplex validation loop: the message for the first
    simplex, in filtration order, with a missing or late face."""
    pairs = sorted(((tuple(sorted(v)), f) for v, f in items), key=lambda p: (p[1], len(p[0]), p[0]))
    index = {s: j for j, (s, _) in enumerate(pairs, start=1)}
    for j, (verts, _) in enumerate(pairs, start=1):
        for i in range(len(verts) if len(verts) > 1 else 0):
            facet = verts[:i] + verts[i + 1 :]
            if facet not in index:
                return f"simplex {verts} is missing its face {facet}"
            if index[facet] >= j:
                return f"face {facet} enters after its coface {verts}"
    return None


def test_validation_matches_the_reference_loop():
    rng = random.Random(23)
    for trial in range(120):
        cx = random_small_complex(rng, max_simplices=120)
        items = list(zip(cx.simplices, cx.values))
        for _ in range(rng.randint(0, 3)):
            k = rng.randrange(len(items))
            if rng.random() < 0.5:
                del items[k]  # its cofaces lose a face
            else:
                items[k] = (items[k][0], items[k][1] + rng.choice((0.5, 50.0)))
        if trial % 2:
            # sparse ids (v * 10^12 + 7): the facet match must not rely on dense ids
            ids = {v: v * 10**12 + 7 for s, _ in items for v in s}
            items = [(tuple(ids[v] for v in s), f) for s, f in items]
        want = _reference_fault(items)
        if want is None:
            FilteredComplex(items)
        else:
            with pytest.raises(ValueError) as err:
                FilteredComplex(items)
            assert str(err.value) == want


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


def _assert_coboundary_is_transposed_boundary(cx):
    m1 = len(cx) + 1
    want = [[] for _ in range(m1)]
    for j in range(1, m1):
        for row, sign in cx.boundary_rows(j):
            want[m1 - row].append((m1 - j, sign))
    columns = cx.coboundary_columns()
    assert len(columns) == m1
    for c in range(m1):
        assert columns[c] == tuple(sorted(want[c]))
    # ascending dimension, ascending column (descending simplex) within one
    assert cx.coboundary_order() == tuple(sorted(range(1, m1), key=lambda c: (cx.dim(m1 - c), c)))
    assert cx.coboundary_columns() is columns


def test_coboundary_columns_transpose_boundary_rows():
    _assert_coboundary_is_transposed_boundary(minimal_projective_plane())
    _assert_coboundary_is_transposed_boundary(klein_grid())
    _assert_coboundary_is_transposed_boundary(FilteredComplex([((7,), 0.0)]))
    rng = random.Random(19)
    for i in range(40):
        cx = random_small_complex(rng)
        _assert_coboundary_is_transposed_boundary(cx)
        if i % 4 == 0:
            # sparse vertex ids, up to 10^12, reorder ties and facet rows
            vertices = sorted({v for s in cx.simplices for v in s})
            ids = dict(zip(vertices, rng.sample(range(10**12 + 1), len(vertices))))
            sparse = FilteredComplex(
                (tuple(ids[v] for v in s), f) for s, f in zip(cx.simplices, cx.values)
            )
            _assert_coboundary_is_transposed_boundary(sparse)


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
