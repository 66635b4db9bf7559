"""Filtered complexes, sparse columns over Z/QZ, and file round-trips."""

import random

import numpy as np
import pytest

from mfph.complexes import (
    FilteredComplex,
    column_axpy,
    format_value,
    load_filtration,
    save_filtration,
)
from mfph.crt import PrimeBasis
from mfph.generators import linial_meshulam, minimal_projective_plane, rips_filtration, sample_shape

from oracles import (
    apparent_columns,
    boundary_facets,
    crt_project,
    filled_triangle,
    klein_grid,
    random_small_complex,
    reference_load_filtration,
)

# whitespace to str.split, but not a line break to text-mode line reading
# (str.splitlines would break at all but \x1f)
INLINE_SPACE = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\u2029")


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
    assert cx.simplex(6) == (2, 3)
    assert len(cx) == 7
    assert cx.dims == (0, 0, 0, 1, 1, 1, 2)
    # Python numbers, not numpy scalars, from every accessor
    assert {type(v) for s in cx.simplices for v in s} == {type(v) for v in cx.simplex(7)} == {int}
    assert {type(v) for v in cx.values} == {type(cx.value(1))} == {float}
    assert {type(d) for d in cx.dims} == {type(cx.dim(1))} == {type(cx.max_dim)} == {int}


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
    # of two duplicated simplices, the one whose second copy enters first
    # is named, whatever the input order of the copies
    with pytest.raises(ValueError, match=r"^duplicate simplex \(1,\)$"):
        FilteredComplex([((0,), 3.0), ((1,), 1.0), ((0,), 0.0), ((1,), 2.0)])


def _reference_fault(items):
    """The per-simplex validation the array ingest replaced: the message
    of the first fault and the input position of the simplex a loader
    names (the later of the first two copies of a duplicate, the face of
    a late face), or None.  Faults of single simplices come first, in
    input order, then duplicates and faces, in filtration order."""
    for i, (v, _) in enumerate(items):
        verts = tuple(sorted(v))
        if len(set(verts)) != len(verts):
            return f"repeated vertex in simplex {verts}", i
        if verts[0] < 0:
            return f"negative vertex id in simplex {verts}", i
        if verts[-1] > (1 << 63) - 1:
            return f"vertex id above {(1 << 63) - 1} in simplex {verts}", i
    pairs = sorted(
        ((tuple(sorted(v)), f, i) for i, (v, f) in enumerate(items)),
        key=lambda p: (p[1], len(p[0]), p[0]),
    )
    index = {}
    for j, (verts, _, i) in enumerate(pairs, start=1):
        if verts in index:
            copies = sorted((f, k) for k, (v, f) in enumerate(items) if tuple(sorted(v)) == verts)
            return f"duplicate simplex {verts}", max(copies[0][1], copies[1][1])
        index[verts] = (j, i)
    for j, (verts, _, i) in enumerate(pairs, start=1):
        for p in range(len(verts) if len(verts) > 1 else 0):
            facet = verts[:p] + verts[p + 1 :]
            if facet not in index:
                return f"simplex {verts} is missing its face {facet}", i
            if index[facet][0] >= j:
                return f"face {facet} enters after its coface {verts}", index[facet][1]
    return None


def _corrupt(rng, items):
    """Apply one random fault to a list of (vertices, value) items."""
    k = rng.randrange(len(items))
    verts, value = items[k]
    kind = rng.randrange(6)
    if kind == 0:
        del items[k]  # its cofaces lose a face
    elif kind == 1:
        items[k] = (verts, value + rng.choice((0.5, 50.0)))  # may enter late
    elif kind == 2 and len(verts) > 1:
        items[k] = ((verts[-1],) + verts[1:], value)  # a repeated vertex
    elif kind == 3:
        items[k] = (verts[:-1] + (-1 - verts[-1],), value)  # a negative id
    elif kind == 4:
        items.insert(rng.randrange(len(items) + 1), (verts, value + rng.choice((0.0, 0.5))))
    elif kind == 5 and rng.random() < 0.2:
        items[k] = (verts[:-1] + (1 << 63,), value)  # too large for int64


def test_validation_matches_the_reference_loop(tmp_path):
    rng = random.Random(23)
    path = tmp_path / "faulty.flt"
    for trial in range(240):
        cx = random_small_complex(rng, max_simplices=120)
        items = list(zip(cx.simplices, cx.values))
        for _ in range(rng.randint(0, 3)):
            _corrupt(rng, items)
        if trial % 2:
            # sparse ids (v * 10^12 + 7): the facet match must not rely on dense ids
            ids = {v: v * 10**12 + 7 if 0 <= v < 1 << 63 else v for s, _ in items for v in s}
            items = [(tuple(ids[v] for v in s), f) for s, f in items]
        # one line per item, in input order
        path.write_text("".join(f"{len(s) - 1} {' '.join(map(str, s))} {f!r}\n" for s, f in items))
        want = _reference_fault(items)
        if want is None:
            assert load_filtration(path).simplices == FilteredComplex(items).simplices
            continue
        message, at = want
        with pytest.raises(ValueError) as err:
            FilteredComplex(items)
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            load_filtration(path)
        assert str(err.value) == f"{path}:{at + 1}: {message}"


def _reference_order(items):
    """The tuple-key sort the array ingest replaced: (simplices, values)."""
    pairs = sorted(
        ((tuple(sorted(v)), float(f)) for v, f in items), key=lambda p: (p[1], len(p[0]), p[0])
    )
    return tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)


def _assert_same_complex(a, b):
    assert a.simplices == b.simplices
    assert list(map(repr, a.values)) == list(map(repr, b.values))  # the sign of -0.0 too
    assert a.dims == b.dims
    ca, cb = a.coboundary(), b.coboundary()
    for name in ("indptr", "rows", "signs", "order", "apparent"):
        assert getattr(ca, name).tolist() == getattr(cb, name).tolist()
    assert ca.bounds == cb.bounds


def _assert_matches_reference(cx, items):
    simplices, values = _reference_order(items)
    assert cx.simplices == simplices
    assert list(map(repr, cx.values)) == list(map(repr, values))
    assert cx.dims == tuple(len(s) - 1 for s in simplices)
    _assert_coboundary_is_transposed_boundary(cx)


def test_loaded_file_equals_items_path(tmp_path):
    # shuffled lines and vertices, comments and blank lines between them,
    # tabs, runs of spaces, in-line whitespace and CRLF line ends; the
    # per-line reference loader reads the same complex
    rng = random.Random(29)
    path = tmp_path / "messy.flt"
    for _ in range(20):
        cx = random_small_complex(rng)
        items = list(zip(cx.simplices, cx.values))
        lines = [
            " ".join([str(len(s) - 1), *map(str, rng.sample(s, len(s))), repr(f)]) for s, f in items
        ]
        rng.shuffle(lines)
        text = ""
        for line in lines:
            line = "".join(
                rng.choice((" ", "  ", "\t", " \t ", *INLINE_SPACE)) if c == " " else c for c in line
            )
            text += line + rng.choice(("\n", "\r\n", "\n\n", "\n# a comment\n", "\r\n \t\r\n", "\r"))
        path.write_bytes(text.encode())
        loaded = load_filtration(path)
        _assert_same_complex(loaded, FilteredComplex(items))
        _assert_same_complex(loaded, reference_load_filtration(path))


def test_inline_whitespace_does_not_break_a_line(tmp_path):
    path = tmp_path / "inline.flt"
    for space in INLINE_SPACE:
        path.write_text(f"0 0{space} 0\n0{space}1 0\n1 0 1 1{space}\n", encoding="utf-8")
        _assert_same_complex(
            load_filtration(path), FilteredComplex([((0,), 0.0), ((1,), 0.0), ((0, 1), 1.0)])
        )


def _line_faults():
    """(name, corrupt) pairs; corrupt(rng, fields) returns the bad
    fields of one `dim v0 ... vd value` line, as bytes."""

    def token(fields, at, bad):
        return fields[:at] + [bad] + fields[at + 1 :]

    return [
        ("dim token", lambda rng, f: token(f, 0, rng.choice([b"x", b"1.5", b"0x1"]))),
        ("negative dim", lambda rng, f: token(f, 0, b"-1")),
        ("one field short", lambda rng, f: f[:-2] + f[-1:]),
        ("one field over", lambda rng, f: f[:-1] + [b"7"] + f[-1:]),
        ("vertex token", lambda rng, f: token(f, 1, rng.choice([b"v", b"1.5", b"1e3", b"--1"]))),
        ("value token", lambda rng, f: token(f, len(f) - 1, rng.choice([b"abc", b"1.2.3", b"0x1"]))),
        ("non-finite", lambda rng, f: token(f, len(f) - 1, rng.choice([b"nan", b"inf", b"-inf", b"1e999"]))),
        ("non-UTF-8 byte", lambda rng, f: token(f, rng.randrange(len(f)), b"\xff" + f[0])),
        ("id above int64", lambda rng, f: token(f, 1, str(1 << 63).encode())),
        ("id below int64", lambda rng, f: token(f, 1, str(-(1 << 64)).encode())),
    ]


def test_loader_faults_match_the_reference_loop(tmp_path):
    # a file of several blocks of lines: a fault in a later block is
    # named by its line number in the whole file
    path = tmp_path / "big.flt"
    save_filtration(linial_meshulam(40, 9000, 3), path, header=["big"])
    lines = path.read_bytes().split(b"\n")
    assert len(b"\n".join(lines)) > 2 * (1 << 16)
    rng = random.Random(61)
    for name, corrupt in _line_faults():
        for k in (1, 2, rng.randrange(1, len(lines) // 2), rng.randrange(len(lines) // 2, len(lines) - 1), len(lines) - 2):
            bad = list(lines)
            bad[k] = b" ".join(corrupt(rng, lines[k].split()))
            path.write_bytes(b"\n".join(bad))
            with pytest.raises(ValueError) as want:
                reference_load_filtration(path)
            with pytest.raises(ValueError) as got:
                load_filtration(path)
            assert str(got.value) == str(want.value), name
            assert str(got.value).startswith(f"{path}:{k + 1}: "), name
    # faults the ingest finds, named by the line of a simplex
    for _ in range(6):
        bad = list(lines)
        a = rng.randrange(1, len(lines) - 1)
        kind = rng.randrange(3)
        if kind == 0:
            bad.insert(rng.randrange(a, len(lines)), lines[a])  # a duplicate
        elif kind == 1:
            del bad[rng.randrange(1, 800)]  # a vertex or edge: its cofaces lose a face
        else:
            v = rng.randrange(1, 41)  # a vertex, on lines 1..40
            bad[v] = b" ".join(lines[v].split()[:-1] + [b"99999"])  # enters after its edges
        path.write_bytes(b"\n".join(bad))
        with pytest.raises(ValueError) as want:
            reference_load_filtration(path)
        with pytest.raises(ValueError) as got:
            load_filtration(path)
        assert str(got.value) == str(want.value)
    # and a clean file of several blocks reads as the reference does
    path.write_bytes(b"\n".join(lines))
    _assert_same_complex(load_filtration(path), reference_load_filtration(path))


def test_loader_reads_tokens_as_int_and_float(tmp_path):
    path = tmp_path / "tokens.flt"
    path.write_text("0 +1 0\n0 1_0 +0.0\n1 +1 1_0 1e0\n")
    _assert_same_complex(
        load_filtration(path), FilteredComplex([((1,), 0.0), ((10,), 0.0), ((1, 10), 1.0)])
    )


def test_items_path_matches_the_tuple_sort():
    rng = random.Random(31)
    for _ in range(30):
        cx = random_small_complex(rng)
        # sparse ids (v * 10^12 + 7), vertices and items in random order
        items = [
            (tuple(v * 10**12 + 7 for v in rng.sample(s, len(s))), f)
            for s, f in zip(cx.simplices, cx.values)
        ]
        rng.shuffle(items)
        _assert_matches_reference(FilteredComplex(items), items)
    # -0.0 ties with 0.0 and keeps its sign
    items = [((1,), 0.0), ((0,), -0.0), ((2,), -0.0), ((0, 1), -0.0), ((1, 2), 0.0), ((0, 2), 0.5)]
    cx = FilteredComplex(items)
    _assert_matches_reference(cx, items)
    assert [repr(v) for v in cx.values] == ["-0.0", "0.0", "-0.0", "-0.0", "0.0", "0.5"]


def test_boundary_squares_to_zero():
    basis = PrimeBasis.of([2, 3, 5])
    q_all = basis.product
    rng = random.Random(7)
    cx = random_small_complex(rng)
    for j in range(1, len(cx) + 1):
        acc = {}
        # column_axpy reads the signs +1/-1 modulo Q
        for row, c in cx.boundary_rows(j):
            acc = column_axpy(acc, c, dict(cx.boundary_rows(row)), q_all)
        assert acc == {}


def _assert_coboundary_is_transposed_boundary(cx):
    # both sides read the one facet table, so each is compared with the
    # oracle boundary built from cx.simplices
    m1 = len(cx) + 1
    facets = boundary_facets(cx)
    want = [[] for _ in range(m1)]
    for j in range(1, m1):
        assert cx.boundary_rows(j) == tuple(sorted(facets[j]))
        for row, sign in facets[j]:
            want[m1 - row].append((m1 - j, sign))
    cb = cx.coboundary()
    assert (cb.indptr.dtype, cb.rows.dtype, cb.signs.dtype) == (np.int64, np.int32, np.int8)
    assert len(cb.indptr) == m1 + 1 and cb.indptr[0] == 0 and cb.indptr[-1] == len(cb.rows)
    for c in range(m1):
        assert cb.column(c) == dict(want[c])
        # the apparent-column detector and apparent_pairs() read the
        # largest row at the end of the slice
        assert (np.diff(cb.rows[cb.indptr[c] : cb.indptr[c + 1]]) > 0).all()
    # ascending dimension, ascending column (descending simplex) within one
    order = sorted(range(1, m1), key=lambda c: (cx.dim(m1 - c), c))
    assert cb.order.tolist() == order
    assert len(cb.bounds) == cx.max_dim + 2
    for d in range(cx.max_dim + 1):
        in_dim = [c for c in order if cx.dim(m1 - c) == d]
        assert cb.order[cb.bounds[d] : cb.bounds[d + 1]].tolist() == in_dim
    assert cx.coboundary() is cb


def test_coboundary_columns_transpose_boundary_rows():
    _assert_coboundary_is_transposed_boundary(minimal_projective_plane())
    _assert_coboundary_is_transposed_boundary(klein_grid())
    _assert_coboundary_is_transposed_boundary(FilteredComplex([((7,), 0.0)]))
    _assert_coboundary_is_transposed_boundary(FilteredComplex([]))
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


def test_apparent_columns_match_the_oracle():
    rng = random.Random(37)
    complexes = [minimal_projective_plane(), klein_grid()]
    complexes += [random_small_complex(rng) for _ in range(40)]
    found = missed = 0
    for cx in complexes:
        cb = cx.coboundary()
        want = apparent_columns(cx)
        assert cb.apparent.tolist() == want
        found += len(want)
        missed += sum(1 for c in range(1, len(cx) + 1) if cb.column(c)) - len(want)
    # both kinds occur, so neither answer passes by default
    assert found > 0 and missed > 0


def test_column_axpy_matches_dict_model():
    basis = PrimeBasis.of([2, 3, 5])
    q_all = basis.product
    rng = random.Random(11)
    for _ in range(200):
        a = sorted(rng.sample(range(1, 30), rng.randint(0, 8)))
        b = sorted(rng.sample(range(1, 30), rng.randint(0, 8)))
        ca = {r: rng.randrange(1, q_all) for r in a}
        cb = {r: rng.randrange(1, q_all) for r in b}
        alpha = rng.randrange(q_all)
        got = column_axpy(dict(ca), alpha, cb, q_all)
        model = dict(ca)
        for r, c in cb.items():
            model[r] = (model.get(r, 0) + alpha * c) % q_all
        want = {r: c for r, c in model.items() if c}
        assert got == want
        assert all(0 < c < q_all for c in got.values())


def test_column_axpy_adds_into_the_target_in_place():
    q_all = 30  # the fields of 2, 3 and 5
    source = {1: 1, 2: 1, 4: 6}
    target = {1: 5, 2: 7, 3: 1}
    out = column_axpy(target, 25, source, q_all)
    assert out is target
    assert source == {1: 1, 2: 1, 4: 6}
    # row 1 is 0 mod 30 and goes; row 2 is 0 mod 2 only and stays; row 4
    # would enter as 25 * 6, 0 mod 30, and does not
    assert target == {2: 2, 3: 1}
    for alpha in (0, 30, -60):
        assert column_axpy(target, alpha, source, q_all) is target
        assert target == {2: 2, 3: 1}


def test_axpy_commutes_with_projection():
    basis = PrimeBasis.of([2, 3, 5])
    q_all = basis.product
    rng = random.Random(13)
    for _ in range(100):
        rows_a = sorted(rng.sample(range(1, 20), 5))
        rows_b = sorted(rng.sample(range(1, 20), 5))
        a = {r: rng.randrange(1, q_all) for r in rows_a}
        b = {r: rng.randrange(1, q_all) for r in rows_b}
        alpha = rng.randrange(q_all)
        out = column_axpy(dict(a), alpha, b, q_all)
        for s, q in enumerate(basis.primes, start=1):
            proj = {r: c % q for r, c in out.items()}
            model = {r: c % q for r, c in a.items()}
            for r, c in b.items():
                model[r] = (model.get(r, 0) + alpha * c) % q
            assert {r: c for r, c in model.items() if c} == {
                r: c for r, c in proj.items() if c
            }
            assert crt_project(basis, alpha, s) == alpha % q


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


def _per_line_reference(cx, header):
    """The filtration file written one line at a time."""
    lines = [f"# {line}\n" for line in header]
    for verts, value in zip(cx.simplices, cx.values):
        lines.append(f"{len(verts) - 1} {' '.join(map(str, verts))} {format_value(value)}\n")
    return "".join(lines)


def test_save_filtration_equals_per_line_reference(tmp_path):
    big = 2.0**60
    cx = FilteredComplex(
        [
            ((0,), -0.0), ((1,), 0.0), ((2,), 1e-300), ((3,), 0.5), ((4,), 0.5), ((5,), 1e16),
            ((0, 1), 0.0), ((1, 2), 1e-300), ((0, 2), 0.5), ((0, 3), 0.5), ((3, 4), 0.5),
            ((1, 3), 123456789.125), ((2, 3), 1e16), ((0, 5), 1e16), ((4, 5), big),
            ((0, 1, 2), 0.5), ((0, 1, 3), 123456789.125), ((0, 2, 3), 1e16),
            ((1, 2, 3), big), ((0, 1, 2, 3), big),
        ]
    )
    header = ["tied values", "across dimensions"]
    path = tmp_path / "ties.flt"
    save_filtration(cx, path, header=header)
    text = path.read_text()
    assert text == _per_line_reference(cx, header)
    assert "0 0 0\n" in text and "-0" not in text
    assert "0 2 1e-300\n" in text and "1 4 5 1152921504606846976\n" in text
    assert "0 5 10000000000000000\n" in text and "2 0 1 3 123456789.125\n" in text
    others = [
        rips_filtration(sample_shape("sphere-S3", 40, seed=2), rho=0.9, max_dim=3),
        FilteredComplex([((7,), 0.0)]),
    ]
    rng = random.Random(43)
    others.extend(random_small_complex(rng) for _ in range(10))
    for cx in others:
        save_filtration(cx, path)
        assert path.read_text() == _per_line_reference(cx, ())


@pytest.mark.parametrize("line", ["two\nlines", "carriage\rreturn", "\n"])
def test_save_filtration_rejects_a_header_line_with_a_line_break(tmp_path, line):
    path = tmp_path / "tri.flt"
    with pytest.raises(ValueError, match="holds a line break"):
        save_filtration(filled_triangle(), path, header=["fine", line])
    assert not path.exists()  # refused before the file is opened
    path.write_text("kept\n")
    with pytest.raises(ValueError, match="holds a line break"):
        save_filtration(filled_triangle(), path, header=[line])
    assert path.read_text() == "kept\n"


def test_filtration_file_float_values(tmp_path):
    path = tmp_path / "f.flt"
    path.write_text("0 1 0.25\n0 2 0.5\n1 1 2 0.75\n")
    cx = load_filtration(path)
    assert cx.value(1) == 0.25 and cx.value(3) == 0.75
    out = tmp_path / "g.flt"
    save_filtration(cx, out)
    assert load_filtration(out).value(3) == 0.75


def test_format_value_writes_numpy_scalars_as_their_floats():
    # readers that index the complex's value array hold numpy scalars
    for value, text in ((0.5, "0.5"), (2.0, "2"), (-0.0, "0"), (1e-3, "0.001"), (float("inf"), "inf")):
        assert format_value(value) == format_value(np.float64(value)) == text
    assert format_value(np.float32(0.5)) == "0.5"
    cx = FilteredComplex([((0,), 0.25), ((1,), 3.0)])
    assert [format_value(v) for v in cx._values] == ["0.25", "3"]


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
