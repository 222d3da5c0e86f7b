"""The sparse exact core: sparse elimination against a dense reference,
maps built from dense rows against maps built from sparse columns, a guard
that reconstruction touches only nonzero entries, and one that no caller in
the package hands ``LinearMap.from_sparse`` a stored zero."""

import contextlib
import importlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from coendforge.exactlinalg import (
    QQ,
    LinearMap,
    PadicRationals,
    PrimeField,
    Rationals,
    Space,
    _rref,
    cokernel,
    dual,
    identity,
    kernel,
    kron_compose,
    tensor,
    tensor_space,
)
from coendforge.cli import main
from coendforge.reconstruct import reconstruct_coalgebra
from references import format_matrix

ROOT = Path(__file__).resolve().parent.parent
FIELDS = [QQ, PrimeField(7), PadicRationals(3)]


def dense_rref(f, rows):
    """The dense Gauss-Jordan elimination the sparse `_rref` replaced, kept
    as its reference: first nonzero row as pivot, every cell visited."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, nrows):
            if not f.is_zero(rows[i][c]):
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = f.invert(rows[r][c])
        rows[r] = [f.mul(inv, a) for a in rows[r]]
        for i in range(nrows):
            if i != r and not f.is_zero(rows[i][c]):
                coef = rows[i][c]
                rows[i] = [f.sub(a, f.mul(coef, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


@st.composite
def dense_matrices(draw, max_dim=5, field=None):
    """A field, a row count, a column count (zero included) and canonical
    entries, mostly zero, with whole rows and columns zeroed at random and
    then some rows replaced by single entries in one common column."""
    f = field or draw(st.sampled_from(FIELDS))
    nrows, ncols = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    scalar = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                       st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3])))
    rows = [[f.parse(str(draw(scalar))) for _ in range(ncols)] for _ in range(nrows)]
    for i in draw(st.sets(st.integers(0, max(nrows - 1, 0)))) if nrows else ():
        rows[i] = [f.zero()] * ncols
    for j in draw(st.sets(st.integers(0, max(ncols - 1, 0)))) if ncols else ():
        for row in rows:
            row[j] = f.zero()
    if ncols:
        # rows with a single entry, all in one column, as in hom systems
        j = draw(st.integers(0, ncols - 1))
        for i in draw(st.sets(st.integers(0, max(nrows - 1, 0)))) if nrows else ():
            rows[i] = [f.zero()] * ncols
            rows[i][j] = f.parse(str(draw(st.sampled_from([1, 1, -2, 3]))))
    return f, nrows, ncols, rows


def sparse_rows(f, rows):
    return [{j: a for j, a in enumerate(r) if not f.is_zero(a)} for r in rows]


def build_both(f, nrows, ncols, rows):
    dom, cod = Space.std(ncols, "x"), Space.std(nrows, "y")
    dense = LinearMap(f, dom, cod, tuple(tuple(r) for r in rows))
    cols = [{i: r[j] for i, r in enumerate(rows) if not f.is_zero(r[j])} for j in range(ncols)]
    return dense, LinearMap.from_sparse(f, dom, cod, cols)


def stores_no_zero(m):
    return all(not m.field.is_zero(a) for col in m.cols for a in col.values())


@settings(max_examples=300)
@given(dense_matrices())
def test_sparse_rref_matches_dense_reference(case):
    f, nrows, ncols, rows = case
    ref_rows, ref_pivots = dense_rref(f, rows)
    got_rows, got_pivots = _rref(f, sparse_rows(f, rows))
    assert got_pivots == ref_pivots
    assert [[r.get(j, f.zero()) for j in range(ncols)] for r in got_rows] == ref_rows
    assert all(not f.is_zero(a) for r in got_rows for a in r.values())


def test_rref_does_no_arithmetic_on_the_pivot_column(monkeypatch):
    # the eliminated rows lose their pivot-column entry without a product,
    # and a pivot row is scaled only when scaling changes it: {0: 2} has one
    # entry and {1: 1} a unit pivot, so the first input costs no product (5
    # when the elimination multiplies through the pivot column, 2 when every
    # pivot row is scaled); {0: 2, 1: 4} costs one product per entry, and
    # the single entry {1: 3} again none
    calls = []
    real = Rationals.mul
    monkeypatch.setattr(Rationals, "mul", lambda self, a, b: calls.append(1) or real(self, a, b))
    assert _rref(QQ, [{0: 2}, {0: 3}, {0: 5}, {0: 7, 1: 1}, {}]) == ([{0: 1}, {1: 1}], [0, 1])
    assert len(calls) == 0
    assert _rref(QQ, [{0: 2, 1: 4}, {1: 3}]) == ([{0: 1}, {1: 1}], [0, 1])
    assert len(calls) == 2


def test_rref_keeps_the_key_order_of_the_pivot_rows():
    # the empty row keeps its place: the pivot of column 0 swaps with it, so
    # {1: 1, 2: 1} stays ahead of {2: 1, 1: 1} and pivots column 1 with its
    # keys in their order (dropping the empty row's place would move it
    # behind, and the reduced row would read {2: 1, 1: 1})
    rows, pivots = _rref(QQ, [{}, {1: 1, 2: 1}, {2: 1, 1: 1}, {0: 1}])
    assert (rows, pivots) == ([{0: 1}, {1: 1, 2: 1}], [0, 1])
    assert [list(r) for r in rows] == [[0], [1, 2]]


@settings(max_examples=200)
@given(dense_matrices())
def test_dense_and_sparse_construction_agree(case):
    dense, sparse = build_both(*case)
    assert dense == sparse and sparse == dense
    assert hash(dense) == hash(sparse)
    assert dense.entries == sparse.entries
    assert format_matrix(dense) == format_matrix(sparse)
    assert dense.cols == sparse.cols and stores_no_zero(dense)


@given(st.data())
def test_operations_keep_entries_canonical(data):
    case = data.draw(dense_matrices(max_dim=4))
    f = case[0]
    m, _ = build_both(*case)
    b, _ = build_both(*data.draw(dense_matrices(max_dim=4, field=f)))
    results = [m - m, m + m, m.scale(f.zero()), dual(m), tensor(m, b),
               identity(m.cod, f) @ m, kernel(m), *cokernel(m),
               kron_compose(m, b, identity(tensor_space(m.dom, b.dom), f))]
    assert all(stores_no_zero(r) for r in results)
    assert (m - m).is_zero_map() and dual(dual(m)) == m
    assert (m - m) == LinearMap.from_sparse(f, m.dom, m.cod, [{} for _ in range(m.dom.dim)])


def test_reconstruct_comatrix_touches_only_nonzero_entries(monkeypatch):
    # comatrix(6) over F_7 as the benchmark builds it: the dense delta alone
    # has 46,656 cells, and scanning the dense maps of the reconstruction
    # path cost 368,857 zero tests; sparse storage keeps them under 100,000
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    field = PrimeField(7)
    # the package rebinds the names cohom and exactlinalg; take the modules
    pkg = SimpleNamespace(**{m: importlib.import_module(f"coendforge.{m}")
                             for m in ("cohom", "exactlinalg")})
    coalgebra, comodule = workloads.comatrix_input(pkg, field, 6, random.Random(0))
    calls = [0]
    is_zero = field.is_zero

    def counting_is_zero(a):
        calls[0] += 1
        return is_zero(a)

    monkeypatch.setattr(field, "is_zero", counting_is_zero)
    res = reconstruct_coalgebra(coalgebra, {"std": comodule})
    assert res.verdict == "Isomorphism"
    assert calls[0] < 100_000


def two_forms(data, nrows, ncols):
    """One Q matrix in two forms: every entry a Fraction, and each integral
    entry an int or a Fraction at random."""
    entry = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))
    fracs = [[data.draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    mixed = [[a.numerator if a.denominator == 1 and data.draw(st.booleans()) else a
              for a in row] for row in fracs]
    return fracs, mixed


@settings(max_examples=100)
@given(st.data())
def test_int_and_fraction_entries_are_one_representation(data):
    f = data.draw(st.sampled_from([QQ, PadicRationals(3)]))
    ra, ca, rb, cb, cm = (data.draw(st.integers(0, 3)) for _ in range(5))
    shapes = {"a": (ra, ca), "b": (rb, cb), "m": (ca * cb, cm)}
    built = {"fraction": {}, "mixed": {}}
    for name, (nrows, ncols) in shapes.items():
        dom, cod = Space.std(ncols, "x"), Space.std(nrows, "y")
        for form, rows in zip(built, two_forms(data, nrows, ncols)):
            built[form][name] = LinearMap(f, dom, cod, tuple(map(tuple, rows)))
    fr, mx = built["fraction"], built["mixed"]
    for name in shapes:
        assert fr[name] == mx[name] and hash(fr[name]) == hash(mx[name])
        assert format_matrix(fr[name]) == format_matrix(mx[name])
    results = [(kron_compose(fr["a"], fr["b"], fr["m"]), kron_compose(mx["a"], mx["b"], mx["m"])),
               (kernel(fr["a"]), kernel(mx["a"])),
               *zip(cokernel(fr["a"]), cokernel(mx["a"]))]
    for want, got in results:
        assert got == want and hash(got) == hash(want)
        assert format_matrix(got) == format_matrix(want)


def test_reconstruction_stores_integral_q_entries_as_ints(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    pkg = SimpleNamespace(**{m: importlib.import_module(f"coendforge.{m}")
                             for m in ("cohom", "exactlinalg")})
    coalgebra, comodule = workloads.comatrix_input(pkg, QQ, 6, random.Random(0))
    res = reconstruct_coalgebra(coalgebra, {"std": comodule})
    assert res.verdict == "Isomorphism"
    q = res.coend.coalgebra
    entries = [a for m in (res.h, q.delta, q.counit) for col in m.cols for a in col.values()]
    assert entries and all(type(a) in (int, Fraction) for a in entries)
    assert all(type(a) is int for a in entries if a.denominator == 1)


# a dense arrow K^2 -> K^2 over padic:3, for one certified bcoend
DENSE_ARROW = {
    "field": "padic:3",
    "spaces": {"Ka": {"labels": ["a0", "a1"], "weights": [0, 1]},
               "Kb": {"labels": ["b0", "b1"], "weights": [0, 0]}},
    "categories": {"Arrow": {"objects": ["a", "b"],
                             "morphisms": [{"name": "f", "dom": "a", "cod": "b"}]}},
    "functors": {"F": {"source": "Arrow", "objects": {"a": "Ka", "b": "Kb"},
                       "morphisms": {"f": [["1", "3"], ["2", "-1"]]}}},
}


def test_no_caller_in_the_package_stores_a_zero(monkeypatch, tmp_path):
    # from_sparse takes its columns over as given, and a stored zero breaks
    # rank, is_invertible and ==; so every caller in src/ drops its zeros,
    # over the 22 corpus commands, a comatrix(5) reconstruction over F_7 and
    # a certified bcoend over padic:3
    src = str(ROOT / "src")
    real = LinearMap.from_sparse.__func__
    stored, calls = [], []

    def checking(cls, field, dom, cod, cols):
        caller = sys._getframe(1).f_code
        calls.append(caller.co_filename.startswith(src))
        if calls[-1] and any(
                field.is_zero(v) for col in cols for v in col.values()):
            stored.append(f"{Path(caller.co_filename).name}:{caller.co_name}")
        return real(cls, field, dom, cod, cols)

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    pkg = SimpleNamespace(**{m: importlib.import_module(f"coendforge.{m}")
                             for m in ("cohom", "exactlinalg")})
    coalgebra, comodule = workloads.comatrix_input(pkg, PrimeField(7), 5, random.Random(0))
    arrow = tmp_path / "arrow.json"
    arrow.write_text(json.dumps(DENSE_ARROW))
    corpus = json.loads((ROOT / "perfbench" / "corpus_expected.json").read_text())
    monkeypatch.setattr(LinearMap, "from_sparse", classmethod(checking))
    assert reconstruct_coalgebra(coalgebra, {"std": comodule}).verdict == "Isomorphism"
    runs = [[e["args"][0], str(ROOT / "specs" / f"{e['spec']}.json"), *e["args"][1:]]
            for e in corpus] + [["bcoend", str(arrow), "--functor", "F"]]
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
    assert len(runs) == 23 and sum(calls) > 1000
    assert stored == []
