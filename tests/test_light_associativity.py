"""Light's associativity test: the object tensor, the xi 2-cocycle and the
multiplication of a bialgebra are each checked on the triples whose middle
is a generator (``cohom.product_generators``), and walked in full only to
name the failures.  This pins the generators against a closure computed
here, and every problem list, message for message and in order, against
the references in ``references`` that try every triple.  The cases are
Z/n, Z/2 x Z/2, S3 and the non-group monoid {0..k} under max, valid or with
one tensor entry, one xi scalar or one multiplication column changed.  The
same generators decide that delta and eps are algebra maps, on the n |S|
columns e_x (x) e_s; those problem lists are pinned against the references
that compare all n^2 columns, with one delta or eps column changed at a
generator or elsewhere."""

from __future__ import annotations

import importlib
import itertools
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st
from test_axiom_parity import function_hopf
from test_fincat import graded_functor, scalar

import references
from coendforge.cohom import (
    Bialgebra,
    group_hopf_algebra,
    grouplike_coalgebra,
    product_generators,
    unit_space,
)
from coendforge.exactlinalg import (
    QQ,
    LinearMap,
    PadicRationals,
    PrimeField,
    Rationals,
    Space,
    tensor_space,
)
from coendforge.fincat import (
    CategoryMonoidalData,
    DiagramFunctor,
    FinCategory,
    FunctorMonoidalData,
    check_monoidal,
    validate_category,
)
from references import (
    reference_check_monoidal,
    reference_coalgebra_problems,
    reference_monoidal_tables,
    transposed_algebra_problems,
)

# the package rebinds the name cohom to the function
cohom = importlib.import_module("coendforge.cohom")
S3 = list(itertools.permutations(range(3)))


def cyclic(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)], 0


def klein():
    return [[a ^ b for b in range(4)] for a in range(4)], 0


def s3():
    return [[S3.index(tuple(p[q[k]] for k in range(3))) for q in S3] for p in S3], 0


def max_monoid(k):
    return [[max(a, b) for b in range(k + 1)] for a in range(k + 1)], 0


def closure(gens, product) -> set:
    """Every left-bracketed product of gens, found word length by word
    length."""
    reached, words = set(gens), set(gens)
    while words:
        words = {z for y in words for g in gens
                 if (z := product(y, g)) is not None and z not in reached}
        reached |= words
    return reached


# ---------------------------------------------------------------------------
# the generators
# ---------------------------------------------------------------------------

def test_generators_reach_every_item_of_each_monoid():
    for table, _ in [cyclic(1), cyclic(5), klein(), s3(), max_monoid(0), max_monoid(4)]:
        items = range(len(table))
        gens = product_generators(items, lambda y, g, t=table: t[y][g])
        assert closure(gens, lambda y, g, t=table: t[y][g]) == set(items)
        # no generator is reached by the generators before it
        assert all(g not in closure(gens[:k], lambda y, h, t=table: t[y][h])
                   for k, g in enumerate(gens))


def test_cyclic_groups_have_two_generators_and_the_klein_group_three():
    for n in range(2, 13):
        table, _ = cyclic(n)
        assert product_generators(range(n), lambda y, g: table[y][g]) == [0, 1]
    table, _ = klein()
    assert len(product_generators(range(4), lambda y, g: table[y][g])) == 3


def test_every_item_is_a_generator_when_no_product_reaches_one():
    items = ["a", "b", "c", "d"]
    assert product_generators(items, lambda y, g: None) == items


# ---------------------------------------------------------------------------
# parity with the full loops
# ---------------------------------------------------------------------------

monoid_tables = st.one_of(
    st.integers(1, 8).map(cyclic), st.just(klein()), st.just(s3()),
    st.integers(0, 5).map(max_monoid))


def monoidal_category(table, unit) -> FinCategory:
    objs = [f"m{i}" for i in range(len(table))]
    tensor_obj = {(objs[a], objs[b]): objs[table[a][b]]
                  for a in range(len(table)) for b in range(len(table))}
    return FinCategory(objs, [], monoidal=CategoryMonoidalData(objs[unit], tensor_obj))


@settings(max_examples=200)
@given(monoid_tables, st.data())
def test_tensor_table_problems_match_every_triple(monoid, data):
    table, unit = monoid
    n = len(table)
    if data.draw(st.booleans()):
        table = [list(row) for row in table]
        a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        table[a][b] = data.draw(st.integers(0, n - 1))
    cat = monoidal_category(table, unit)
    assert validate_category(cat).problems == reference_monoidal_tables(cat)


def monoid_functor(f, table, unit, lam, absorbing) -> DiagramFunctor:
    """The monoid on copies of K with the coboundary xi_{a,b} = l_a l_b /
    l_{ab}; with absorbing, an object z with F(z) = 0 absorbs every other."""
    cat = monoidal_category(table, unit)
    objs = list(cat.objects) + ["z"] * absorbing
    tensor_obj = dict(cat.monoidal.tensor_obj)
    if absorbing:
        tensor_obj.update({pair: "z" for x in objs for pair in ((x, "z"), ("z", x))})
    cat = FinCategory(objs, [], monoidal=CategoryMonoidalData(objs[unit], tensor_obj))
    zero = Space.std(0, prefix="z")
    xi = {}
    for (a, b), ab in tensor_obj.items():
        if ab == "z":
            xi[(a, b)] = LinearMap(f, Space.std(0), zero, ())
        else:
            i, j, k = int(a[1:]), int(b[1:]), int(ab[1:])
            xi[(a, b)] = scalar(f, f.mul(f.mul(lam[i], lam[j]), f.invert(lam[k])))
    ob = {x: zero if x == "z" else Space.std(1) for x in objs}
    fmon = FunctorMonoidalData(xi=xi, xi_unit=scalar(f, f.invert(lam[unit])))
    return DiagramFunctor(cat, f, ob, {}, monoidal=fmon)


def nonzero(f):
    return st.integers(1, 6).map(f.from_int).filter(lambda v: not f.is_zero(v))


@settings(max_examples=200)
@given(monoid_tables, st.sampled_from([QQ, PrimeField(7), PadicRationals(3)]), st.data())
def test_xi_cocycle_problems_match_every_triple(monoid, f, data):
    table, unit = monoid
    n = len(table)
    lam = data.draw(st.lists(nonzero(f), min_size=n, max_size=n))
    F = monoid_functor(f, table, unit, lam, data.draw(st.booleans()))
    if data.draw(st.booleans()):
        pair = (f"m{data.draw(st.integers(0, n - 1))}", f"m{data.draw(st.integers(0, n - 1))}")
        s = data.draw(nonzero(f).filter(lambda v: v != f.one()))
        F.monoidal = replace(F.monoidal, xi=F.monoidal.xi | {pair: F.monoidal.xi[pair].scale(s)})
    assert validate_category(F.source).ok
    assert check_monoidal(F).problems == reference_check_monoidal(F).problems


def monoid_bialgebra(f, table, unit) -> Bialgebra:
    """The monoid algebra K[M] with its grouplike basis."""
    base = grouplike_coalgebra(f, [f"m{i}" for i in range(len(table))])
    h, n, one = base.carrier, base.carrier.dim, f.one()
    mult = LinearMap.from_sparse(f, tensor_space(h, h), h,
                                 [{table[a][b]: one} for a in range(n) for b in range(n)])
    unit_map = LinearMap.from_sparse(f, unit_space(), h, [{unit: one}])
    return Bialgebra(h, base.delta, base.counit, mult, unit_map)


def edit_column(f, m: LinearMap, j: int, mode: str, other: int, s) -> LinearMap:
    """m with its column j, which has one entry, moved to row other, scaled
    by s, joined by a one at row other (added to the entry when that is its
    row), or cleared."""
    cols = [dict(c) for c in m.cols]
    (row, v), = cols[j].items()
    cols[j] = {"move": {other: v},
               "scale": {row: f.mul(v, s)},
               "add": {row: v, other: f.one()} if other != row else {row: f.add(v, f.one())},
               "clear": {}}[mode]
    return LinearMap.from_sparse(f, m.dom, m.cod, cols)


def draw_edit(data, f, m: LinearMap, columns) -> LinearMap:
    mode = data.draw(st.sampled_from(["move", "scale", "add", "clear"]))
    return edit_column(f, m, data.draw(st.sampled_from(columns)), mode,
                       data.draw(st.integers(0, m.cod.dim - 1)), data.draw(nonzero(f)))


@settings(max_examples=200)
@given(monoid_tables, st.sampled_from([QQ, PrimeField(7)]), st.data())
def test_multiplication_problems_match_every_triple(monoid, f, data):
    table, unit = monoid
    b = monoid_bialgebra(f, table, unit)
    n = b.carrier.dim
    if data.draw(st.booleans()):
        b = Bialgebra(b.carrier, b.delta, b.counit,
                      draw_edit(data, f, b.mult, range(n * n)), b.unit)
    assert b.algebra_problems() == transposed_algebra_problems(b)


@settings(max_examples=300)
@given(monoid_tables, st.sampled_from([QQ, PrimeField(7), PadicRationals(3)]), st.data())
def test_algebra_map_problems_match_every_column(monoid, f, data):
    # delta and eps are compared as algebra maps on the columns e_x (x) e_s,
    # s a generator, once m is associative: an edit at a generator column
    # and one at any other column are both found; a non-associative m, or
    # a monoid whose every element is a generator (Z/1, Z/2, {0..k} under
    # max), takes the full comparison
    table, unit = monoid
    b = monoid_bialgebra(f, table, unit)
    n = b.carrier.dim
    gens = product_generators(range(n), lambda y, g: table[y][g])
    others = [x for x in range(n) if x not in gens]
    maps = {"delta": b.delta, "counit": b.counit, "mult": b.mult}
    key = data.draw(st.sampled_from(["delta", "counit", None]))
    if key is not None:
        at = data.draw(st.sampled_from(["generator", "other"] if others else ["generator"]))
        maps[key] = draw_edit(data, f, maps[key], gens if at == "generator" else others)
    if data.draw(st.booleans()):
        maps["mult"] = draw_edit(data, f, b.mult, range(n * n))
    b = Bialgebra(b.carrier, maps["delta"], maps["counit"], maps["mult"], b.unit)
    assert b.algebra_problems() == transposed_algebra_problems(b)
    assert b.check() == reference_coalgebra_problems(b) + transposed_algebra_problems(b)


# ---------------------------------------------------------------------------
# the work done on a valid Z/16
# ---------------------------------------------------------------------------

def test_check_monoidal_tries_two_of_sixteen_middles(monkeypatch):
    # the 2-cocycle reads one from_int per triple: 2 * 16^2 of them with the
    # generators g0, g1 in the middle, against 16^3 for every triple; the
    # unit squares read one per square, 2 per object
    F = graded_functor(QQ, [QQ.from_int(a) for a in range(1, 17)])
    calls = []
    real = Rationals.from_int

    def counting(self, n):
        calls.append(n)
        return real(self, n)

    monkeypatch.setattr(Rationals, "from_int", counting)
    assert check_monoidal(F).ok
    assert len(calls) <= 2 * 16 ** 2 + 2 * 16


def test_algebra_problems_moves_two_of_sixteen_middles(monkeypatch):
    # every lazy Kronecker product algebra_problems builds on K[Z/16] has at
    # most 2 * 16^2 entries: the n^2 |S| coefficients of the associativity
    # check, where the full transposed check builds 16^3
    b = group_hopf_algebra(QQ, [f"g{i}" for i in range(16)],
                           lambda i, j: (i + j) % 16, lambda i: (-i) % 16)
    sizes = []

    def counting(module):
        real = module.kron_compose

        def kron_compose(a, c, m):
            out = real(a, c, m)
            sizes.append(sum(map(len, out.cols)))
            return out
        return kron_compose

    monkeypatch.setattr(cohom, "kron_compose", counting(cohom))
    monkeypatch.setattr(references, "kron_compose", counting(references))
    assert transposed_algebra_problems(b) == []
    assert max(sizes) == 16 ** 3
    sizes.clear()
    assert b.algebra_problems() == []
    assert max(sizes) <= 2 * 16 ** 2


def test_algebra_map_laws_read_two_of_sixteen_columns(monkeypatch):
    # delta o m and eps o m are compared on the 2 * 16 columns e_x (x) e_s,
    # s in {g0, g1}; when every basis vector is a generator, m itself is
    # composed and no restricted copy is built
    composed = []
    real = LinearMap.__matmul__

    def recording(self, other):
        composed.append(other)
        return real(self, other)

    monkeypatch.setattr(LinearMap, "__matmul__", recording)
    z16 = group_hopf_algebra(QQ, [f"g{i}" for i in range(16)],
                             lambda i, j: (i + j) % 16, lambda i: (-i) % 16)
    assert z16.algebra_problems() == []
    # delta o m_s, eps o m_s, delta o u, eps o u
    assert [m.dom.dim for m in composed] == [2 * 16, 2 * 16, 1, 1]
    z2 = group_hopf_algebra(QQ, ["g0", "g1"], lambda i, j: (i + j) % 2, lambda i: i)
    for b in (z2, function_hopf(QQ, 3)):
        composed.clear()
        assert b.algebra_problems() == []
        assert composed[0] is composed[1] is b.mult
