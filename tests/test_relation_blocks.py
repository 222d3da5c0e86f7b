"""One relation matrix per diagram.

Each morphism f: X -> Y of a ``Diagram`` has a relation block R_f, the map
cohom(F(X), F(Y)) -> N = (+)_x cohom(F(x), F(x)) whose columns are
p - q, p = cohom(id, F(f)) into the block at X and q = cohom(F(f), id) into
the block at Y.  ``fincat.relation_columns`` reads it straight off the
sparse columns of F(f), and the diagram keeps the blocks side by side
(``Diagram.relations``): the coend's relation matrix, its cowedge check and
the naturality check all read them.  The cowedge check tests W o R_f = 0
for W = [w_x]_x, and the naturality check runs the same test on
W = [coact(t_x)]_x, which is exact by the coact bijection.

Here the blocks are compared, by ``repr`` (values, their types and key
order), with the route through ``cohom_on_maps`` in ``tests/references.py``,
and both checks with the per-morphism references (two composed maps per
morphism, and ``cohom.intertwines``) on random diagrams over Q, F_7 and Q_3
with 0-dim objects, endomorphisms, parallel arrows and control legs, for
lawful, tampered, random and misshapen families.  The composition-law
checks, which skip every pair and triple with an identity in it, are
compared with a walk over all of them, and a relation-free cokernel is
pinned as an identity with no elimination.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import (
    reference_composition_problems,
    reference_cowedge_problems,
    reference_functor_law_problems,
    reference_natural_problems,
    reference_relation_columns,
)
from test_control_legs import controlled_functors

from coendforge import exactlinalg
from coendforge.coend import coend_of_diagram, control_legs
from coendforge.exactlinalg import (
    QQ,
    LinearMap,
    PadicRationals,
    PrimeField,
    ScalarError,
    Space,
    cokernel,
)
from coendforge.fincat import (
    DiagramFunctor,
    FinCategory,
    Transformation,
    cowedge_problems,
    diagram_of_functor,
    natural_problems,
    validate_category,
    validate_functor,
)

FIELDS = [QQ, PrimeField(7), PadicRationals(3)]


@st.composite
def diagrams(draw):
    """A random diagram with the legs of its controls appended: up to three
    objects of dim 0..2, up to four arrows with random ends (so endomorphisms
    and parallel arrows), entries in -2..2."""
    F, controls = draw(controlled_functors())
    d = diagram_of_functor(F)
    legs = [leg for ctrl in controls for leg in control_legs(d, ctrl)]
    return replace(d, morphisms=d.morphisms + legs)


def _random_map(draw, f, dom_dim, cod_dim):
    rows = draw(st.lists(st.lists(st.integers(-1, 1), min_size=dom_dim, max_size=dom_dim),
                         min_size=cod_dim, max_size=cod_dim))
    return LinearMap(f, Space.std(dom_dim), Space.std(cod_dim),
                     tuple(tuple(f.from_int(a) for a in row) for row in rows))


def _spoil(draw, d, family, shape):
    """The family as it is, with one component scaled by 3 or replaced by a
    random map, with one component of a wrong shape, or with one missing."""
    f = d.field
    mode = draw(st.sampled_from(["lawful", "scaled", "random", "shape", "missing"]))
    family = dict(family)
    x = draw(st.sampled_from(d.objects))
    rows, cols = shape(x)
    if mode == "scaled":
        family[x] = family[x].scale(f.from_int(3))
    elif mode == "random":
        family[x] = _random_map(draw, f, cols, rows)
    elif mode == "shape":
        family[x] = _random_map(draw, f, cols + 1, rows)
    elif mode == "missing":
        del family[x]
    return family


@settings(max_examples=150)
@given(diagrams())
def test_relation_blocks_match_the_cohom_route_by_repr(d):
    expected = [col for m in d.morphisms for col in reference_relation_columns(d, d.offsets, m)]
    assert repr(d.relations) == repr(expected)
    assert [list(col) for col in d.relations] == [list(col) for col in expected]


@settings(max_examples=150)
@given(diagrams(), st.data())
def test_cowedge_problems_match_the_reference(d, data):
    r = coend_of_diagram(d)
    assert cowedge_problems(d, r.injections, r.carrier) == []
    w = _spoil(data.draw, d, r.injections,
               lambda x: (r.carrier.dim, d.spaces[x].dim ** 2))
    assert cowedge_problems(d, w, r.carrier) == reference_cowedge_problems(d, w, r.carrier)
    # a random family into a random M
    m = Space.std(data.draw(st.integers(0, 2)), prefix="m")
    w = {x: _random_map(data.draw, d.field, d.spaces[x].dim ** 2, m.dim) for x in d.objects}
    assert cowedge_problems(d, w, m) == reference_cowedge_problems(d, w, m)


@settings(max_examples=150)
@given(diagrams(), st.data())
def test_natural_problems_match_the_reference(d, data):
    r = coend_of_diagram(d)
    assert natural_problems(d, Transformation(r.delta), r.carrier) == []
    t = Transformation(_spoil(data.draw, d, r.delta,
                              lambda x: (d.spaces[x].dim * r.carrier.dim, d.spaces[x].dim)))
    assert natural_problems(d, t, r.carrier) == reference_natural_problems(d, t, r.carrier)
    m = Space.std(data.draw(st.integers(0, 2)), prefix="m")
    t = Transformation({x: _random_map(data.draw, d.field, d.spaces[x].dim,
                                       d.spaces[x].dim * m.dim) for x in d.objects})
    assert natural_problems(d, t, m) == reference_natural_problems(d, t, m)


@settings(max_examples=100)
@given(diagrams())
def test_the_coend_is_the_quotient_by_the_reference_columns(d):
    r = coend_of_diagram(d)
    expected = [col for m in d.morphisms for col in reference_relation_columns(d, d.offsets, m)]
    pi, section = cokernel(LinearMap.from_sparse(
        d.field, Space.std(len(expected), prefix="r"), r.nspace, expected))
    assert (pi.cols, section.cols) == (r.pi.cols, r.section.cols)
    assert pi.cod == r.carrier


def test_an_endomorphism_whose_p_and_q_cancel_leaves_empty_columns():
    # F(f) = diag(1, 2) on K^2: p and q land in one block, p - q at (j, i) is
    # (d_j - d_i) e_(j,i), and the columns (j, j) cancel
    k2 = Space.std(2)
    F = DiagramFunctor(FinCategory(["a"], [("f", "a", "a")]), QQ, {"a": k2},
                       {"f": LinearMap(QQ, k2, k2, ((1, 0), (0, 2)))})
    d = diagram_of_functor(F)
    assert d.relations == [{}, {1: -1}, {2: 1}, {}]
    assert d.relations == reference_relation_columns(d, d.offsets, d.morphisms[0])


def test_the_diagram_keeps_its_relation_blocks():
    k = Space.std(1)
    one = LinearMap(QQ, k, k, ((2,),))
    F = DiagramFunctor(FinCategory(["a", "b"], [("f", "a", "b"), ("g", "a", "b")]), QQ,
                       {"a": k, "b": k}, {"f": one, "g": one})
    d = diagram_of_functor(F)
    r = coend_of_diagram(d)
    assert d.relations is r.diagram.relations
    assert d.relations == [{0: 2, 1: -2}, {0: 2, 1: -2}]


def test_a_family_over_another_field_is_refused_as_a_composition_would():
    k = Space.std(1)
    F = DiagramFunctor(FinCategory(["a", "b"], [("f", "a", "b")]), QQ, {"a": k, "b": k},
                       {"f": LinearMap(QQ, k, k, ((2,),))})
    d = diagram_of_functor(F)
    f7 = PrimeField(7)
    w = {x: LinearMap(f7, k, k, ((1,),)) for x in "ab"}
    for check, family in ((cowedge_problems, w), (natural_problems, Transformation(w))):
        with pytest.raises(ScalarError, match="composing maps over different fields"):
            check(d, family, k)


# ---------------------------------------------------------------------------
# composition laws skip what holds trivially
# ---------------------------------------------------------------------------

@st.composite
def categories(draw):
    """Objects a, b, c and up to five arrows with random ends; each
    composable pair of arrows gets a random composite among the morphisms
    with its endpoints, identities included, or, rarely, none."""
    objs = ["a", "b", "c"][:draw(st.integers(1, 3))]
    ends = draw(st.lists(st.tuples(st.sampled_from(objs), st.sampled_from(objs)), max_size=5))
    arrows = [(f"f{k}", a, b) for k, (a, b) in enumerate(ends)]
    names = [(f"id:{o}", o, o) for o in objs] + arrows
    table = {}
    for g, gd, gc in arrows:
        for f, fd, fc in arrows:
            candidates = [n for n, d, c in names if (d, c) == (fd, gc)]
            if fc == gd and candidates and draw(st.integers(0, 9)):
                table[(g, f)] = draw(st.sampled_from(candidates))
    return FinCategory(objs, arrows, table)


@settings(max_examples=300)
@given(categories())
def test_validate_category_matches_the_walk_over_every_pair_and_triple(cat):
    assert validate_category(cat).problems == reference_composition_problems(cat)


@settings(max_examples=200)
@given(categories().filter(lambda cat: validate_category(cat).ok), st.data())
def test_validate_functor_matches_the_walk_over_every_pair(cat, data):
    f = data.draw(st.sampled_from(FIELDS))
    spaces = {o: Space.std(data.draw(st.integers(0, 2))) for o in cat.objects}
    maps = {}
    for m in cat.non_identity():
        # mostly scalar multiples of one map per pair of ends, so that some
        # composites agree
        n, k = spaces[m.dom].dim, spaces[m.cod].dim
        c = data.draw(st.sampled_from([0, 1, 1, 2]))
        rows = [[f.from_int(c * int(i == j)) for j in range(n)] for i in range(k)]
        maps[m.name] = LinearMap(f, spaces[m.dom], spaces[m.cod], tuple(map(tuple, rows)))
    F = DiagramFunctor(cat, f, spaces, maps)
    assert validate_functor(F).problems == reference_functor_law_problems(F)


# ---------------------------------------------------------------------------
# a relation-free cokernel
# ---------------------------------------------------------------------------

def test_a_relation_free_cokernel_is_the_identity_with_no_elimination(monkeypatch):
    calls = []
    real = exactlinalg._rref
    monkeypatch.setattr(exactlinalg, "_rref", lambda *args: calls.append(1) or real(*args))
    for f in FIELDS:
        for k in (0, 2):
            cod = Space(("u", "v", "w"), (1, -2, 0))
            pi, s = cokernel(LinearMap.from_sparse(f, Space.std(k), cod, [{}] * k))
            assert pi is s and pi.dom is cod and pi.cod is cod
            assert pi.cols == [{0: 1}, {1: 1}, {2: 1}] and pi._ident is True
    assert calls == []
    # with a relation the elimination runs and the quotient is derived
    pi, s = cokernel(LinearMap.from_sparse(QQ, Space.std(1), cod, [{0: 1, 2: 1}]))
    assert calls == [1] and pi.cod.labels == ("v", "w") and pi.cod.weights == (-2, 0)
