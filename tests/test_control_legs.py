"""A control is a family of diagram morphisms.

A control (C, X |-> C.X, xi_X: F(C.X) -> C (x) F(X)) used to add relations
of its own kind, built through the adjunction: cohom(id, xi_X) into the
block at C.X minus the coaction of (id_C (x) coev) o xi_X into the block at
X.  On C = K that is, column for column, the morphism relation of the leg
C.X -> X whose map is xi_X read as F(C.X) -> F(X), so ``c_coend`` appends
the legs of ``coend.control_legs`` to the diagram and builds no other
relation.  Shape lemma: invertible xi force dim F(C.X) = dim C * dim F(X),
which on a finite object set makes every cohom(F(C.X), C (x) F(X)) 0 unless
dim C = 1, so such a control adds no leg.

Here the legs' relation columns are compared with the adjunction's route in
``tests/references.py`` on random diagrams (0-dim objects, parallel arrows
and endomorphisms) over Q, F_7 and Q_3, each with one or two controls, and
the controlled coend with the quotient by the morphism columns followed by
the reference columns.  The legs also enter the cowedge and naturality
checks, and the shape lemma is pinned on both of its cases."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import reference_control_relation_columns

from coendforge.coend import (
    ControlData,
    MissingControlData,
    _morphism_relation_columns,
    c_coend,
    coalgebra_on_coend,
    coend_of_functor,
    control_legs,
    epi_to_c_coend,
    verify_cowedge,
)
from coendforge.exactlinalg import (
    QQ,
    LinearMap,
    PadicRationals,
    PrimeField,
    Space,
    cokernel,
    identity,
    kron_compose,
    tensor_space,
)
from coendforge.fincat import DiagramFunctor, FinCategory, diagram_of_functor
from coendforge.specfile import load_spec, resolve_control

SPECS = Path(__file__).resolve().parent.parent / "specs"
FIELDS = [QQ, PrimeField(7), PadicRationals(3)]
UNITS = [1, 2, 3, -1, -2, -3]  # nonzero in Q and in F_7


def _map(f, dom, cod, rows):
    return LinearMap(f, dom, cod, tuple(tuple(f.from_int(a) for a in row) for row in rows))


def _matrix(draw, f, dom, cod):
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=dom.dim, max_size=dom.dim),
                         min_size=cod.dim, max_size=cod.dim))
    return _map(f, dom, cod, rows)


def _invertible(draw, f, dom, cod):
    """A random invertible map: row additions, then nonzero row scalings."""
    k = dom.dim
    rows = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(draw(st.integers(0, 3)) if k > 1 else 0):
        i, j = draw(st.permutations(range(k)))[:2]
        c = draw(st.integers(-2, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    for i in range(k):
        c = draw(st.sampled_from(UNITS))
        rows[i] = [c * a for a in rows[i]]
    return _map(f, dom, cod, rows)


@st.composite
def controls_on(draw, f, spaces, name):
    """A control the shape rule allows: C = K with a dimension-preserving
    action and invertible xi, or C of dim 0 (every C.X 0-dim) or dim 2 or 3
    (every object 0-dim)."""
    objs = list(spaces)
    zeros = [x for x in objs if spaces[x].dim == 0]
    dims = [1] + ([0] if zeros else []) + ([2, 3] if len(zeros) == len(objs) else [])
    c = Space.std(draw(st.sampled_from(dims)), prefix="c")
    action, xi = {}, {}
    for x in objs:
        if c.dim == 1:
            cx = draw(st.sampled_from([y for y in objs if spaces[y].dim == spaces[x].dim]))
        else:
            cx = draw(st.sampled_from(zeros))
        action[x] = cx
        xi[x] = _invertible(draw, f, spaces[cx], tensor_space(c, spaces[x]))
    return ControlData(name, c, action, xi)


@st.composite
def controlled_functors(draw):
    f = draw(st.sampled_from(FIELDS))
    objs = [f"x{i}" for i in range(draw(st.integers(1, 3)))]
    spaces = {x: Space.std(draw(st.integers(0, 2)), prefix=x) for x in objs}
    ends = draw(st.lists(st.tuples(st.sampled_from(objs), st.sampled_from(objs)), max_size=4))
    arrows = [(f"f{k}", a, b) for k, (a, b) in enumerate(ends)]
    maps = {name: _matrix(draw, f, spaces[a], spaces[b]) for name, a, b in arrows}
    F = DiagramFunctor(FinCategory(objs, arrows), f, spaces, maps)
    controls = [draw(controls_on(f, spaces, f"c{k}")) for k in range(draw(st.integers(1, 2)))]
    return F, controls


def quotient_by(r, cols):
    """The coend data of r's ambient N over the relation columns cols."""
    f, objs = r.field, r.diagram.objects
    pi, section = cokernel(
        LinearMap.from_sparse(f, Space.std(len(cols), prefix="r"), r.nspace, cols))
    injections = {
        x: LinearMap.from_sparse(f, r.blocks[x].carrier, pi.cod,
                                 pi.cols[r.offsets[x]:r.offsets[x] + r.blocks[x].carrier.dim])
        for x in objs}
    q = replace(r, carrier=pi.cod, pi=pi, section=section, injections=injections)
    q.coalgebra = coalgebra_on_coend(q)
    q.delta = {x: kron_compose(identity(r.diagram.spaces[x], f), injections[x], r.blocks[x].coev)
               for x in objs}
    return q


def _bits(m):
    return m.dom, m.cod, m.entries


def _same_coend(rc, r):
    assert _bits(rc.pi) == _bits(r.pi)
    assert _bits(rc.section) == _bits(r.section)
    assert _bits(rc.coalgebra.delta) == _bits(r.coalgebra.delta)
    assert _bits(rc.coalgebra.counit) == _bits(r.coalgebra.counit)
    for x in r.diagram.objects:
        assert _bits(rc.injections[x]) == _bits(r.injections[x])
        assert _bits(rc.delta[x]) == _bits(r.delta[x])


@settings(max_examples=150)
@given(controlled_functors())
def test_legs_give_the_control_relations_column_for_column(case):
    F, controls = case
    r = coend_of_functor(F)
    d = diagram_of_functor(F)
    cols = [c for m in d.morphisms for c in _morphism_relation_columns(d, r.offsets, m)]
    for ctrl in controls:
        legs = control_legs(d, ctrl)
        assert len(legs) == (len(d.objects) if ctrl.space.dim == 1 else 0)
        got = [c for leg in legs for c in _morphism_relation_columns(d, r.offsets, leg)]
        expected = reference_control_relation_columns(d, r.offsets, ctrl)
        assert got == expected
        cols += expected
    rc = c_coend(F, controls)
    q = quotient_by(r, cols)
    _same_coend(rc, q)
    assert _bits(epi_to_c_coend(r, rc)) == _bits(epi_to_c_coend(r, q))
    # the legs are morphisms of rc's diagram, so its checks cover them
    assert verify_cowedge(rc) == []
    assert rc.naturality_problems == []


def merge01():
    spec = load_spec(str(SPECS / "discrete_points.json"))
    F = spec.functors["F"]
    return F, resolve_control(spec, F, "merge01")


def test_a_tampered_injection_names_the_legs_at_its_object():
    # merge01 swaps p0 and p1: its legs are p1 -> p0, p0 -> p1 and p2 -> p2
    F, ctrl = merge01()
    rc = c_coend(F, [ctrl])
    assert [(m.dom, m.cod) for m in rc.diagram.morphisms] == [
        ("p1", "p0"), ("p0", "p1"), ("p2", "p2")]
    assert verify_cowedge(rc) == []
    rc.injections["p0"] = rc.injections["p0"].scale(Fraction(3))
    assert verify_cowedge(rc) == ["cowedge relation fails at morphism merge01.xi[p0]",
                                  "cowedge relation fails at morphism merge01.xi[p1]"]


def test_a_tampered_universal_coaction_names_the_legs_at_its_object():
    F, ctrl = merge01()
    rc = c_coend(F, [ctrl])
    rc.delta["p0"] = rc.delta["p0"].scale(Fraction(3))
    assert rc.naturality_problems == [
        "universal family: naturality fails at morphism merge01.xi[p0]",
        "universal family: naturality fails at morphism merge01.xi[p1]"]


def test_a_dim_2_control_on_zero_spaces_gives_the_plain_coend():
    z = Space.std(0)
    F = DiagramFunctor(FinCategory(["a", "b"], [("f", "a", "b")]), QQ, {"a": z, "b": z},
                       {"f": _map(QQ, z, z, [])})
    c = Space.std(2, prefix="c")
    ctrl = ControlData("c2", c, {"a": "b", "b": "a"},
                       {x: _map(QQ, z, tensor_space(c, z), []) for x in "ab"})
    assert control_legs(diagram_of_functor(F), ctrl) == []
    _same_coend(c_coend(F, [ctrl]), coend_of_functor(F))


def test_a_dim_0_control_next_to_nonzero_objects_gives_the_plain_coend():
    z, k, k2 = Space.std(0), Space.std(1), Space.std(2)
    F = DiagramFunctor(FinCategory(["z", "u", "v"], [("f", "u", "v")]), QQ,
                       {"z": z, "u": k, "v": k2}, {"f": _map(QQ, k, k2, [[1], [2]])})
    c = Space.std(0, prefix="c")
    ctrl = ControlData("c0", c, {x: "z" for x in "zuv"},
                       {x: _map(QQ, z, tensor_space(c, F.space(x)), []) for x in "zuv"})
    assert control_legs(diagram_of_functor(F), ctrl) == []
    _same_coend(c_coend(F, [ctrl]), coend_of_functor(F))


def test_a_dim_2_control_on_nonzero_spaces_is_refused_for_its_shape():
    # an invertible xi needs dim F(C.x) = 2 dim F(x): u -> w has it, but no
    # object is 4-dim, so the square xi at the largest object w is refused
    k, k2 = Space.std(1), Space.std(2)
    F = DiagramFunctor(FinCategory(["u", "w"], []), QQ, {"u": k, "w": k2}, {})
    c = Space.std(2, prefix="c")
    ctrl = ControlData("c2", c, {"u": "w", "w": "w"},
                       {"u": _map(QQ, k2, tensor_space(c, k), [[1, 0], [0, 1]]),
                        "w": _map(QQ, k2, k2, [[1, 0], [0, 1]])})
    with pytest.raises(MissingControlData) as exc:
        c_coend(F, [ctrl])
    assert str(exc.value) == "control 'c2': xi at 'w' has wrong shape"
