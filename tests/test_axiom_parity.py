"""The structure checks in `cohom` state each axiom as one exact map
identity.  This pins their problem lists, message for message and in order,
against reference implementations that evaluate every axiom basis vector by
basis vector with hand-rolled Kronecker application, on valid structures, on
the same structures with one entry perturbed, and on maps of the wrong
shape.  A wrong shape is tried on the map whose own check tests it."""

from __future__ import annotations

import itertools
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from coendforge.cohom import (
    Bialgebra,
    Coalgebra,
    Comodule,
    HopfAlgebra,
    coend_object,
    group_hopf_algebra,
    grouplike_coalgebra,
    unit_space,
)
from coendforge.exactlinalg import (
    QQ,
    LinearMap,
    PrimeField,
    Space,
    _add_into,
    _apply,
    tensor_space,
)
from references import transposed_algebra_problems

FIELDS = [QQ, PrimeField(7)]


# ---------------------------------------------------------------------------
# reference checks: the basis-by-basis loops the map identities replaced
# ---------------------------------------------------------------------------

def _apply2(cols1, n2, cols2, m2, vec: dict, f) -> dict:
    """Apply (m1 (x) m2) to a sparse vector over dom1 (x) dom2; n2/m2 are the
    domain/codomain dimensions of the second factor."""
    add, mul, is_zero = f.add, f.mul, f.is_zero
    out: dict = {}
    for k, c in vec.items():
        j1, j2 = divmod(k, n2)
        col2 = cols2[j2]
        for r1, a1 in cols1[j1].items():
            ca1 = mul(c, a1)
            base = r1 * m2
            for r2, a2 in col2.items():
                idx = base + r2
                v = mul(ca1, a2)
                if idx in out:
                    v = add(out[idx], v)
                    if is_zero(v):
                        del out[idx]
                        continue
                out[idx] = v
    return out


def _id_cols(n, f):
    return [{i: f.one()} for i in range(n)]


def _unit_vec(i, f):
    return {i: f.one()}


def reference_coalgebra_check(c: Coalgebra) -> list[str]:
    f = c.field
    n = c.carrier.dim
    if c.delta.dom.dim != n or c.delta.cod.dim != n * n:
        return ["comultiplication has wrong shape"]
    if c.counit.dom.dim != n or c.counit.cod.dim != 1:
        return ["counit has wrong shape"]
    dcols = c.delta.cols
    ecols = c.counit.cols
    idc = _id_cols(n, f)
    problems = []
    coassoc = counit_l = counit_r = True
    for i in range(n):
        d = dcols[i]
        if _apply2(dcols, n, idc, n, d, f) != _apply2(idc, n, dcols, n * n, d, f):
            coassoc = False
        if _apply2(ecols, n, idc, n, d, f) != _unit_vec(i, f):
            counit_l = False
        if _apply2(idc, n, ecols, 1, d, f) != _unit_vec(i, f):
            counit_r = False
    if not coassoc:
        problems.append("comultiplication is not coassociative")
    if not counit_l:
        problems.append("left counit law fails")
    if not counit_r:
        problems.append("right counit law fails")
    return problems


def reference_comodule_check(com: Comodule) -> list[str]:
    f = com.over.field
    nv = com.space.dim
    nc = com.over.carrier.dim
    if com.rho.dom.dim != nv or com.rho.cod.dim != nv * nc:
        return ["coaction has wrong shape"]
    rcols = com.rho.cols
    dcols = com.over.delta.cols
    ecols = com.over.counit.cols
    idv = _id_cols(nv, f)
    idc = _id_cols(nc, f)
    problems = []
    coassoc = counit = True
    for i in range(nv):
        r = rcols[i]
        if _apply2(rcols, nc, idc, nc, r, f) != _apply2(idv, nc, dcols, nc * nc, r, f):
            coassoc = False
        if _apply2(idv, nc, ecols, 1, r, f) != _unit_vec(i, f):
            counit = False
    if not coassoc:
        problems.append("coaction is not coassociative")
    if not counit:
        problems.append("coaction counit law fails")
    return problems


def first_wrong_shape(s, count: int) -> list[str]:
    """The message for the first of delta, counit, mult, unit and antipode,
    in that order and among the first count of them, whose dimensions are
    not those of C -> C (x) C, C -> K, C (x) C -> C, K -> C and C -> C."""
    n = s.carrier.dim
    shapes = [("comultiplication", "delta", n, n * n), ("counit", "counit", n, 1),
              ("multiplication", "mult", n * n, n), ("unit", "unit", 1, n),
              ("antipode", "antipode", n, n)]
    for name, attr, dom, cod in shapes[:count]:
        m = getattr(s, attr)
        if (m.dom.dim, m.cod.dim) != (dom, cod):
            return [f"{name} has wrong shape"]
    return []


def reference_algebra_problems(b: Bialgebra) -> list[str]:
    f = b.field
    n = b.carrier.dim
    m, u = b.mult, b.unit
    wrong = first_wrong_shape(b, 4)
    if wrong:
        return wrong
    mcols = m.cols
    ucols = u.cols
    dcols = b.delta.cols
    ecols = b.counit.cols
    idc = _id_cols(n, f)
    assoc = unit_law = compat = eps_alg = True
    for i in range(n):
        for j in range(n):
            eij = _unit_vec(i * n + j, f)
            for k in range(n):
                left = _apply(mcols, _apply2(mcols, n, idc, n,
                                             _unit_vec((i * n + j) * n + k, f), f), f)
                right = _apply(mcols, _apply2(idc, n * n, mcols, n,
                                              _unit_vec(i * (n * n) + j * n + k, f), f), f)
                if left != right:
                    assoc = False
            mij = _apply(mcols, eij, f)
            lhs = _apply(dcols, mij, f)
            di, dj = dcols[i], dcols[j]
            rhs: dict = {}
            for ab, ca in di.items():
                a, b_ = divmod(ab, n)
                for cd, cb in dj.items():
                    c, d = divmod(cd, n)
                    coef = f.mul(ca, cb)
                    for ac, cac in mcols[a * n + c].items():
                        for bd, cbd in mcols[b_ * n + d].items():
                            _add_into(rhs, ac * n + bd, f.mul(coef, f.mul(cac, cbd)), f)
            if lhs != rhs:
                compat = False
            li = _apply(ecols, mij, f).get(0, f.zero())
            ri = f.mul(
                _apply(ecols, _unit_vec(i, f), f).get(0, f.zero()),
                _apply(ecols, _unit_vec(j, f), f).get(0, f.zero()),
            )
            if li != ri:
                eps_alg = False
    one = _apply(ucols, _unit_vec(0, f), f)
    for i in range(n):
        l = _apply2(ucols, n, idc, n, _unit_vec(i, f), f)
        r = _apply2(idc, 1, ucols, n, _unit_vec(i, f), f)
        if _apply(mcols, l, f) != _unit_vec(i, f) or _apply(mcols, r, f) != _unit_vec(i, f):
            unit_law = False
    du = _apply(dcols, one, f)
    uu = {a * n + b_: f.mul(ca, cb) for a, ca in one.items() for b_, cb in one.items()}
    uu = {k: v for k, v in uu.items() if not f.is_zero(v)}
    eps_u = _apply(ecols, one, f)
    problems = []
    if not assoc:
        problems.append("multiplication is not associative")
    if not unit_law:
        problems.append("unit law fails")
    if not compat:
        problems.append("comultiplication is not an algebra morphism")
    if not eps_alg:
        problems.append("counit is not an algebra morphism")
    if du != uu:
        problems.append("unit is not grouplike")
    if eps_u != {0: f.one()}:
        problems.append("counit of unit is not 1")
    return problems


def reference_antipode_problems(h: HopfAlgebra) -> list[str]:
    f = h.field
    n = h.carrier.dim
    s = h.antipode
    wrong = first_wrong_shape(h, 5)
    if wrong:
        return wrong
    scols = s.cols
    mcols = h.mult.cols
    dcols = h.delta.cols
    ecols = h.counit.cols
    ucols = h.unit.cols
    idc = _id_cols(n, f)
    problems = []
    left = right = True
    for i in range(n):
        d = dcols[i]
        ue = _apply(ucols, _apply(ecols, _unit_vec(i, f), f), f)
        if _apply(mcols, _apply2(scols, n, idc, n, d, f), f) != ue:
            left = False
        if _apply(mcols, _apply2(idc, n, scols, n, d, f), f) != ue:
            right = False
    if not left:
        problems.append("left antipode axiom fails")
    if not right:
        problems.append("right antipode axiom fails")
    return problems


# ---------------------------------------------------------------------------
# valid structures
# ---------------------------------------------------------------------------

def comatrix(f, d):
    ce = coend_object(Space.std(d), f)
    return ce.coalgebra, ce.comodule


def graded_comodule(c: Coalgebra, degrees) -> Comodule:
    """Over a grouplike coalgebra: v_i |-> v_i (x) g_{degrees[i]}."""
    f, n = c.field, c.carrier.dim
    v = Space.std(len(degrees), prefix="v")
    cols = [{i * n + g: f.one()} for i, g in enumerate(degrees)]
    return Comodule(v, c, LinearMap.from_sparse(f, v, tensor_space(v, c.carrier), cols))


def cyclic_hopf(f, n):
    return group_hopf_algebra(f, [f"g{i}" for i in range(n)],
                              lambda i, j: (i + j) % n, lambda i: (-i) % n)


S3 = list(itertools.permutations(range(3)))


def s3_hopf(f):
    def product(i, j):
        a, b = S3[i], S3[j]
        return S3.index(tuple(a[b[k]] for k in range(3)))

    def inverse(i):
        a = S3[i]
        return S3.index(tuple(sorted(range(3), key=a.__getitem__)))

    return group_hopf_algebra(f, [str(p) for p in S3], product, inverse)


def function_hopf(f, n):
    """The dual of the group algebra of Z/n: delta_g |-> sum_{h+k=g} delta_h
    (x) delta_k, pointwise product, so the compatibility law mixes terms."""
    h = Space.std(n, prefix="d")
    hh = tensor_space(h, h)
    one = f.one()
    delta = LinearMap.from_sparse(
        f, h, hh, [{a * n + (g - a) % n: one for a in range(n)} for g in range(n)])
    counit = LinearMap.from_sparse(f, h, unit_space(), [{0: one} if g == 0 else {}
                                                        for g in range(n)])
    mult = LinearMap.from_sparse(f, hh, h, [{a: one} if a == b else {}
                                            for a in range(n) for b in range(n)])
    unit = LinearMap.from_sparse(f, unit_space(), h, [{g: one for g in range(n)}])
    antipode = LinearMap.from_sparse(f, h, h, [{(-g) % n: one} for g in range(n)])
    return HopfAlgebra(h, delta, counit, mult, unit, antipode)


# ---------------------------------------------------------------------------
# perturbations
# ---------------------------------------------------------------------------

def scalars(f):
    if f == QQ:
        return st.builds(Fraction, st.integers(-3, 3).filter(bool), st.sampled_from([1, 2]))
    return st.integers(1, f.p - 1)


@st.composite
def perturbed(draw, m: LinearMap):
    """m with one entry shifted by a nonzero scalar."""
    f = m.field
    if m.dom.dim == 0 or m.cod.dim == 0:
        return m
    j = draw(st.integers(0, m.dom.dim - 1))
    i = draw(st.integers(0, m.cod.dim - 1))
    cols = [dict(c) for c in m.cols]
    _add_into(cols[j], i, draw(scalars(f)), f)
    return LinearMap.from_sparse(f, m.dom, m.cod, cols)


@st.composite
def misshapen(draw, m: LinearMap):
    """A map of another shape, with random entries."""
    f = m.field
    dims = (m.dom.dim, m.cod.dim)
    a, b = draw(st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda d: d != dims))
    entries = draw(st.lists(st.lists(st.integers(0, 2), min_size=a, max_size=a),
                            min_size=b, max_size=b))
    return LinearMap(f, Space.std(a), Space.std(b),
                     tuple(tuple(f.from_int(x) for x in row) for row in entries))


def vary(draw, fields: dict, shape_key):
    """Replace at most one map of fields: perturb an entry, or swap in a map
    of the wrong shape for one of the maps named in shape_key."""
    mode = draw(st.sampled_from(["valid", "perturb", "shape"]))
    if mode == "valid":
        return fields
    if mode == "perturb":
        key = draw(st.sampled_from(sorted(fields)))
        return {**fields, key: draw(perturbed(fields[key]))}
    key = draw(st.sampled_from(shape_key))
    return {**fields, key: draw(misshapen(fields[key]))}


fields_st = st.sampled_from(FIELDS)


@st.composite
def coalgebras(draw):
    f = draw(fields_st)
    c = draw(st.sampled_from([
        lambda: comatrix(f, draw(st.integers(1, 3)))[0],
        lambda: grouplike_coalgebra(f, [f"g{i}" for i in range(draw(st.integers(1, 4)))]),
        lambda: cyclic_hopf(f, draw(st.integers(1, 4))),
        lambda: function_hopf(f, draw(st.integers(1, 4))),
    ]))()
    v = vary(draw, {"delta": c.delta, "counit": c.counit}, ["delta", "counit"])
    return Coalgebra(c.carrier, v["delta"], v["counit"])


@st.composite
def comodules(draw):
    f = draw(fields_st)
    if draw(st.booleans()):
        c, com = comatrix(f, draw(st.integers(1, 3)))
    else:
        c = grouplike_coalgebra(f, [f"g{i}" for i in range(draw(st.integers(1, 3)))])
        degrees = draw(st.lists(st.integers(0, c.carrier.dim - 1), max_size=3))
        com = graded_comodule(c, degrees)
    fields = vary(draw, {"rho": com.rho, "delta": c.delta, "counit": c.counit}, ["rho"])
    over = Coalgebra(c.carrier, fields["delta"], fields["counit"])
    return Comodule(com.space, over, fields["rho"])


def hopf_fields(h: HopfAlgebra) -> dict:
    return {"delta": h.delta, "counit": h.counit, "mult": h.mult, "unit": h.unit,
            "antipode": h.antipode}


@st.composite
def hopf_algebras(draw, shape_key):
    f = draw(fields_st)
    h = draw(st.sampled_from([
        lambda: cyclic_hopf(f, draw(st.integers(1, 4))),
        lambda: function_hopf(f, draw(st.integers(1, 4))),
        lambda: s3_hopf(f),
    ]))()
    v = vary(draw, hopf_fields(h), shape_key)
    return HopfAlgebra(h.carrier, v["delta"], v["counit"], v["mult"], v["unit"],
                       v["antipode"])


# ---------------------------------------------------------------------------
# parity
# ---------------------------------------------------------------------------

def reference_check(s) -> list[str]:
    """The reference problem list of a structure, in the order check() gives."""
    if isinstance(s, Comodule):
        return reference_comodule_check(s)
    problems = reference_coalgebra_check(s)
    # a wrong shape is named once, and nothing after it is checked
    if isinstance(s, Bialgebra) and not first_wrong_shape(s, 2):
        problems += reference_algebra_problems(s)
    if isinstance(s, HopfAlgebra) and not first_wrong_shape(s, 4):
        problems += reference_antipode_problems(s)
    return problems


@given(coalgebras())
def test_coalgebra_check_matches_reference(c):
    assert c.check() == reference_check(c)


@given(comodules())
def test_comodule_check_matches_reference(com):
    assert com.check() == reference_check(com)


@given(hopf_algebras(["delta", "counit", "mult", "unit"]))
def test_bialgebra_check_matches_reference(h):
    b = Bialgebra(h.carrier, h.delta, h.counit, h.mult, h.unit)
    assert b.algebra_problems() == reference_algebra_problems(b)
    assert b.check() == reference_check(b)


@given(hopf_algebras(["delta", "counit", "mult", "unit", "antipode"]))
def test_hopf_check_matches_reference(h):
    assert h.antipode_problems() == reference_antipode_problems(h)
    assert h.check() == reference_check(h)


def single_entry_shifts(m: LinearMap):
    """Every map obtained from m by adding 1 to one entry."""
    f = m.field
    for j, i in itertools.product(range(m.dom.dim), range(m.cod.dim)):
        cols = [dict(c) for c in m.cols]
        _add_into(cols[j], i, f.one(), f)
        yield LinearMap.from_sparse(f, m.dom, m.cod, cols)


def test_every_message_is_pinned_on_every_single_entry_shift():
    # exhaustive over one small Hopf algebra, a comatrix comodule and a
    # graded one: every message the checks can give shows up at least once
    seen = set()
    for f in FIELDS:
        h = function_hopf(f, 2)
        structures = []
        for key, m in hopf_fields(h).items():
            for shifted in single_entry_shifts(m):
                v = {**hopf_fields(h), key: shifted}
                structures.append(HopfAlgebra(h.carrier, v["delta"], v["counit"],
                                              v["mult"], v["unit"], v["antipode"]))
        c, com = comatrix(f, 2)
        for com in (com, graded_comodule(grouplike_coalgebra(f, ["g0", "g1"]), [0, 1, 1])):
            fields = {"rho": com.rho, "delta": com.over.delta, "counit": com.over.counit}
            for key, m in fields.items():
                for shifted in single_entry_shifts(m):
                    v = {**fields, key: shifted}
                    over = Coalgebra(com.over.carrier, v["delta"], v["counit"])
                    structures.append(Comodule(com.space, over, v["rho"]))
        for structure in structures:
            expected = reference_check(structure)
            assert structure.check() == expected
            seen.update(expected)
    assert seen == {
        "comultiplication is not coassociative", "left counit law fails",
        "right counit law fails", "multiplication is not associative",
        "unit law fails", "comultiplication is not an algebra morphism",
        "counit is not an algebra morphism", "unit is not grouplike",
        "counit of unit is not 1", "left antipode axiom fails",
        "right antipode axiom fails", "coaction is not coassociative",
        "coaction counit law fails",
    }


def test_every_wrong_shape_message_matches_reference():
    h = cyclic_hopf(QQ, 2)
    k3 = Space.std(3)
    wrong = LinearMap.from_sparse(QQ, k3, k3, [{} for _ in range(3)])
    cases = [
        (Coalgebra(h.carrier, wrong, h.counit), "comultiplication has wrong shape"),
        (Coalgebra(h.carrier, h.delta, wrong), "counit has wrong shape"),
        (Bialgebra(h.carrier, h.delta, h.counit, wrong, h.unit),
         "multiplication has wrong shape"),
        (Bialgebra(h.carrier, h.delta, h.counit, h.mult, wrong), "unit has wrong shape"),
        (HopfAlgebra(h.carrier, h.delta, h.counit, h.mult, h.unit, wrong),
         "antipode has wrong shape"),
        (Comodule(h.carrier, h, wrong), "coaction has wrong shape"),
    ]
    # a misshapen delta or counit is named once by the bialgebra and Hopf
    # checks too, and each of their parts names it alone
    z3 = cyclic_hopf(QQ, 3)
    c3, k1 = z3.carrier, unit_space()
    delta_3_to_8 = LinearMap.from_sparse(QQ, c3, Space.std(8), [{i: 1} for i in range(3)])
    counit_1_by_4 = LinearMap.from_sparse(QQ, Space.std(4), k1, [{0: 1} for _ in range(4)])
    for delta, counit, message in [(delta_3_to_8, z3.counit, "comultiplication has wrong shape"),
                                   (z3.delta, counit_1_by_4, "counit has wrong shape")]:
        b = Bialgebra(c3, delta, counit, z3.mult, z3.unit)
        hopf = HopfAlgebra(c3, delta, counit, z3.mult, z3.unit, z3.antipode)
        cases += [(b, message), (hopf, message)]
        assert b.algebra_problems() == transposed_algebra_problems(b) == [message]
        assert reference_algebra_problems(b) == [message]
        assert hopf.antipode_problems() == reference_antipode_problems(hopf) == [message]
    for structure, message in cases:
        assert structure.check() == reference_check(structure) == [message]
