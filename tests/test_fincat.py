from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coendforge import fincat
from coendforge.exactlinalg import (
    QQ,
    LinearMap,
    PadicRationals,
    PrimeField,
    Rationals,
    Space,
    identity,
    tensor,
)
from coendforge.fincat import (
    CategoryMonoidalData,
    DiagramFunctor,
    FinCategory,
    FunctorMonoidalData,
    Transformation,
    check_monoidal,
    cowedge_problems,
    diagram_of_functor,
    natural_problems,
    tensor_functor,
    validate_category,
    validate_functor,
)
from references import check_natural, reference_check_monoidal

K = Space.std(1)
K2 = Space.std(2)


def qmap(rows, dom, cod):
    return LinearMap(
        QQ, dom, cod, tuple(tuple(Fraction(a) for a in r) for r in rows)
    )


def one_object_cat():
    return FinCategory(["pt"], [])


def arrow_cat():
    return FinCategory(["a", "b"], [("f", "a", "b")])


def z2_cat():
    tensor_obj = {
        ("g0", "g0"): "g0",
        ("g0", "g1"): "g1",
        ("g1", "g0"): "g1",
        ("g1", "g1"): "g0",
    }
    mon = CategoryMonoidalData("g0", tensor_obj, duals={"g0": "g0", "g1": "g1"})
    return FinCategory(["g0", "g1"], [], monoidal=mon)


def z2_functor():
    cat = z2_cat()
    one = qmap([[1]], K, K)
    mon = FunctorMonoidalData(
        xi={pair: one for pair in cat.monoidal.tensor_obj},
        xi_unit=one,
        dual_maps={"g0": one, "g1": one},
    )
    return DiagramFunctor(cat, QQ, {"g0": K, "g1": K}, {}, monoidal=mon)


def test_validate_one_object_identity_only():
    assert validate_category(one_object_cat()).ok


def test_validate_two_objects_one_arrow():
    assert validate_category(arrow_cat()).ok


def test_corrupt_composition_table_named():
    cat = FinCategory(
        ["a", "b", "c"],
        [("f", "a", "b"), ("g", "b", "c"), ("h", "a", "c")],
        composition={("g", "f"): "h"},
    )
    assert validate_category(cat).ok
    bad = FinCategory(
        ["a", "b", "c"],
        [("f", "a", "b"), ("g", "b", "c"), ("h", "a", "c")],
        composition={("g", "f"): "g"},
    )
    report = validate_category(bad)
    assert not report.ok
    assert any("(g, f)" in p for p in report.problems)


def test_missing_composite_reported():
    cat = FinCategory(
        ["a", "b", "c"], [("f", "a", "b"), ("g", "b", "c"), ("h", "a", "c")]
    )
    report = validate_category(cat)
    assert not report.ok
    assert any("missing composite" in p for p in report.problems)


def test_validate_constant_functor():
    cat = arrow_cat()
    F = DiagramFunctor(cat, QQ, {"a": K, "b": K}, {"f": qmap([[1]], K, K)})
    assert validate_functor(F).ok


def test_functor_shape_mismatch_reported():
    cat = arrow_cat()
    F = DiagramFunctor(cat, QQ, {"a": K2, "b": K}, {"f": qmap([[1]], K, K)})
    report = validate_functor(F)
    assert not report.ok
    assert any("shape" in p for p in report.problems)


def test_functor_law_corruption_detected():
    cat = FinCategory(
        ["a", "b", "c"],
        [("f", "a", "b"), ("g", "b", "c"), ("h", "a", "c")],
        composition={("g", "f"): "h"},
    )
    F = DiagramFunctor(
        cat,
        QQ,
        {"a": K, "b": K, "c": K},
        {"f": qmap([[1]], K, K), "g": qmap([[2]], K, K), "h": qmap([[3]], K, K)},
    )
    report = validate_functor(F)
    assert not report.ok and any("F(g o f)" in p for p in report.problems)


def chain_functor():
    """a -> b with F(a) = K, F(b) = K^2, F(f) the inclusion."""
    cat = arrow_cat()
    return DiagramFunctor(
        cat, QQ, {"a": K, "b": K2}, {"f": qmap([[1], [0]], K, K2)}
    )


def test_identity_transformation_is_natural():
    F = chain_functor()
    t = Transformation({x: identity(F.space(x), QQ) for x in F.source.objects})
    assert check_natural(t, F, F)


def test_scalar_multiple_of_identity_is_natural():
    F = chain_functor()
    t = Transformation(
        {x: identity(F.space(x), QQ).scale(Fraction(5)) for x in F.source.objects}
    )
    assert check_natural(t, F, F)


def test_perturbed_component_breaks_naturality():
    F = chain_functor()
    comps = {x: identity(F.space(x), QQ) for x in F.source.objects}
    comps["b"] = qmap([[2, 0], [0, 1]], K2, K2)
    assert not check_natural(Transformation(comps), F, F)


def test_tensor_functor_shifts_naturality():
    F = chain_functor()
    M = Space.std(2, prefix="m")
    G = tensor_functor(F, M)
    # t_X = F(X) (x) first basis vector of M is natural into F (x) M
    comps = {}
    for x in F.source.objects:
        d = F.space(x).dim
        rows = [[0] * d for _ in range(d * 2)]
        for i in range(d):
            rows[i * 2][i] = 1
        comps[x] = qmap(rows, F.space(x), G.space(x))
    assert check_natural(Transformation(comps), F, G)


def law_functor(kind, f):
    """Over the field f: the chain a -> b (K -> K^2, the first inclusion) or
    the glued pair a -> b (K -> K, the identity)."""
    cod, rows = (K2, [[1], [0]]) if kind == "chain" else (K, [[1]])
    fmap = LinearMap(f, K, cod, tuple(tuple(f.from_int(a) for a in r) for r in rows))
    return DiagramFunctor(arrow_cat(), f, {"a": K, "b": cod}, {"f": fmap})


@st.composite
def transformations_into_tensor(draw):
    """A functor F, a space M and a family t_X: F(X) -> F(X) (x) M that is
    natural by construction, natural but perturbed, random, of a wrong shape
    at one object, or missing one component."""
    f = draw(st.sampled_from([QQ, PrimeField(7)]))
    F = law_functor(draw(st.sampled_from(["chain", "glued"])), f)
    m = Space.std(draw(st.integers(1, 2)), prefix="m")
    mode = draw(st.sampled_from(["natural", "perturbed", "random", "shape", "missing"]))
    entry = st.integers(-1, 1).map(f.from_int)

    def matrix(dom, cod_dim):
        rows = draw(st.lists(st.lists(entry, min_size=dom.dim, max_size=dom.dim),
                             min_size=cod_dim, max_size=cod_dim))
        return LinearMap(f, dom, Space.std(cod_dim), tuple(tuple(r) for r in rows))

    v = matrix(K, m.dim)
    comps = {}
    for x in F.source.objects:
        fx = F.space(x)
        if mode in ("natural", "perturbed"):
            comps[x] = tensor(identity(fx, f), v)
        else:
            comps[x] = matrix(fx, fx.dim * m.dim)
    x = draw(st.sampled_from(F.source.objects))
    if mode == "perturbed":
        rows = [list(r) for r in comps[x].entries]
        rows[0][0] = f.add(rows[0][0], f.one())
        comps[x] = LinearMap(f, comps[x].dom, comps[x].cod, tuple(tuple(r) for r in rows))
    elif mode == "shape":
        comps[x] = matrix(F.space(x), F.space(x).dim * m.dim + 1)
    elif mode == "missing":
        del comps[x]
    return F, Transformation(comps), m, mode


@given(transformations_into_tensor())
def test_natural_problems_agree_with_check_natural(case):
    F, t, m, mode = case
    problems = natural_problems(diagram_of_functor(F), t, m)
    assert (problems == []) == check_natural(t, F, tensor_functor(F, m))
    if mode == "natural":
        assert problems == []
    if mode == "perturbed":
        assert problems == ["naturality fails at morphism f"]
    if mode in ("shape", "missing"):
        assert problems and "component" in problems[0]


def test_zero_cowedge_is_dinatural():
    from coendforge.cohom import cohom

    F = chain_functor()
    M = Space.std(1, prefix="m")
    w = {}
    for x in F.source.objects:
        car = cohom(F.space(x), F.space(x), QQ).carrier
        w[x] = qmap([[0] * car.dim], car, M)
    assert cowedge_problems(diagram_of_functor(F), w, M) == []


def test_dinaturality_against_hexagon_oracle(rng):
    from coendforge.cohom import cohom, cohom_on_maps

    F = chain_functor()
    M = Space.std(2, prefix="m")
    for _ in range(12):
        w = {}
        for x in F.source.objects:
            car = cohom(F.space(x), F.space(x), QQ).carrier
            w[x] = qmap(
                [[rng.randint(-3, 3) for _ in range(car.dim)] for _ in range(2)],
                car,
                M,
            )
        ff = F.map("f")
        lhs = w["a"] @ cohom_on_maps(identity(F.space("a"), QQ), ff)
        rhs = w["b"] @ cohom_on_maps(ff, identity(F.space("b"), QQ))
        assert (cowedge_problems(diagram_of_functor(F), w, M) == []) == (lhs == rhs)


def test_strict_monoidal_functor_valid():
    assert check_monoidal(z2_functor()).ok


def z3_functor():
    objs = ["g0", "g1", "g2"]
    tensor_obj = {(f"g{i}", f"g{j}"): f"g{(i + j) % 3}" for i in range(3) for j in range(3)}
    mon = CategoryMonoidalData("g0", tensor_obj, duals={"g0": "g0", "g1": "g2", "g2": "g1"})
    cat = FinCategory(objs, [], monoidal=mon)
    one = qmap([[1]], K, K)
    fmon = FunctorMonoidalData(
        xi={pair: one for pair in tensor_obj}, xi_unit=one,
        dual_maps={o: one for o in objs},
    )
    return DiagramFunctor(cat, QQ, {o: K for o in objs}, {}, monoidal=fmon)


def test_scaled_xi_in_tensor_chain_reported():
    # scaling xi at (g1, g1) breaks the cocycle condition on the
    # three-object chain g1 (x) g1 (x) g2
    F = z3_functor()
    F.monoidal = replace(F.monoidal, xi=F.monoidal.xi | {("g1", "g1"): qmap([[2]], K, K)})
    report = check_monoidal(F)
    assert not report.ok
    assert any("associativity" in p for p in report.problems)


def test_xi_unit_into_a_plane_is_not_an_isomorphism():
    # F(I) = K^2: xi at (I, I) cannot be invertible, and xi_unit: K -> K^2,
    # injective but not square, is reported as well
    cat = FinCategory(["u"], [], monoidal=CategoryMonoidalData("u", {("u", "u"): "u"}))
    xi = LinearMap(QQ, Space.std(4), K2, ((1, 0, 0, 0), (0, 0, 0, 1)))
    F = DiagramFunctor(cat, QQ, {"u": K2}, {},
                       monoidal=FunctorMonoidalData(xi={("u", "u"): xi},
                                                    xi_unit=qmap([[1], [0]], K, K2)))
    assert check_monoidal(F).problems == [
        "xi at (u, u) is not invertible", "xi_unit is not an isomorphism K -> F(I)"]


def test_z2_grading_category_exhaustive():
    report = validate_category(z2_cat())
    assert report.ok
    assert check_monoidal(z2_functor()).ok


def test_validators_idempotent_and_pure():
    cat = arrow_cat()
    F = DiagramFunctor(cat, QQ, {"a": K, "b": K}, {"f": qmap([[1]], K, K)})
    first = (validate_category(cat).problems, validate_functor(F).problems)
    second = (validate_category(cat).problems, validate_functor(F).problems)
    assert first == second == ([], [])


def test_dual_identification_that_is_no_isomorphism_is_reported():
    # zero at g1, and a map from K^2 where F(g1) = K at g2
    F = z3_functor()
    F.monoidal = replace(F.monoidal, dual_maps=dict(F.monoidal.dual_maps, g1=qmap([[0]], K, K),
                                                    g2=qmap([[1, 1]], K2, K)))
    assert check_monoidal(F).problems == [
        "dual identification at 'g1' is not an isomorphism",
        "dual identification at 'g2' is not an isomorphism"]


# -- check_monoidal against the per-triple reference --------------------------

def scalar(f, a):
    return LinearMap(f, K, K, ((a,),))


def graded_functor(f, lam, absorbing=False, idem=None):
    """Z/n on copies of K, n = len(lam), with the coboundary
    xi_{a,b} = l_a l_b / l_{a+b} and xi_unit = 1 / l_0, which satisfy every
    square.  With absorbing, an object z with z (x) x = x (x) z = z and
    F(z) = 0 is added.  With idem, each g_i carries an idempotent t_i with
    t_i (x) t_j = t_{i+j} and F(t_i) = idem[i]; naturality of xi then holds
    iff idem[i + j] = idem[i] idem[j]."""
    n = len(lam)
    g = [f"g{i}" for i in range(n)]
    objs = g + ["z"] * absorbing
    tensor_obj = {(g[i], g[j]): g[(i + j) % n] for i in range(n) for j in range(n)}
    if absorbing:
        tensor_obj.update({pair: "z" for x in objs for pair in ((x, "z"), ("z", x))})
    morphisms, composition, tensor_mor, mor = [], {}, {}, {}
    if idem is not None:
        for i in range(n):
            morphisms.append((f"t{i}", g[i], g[i]))
            composition[(f"t{i}", f"t{i}")] = f"t{i}"
            mor[f"t{i}"] = scalar(f, idem[i])
        tensor_mor = {(f"t{i}", f"t{j}"): f"t{(i + j) % n}" for i in range(n) for j in range(n)}
    cat = FinCategory(objs, morphisms, composition,
                      monoidal=CategoryMonoidalData("g0", tensor_obj, tensor_mor))
    zero = Space.std(0, prefix="z")
    ob = {x: zero if x == "z" else K for x in objs}
    xi = {}
    for (a, b), ab in tensor_obj.items():
        if ab == "z":
            xi[(a, b)] = LinearMap(f, Space.std(0), zero, ())
        else:
            i, j = int(a[1:]), int(b[1:])
            xi[(a, b)] = scalar(f, f.mul(f.mul(lam[i], lam[j]), f.invert(lam[(i + j) % n])))
    fmon = FunctorMonoidalData(xi=xi, xi_unit=scalar(f, f.invert(lam[0])))
    return DiagramFunctor(cat, f, ob, mor, monoidal=fmon)


@st.composite
def graded_cases(draw):
    """A seeded valid Z/n grading (n = 1..8, maybe with a zero-dimensional
    absorbing object, maybe with idempotents), left valid or with one xi
    entry scaled, one xi set to zero, one xi missing or xi_unit scaled.  The
    scalars are a/b with |a|, b up to 6 or up to 10^9, so that cross products
    of numerators and denominators run to several machine words."""
    f = draw(st.sampled_from([QQ, PrimeField(7), PadicRationals(3)]))
    n = draw(st.integers(1, 8))

    def invertible(a):
        return not f.is_zero(f.from_int(a))

    nonzero = st.builds(lambda a, b: f.mul(f.from_int(a), f.invert(f.from_int(b))),
                        (st.integers(-6, 6) | st.integers(-10**9, 10**9)).filter(invertible),
                        (st.integers(1, 6) | st.integers(1, 10**9)).filter(invertible))
    lam = draw(st.lists(nonzero, min_size=n, max_size=n))
    idem = draw(st.none() | st.lists(st.sampled_from([f.zero(), f.one()]),
                                     min_size=n, max_size=n))
    F = graded_functor(f, lam, draw(st.booleans()), idem)
    mode = draw(st.sampled_from(["valid", "scale", "zero", "missing", "unit"]))
    pair = (f"g{draw(st.integers(0, n - 1))}", f"g{draw(st.integers(0, n - 1))}")
    xi = dict(F.monoidal.xi)
    s = draw(nonzero.filter(lambda v: v != f.one()))
    if mode == "scale":
        xi[pair] = xi[pair].scale(s)
    elif mode == "zero":
        xi[pair] = scalar(f, f.zero())
    elif mode == "missing":
        del xi[pair]
    xi_unit = F.monoidal.xi_unit.scale(s) if mode == "unit" else F.monoidal.xi_unit
    F.monoidal = replace(F.monoidal, xi=xi, xi_unit=xi_unit)
    return F


@settings(max_examples=200)
@given(graded_cases())
def test_check_monoidal_matches_reference(F):
    assert validate_category(F.source).ok
    assert validate_functor(F).ok
    report, reference = check_monoidal(F), reference_check_monoidal(F)
    assert report.problems == reference.problems
    assert report.ok == reference.ok


@pytest.mark.parametrize("f", [QQ, PrimeField(7), PadicRationals(3)])
def test_check_monoidal_names_every_broken_square_in_order(f):
    # every single xi on Z/4 with a zero object and natural idempotents,
    # scaled by 2 in turn; the message lists must match the reference, and
    # each must be nonempty
    lam = [f.from_int(a) for a in (3, -2, 5, 1)]
    F = graded_functor(f, lam, absorbing=True, idem=[f.one()] * 4)
    assert check_monoidal(F).ok
    valid = F.monoidal.xi
    for pair, xi in valid.items():
        if "z" not in pair:
            F.monoidal = replace(F.monoidal, xi=valid | {pair: xi.scale(f.from_int(2))})
            problems = check_monoidal(F).problems
            assert problems and problems == reference_check_monoidal(F).problems


@pytest.mark.parametrize("idem, extra", [(None, 0), ([1] + [0] * 7, 64)])
def test_check_monoidal_builds_no_map_per_triple(monkeypatch, idem, extra):
    # on Z/8, compose_kron runs only once per tensor_mor entry: 0 (+ 64)
    # calls, against 2*8^3 + 16 for a per-triple check with the unit squares
    # built as maps; and the squares themselves multiply no field scalars:
    # fewer than 8^3 Rationals.mul calls, against 2*8^3 plus the unit
    # squares for a product of xi scalars per triple
    lam = [QQ.from_int(a) for a in (2, -3, 5, 7, 1, -1, 4, 9)]
    idem = None if idem is None else [QQ.from_int(a) for a in idem]
    F = graded_functor(QQ, lam, idem=idem)
    calls, muls = [], []
    real, real_mul = fincat.compose_kron, Rationals.mul

    def counting(*args):
        calls.append(1)
        return real(*args)

    def counting_mul(self, a, b):
        muls.append(1)
        return real_mul(self, a, b)

    monkeypatch.setattr(fincat, "compose_kron", counting)
    monkeypatch.setattr(Rationals, "mul", counting_mul)
    report = check_monoidal(F)
    assert report.ok == (idem is None)
    assert len(calls) == extra
    assert len(muls) < 8 ** 3
