import contextlib
import io
import itertools
import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, reject
from hypothesis import strategies as st

from coendforge.exactlinalg import (
    QQ,
    LinearMap,
    PadicRationals,
    Space,
    _dense,
    _rref,
    cokernel,
    identity,
    invert_map,
    padic_valuation,
    tensor,
)
from coendforge import padic_banach
from coendforge.cli import main
from coendforge.coend import coend_of_functor
from coendforge.exactlinalg import kernel
from coendforge.fincat import DiagramFunctor, FinCategory, Transformation
from coendforge.padic_banach import (
    NormedSpace,
    NormValue,
    OracleRefusal,
    PrimeMismatch,
    _check_certificate,
    _orthogonalize,
    _rational,
    banach_colimit,
    banach_product,
    banach_sum,
    bounded_coend,
    check_bounded,
    normed,
    operator_norm,
    quotient_norm,
    quotient_norm_bruteforce,
    scalar_norm,
)
from coendforge.specfile import load_spec

Q2 = PadicRationals(2)
Q3 = PadicRationals(3)


def pmap(rows, dom, cod, f=Q2):
    return LinearMap(f, dom, cod, tuple(tuple(Fraction(a) for a in r) for r in rows))


def wspace(weights, prefix="e"):
    return Space.std(len(weights), prefix=prefix, weights=weights)


# -- norm values ---------------------------------------------------------------

def test_norm_value_ordering_and_product():
    z = NormValue.zero()
    one = NormValue.of_exp(0)
    two = NormValue.of_exp(1)
    assert z < one < two
    assert max(z, two) == two
    assert one * two == NormValue.of_exp(1)
    assert z * two == z
    assert two.to_json() == {"exp": 1}
    assert z.to_json() == {"zero": True}


def test_scalar_norm():
    assert scalar_norm(Fraction(1, 2), 2) == NormValue.of_exp(1)
    assert scalar_norm(Fraction(12), 2) == NormValue.of_exp(-2)
    assert scalar_norm(0, 2) == NormValue.zero()


@given(
    st.fractions(min_value=-64, max_value=64, max_denominator=32),
    st.fractions(min_value=-64, max_value=64, max_denominator=32),
)
def test_scalar_norm_multiplicative(a, b):
    for p in (2, 3):
        assert scalar_norm(a * b, p) == scalar_norm(a, p) * scalar_norm(b, p)
        assert scalar_norm(a + b, p) <= max(scalar_norm(a, p), scalar_norm(b, p))


# -- vector and operator norms ----------------------------------------------------

def test_vector_norm_with_weights():
    ns = normed(Space.std(2), 2, weights=(0, 1))
    assert ns.vector_norm([Fraction(1), Fraction(1)]) == NormValue.of_exp(0)
    assert ns.vector_norm([Fraction(0), Fraction(1)]) == NormValue.of_exp(-1)
    assert ns.vector_norm([0, 0]) == NormValue.zero()


def test_operator_norm_identity_unit_weights():
    s = wspace((0, 0))
    assert operator_norm(identity(s, Q2)) == NormValue.of_exp(0)


def test_operator_norm_spec_example():
    s = wspace((0, 0))
    m = pmap([[1, Fraction(1, 2)], [0, 1]], s, s)
    assert operator_norm(m) == NormValue.of_exp(1)  # norm 2


def test_operator_norm_zero_map():
    s = wspace((0, 0))
    m = pmap([[0, 0], [0, 0]], s, s)
    assert operator_norm(m) == NormValue.zero()


def test_operator_norm_requires_padic_field():
    from coendforge.exactlinalg import QQ

    s = Space.std(1)
    with pytest.raises(PrimeMismatch):
        operator_norm(identity(s, QQ))


def rand_vec(rng, ns):
    return [
        Fraction(rng.randint(-8, 8), rng.choice([1, 1, ns.p, ns.p * ns.p]))
        for _ in range(ns.dim)
    ]


def test_ultrametric_inequality_randomized(rng):
    for p, field in [(2, Q2), (3, Q3)]:
        ns = normed(Space.std(3), p, weights=(0, 1, -1))
        for _ in range(500):
            v = rand_vec(rng, ns)
            w = rand_vec(rng, ns)
            s = [a + b for a, b in zip(v, w)]
            nv, nw, nsum = ns.vector_norm(v), ns.vector_norm(w), ns.vector_norm(s)
            assert nsum <= max(nv, nw)
            if nv != nw:
                assert nsum == max(nv, nw)


def test_scaling_homogeneity(rng):
    ns = normed(Space.std(3), 2, weights=(0, 2, -1))
    for _ in range(100):
        v = rand_vec(rng, ns)
        c = Fraction(rng.randint(1, 8), rng.choice([1, 2, 4]))
        cv = [c * a for a in v]
        assert ns.vector_norm(cv) == scalar_norm(c, 2) * ns.vector_norm(v)


def test_operator_norm_submultiplicative(rng):
    a = wspace((0, 1))
    b = wspace((1, 0), prefix="b")
    c = wspace((0, 0), prefix="c")
    for _ in range(200):
        m = pmap([[Fraction(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(2)]
                  for _ in range(2)], b, c)
        n = pmap([[Fraction(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(2)]
                  for _ in range(2)], a, b)
        assert operator_norm(m @ n) <= operator_norm(m) * operator_norm(n)


# -- quotient norms ------------------------------------------------------------------

def test_quotient_norm_empty_subspace():
    ns = normed(Space.std(2), 2)
    v = [Fraction(3), Fraction(1, 2)]
    assert quotient_norm(ns, [], v) == ns.vector_norm(v)


def test_quotient_norm_spec_example():
    ns = normed(Space.std(2), 2)
    w = [[Fraction(1), Fraction(2)]]
    v = [Fraction(0), Fraction(1)]
    assert quotient_norm(ns, w, v) == NormValue.of_exp(0)  # norm 1


def test_quotient_norm_of_member_is_zero():
    ns = normed(Space.std(2), 2)
    w = [[Fraction(1), Fraction(2)]]
    assert quotient_norm(ns, w, [Fraction(2), Fraction(4)]) == NormValue.zero()


def test_quotient_norm_against_window_oracle_randomized(rng):
    cases = 0
    while cases < 60:
        p = rng.choice([2, 3])
        dim = rng.randint(2, 4)
        ns = normed(Space.std(dim), p,
                    weights=tuple(rng.randint(-1, 1) for _ in range(dim)))
        k = rng.randint(1, 2)
        w = [
            [Fraction(rng.randint(-4, 4), rng.choice([1, p])) for _ in range(ns.dim)]
            for _ in range(k)
        ]
        v = [Fraction(rng.randint(-4, 4), rng.choice([1, p])) for _ in range(ns.dim)]
        fast = quotient_norm(ns, w, v)
        slow = quotient_norm_bruteforce(ns, w, v)
        assert fast == slow
        cases += 1


@st.composite
def quotient_instances(draw):
    """(normed space, subspace generators, v): p in {2, 3}, dim <= 4, up to
    two generators (possibly none), and v drawn inside their span half the
    time."""
    p = draw(st.sampled_from([2, 3]))
    dim = draw(st.integers(0, 4))
    weights = tuple(draw(st.lists(st.integers(-1, 1), min_size=dim, max_size=dim)))
    entry = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, p]))
    vector = st.lists(entry, min_size=dim, max_size=dim)
    gens = draw(st.lists(vector, max_size=2))
    if gens and draw(st.booleans()):
        coeffs = draw(st.lists(entry, min_size=len(gens), max_size=len(gens)))
        v = [sum((c * g[i] for c, g in zip(coeffs, gens)), Fraction(0)) for i in range(dim)]
    else:
        v = draw(vector)
    return normed(Space.std(dim), p, weights=weights), gens, v


@given(quotient_instances())
@example((normed(Space.std(3), 2, weights=(0, 1, -1)), [],
          [Fraction(1, 2), Fraction(3), Fraction(0)]))
@example((normed(Space.std(3), 3, weights=(1, 0, 0)),
          [[Fraction(1), Fraction(3), Fraction(0)], [Fraction(0), Fraction(1, 3), Fraction(2)]],
          [Fraction(2), Fraction(7), Fraction(4)]))
def test_certified_quotient_norm_matches_window_oracle(instance):
    ns, gens, v = instance
    certified = quotient_norm(ns, gens, v)
    try:
        # a smaller candidate bound keeps each draw well under a second
        oracle = quotient_norm_bruteforce(ns, gens, v, max_candidates=20_000)
    except OracleRefusal:
        reject()
    assert certified == oracle


# W = span{(1, 2, 0)} in Q_2^3 with unit weights and v = (0, 1, 0): the
# residual is v itself (norm 1) and lam = (-2, 1, 0) is its certificate
CERT_NS = normed(Space.std(3), 2)
CERT_W = [[Fraction(1), Fraction(2), Fraction(0)]]
CERT_V = [Fraction(0), Fraction(1), Fraction(0)]
CERT_LAM = [Fraction(-2), Fraction(1), Fraction(0)]


def test_certificate_checks_and_matches_quotient_norm():
    _check_certificate(CERT_NS, [_rational(g) for g in CERT_W],
                       [tuple(map(_rational, (CERT_V, CERT_V, CERT_LAM)))])
    assert quotient_norm(CERT_NS, CERT_W, CERT_V) == NormValue.of_exp(0)


@pytest.mark.parametrize("x, lam, why", [
    # (a) a residual outside v + W
    ([Fraction(1), Fraction(1), Fraction(0)], CERT_LAM, "not in the span"),
    # (b) a functional that does not kill the generator
    (CERT_V, [Fraction(-1), Fraction(1), Fraction(0)], "does not vanish on generator 0"),
    # (c) a functional that kills W but whose ratio is 1/2, not ||x|| = 1
    (CERT_V, [Fraction(-2), Fraction(1), Fraction(1, 2)], "but ||x|| is"),
    # (c) the zero functional proves nothing
    (CERT_V, [Fraction(0)] * 3, "but ||x|| is"),
])
def test_tampered_certificate_is_rejected(x, lam, why):
    with pytest.raises(ArithmeticError, match="quotient norm certification failed") as exc:
        _check_certificate(CERT_NS, [_rational(g) for g in CERT_W],
                           [tuple(map(_rational, (CERT_V, x, lam)))])
    assert why in str(exc.value)


def test_quotient_norm_is_lower_bound_on_sampled_cosets(rng):
    ns = normed(Space.std(3), 2, weights=(0, 1, 0))
    w = [[Fraction(1), Fraction(0), Fraction(1)], [Fraction(0), Fraction(2), Fraction(1)]]
    v = [Fraction(1), Fraction(1), Fraction(0)]
    qn = quotient_norm(ns, w, v)
    for _ in range(200):
        t = [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 4])) for _ in range(2)]
        cand = [a - t[0] * b - t[1] * c for a, b, c in zip(v, w[0], w[1])]
        assert qn <= ns.vector_norm(cand)


# -- sums and colimits ------------------------------------------------------------------

def test_banach_sum_single_space():
    ns = normed(Space.std(2), 2, weights=(0, 1))
    s = banach_sum([ns])
    assert s.dim == 2 and s.weights == (0, 1)


def test_banach_sum_weight_example():
    a = normed(Space.std(1), 2, weights=(0,))
    b = normed(Space.std(1, prefix="b"), 2, weights=(1,))
    s = banach_sum([a, b])
    assert s.vector_norm([Fraction(1), Fraction(1)]) == NormValue.of_exp(0)
    assert banach_product([a, b]).weights == s.weights


def test_banach_sum_empty():
    assert banach_sum([]).dim == 0


def test_banach_sum_prime_mismatch():
    a = normed(Space.std(1), 2)
    b = normed(Space.std(1, prefix="b"), 3)
    with pytest.raises(PrimeMismatch):
        banach_sum([a, b])


def one_object_diagram(field=Q2, dim=2, weights=None):
    cat = FinCategory(["pt"], [])
    s = Space.std(dim, weights=weights or (0,) * dim)
    return DiagramFunctor(cat, field, {"pt": s}, {})


def test_banach_colimit_single_object():
    F = one_object_diagram()
    col = banach_colimit(F)
    assert col.carrier.dim == 2
    assert col.class_norms == [NormValue.of_exp(0), NormValue.of_exp(0)]
    assert col.closure_is_identity


def test_banach_colimit_multiplication_by_p():
    cat = FinCategory(["a", "b"], [("f", "a", "b")])
    ka = Space.std(1, prefix="a", weights=(0,))
    kb = Space.std(1, prefix="b", weights=(0,))
    F = DiagramFunctor(cat, Q2, {"a": ka, "b": kb}, {"f": pmap([[2]], ka, kb)})
    col = banach_colimit(F)
    assert col.carrier.dim == 1
    # the section basis class (0, 1) has coset norm 1 ...
    assert col.class_norms == [NormValue.of_exp(0)]
    # ... while the class of (1, 0) has coset norm 1/2: (1,0) - (1,-2) = (0,2)
    qn = quotient_norm(col.total, [[Fraction(1), Fraction(-2)]],
                       [Fraction(1), Fraction(0)])
    assert qn == NormValue.of_exp(-1)
    for norm in col.cocone_norms.values():
        assert norm <= NormValue.of_exp(0)


def test_banach_colimit_parallel_equal_arrows():
    cat = FinCategory(["a", "b"], [("f", "a", "b"), ("g", "a", "b")])
    ka = Space.std(1, prefix="a", weights=(0,))
    kb = Space.std(1, prefix="b", weights=(0,))
    m = pmap([[1]], ka, kb)
    F2 = DiagramFunctor(cat, Q2, {"a": ka, "b": kb}, {"f": m, "g": m})
    cat1 = FinCategory(["a", "b"], [("f", "a", "b")])
    F1 = DiagramFunctor(cat1, Q2, {"a": ka, "b": kb}, {"f": m})
    c2 = banach_colimit(F2)
    c1 = banach_colimit(F1)
    assert c2.pi.entries == c1.pi.entries
    assert c2.class_norms == c1.class_norms


# -- bounded transformations ----------------------------------------------------------

def test_check_bounded_identity():
    F = one_object_diagram()
    t = Transformation({"pt": identity(F.space("pt"), Q2)})
    assert check_bounded(t).bound == NormValue.of_exp(0)


def test_check_bounded_scaled_components():
    cat = FinCategory([f"x{k}" for k in range(4)], [])
    spaces = {f"x{k}": Space.std(1, prefix=f"x{k}", weights=(0,)) for k in range(4)}
    F = DiagramFunctor(cat, Q2, spaces, {})
    t = Transformation({
        f"x{k}": pmap([[Fraction(1, 2 ** k)]], spaces[f"x{k}"], spaces[f"x{k}"])
        for k in range(4)
    })
    assert check_bounded(t).bound == NormValue.of_exp(3)  # |1/8|_2 = 8


def test_check_bounded_zero():
    F = one_object_diagram()
    t = Transformation({"pt": pmap([[0, 0], [0, 0]], F.space("pt"), F.space("pt"))})
    assert check_bounded(t).bound == NormValue.zero()


# -- bounded coend -----------------------------------------------------------------------

def test_bounded_coend_one_object_unit_weights():
    F = one_object_diagram()
    b = bounded_coend(F)
    assert b.result.carrier.dim == 4
    assert b.pi_norm == NormValue.of_exp(0)
    assert all(n == NormValue.of_exp(0) for n in b.injection_norms.values())
    assert b.comultiplication_norm == NormValue.of_exp(0)
    assert b.counit_norm == NormValue.of_exp(0)
    assert b.delta_bound == NormValue.of_exp(0)
    assert b.class_norms == [NormValue.of_exp(0)] * 4


def test_bounded_coend_carrier_bit_identical():
    from coendforge.coend import coend_of_functor

    cat = FinCategory(["a", "b"], [("f", "a", "b")])
    ka = Space.std(1, prefix="a", weights=(0,))
    kb = Space.std(1, prefix="b", weights=(1,))
    F = DiagramFunctor(cat, Q2, {"a": ka, "b": kb}, {"f": pmap([[1]], ka, kb)})
    algebraic = coend_of_functor(F)
    b = bounded_coend(F)
    assert b.result.pi.entries == algebraic.pi.entries
    assert b.result.carrier == algebraic.carrier
    assert b.pi_norm <= NormValue.of_exp(0)


def test_bounded_coend_glued_with_weights_norm_table():
    cat = FinCategory(["a", "b"], [("f", "a", "b")])
    ka = Space.std(1, prefix="a", weights=(0,))
    kb = Space.std(1, prefix="b", weights=(1,))
    F = DiagramFunctor(cat, Q2, {"a": ka, "b": kb}, {"f": pmap([[1]], ka, kb)})
    b = bounded_coend(F)
    assert b.result.carrier.dim == 1
    # blocks cohom(a,a) and cohom(b,b) have weights 0 and 0 (dual cancels),
    # the relation identifies them, so the class norm is 1
    assert b.class_norms == [NormValue.of_exp(0)]
    assert b.pi_norm <= NormValue.of_exp(0)


def test_bounded_coend_discrete_inherits_norms_componentwise():
    # no relations: the carrier is the block itself and the class norms are
    # the block basis norms; weights (0, 1) give block weights (0, 1, -1, 0)
    cat = FinCategory(["pt"], [])
    s = Space.std(2, weights=(0, 1))
    F = DiagramFunctor(cat, Q2, {"pt": s}, {})
    b = bounded_coend(F)
    assert b.result.carrier.dim == 4
    assert b.class_norms == [
        NormValue.of_exp(0), NormValue.of_exp(-1),
        NormValue.of_exp(1), NormValue.of_exp(0),
    ]
    assert sorted(b.normed_carrier.weights) == [-1, 0, 0, 1]


def test_bounded_coend_never_calls_the_window_oracle(monkeypatch):
    import coendforge.padic_banach as pb

    def refuse(*args, **kwargs):
        raise AssertionError("window oracle called")

    monkeypatch.setattr(pb, "quotient_norm_bruteforce", refuse)
    cat = FinCategory(["a", "b"], [("f", "a", "b")])
    ka = Space.std(2, prefix="a", weights=(0, 1))
    kb = Space.std(2, prefix="b", weights=(1, -1))
    F = DiagramFunctor(cat, Q2, {"a": ka, "b": kb}, {"f": pmap([[2, 1], [0, 3]], ka, kb)})
    assert len(bounded_coend(F).class_norms) == 4


def arrow_spec(p, wa, wb, rows):
    n = len(wa)
    return {
        "field": f"padic:{p}",
        "spaces": {"Ka": {"labels": [f"a{i}" for i in range(n)], "weights": list(wa)},
                   "Kb": {"labels": [f"b{i}" for i in range(n)], "weights": list(wb)}},
        "categories": {"Arrow": {"objects": ["a", "b"],
                                 "morphisms": [{"name": "f", "dom": "a", "cod": "b"}]}},
        "functors": {"F": {"source": "Arrow", "objects": {"a": "Ka", "b": "Kb"},
                           "morphisms": {"f": rows}}},
    }


# one arrow K^4 -> K^4 over padic:3: ambient dim 32, 16 classes
K4_PADIC3 = arrow_spec(3, (0, 1, 2, -1), (1, 0, 2, 0),
                       [["1", "3", "0", "0"], ["0", "2", "1/3", "0"],
                        ["0", "0", "1", "9"], ["0", "0", "0", "5"]])


@pytest.mark.parametrize("spec", [
    # ambient dim 18: beyond the window oracle's reach
    arrow_spec(2, (0, 1, -1), (2, 0, 1),
               [["1", "2", "0"], ["0", "1/2", "4"], ["0", "0", "3"]]),
    K4_PADIC3,
], ids=["K3-padic2", "K4-padic3"])
def test_certified_bcoend_ladder(tmp_path, spec):
    path = tmp_path / "arrow.json"
    path.write_text(json.dumps(spec))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["bcoend", str(path), "--functor", "F"])
    assert code == 0, buf.getvalue()
    norms = json.loads(buf.getvalue())["norms"]["class_norms"]
    r = coend_of_functor(load_spec(spec).functors["F"])
    ker = kernel(r.pi)
    relations = [ker.col(j) for j in range(ker.dom.dim)]
    ns = NormedSpace(r.nspace, r.field.p)
    assert norms == [
        quotient_norm(ns, relations, r.section.col(j)).to_json()
        for j in range(r.carrier.dim)
    ]


def seeded_diagram(objects, arrows, k, seed):
    """A diagram over padic:3 of weighted copies of K^k, one per object, and
    one seeded k x k map per (name, dom, cod) arrow: entries 0 or 3^e * unit,
    with e in -1..2, and weights in -2..2."""
    rng = random.Random(seed)
    spaces = {x: wspace([rng.randint(-2, 2) for _ in range(k)], prefix=x) for x in objects}

    def entry():
        return rng.choice([0, Fraction(3) ** rng.randint(-1, 2) * rng.choice([1, -2, 4, 5])])

    maps = {name: pmap([[entry() for _ in range(k)] for _ in range(k)],
                       spaces[dom], spaces[cod], Q3) for name, dom, cod in arrows}
    return DiagramFunctor(FinCategory(objects, arrows), Q3, spaces, maps)


def entrywise_norm(m, w, u, p):
    """max_{i,j} |m_ji|_p p^(-u_j + w_i), with the domain weights w and the
    codomain weights u given explicitly rather than read off m's spaces."""
    return max((NormValue.of_exp(-(padic_valuation(a, p) + u[j] - w[i]))
                for i, col in enumerate(m.cols) for j, a in col.items()),
               default=NormValue.zero())


@pytest.mark.parametrize("F", [
    seeded_diagram(["a", "b"], [("f", "a", "b")], 3, seed=3),
    seeded_diagram(["a", "b"], [("f", "a", "b")], 4, seed=4),
    seeded_diagram(["l0", "l1", "l2", "l3"],
                   [("f0", "l0", "l1"), ("f1", "l2", "l1"), ("f2", "l2", "l3")], 2, seed=6),
], ids=["K3-arrow", "K4-arrow", "K2-zigzag"])
def test_bounded_coend_norms_match_explicit_weights(F):
    # the weights are spelled out as tuples: the ambient sum's, the class
    # basis's q, q (x) q, F(x) (x) q and the unit's (0,), and the maps are
    # built with tensor and invert_map instead of the lazy products
    b = bounded_coend(F)
    r, p = b.result, 3
    t_inv = b.orth.class_basis
    t = invert_map(t_inv)
    ambient, q = NormedSpace(r.nspace, p).weights, b.orth.class_basis.dom.weights
    qq = tuple(a + c for a in q for c in q)
    assert b.pi_norm == entrywise_norm(t @ r.pi, ambient, q, p)
    assert b.injection_norms == {
        x: entrywise_norm(t @ r.injections[x], r.blocks[x].carrier.effective_weights(), q, p)
        for x in r.diagram.objects}
    assert b.comultiplication_norm == entrywise_norm(
        tensor(t, t) @ r.coalgebra.delta @ t_inv, q, qq, p)
    assert b.counit_norm == entrywise_norm(r.coalgebra.counit @ t_inv, q, (0,), p)
    fq = {x: tuple(a + c for a in fx.effective_weights() for c in q)
          for x, fx in r.diagram.spaces.items()}
    assert b.delta_bound == max(
        entrywise_norm(tensor(identity(fx, Q3), t) @ r.delta[x], fx.effective_weights(),
                       fq[x], p) for x, fx in r.diagram.spaces.items())
    # the weights are seen: with every weight 0 the norm of pi differs
    assert entrywise_norm(t @ r.pi, (0,) * len(ambient), (0,) * len(q), p) != b.pi_norm


def test_bounded_coend_requires_padic():
    from coendforge.exactlinalg import QQ

    F = one_object_diagram(field=QQ)
    with pytest.raises(PrimeMismatch):
        bounded_coend(F)


# -- one reduction per quotient -----------------------------------------------------

def count_reductions(monkeypatch):
    """Wrap `_orthogonalize` and `_rref` at every binding inside the package;
    returns the number of orthogonalizations and the rows of every echelon
    form computed."""
    calls = {"orthogonalize": 0, "rref_rows": []}
    orthogonalize, rref = _orthogonalize, _rref

    def counted_orthogonalize(*args):
        calls["orthogonalize"] += 1
        return orthogonalize(*args)

    def recorded_rref(f, rows):
        rows = [dict(r) for r in rows]
        calls["rref_rows"].append(rows)
        return rref(f, rows)

    for name, mod in list(sys.modules.items()):
        if name == "coendforge" or name.startswith("coendforge."):
            for attr, original, wrapper in (
                    ("_orthogonalize", orthogonalize, counted_orthogonalize),
                    ("_rref", rref, recorded_rref)):
                if getattr(mod, attr, None) is original:
                    monkeypatch.setattr(mod, attr, wrapper)
    return calls


def test_bounded_coend_reduces_its_quotient_once(monkeypatch):
    F = load_spec(K4_PADIC3).functors["F"]
    # the generators are the reduced echelon basis of ker(pi), which is unique
    generators = _rref(QQ, kernel(coend_of_functor(F).pi).cols)[0]
    calls = count_reductions(monkeypatch)
    b = bounded_coend(F)
    assert len(b.class_norms) == 16
    # once on the kernel, once on the reduced lifts
    assert calls["orthogonalize"] == 2
    assert sum(rows == generators for rows in calls["rref_rows"]) == 1
    # the cokernel and the certificate; the relation basis is read off maps
    # already built, and no norm needs the class basis inverted
    assert len(calls["rref_rows"]) == 2


def test_banach_colimit_reduces_its_quotient_once(monkeypatch):
    # a span b <- a -> c of K^4 over padic:3 (total dim 12, 4 classes); unlike
    # a single arrow's, its relation columns are not already in echelon form
    cat = FinCategory(["a", "b", "c"], [("f", "a", "b"), ("g", "a", "c")])
    k = {x: wspace(w, prefix=x) for x, w in
         [("a", (0, 1, 2, -1)), ("b", (1, 0, 2, 0)), ("c", (0, -1, 1, 1))]}
    rows = [[1, 3, 0, 0], [0, 2, Fraction(1, 3), 0], [0, 0, 1, 9], [0, 0, 0, 5]]
    F = DiagramFunctor(cat, Q3, k, {"f": pmap(rows, k["a"], k["b"], Q3),
                                    "g": pmap(rows[::-1], k["a"], k["c"], Q3)})
    # the generators are the reduced echelon basis of ker(pi), which is unique
    generators = _rref(QQ, kernel(banach_colimit(F).pi).cols)[0]
    calls = count_reductions(monkeypatch)
    quotients = []
    monkeypatch.setattr(padic_banach, "cokernel",
                        lambda m: quotients.append(m) or cokernel(m))
    col = banach_colimit(F)
    assert len(col.class_norms) == 4
    assert calls["orthogonalize"] == 2
    assert sum(rows == generators for rows in calls["rref_rows"]) == 1
    # the relation columns are reduced once, inside cokernel: the generators
    # come from pi and the section, not from a second elimination
    (rel,) = quotients
    assert sum(rows == rel.cols for rows in calls["rref_rows"]) == 1


def dense_orthogonalize(vectors, weights, p):
    """The dense greedy orthogonalization the sparse `_orthogonalize`
    replaced, kept as its reference: every step scans every entry for the
    least weighted valuation (first vector, then lowest coordinate, on a
    tie) and eliminates that pivot from every other vector."""
    def wval(a, w):
        v = padic_valuation(a, p)
        return None if v is None else v + w

    work = [list(v) for v in vectors if any(a != 0 for a in v)]
    chosen: list[list] = []
    pivots: list[int] = []
    while work:
        best = None
        for vi, v in enumerate(work):
            for i, a in enumerate(v):
                wv = wval(a, weights[i])
                if wv is None:
                    continue
                if best is None or wv < best[0]:
                    best = (wv, vi, i)
        if best is None:
            break
        _, vi, piv = best
        vec = work.pop(vi)
        inv = 1 / Fraction(vec[piv])
        for other in itertools.chain(work, chosen):
            c = Fraction(other[piv]) * inv
            if c != 0:
                for i in range(len(other)):
                    other[i] = other[i] - c * vec[i]
        chosen.append(vec)
        pivots.append(piv)
        work = [v for v in work if any(a != 0 for a in v)]
    return chosen, pivots


@st.composite
def orthogonalization_instances(draw):
    """(vectors, weights, p): p in {2, 3}, dim 0..5, up to five vectors with
    zero vectors mixed in, and entries and weights from small sets so that
    weighted valuations tie often."""
    p = draw(st.sampled_from([2, 3]))
    dim = draw(st.integers(0, 5))
    weights = tuple(draw(st.lists(st.integers(-1, 1), min_size=dim, max_size=dim)))
    entry = st.sampled_from([Fraction(0), Fraction(0), Fraction(1), Fraction(-1),
                             Fraction(2), Fraction(p), Fraction(1, p), Fraction(-p)])
    vector = st.one_of(st.just([Fraction(0)] * dim),
                       st.lists(entry, min_size=dim, max_size=dim))
    return draw(st.lists(vector, max_size=5)), weights, p


@given(orthogonalization_instances())
@example(([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)], [Fraction(0), Fraction(0)]],
          (0, 0), 2))
def test_sparse_orthogonalize_matches_dense_reference(instance):
    vectors, weights, p = instance
    basis, pivots = _orthogonalize([_rational(v) for v in vectors], weights, p)
    ref_basis, ref_pivots = dense_orthogonalize(vectors, weights, p)
    assert pivots == ref_pivots
    assert [_dense(b, len(weights), QQ) for b in basis] == ref_basis
