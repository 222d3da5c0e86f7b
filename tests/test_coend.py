from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coendforge.cohom import coact, cocompose, coend_object, comatrix, grouplike_coalgebra
from coendforge.coend import (
    ControlData,
    MissingControlData,
    MissingDual,
    NaturalityFailure,
    WellDefinednessFailure,
    _descend,
    antipode_on_coend,
    bialgebra_on_coend,
    c_coend,
    coalgebra_on_coend,
    coend_of_functor,
    comodule_on,
    cowedge_to_nat,
    diagram_of_functor,
    epi_to_c_coend,
    factor_through_coend,
    nat_to_cowedge,
    unit_control,
    verify_cowedge,
)
from coendforge.exactlinalg import (
    QQ,
    LinearMap,
    NoSolution,
    PadicRationals,
    PrimeField,
    Space,
    cokernel,
    identity,
    kron_compose,
    solve_factor,
    tensor,
    tensor_space,
    zero_map,
)
from coendforge.fincat import (
    CategoryMonoidalData,
    DiagramFunctor,
    FinCategory,
    FunctorMonoidalData,
    Transformation,
    cowedge_problems,
)

K = Space.std(1)
K2 = Space.std(2)


def qmap(rows, dom, cod, f=QQ):
    return LinearMap(f, dom, cod, tuple(tuple(f.parse(str(a)) for a in r) for r in rows))


def one_object_functor():
    cat = FinCategory(["pt"], [])
    return DiagramFunctor(cat, QQ, {"pt": K2}, {})


def glued_pair_functor():
    cat = FinCategory(["a", "b"], [("f", "a", "b")])
    return DiagramFunctor(cat, QQ, {"a": K, "b": K}, {"f": qmap([[1]], K, K)})


def discrete_functor(n=3):
    cat = FinCategory([f"p{i}" for i in range(n)], [])
    return DiagramFunctor(cat, QQ, {f"p{i}": K for i in range(n)}, {})


def chain_functor():
    """Three-object chain with dims 1, 2, 2 and nontrivial maps."""
    cat = FinCategory(
        ["a", "b", "c"],
        [("f", "a", "b"), ("g", "b", "c"), ("gf", "a", "c")],
        composition={("g", "f"): "gf"},
    )
    fmap = qmap([[1], [0]], K, K2)
    gmap = qmap([[1, 1], [0, 1]], K2, K2)
    return DiagramFunctor(
        cat, QQ, {"a": K, "b": K2, "c": K2},
        {"f": fmap, "g": gmap, "gf": gmap @ fmap},
    )


def grading_functor(n, field=QQ):
    objs = [f"g{i}" for i in range(n)]
    tensor_obj = {
        (f"g{i}", f"g{j}"): f"g{(i + j) % n}" for i in range(n) for j in range(n)
    }
    duals = {f"g{i}": f"g{(-i) % n}" for i in range(n)}
    cat = FinCategory(objs, [], monoidal=CategoryMonoidalData("g0", tensor_obj, duals=duals))
    one = qmap([[1]], K, K, field)
    fmon = FunctorMonoidalData(
        xi={pair: one for pair in tensor_obj},
        xi_unit=one,
        dual_maps={o: one for o in objs},
    )
    return DiagramFunctor(cat, field, {o: K for o in objs}, {}, monoidal=fmon)


# -- coend_of_functor ----------------------------------------------------------

def test_one_object_coend_is_comatrix():
    r = coend_of_functor(one_object_functor())
    assert r.carrier.dim == 4
    assert r.injections["pt"].rank() == 4
    oracle = coend_object(K2, QQ)
    i = r.injections["pt"]
    assert r.coalgebra.delta @ i == tensor(i, i) @ oracle.coalgebra.delta
    assert r.coalgebra.counit @ i == oracle.coalgebra.counit
    assert verify_cowedge(r) == []


def test_glued_pair_coend_is_one_dimensional():
    r = coend_of_functor(glued_pair_functor())
    assert r.carrier.dim == 1
    # both blocks map onto the same generator
    assert r.injections["a"] == r.injections["b"]
    assert not r.injections["a"].is_zero_map()
    assert verify_cowedge(r) == []


def test_discrete_coend_is_pointwise():
    r = coend_of_functor(discrete_functor(3))
    assert r.carrier.dim == 3
    for i in range(3):
        col = r.injections[f"p{i}"].col(0)
        assert col.count(Fraction(1)) == 1 and col.count(Fraction(0)) == 2


def test_chain_coend_cowedge_and_naturality():
    r = coend_of_functor(chain_functor())
    assert verify_cowedge(r) == []
    for x in ["a", "b", "c"]:
        com = comodule_on(r, x)
        assert com.check() == []


def test_injections_form_a_dinatural_cowedge():
    F = chain_functor()
    r = coend_of_functor(F)
    assert cowedge_problems(diagram_of_functor(F), r.injections, r.carrier) == []


def test_zero_dimensional_object_in_diagram():
    from coendforge.exactlinalg import zero_map

    cat = FinCategory(["z", "a"], [("f", "z", "a")])
    zero = Space.std(0, prefix="z")
    F = DiagramFunctor(cat, QQ, {"z": zero, "a": K}, {"f": zero_map(zero, K, QQ)})
    r = coend_of_functor(F)
    assert r.carrier.dim == 1
    assert r.injections["z"].dom.dim == 0
    assert comodule_on(r, "a").check() == []


# -- coalgebra_on_coend ----------------------------------------------------------

def test_coalgebra_on_one_object_matches_comatrix_constants():
    r = coend_of_functor(one_object_functor())
    c = coalgebra_on_coend(r)
    assert c.check() == []
    # transported through the invertible injection, the structure constants
    # are the comatrix ones (checked in test_one_object_coend_is_comatrix)


def test_coalgebra_on_discrete_is_grouplike():
    r = coend_of_functor(discrete_functor(3))
    c = coalgebra_on_coend(r)
    g = grouplike_coalgebra(QQ, ["a", "b", "c"])
    assert c.delta == g.delta
    assert c.counit == g.counit


def test_coalgebra_on_glued_pair_is_grouplike_line():
    r = coend_of_functor(glued_pair_functor())
    c = coalgebra_on_coend(r)
    assert c.carrier.dim == 1
    assert c.delta == identity(K, QQ)
    assert c.counit == identity(K, QQ)


# -- comodule_on -----------------------------------------------------------------

def test_comodule_on_one_object_is_coev():
    r = coend_of_functor(one_object_functor())
    com = comodule_on(r, "pt")
    idm = identity(K2, QQ)
    assert com.rho == tensor(idm, r.injections["pt"]) @ r.blocks["pt"].coev


def test_comodule_on_glued_pair_is_trivial_coaction():
    r = coend_of_functor(glued_pair_functor())
    com = comodule_on(r, "a")
    assert com.rho == qmap([[1]], K, K)


# -- nat_to_cowedge / cowedge_to_nat ---------------------------------------------

def test_delta_corresponds_to_injections():
    r = coend_of_functor(chain_functor())
    t = Transformation(dict(r.delta))
    w = nat_to_cowedge(r, t, r.carrier)
    for x in r.diagram.objects:
        assert w[x] == r.injections[x]


def test_identity_corresponds_to_counits():
    r = coend_of_functor(chain_functor())
    # t = (id (x) eps) o delta = id: F -> F (x) K
    t = Transformation(
        {x: identity(r.diagram.spaces[x], QQ) for x in r.diagram.objects}
    )
    w = nat_to_cowedge(r, t, K)
    for x in r.diagram.objects:
        assert w[x] == coend_object(r.diagram.spaces[x], QQ).coalgebra.counit


def test_round_trip_both_directions(rng):
    F = chain_functor()
    r = coend_of_functor(F)
    m = Space.std(2, prefix="m")
    for _ in range(10):
        psi = qmap(
            [[rng.randint(-3, 3) for _ in range(r.carrier.dim)] for _ in range(2)],
            r.carrier, m,
        )
        t = Transformation(
            {x: tensor(identity(r.diagram.spaces[x], QQ), psi) @ r.delta[x]
             for x in r.diagram.objects}
        )
        w = nat_to_cowedge(r, t, m)
        t2 = cowedge_to_nat(r, w, m)
        for x in r.diagram.objects:
            assert t2[x] == t[x]
        w2 = nat_to_cowedge(r, t2, m)
        for x in r.diagram.objects:
            assert w2[x] == w[x]


def test_cowedge_from_natural_is_dinatural(rng):
    F = chain_functor()
    r = coend_of_functor(F)
    m = Space.std(3, prefix="m")
    for _ in range(10):
        psi = qmap(
            [[rng.randint(-2, 2) for _ in range(r.carrier.dim)] for _ in range(3)],
            r.carrier, m,
        )
        t = Transformation(
            {x: tensor(identity(r.diagram.spaces[x], QQ), psi) @ r.delta[x]
             for x in r.diagram.objects}
        )
        w = nat_to_cowedge(r, t, m)
        assert cowedge_problems(diagram_of_functor(F), w, m) == []


def test_nat_to_cowedge_rejects_non_natural():
    r = coend_of_functor(glued_pair_functor())
    t = Transformation({"a": qmap([[1]], K, K), "b": qmap([[2]], K, K)})
    with pytest.raises(NaturalityFailure):
        nat_to_cowedge(r, t, K)


@pytest.mark.parametrize("components", [
    {"a": qmap([[1]], K, K), "b": qmap([[1], [0]], K, K2)},  # wrong shape at a
    {"b": qmap([[1], [0]], K, K2)},                           # no component at a
])
def test_nat_to_cowedge_rejects_malformed_components(components):
    r = coend_of_functor(glued_pair_functor())
    with pytest.raises(NaturalityFailure):
        nat_to_cowedge(r, Transformation(components), K2)


def test_tampered_injection_names_only_its_morphism():
    # a -> b <- c: the injection at a meets only f
    cat = FinCategory(["a", "b", "c"], [("f", "a", "b"), ("g", "c", "b")])
    F = DiagramFunctor(cat, QQ, {x: K for x in "abc"},
                       {"f": qmap([[1]], K, K), "g": qmap([[2]], K, K)})
    r = coend_of_functor(F)
    assert verify_cowedge(r) == []
    r.injections["a"] = r.injections["a"].scale(Fraction(3))
    assert verify_cowedge(r) == ["cowedge relation fails at morphism f"]


# -- factor_through_coend --------------------------------------------------------

def test_factor_of_delta_is_identity():
    r = coend_of_functor(chain_functor())
    t = Transformation(dict(r.delta))
    psi = factor_through_coend(r, t, r.carrier)
    assert psi == identity(r.carrier, QQ)


def test_factor_of_zero_is_zero():
    r = coend_of_functor(chain_functor())
    m = Space.std(2, prefix="m")
    t = Transformation(
        {
            x: qmap(
                [[0] * r.diagram.spaces[x].dim
                 for _ in range(r.diagram.spaces[x].dim * 2)],
                r.diagram.spaces[x],
                tensor_space(r.diagram.spaces[x], m),
            )
            for x in r.diagram.objects
        }
    )
    psi = factor_through_coend(r, t, m)
    assert psi.is_zero_map()


def test_factor_recovers_random_psi(rng):
    r = coend_of_functor(chain_functor())
    m = Space.std(2, prefix="m")
    for _ in range(20):
        psi0 = qmap(
            [[rng.randint(-4, 4) for _ in range(r.carrier.dim)] for _ in range(2)],
            r.carrier, m,
        )
        t = Transformation(
            {x: tensor(identity(r.diagram.spaces[x], QQ), psi0) @ r.delta[x]
             for x in r.diagram.objects}
        )
        assert factor_through_coend(r, t, m) == psi0


# -- c_coend and the control epimorphism ------------------------------------------

def test_unit_control_is_bit_identical():
    F = discrete_functor(3)
    r = coend_of_functor(F)
    d = diagram_of_functor(F)
    rc = c_coend(F, [unit_control(d)])
    assert rc.pi.entries == r.pi.entries
    assert rc.carrier == r.carrier
    for x in d.objects:
        assert rc.injections[x].entries == r.injections[x].entries


def test_empty_control_list_equals_plain_coend():
    F = glued_pair_functor()
    r = coend_of_functor(F)
    rc = c_coend(F, [])
    assert rc.pi.entries == r.pi.entries


def swap_control():
    """Control merging the first two points of the discrete 3-point diagram."""
    return ControlData(
        "merge01",
        K,
        {"p0": "p1", "p1": "p0", "p2": "p2"},
        {x: qmap([[1]], K, K) for x in ["p0", "p1", "p2"]},
    )


def test_control_relations_merge_points():
    F = discrete_functor(3)
    r = coend_of_functor(F)
    rc = c_coend(F, [swap_control()])
    assert r.carrier.dim == 3
    assert rc.carrier.dim == 2
    assert rc.injections["p0"] == rc.injections["p1"]


def test_control_shrinks_never_grows():
    F = discrete_functor(3)
    r = coend_of_functor(F)
    rc = c_coend(F, [swap_control()])
    assert rc.carrier.dim <= r.carrier.dim


def test_missing_control_data_raises():
    F = discrete_functor(2)
    bad = ControlData("broken", K, {"p0": "p1"}, {})
    with pytest.raises(MissingControlData):
        c_coend(F, [bad])


def test_epi_to_c_coend_identity_case():
    F = discrete_functor(3)
    r = coend_of_functor(F)
    h = epi_to_c_coend(r, r)
    assert h == identity(r.carrier, QQ)


def test_epi_to_c_coend_merges_grouplikes():
    F = discrete_functor(3)
    r = coend_of_functor(F)
    rc = c_coend(F, [swap_control()])
    h = epi_to_c_coend(r, rc)
    assert h.rank() == 2
    assert h @ r.injections["p0"] == rc.injections["p0"]
    # two grouplikes are identified
    assert h @ r.injections["p0"] == h @ r.injections["p1"]


def test_epi_is_coalgebra_morphism_on_z2_with_shift_control():
    F = grading_functor(2)
    r = coend_of_functor(F)
    shift = ControlData(
        "shift", K, {"g0": "g1", "g1": "g0"},
        {x: qmap([[1]], K, K) for x in ["g0", "g1"]},
    )
    rc = c_coend(F, [shift])
    assert rc.carrier.dim == 1
    h = epi_to_c_coend(r, rc)
    assert h.rank() == 1


# -- bialgebra and Hopf structure ---------------------------------------------------

def test_z2_bialgebra_is_group_algebra():
    F = grading_functor(2)
    r = coend_of_functor(F)
    b = bialgebra_on_coend(F, r)
    assert b.check() == []
    assert r.carrier.dim == 2
    g = [r.injections[f"g{i}"].col(0) for i in range(2)]
    # m(g_i (x) g_j) = g_{i+j}
    for i in range(2):
        for j in range(2):
            prod = b.mult.apply(
                [gi * gj for gi in g[i] for gj in g[j]]
            )
            assert prod == g[(i + j) % 2]
    # grouplikes
    for i in range(2):
        assert b.delta.apply(g[i]) == [a * bb for a in g[i] for bb in g[i]]
    assert b.unit.col(0) == g[0]


@pytest.mark.parametrize("build", [bialgebra_on_coend, antipode_on_coend])
def test_library_entry_points_validate_the_source_category(build):
    # check_monoidal trusts its source category; the entry points check it
    cat = FinCategory(["g0"], [("h", "g0", "g0")],
                      monoidal=CategoryMonoidalData("g0", {("g0", "g0"): "g0"}))
    one = qmap([[1]], K, K)
    F = DiagramFunctor(cat, QQ, {"g0": K}, {"h": one},
                       monoidal=FunctorMonoidalData(xi={("g0", "g0"): one}, xi_unit=one))
    with pytest.raises(WellDefinednessFailure, match=r"missing composite \(h, h\)"):
        build(F, coend_of_functor(F))


def test_trivial_monoidal_coend_bialgebra():
    objs = ["pt"]
    cat = FinCategory(
        objs, [], monoidal=CategoryMonoidalData("pt", {("pt", "pt"): "pt"},
                                                duals={"pt": "pt"})
    )
    one = qmap([[1]], K, K)
    F = DiagramFunctor(
        cat, QQ, {"pt": K}, {},
        monoidal=FunctorMonoidalData(xi={("pt", "pt"): one}, xi_unit=one,
                                     dual_maps={"pt": one}),
    )
    r = coend_of_functor(F)
    b = bialgebra_on_coend(F, r)
    assert r.carrier.dim == 1
    assert b.mult == qmap([[1]], K, K)
    h = antipode_on_coend(F, r)
    assert h.antipode == identity(r.carrier, QQ)


def test_z3_bialgebra_over_f2():
    f2 = PrimeField(2)
    F = grading_functor(3, field=f2)
    r = coend_of_functor(F)
    b = bialgebra_on_coend(F, r)
    assert b.check() == []
    assert r.carrier.dim == 3
    g = [r.injections[f"g{i}"].col(0) for i in range(3)]
    for i in range(3):
        for j in range(3):
            prod = b.mult.apply([f2.mul(gi, gj) for gi in g[i] for gj in g[j]])
            assert prod == g[(i + j) % 3]


def test_z2_antipode_is_identity_permutation():
    F = grading_functor(2)
    r = coend_of_functor(F)
    bialgebra_on_coend(F, r)
    h = antipode_on_coend(F, r)
    assert h.check() == []
    g = [r.injections[f"g{i}"].col(0) for i in range(2)]
    for i in range(2):
        assert h.antipode.apply(g[i]) == g[(-i) % 2]


def test_z3_antipode_is_inversion_permutation():
    F = grading_functor(3)
    r = coend_of_functor(F)
    bialgebra_on_coend(F, r)
    h = antipode_on_coend(F, r)
    assert h.check() == []
    g = [r.injections[f"g{i}"].col(0) for i in range(3)]
    for i in range(3):
        assert h.antipode.apply(g[i]) == g[(-i) % 3]
    # a genuinely nontrivial permutation
    assert h.antipode.apply(g[1]) != g[1]


def test_antipode_missing_duals_raises():
    F = grading_functor(2)
    F.monoidal = replace(F.monoidal, dual_maps=None)
    r = coend_of_functor(F)
    bialgebra_on_coend(F, r)
    with pytest.raises(MissingDual):
        antipode_on_coend(F, r)


def test_bialgebra_compatibility_on_all_monoidal_examples():
    from coendforge.exactlinalg import swap_map

    for F in [grading_functor(2), grading_functor(3)]:
        r = coend_of_functor(F)
        b = bialgebra_on_coend(F, r)
        q = r.carrier
        mid = tensor(tensor(identity(q, QQ), swap_map(q, q, QQ)), identity(q, QQ))
        assert b.delta @ b.mult == tensor(b.mult, b.mult) @ mid @ tensor(b.delta, b.delta)


def test_antipode_block_map_is_anti_coalgebra_morphism():
    # the flip-and-dualize block map behind the antipode, checked on a
    # 2-dimensional block: it must reverse the comatrix comultiplication
    from coendforge.exactlinalg import dual, dual_space, invert_map, swap_map

    x = Space.std(2)
    e = coend_object(x, QQ).coalgebra
    d = identity(dual_space(x), QQ)  # F(X*) = X^* identified by the identity
    sigma = tensor(dual(d), invert_map(d)) @ swap_map(dual_space(x), x, QQ)
    estar = coend_object(dual_space(x), QQ).coalgebra
    tau = swap_map(estar.carrier, estar.carrier, QQ)
    assert estar.delta @ sigma == tau @ tensor(sigma, sigma) @ e.delta
    assert estar.counit @ sigma == e.counit


# -- randomized invariants -----------------------------------------------------------

def random_diagram_functor(rng, n_objects=3, max_dim=2, f=QQ, min_dim=1):
    """A random functor on a linear chain of n objects, over the field f."""
    objs = [f"x{i}" for i in range(n_objects)]
    mors = [(f"f{i}", f"x{i}", f"x{i+1}") for i in range(n_objects - 1)]
    comp = {}
    names = {}
    # freely compose the chain; record composites with explicit names
    all_mors = list(mors)
    for i in range(n_objects - 1):
        for j in range(i + 1, n_objects - 1):
            name = f"f{i}to{j+1}"
            all_mors.append((name, f"x{i}", f"x{j+1}"))
    cat_mors = all_mors
    spaces = {o: Space.std(rng.randint(min_dim, max_dim), prefix=o) for o in objs}
    maps = {}
    for name, a, b in mors:
        maps[name] = qmap(
            [[rng.randint(-2, 2) for _ in range(spaces[a].dim)]
             for _ in range(spaces[b].dim)],
            spaces[a], spaces[b], f,
        )
    # composites
    for i in range(n_objects - 1):
        acc = None
        for j in range(i, n_objects - 1):
            step = maps[f"f{j}"]
            acc = step if acc is None else step @ acc
            if j > i:
                maps[f"f{i}to{j+1}"] = acc
                comp[(f"f{j}", f"f{i}to{j}" if j > i + 1 else f"f{i}")] = f"f{i}to{j+1}"
    cat = FinCategory(objs, cat_mors, composition=comp)
    return DiagramFunctor(cat, f, spaces, maps)


def test_randomized_delta_natural_and_comodules(rng):
    from coendforge.fincat import validate_functor

    for _ in range(6):
        F = random_diagram_functor(rng)
        assert validate_functor(F).ok
        r = coend_of_functor(F)
        assert verify_cowedge(r) == []
        for x in r.diagram.objects:
            com = comodule_on(r, x)
            assert com.check() == []


def test_randomized_universal_bijection(rng):
    for _ in range(4):
        F = random_diagram_functor(rng)
        r = coend_of_functor(F)
        m = Space.std(2, prefix="m")
        psi0 = qmap(
            [[rng.randint(-3, 3) for _ in range(r.carrier.dim)] for _ in range(2)],
            r.carrier, m,
        )
        t = Transformation(
            {x: tensor(identity(r.diagram.spaces[x], QQ), psi0) @ r.delta[x]
             for x in r.diagram.objects}
        )
        assert factor_through_coend(r, t, m) == psi0


def test_blockwise_structure_is_the_sum_of_the_comatrix_blocks(rng):
    # the fact the reconstruction lemma rests on: Delta_N and eps_N are the
    # comatrix coalgebras of the blocks, placed through the block inclusions,
    # so coact(rho_x) meets Delta_N on its block in the comatrix convention.
    # Each block's oracle is cocompose(X, X, X) and the coaction of id_X.
    for _ in range(6):
        F = random_diagram_functor(rng, n_objects=rng.randint(1, 3), max_dim=3, min_dim=0)
        r = coend_of_functor(F)
        n = r.nspace
        delta = zero_map(n, tensor_space(n, n), QQ)
        counit = zero_map(n, K, QQ)
        for x in r.diagram.objects:
            fx = r.diagram.spaces[x]
            block = r.blocks[x].carrier
            off, dim = r.offsets[x], block.dim
            incl = LinearMap.from_sparse(QQ, block, n, [{off + i: 1} for i in range(dim)])
            proj = LinearMap.from_sparse(QQ, n, block, [
                {j - off: 1} if off <= j < off + dim else {} for j in range(n.dim)])
            delta = delta + kron_compose(incl, incl, cocompose(fx, fx, fx, QQ)) @ proj
            counit = counit + coact(identity(fx, QQ), fx, K) @ proj
        blockwise = comatrix(n, [r.diagram.spaces[x].dim for x in r.diagram.objects], QQ)
        assert blockwise.delta == delta
        assert blockwise.counit == counit


# -- descend-by-section -------------------------------------------------------------

DESCEND_FIELDS = [QQ, PrimeField(7), PadicRationals(3)]


@st.composite
def descent_problems(draw, relation_free=False):
    """A relation matrix rel into N, and a target on N (or on N (x) N) that
    factors through N / im(rel), that does not, or that factors and then has
    one column outside the section's image altered, which breaks it.  With
    relation_free set, rel is a zero matrix with 0..4 columns."""
    f = draw(st.sampled_from(DESCEND_FIELDS))
    pair = draw(st.booleans())
    n = draw(st.integers(0, 3 if pair else 4))
    k = draw(st.integers(0, 4))
    t = draw(st.integers(0, 3))
    scalar = st.integers(-2, 2)

    def mat(rows, cols, dom, cod):
        entries = draw(st.lists(st.lists(scalar, min_size=cols, max_size=cols),
                                min_size=rows, max_size=rows))
        return LinearMap(f, dom, cod, tuple(tuple(f.from_int(a) for a in r) for r in entries))

    nspace = Space.std(n, prefix="n")
    if relation_free:
        rel = LinearMap.from_sparse(f, Space.std(k, prefix="r"), nspace, [{} for _ in range(k)])
    else:
        rel = mat(n, k, Space.std(k, prefix="r"), nspace)
    pi, s = cokernel(rel)
    through = tensor(pi, pi) if pair else pi
    tspace = Space.std(t, prefix="t")
    kind = draw(st.sampled_from(["factors", "arbitrary", "altered"]))
    if kind == "arbitrary":
        target = mat(t, through.dom.dim, through.dom, tspace)
    else:
        target = mat(t, through.cod.dim, through.cod, tspace) @ through
    free = {j for col in s.cols for j in col}
    outside = [c for c in range(through.dom.dim)
               if not ({c // n, c % n} if pair else {c}) <= free]
    if kind == "altered" and outside and t:
        # the section fixes the free coordinates, so only these columns can
        # make psi o pi differ from target
        i, c = draw(st.integers(0, t - 1)), draw(st.sampled_from(outside))
        rows = [list(row) for row in target.entries]
        rows[i][c] = f.add(rows[i][c], f.from_int(draw(st.sampled_from([-2, -1, 1, 2]))))
        target = LinearMap(f, target.dom, tspace, tuple(map(tuple, rows)))
    r = SimpleNamespace(field=f, nspace=nspace, pi=pi, section=s)
    return r, target, through, pair


@given(descent_problems())
def test_descend_matches_solve_factor(problem):
    r, target, through, pair = problem
    try:
        expected = solve_factor(target, through)
    except NoSolution as exc:
        with pytest.raises(NoSolution) as info:
            _descend(r, target, pair=pair)
        assert str(info.value) == str(exc)
        return
    got = _descend(r, target, pair=pair)
    assert (got.dom, got.cod) == (expected.dom, expected.cod)
    assert got.entries == expected.entries


@given(descent_problems(relation_free=True))
def test_relation_free_descent_matches_solve_factor(problem):
    # cokernel returns flagged identities, and _descend reads the target
    # on the quotient, in the single and the pair form
    r, target, through, pair = problem
    assert r.pi._ident and r.section._ident
    expected = solve_factor(target, through)
    got = _descend(r, target, pair=pair)
    assert (got.dom, got.cod) == (expected.dom, expected.cod)
    assert got.entries == expected.entries


def requotient(r, rel_cols):
    """Replace the quotient of r by N / span(rel_cols), so that an induced
    map which descended before no longer does."""
    n = r.nspace.dim
    rel = LinearMap(r.field, Space.std(len(rel_cols), prefix="r"), r.nspace,
                    tuple(tuple(col[i] for col in rel_cols) for i in range(n)))
    r.pi, r.section = cokernel(rel)
    r.carrier = r.pi.cod
    return r


def unit_col(n, i):
    return [Fraction(int(j == i)) for j in range(n)]


def test_coalgebra_descent_failure_message():
    r = coend_of_functor(one_object_functor())
    # killing e_(0,0) leaves e_(0,1) (x) e_(1,0) in delta(e_(0,0))
    requotient(r, [unit_col(4, 0)])
    with pytest.raises(WellDefinednessFailure) as info:
        coalgebra_on_coend(r)
    assert str(info.value) == (
        "induced coalgebra is not well defined: "
        "kernel of 'through' is not contained in kernel of 'target'"
    )


def test_multiplication_descent_failure_message():
    F = grading_functor(2)
    r = requotient(coend_of_functor(F), [unit_col(2, 1)])  # g1 g1 = g0 survives
    with pytest.raises(WellDefinednessFailure) as info:
        bialgebra_on_coend(F, r)
    assert str(info.value) == "multiplication does not descend to the quotient"


def test_antipode_descent_failure_message():
    # over F_7, w = 2 is a cube root of 1.  The kernel of the character
    # g_i |-> w^i is an ideal, so the multiplication descends, but S sends
    # g1 - 2 g0 to g2 - 2 g0, which that character does not kill
    f = PrimeField(7)
    F = grading_functor(3, f)
    r = requotient(coend_of_functor(F), [[f.from_int(-2), f.one(), f.zero()],
                                         [f.from_int(-4), f.zero(), f.one()]])
    bialgebra_on_coend(F, r)
    with pytest.raises(WellDefinednessFailure) as info:
        antipode_on_coend(F, r)
    assert str(info.value) == "antipode does not descend to the quotient"


def test_factor_descent_failure_message():
    r = coend_of_functor(one_object_functor())
    # the identity F -> F (x) K corresponds to the counit, nonzero on e_(0,0)
    t = Transformation({"pt": qmap([[1, 0], [0, 1]], K2, tensor_space(K2, K))})
    requotient(r, [unit_col(4, 0)])
    with pytest.raises(NaturalityFailure) as info:
        factor_through_coend(r, t, K)
    assert str(info.value) == "cowedge does not descend to the quotient"


def test_epi_refuses_coends_of_different_diagrams():
    # dims (1, 2) and (2, 1) give the same ambient dim 5 with other blocks
    cat = FinCategory(["a", "b"], [])
    r = coend_of_functor(DiagramFunctor(cat, QQ, {"a": K, "b": K2}, {}))
    r2 = coend_of_functor(DiagramFunctor(cat, QQ, {"a": K2, "b": K}, {}))
    assert r.nspace.dim == r2.nspace.dim == 5
    with pytest.raises(ValueError) as info:
        epi_to_c_coend(r, r2)
    assert str(info.value) == "coends were not computed from the same diagram"


def test_epi_descent_failure_message():
    F = discrete_functor(3)
    r = coend_of_functor(F)
    rc = c_coend(F, [swap_control()])
    # the plain coend is not a quotient of the one with more relations
    with pytest.raises(WellDefinednessFailure) as info:
        epi_to_c_coend(rc, r)
    assert str(info.value) == "the second coend does not refine the first"
