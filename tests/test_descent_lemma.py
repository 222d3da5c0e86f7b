"""The descents of Delta and eps decide the coalgebra laws on a coend, so
``coalgebra_on_coend``, ``comodule_on`` and ``epi_to_c_coend`` check no law
of their own.

The premises: Delta_N and eps_N are the lawful blockwise comatrix
coalgebra, and pi is onto, since every quotient basis vector is pi of a free
coordinate of N.  Once Delta_Q o pi = (pi (x) pi) o Delta_N and
eps_Q o pi = eps_N hold,

- Q is a coalgebra: both sides of each law agree after composing with pi;
- every i_x = pi o in_x is a coalgebra map, so each universal coaction
  delta_x = (id (x) i_x) o coev_x is a lawful comodule;
- a further descent h o pi = pi_c from the same Delta_N and eps_N makes h a
  coalgebra map.

Here the conclusions are checked in full, by the reference coassociativity
form, ``Comodule.check`` and ``coalgebra_morphism_problems``, on chain
diagrams over Q, F_7 and Q_3 with zero-dim objects, morphism-free diagrams,
and diagrams with a control.  On a quotient by arbitrary relation columns
the descent is compared with an oracle of its own (the relations form a
coideal), and whenever it accepts, the laws hold.

The monoidal tables and the descents decide the bialgebra and Hopf laws
too.  Once the tables pass, every F(x) is 0- or 1-dim, N has the basis e_x
for the 1-dim objects O_1, grouplike under Delta_N and eps_N, and
mu_N(e_x (x) e_y) = e_(x (x) y).  So N is the monoid bialgebra K[O_1] when
the object tensor is unital and associative on O_1, and S_N(e_x) = e_(x*)
is an antipode when x* (x) x = I = x (x) x*; the descents of the
multiplication and antipode carry each law to Q.  Here random tables on one
to six objects (some 0-dim; cyclic, max, unital but otherwise random, and
with a unit that is no identity; duals right or wrong; arrows between 1-dim
objects, which identify blocks of N) are run through both constructors,
and each outcome is compared with the one the reference checks give on Q.
When a table law holds on N the references read [] on Q, and the full check
runs on Q exactly when a table law fails."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest
from coendforge.cohom import (
    Bialgebra,
    Comodule,
    HopfAlgebra,
    coalgebra_morphism_problems,
    comatrix,
)
from coendforge.coend import (
    ControlData,
    WellDefinednessFailure,
    _descend,
    antipode_from_monoidal,
    bialgebra_from_monoidal,
    c_coend,
    coalgebra_on_coend,
    coend_of_functor,
    comodule_on,
    epi_to_c_coend,
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
    tensor,
    tensor_space,
)
from coendforge.fincat import (
    CategoryMonoidalData,
    DiagramFunctor,
    FinCategory,
    FunctorMonoidalData,
)
from references import reference_coalgebra_problems, transposed_algebra_problems
from test_axiom_parity import reference_antipode_problems
from test_check_policy import count_checks
from test_coend import random_diagram_functor

FIELDS = [QQ, PrimeField(7), PadicRationals(3)]
K = Space.std(1)


def discrete_functor(f, rng, n_objects):
    """Objects with spaces of dim 0..2 and no morphisms: no relations."""
    objs = [f"p{i}" for i in range(n_objects)]
    spaces = {o: Space.std(rng.randint(0, 2), prefix=o) for o in objs}
    return DiagramFunctor(FinCategory(objs, []), f, spaces, {})


def random_control(F, rng) -> ControlData:
    """C = K acting by a dimension-preserving map of the objects, with a
    monomial xi_x: F(C.x) -> K (x) F(x): a permutation times nonzero scalars."""
    f = F.field
    objs = list(F.source.objects)
    action, xi = {}, {}
    for x in objs:
        fx = F.space(x)
        cx = rng.choice([y for y in objs if F.space(y).dim == fx.dim])
        perm = list(range(fx.dim))
        rng.shuffle(perm)
        cols = [{perm[j]: f.from_int(rng.choice([1, 2, -1, 3]))} for j in range(fx.dim)]
        action[x] = cx
        xi[x] = LinearMap.from_sparse(f, F.space(cx), tensor_space(K, fx), cols)
    return ControlData("c", K, action, xi)


def blockwise(r):
    """Delta_N and eps_N: the comatrix coalgebra of the blocks of N."""
    return comatrix(r.nspace, [r.diagram.spaces[x].dim for x in r.diagram.objects], r.field)


def assert_premises(r):
    f, one = r.field, r.field.one()
    assert r.pi @ r.section == identity(r.carrier, f)
    # each quotient basis vector is pi of a free coordinate, so pi is onto
    for k, col in enumerate(r.section.cols):
        (j, a), = col.items()
        assert a == one and r.pi.cols[j] == {k: one}
    assert blockwise(r).check() == []


def assert_lawful(r):
    assert reference_coalgebra_problems(coalgebra_on_coend(r)) == []
    for x in r.diagram.objects:
        assert comodule_on(r, x).check() == []


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS), st.sampled_from(["chain", "discrete"]), st.integers(1, 3),
       st.booleans(), st.integers(0, 10 ** 6))
def test_the_descents_decide_the_coalgebra_comodules_and_epi(f, shape, n_objects, control,
                                                             seed):
    rng = random.Random(seed)
    if shape == "chain":
        F = random_diagram_functor(rng, n_objects, max_dim=2, f=f, min_dim=0)
    else:
        F = discrete_functor(f, rng, n_objects)
    r = coend_of_functor(F)
    assert_premises(r)
    assert_lawful(r)
    if control:
        rc = c_coend(F, [random_control(F, rng)])
        assert_premises(rc)
        assert_lawful(rc)
        h = epi_to_c_coend(r, rc)
        assert coalgebra_morphism_problems(h, r.coalgebra, rc.coalgebra) == []


def relation_columns(r, kind, rng):
    """Sparse relation columns in N: the off-diagonal coordinates of one
    block (a coideal), one coordinate, or one column of small scalars."""
    f, n = r.field, r.nspace.dim
    if kind == "off-diagonal":
        x = rng.choice(r.diagram.objects)
        dx, off = r.diagram.spaces[x].dim, r.offsets[x]
        return [{off + j * dx + i: f.one()} for j in range(dx) for i in range(dx) if i != j]
    if kind == "coordinate":
        return [{rng.randrange(n): f.one()}] if n else []
    col = {j: f.from_int(rng.randint(-2, 2)) for j in range(n)}
    return [{j: a for j, a in col.items() if not f.is_zero(a)}]


def requotient(r, cols):
    """r with N divided by the span of cols in place of its own relations,
    and its injections and universal coactions rebuilt over the new pi."""
    f = r.field
    r.pi, r.section = cokernel(
        LinearMap.from_sparse(f, Space.std(len(cols), prefix="r"), r.nspace, cols))
    r.carrier = r.pi.cod
    for x in r.diagram.objects:
        lo, hi = r.offsets[x], r.offsets[x] + r.blocks[x].carrier.dim
        r.injections[x] = LinearMap.from_sparse(f, r.blocks[x].carrier, r.carrier,
                                                r.pi.cols[lo:hi])
        r.delta[x] = kron_compose(identity(r.diagram.spaces[x], f), r.injections[x],
                                  r.blocks[x].coev)
    return r


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(1, 3),
       st.sampled_from(["off-diagonal", "coordinate", "random"]), st.integers(0, 10 ** 6))
def test_an_accepted_descent_decides_the_laws(f, n_objects, kind, seed):
    rng = random.Random(seed)
    r = coend_of_functor(discrete_functor(f, rng, n_objects))
    cols = relation_columns(r, kind, rng)
    requotient(r, cols)
    assert_premises(r)
    # the oracle: the relations span a coideal, killed by (pi (x) pi) Delta_N and eps_N
    rel = LinearMap.from_sparse(f, Space.std(len(cols), prefix="r"), r.nspace, cols)
    zero = [{} for _ in cols]
    coideal = ((tensor(r.pi, r.pi) @ blockwise(r).delta @ rel).cols == zero
               and (blockwise(r).counit @ rel).cols == zero)
    try:
        coalg = coalgebra_on_coend(r)
    except WellDefinednessFailure:
        assert not coideal
        return
    assert coideal
    assert reference_coalgebra_problems(coalg) == []
    for x in r.diagram.objects:
        assert Comodule(r.diagram.spaces[x], coalg, r.delta[x]).check() == []


# ---------------------------------------------------------------------------
# the bialgebra and Hopf laws, decided by the tables and the descents
# ---------------------------------------------------------------------------

def table_product(kind, k, rng):
    """A product on {0, .., k-1} with 0 as its identity, except "random",
    which keeps 0 an identity and fills the rest at random."""
    if kind == "cyclic":
        return {(i, j): (i + j) % k for i in range(k) for j in range(k)}
    if kind == "max":
        return {(i, j): max(i, j) for i in range(k) for j in range(k)}
    return {(i, j): j if i == 0 else i if j == 0 else rng.randrange(k)
            for i in range(k) for j in range(k)}


def monoidal_functor(f, rng, n_objects, kind, unital, right_duals, n_arrows):
    """Objects o0.. of dim 0 or 1 with the product of table_product on the
    1-dim ones (in a random order), its unit declared at 0 or, when not
    unital, at a random element; 0-dim objects tensor into a 0-dim one.
    Duals are inverses when right_duals holds (and the table has them),
    else random; arrows between 1-dim objects carry nonzero scalars."""
    objs = [f"o{i}" for i in range(n_objects)]
    k = rng.randint(1, n_objects)
    ones = rng.sample(objs, k)
    zeros = [x for x in objs if x not in ones]
    product = table_product(kind, k, rng)
    unit = ones[0] if unital else rng.choice(ones)
    tensor_obj = {(ones[i], ones[j]): ones[ij] for (i, j), ij in product.items()}
    for a in objs:
        for b in objs:
            if a in zeros or b in zeros:
                tensor_obj[(a, b)] = rng.choice(zeros)
    inverse = {ones[i]: ones[j] for i in range(k) for j in range(k)
               if product[(i, j)] == product[(j, i)] == 0}
    duals = {x: (inverse[x] if right_duals and x in inverse else rng.choice(ones))
             for x in ones}
    duals.update((x, rng.choice(zeros)) for x in zeros)
    spaces = {x: Space.std(int(x in ones), prefix=x) for x in objs}

    def scalar_map(a, b):
        dom, cod = Space.std(a), Space.std(b)
        cols = [{0: f.from_int(rng.choice([1, 2, -1, 3]))}] if a == b == 1 else []
        return LinearMap.from_sparse(f, dom, cod, cols)

    arrows = [(f"h{i}", rng.choice(ones), rng.choice(ones)) for i in range(n_arrows)]
    maps = {name: scalar_map(1, 1) for name, _, _ in arrows}
    xi = {(a, b): scalar_map(spaces[a].dim * spaces[b].dim, spaces[ab].dim)
          for (a, b), ab in tensor_obj.items()}
    dual_maps = {x: scalar_map(spaces[x].dim, spaces[x].dim) for x in objs}
    cat = FinCategory(objs, arrows, monoidal=CategoryMonoidalData(unit, tensor_obj, {}, duals))
    return DiagramFunctor(cat, f, spaces, maps,
                          FunctorMonoidalData(xi, scalar_map(1, 1), dual_maps))


def table_laws(F):
    """(monoid, inverses): whether the object tensor is unital and
    associative on the 1-dim objects, all n^3 triples walked, and whether
    x* (x) x = I = x (x) x* for each of them."""
    mon = F.source.monoidal
    t, unit = mon.tensor_obj, mon.unit
    ones = [x for x in F.source.objects if F.space(x).dim == 1]
    monoid = (all(t[(unit, x)] == x == t[(x, unit)] for x in ones)
              and all(t[(t[(a, b)], c)] == t[(a, t[(b, c)])]
                      for a in ones for b in ones for c in ones))
    inverses = all(t[(mon.duals[x], x)] == unit == t[(x, mon.duals[x])] for x in ones)
    return monoid, inverses


def reference_outcomes(F):
    """The outcomes of ``bialgebra_from_monoidal`` and
    ``antipode_from_monoidal`` on the coend of F with the reference checks
    run on Q in full: "ok" or the failure text."""
    r = coend_of_functor(F)
    mon, f = F.source.monoidal, F.field
    n, one, off = r.nspace.dim, f.one(), r.offsets
    ones = [x for x in r.diagram.objects if r.diagram.spaces[x].dim == 1]
    mu = [{} for _ in range(n * n)]
    for x in ones:
        for y in ones:
            mu[off[x] * n + off[y]] = {off[mon.tensor_obj[(x, y)]]: one}
    try:
        m_q = _descend(r, r.pi @ LinearMap.from_sparse(f, tensor_space(r.nspace, r.nspace),
                                                       r.nspace, mu), pair=True)
    except NoSolution:
        failure = "multiplication does not descend to the quotient"
        return failure, failure
    bialg = Bialgebra(r.carrier, r.coalgebra.delta, r.coalgebra.counit, m_q,
                      r.injections[mon.unit])
    problems = transposed_algebra_problems(bialg)
    if problems:
        return "; ".join(problems), "; ".join(problems)
    sigma = [{} for _ in range(n)]
    for x in ones:
        sigma[off[x]] = {off[mon.duals[x]]: one}
    try:
        s_q = _descend(r, r.pi @ LinearMap.from_sparse(f, r.nspace, r.nspace, sigma))
    except NoSolution:
        return "ok", "antipode does not descend to the quotient"
    hopf = HopfAlgebra(r.carrier, bialg.delta, bialg.counit, m_q, bialg.unit, s_q)
    return "ok", "; ".join(reference_antipode_problems(hopf)) or "ok"


def outcome(build):
    try:
        build()
    except WellDefinednessFailure as exc:
        return str(exc)
    return "ok"


def assert_tables_decide(F):
    """Each constructor's outcome is the reference one; the full check runs
    on Q exactly when a table law fails and the map it checks descended;
    and a table law that holds on N holds on Q."""
    mon, fun_mon = F.source.monoidal, F.monoidal
    monoid, inverses = table_laws(F)
    ref_bialgebra, ref_hopf = reference_outcomes(F)
    with pytest.MonkeyPatch.context() as mp:
        counts = count_checks(mp)
        got = outcome(lambda: bialgebra_from_monoidal(coend_of_functor(F), mon, fun_mon))
        assert got == ref_bialgebra
        descended = ref_bialgebra != "multiplication does not descend to the quotient"
        assert counts["Bialgebra.algebra_problems"] == int(descended and not monoid)
        counts.clear()
        got = outcome(lambda: antipode_from_monoidal(coend_of_functor(F), mon, fun_mon))
        assert got == ref_hopf
        reached = ref_bialgebra == "ok" and ref_hopf != "antipode does not descend to the quotient"
        assert counts["HopfAlgebra.antipode_problems"] == int(reached and not inverses)
    if monoid and descended:
        assert ref_bialgebra == "ok"
        if inverses and reached:
            assert ref_hopf == "ok"


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(1, 6),
       st.sampled_from(["cyclic", "max", "random"]), st.booleans(), st.booleans(),
       st.integers(0, 3), st.integers(0, 10 ** 6))
def test_the_tables_decide_the_bialgebra_and_hopf_laws(f, n_objects, kind, unital,
                                                       right_duals, n_arrows, seed):
    rng = random.Random(seed)
    assert_tables_decide(monoidal_functor(f, rng, n_objects, kind, unital, right_duals,
                                          n_arrows))


def functor_of_tables(rows, unit, duals, arrows):
    """All objects 1-dim over Q, named by the characters of rows' keys; row
    x of rows lists x (x) y for the objects y in order; arrows are pairs
    (x, y), each carrying the scalar 1."""
    objs = list(rows)
    tensor_obj = {(x, y): rows[x][j] for x in objs for j, y in enumerate(objs)}
    one = LinearMap.from_sparse(QQ, Space.std(1), Space.std(1), [{0: QQ.one()}])
    cat = FinCategory(objs, [(f"h{x}{y}", x, y) for x, y in arrows],
                      monoidal=CategoryMonoidalData(unit, tensor_obj, {}, duals))
    return DiagramFunctor(cat, QQ, {x: Space.std(1, prefix=x) for x in objs},
                          {f"h{x}{y}": one for x, y in arrows},
                          FunctorMonoidalData({pair: one for pair in tensor_obj}, one,
                                              {x: one for x in objs}))


@pytest.mark.parametrize("rows, unit, duals, arrows, laws, reference", [
    # Z/3 with its unit declared at 1: associative, not unital
    ({"0": "012", "1": "120", "2": "201"}, "1", {"0": "0", "1": "2", "2": "1"}, [],
     (False, False), ("unit law fails", "unit law fails")),
    # unital, not associative: (a a) a = b a = b, a (a a) = a b = I
    ({"I": "Iab", "a": "abI", "b": "bba"}, "I", {"I": "I", "a": "b", "b": "a"}, [],
     (False, False), ("multiplication is not associative",) * 2),
    # arrows I -> J and a -> b identify blocks and Q = K[Z/2].  The table on
    # N is not associative ((a a) b = b, a (a b) = a), so the bialgebra laws
    # are checked on Q; x* (x) x = I for every x, but a (x) a* = J, so the
    # antipode law is checked on Q too; both hold there
    ({"I": "IJab", "J": "JIab", "a": "aaIJ", "b": "bbII"}, "I",
     {"I": "I", "J": "J", "a": "b", "b": "b"}, [("I", "J"), ("a", "b")],
     (False, False), ("ok", "ok")),
])
def test_a_table_law_that_fails_on_n_is_checked_on_the_quotient(rows, unit, duals, arrows,
                                                                 laws, reference):
    F = functor_of_tables(rows, unit, duals, arrows)
    assert table_laws(F) == laws
    assert reference_outcomes(F) == reference
    assert_tables_decide(F)


Z3 = {"0": "012", "1": "120", "2": "201"}
Z3_INVERSES = {"0": "0", "1": "2", "2": "1"}
SELF_DUAL = {x: x for x in Z3}
# Z/3 with x (x) x = 0: unital, but (1 1) 2 = 2 and 1 (1 2) = 1
SQUARES = {"0": "012", "1": "100", "2": "200"}
# Z/3 again, with its unit at 1
Z3_UNIT_1 = {"0": "201", "1": "012", "2": "120"}


@pytest.mark.parametrize("rows, unit, duals, reference", [
    (SQUARES, "0", SELF_DUAL, "multiplication is not associative"),
    (Z3, "0", SELF_DUAL, "left antipode axiom fails; right antipode axiom fails"),
    (Z3_UNIT_1, "1", {"0": "2", "1": "1", "2": "0"}, "ok"),
], ids=["squares", "z3-self-dual", "z3-unit-1"])
def test_the_antipode_reads_its_multiplication_off_the_tables_it_is_given(rows, unit, duals,
                                                                          reference):
    # a coend that already has Z/3's multiplication built on it is handed other
    # tables; the antipode's multiplication and unit are read off those, so its
    # outcome is theirs
    F = functor_of_tables(Z3, "0", Z3_INVERSES, [])
    other = functor_of_tables(rows, unit, duals, [])
    r = coend_of_functor(F)
    bialgebra_from_monoidal(r, F.source.monoidal, F.monoidal)
    got = outcome(lambda: antipode_from_monoidal(r, other.source.monoidal, other.monoidal))
    assert got == reference_outcomes(other)[1] == reference
    if got == "ok":
        hopf = antipode_from_monoidal(r, other.source.monoidal, other.monoidal)
        fresh = bialgebra_from_monoidal(coend_of_functor(other), other.source.monoidal,
                                        other.monoidal)
        assert (hopf.mult, hopf.unit) == (fresh.mult, fresh.unit)
        assert hopf.mult != bialgebra_from_monoidal(r, F.source.monoidal, F.monoidal).mult


@pytest.mark.parametrize("rows, duals", [(Z3, Z3_INVERSES), (Z3, SELF_DUAL),
                                         (SQUARES, SELF_DUAL)],
                         ids=["z3", "z3-self-dual", "squares"])
def test_the_constructors_leave_the_coend_as_built(rows, duals):
    # only the naturality of the universal family is kept on the coend, once
    F = functor_of_tables(rows, "0", duals, [])
    r = coend_of_functor(F)
    built = dict(vars(r))
    entries = {k: dict(v) for k, v in built.items() if isinstance(v, dict)}
    for construct in (bialgebra_from_monoidal, antipode_from_monoidal):
        outcome(lambda: construct(r, F.source.monoidal, F.monoidal))
    assert vars(r) == built
    comodule_on(r, "0")
    assert set(vars(r)) - set(built) == {"naturality_problems"}
    assert all(vars(r)[k] is v for k, v in built.items())
    assert {k: v for k, v in vars(r).items() if k in entries} == entries
