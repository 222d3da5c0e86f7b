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
coideal), and whenever it accepts, the laws hold."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from coendforge.cohom import Coalgebra, Comodule, coalgebra_morphism_problems
from coendforge.coend import (
    ControlData,
    WellDefinednessFailure,
    _blockwise_counit,
    _blockwise_delta,
    c_coend,
    coalgebra_on_coend,
    coend_of_functor,
    comodule_on,
    epi_to_c_coend,
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
    tensor,
    tensor_space,
)
from coendforge.fincat import DiagramFunctor, FinCategory
from references import reference_coalgebra_problems
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


def assert_premises(r):
    f, one = r.field, r.field.one()
    assert r.pi @ r.section == identity(r.carrier, f)
    # each quotient basis vector is pi of a free coordinate, so pi is onto
    for k, col in enumerate(r.section.cols):
        (j, a), = col.items()
        assert a == one and r.pi.cols[j] == {k: one}
    assert Coalgebra(r.nspace, _blockwise_delta(r), _blockwise_counit(r)).check() == []


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
    coideal = ((tensor(r.pi, r.pi) @ _blockwise_delta(r) @ rel).cols == zero
               and (_blockwise_counit(r) @ rel).cols == zero)
    try:
        coalg = coalgebra_on_coend(r)
    except WellDefinednessFailure:
        assert not coideal
        return
    assert coideal
    assert reference_coalgebra_problems(coalg) == []
    for x in r.diagram.objects:
        assert Comodule(r.diagram.spaces[x], coalg, r.delta[x]).check() == []
