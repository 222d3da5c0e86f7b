"""The coend's multiplication, unit and antipode are read off the monoidal
tables on 1-dim blocks.  This pins them, as maps, against the general
construction they replaced: the blockwise cohom tensor law conjugated by
each xi, the unit conjugated by xi_unit, and the flip of each block
conjugated by its dual identification.  The cases are seeded Z/n gradings
with coboundary xi and nonzero dual identifications, with and without a
zero-dimensional absorbing object, over Q, F_7 and Q_3."""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given
from hypothesis import strategies as st
from test_fincat import graded_functor

from coendforge.coend import (
    _descend,
    antipode_on_coend,
    bialgebra_on_coend,
    coend_of_functor,
)
from coendforge.exactlinalg import (
    QQ,
    LinearMap,
    PadicRationals,
    PrimeField,
    _add_into,
    compose_kron,
    dual,
    dual_space,
    invert_map,
    kron_compose,
    swap_map,
    tensor,
    tensor_space,
)


# ---------------------------------------------------------------------------
# reference constructions: the general conjugations the tables replaced
# ---------------------------------------------------------------------------

def reference_pair_braid(x_dim: int, y_dim: int) -> list[int]:
    """Index permutation cohom(FX,FX) (x) cohom(FY,FY) ->
    cohom(FX (x) FY, FX (x) FY): ((j,i),(l,k)) |-> ((j,l),(i,k)).
    Returns target index per source index."""
    out = []
    for j in range(x_dim):
        for i in range(x_dim):
            for l in range(y_dim):
                for k in range(y_dim):
                    out.append((j * y_dim + l) * (x_dim * y_dim) + (i * y_dim + k))
    return out


def reference_bialgebra(r, cat_mon, fun_mon) -> tuple[LinearMap, LinearMap]:
    """(multiplication, unit): the blockwise cohom tensor law conjugated by
    the structure isomorphisms, and the unit block's injection conjugated by
    xi_unit."""
    f = r.field
    d = r.diagram
    n = r.nspace.dim
    mu = [{} for _ in range(n * n)]
    for x in d.objects:
        for y in d.objects:
            xy = cat_mon.tensor_obj[(x, y)]
            xi = fun_mon.xi[(x, y)]
            fx, fy = d.spaces[x], d.spaces[y]
            braid = reference_pair_braid(fx.dim, fy.dim)
            conj = tensor(dual(invert_map(xi)), xi)
            ex, ey = r.blocks[x].carrier.dim, r.blocks[y].carrier.dim
            for u in range(ex):
                for v in range(ey):
                    src = (r.offsets[x] + u) * n + (r.offsets[y] + v)
                    for i2, val in conj.cols[braid[u * ey + v]].items():
                        _add_into(mu[src], r.offsets[xy] + i2, val, f)
    mu_n = LinearMap.from_sparse(f, tensor_space(r.nspace, r.nspace), r.nspace, mu)
    m_q = _descend(r, r.pi @ mu_n, pair=True)
    xi_u = fun_mon.xi_unit
    u_q = compose_kron(r.injections[cat_mon.unit], dual(invert_map(xi_u)), xi_u)
    return m_q, u_q


def reference_antipode(r, cat_mon, fun_mon) -> LinearMap:
    """Each block flipped onto the block of the dual object through the
    identification F(X*) ~ F(X)^*, conjugated by it."""
    f = r.field
    d = r.diagram
    sigma = [{} for _ in range(r.nspace.dim)]
    for x in d.objects:
        xstar = cat_mon.duals[x]
        dmap = fun_mon.dual_maps[x]
        fx = d.spaces[x]
        flip = swap_map(dual_space(fx), fx, f)
        block_map = kron_compose(dual(dmap), invert_map(dmap), flip)
        for u, col in enumerate(block_map.cols):
            for i2, val in col.items():
                _add_into(sigma[r.offsets[x] + u], r.offsets[xstar] + i2, val, f)
    return _descend(r, r.pi @ LinearMap.from_sparse(f, r.nspace, r.nspace, sigma))


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

@st.composite
def graded_hopf_cases(draw):
    """A valid Z/n grading (n = 1..8) from ``graded_functor`` with a seeded
    coboundary xi, maybe a zero-dimensional absorbing object z (z* = z) and
    maybe idempotents (all 1 or all 0, the multiplicative choices), with
    duals g_i* = g_-i identified by seeded nonzero scalars."""
    f = draw(st.sampled_from([QQ, PrimeField(7), PadicRationals(3)]))
    n = draw(st.integers(1, 8))

    def invertible(a):
        return not f.is_zero(f.from_int(a))

    nonzero = st.builds(lambda a, b: f.mul(f.from_int(a), f.invert(f.from_int(b))),
                        (st.integers(-6, 6) | st.integers(-10**9, 10**9)).filter(invertible),
                        (st.integers(1, 6) | st.integers(1, 10**9)).filter(invertible))
    lam = draw(st.lists(nonzero, min_size=n, max_size=n))
    absorbing = draw(st.booleans())
    idem = draw(st.sampled_from([None, f.one(), f.zero()]))
    F = graded_functor(f, lam, absorbing, None if idem is None else [idem] * n)
    duals = {f"g{i}": f"g{-i % n}" for i in range(n)}
    dual_maps = {}
    for i, delta in enumerate(draw(st.lists(nonzero, min_size=n, max_size=n))):
        space = F.space(f"g{i}")
        dual_maps[f"g{i}"] = LinearMap(f, space, dual_space(space), ((delta,),))
    if absorbing:
        duals["z"] = "z"
        zero = F.space("z")
        dual_maps["z"] = LinearMap(f, zero, dual_space(zero), ())
    F.source.monoidal = replace(F.source.monoidal, duals=duals)
    F.monoidal = replace(F.monoidal, dual_maps=dual_maps)
    return F


@given(graded_hopf_cases())
def test_tables_match_the_general_construction(F):
    r = coend_of_functor(F)
    hopf = antipode_on_coend(F, r)
    cat_mon, fun_mon = F.source.monoidal, F.monoidal
    mult, unit = reference_bialgebra(r, cat_mon, fun_mon)
    assert hopf.mult == mult
    assert hopf.unit == unit
    assert hopf.antipode == reference_antipode(r, cat_mon, fun_mon)
    # the constructors raise unless their laws hold on Q
    assert bialgebra_on_coend(F, r).mult == hopf.mult
    assert r.carrier.dim == len(F.source.objects) - ("z" in F.source.objects)

