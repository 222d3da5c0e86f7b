"""Light's test for coalgebras: coassociativity is checked, and comodule
maps are solved, on the generators of the dual algebra C*
(``cohom.dual_generators``).  This pins ``Coalgebra.check`` message for
message, and ``comodule_hom_basis`` entry for entry, against the
references in ``references`` that use every basis vector of C.  The cases
are comatrix(d), the function coalgebras O(G) of Z/n and S3 and grouplike
coalgebras, valid or with one entry of the comultiplication moved, scaled
or dropped; and seeded monomial comatrix comodules and the regular
comodule and irreducible comodules of O(S3)."""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coendforge.cohom import (
    Coalgebra,
    Comodule,
    coend_object,
    dual_generators,
    grouplike_coalgebra,
)
from coendforge.exactlinalg import QQ, LinearMap, PrimeField, Space, tensor_space
from coendforge.reconstruct import comodule_hom_basis
from references import reference_coalgebra_problems, reference_comodule_hom_basis

FIELDS = [QQ, PrimeField(7)]
S3 = list(itertools.permutations(range(3)))


def compose(p, q):
    return tuple(p[i] for i in q)


def cyclic(n):
    return list(range(n)), lambda a, b, n=n: (a + b) % n


def function_coalgebra(f, elements, product) -> Coalgebra:
    """O(G) on the delta functions d_g: d_g |-> sum over ab = g of d_a (x) d_b."""
    n = len(elements)
    index = {g: i for i, g in enumerate(elements)}
    one = f.one()
    delta = [{} for _ in range(n)]
    for a, ga in enumerate(elements):
        for b, gb in enumerate(elements):
            delta[index[product(ga, gb)]][a * n + b] = one
    e = next(g for g in elements if all(product(g, h) == h for h in elements))
    carrier = Space.std(n, prefix="d")
    return Coalgebra(
        carrier,
        LinearMap.from_sparse(f, carrier, tensor_space(carrier, carrier), delta),
        LinearMap.from_sparse(f, carrier, Space.std(1, prefix="k"),
                              [{0: one} if g == e else {} for g in elements]))


def comatrix(f, d) -> Coalgebra:
    return coend_object(Space.std(d), f).coalgebra


def o_s3(f) -> Coalgebra:
    return function_coalgebra(f, S3, compose)


# ---------------------------------------------------------------------------
# the generators of C*
# ---------------------------------------------------------------------------

def test_comatrix_dual_has_2d_minus_1_generators():
    for d in range(1, 7):
        assert len(dual_generators(comatrix(QQ, d).delta)) == 2 * d - 1


def test_function_coalgebras_have_at_most_log2_order_plus_one_generators():
    groups = [cyclic(n) for n in range(1, 17)]
    groups += [(S3, compose), (list(itertools.permutations(range(4))), compose)]
    for elements, product in groups:
        gens = dual_generators(function_coalgebra(QQ, elements, product).delta)
        assert len(gens) <= math.log2(len(elements)) + 1


def test_generators_are_found_once_per_coalgebra():
    c = comatrix(QQ, 3)
    assert c.dual_generators is c.dual_generators
    assert c.dual_generators == dual_generators(c.delta)


# ---------------------------------------------------------------------------
# Coalgebra.check against every coordinate
# ---------------------------------------------------------------------------

def base_coalgebras(f):
    return st.one_of(
        st.integers(1, 4).map(lambda d: comatrix(f, d)),
        st.integers(1, 8).map(lambda n: function_coalgebra(f, *cyclic(n))),
        st.just(o_s3(f)),
        st.integers(1, 6).map(lambda n: grouplike_coalgebra(f, [f"g{i}" for i in range(n)])),
    )


@st.composite
def coalgebras(draw):
    f = draw(st.sampled_from(FIELDS))
    c = draw(base_coalgebras(f))
    mode = draw(st.sampled_from(["valid", "move", "scale", "drop"]))
    if mode == "valid":
        return c
    n = c.carrier.dim
    cols = [dict(col) for col in c.delta.cols]
    j = draw(st.integers(0, n - 1))
    row = draw(st.sampled_from(sorted(cols[j])))
    v = cols[j].pop(row)
    if mode == "move":
        cols[j][draw(st.integers(0, n * n - 1))] = v
    elif mode == "scale":
        cols[j][row] = f.mul(v, draw(st.integers(2, 6).map(f.from_int)))
    d = LinearMap.from_sparse(f, c.delta.dom, c.delta.cod, cols)
    return Coalgebra(c.carrier, d, c.counit)


@settings(max_examples=200, deadline=None)
@given(coalgebras())
def test_coalgebra_problems_match_every_coordinate(c):
    assert c.check() == reference_coalgebra_problems(c)


def test_a_coassociativity_fault_off_the_generators_is_found():
    # comatrix(3) with delta scaled at one basis vector: the dropped middle
    # coordinates still see the fault through the generators
    for f in FIELDS:
        c = comatrix(f, 3)
        for j in range(9):
            cols = [dict(col) for col in c.delta.cols]
            cols[j] = {r: f.mul(a, f.from_int(2)) for r, a in cols[j].items()}
            bad = Coalgebra(c.carrier, LinearMap.from_sparse(
                f, c.delta.dom, c.delta.cod, cols), c.counit)
            assert "comultiplication is not coassociative" in bad.check()
            assert bad.check() == reference_coalgebra_problems(bad)


# ---------------------------------------------------------------------------
# comodule_hom_basis against every coordinate
# ---------------------------------------------------------------------------

def monomial_comodule(ce, f, rng) -> Comodule:
    """The standard comodule of comatrix(d) through a seeded monomial change
    of basis g: rho' = (g^-1 (x) id) o coev o g.  Each scalar of g is drawn
    from 1..6 until it is nonzero in f, so over Q and F_7 every first draw
    is kept."""
    d = ce.cohom.x.dim
    sigma = list(range(d))
    rng.shuffle(sigma)
    sigma_inv = [sigma.index(j) for j in range(d)]
    s = []
    while len(s) < d:
        v = f.from_int(rng.randint(1, 6))
        if not f.is_zero(v):
            s.append(v)
    cols = [{} for _ in range(d)]
    for i in range(d):
        for j in range(d):
            # g x_i = s_i x_sigma(i); coev x_k = sum_j x_j (x) e_(j,k)
            cols[i][sigma_inv[j] * d * d + j * d + sigma[i]] = f.mul(s[i], f.invert(s[sigma_inv[j]]))
    x = Space.std(d)
    return Comodule(x, ce.coalgebra, LinearMap.from_sparse(
        f, x, tensor_space(x, ce.coalgebra.carrier), cols))


def direct_sum(a: Comodule, b: Comodule) -> Comodule:
    """A (+) B with the block coaction, over the coalgebra of a."""
    f, dc = a.over.field, a.over.carrier.dim
    da, db = a.space.dim, b.space.dim
    cols = [dict(col) for col in a.rho.cols]
    for col in b.rho.cols:
        cols.append({(da + k // dc) * dc + k % dc: v for k, v in col.items()})
    v = Space.std(da + db, prefix="s")
    return Comodule(v, a.over, LinearMap.from_sparse(f, v, tensor_space(v, a.over.carrier), cols))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS + [PrimeField(5)]), st.integers(1, 4), st.integers(0, 10 ** 6),
       st.booleans(), st.booleans())
def test_monomial_comatrix_hom_bases_match_every_coordinate(f, d, seed, sum_m, sum_n):
    rng = random.Random(seed)
    ce = coend_object(Space.std(d), f)
    m, n = monomial_comodule(ce, f, rng), monomial_comodule(ce, f, rng)
    if sum_m:
        m = direct_sum(m, monomial_comodule(ce, f, rng))
    if sum_n:
        n = direct_sum(n, ce.comodule)
    assert m.check() == [] and n.check() == []
    basis = comodule_hom_basis(m, n)
    assert basis == reference_comodule_hom_basis(m, n)
    assert len(basis) == (1 + sum_m) * (1 + sum_n)


def representation_comodule(c: Coalgebra, matrix) -> Comodule:
    """V with rho(v) = sum_g pi(g) v (x) d_g for pi(g) = matrix(g), the
    integer matrices (rows of columns) of a representation of S3."""
    f = c.field
    k = len(matrix(S3[0]))
    dc = c.carrier.dim
    cols = [{} for _ in range(k)]
    for gi, g in enumerate(S3):
        for i, row in enumerate(matrix(g)):
            for j, a in enumerate(row):
                if a:
                    cols[j][i * dc + gi] = f.from_int(a)
    v = Space.std(k, prefix="v")
    return Comodule(v, c, LinearMap.from_sparse(f, v, tensor_space(v, c.carrier), cols))


def sign(p):
    return -1 if sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3)) % 2 else 1


def permutation(p):
    return [[int(p[j] == i) for j in range(3)] for i in range(3)]


def standard(p):
    """The sum-zero part of K^3 on u0 = e0 - e1, u1 = e1 - e2: a sum-zero
    vector c0 e0 + c1 e1 + c2 e2 is c0 u0 + (c0 + c1) u1."""
    cols = []
    for a, b in ((0, 1), (1, 2)):
        c = [0, 0, 0]
        c[p[a]] += 1
        c[p[b]] -= 1
        cols.append((c[0], c[0] + c[1]))
    return [[cols[j][i] for j in range(2)] for i in range(2)]


def s3_comodules(f) -> dict[str, Comodule]:
    c = o_s3(f)
    return {
        "regular": Comodule(c.carrier, c, c.delta),
        "trivial": representation_comodule(c, lambda p: [[1]]),
        "sign": representation_comodule(c, lambda p: [[sign(p)]]),
        "standard": representation_comodule(c, standard),
        "permutation": representation_comodule(c, permutation),
    }


@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_s3_hom_bases_match_every_coordinate(f):
    comodules = s3_comodules(f)
    assert all(com.check() == [] for com in comodules.values())
    for m, n in itertools.product(comodules.values(), repeat=2):
        assert comodule_hom_basis(m, n) == reference_comodule_hom_basis(m, n)
    # Schur: the regular comodule holds each irreducible once per dimension
    dims = {name: len(comodule_hom_basis(com, comodules["regular"]))
            for name, com in comodules.items()}
    assert dims == {"regular": 6, "trivial": 1, "sign": 1, "standard": 2, "permutation": 3}


def test_comodules_over_unequal_comultiplications_are_refused():
    # comatrix(2) and the grouplike coalgebra on four letters share a dimension
    ce = coend_object(Space.std(2), QQ)
    g = grouplike_coalgebra(QQ, ["a", "b", "c", "d"])
    line = Space.std(1)
    graded = Comodule(line, g, LinearMap.from_sparse(
        QQ, line, tensor_space(line, g.carrier), [{2: 1}]))
    with pytest.raises(ValueError, match="different coalgebras"):
        comodule_hom_basis(ce.comodule, graded)
    with pytest.raises(ValueError, match="different coalgebras"):
        comodule_hom_basis(graded, ce.comodule)
    # a second instance of the same coalgebra is the same coalgebra
    twin = Coalgebra(ce.coalgebra.carrier, ce.coalgebra.delta, ce.coalgebra.counit)
    copy = Comodule(ce.comodule.space, twin, ce.comodule.rho)
    assert len(comodule_hom_basis(ce.comodule, copy)) == 1
