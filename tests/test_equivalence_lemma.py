"""Once the comparison map h: Q -> C of a reconstruction is a coalgebra
isomorphism, ``equivalence_check`` decides the rest from it: pulling back
along h^-1 keeps every underlying map, so the hom dimensions over the coend
are those over C, and every lawful probe is its own equalizer of
(rho (x) id, id (x) Delta), that is, "lifted".

The premise, delta_x = (id (x) h^-1) o rho_x for every seed, is pinned on
its own.  Every field of the verdict is compared with
``references.reference_equivalence_check``, which pulls each probe back,
lifts it through the equalizer and solves every hom space on both sides,
over Q, F_5 and F_7: graded lines over K[Z/n] (seed subsets that miss a
degree give NotGenerated), monomial comatrix(d) comodules, representations
of S3 on O(S3), and the non-cosemisimple upper-triangular subcoalgebra
{c11, c12, c22} of comatrix(2) with K^2 and its invariant line.  The
probes are the regular comodule, direct sums under a random change of
basis, a 0-dim comodule, coactions with one entry edited and a comodule
over an equal copy of C."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coendforge.cohom import Coalgebra, Comodule, coend_object, grouplike_coalgebra
from coendforge.coend import comodule_on
from coendforge.exactlinalg import (
    QQ,
    LinearMap,
    PrimeField,
    Space,
    identity,
    invert_map,
    kron_compose,
    tensor_space,
)
from coendforge.reconstruct import equivalence_check, reconstruct_coalgebra
from references import reference_equivalence_check
from test_light_coassociativity import direct_sum, s3_comodules
from test_reconstruction_lemma import edit_entry, graded_line

FIELDS = [QQ, PrimeField(5), PrimeField(7)]


def triangular(f) -> Coalgebra:
    """The subcoalgebra of comatrix(2) on c11, c12, c22:
    Delta c_ij = sum_k c_ik (x) c_kj, eps c_ij = [i = j]."""
    carrier = Space(("c11", "c12", "c22"))
    one = f.one()
    delta = LinearMap.from_sparse(f, carrier, tensor_space(carrier, carrier),
                                  [{0: one}, {1: one, 5: one}, {8: one}])
    counit = LinearMap.from_sparse(f, carrier, Space.std(1, prefix="k"),
                                   [{0: one}, {}, {0: one}])
    return Coalgebra(carrier, delta, counit)


def triangular_seeds(f, c) -> dict[str, Comodule]:
    """K^2 with rho(x_j) = sum_i x_i (x) c_ij, and its invariant line x_0."""
    one = f.one()
    k2, line = Space.std(2, prefix="x"), Space.std(1, prefix="l")
    return {
        "plane": Comodule(k2, c, LinearMap.from_sparse(
            f, k2, tensor_space(k2, c.carrier), [{0: one}, {1: one, 5: one}])),
        "line": Comodule(line, c, LinearMap.from_sparse(
            f, line, tensor_space(line, c.carrier), [{0: one}])),
    }


def conjugate(com: Comodule, g: LinearMap) -> Comodule:
    """The comodule seen through the invertible g: (g^-1 (x) id) o rho o g."""
    rho = kron_compose(invert_map(g), identity(com.over.carrier, com.over.field), com.rho @ g)
    return Comodule(com.space, com.over, rho)


def integer_map(f, space, cols) -> LinearMap:
    """The map on the space with the given integer columns."""
    return LinearMap.from_sparse(f, space, space, [
        {i: f.from_int(v) for i, v in col.items() if not f.is_zero(f.from_int(v))}
        for col in cols])


def random_invertible(f, space, rng) -> LinearMap:
    n = space.dim
    while True:
        g = integer_map(f, space, [{i: rng.randint(-2, 3) for i in range(n)} for _ in range(n)])
        if g.is_invertible():
            return g


def random_monomial(f, space, rng) -> LinearMap:
    """x_i |-> s_i x_sigma(i) with s_i in 1..4, nonzero over Q, F_5 and F_7."""
    sigma = rng.sample(range(space.dim), space.dim)
    return integer_map(f, space, [{j: rng.randint(1, 4)} for j in sigma])


def family(f, kind, rng) -> tuple[Coalgebra, dict[str, Comodule]]:
    """A coalgebra and seeds over it, which may not generate it."""
    if kind == "grading":
        n = rng.randint(2, 4)
        c = grouplike_coalgebra(f, [f"g{i}" for i in range(n)])
        degrees = rng.sample(range(n), rng.randint(1, n)) + rng.sample(range(n), rng.randint(0, 1))
        return c, {f"k{j}": graded_line(f, c, d) for j, d in enumerate(degrees)}
    if kind == "comatrix":
        ce = coend_object(Space.std(rng.randint(1, 3)), f)
        return ce.coalgebra, {f"m{j}": conjugate(ce.comodule, random_monomial(f, ce.cohom.x, rng))
                              for j in range(rng.randint(1, 2))}
    if kind == "s3":
        coms = s3_comodules(f)
        names = rng.sample(["trivial", "sign", "standard", "permutation"], rng.randint(1, 4))
        return coms["regular"].over, {name: coms[name] for name in names}
    c = triangular(f)
    seeds = triangular_seeds(f, c)
    if rng.random() < 0.5:
        seeds["plane"] = conjugate(seeds["plane"], random_invertible(f, seeds["plane"].space, rng))
    return c, dict(rng.sample(sorted(seeds.items()), 2))


def probes_for(c, seeds, rng) -> dict[str, Comodule]:
    f = c.field
    regular = Comodule(c.carrier, c, c.delta)
    pool = list(seeds.values())
    zero = Space.std(0, prefix="z")
    twin = Coalgebra(c.carrier, c.delta, c.counit)

    def direct_sum_changed():
        total = direct_sum(rng.choice(pool), rng.choice(pool))
        return conjugate(total, random_invertible(f, total.space, rng))

    def over_twin():
        seed = rng.choice(pool)
        return Comodule(seed.space, twin, seed.rho)

    candidates = {
        "regular": lambda: regular,
        "sum": direct_sum_changed,
        "zero": lambda: Comodule(zero, c, LinearMap.from_sparse(
            f, zero, tensor_space(zero, c.carrier), [])),
        "edited": lambda: edit_entry(rng.choice(pool + [regular]), rng),
        "twin": over_twin,
    }
    names = rng.sample(sorted(candidates), rng.randint(0, 3))
    return {name: candidates[name]() for name in names}


def assert_same_verdict(got, want):
    assert got.ok == want.ok
    assert got.reconstruction.verdict == want.reconstruction.verdict
    assert got.reconstruction.h == want.reconstruction.h
    assert got.probe_status == want.probe_status
    # the CLI prints the tables in this order
    assert list(got.hom_dims_base.items()) == list(want.hom_dims_base.items())
    assert list(got.hom_dims_coend.items()) == list(want.hom_dims_coend.items())
    assert got.hom_tables_match == want.hom_tables_match
    assert got.problems == want.problems


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FIELDS), st.sampled_from(["grading", "comatrix", "s3", "triangular"]),
       st.integers(0, 10 ** 6))
def test_the_verdict_matches_the_full_computation(f, kind, seed):
    rng = random.Random(seed)
    c, seeds = family(f, kind, rng)
    probes = probes_for(c, seeds, rng)
    got = equivalence_check(c, seeds, probes)
    assert_same_verdict(got, reference_equivalence_check(c, seeds, probes))
    if got.reconstruction.iso:
        assert got.ok and got.problems == []
        for name, probe in probes.items():
            assert got.probe_status[name] == (
                "lifted" if probe.check() == [] else "rejected: " + "; ".join(probe.check()))


@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_a_non_cosemisimple_coalgebra_keeps_its_one_sided_homs(f):
    c = triangular(f)
    seeds = triangular_seeds(f, c)
    probes = {"regular": Comodule(c.carrier, c, c.delta)}
    verdict = equivalence_check(c, seeds, probes)
    assert verdict.ok
    assert verdict.hom_dims_base["line|plane"] == 1
    assert verdict.hom_dims_base["plane|line"] == 0
    assert_same_verdict(verdict, reference_equivalence_check(c, seeds, probes))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FIELDS), st.sampled_from(["grading", "comatrix", "s3", "triangular"]),
       st.integers(0, 10 ** 6))
def test_each_universal_coaction_is_the_seed_coaction_pulled_back(f, kind, seed):
    # lemma (i): the descent gives (id (x) h) o delta_x = rho_x
    c, seeds = family(f, kind, random.Random(seed))
    rec = reconstruct_coalgebra(c, seeds)
    if not rec.iso:
        return
    h_inv = invert_map(rec.h)
    for name, com in seeds.items():
        assert comodule_on(rec.coend, name).rho == kron_compose(
            identity(com.space, f), h_inv, com.rho)
