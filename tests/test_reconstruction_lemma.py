"""The comparison map h: Q -> C of a reconstruction is a coalgebra map
exactly when the seed coactions obey the comodule laws, so
``reconstruct_coalgebra`` checks those laws once, on the seeds, and not
again on h.

The descents give h o pi = A, the cowedge whose block at x is coact(rho_x),
and Delta_Q o pi = (pi (x) pi) o Delta_N, with pi onto.  So
Delta_C o h = (h (x) h) o Delta_Q iff, on every block,
Delta_C o coact(rho_x) = (coact rho_x (x) coact rho_x) o Delta_comatrix, which
is coact((id (x) Delta_C) rho_x) = coact((rho_x (x) id) rho_x): rho_x is
coassociative.  Likewise eps_C o h = eps_Q iff (id (x) eps_C) rho_x = id.

Here the seed category is built directly, without the seed checks, from
comatrix(2) and comatrix(3) comodules seen through a seeded monomial change
of basis and from graded lines over K[Z/n]: one seed, lawful or with one
entry of its coaction edited, or two lawful seeds with their hom bases.  The
morphism check on h and the seed checks must name the same laws."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coendforge.cohom import (
    AxiomError,
    Comodule,
    coalgebra_morphism_problems,
    coend_object,
    grouplike_coalgebra,
)
from coendforge.coend import coend_of_diagram, factor_through_coend
from coendforge.exactlinalg import QQ, LinearMap, PadicRationals, PrimeField, Space, tensor_space
from coendforge.fincat import Transformation
from coendforge.reconstruct import (
    ComoduleCategory,
    comodule_hom_basis,
    diagram_of_comodule_category,
    reconstruct_coalgebra,
)
from test_light_coassociativity import monomial_comodule

FIELDS = [QQ, PrimeField(7), PadicRationals(3)]

# the words of the two laws on each side of the lemma
LAWS = [("does not respect comultiplication", "coaction is not coassociative"),
        ("does not respect counit", "coaction counit law fails")]


def graded_line(f, c, degree) -> Comodule:
    v = Space.std(1, prefix=f"l{degree}")
    return Comodule(v, c, LinearMap.from_sparse(
        f, v, tensor_space(v, c.carrier), [{degree: f.one()}]))


def seed_family(f, family, rng, count):
    """The coalgebra and `count` lawful seeds over it."""
    if family == "grading":
        n = rng.randint(2, 4)
        c = grouplike_coalgebra(f, [f"g{i}" for i in range(n)])
        return c, [graded_line(f, c, rng.randrange(n)) for _ in range(count)]
    ce = coend_object(Space.std(int(family[-1])), f)
    return ce.coalgebra, [monomial_comodule(ce, f, rng) for _ in range(count)]


def edit_entry(com: Comodule, rng) -> Comodule:
    """The comodule with one entry of its coaction set to another value."""
    f, rho = com.over.field, com.rho
    cols = [dict(col) for col in rho.cols]
    j, row = rng.randrange(rho.dom.dim), rng.randrange(rho.cod.dim)
    old = cols[j].get(row, f.zero())
    new = f.from_int(rng.choice([v for v in range(-2, 4) if f.from_int(v) != old]))
    cols[j].pop(row, None)
    if not f.is_zero(new):
        cols[j][row] = new
    return Comodule(com.space, com.over, LinearMap.from_sparse(f, rho.dom, rho.cod, cols))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FIELDS), st.sampled_from(["comatrix2", "comatrix3", "grading"]),
       st.sampled_from(["lawful", "edited", "pair"]), st.integers(0, 10 ** 6))
def test_comparison_map_laws_match_the_seed_laws(f, family, shape, seed):
    rng = random.Random(seed)
    c, coms = seed_family(f, family, rng, 2 if shape == "pair" else 1)
    seeds = {f"s{k}": com for k, com in enumerate(coms)}
    if shape == "pair":
        # two lawful seeds and every comodule map between them: relations
        homs = {(a, b): comodule_hom_basis(seeds[a], seeds[b]) for a in seeds for b in seeds}
    else:
        # one seed, lawful or with one entry edited, and no morphisms: pi = id
        homs = {}
        if shape == "edited":
            seeds["s0"] = edit_entry(seeds["s0"], rng)
    cat = ComoduleCategory(c, seeds, homs)
    r = coend_of_diagram(diagram_of_comodule_category(cat))
    t = Transformation({name: com.rho for name, com in seeds.items()})
    h = factor_through_coend(r, t, c.carrier)
    on_h = coalgebra_morphism_problems(h, r.coalgebra, c)
    on_seeds = [p for com in seeds.values() for p in com.check()]
    for h_words, seed_words in LAWS:
        assert (h_words in on_h) == (seed_words in on_seeds)
    # reconstruct_coalgebra refuses exactly the seeds that fail a law, and
    # otherwise accepts exactly when h is a bijective coalgebra map
    if on_seeds:
        with pytest.raises(AxiomError):
            reconstruct_coalgebra(c, seeds)
    else:
        rank = h.rank()
        bijective = rank == c.carrier.dim == r.carrier.dim
        assert reconstruct_coalgebra(c, seeds).iso == (bijective and not on_h)
