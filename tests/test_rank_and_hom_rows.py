"""The elimination under reconstruction does only the work its callers read.

``LinearMap.rank`` counts the pivots of the map's own columns read as
rows, and ``_rref`` does not scale a pivot row when scaling changes
nothing, so the rank of a monomial map inverts nothing.  This pins the
rank and ``is_invertible`` against the reduced echelon form of the rows
and against the dense Gauss-Jordan reference of ``test_sparse_core``, and
counts the work they save.  ``reconstruct.comodule_hom_basis`` writes each
intertwiner equation as a sparse row; this pins it, map for map and key
for key, against the column route (``reference_comodule_hom_basis`` at
the generators of C*), refusals included, over comatrix, group, O(S3) and
the non-cosemisimple triangular coalgebra."""

from __future__ import annotations

import copy
import importlib
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coendforge import exactlinalg
from coendforge.cohom import AxiomError, Comodule, coend_object, grouplike_coalgebra
from coendforge.exactlinalg import (
    QQ,
    LinearMap,
    PadicRationals,
    PrimeField,
    Rationals,
    Space,
    _rref,
    _transpose,
    tensor_space,
)
from coendforge.reconstruct import comodule_hom_basis, reconstruct_coalgebra
from references import reference_comodule_hom_basis
from test_equivalence_lemma import conjugate, random_invertible, triangular, triangular_seeds
from test_light_coassociativity import direct_sum, monomial_comodule, s3_comodules
from test_sparse_core import ROOT, dense_rref

FIELDS = [QQ, PrimeField(7), PadicRationals(3)]
HOM_FIELDS = [QQ, PrimeField(7)]


# ---------------------------------------------------------------------------
# the rank against the reduced echelon form
# ---------------------------------------------------------------------------

@st.composite
def rank_cases(draw):
    """A field and a map with 0..5 rows and 0..5 base columns, mostly zero,
    with 3 in some denominators, then some columns repeated, negated, or
    replaced by the sum of two others (so entries cancel to zero in the
    elimination), and some columns emptied."""
    f = draw(st.sampled_from(FIELDS))
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    scalar = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                       st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 3, 9])))
    cols = [[f.parse(str(draw(scalar))) for _ in range(nrows)] for _ in range(ncols)]
    if cols:
        for _ in range(draw(st.integers(0, 3))):
            i = draw(st.integers(0, len(cols) - 1))
            j = draw(st.integers(0, len(cols) - 1))
            kind = draw(st.sampled_from(["repeat", "negate", "sum"]))
            if kind == "repeat":
                new = list(cols[i])
            elif kind == "negate":
                new = [f.neg(a) for a in cols[i]]
            else:
                new = [f.add(a, b) for a, b in zip(cols[i], cols[j])]
            cols.insert(draw(st.integers(0, len(cols))), new)
        for j in draw(st.sets(st.integers(0, len(cols) - 1))):
            cols[j] = [f.zero()] * nrows
    sparse = [{i: a for i, a in enumerate(col) if not f.is_zero(a)} for col in cols]
    m = LinearMap.from_sparse(f, Space.std(len(cols), "x"), Space.std(nrows, "y"), sparse)
    rows = [[col[i] for col in cols] for i in range(nrows)]
    return f, m, rows


@settings(max_examples=400, deadline=None)
@given(rank_cases())
def test_rank_matches_the_reduced_echelon_form(case):
    f, m, rows = case
    before = copy.deepcopy(m.cols)
    r = m.rank()
    assert m.cols == before  # the columns are read, never written
    assert r == len(_rref(f, _transpose(m.cols, m.cod.dim))[1])
    assert r == len(dense_rref(f, rows)[1])
    assert r == len(_rref(f, m.cols[::-1])[1])
    square = m.dom.dim == m.cod.dim
    assert m.is_invertible() == (square and r == m.dom.dim)


@pytest.mark.parametrize("f", FIELDS, ids=repr)
@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_rank_of_empty_shapes(f, shape):
    nrows, ncols = shape
    m = LinearMap.from_sparse(f, Space.std(ncols), Space.std(nrows), [{} for _ in range(ncols)])
    assert m.rank() == 0
    assert m.is_invertible() == (shape == (0, 0))


def test_rank_reduces_through_a_chain_of_pivot_rows():
    # the third column is reduced by the first two in turn and cancels to
    # zero at the end; 1/3 is p in a denominator over padic:3
    for f in FIELDS:
        third = f.parse("1/3")
        vecs = [{0: third, 2: f.one()}, {1: f.from_int(2), 2: f.from_int(3)},
                {0: f.one(), 1: f.one(), 2: f.parse("9/2")}]
        for cols, rank in ((vecs, 2), (vecs + [{2: f.one()}], 3)):
            m = LinearMap.from_sparse(f, Space.std(len(cols)), Space.std(3), cols)
            assert m.rank() == rank


# ---------------------------------------------------------------------------
# the work the rank saves
# ---------------------------------------------------------------------------

def test_rank_of_a_monomial_map_inverts_nothing(monkeypatch):
    # a 49x49 permutation times scalars 2..6 over Q: every column is a
    # single entry, so each becomes a unit pivot row with no inverse taken
    # (scaling each pivot row inverts all 49 pivots)
    n, rng = 49, random.Random(7)
    perm = list(range(n))
    rng.shuffle(perm)
    m = LinearMap.from_sparse(QQ, Space.std(n), Space.std(n),
                              [{perm[j]: rng.randint(2, 6)} for j in range(n)])
    calls = []
    real = Rationals.invert
    monkeypatch.setattr(Rationals, "invert", lambda self, a: calls.append(1) or real(self, a))
    assert m.rank() == n and m.is_invertible()
    assert calls == []


def test_reconstruction_takes_no_echelon_form(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    pkg = SimpleNamespace(**{m: importlib.import_module(f"coendforge.{m}")
                             for m in ("cohom", "exactlinalg")})
    coalgebra, comodule = workloads.comatrix_input(pkg, QQ, 7, random.Random(0))
    calls = []
    real = exactlinalg.echelon
    monkeypatch.setattr(exactlinalg, "echelon", lambda m: calls.append(1) or real(m))
    res = reconstruct_coalgebra(coalgebra, {"std": comodule})
    assert res.verdict == "Isomorphism" and res.coend.carrier.dim == 49
    assert calls == []


# ---------------------------------------------------------------------------
# comodule_hom_basis against the column route
# ---------------------------------------------------------------------------

def snapshot(basis):
    """Each map's shape and its columns with their key order and entry types."""
    return [(g.dom.dim, g.cod.dim, repr([list(col.items()) for col in g.cols])) for g in basis]


def assert_same_basis(m, n):
    got = comodule_hom_basis(m, n)
    want = reference_comodule_hom_basis(m, n, m.over.dual_generators)
    assert got == want
    assert snapshot(got) == snapshot(want)
    return got


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(HOM_FIELDS), st.integers(1, 5), st.integers(0, 10 ** 6),
       st.booleans(), st.booleans())
def test_monomial_comatrix_hom_rows_match_the_column_route(f, d, seed, sum_m, sum_n):
    rng = random.Random(seed)
    ce = coend_object(Space.std(d), f)
    m, n = monomial_comodule(ce, f, rng), monomial_comodule(ce, f, rng)
    if sum_m:
        m = direct_sum(m, monomial_comodule(ce, f, rng))
    if sum_n:
        n = direct_sum(n, ce.comodule)
    basis = assert_same_basis(m, n)
    assert len(basis) == (1 + sum_m) * (1 + sum_n)
    assert_same_basis(n, m)


@pytest.mark.parametrize("f", HOM_FIELDS, ids=repr)
def test_group_hom_rows_match_the_column_route(f):
    for k in range(1, 7):
        c = grouplike_coalgebra(f, [f"g{i}" for i in range(k)])
        regular = Comodule(c.carrier, c, c.delta)
        line = Comodule(Space.std(1), c, LinearMap.from_sparse(
            f, Space.std(1), tensor_space(Space.std(1), c.carrier), [{k - 1: f.one()}]))
        for m, n in [(regular, regular), (regular, line), (line, regular)]:
            assert_same_basis(m, n)
    comodules = s3_comodules(f)
    for m in comodules.values():
        for n in comodules.values():
            assert_same_basis(m, n)


@pytest.mark.parametrize("f", HOM_FIELDS, ids=repr)
def test_triangular_hom_rows_match_the_column_route(f):
    # the non-cosemisimple upper-triangular coalgebra: here some equations
    # whose only terms come from rho_N are needed to cut the hom space down
    c = triangular(f)
    seeds = triangular_seeds(f, c)
    rng = random.Random(3)
    plane, line = seeds["plane"], seeds["line"]
    regular = Comodule(c.carrier, c, c.delta)
    comodules = [plane, line, regular, direct_sum(plane, line), direct_sum(line, line),
                 *(conjugate(plane, random_invertible(f, plane.space, rng)) for _ in range(3)),
                 conjugate(direct_sum(plane, regular), random_invertible(f, Space.std(5), rng))]
    for m in comodules:
        for n in comodules:
            assert_same_basis(m, n)


@pytest.mark.parametrize("f", HOM_FIELDS, ids=repr)
def test_hom_rows_refuse_as_the_column_route(f):
    ce2, ce3 = coend_object(Space.std(2), f), coend_object(Space.std(3), f)
    rng = random.Random(0)
    m2, m3 = monomial_comodule(ce2, f, rng), monomial_comodule(ce3, f, rng)
    cols = [dict(col) for col in m2.rho.cols]
    k = next(iter(cols[0]))
    cols[0][k] = f.mul(cols[0][k], f.from_int(2))
    bad = Comodule(m2.space, m2.over, LinearMap.from_sparse(f, m2.rho.dom, m2.rho.cod, cols))
    for args, error in [((m2, m3), ValueError), ((m3, m2), ValueError),
                        ((m2, bad), AxiomError), ((bad, m2), AxiomError)]:
        with pytest.raises(error) as got:
            comodule_hom_basis(*args)
        with pytest.raises(error) as want:
            reference_comodule_hom_basis(*args, args[0].over.dual_generators)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
