"""The quotient norm decides the norms of a bounded coend's coalgebra maps,
so ``bounded_coend`` reports them with no map composed.

The premises, pinned here: N, the sum of the blocks cohom(F x, F x), gives
e_(j,i) the weight w_i - w_j; the blockwise comatrix Delta_N is isometric on
basis vectors; eps_N and every coev have norm 1; and the class basis is
orthogonal for the quotient norm, so a combination sum c_j o_j of its
vectors has quotient norm max_j |c_j|_p p^(-w_j).  From these,
``bounded_coend``'s docstring proves that pi, Delta_Q, eps_Q and the
universal family have norm 1 on a nonzero carrier, that i_x has norm 1
exactly when F(x) != 0, and that all are 0 on a zero carrier.

The conclusions are compared with ``reference_bounded_norms``, which
composes each map with the inverse of the class basis and takes its operator
norm, on random diagrams over padic:2, 3 and 5 with 0-dim objects, all-zero
diagrams, non-invertible and parallel arrows, and mixed weights."""

from __future__ import annotations

import sys
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest
from coendforge import exactlinalg, padic_banach
from coendforge.cohom import comatrix
from coendforge.coend import coend_of_functor
from coendforge.exactlinalg import LinearMap, PadicRationals, Space, kernel
from coendforge.fincat import DiagramFunctor, FinCategory
from coendforge.padic_banach import (
    NormedSpace,
    NormValue,
    bounded_coend,
    operator_norm,
    quotient_norm,
    quotient_norm_bruteforce,
)
from references import reference_bounded_norms

ONE, ZERO = NormValue.of_exp(0), NormValue.zero()
FIELDS = ("pi_norm", "injection_norms", "comultiplication_norm", "counit_norm",
          "delta_bound")


def weighted_diagram(p, weights, arrows):
    """A diagram over padic:p: object x is K^d with the d weights weights[x],
    and each (name, dom, cod, rows) is an arrow with the matrix rows."""
    f = PadicRationals(p)
    spaces = {x: Space.std(len(w), prefix=x, weights=tuple(w)) for x, w in weights.items()}
    maps = {name: LinearMap(f, spaces[dom], spaces[cod],
                            tuple(tuple(Fraction(a) for a in row) for row in rows))
            for name, dom, cod, rows in arrows}
    return DiagramFunctor(FinCategory(list(weights), [a[:3] for a in arrows]), f, spaces, maps)


@st.composite
def diagrams(draw):
    """(p, weights, arrows) for `weighted_diagram`: p in {2, 3, 5}, one to
    three objects of dim 0..3 with weights in -2..2 (every object 0-dim now
    and then), and up to three arrows between any two objects, so parallel
    arrows and endomorphisms occur; entries a / 1 or a / p with a in -4..4,
    so zero rows and non-invertible arrows are common."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    objects = [f"o{k}" for k in range(n)]
    weights = {x: draw(st.lists(st.integers(-2, 2), max_size=3)) for x in objects}
    entry = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, p]))
    arrows = []
    for k in range(draw(st.integers(0, 3))):
        dom, cod = draw(st.sampled_from(objects)), draw(st.sampled_from(objects))
        rows = [draw(st.lists(entry, min_size=len(weights[dom]), max_size=len(weights[dom])))
                for _ in weights[cod]]
        arrows.append((f"f{k}", dom, cod, rows))
    return p, weights, arrows


ALL_ZERO = (3, {"a": [], "b": []}, [("f", "a", "b", [])])
ZERO_INTO_K2 = (2, {"z": [], "a": [1, -1]}, [("f", "z", "a", [[], []])])
PARALLEL_SINGULAR = (5, {"a": [0, 2], "b": [-1, 1]},
                     [("f", "a", "b", [[1, 5], [0, 0]]), ("g", "a", "b", [[0, "1/5"], [0, 0]])])


@settings(max_examples=200)
@given(diagrams())
@example(ALL_ZERO)
@example(ZERO_INTO_K2)
@example(PARALLEL_SINGULAR)
def test_bounded_norms_match_reference(case):
    b = bounded_coend(weighted_diagram(*case))
    assert {name: getattr(b, name) for name in FIELDS} == reference_bounded_norms(b)


# -- the premises ------------------------------------------------------------

@settings(max_examples=200)
@given(diagrams(), st.data())
@example(ZERO_INTO_K2, None)
def test_lemma_premises(case, data):
    F = weighted_diagram(*case)
    p = case[0]
    r = coend_of_functor(F)
    # N's block weights are the cohom weights w_i - w_j of e_(j,i)
    w = {x: F.space(x).weights for x in F.source.objects}
    assert r.nspace.effective_weights() == tuple(
        w[x][i] - w[x][j] for x in F.source.objects
        for j in range(len(w[x])) for i in range(len(w[x])))
    # the blockwise comatrix is isometric on basis vectors; eps_N and every
    # coev have norm 1 on a nonzero space
    n_space = NormedSpace(r.nspace, p)
    blocks = comatrix(r.nspace, [F.space(x).dim for x in F.source.objects], F.field)
    delta_cod = NormedSpace(blocks.delta.cod, p)
    for k in range(r.nspace.dim):
        e_k = [int(i == k) for i in range(r.nspace.dim)]
        assert delta_cod.vector_norm(blocks.delta.col(k)) == n_space.vector_norm(e_k)
    assert operator_norm(blocks.counit) == (ONE if r.nspace.dim else ZERO)
    for x in F.source.objects:
        assert operator_norm(r.blocks[x].coev) == (ONE if F.space(x).dim else ZERO)
    # the class basis is orthogonal for the quotient norm
    if data is None:
        return
    b = bounded_coend(F)
    entry = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, p]))
    coeffs = data.draw(st.lists(entry, min_size=r.carrier.dim, max_size=r.carrier.dim))
    assert class_combination_norm(b, coeffs, quotient_norm) == \
        NormedSpace(b.orth.class_basis.dom, p).vector_norm(coeffs)


def class_combination_norm(b, coeffs, norm):
    """The quotient norm, by the given oracle, of the class sum_j c_j o_j of
    the orthogonal class basis {o_j}, lifted to N by the section."""
    r = b.result
    lift = r.section @ b.orth.class_basis
    v = [sum((c * a for c, a in zip(coeffs, row)), Fraction(0)) for row in lift.entries]
    ker = kernel(r.pi)
    relations = [ker.col(j) for j in range(ker.dom.dim)]
    return norm(NormedSpace(r.nspace, r.field.p), relations, v)


@pytest.mark.parametrize("case", [
    (2, {"a": [0, 1], "b": [1, 0]}, [("f", "a", "b", [[1, 2], [0, "1/2"]])]),
    (3, {"a": [0, -1], "b": [1, 1]}, [("f", "a", "b", [[3, 1], [0, 0]])]),
], ids=["K2-padic2", "K2-padic3-singular"])
@pytest.mark.parametrize("coeffs", [(1, 0, 0, 0), (1, 2, 0, 3), ("1/2", 1, 3, "1/3")],
                         ids=["one", "mixed", "fractions"])
def test_class_basis_is_orthogonal_by_the_window_oracle(case, coeffs):
    b = bounded_coend(weighted_diagram(*case))
    dim = b.result.carrier.dim
    coeffs = ([Fraction(c) for c in coeffs] + [Fraction(0)] * dim)[:dim]
    expected = NormedSpace(b.orth.class_basis.dom, case[0]).vector_norm(coeffs)
    assert class_combination_norm(b, coeffs, quotient_norm_bruteforce) == expected
    assert class_combination_norm(b, coeffs, quotient_norm) == expected


# -- no composite ------------------------------------------------------------

def test_bounded_coend_composes_no_norm_map(monkeypatch):
    # kron_compose is counted wherever the package binds it; bounded_coend
    # makes only the algebraic coend's calls, and no operator norm or inverse
    calls = dict.fromkeys(["operator_norm", "kron_compose", "invert_map"], 0)
    originals = {"operator_norm": padic_banach.operator_norm,
                 "kron_compose": exactlinalg.kron_compose,
                 "invert_map": exactlinalg.invert_map}

    def counted(name):
        def wrapper(*args):
            calls[name] += 1
            return originals[name](*args)
        return wrapper

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("coendforge"):
            for name, original in originals.items():
                if getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counted(name))
    F = weighted_diagram(3, {"a": [0, 1, -1], "b": [2, 0, 1]},
                         [("f", "a", "b", [[1, 3, 0], [0, "1/3", 9], [0, 0, 2]])])
    coend_of_functor(F)
    algebraic = dict(calls)
    assert algebraic["kron_compose"] > 0
    calls.update(dict.fromkeys(calls, 0))
    b = bounded_coend(F)
    assert calls == algebraic
    assert algebraic["operator_norm"] == algebraic["invert_map"] == 0
    assert b.comultiplication_norm == ONE
