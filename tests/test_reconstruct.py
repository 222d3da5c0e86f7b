import sys
from fractions import Fraction

from coendforge import exactlinalg
from coendforge.cohom import (
    Comodule,
    coend_object,
    group_hopf_algebra,
    grouplike_coalgebra,
    trivial_coalgebra,
)
from coendforge.exactlinalg import (
    QQ,
    LinearMap,
    PrimeField,
    Space,
    identity,
    tensor,
    tensor_space,
)
from coendforge.reconstruct import (
    SeedMonoidalData,
    comodule_category_of,
    comodule_hom_basis,
    diagram_of_comodule_category,
    equivalence_check,
    reconstruct_bialgebra,
    reconstruct_coalgebra,
    recognition_factorization,
)

K = Space.std(1)
K2 = Space.std(2)


def qmap(rows, dom, cod):
    return LinearMap(QQ, dom, cod, tuple(tuple(Fraction(a) for a in r) for r in rows))


def kz2():
    return grouplike_coalgebra(QQ, ["g0", "g1"])


def graded_line(c, degree, prefix="v"):
    v = Space.std(1, prefix=prefix)
    col = [[0], [0]]
    col[degree][0] = 1
    return Comodule(v, c, qmap(col, v, tensor_space(v, c.carrier)))


def comatrix_setup():
    ce = coend_object(K2, QQ)
    return ce.coalgebra, Comodule(K2, ce.coalgebra, ce.cohom.coev)


# -- hom spaces -------------------------------------------------------------

def test_trivial_coalgebra_endomorphisms():
    c = trivial_coalgebra(QQ)
    com = Comodule(K, c, qmap([[1]], K, tensor_space(K, c.carrier)))
    basis = comodule_hom_basis(com, com)
    assert len(basis) == 1


def test_graded_lines_have_no_cross_homs():
    c = kz2()
    k0 = graded_line(c, 0, "a")
    k1 = graded_line(c, 1, "b")
    assert len(comodule_hom_basis(k0, k1)) == 0
    assert len(comodule_hom_basis(k1, k0)) == 0
    assert len(comodule_hom_basis(k0, k0)) == 1
    assert len(comodule_hom_basis(k1, k1)) == 1


def test_comatrix_standard_comodule_is_simple():
    c, com = comatrix_setup()
    basis = comodule_hom_basis(com, com)
    assert len(basis) == 1
    g = basis[0]
    assert g.col(0)[1] == 0 and g.col(1)[0] == 0 and g.col(0)[0] == g.col(1)[1]


def test_comodule_category_closure():
    c = kz2()
    cat = comodule_category_of(c, {"k0": graded_line(c, 0), "k1": graded_line(c, 1, "w")})
    assert cat.check() == []
    d = diagram_of_comodule_category(cat)
    # identity basis morphisms are dropped from the diagram
    assert d.morphisms == []


def test_direct_sum_seed_category_closure():
    c = kz2()
    v = Space.std(2)
    rho = qmap([[1, 0], [0, 0], [0, 0], [0, 1]], v, tensor_space(v, c.carrier))
    seeds = {
        "sum": Comodule(v, c, rho),
        "k0": graded_line(c, 0),
    }
    cat = comodule_category_of(c, seeds)
    assert cat.check() == []
    assert len(cat.homs[("sum", "sum")]) == 2
    assert len(cat.homs[("k0", "sum")]) == 1


# -- reconstruction ----------------------------------------------------------

def test_reconstruct_kz2_from_both_lines():
    c = kz2()
    res = reconstruct_coalgebra(
        c, {"k0": graded_line(c, 0), "k1": graded_line(c, 1, "w")}
    )
    assert res.verdict == "Isomorphism"
    assert res.h.rank() == 2
    # grouplike basis matched: h sends each injection generator to g_i
    assert res.h @ res.coend.injections["k0"] == qmap([[1], [0]], K, c.carrier)
    assert res.h @ res.coend.injections["k1"] == qmap([[0], [1]], K, c.carrier)


def test_reconstruct_comatrix_from_standard_comodule():
    c, com = comatrix_setup()
    res = reconstruct_coalgebra(c, {"v": com})
    assert res.verdict == "Isomorphism"
    assert res.coend.carrier.dim == 4
    assert res.h.rank() == 4


def test_reconstruct_comatrix_structure_transported():
    c, com = comatrix_setup()
    res = reconstruct_coalgebra(c, {"v": com})
    h = res.h
    assert c.delta @ h == tensor(h, h) @ res.coend.coalgebra.delta
    assert c.counit @ h == res.coend.coalgebra.counit


def test_insufficient_seeds_not_generated():
    c = kz2()
    res = reconstruct_coalgebra(c, {"k0": graded_line(c, 0)})
    assert res.verdict == "NotGenerated"
    assert not res.generated
    assert res.h.rank() == 1


def test_reconstruct_from_doubled_seed():
    # End(V (+) V) = M_2(K) since V is simple; its four basis morphisms feed
    # relations that cut the 16-dim block back down to the 4-dim comatrix
    c, _ = comatrix_setup()
    v2 = Space.std(4, prefix="vv")
    rows = [[Fraction(0)] * 4 for _ in range(16)]
    for blk in range(2):
        for i in range(2):
            for j in range(2):
                rows[(blk * 2 + j) * 4 + (j * 2 + i)][blk * 2 + i] = Fraction(1)
    com2 = Comodule(v2, c, LinearMap(QQ, v2, tensor_space(v2, c.carrier),
                                     tuple(tuple(r) for r in rows)))
    assert com2.check() == []
    assert len(comodule_hom_basis(com2, com2)) == 4
    res = reconstruct_coalgebra(c, {"vv": com2})
    assert res.verdict == "Isomorphism"
    assert res.coend.carrier.dim == 4


def test_reconstruct_from_redundant_graded_seeds():
    # K0 (+) K0 (+) K1: End = M_2(K) x K, dimension 5; reconstruction still
    # lands exactly on K[Z/2]
    c = kz2()
    v3 = Space.std(3, prefix="w")
    rows = [[Fraction(0)] * 3 for _ in range(6)]
    for i, deg in enumerate([0, 0, 1]):
        rows[i * 2 + deg][i] = Fraction(1)
    com3 = Comodule(v3, c, LinearMap(QQ, v3, tensor_space(v3, c.carrier),
                                     tuple(tuple(r) for r in rows)))
    assert len(comodule_hom_basis(com3, com3)) == 5
    res = reconstruct_coalgebra(c, {"w": com3})
    assert res.verdict == "Isomorphism"
    assert res.coend.carrier.dim == 2


def test_reconstruct_bialgebra_kz2():
    h = group_hopf_algebra(QQ, ["g0", "g1"], lambda i, j: (i + j) % 2,
                           lambda i: (-i) % 2)
    seeds = {"k0": graded_line(h, 0), "k1": graded_line(h, 1, "w")}
    one = qmap([[1]], K, K)
    monoidal = SeedMonoidalData(
        unit="k0",
        tensor_obj={("k0", "k0"): "k0", ("k0", "k1"): "k1",
                    ("k1", "k0"): "k1", ("k1", "k1"): "k0"},
        xi={p: one for p in [("k0", "k0"), ("k0", "k1"), ("k1", "k0"), ("k1", "k1")]},
        xi_unit=one,
    )
    res, bialg = reconstruct_bialgebra(h, seeds, monoidal)
    assert res.iso
    assert bialg.check() == []
    assert res.h @ bialg.mult == h.mult @ tensor(res.h, res.h)


# -- recognition ---------------------------------------------------------------

def test_recognition_on_comodule_category_diagram():
    # the forgetful diagram of a comodule category recognizes itself
    from coendforge.coend import comodule_on

    c = kz2()
    res = reconstruct_coalgebra(
        c, {"k0": graded_line(c, 0), "k1": graded_line(c, 1, "w")}
    )
    r = res.coend
    comodules = {x: comodule_on(r, x) for x in r.diagram.objects}
    idq = identity(r.carrier, QQ)
    for m in r.diagram.morphisms:
        assert tensor(m.map, idq) @ comodules[m.dom].rho == comodules[m.cod].rho @ m.map


def test_recognition_on_chain_functor():
    from coendforge.fincat import DiagramFunctor, FinCategory

    cat = FinCategory(["a", "b"], [("f", "a", "b")])
    F = DiagramFunctor(cat, QQ, {"a": K, "b": K2}, {"f": qmap([[1], [1]], K, K2)})
    out = recognition_factorization(F)
    assert out.ok
    assert set(out.comodules) == {"a", "b"}
    assert out.morphisms["f"] == F.map("f")


def test_recognition_on_discrete_diagram():
    from coendforge.fincat import DiagramFunctor, FinCategory

    cat = FinCategory(["p0", "p1"], [])
    F = DiagramFunctor(cat, QQ, {"p0": K, "p1": K}, {})
    out = recognition_factorization(F)
    assert out.ok
    for x in ["p0", "p1"]:
        assert out.comodules[x].check() == []


# -- equivalence ------------------------------------------------------------------

def test_equivalence_kz2_with_regular_probe():
    c = kz2()
    seeds = {"k0": graded_line(c, 0), "k1": graded_line(c, 1, "w")}
    regular = Comodule(c.carrier, c, c.delta)
    sum_probe = Comodule(
        K2, c,
        qmap([[1, 0], [0, 0], [0, 0], [0, 1]], K2, tensor_space(K2, c.carrier)),
    )
    verdict = equivalence_check(c, seeds, {"regular": regular, "sum": sum_probe})
    assert verdict.ok
    assert verdict.probe_status == {"regular": "lifted", "sum": "lifted"}
    assert verdict.hom_tables_match


def test_equivalence_comatrix_with_regular_probe():
    c, com = comatrix_setup()
    regular = Comodule(c.carrier, c, c.delta)
    verdict = equivalence_check(c, {"v": com}, {"regular": regular})
    assert verdict.ok
    assert verdict.probe_status["regular"] == "lifted"


def test_equivalence_rejects_corrupted_probe():
    c = kz2()
    seeds = {"k0": graded_line(c, 0), "k1": graded_line(c, 1, "w")}
    v = Space.std(1, prefix="bad")
    # rho with eps-law broken: v |-> v (x) (g0 + g1)
    bad = Comodule(v, c, qmap([[1], [1]], v, tensor_space(v, c.carrier)))
    verdict = equivalence_check(c, seeds, {"bad": bad})
    assert verdict.probe_status["bad"].startswith("rejected")


def test_equivalence_fails_without_generation():
    c = kz2()
    verdict = equivalence_check(c, {"k0": graded_line(c, 0)}, {})
    assert not verdict.ok
    assert "NotGenerated" in verdict.problems[0]


def test_reconstruct_over_prime_field():
    from coendforge.exactlinalg import PrimeField

    f5 = PrimeField(5)
    c = grouplike_coalgebra(f5, ["g0", "g1"])

    def line(degree, prefix):
        v = Space.std(1, prefix=prefix)
        rows = [[f5.zero()] for _ in range(2)]
        rows[degree][0] = f5.one()
        return Comodule(v, c, LinearMap(f5, v, tensor_space(v, c.carrier),
                                        tuple(tuple(r) for r in rows)))

    res = reconstruct_coalgebra(c, {"k0": line(0, "a"), "k1": line(1, "b")})
    assert res.verdict == "Isomorphism"
    verdict = equivalence_check(
        c, {"k0": line(0, "a"), "k1": line(1, "b")},
        {"regular": Comodule(c.carrier, c, c.delta)},
    )
    assert verdict.ok


def test_reconstruct_comatrix_never_builds_large_kronecker(monkeypatch):
    # every tensor product on the reconstruction path must stay within the
    # size of a map N -> N on the coend's ambient space N; the Kronecker
    # products behind the induced comultiplication and the coalgebra-morphism
    # test (dim(N)^4 cells) are applied lazily instead
    ce = coend_object(Space.std(6), PrimeField(7))
    seeds = {"std": Comodule(ce.cohom.x, ce.coalgebra, ce.cohom.coev)}
    original = exactlinalg.tensor
    cells = []

    def recording_tensor(a, b):
        out = original(a, b)
        cells.append(out.dom.dim * out.cod.dim)
        return out

    for name, module in list(sys.modules.items()):
        if name == "coendforge" or name.startswith("coendforge."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, recording_tensor)
    res = reconstruct_coalgebra(ce.coalgebra, seeds)
    assert res.verdict == "Isomorphism"
    ambient = res.coend.nspace.dim
    assert ambient == 36
    assert max(cells, default=0) <= ambient ** 2
