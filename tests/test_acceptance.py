"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines.  Every
assertion is exact (zero tolerance); the only non-exact requirements are the
stated wall-clock budgets.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

from coendforge.cli import main as cli_main
from coendforge.cohom import coend_object
from coendforge.coend import (
    c_coend,
    coend_of_functor,
    diagram_of_functor,
    epi_to_c_coend,
    factor_through_coend,
    nat_to_cowedge,
    cowedge_to_nat,
    unit_control,
)
from coendforge.exactlinalg import (
    QQ,
    LinearMap,
    PadicRationals,
    Space,
    identity,
    tensor,
    tensor_space,
)
from coendforge.fincat import Transformation
from coendforge.padic_banach import (
    NormValue,
    normed,
    operator_norm,
    quotient_norm,
    quotient_norm_bruteforce,
    bounded_coend,
)
from coendforge.specfile import load_spec, resolve_control

SPECS = Path(__file__).resolve().parent.parent / "specs"
SHIPPED = ["one_object_k2", "glued_pair", "discrete_points", "z2_grading", "z3_grading"]
NON_MONOIDAL = ["one_object_k2", "glued_pair", "discrete_points"]


class report:
    def __init__(self, n, desc):
        self.n, self.desc = n, desc

    def __enter__(self):
        return self

    def __exit__(self, et, ev, tb):
        status = "PASS" if et is None else "FAIL"
        print(f"{status}  criterion {self.n}: {self.desc}")
        return False


def spec_functor(name, field_override=None):
    spec = load_spec(str(SPECS / f"{name}.json"), field_override=field_override)
    return spec, spec.functors["F"]


def qmap(rows, dom, cod, f=QQ):
    return LinearMap(f, dom, cod, tuple(tuple(f.parse(str(a)) for a in r) for r in rows))


def test_criterion_1_adjunction_round_trip():
    with report(1, "adjunction round-trip on 100 randomized maps, exact, < 1 s"):
        from coendforge.cohom import coact, cohom

        rng = random.Random(1)
        t0 = time.perf_counter()
        for _ in range(100):
            dims = [rng.randint(1, 4) for _ in range(3)]
            x, y, z = (Space.std(d, prefix=p) for d, p in zip(dims, "xyz"))
            ch = cohom(x, y, QQ)
            phi = qmap(
                [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(x.dim)]
                 for _ in range(y.dim * z.dim)],
                x, tensor_space(y, z),
            )
            a = coact(phi, y, z)
            assert tensor(identity(y, QQ), a) @ ch.coev == phi
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_2_comatrix_structure_constants():
    with report(2, "coend_object(K^2) is the comatrix coalgebra, exact"):
        ce = coend_object(Space.std(2), QQ)
        n = 2
        for j in range(n):
            for i in range(n):
                col = ce.coalgebra.delta.col(j * n + i)
                expected = [Fraction(0)] * 16
                for k in range(n):
                    expected[(j * n + k) * 4 + (k * n + i)] = Fraction(1)
                assert col == expected
                assert ce.coalgebra.counit.col(j * n + i) == [
                    Fraction(1) if i == j else Fraction(0)
                ]


def test_criterion_3_naturality_dinaturality_bijection():
    with report(3, "nat <-> cowedge double round-trip on 50 randomized "
                   "transformations over the three non-monoidal specs, exact"):
        rng = random.Random(3)
        functors = [spec_functor(name)[1] for name in NON_MONOIDAL]
        coends = [coend_of_functor(F) for F in functors]
        for k in range(50):
            r = coends[k % len(coends)]
            mdim = rng.randint(1, 3)
            m = Space.std(mdim, prefix="m")
            psi = qmap(
                [[rng.randint(-5, 5) for _ in range(r.carrier.dim)]
                 for _ in range(mdim)],
                r.carrier, m,
            )
            t = Transformation(
                {x: tensor(identity(r.diagram.spaces[x], QQ), psi) @ r.delta[x]
                 for x in r.diagram.objects}
            )
            w = nat_to_cowedge(r, t, m)
            t2 = cowedge_to_nat(r, w, m)
            w2 = nat_to_cowedge(r, t2, m)
            for x in r.diagram.objects:
                assert t2[x] == t[x]
                assert w2[x] == w[x]


def test_criterion_4_reconstruction_via_cli(tmp_path):
    with report(4, "cmd_reconstruct: K[Z/2] and comatrix isomorphisms, "
                   "NotGenerated for insufficient seeds, < 1 s each"):
        runs = [
            (["reconstruct", str(SPECS / "z2_grading.json"),
              "--coalgebra", "KZ2", "--seeds", "k0,k1"], 0, "Isomorphism"),
            (["reconstruct", str(SPECS / "one_object_k2.json"),
              "--coalgebra", "M2", "--seeds", "V"], 0, "Isomorphism"),
            (["reconstruct", str(SPECS / "z2_grading.json"),
              "--coalgebra", "KZ2", "--seeds", "k0"], 3, "NotGenerated"),
        ]
        for i, (args, want_code, want_verdict) in enumerate(runs):
            out = tmp_path / f"r{i}.json"
            t0 = time.perf_counter()
            code = cli_main(args + ["--out", str(out)])
            elapsed = time.perf_counter() - t0
            data = json.loads(out.read_text())
            assert code == want_code
            assert data["verdict"] == want_verdict
            if want_verdict == "Isomorphism":
                assert data["iso"] is True
            assert elapsed < 1.0, f"run {i} took {elapsed:.2f} s"


def test_criterion_5_group_bialgebras_and_antipodes():
    with report(5, "Z/2 and Z/3 grading specs yield group bialgebras with "
                   "S(g_i) = g_{-i}, all axioms exact"):
        from coendforge.coend import antipode_on_coend, bialgebra_on_coend

        for name, n in [("z2_grading", 2), ("z3_grading", 3)]:
            spec, F = spec_functor(name)
            r = coend_of_functor(F)
            b = bialgebra_on_coend(F, r)
            h = antipode_on_coend(F, r)
            assert b.check() == []
            assert h.check() == []
            g = [r.injections[f"g{i}"].col(0) for i in range(n)]
            for i in range(n):
                for j in range(n):
                    prod = b.mult.apply([gi * gj for gi in g[i] for gj in g[j]])
                    assert prod == g[(i + j) % n]
                assert b.delta.apply(g[i]) == [a * c for a in g[i] for c in g[i]]
                assert h.antipode.apply(g[i]) == g[(-i) % n]


def test_criterion_6_universal_factorization():
    with report(6, "factor_through_coend recovers 100 randomized psi exactly"):
        rng = random.Random(6)
        functors = [spec_functor(name)[1] for name in NON_MONOIDAL]
        coends = [coend_of_functor(F) for F in functors]
        for k in range(100):
            r = coends[k % len(coends)]
            mdim = rng.randint(1, 3)
            m = Space.std(mdim, prefix="m")
            psi0 = qmap(
                [[Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                  for _ in range(r.carrier.dim)] for _ in range(mdim)],
                r.carrier, m,
            )
            t = Transformation(
                {x: tensor(identity(r.diagram.spaces[x], QQ), psi0) @ r.delta[x]
                 for x in r.diagram.objects}
            )
            assert factor_through_coend(r, t, m) == psi0


def test_criterion_7_control_epimorphism():
    with report(7, "epi_to_c_coend surjective coalgebra morphism on all specs "
                   "with non-unit controls; unit controls are bit-identical"):
        from coendforge.cohom import is_coalgebra_morphism

        controlled = {"discrete_points": "merge01", "z2_grading": "shift"}
        for name, ctrl_name in controlled.items():
            spec, F = spec_functor(name)
            r = coend_of_functor(F)
            ctrl = resolve_control(spec, F, ctrl_name)
            rc = c_coend(F, [ctrl])
            h = epi_to_c_coend(r, rc)
            assert h.rank() == rc.carrier.dim  # surjective
            assert is_coalgebra_morphism(h, r.coalgebra, rc.coalgebra)
        for name in SHIPPED:
            spec, F = spec_functor(name)
            r = coend_of_functor(F)
            runit = c_coend(F, [unit_control(diagram_of_functor(F))])
            assert runit.pi.entries == r.pi.entries
            assert runit.carrier == r.carrier
            for x in F.source.objects:
                assert runit.injections[x].entries == r.injections[x].entries


def test_criterion_8_equivalence():
    with report(8, "equivalence checks for K[Z/2] and comatrix with regular "
                   "probes; hom dimension tables match exactly"):
        from coendforge.reconstruct import equivalence_check

        z2 = load_spec(str(SPECS / "z2_grading.json"))
        verdict = equivalence_check(
            z2.coalgebras["KZ2"],
            {"k0": z2.comodules["k0"], "k1": z2.comodules["k1"]},
            {"regular": z2.comodules["regular"], "ksum": z2.comodules["ksum"]},
        )
        assert verdict.ok
        assert all(s == "lifted" for s in verdict.probe_status.values())
        assert verdict.hom_dims_base == verdict.hom_dims_coend
        k2 = load_spec(str(SPECS / "one_object_k2.json"))
        verdict = equivalence_check(
            k2.coalgebras["M2"],
            {"V": k2.comodules["V"]},
            {"regular": k2.comodules["regular"]},
        )
        assert verdict.ok
        assert verdict.probe_status["regular"] == "lifted"
        assert verdict.hom_dims_base == verdict.hom_dims_coend


def test_criterion_9_nonarchimedean_suite():
    with report(9, "ultrametric/submultiplicative invariants (1000 cases over "
                   "Q_2 and Q_3), 100 certified quotient norms, bounded coend "
                   "bit-identical with ||pi|| <= 1"):
        rng = random.Random(9)
        for p in [2, 3]:
            f = PadicRationals(p)
            ns = normed(Space.std(4), p, weights=(0, 1, -1, 0))
            for _ in range(500):
                v = [Fraction(rng.randint(-9, 9), rng.choice([1, p, p * p]))
                     for _ in range(4)]
                w = [Fraction(rng.randint(-9, 9), rng.choice([1, p, p * p]))
                     for _ in range(4)]
                s = [a + b for a, b in zip(v, w)]
                nv, nw = ns.vector_norm(v), ns.vector_norm(w)
                assert ns.vector_norm(s) <= max(nv, nw)
                if nv != nw:
                    assert ns.vector_norm(s) == max(nv, nw)
            a = Space.std(2, weights=(0, 1))
            b = Space.std(2, prefix="b", weights=(1, 0))
            c = Space.std(2, prefix="c", weights=(0, 0))
            for _ in range(500):
                m = qmap([[Fraction(rng.randint(-4, 4), rng.choice([1, p]))
                           for _ in range(2)] for _ in range(2)], b, c, f)
                n = qmap([[Fraction(rng.randint(-4, 4), rng.choice([1, p]))
                           for _ in range(2)] for _ in range(2)], a, b, f)
                assert operator_norm(m @ n) <= operator_norm(m) * operator_norm(n)
        # 100 certified quotient norms with dims <= 4
        qrng = random.Random(91)
        for k in range(100):
            p = [2, 3][k % 2]
            dim = qrng.randint(2, 4)
            ns = normed(Space.std(dim), p,
                        weights=tuple(qrng.randint(-1, 1) for _ in range(dim)))
            nw = qrng.randint(1, 2)
            scale = Fraction(1, p) if qrng.random() < 0.3 else Fraction(1)
            w = [[scale * qrng.randint(-4, 4) for _ in range(dim)]
                 for _ in range(nw)]
            v = [scale * qrng.randint(-4, 4) for _ in range(dim)]
            assert quotient_norm(ns, w, v) == \
                quotient_norm_bruteforce(ns, w, v)
        # bounded coend bit-identical to the algebraic one on all shipped specs
        one = NormValue.of_exp(0)
        for name in SHIPPED:
            spec, F = spec_functor(name, field_override="padic:2")
            algebraic = coend_of_functor(F)
            b = bounded_coend(F)
            assert b.result.pi.entries == algebraic.pi.entries
            assert b.result.carrier == algebraic.carrier
            assert b.pi_norm <= one
