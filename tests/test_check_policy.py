"""Each structure is checked once per command: the CLI trusts what
`_validate_spec` checked, a comodule computes its laws once however often
it is checked, the descents of Delta and eps decide the coend's coalgebra,
its universal comodules and the control epimorphism, and the bialgebra and
Hopf constructors decide their laws from the monoidal tables and the
descents, running the full algebra or antipode check on the quotient only
when a table law fails, and `equiv` solves each hom space once, over the
base coalgebra.  The monoidal tables are checked once per command: the
constructors read the verdicts the checks kept on the frozen monoidal
records, and decide only what no check has.  `ccoend` reads each control's
relations off its legs, diagram morphisms C.X -> X, and takes no coaction.
Calls are counted by wrapping every binding of a
check inside the package, so a check reached through any import path is
seen; a cached property counts the computations of its value."""

import contextlib
import functools
import io
import json
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from test_reconstruct import kz2_monoidal_seeds

from coendforge.cli import main
from coendforge.coend import (
    WellDefinednessFailure,
    antipode_from_monoidal,
    bialgebra_from_monoidal,
    bialgebra_on_coend,
    coend_of_functor,
)
from coendforge.cohom import Bialgebra, Coalgebra, Comodule, HopfAlgebra
from coendforge.exactlinalg import LinearMap, Space
from coendforge.fincat import DiagramFunctor, check_monoidal, validate_category
from coendforge.reconstruct import reconstruct_bialgebra, reconstruct_coalgebra
from coendforge.specfile import load_spec

SPECS = Path(__file__).resolve().parent.parent / "specs"

FUNCTIONS = [("fincat", "check_monoidal"), ("fincat", "validate_functor"),
             ("fincat", "validate_category"), ("fincat", "natural_problems"),
             ("cohom", "intertwines"), ("cohom", "coalgebra_morphism_problems"),
             ("reconstruct", "comodule_hom_basis"), ("exactlinalg", "solve_through_injection"),
             ("exactlinalg", "invert_map"), ("fincat", "monoidal_table_problems"),
             ("fincat", "tensor_associativity_failures"), ("cohom", "coact")]
METHODS = [(Coalgebra, "check"), (Comodule, "check"), (Comodule, "law_problems"),
           (Bialgebra, "algebra_problems"), (HopfAlgebra, "antipode_problems"),
           (HopfAlgebra, "check")]


def count_checks(monkeypatch) -> Counter:
    counts = Counter()

    def wrap(key, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "coendforge" or name.startswith("coendforge."))]
    for modname, name in FUNCTIONS:
        original = getattr(sys.modules[f"coendforge.{modname}"], name)
        counted = wrap(name, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    for cls, name in METHODS:
        if name in cls.__dict__:  # a missing method counts 0 calls
            method = cls.__dict__[name]
            if isinstance(method, functools.cached_property):
                counted = functools.cached_property(wrap(f"{cls.__name__}.{name}", method.func))
                counted.__set_name__(cls, name)
            else:
                counted = wrap(f"{cls.__name__}.{name}", method)
            monkeypatch.setattr(cls, name, counted)
    return counts


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def test_hopf_command_checks_each_structure_once(monkeypatch):
    counts = count_checks(monkeypatch)
    assert run(["hopf", str(SPECS / "z3_grading.json"), "--functor", "F"]) == 0
    assert counts["check_monoidal"] == 1
    assert counts["validate_functor"] == 1
    assert counts["validate_category"] == 1  # check_monoidal trusts it
    # the descents decide the coalgebra and the universal comodules
    assert counts["Coalgebra.check"] == 0
    assert counts["Comodule.check"] == 0
    # Z/3 is a group and g* (x) g = g0, so the tables and the descents
    # decide the bialgebra and antipode laws
    assert counts["Bialgebra.algebra_problems"] == 0
    assert counts["HopfAlgebra.antipode_problems"] == 0


def test_hopf_command_checks_the_antipode_when_the_duals_fail(monkeypatch, tmp_path):
    # g1* = g1, so g1* (x) g1 = g2 is not the unit: the antipode law is
    # decided on the quotient, in the full check's words
    spec = json.loads((SPECS / "z3_grading.json").read_text())
    spec["categories"]["Z3"]["monoidal"]["duals"] = {"g0": "g0", "g1": "g1", "g2": "g2"}
    path = tmp_path / "z3_self_duals.json"
    path.write_text(json.dumps(spec))
    counts = count_checks(monkeypatch)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["hopf", str(path), "--functor", "F"]) == 2
    assert counts["Bialgebra.algebra_problems"] == 0
    assert counts["HopfAlgebra.antipode_problems"] == 1
    assert buf.getvalue() == (
        '{\n  "ok": false,\n  "problems": [\n'
        '    "left antipode axiom fails; right antipode axiom fails"\n'
        '  ]\n}\n'
    )


@pytest.mark.parametrize("command", ["bialgebra", "hopf"])
def test_monoidal_commands_check_the_tables_once(monkeypatch, command):
    # check_monoidal decides the table entries and validate_category the
    # object tensor's laws; the constructors read both verdicts back
    counts = count_checks(monkeypatch)
    assert run([command, str(SPECS / "z3_grading.json"), "--functor", "F"]) == 0
    assert counts["monoidal_table_problems"] == 1
    assert counts["tensor_associativity_failures"] == 1


def test_ccoend_builds_the_control_relations_from_its_legs(monkeypatch):
    # each xi_X is a morphism C.X -> X of the diagram, so its relation is a
    # morphism relation and the adjunction is not used
    counts = count_checks(monkeypatch)
    assert run(["ccoend", str(SPECS / "discrete_points.json"), "--functor", "F",
                "--controls", "merge01"]) == 0
    assert counts["coact"] == 0


def test_bialgebra_on_coend_checks_the_tables_once(monkeypatch):
    F = load_spec(str(SPECS / "z3_grading.json")).functors["F"]
    r = coend_of_functor(F)
    counts = count_checks(monkeypatch)
    bialgebra_on_coend(F, r)
    assert counts["monoidal_table_problems"] == 1
    assert counts["tensor_associativity_failures"] == 1


def test_reconstruct_bialgebra_checks_the_tables_once(monkeypatch):
    # its own entry check, read back by bialgebra_from_monoidal; no check
    # has walked the tensor on the seeds, so the constructor does, once
    h, seeds, cat_mon, fun_mon = kz2_monoidal_seeds()
    counts = count_checks(monkeypatch)
    res, _ = reconstruct_bialgebra(h, seeds, cat_mon, fun_mon)
    assert res.iso
    assert counts["monoidal_table_problems"] == 1
    assert counts["tensor_associativity_failures"] == 1


def test_a_kept_verdict_covers_no_edited_or_unchecked_tables():
    # after the checks have kept their verdicts, an edited copy of a record
    # and tables no check has seen are refused in the constructors' words
    spec = load_spec(str(SPECS / "z3_grading.json"))
    F = spec.functors["F"]
    assert validate_category(F.source).ok and check_monoidal(F).ok
    r = coend_of_functor(F)
    bialgebra_on_coend(F, r)
    cat_mon, fun_mon = F.source.monoidal, F.monoidal
    zero = LinearMap(F.field, Space.std(1), Space.std(1), ((F.field.zero(),),))
    zero_xi = replace(fun_mon, xi=fun_mon.xi | {("g1", "g2"): zero})
    # g1 (x) g1 = g0 keeps every entry well formed but breaks associativity
    g1_squared = replace(cat_mon, tensor_obj=cat_mon.tensor_obj | {("g1", "g1"): "g0"})
    unchecked = load_spec(str(SPECS / "z3_grading.json")).functors["F"]
    cases = [
        (bialgebra_from_monoidal, cat_mon, zero_xi,
         "functor is not monoidal: xi at (g1, g2) is not invertible"),
        (antipode_from_monoidal, cat_mon, zero_xi,
         "functor is not monoidal: xi at (g1, g2) is not invertible"),
        (bialgebra_from_monoidal, g1_squared, fun_mon, "multiplication is not associative"),
        (bialgebra_from_monoidal, replace(unchecked.source.monoidal, unit="zz"),
         unchecked.monoidal, "functor is not monoidal: monoidal unit 'zz' is not an object"),
        (antipode_from_monoidal, unchecked.source.monoidal,
         replace(unchecked.monoidal, xi_unit=zero),
         "functor is not monoidal: xi_unit is not an isomorphism K -> F(I)"),
    ]
    for construct, c, m, words in cases:
        with pytest.raises(WellDefinednessFailure) as exc:
            construct(r, c, m)
        assert str(exc.value) == words
    # the records the checks saw still build
    bialgebra_from_monoidal(r, cat_mon, fun_mon)
    # the same records under other dimensions: F(g1) = K^2
    plane = {**F.ob, "g1": Space.std(2)}
    checked = DiagramFunctor(F.source, F.field, plane, {}, fun_mon)
    fresh = DiagramFunctor(unchecked.source, F.field, plane, {}, unchecked.monoidal)
    assert check_monoidal(checked).problems == check_monoidal(fresh).problems == [
        "xi at (g0, g1) has wrong shape", "xi at (g1, g0) has wrong shape",
        "xi at (g1, g1) has wrong shape", "xi at (g1, g2) has wrong shape",
        "xi at (g2, g1) has wrong shape", "xi at (g2, g2) has wrong shape",
        "dual identification at 'g1' is not an isomorphism",
        "dual identification at 'g2' is not an isomorphism"]


def test_coend_command_checks_naturality_once(monkeypatch):
    counts = count_checks(monkeypatch)
    assert run(["coend", str(SPECS / "glued_pair.json"), "--functor", "F"]) == 0
    assert counts["intertwines"] == 1  # one morphism, checked once
    assert counts["Coalgebra.check"] == 0
    assert counts["Comodule.check"] == 0


def test_ccoend_command_trusts_the_descents(monkeypatch):
    # the control epimorphism is a coalgebra map once h o pi = pi_c descends
    counts = count_checks(monkeypatch)
    argv = ["ccoend", str(SPECS / "discrete_points.json"), "--functor", "F",
            "--controls", "merge01"]
    assert run(argv) == 0
    assert counts["Coalgebra.check"] == 0
    assert counts["Comodule.check"] == 0
    assert counts["coalgebra_morphism_problems"] == 0


def test_validate_checks_each_spec_coalgebra_and_comodule_once(monkeypatch):
    counts = count_checks(monkeypatch)
    assert run(["validate", str(SPECS / "one_object_k2.json")]) == 0
    assert counts["Coalgebra.check"] == 1  # M2
    assert counts["Comodule.check"] == 2  # V and regular


def test_reconstruction_checks_each_seed_once(monkeypatch):
    spec = load_spec(str(SPECS / "z2_grading.json"))
    seeds = {name: spec.comodules[name] for name in ("k0", "k1")}
    counts = count_checks(monkeypatch)
    assert reconstruct_coalgebra(spec.coalgebras["KZ2"], seeds).iso
    assert counts["Comodule.check"] == len(seeds)
    assert counts["Coalgebra.check"] == 0


@pytest.mark.parametrize("argv", [
    ["coend", "discrete_points.json", "--functor", "F"],
    ["ccoend", "discrete_points.json", "--functor", "F", "--controls", "merge01"],
    ["factor", "one_object_k2.json", "--functor", "F", "--transformation", "t_id"],
    ["reconstruct", "z2_grading.json", "--coalgebra", "KZ2", "--seeds", "k0,k1"],
])
def test_each_command_runs_one_naturality_check(monkeypatch, argv):
    # coend: the universal family; ccoend: the controlled coend's family (the
    # plain coend builds no comodule); factor: the transformation;
    # reconstruct: the seed comodule category (its coend builds no comodule)
    counts = count_checks(monkeypatch)
    assert run([argv[0], str(SPECS / argv[1]), *argv[2:]]) == 0
    assert counts["natural_problems"] == 1


def test_reconstruct_command_checks_the_input_hopf_algebra_once(monkeypatch):
    counts = count_checks(monkeypatch)
    argv = ["reconstruct", str(SPECS / "z2_grading.json"), "--coalgebra", "KZ2",
            "--seeds", "k0,k1"]
    assert run(argv) == 0
    assert counts["HopfAlgebra.check"] == 1


@pytest.mark.parametrize("argv, laws", [
    # the 4 file comodules; the seeds k0 and k1 are not computed again
    (["reconstruct", "z2_grading.json", "--coalgebra", "KZ2", "--seeds", "k0,k1"], 4),
    # V and regular, not again as seed and probe; the lift of the probe is
    # decided by the reconstruction, so no equalizer comodule is built
    (["equiv", "one_object_k2.json", "--coalgebra", "M2", "--seeds", "V",
      "--probes", "regular"], 2),
])
def test_each_comodule_computes_its_laws_once(monkeypatch, argv, laws):
    counts = count_checks(monkeypatch)
    assert run([argv[0], str(SPECS / argv[1]), *argv[2:]]) == 0
    assert counts["Comodule.law_problems"] == laws


@pytest.mark.parametrize("argv, solves", [
    # V|V, solved once by the reconstruction, and the three pairs with the probe
    (["equiv", "one_object_k2.json", "--coalgebra", "M2", "--seeds", "V",
      "--probes", "regular"], 4),
    # the four seed pairs, solved once by the reconstruction, and the twelve
    # pairs with a probe
    (["equiv", "z2_grading.json", "--coalgebra", "KZ2", "--seeds", "k0,k1",
      "--probes", "regular,ksum"], 16),
])
def test_equiv_solves_each_hom_space_over_c_once(monkeypatch, argv, solves):
    # the reconstruction decides the lifts and the hom dimensions over the
    # coend, so h is not inverted and no probe is lifted through an equalizer
    counts = count_checks(monkeypatch)
    assert run([argv[0], str(SPECS / argv[1]), *argv[2:]]) == 0
    assert counts["comodule_hom_basis"] == solves
    assert counts["solve_through_injection"] == 0
    assert counts["invert_map"] == 0


@pytest.mark.parametrize("argv", [
    ["reconstruct", "--coalgebra", "M2", "--seeds", "V"],
    ["equiv", "--coalgebra", "M2", "--seeds", "V", "--probes", "regular"],
])
def test_reconstruction_checks_the_seeds_not_the_comparison_map(monkeypatch, argv):
    # h is a coalgebra map because the seeds are lawful comodules and the two
    # descents hold, so no coalgebra-morphism check runs on it
    counts = count_checks(monkeypatch)
    assert run([argv[0], str(SPECS / "one_object_k2.json"), *argv[1:]]) == 0
    assert counts["coalgebra_morphism_problems"] == 0


@pytest.mark.parametrize("command", ["bialgebra", "hopf"])
def test_non_monoidal_functor_output_is_pinned(command):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([command, str(SPECS / "glued_pair.json"), "--functor", "F"])
    assert code == 2
    assert buf.getvalue() == (
        '{\n  "ok": false,\n  "problems": [\n'
        '    "functor is not monoidal: source category carries no monoidal data"\n'
        '  ]\n}\n'
    )
