import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from coendforge.cli import main
from coendforge.coend import coend_of_functor
from coendforge.exactlinalg import kernel
from coendforge.padic_banach import NormedSpace, OracleRefusal, quotient_norm_bruteforce
from coendforge.specfile import SpecError, load_spec

SPECS = Path(__file__).resolve().parent.parent / "specs"


def run_cli(args, tmp_path=None):
    proc = subprocess.run(
        [sys.executable, "-m", "coendforge", *args],
        capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout


def spec_path(name):
    return str(SPECS / f"{name}.json")


# -- loading -------------------------------------------------------------------

def test_all_shipped_specs_load_and_validate():
    for name in ["one_object_k2", "glued_pair", "discrete_points",
                 "z2_grading", "z3_grading"]:
        code, out = run_cli(["validate", spec_path(name)])
        assert code == 0, out
        assert json.loads(out)["ok"]


def test_load_spec_resolves_names():
    spec = load_spec(spec_path("z2_grading"))
    assert spec.field.kind == "q"
    assert set(spec.comodules) == {"k0", "k1", "ksum", "regular"}
    assert spec.coalgebras["KZ2"].check() == []
    F, t, target = load_spec(spec_path("one_object_k2")).transformations["t_id"]
    assert target.dim == 1


def test_field_override_changes_scalars():
    spec = load_spec(spec_path("z3_grading"), field_override="fp:2")
    assert spec.field.kind == "fp" and spec.field.p == 2


def test_parse_error_reports_line_and_column(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"field": "q",\n  "spaces": }\n')
    with pytest.raises(SpecError) as exc:
        load_spec(str(bad))
    assert "line 2" in str(exc.value)


def test_unknown_name_reported(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "field": "q",
        "spaces": {"V": {"dim": 1}},
        "categories": {"B": {"objects": ["a"]}},
        "functors": {"F": {"source": "B", "objects": {"a": "W"}}},
    }))
    with pytest.raises(SpecError) as exc:
        load_spec(str(bad))
    assert "unknown space 'W'" in str(exc.value)


def test_matrix_shape_mismatch_reported(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "field": "q",
        "spaces": {"V": {"dim": 2}},
        "coalgebras": {"C": {"space": "V", "delta": [["1"]], "epsilon": [["1", "0"]]}},
    }))
    with pytest.raises(SpecError) as exc:
        load_spec(str(bad))
    assert "expected 4x2" in str(exc.value)


SCALAR_X = "cannot parse scalar 'x': Invalid literal for Fraction: 'x'"


@pytest.mark.parametrize("delta, fault", [
    ([["x", "0"], ["1", "0"], "row", ["0", "1"]], "matrix must be a list of rows"),
    ([["x", "0"], ["1", "0"], ["0"], ["0", "1"]], "matrix is 4x2, expected 4x2"),
    ([["x", "0"], ["1", "0"], ["0", "0"]], "matrix is 3x2, expected 4x2"),
    ([["1", "0"], ["0", "x"], ["0", "0"], ["y", "1"]], SCALAR_X),
], ids=["row-not-list", "short-row", "row-count", "scalar"])
def test_a_matrix_names_its_first_fault_wherever_it_is(delta, fault):
    # a row that is not a list comes before a wrong shape, and a wrong shape
    # before a bad scalar, even when the bad scalar is read first
    spec = {"field": "q", "spaces": {"V": {"dim": 2}},
            "coalgebras": {"C": {"space": "V", "delta": delta, "epsilon": [["1", "0"]]}}}
    with pytest.raises(SpecError) as exc:
        load_spec(spec)
    assert exc.value.problems == [f"coalgebra 'C' delta: {fault}"]


@pytest.mark.parametrize("rows, fault", [
    ([["x"], ["1"]], "matrix is 2x1, expected 1x1"),
    ([["x"]], SCALAR_X),
    ("1", "matrix must be a list of rows"),
])
def test_an_xi_matrix_names_its_fault_and_pair(tmp_path, rows, fault):
    def edit(mon, F):
        next(e for e in F["xi"] if e[:2] == ["g1", "g2"])[2] = rows
    with pytest.raises(SpecError) as exc:
        load_spec(z3_grading_with(edit))
    assert exc.value.problems == [f"functor 'F' xi at (g1, g2): {fault}"]


# -- exit codes ------------------------------------------------------------------

def test_validate_defective_category_exits_2(tmp_path):
    bad = tmp_path / "assoc.json"
    bad.write_text(json.dumps({
        "field": "q",
        "spaces": {"V": {"dim": 1}},
        "categories": {
            "B": {
                "objects": ["a", "b", "c"],
                "morphisms": [
                    {"name": "f", "dom": "a", "cod": "b"},
                    {"name": "g", "dom": "b", "cod": "c"},
                    {"name": "h", "dom": "a", "cod": "c"},
                ],
                "composition": [["g", "f", "g"]],
            },
        },
    }))
    code, out = run_cli(["validate", str(bad)])
    assert code == 2
    report = json.loads(out)
    assert not report["ok"]
    assert any("(g, f)" in p for p in report["problems"])


def test_not_generated_exits_3():
    code, out = run_cli([
        "reconstruct", spec_path("z2_grading"),
        "--coalgebra", "KZ2", "--seeds", "k0",
    ])
    assert code == 3
    assert json.loads(out)["verdict"] == "NotGenerated"


def test_missing_flag_exits_2():
    code, out = run_cli(["coend", spec_path("one_object_k2")])
    assert code == 2
    assert "functor" in json.loads(out)["problems"][0]


# -- command outputs ----------------------------------------------------------------

def test_cohom_command():
    code, out = run_cli([
        "cohom", spec_path("one_object_k2"), "--x", "K2", "--y", "K1",
    ])
    assert code == 0
    data = json.loads(out)
    assert data["carrier_dim"] == 2
    assert data["coev"] == [["1", "0"], ["0", "1"]]


def test_coend_command_carrier_dim():
    code, out = run_cli(["coend", spec_path("one_object_k2"), "--functor", "F"])
    assert code == 0
    data = json.loads(out)
    assert data["carrier_dim"] == 4
    assert data["verification"]["cowedge"] == []
    assert data["verification"]["coalgebra"] == []


def test_reconstruct_command_iso():
    code, out = run_cli([
        "reconstruct", spec_path("z2_grading"),
        "--coalgebra", "KZ2", "--seeds", "k0,k1",
    ])
    assert code == 0
    data = json.loads(out)
    assert data["iso"] is True and data["verdict"] == "Isomorphism"


def test_reconstruct_comatrix_command():
    code, out = run_cli([
        "reconstruct", spec_path("one_object_k2"),
        "--coalgebra", "M2", "--seeds", "V",
    ])
    assert code == 0
    data = json.loads(out)
    assert data["iso"] is True and data["carrier_dim"] == 4


def test_bialgebra_and_hopf_commands():
    code, out = run_cli(["bialgebra", spec_path("z2_grading"), "--functor", "F"])
    assert code == 0
    data = json.loads(out)
    assert data["verification"]["bialgebra"] == []
    code, out = run_cli(["hopf", spec_path("z3_grading"), "--functor", "F"])
    assert code == 0
    data = json.loads(out)
    assert data["verification"]["hopf"] == []
    # S(g_i) = g_{-i}: a permutation matrix fixing only g0
    s = data["antipode"]
    assert s[0][0] == "1" and s[1][2] == "1" and s[2][1] == "1"


def test_ccoend_with_unit_control_is_bit_identical():
    code_plain, out_plain = run_cli([
        "coend", spec_path("discrete_points"), "--functor", "F",
    ])
    code_unit, out_unit = run_cli([
        "ccoend", spec_path("discrete_points"), "--functor", "F",
        "--controls", "unit",
    ])
    assert code_plain == 0 and code_unit == 0
    plain = json.loads(out_plain)
    unit = json.loads(out_unit)
    for key in ["carrier_dim", "pi", "injections", "comultiplication", "counit"]:
        assert plain[key] == unit[key]


def test_ccoend_with_merging_control():
    code, out = run_cli([
        "ccoend", spec_path("discrete_points"), "--functor", "F",
        "--controls", "merge01",
    ])
    assert code == 0
    data = json.loads(out)
    assert data["carrier_dim"] == 2
    assert data["plain_carrier_dim"] == 3
    assert data["injections"]["p0"] == data["injections"]["p1"]


def test_equiv_command():
    code, out = run_cli([
        "equiv", spec_path("z2_grading"), "--coalgebra", "KZ2",
        "--seeds", "k0,k1", "--probes", "regular,ksum",
    ])
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and data["hom_tables_match"]
    assert data["probes"] == {"ksum": "lifted", "regular": "lifted"}


def test_bcoend_command_norms():
    code, out = run_cli([
        "bcoend", spec_path("one_object_k2"), "--functor", "F",
        "--field", "padic:2",
    ])
    assert code == 0
    data = json.loads(out)
    assert data["norms"]["pi"] == {"exp": 0}
    assert data["norms"]["class_norms"] == [{"exp": 0}] * 4
    assert data["closure_is_identity"] is True


def zero_dim_spec(with_k2):
    """An arrow z -> a over padic:3 from a 0-dim object, into K^2 with
    weights (1, -1) when with_k2 is set and into a second 0-dim object
    otherwise."""
    a = {"labels": ["a0", "a1"], "weights": [1, -1]} if with_k2 else {"labels": []}
    return {
        "field": "padic:3",
        "spaces": {"Z": {"labels": []}, "A": a},
        "categories": {"Arrow": {"objects": ["z", "a"],
                                 "morphisms": [{"name": "f", "dom": "z", "cod": "a"}]}},
        "functors": {"F": {"source": "Arrow", "objects": {"z": "Z", "a": "A"},
                           "morphisms": {"f": [[], []] if with_k2 else []}}},
    }


@pytest.mark.parametrize("with_k2, one, injections, class_norms, weights", [
    (True, {"exp": 0}, {"z": {"zero": True}, "a": {"exp": 0}},
     [{"exp": 0}, {"exp": 2}, {"exp": -2}, {"exp": 0}], [-2, 0, 0, 2]),
    (False, {"zero": True}, {"z": {"zero": True}, "a": {"zero": True}}, [], []),
], ids=["zero-and-K2", "only-zero"])
def test_bcoend_command_norms_on_zero_dim_objects(tmp_path, with_k2, one, injections,
                                                  class_norms, weights):
    # a 0-dim object's injection has norm 0; on a zero carrier every norm is 0
    path = tmp_path / "zero_dim.json"
    path.write_text(json.dumps(zero_dim_spec(with_k2)))
    code, out = run_cli(["bcoend", str(path), "--functor", "F"])
    assert code == 0, out
    norms = json.loads(out)["norms"]
    assert norms == {"pi": one, "injections": injections, "comultiplication": one,
                     "counit": one, "delta_bound": one, "class_norms": class_norms,
                     "carrier_weights": weights}


def test_factor_command():
    code, out = run_cli([
        "factor", spec_path("one_object_k2"), "--functor", "F",
        "--transformation", "t_id",
    ])
    assert code == 0
    data = json.loads(out)
    # the identity F -> F (x) K factors through the counit
    assert data["psi"] == [["1", "0", "0", "1"]]


@pytest.mark.parametrize("functor, problem", [
    ("G", "unknown functor 'G'"),
    ("", "unknown functor ''"),
    ("F2", "--functor disagrees with the transformation's functor"),
], ids=["unknown", "empty", "other"])
def test_factor_checks_the_named_functor(tmp_path, capsys, functor, problem):
    # a named functor must exist, and must be the transformation's own
    spec = json.loads(Path(spec_path("one_object_k2")).read_text())
    spec["functors"]["F2"] = spec["functors"]["F"]
    path = tmp_path / "two_functors.json"
    path.write_text(json.dumps(spec))
    code = main(["factor", str(path), "--functor", functor, "--transformation", "t_id"])
    data = json.loads(capsys.readouterr().out)
    assert code == 2 and data["problems"] == [problem]


@pytest.mark.parametrize("components, problem", [
    ({"pt": [["1", "0"]]}, "transformation 't_id' at 'pt': matrix is 1x2, expected 2x2"),
    ({}, "transformation 't_id': missing component at 'pt'"),
    ({"pt": [["1", "x"], ["0", "1"]]}, "transformation 't_id' at 'pt': cannot parse scalar 'x'"),
    (5, "transformation 't_id': 'components' must be a JSON object"),
], ids=["shape", "missing", "scalar", "not-object"])
@pytest.mark.parametrize("command", ["validate", "coend", "factor"])
def test_malformed_transformation_exits_2_at_load(tmp_path, capsys, command, components,
                                                  problem):
    # every command checks the transformations while loading, as factor does
    spec = json.loads(Path(spec_path("one_object_k2")).read_text())
    spec["transformations"]["t_id"]["components"] = components
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    code = main([command, str(path), "--functor", "F", "--transformation", "t_id"])
    data = json.loads(capsys.readouterr().out)
    assert code == 2 and data["ok"] is False
    assert len(data["problems"]) == 1 and data["problems"][0].startswith(problem)


def test_field_override_runs_z3_over_f2():
    code, out = run_cli([
        "bialgebra", spec_path("z3_grading"), "--functor", "F",
        "--field", "fp:2",
    ])
    assert code == 0
    assert json.loads(out)["verification"]["bialgebra"] == []


def test_field_modulus_beyond_primality_bound_exits_2_with_json():
    code, out = run_cli([
        "coend", spec_path("one_object_k2"), "--functor", "F",
        "--field", "fp:3317044064679887385961981",
    ])
    assert code == 2
    data = json.loads(out)
    assert data["ok"] is False
    assert "exceeds the supported bound" in data["problems"][0]


@pytest.mark.parametrize("spec", [
    {"field": 5},
    {"field": "q", "spaces": []},
    {"field": "q", "functors": "F"},
    {"spaces": {"V": {"labels": 5}}},
    {"spaces": {"V": {"dim": 2, "weights": 3}}},
    {"categories": {"C": {"objects": 5}}},
    {"categories": {"C": {"objects": ["a"], "morphisms": [5]}}},
    {"spaces": {"V": {"dim": 1}}, "categories": {"C": {"objects": ["a"]}},
     "functors": {"F": {"source": "C", "objects": ["a"]}}},
    {"spaces": {"V": {"dim": [2]}}},
    {"spaces": {"V": {"dim": 1, "weights": [[0]]}}},
    {"categories": {"C": {"objects": ["a"]}}, "functors": {"F": {"source": ["C"]}}},
    {"coalgebras": {"K": 5}},
    {"comodules": {"M": 5}},
    {"controls": {"c": 5}},
    {"transformations": {"t": 5}},
    # names given as lists
    {"spaces": {"V": {"dim": 1}},
     "coalgebras": {"K": {"space": "V", "delta": [["1"]], "epsilon": [["1"]]}},
     "comodules": {"M": {"over": ["K"], "space": "V", "rho": [["1"]]}}},
    {"spaces": {"V": {"dim": 1}}, "categories": {"C": {"objects": ["a"]}},
     "functors": {"F": {"source": "C", "objects": {"a": ["V"]}}}},
    {"spaces": {"V": {"dim": 1}},
     "coalgebras": {"K": {"space": ["V"], "delta": [["1"]], "epsilon": [["1"]]}}},
    {"spaces": {"V": {"dim": 1}}, "controls": {"c": {"space": ["V"]}}},
    {"categories": {"C": {"objects": ["a"], "composition": [[["a"], "a", "a"]]}}},
    {"categories": {"C": {"objects": ["a"], "composition": 5}}},
    {"categories": {"C": {"objects": ["a"], "monoidal": 5}}},
    {"categories": {"C": {"objects": ["a"], "monoidal": {"unit": "a", "tensor": [["a", "a", "a"]],
                                                        "duals": 5}}}},
    # booleans and fractions where an integer belongs
    {"spaces": {"V": {"dim": True}}},
    {"spaces": {"V": {"dim": 1.5}}},
    {"spaces": {"V": {"dim": 1, "weights": [0.7]}}},
    # a negative dimension
    {"spaces": {"V": {"dim": -1}}},
    # functor monoidal data of the wrong JSON type
    {"spaces": {"V": {"dim": 1}}, "categories": {"C": {"objects": ["a"], "monoidal": {
        "unit": "a", "tensor": [["a", "a", "a"]]}}},
     "functors": {"F": {"source": "C", "objects": {"a": "V"}, "xi": 5}}},
    {"spaces": {"V": {"dim": 1}}, "categories": {"C": {"objects": ["a"], "monoidal": {
        "unit": "a", "tensor": [["a", "a", "a"]], "duals": {"a": "a"}}}},
     "functors": {"F": {"source": "C", "objects": {"a": "V"}, "xi": [], "xi_unit": [["1"]],
                        "dual_maps": 5}}},
    # control and transformation tables that are not JSON objects
    {"spaces": {"V": {"dim": 1}}, "controls": {"c": {"space": "V", "action": 5}}},
    {"spaces": {"V": {"dim": 1}}, "controls": {"c": {"space": "V", "xi": [1]}}},
    {"spaces": {"V": {"dim": 1}}, "categories": {"C": {"objects": ["a"]}},
     "functors": {"F": {"source": "C", "objects": {"a": "V"}}},
     "transformations": {"t": {"functor": "F", "target": "V", "components": 5}}},
])
def test_mistyped_spec_fields_exit_2_with_json(tmp_path, spec):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli(["validate", str(path)])
    assert code == 2
    data = json.loads(out)
    assert data["ok"] is False and data["problems"]


def _one_dim_spec(**sections):
    return {"spaces": {"V": {"dim": 1}}, **sections}


def _one_object_monoidal_spec(tensor, tensor_morphisms=(), xi=None):
    spec = _one_dim_spec(categories={"C": {"objects": ["a"], "monoidal": {
        "unit": "a", "tensor": tensor, "tensor_morphisms": list(tensor_morphisms)}}})
    if xi is not None:
        spec["functors"] = {"F": {"source": "C", "objects": {"a": "V"}, "xi": xi,
                                  "xi_unit": [["1"]]}}
    return spec


@pytest.mark.parametrize("spec, problem", [
    (_one_object_monoidal_spec([["a", 5, "a"]]), "category 'C': tensor entries are [a, b, ab]"),
    (_one_object_monoidal_spec([["a", "a", ["a"]]]),
     "category 'C': tensor entries are [a, b, ab]"),
    (_one_object_monoidal_spec([["a", "a", "a"]], [["id_a", 1, "id_a"]]),
     "category 'C': tensor_morphisms entries are [f, g, fg]"),
    # the tensor table is read before tensor_morphisms
    (_one_object_monoidal_spec([[None, "a", "a"]], [["id_a", 1, "id_a"]]),
     "category 'C': tensor entries are [a, b, ab]"),
    (_one_object_monoidal_spec([["a", "a", "a"]], xi=[["a", 5, [["1"]]]]),
     "functor 'F': xi entries are [a, b, matrix]"),
], ids=["tensor-middle", "tensor-last", "tensor-morphisms", "tensor-first", "xi"])
def test_a_non_string_name_in_a_table_entry_is_named(tmp_path, spec, problem):
    path = tmp_path / "names.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli(["validate", str(path)])
    assert code == 2
    assert json.loads(out) == {"ok": False, "problems": [problem]}


COALGEBRA_K = {"space": "V", "delta": [["1"]], "epsilon": [["1"]]}


def _without(entry, key):
    return {k: v for k, v in entry.items() if k != key}


@pytest.mark.parametrize("spec, name", [
    (_one_dim_spec(coalgebras={"K": _without(COALGEBRA_K, "delta")}), "delta"),
    (_one_dim_spec(coalgebras={"K": _without(COALGEBRA_K, "epsilon")}), "epsilon"),
    (_one_dim_spec(coalgebras={"K": {**COALGEBRA_K, "u": [["1"]]}}), "m"),
    (_one_dim_spec(coalgebras={"K": {**COALGEBRA_K, "m": [["1"]]}}), "u"),
    (_one_dim_spec(coalgebras={"K": COALGEBRA_K},
                   comodules={"M": {"over": "K", "space": "V"}}), "rho"),
    (_one_dim_spec(transformations={"t": {"target": "V"}}), "functor"),
    (_one_dim_spec(categories={"C": {"objects": ["a"]}},
                   functors={"F": {"source": "C", "objects": {"a": "V"}}},
                   transformations={"t": {"functor": "F"}}), "target"),
], ids=["delta", "epsilon", "m", "u", "rho", "functor", "target"])
def test_missing_required_field_exits_2_naming_it(tmp_path, spec, name):
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli(["validate", str(path)])
    assert code == 2
    data = json.loads(out)
    assert data["ok"] is False
    assert any(f"missing {name!r}" in p for p in data["problems"]), data["problems"]


def test_integral_dim_and_weights_still_validate(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps({"spaces": {"V": {"dim": 2.0, "weights": [0, -1.0]},
                                           "W": {"dim": 3}}}))
    code, out = run_cli(["validate", str(path)])
    assert code == 0 and json.loads(out)["ok"] is True


# one arrow K^2 -> K^2 over padic:3 on which the window oracle's candidate
# grid exceeds its bound; the dual certificate has no such limit
K2_PADIC3 = {
    "field": "padic:3",
    "spaces": {"Ka": {"labels": ["a0", "a1"], "weights": [0, 0]},
               "Kb": {"labels": ["b0", "b1"], "weights": [0, 2]}},
    "categories": {"Arrow": {"objects": ["a", "b"],
                             "morphisms": [{"name": "f", "dom": "a", "cod": "b"}]}},
    "functors": {"F": {"source": "Arrow", "objects": {"a": "Ka", "b": "Kb"},
                       "morphisms": {"f": [["1", "0"], ["0", "1"]]}}},
}


def test_certified_bcoend_beyond_the_window_oracle_exits_0(tmp_path):
    path = tmp_path / "k2.json"
    path.write_text(json.dumps(K2_PADIC3))
    code, out = run_cli(["bcoend", str(path), "--functor", "F"])
    assert code == 0, out
    data = json.loads(out)
    assert data["carrier_dim"] == 4
    assert data["verification"] == {
        "cowedge": [], "coalgebra": [], "comodules": {"a": [], "b": []},
    }


def test_window_oracle_still_refuses_that_instance():
    r = coend_of_functor(load_spec(K2_PADIC3).functors["F"])
    ker = kernel(r.pi)
    relations = [ker.col(j) for j in range(ker.dom.dim)]
    with pytest.raises(OracleRefusal):
        quotient_norm_bruteforce(NormedSpace(r.nspace, 3), relations, r.section.col(2))


# -- determinism ---------------------------------------------------------------------

def test_output_determinism_byte_identical():
    for args in [
        ["coend", spec_path("one_object_k2"), "--functor", "F"],
        ["hopf", spec_path("z2_grading"), "--functor", "F"],
        ["reconstruct", spec_path("z2_grading"), "--coalgebra", "KZ2",
         "--seeds", "k0,k1"],
    ]:
        _, out1 = run_cli(args)
        _, out2 = run_cli(args)
        assert out1 == out2


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "result.json"
    code = main([
        "coend", spec_path("one_object_k2"), "--functor", "F",
        "--out", str(target),
    ])
    assert code == 0
    assert json.loads(target.read_text())["carrier_dim"] == 4


# -- resource bounds and cross-coalgebra names ---------------------------------

def test_validate_huge_declared_dim_builds_no_labels(tmp_path):
    # a 40-byte file declaring dim 10^9: under a 1 GB address-space limit the
    # command must finish without materializing a label per basis vector
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"spaces": {"V": {"dim": 1000000000}}}))
    proc = subprocess.run([sys.executable, "-m", "coendforge", "validate", str(path)],
                          capture_output=True, text=True, timeout=60, preexec_fn=limit)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"ok": True, "problems": []}


def merged_k2_z2_spec():
    """one_object_k2 (coalgebra M2) plus the coalgebra KZ2 of z2_grading and
    its comodules, renamed with a leading z."""
    spec = json.loads((SPECS / "one_object_k2.json").read_text())
    z2 = json.loads((SPECS / "z2_grading.json").read_text())
    spec["spaces"].update(z2["spaces"])
    spec["coalgebras"].update(z2["coalgebras"])
    spec["comodules"].update({f"z{name}": c for name, c in z2["comodules"].items()})
    return spec


@pytest.mark.parametrize("argv, problem", [
    (["reconstruct", "--coalgebra", "M2", "--seeds", "zk0,zk1"],
     "comodule 'zk0' in --seeds is over coalgebra 'KZ2', not 'M2'"),
    (["equiv", "--coalgebra", "M2", "--seeds", "zk0"],
     "comodule 'zk0' in --seeds is over coalgebra 'KZ2', not 'M2'"),
    (["equiv", "--coalgebra", "M2", "--seeds", "V", "--probes", "zregular"],
     "comodule 'zregular' in --probes is over coalgebra 'KZ2', not 'M2'"),
])
def test_comodules_over_another_coalgebra_are_refused(tmp_path, capsys, argv, problem):
    path = tmp_path / "merged.json"
    path.write_text(json.dumps(merged_k2_z2_spec()))
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main([argv[0], str(path), *argv[1:]]) == 2
    assert json.loads(capsys.readouterr().out) == {"ok": False, "problems": [problem]}


def z3_grading_with(edit):
    """specs/z3_grading.json after edit(monoidal data of Z3, functor F)."""
    spec = json.loads((SPECS / "z3_grading.json").read_text())
    edit(spec["categories"]["Z3"]["monoidal"], spec["functors"]["F"])
    return spec


@pytest.mark.parametrize("command", ["validate", "hopf"])
@pytest.mark.parametrize("dual", [{}, ["g1"]], ids=["object", "list"])
def test_duals_that_are_not_names_exit_2_naming_the_category(tmp_path, command, dual):
    path = tmp_path / "duals.json"
    path.write_text(json.dumps(z3_grading_with(lambda mon, F: mon["duals"].update(g0=dual))))
    code, out = run_cli([command, str(path), "--functor", "F"])
    assert code == 2
    assert json.loads(out) == {
        "ok": False, "problems": ["category 'Z3': monoidal 'duals' must map names to names"]}


def _retarget_tensor(mon, a, b, ab):
    next(e for e in mon["tensor"] if e[:2] == [a, b])[2] = ab


@pytest.mark.parametrize("edit, problem", [
    (lambda mon, F: _retarget_tensor(mon, "g0", "g1", "1/0"),
     "functor 'F' xi at (g0, g1): unknown object '1/0'"),
    (lambda mon, F: mon["duals"].update(g1="nope"),
     "functor 'F' dual map at 'g1': unknown object 'nope'"),
    (lambda mon, F: mon.update(unit=["g0"]),
     "functor 'F' xi_unit: unknown object ['g0']"),
], ids=["xi-target", "dual-target", "unit"])
def test_unknown_objects_in_functor_monoidal_data_are_named(tmp_path, capsys, edit, problem):
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps(z3_grading_with(edit)))
    assert main(["validate", str(path)]) == 2
    assert json.loads(capsys.readouterr().out) == {"ok": False, "problems": [problem]}


def zero_object_dual_spec(dual_map_z):
    """g0 (the unit, F(g0) = K) and an absorbing z with F(z) = 0, z* = g0,
    and dual_map_z as the identification F(z*) ~ F(z)^*."""
    objs = ["g0", "z"]
    return {
        "spaces": {"K1": {"dim": 1}, "Z0": {"dim": 0}},
        "categories": {"C": {"objects": objs, "monoidal": {
            "unit": "g0",
            "tensor": [[a, b, "z" if "z" in (a, b) else "g0"] for a in objs for b in objs],
            "duals": {"g0": "g0", "z": "g0"}}}},
        "functors": {"F": {
            "source": "C", "objects": {"g0": "K1", "z": "Z0"},
            "xi": [[a, b, [["1"]] if a == b == "g0" else []] for a in objs for b in objs],
            "xi_unit": [["1"]],
            "dual_maps": {"g0": [["1"]], "z": dual_map_z}}},
    }


def test_non_square_dual_identification_exits_2(tmp_path):
    # F(z*) = K -> F(z)^* = 0 has full rank 0 = dim F(z) but is no isomorphism
    path = tmp_path / "zero_dual.json"
    path.write_text(json.dumps(zero_object_dual_spec([])))
    problems = ["functor F: dual identification at 'z' is not an isomorphism"]
    code, out = run_cli(["validate", str(path)])
    assert code == 2 and json.loads(out)["problems"] == problems
    code, out = run_cli(["hopf", str(path), "--functor", "F"])
    assert code == 2
    assert json.loads(out) == {"ok": False, "problems": problems}


# -- scale ceiling ---------------------------------------------------------------

def zn_grading(n, p, seed):
    """Z/n on n copies of the line over F_p with a seeded coboundary
    xi_{a,b} = l_a l_b / l_{a+b}; the induced Hopf algebra is F_p[Z/n]."""
    rng = random.Random(seed)
    lam = [rng.randint(1, p - 1) for _ in range(n)]
    g = [f"g{i}" for i in range(n)]
    return {
        "field": f"fp:{p}",
        "spaces": {"K1": {"dim": 1}},
        "categories": {"Zn": {
            "objects": g, "morphisms": [], "composition": [],
            "monoidal": {
                "unit": "g0",
                "tensor": [[g[a], g[b], g[(a + b) % n]] for a in range(n) for b in range(n)],
                "duals": {g[a]: g[-a % n] for a in range(n)},
            },
        }},
        "functors": {"F": {
            "source": "Zn",
            "objects": {o: "K1" for o in g},
            "morphisms": {},
            "xi": [[g[a], g[b], [[str(lam[a] * lam[b] * pow(lam[(a + b) % n], -1, p) % p)]]]
                   for a in range(n) for b in range(n)],
            "xi_unit": [[str(pow(lam[0], -1, p))]],
            "dual_maps": {o: [[str(rng.randint(1, p - 1))]] for o in g},
        }},
    }


def all_lists_empty(tree):
    if isinstance(tree, dict):
        return all(all_lists_empty(v) for v in tree.values())
    return tree == []


def test_hopf_on_z32_grading_is_the_group_algebra(tmp_path, capsys):
    # the largest Z/n the hopf command is meant to reach in about a second
    n, p = 32, 7
    spec = zn_grading(n, p, seed=32)
    path = tmp_path / "z32.json"
    path.write_text(json.dumps(spec))
    assert main(["hopf", str(path), "--functor", "F"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["carrier_dim"] == n
    assert data["multiplication"] == [
        ["1" if k == (i + j) % n else "0" for i in range(n) for j in range(n)] for k in range(n)
    ]
    assert data["antipode"] == [["1" if k == -i % n else "0" for i in range(n)] for k in range(n)]
    assert all_lists_empty(data["verification"])

    xi = spec["functors"]["F"]["xi"]
    xi[n + 1][2] = [[str(2 * int(xi[n + 1][2][0][0]) % p)]]  # xi at (g1, g1), doubled
    path.write_text(json.dumps(spec))
    assert main(["hopf", str(path), "--functor", "F"]) == 2
    problems = json.loads(capsys.readouterr().out)["problems"]
    assert any("xi associativity fails at" in q for q in problems)


@pytest.mark.parametrize("desc", ["q", "fp:7"])
def test_hopf_on_the_benchmark_z32_grading(tmp_path, capsys, monkeypatch, desc):
    # the hopf_ladder spec at n = 32; over q its xi are non-integral
    # fractions, and the induced Hopf algebra is K[Z/32] whatever they are
    monkeypatch.syspath_prepend(str(SPECS.parent / "perfbench"))
    import workloads

    n = 32
    spec = workloads.zn_grading_spec(desc, n, random.Random(1))
    path = tmp_path / "z32.json"
    path.write_text(json.dumps(spec))
    assert main(["hopf", str(path), "--functor", "F"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["carrier_dim"] == n
    assert data["multiplication"] == [
        ["1" if k == (i + j) % n else "0" for i in range(n) for j in range(n)] for k in range(n)
    ]
    assert data["antipode"] == [["1" if k == -i % n else "0" for i in range(n)] for k in range(n)]
    assert all_lists_empty(data["verification"])

    xi = spec["functors"]["F"]["xi"]
    xi[n + 1][2] = [[str(2 * Fraction(xi[n + 1][2][0][0]))]]  # xi at (g1, g1), doubled
    path.write_text(json.dumps(spec))
    assert main(["hopf", str(path), "--functor", "F"]) == 2
    problems = json.loads(capsys.readouterr().out)["problems"]
    assert any("xi associativity fails at" in q for q in problems)
