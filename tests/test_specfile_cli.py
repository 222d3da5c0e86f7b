import json
import subprocess
import sys
from pathlib import Path

import pytest

from coendforge.cli import main
from coendforge.specfile import SpecError, load_spec, resolve_transformation

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
    F, t, target = resolve_transformation(
        load_spec(spec_path("one_object_k2")), "t_id"
    )
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


def test_factor_command():
    code, out = run_cli([
        "factor", spec_path("one_object_k2"), "--functor", "F",
        "--transformation", "t_id",
    ])
    assert code == 0
    data = json.loads(out)
    # the identity F -> F (x) K factors through the counit
    assert data["psi"] == [["1", "0", "0", "1"]]


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
