"""Tests of the benchmark itself: seeded generators, the outside span
recorder and the output checks.  Run with

    python3 -m pytest perfbench/tests -q
"""

import hashlib
import json
import random
import signal
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import checks
import run
import workloads
from checks import CliOutcome
from spans import TARGETS, SpanRecorder
from speed import Speedometer

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def pkg():
    return run.fresh_import(ROOT / "src")


def _specs(seed):
    rng = random.Random(seed)
    return [workloads.zn_grading_spec("q", 5, rng),
            workloads.zn_grading_spec("fp:7", 5, rng),
            workloads.zigzag_spec(2, 6, rng),
            workloads.k2_spec(3, (0, 0), (0, 1), rng)]


def test_generators_are_deterministic_per_seed(pkg):
    assert _specs(4) == _specs(4)
    assert _specs(4) != _specs(5)
    field = pkg.exactlinalg.field_from_descriptor("q")
    a = workloads.comatrix_input(pkg, field, 3, random.Random(4))[1].rho
    b = workloads.comatrix_input(pkg, field, 3, random.Random(4))[1].rho
    c = workloads.comatrix_input(pkg, field, 3, random.Random(5))[1].rho
    assert a == b and a != c


@pytest.mark.parametrize("desc", ["q", "fp:7"])
def test_comatrix_input_is_a_valid_comodule_over_the_closed_form(pkg, desc):
    field = pkg.exactlinalg.field_from_descriptor(desc)
    coalgebra, comodule = workloads.comatrix_input(pkg, field, 3, random.Random(1))
    assert coalgebra.check() == [] and comodule.check() == []
    ce = pkg.cohom.coend_object(pkg.exactlinalg.Space.std(3), field)
    assert checks.check_comatrix(3, ce.coalgebra.delta.entries,
                                 ce.coalgebra.counit.entries) == []


def _snapshot(modules, classes):
    return ([(m, dict(vars(m))) for m in modules],
            [(c, dict(c.__dict__)) for c in classes])


def test_wrappers_record_spans_and_restore_every_binding(pkg, tmp_path):
    recorder = SpanRecorder()
    modules = recorder._modules()
    classes = [pkg.exactlinalg.LinearMap, pkg.cohom.Coalgebra, pkg.cohom.Comodule,
               pkg.cohom.Bialgebra, pkg.cohom.HopfAlgebra]
    before = _snapshot(modules, classes)
    original_tensor = pkg.exactlinalg.tensor
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(workloads.zn_grading_spec("q", 3, random.Random(0))))

    recorder.install()
    try:
        # every module binding of tensor is replaced, not only the defining one
        assert pkg.exactlinalg.tensor is not original_tensor
        assert sys.modules["coendforge.cohom"].tensor is pkg.exactlinalg.tensor
        assert sys.modules["coendforge.fincat"].tensor is pkg.exactlinalg.tensor
        out = workloads.run_cli(pkg.cli, ["hopf", str(path), "--functor", "F"])
    finally:
        recorder.uninstall()

    assert checks.check_zn_hopf(3, out) == []
    assert _snapshot(modules, classes) == before
    totals = recorder.totals()
    assert totals["cli.main.calls"] == 1
    assert totals["fincat.check_monoidal.calls"] == 3
    assert totals["cohom.hopf_check.calls"] >= 1
    assert totals["exactlinalg.matmul.calls"] > 0
    # self times partition the root span's duration
    (root,) = [s for s in recorder.spans if s[4] == -1]
    assert sum(s[5] for s in recorder.spans) == pytest.approx(root[3] - root[2])


def _hopf_output(n):
    mult = [["1" if k == (i + j) % n else "0" for i in range(n) for j in range(n)]
            for k in range(n)]
    anti = [["1" if k == (-i) % n else "0" for i in range(n)] for k in range(n)]
    return {"carrier_dim": n, "multiplication": mult, "antipode": anti,
            "verification": {"cowedge": [], "coalgebra": [],
                             "comodules": {"g0": []}, "hopf": []}}


def _cli(payload, code=0):
    return CliOutcome(code, json.dumps(payload))


def test_hopf_check_rejects_tampered_outputs():
    good = _hopf_output(4)
    assert checks.check_zn_hopf(4, _cli(good)) == []
    wrong_table = _hopf_output(4)
    wrong_table["multiplication"][0], wrong_table["multiplication"][1] = (
        wrong_table["multiplication"][1], wrong_table["multiplication"][0])
    assert checks.check_zn_hopf(4, _cli(wrong_table))
    wrong_antipode = _hopf_output(4)
    wrong_antipode["antipode"] = [["1" if i == k else "0" for i in range(4)]
                                  for k in range(4)]
    assert checks.check_zn_hopf(4, _cli(wrong_antipode))
    failed_axiom = _hopf_output(4)
    failed_axiom["verification"]["hopf"] = ["left antipode axiom fails"]
    assert checks.check_zn_hopf(4, _cli(failed_axiom))
    assert checks.check_zn_hopf(4, _cli(good, code=2))
    assert checks.check_zn_hopf(5, _cli(good))


def test_reconstruction_and_comatrix_checks_reject_tampered_results():
    assert checks.check_reconstruction(3, "Isomorphism", 9) == []
    assert checks.check_reconstruction(3, "NotGenerated", 9)
    assert checks.check_reconstruction(3, "Isomorphism", 8)
    delta = checks.comatrix_delta_rows(2)
    counit = checks.comatrix_counit_rows(2)
    assert checks.check_comatrix(2, delta, counit) == []
    delta[0][0] = 0
    assert checks.check_comatrix(2, delta, counit)
    assert checks.check_comatrix(2, checks.comatrix_delta_rows(2), [[1, 1, 0, 1]])


def test_cli_checks_reject_refusals_wrong_codes_and_digests():
    out = CliOutcome(0, "{}\n")
    sha = hashlib.sha256(b"{}\n").hexdigest()
    assert checks.check_expected(out, 0, sha) == []
    assert checks.check_expected(CliOutcome(3, "{}\n"), 0, sha)
    assert checks.check_expected(CliOutcome(0, "{ }\n"), 0, sha)
    assert checks.check_expected(CliOutcome(None, "", "window oracle gave up"), 0, sha)
    good = {"carrier_dim": 1, "verification": {"cowedge": []},
            "closure_is_identity": True, "norms": {"class_norms": [{"exp": 0}]}}
    assert checks.check_bcoend(_cli(good), 1, [{"exp": 0}]) == []
    assert checks.check_bcoend(_cli(good), 1, [{"exp": 1}])
    assert checks.check_bcoend(_cli(good), 4)
    assert checks.check_bcoend(CliOutcome(None, "", "window oracle"), 1)


def test_benchmark_json_names_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert len(TARGETS) == len({t[0] for t in TARGETS})


def test_every_workload_builds_and_names_its_top_rung(pkg, tmp_path):
    for name, (build_jobs, top) in workloads.WORKLOADS.items():
        jobs = build_jobs(pkg, random.Random(0), tmp_path)
        assert top in [j.name for j in jobs], name
        assert len({j.name for j in jobs}) == len(jobs), name


def test_missing_package_exits_nonzero_without_a_result(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "corpus", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_a_short_corpus_run_prints_a_correct_result(capsys):
    assert run.main(["--workload", "corpus", "--seed", "1", "--seconds", "0.1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert result["metrics"]["ok_ratio"]["value"] == 1.0



def test_run_cli_records_oracle_refusals_either_way():
    def raises(argv):
        raise ArithmeticError("window oracle would enumerate > 2000000 candidates")

    def reports(argv):
        print(json.dumps({"ok": False, "problems": ["window oracle gave up"]}))
        return 2

    for main in (raises, reports):
        out = workloads.run_cli(SimpleNamespace(main=main), [])
        assert out.refusal is not None
    out = workloads.run_cli(SimpleNamespace(main=lambda argv: 2), [])
    assert out.refusal is None and out.code == 2


def test_speedometer_samples_inside_a_call_and_restores_the_alarm():
    handler = signal.getsignal(signal.SIGALRM)
    meter = Speedometer()
    out, own, at_ref = meter.time(lambda: sum(i * i for i in range(400_000)))
    assert out == sum(i * i for i in range(400_000))
    assert meter._samples and own > 0 and at_ref > 0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    out, _, _ = meter.time(lambda: 1 / 0)
    assert isinstance(out, ZeroDivisionError)
    assert signal.getsignal(signal.SIGALRM) is handler

    quiet = Speedometer(inside=False)
    quiet.time(lambda: sum(i * i for i in range(400_000)))
    assert quiet._samples == []
