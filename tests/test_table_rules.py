"""Each structure-isomorphism table rule is written once.  The monoidal
entry rules live in ``fincat.monoidal_table_problems``: ``check_monoidal``,
the coend's ``*_from_monoidal`` constructors and ``reconstruct_bialgebra``
all refuse a malformed table in its words, once per command: the monoidal
records are frozen, so an edit is a copy, and a verdict kept on the
original covers no copy.  A control's action and xi are
checked only in ``coend``, where its relation columns are built: the CLI
and a library caller get the same words."""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import replace
from pathlib import Path

import pytest

from coendforge import fincat
from coendforge.cli import main
from coendforge.coend import (
    ControlData,
    MissingControlData,
    WellDefinednessFailure,
    antipode_from_monoidal,
    bialgebra_from_monoidal,
    c_coend,
    coend_of_functor,
)
from coendforge.cohom import Comodule, group_hopf_algebra
from coendforge.exactlinalg import QQ, LinearMap, PrimeField, Space, tensor_space
from coendforge.fincat import (
    CategoryMonoidalData,
    DiagramFunctor,
    FinCategory,
    FunctorMonoidalData,
    check_monoidal,
)
from coendforge.reconstruct import reconstruct_bialgebra

ROOT = Path(__file__).resolve().parent.parent
K = Space.std(1)


# ---------------------------------------------------------------------------
# monoidal tables
# ---------------------------------------------------------------------------

def z2_tables(f):
    """KZ/2 over f with its graded lines e (unit) and g as seeds, and valid
    monoidal tables on them: every xi, xi_unit and dual identification 1."""
    h = group_hopf_algebra(f, ["h0", "h1"], lambda i, j: (i + j) % 2, lambda i: i)

    def line(degree):
        v = Space.std(1, prefix=f"v{degree}")
        return Comodule(v, h, LinearMap.from_sparse(f, v, tensor_space(v, h.carrier),
                                                    [{degree: f.one()}]))

    seeds = {"e": line(0), "g": line(1)}
    cat_mon = CategoryMonoidalData(
        "e", {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "e"},
        duals={"e": "e", "g": "g"})
    one = LinearMap(f, K, K, ((f.one(),),))
    fun_mon = FunctorMonoidalData(xi={pair: one for pair in cat_mon.tensor_obj}, xi_unit=one,
                                  dual_maps={"e": one, "g": one})
    F = DiagramFunctor(FinCategory(list(seeds), [], monoidal=cat_mon), f,
                       {x: com.space for x, com in seeds.items()}, {}, monoidal=fun_mon)
    return h, seeds, F


def _zero(f):
    return LinearMap(f, K, K, ((f.zero(),),))


def _without(table, key):
    return {k: v for k, v in table.items() if k != key}


# each edit takes the field and the two frozen records and returns edited copies
MONOIDAL_EDITS = {
    "dropped tensor entry": lambda f, c, m: (
        replace(c, tensor_obj=_without(c.tensor_obj, ("e", "g"))), m),
    "tensor entry naming zz": lambda f, c, m: (
        replace(c, tensor_obj=c.tensor_obj | {("g", "g"): "zz"}), m),
    "unknown unit": lambda f, c, m: (replace(c, unit="zz"), m),
    "dropped xi": lambda f, c, m: (c, replace(m, xi=_without(m.xi, ("e", "g")))),
    "2x1 xi": lambda f, c, m: (c, replace(m, xi=m.xi | {
        ("e", "g"): LinearMap(f, K, Space.std(2), ((f.one(),), (f.zero(),)))})),
    "zero xi": lambda f, c, m: (c, replace(m, xi=m.xi | {("e", "g"): _zero(f)})),
    "zero xi_unit": lambda f, c, m: (c, replace(m, xi_unit=_zero(f))),
    "dual naming zz": lambda f, c, m: (replace(c, duals=c.duals | {"g": "zz"}), m),
    "zero dual identification": lambda f, c, m: (
        c, replace(m, dual_maps=m.dual_maps | {"g": _zero(f)})),
}
FIELDS = [QQ, PrimeField(7)]


@pytest.mark.parametrize("f", FIELDS, ids=["q", "fp7"])
def test_unedited_tables_are_accepted(f):
    h, seeds, F = z2_tables(f)
    assert check_monoidal(F).ok
    antipode_from_monoidal(coend_of_functor(F), F.source.monoidal, F.monoidal)
    res, _ = reconstruct_bialgebra(h, seeds, F.source.monoidal, F.monoidal)
    assert res.iso


@pytest.mark.parametrize("edit", list(MONOIDAL_EDITS))
@pytest.mark.parametrize("f", FIELDS, ids=["q", "fp7"])
def test_every_monoidal_constructor_refuses_in_check_monoidal_words(f, edit):
    h, seeds, F = z2_tables(f)
    built = coend_of_functor(F)
    bialgebra_from_monoidal(built, F.source.monoidal, F.monoidal)
    cat_mon, fun_mon = MONOIDAL_EDITS[edit](f, F.source.monoidal, F.monoidal)
    F.source.monoidal, F.monoidal = cat_mon, fun_mon
    problems = check_monoidal(F).problems
    assert len(problems) == 1
    refusal = "functor is not monoidal: " + problems[0]
    # antipode_from_monoidal reads its multiplication from
    # bialgebra_from_monoidal, which checks the tables on its behalf, also on
    # a coend that had a bialgebra built on it before
    for construct, r in [(bialgebra_from_monoidal, coend_of_functor(F)),
                         (antipode_from_monoidal, coend_of_functor(F)),
                         (antipode_from_monoidal, built)]:
        with pytest.raises(WellDefinednessFailure) as exc:
            construct(r, cat_mon, fun_mon)
        assert str(exc.value) == refusal
    with pytest.raises(WellDefinednessFailure) as exc:
        reconstruct_bialgebra(h, seeds, cat_mon, fun_mon)
    assert str(exc.value) == problems[0]


def test_hopf_checks_the_tables_once_per_constructor_chain(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    original = fincat.monoidal_table_problems
    monkeypatch.setattr(fincat, "monoidal_table_problems", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["hopf", str(ROOT / "specs" / "z3_grading.json"), "--functor", "F"])
    assert code == 0
    # once in check_monoidal; bialgebra_from_monoidal, on the antipode's
    # behalf, reads the verdict kept on the functor's record
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# control tables
# ---------------------------------------------------------------------------

# (edits to discrete_points.json's merge01 as (table, object, value or None
# to delete), the problem the CLI prints)
CONTROL_FAULTS = {
    "no action at p0": ([("action", "p0", None)],
                        "control 'merge01' has no action on 'p0'"),
    "action into zz": ([("action", "p0", "zz")],
                       "control 'merge01': action sends 'p0' to unknown object 'zz'"),
    "action into a list": ([("action", "p0", ["x"])],
                           "control 'merge01': action sends 'p0' to unknown object ['x']"),
    "no xi at p1": ([("xi", "p1", None)],
                    "control 'merge01' has no structure isomorphism at 'p1'"),
    "2x1 xi": ([("xi", "p1", [["1"], ["0"]])],
               "control 'merge01' xi at 'p1': matrix is 2x1, expected 1x1"),
    "zero xi": ([("xi", "p1", [["0"]])],
                "control 'merge01': xi at 'p1' is not an isomorphism"),
    # the first object's fault is named first, as each object is parsed in turn
    "no action at p0 and 1x2 rows at p1": (
        [("action", "p0", None), ("xi", "p1", [["1", "0"]])],
        "control 'merge01' has no action on 'p0'"),
}
# a library caller has no rows to parse, so a shape fault is named by c_coend
LIBRARY_WORDS = {"2x1 xi": "control 'merge01': xi at 'p1' has wrong shape"}


def _apply(tables, edits):
    for table, obj, value in edits:
        if value is None:
            del tables[table][obj]
        else:
            tables[table][obj] = value


@pytest.mark.parametrize("fault", list(CONTROL_FAULTS))
def test_ccoend_names_each_control_fault(fault, tmp_path):
    edits, problem = CONTROL_FAULTS[fault]
    spec = json.loads((ROOT / "specs" / "discrete_points.json").read_text())
    _apply(spec["controls"]["merge01"], edits)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["ccoend", str(path), "--functor", "F", "--controls", "merge01"])
    assert code == 2
    assert json.loads(buf.getvalue()) == {"ok": False, "problems": [problem]}


@pytest.mark.parametrize("fault", list(CONTROL_FAULTS))
def test_c_coend_names_each_control_fault(fault):
    edits, problem = CONTROL_FAULTS[fault]
    objects = ["p0", "p1", "p2"]
    F = DiagramFunctor(FinCategory(objects, []), QQ, {x: K for x in objects}, {})
    tables = {"action": {"p0": "p1", "p1": "p0", "p2": "p2"},
              "xi": {x: [["1"]] for x in objects}}
    _apply(tables, edits)
    xi = {x: LinearMap(QQ, Space.std(len(rows[0])), Space.std(len(rows)),
                       [[QQ.parse(s) for s in row] for row in rows])
          for x, rows in tables["xi"].items()}
    with pytest.raises(MissingControlData) as exc:
        c_coend(F, [ControlData("merge01", K, tables["action"], xi)])
    assert str(exc.value) == LIBRARY_WORDS.get(fault, problem)


# ---------------------------------------------------------------------------
# one home per rule
# ---------------------------------------------------------------------------

RULE_HOMES = {
    "fincat.py": ["missing xi at", "xi_unit is not an isomorphism", "dual identification at",
                  "names unknown object"],
    "coend.py": ["action sends", "has no structure isomorphism"],
}


@pytest.mark.parametrize("home", list(RULE_HOMES))
def test_each_table_rule_is_written_in_one_module(home):
    sources = {p.name: p.read_text() for p in (ROOT / "src" / "coendforge").glob("*.py")}
    for rule in RULE_HOMES[home]:
        assert [name for name, text in sources.items() if rule in text] == [home], rule
