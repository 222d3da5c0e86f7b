"""The CLI boundary: one JSON writer equal to ``json.dumps(indent=2,
sort_keys=True)`` with every LinearMap leaf written as its wire format
(``references.format_matrix``), one argument parser per process, spec files
parsed once per distinct scalar string, matrices written straight from
their sparse columns with one format per distinct scalar, and a morphism
tensor entry naming an unknown morphism reported by name, once, under its
category."""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coendforge import cli
from coendforge.cli import _json_text, main
from coendforge.exactlinalg import (
    QQ,
    LinearMap,
    PadicRationals,
    PrimeField,
    Space,
)
from coendforge.fincat import CategoryMonoidalData, FinCategory, validate_category
from coendforge.specfile import load_spec
from references import format_matrix

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "specs"
SRC = ROOT / "src"


def run_fresh(args):
    """One CLI command in a new interpreter running this checkout's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "coendforge", *args],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout


def run_in_process(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def write_spec(tmp_path, name, data):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# the JSON writer
# ---------------------------------------------------------------------------

AWKWARD = "\"\\/\x00\x01\x1f\x7f\n\r\t\b\f é☃€😀  𐏿"
strings = st.text(st.one_of(st.sampled_from(AWKWARD), st.characters()), max_size=12)
scalars = st.one_of(
    strings,
    st.integers(-10, 10),
    st.integers(),
    st.integers(-(10 ** 40), 10 ** 40),
    st.booleans(),
    st.none(),
    st.floats(),
)
trees = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(strings, max_size=4),
        st.dictionaries(strings, children, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=400)
@given(trees)
def test_writer_matches_json_dumps_with_indent(tree):
    assert _json_text(tree) == json.dumps(tree, indent=2, sort_keys=True)


FIELDS = [QQ, PrimeField(7), PadicRationals(3)]


@st.composite
def sparse_maps(draw, f):
    """A map over f with up to 4 rows and columns, possibly none, whose
    nonzero values repeat; over Q an integral value is stored as an int or
    as the equal Fraction, and over F_7 a value may be stored unreduced."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    pool = [f.parse(s) for s in ("1", "-1", "2", "-3/2", "1/3")]
    if f.kind == "fp":
        pool += [8, 13]
    else:
        pool += [Fraction(1), Fraction(2), Fraction(-1)]
    columns = [{i: draw(st.sampled_from(pool))
                for i in draw(st.sets(st.integers(0, rows - 1), max_size=rows))}
               if rows else {} for _ in range(cols)]
    return LinearMap.from_sparse(f, Space.std(cols), Space.std(rows), columns)


def nested(leaf, depth):
    """Lists and dicts nested depth deep over leaf and string leaves."""
    if depth == 0:
        return leaf
    child = st.one_of(leaf, strings, nested(leaf, depth - 1))
    return st.one_of(st.lists(child, max_size=3),
                     st.dictionaries(strings, child, max_size=3))


def formatted(tree):
    """tree with every map replaced by its wire format."""
    if isinstance(tree, LinearMap):
        return format_matrix(tree)
    if isinstance(tree, dict):
        return {k: formatted(v) for k, v in tree.items()}
    if isinstance(tree, list):
        return [formatted(v) for v in tree]
    return tree


def zero_map(rows, cols):
    return LinearMap.from_sparse(QQ, Space.std(cols), Space.std(rows), [{} for _ in range(cols)])


@pytest.mark.parametrize("tree", [
    {}, [], (), "", {"": {}}, {"a": [], "b": ()}, [[[]]], [{}, {"k": {}}],
    [["0", "-1/2"], ["3", "0"]], {"z": 1, "a": [True, None, -0.0, 1e300]},
    [float("inf"), float("-inf"), float("nan"), -(2 ** 100)],
    zero_map(0, 0), {"m": zero_map(0, 3), "l": [zero_map(3, 0), {"k": zero_map(2, 2)}]},
], ids=repr)
def test_writer_matches_json_dumps_on_edge_trees(tree):
    assert _json_text(tree) == json.dumps(formatted(tree), indent=2, sort_keys=True)


@settings(max_examples=300)
@given(st.sampled_from(FIELDS), st.integers(0, 3), st.data())
def test_writer_writes_a_map_as_json_dumps_writes_its_wire_format(f, depth, data):
    tree = data.draw(nested(sparse_maps(f), depth))
    assert _json_text(tree) == json.dumps(formatted(tree), indent=2, sort_keys=True)


@pytest.mark.parametrize("desc", ["q", "fp:7"])
def test_hopf_formats_each_distinct_scalar_once_per_matrix(monkeypatch, tmp_path, desc):
    # each matrix of the payload formats its zero once and each distinct
    # nonzero value once, however often they occur in it
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    path = write_spec(tmp_path, "z16", workloads.zn_grading_spec(desc, 16, random.Random(1)))
    field_type = type(QQ) if desc == "q" else PrimeField
    real_fmt, real_emit = field_type.fmt, cli._emit
    calls, payloads = [], []

    def counting(self, a):
        calls.append(a)
        return real_fmt(self, a)

    def emit(payload, out_path=None):
        payloads.append(payload)
        return real_emit(payload, out_path)

    monkeypatch.setattr(field_type, "fmt", counting)
    monkeypatch.setattr(cli, "_emit", emit)
    assert run_in_process(["hopf", path, "--functor", "F"])[0] == 0 and len(payloads) == 1

    def maps(tree):
        if isinstance(tree, LinearMap):
            yield tree
        elif isinstance(tree, dict):
            for v in tree.values():
                yield from maps(v)

    expected = Counter()
    found = list(maps(payloads[0]))
    for m in found:
        expected.update({0: 1, **{a: 1 for col in m.cols for a in col.values()}})
    assert len(found) == 2 * 16 + 7  # injections, delta and seven structure maps
    assert Counter(calls) == expected
    assert len(calls) == sum(expected.values())


def test_src_never_defines_or_calls_format_matrix():
    # the writer prints maps itself; the entrywise wire format is a test reference
    offenders = []
    for path in sorted((SRC / "coendforge").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (getattr(node, "id", None) or getattr(node, "attr", None)
                    or getattr(node, "name", None))
            if name == "format_matrix":
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_src_never_calls_json_dumps_with_indent():
    # the writer is the one path from a payload to indented JSON text
    offenders = []
    for path in sorted((SRC / "coendforge").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in ("dumps", "dump") and any(k.arg == "indent" for k in node.keywords):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

def test_parser_is_built_once_and_not_at_import():
    code = ("from coendforge import cli; n = cli.build_parser.cache_info().currsize; "
            "p = cli.build_parser(); print(n, p is cli.build_parser())")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.stdout.split() == ["0", "True"]


def test_a_rejected_command_leaves_the_next_one_byte_identical(capsys):
    spec = str(SPECS / "z2_grading.json")
    with pytest.raises(SystemExit) as exc:
        main(["nosuchcommand", spec])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["hopf", spec, "--nosuchflag", "x"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    args = ["hopf", spec, "--functor", "F"]
    assert run_in_process(args) == run_fresh(args)


def test_the_out_file_holds_what_stdout_would(tmp_path):
    args = ["bcoend", str(SPECS / "glued_pair.json"), "--functor", "F", "--field", "padic:2"]
    target = tmp_path / "out.json"
    code, out = run_in_process(args)
    assert main([*args, "--out", str(target)]) == code == 0
    assert target.read_text(encoding="utf-8") == out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# matrices at the boundary
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field, row, problem", [
    ("q", ["1/0", "1/0"], "comodule 'V' rho: cannot parse scalar '1/0': Fraction(1, 0)"),
    ("fp:7", ["1/7", "1/7"], "comodule 'V' rho: '1/7' has denominator divisible by 7"),
])
@pytest.mark.parametrize("command", ["validate", "coend"])
def test_a_repeated_bad_scalar_is_refused_as_before(tmp_path, field, row, problem, command):
    data = json.loads((SPECS / "one_object_k2.json").read_text(encoding="utf-8"))
    data["field"] = field
    data["comodules"]["V"]["rho"][2] = row
    data["comodules"]["V"]["rho"][5] = list(row)
    code, out = run_in_process([command, write_spec(tmp_path, "bad", data), "--functor", "F"])
    assert code == 2
    assert json.loads(out) == {"ok": False, "problems": [problem]}


entries = st.one_of(
    st.sampled_from(["0", "1", "-1", "0/5", "-0", "2/4", "-3/2", "-1/9", "7", "14/3", 1, -2]),
    st.fractions(max_denominator=12).map(str),
)


@given(st.sampled_from(FIELDS), st.integers(0, 4), st.integers(0, 4), st.data())
def test_parse_and_format_agree_with_the_entrywise_definitions(f, rows, cols, data):
    if f.kind == "fp":
        scalars = entries.filter(lambda s: Fraction(str(s)).denominator % 7)
    else:
        scalars = entries
    grid = data.draw(st.lists(st.lists(scalars, min_size=cols, max_size=cols),
                              min_size=rows, max_size=rows))
    dom, cod = Space.std(cols), Space.std(rows)
    values = [[f.parse(str(a)) for a in row] for row in grid]
    dense = LinearMap(f, dom, cod, values)
    sparse = LinearMap.from_sparse(
        f, dom, cod,
        [{i: values[i][j] for i in range(rows) if not f.is_zero(values[i][j])}
         for j in range(cols)])
    assert dense == sparse
    expected = [[f.fmt(a) for a in row] for row in values]
    assert format_matrix(dense) == format_matrix(sparse) == expected


# ---------------------------------------------------------------------------
# morphism tensor entries naming unknown morphisms
# ---------------------------------------------------------------------------

UNKNOWN_MORPHISM = "morphism tensor (zz, zz) names unknown morphism 'zz'"


@pytest.mark.parametrize("command", ["validate", "hopf"])
def test_unknown_morphism_in_tensor_table_is_named_by_the_cli(tmp_path, command):
    data = json.loads((SPECS / "z2_grading.json").read_text(encoding="utf-8"))
    data["categories"]["Z2"]["monoidal"]["tensor_morphisms"] = [["zz", "zz", "zz"]]
    code, out = run_in_process([command, write_spec(tmp_path, "z2", data), "--functor", "F"])
    assert code == 2
    assert json.loads(out) == {"ok": False, "problems": [f"category Z2: {UNKNOWN_MORPHISM}"]}


@pytest.mark.parametrize("entry, problem", [
    (("zz", "zz", "zz"), UNKNOWN_MORPHISM),
    (("zz", "id:a", "id:a"), "morphism tensor (zz, id:a) names unknown morphism 'zz'"),
    (("id:a", "zz", "id:a"), "morphism tensor (id:a, zz) names unknown morphism 'zz'"),
    (("id:a", "id:a", "zz"), "morphism tensor (id:a, id:a) names unknown morphism 'zz'"),
])
def test_validate_category_names_an_unknown_morphism_in_the_tensor_table(entry, problem):
    f, g, h = entry
    mon = CategoryMonoidalData("a", {("a", "a"): "a"}, {(f, g): h})
    rep = validate_category(FinCategory(["a"], [], monoidal=mon))
    assert rep.problems == [problem]


def test_known_morphisms_in_the_tensor_table_still_validate():
    mon = CategoryMonoidalData("a", {("a", "a"): "a"}, {("id:a", "id:a"): "id:a"})
    assert validate_category(FinCategory(["a"], [], monoidal=mon)).ok


@pytest.mark.parametrize("name", sorted(p.name for p in SPECS.glob("*.json")))
def test_load_spec_parses_each_distinct_string_once_per_file(monkeypatch, name):
    calls = []
    real = type(QQ).parse

    def counting(self, s):
        calls.append(s)
        return real(self, s)

    monkeypatch.setattr(type(QQ), "parse", counting)
    load_spec(str(SPECS / name), "q")
    assert len(calls) == len(set(calls))
