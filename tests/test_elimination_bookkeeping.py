"""The elimination keeps its contract without its bookkeeping, and a coend
with no relations composes nothing.

``exactlinalg._rref`` finds each pivot in one scan and copies a row only
when it first writes it.  Against ``references.reference_rref`` it must
return the same rows, pivots and key order, on drawn systems and on the
systems a comatrix reconstruction solves, and it must never write the rows
it is given.  ``cokernel`` flags the identities it returns when there are no
relations, and ``coend._descend`` then hands the target back without a
composition."""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coendforge import coend, exactlinalg
from coendforge.cli import main
from coendforge.coend import coend_of_diagram, epi_to_c_coend
from coendforge.exactlinalg import (
    QQ,
    LinearMap,
    PadicRationals,
    PrimeField,
    ScalarError,
    Space,
    _is_identity,
    cokernel,
    identity,
)
from coendforge.fincat import Diagram, DiagramMorphism
from coendforge.reconstruct import reconstruct_coalgebra
from references import reference_rref
from test_sparse_core import DENSE_ARROW, ROOT

FIELDS = [QQ, PrimeField(7), PadicRationals(3)]


def comatrix_input(monkeypatch, field, d):
    """comatrix(d) and its seed-0 monomial comodule, as the benchmark's
    reconstruct_ladder builds them."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads
    pkg = SimpleNamespace(**{m: importlib.import_module(f"coendforge.{m}")
                             for m in ("cohom", "exactlinalg")})
    return workloads.comatrix_input(pkg, field, d, random.Random(0))


def snapshot(rows):
    return [list(r.items()) for r in rows]


def assert_same_elimination(f, rows):
    before = snapshot(rows)
    got = exactlinalg._rref(f, rows)
    assert snapshot(rows) == before
    ref = reference_rref(f, rows)
    # repr compares the pivots, the values, their types and every row's
    # key order
    assert repr(got) == repr(ref)


# ---------------------------------------------------------------------------
# parity with the reference elimination
# ---------------------------------------------------------------------------

@st.composite
def elimination_systems(draw):
    """A field and sparse rows in up to 6 columns: drawn rows (many entries
    one, so pivots are often already one, and 3 in some denominators), then
    duplicated, negated and summed rows (fill-in that cancels), a batch of
    single-entry rows in one column (the hom-solve shape) and empty rows,
    all interleaved, each row's keys in a drawn order."""
    f = draw(st.sampled_from(FIELDS))
    ncols = draw(st.integers(0, 6))
    scalar = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), st.just(Fraction(1)),
                       st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 3])))

    def row():
        vals = [f.parse(str(draw(scalar))) for _ in range(ncols)]
        return {j: a for j, a in enumerate(vals) if not f.is_zero(a)}

    rows = [row() for _ in range(draw(st.integers(0, 6)))]
    for _ in range(draw(st.integers(0, 4)) if rows else 0):
        a = rows[draw(st.integers(0, len(rows) - 1))]
        b = rows[draw(st.integers(0, len(rows) - 1))]
        kind = draw(st.sampled_from(["repeat", "negate", "sum"]))
        if kind == "repeat":
            new = dict(a)
        elif kind == "negate":
            new = {k: f.neg(v) for k, v in a.items()}
        else:
            new = dict(a)
            for k, v in b.items():
                exactlinalg._add_into(new, k, v, f)
        rows.insert(draw(st.integers(0, len(rows))), new)
    if ncols:
        j = draw(st.integers(0, ncols - 1))
        for _ in range(draw(st.integers(0, 6))):
            v = f.parse(draw(st.sampled_from(["1", "1", "-1", "3", "1/3", "-2"])))
            rows.insert(draw(st.integers(0, len(rows))), {j: v})
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), {})
    return f, [dict((k, r[k]) for k in draw(st.permutations(list(r)))) for r in rows]


@settings(max_examples=400)
@given(elimination_systems())
def test_rref_matches_the_reference_row_for_row_and_key_for_key(system):
    f, rows = system
    assert_same_elimination(f, rows)


def test_rref_parity_on_the_hand_made_shapes():
    one_col = [{0: 2}, {}, {0: 3}, {0: 1, 2: 5}, {0: -2}, {}, {0: 7, 1: 1}]
    cancelling = [{1: 1, 2: 1}, {0: 1, 1: 1}, {0: 1, 2: -1}, {2: 1, 1: 1}]
    for f in FIELDS:
        for rows in (one_col, cancelling, [{}, {1: 1, 2: 1}, {2: 1, 1: 1}, {0: 1}],
                     [{0: 1, 1: 2}] * 3, [{0: 1, 1: 2}, {0: -1, 1: -2}, {1: 1}]):
            assert_same_elimination(f, [{k: f.from_int(v) for k, v in r.items()} for r in rows])


@pytest.mark.parametrize("desc", ["q", "fp:7"])
def test_rref_parity_on_the_systems_of_a_comatrix_reconstruction(monkeypatch, desc):
    # every elimination of reconstruct_coalgebra on comatrix(d), d = 2..7:
    # the hom solve and the rank of h (the coend has no relations, so its
    # cokernel eliminates nothing)
    f = exactlinalg.field_from_descriptor(desc)
    captured = []
    real = exactlinalg._rref

    def recording(field, rows):
        captured.append((field, [dict(r) for r in rows]))
        return real(field, rows)

    monkeypatch.setattr(exactlinalg, "_rref", recording)
    for d in range(2, 8):
        coalgebra, comodule = comatrix_input(monkeypatch, f, d)
        assert reconstruct_coalgebra(coalgebra, {"std": comodule}).verdict == "Isomorphism"
    monkeypatch.setattr(exactlinalg, "_rref", real)
    assert len(captured) >= 2 * 6
    # the hom solve of comatrix(7) has 168 equations
    assert max(len(rows) for _, rows in captured) >= 168
    for field, rows in captured:
        assert_same_elimination(field, rows)


# ---------------------------------------------------------------------------
# no caller's rows are written
# ---------------------------------------------------------------------------

def test_rref_never_writes_the_rows_it_is_given(monkeypatch, tmp_path):
    # over the 22 corpus commands, a comatrix(5) reconstruction over F_7 and
    # a certified K^2 -> K^2 bcoend over padic:3: every input row keeps its
    # values and its key order through every elimination in the package
    real = exactlinalg._rref
    written, calls = [], []

    def guarded(f, rows):
        before = snapshot(rows)
        out = real(f, rows)
        caller = sys._getframe(1).f_code.co_name
        calls.append(caller)
        if snapshot(rows) != before:
            written.append(caller)
        return out

    for name, mod in list(sys.modules.items()):
        if (name == "coendforge" or name.startswith("coendforge.")) and (
                getattr(mod, "_rref", None) is real):
            monkeypatch.setattr(mod, "_rref", guarded)
    coalgebra, comodule = comatrix_input(monkeypatch, PrimeField(7), 5)
    arrow = tmp_path / "arrow.json"
    arrow.write_text(json.dumps(DENSE_ARROW))
    corpus = json.loads((ROOT / "perfbench" / "corpus_expected.json").read_text())
    assert reconstruct_coalgebra(coalgebra, {"std": comodule}).verdict == "Isomorphism"
    runs = [[e["args"][0], str(ROOT / "specs" / f"{e['spec']}.json"), *e["args"][1:]]
            for e in corpus] + [["bcoend", str(arrow), "--functor", "F"]]
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
    # a relation-free cokernel eliminates nothing, so only the coends with
    # relations reach _rref through cokernel
    assert len(runs) == 23 and len(calls) > 30
    assert set(calls) >= {"_check_certificate", "_null_space", "cokernel", "rank"}
    assert written == []


# ---------------------------------------------------------------------------
# a relation-free coend composes nothing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("f", FIELDS)
@pytest.mark.parametrize("k", [0, 2])
def test_cokernel_flags_its_identities_exactly_when_there_are_no_relations(f, k):
    n = 3
    zero = LinearMap.from_sparse(f, Space.std(k, prefix="r"), Space.std(n), [{}] * k)
    pi, s = cokernel(zero)
    assert pi._ident is True and s._ident is True
    assert pi.cols == s.cols == [{j: 1} for j in range(n)]
    rel = LinearMap.from_sparse(f, Space.std(1, prefix="r"), Space.std(n), [{0: 1, 2: 1}])
    pi, s = cokernel(rel)
    assert pi._ident is None and s._ident is None
    assert not _is_identity(pi) and not _is_identity(s)


def test_relation_free_reconstruction_composes_nothing_in_its_descents(monkeypatch):
    # comatrix(7) with the benchmark's seed-0 comodule: one seed whose hom
    # space is spanned by its identity, so the coend has no relations and
    # each of the three descents (Delta_Q, eps_Q and h) is its target read
    # on the quotient
    coalgebra, comodule = comatrix_input(monkeypatch, QQ, 7)
    inside, made, descents = [False], [], []
    descend, matmul, compose_kron = coend._descend, LinearMap.__matmul__, coend.compose_kron

    def counted_descend(*args, **kwargs):
        inside[0] = True
        try:
            return descend(*args, **kwargs)
        finally:
            inside[0] = False
            descents.append(1)

    def counted_matmul(self, other):
        if inside[0]:
            made.append("@")
        return matmul(self, other)

    def counted_compose_kron(*args):
        if inside[0]:
            made.append("compose_kron")
        return compose_kron(*args)

    monkeypatch.setattr(coend, "_descend", counted_descend)
    monkeypatch.setattr(coend, "compose_kron", counted_compose_kron)
    monkeypatch.setattr(LinearMap, "__matmul__", counted_matmul)
    res = reconstruct_coalgebra(coalgebra, {"std": comodule})
    assert res.verdict == "Isomorphism"
    assert res.coend.pi.dom.dim == res.coend.pi.cod.dim == 49
    assert len(descents) == 3 and made == []


@pytest.mark.parametrize("relations", [False, True])
def test_a_descent_across_fields_is_refused_with_or_without_relations(relations):
    # the relation-free descent composes nothing, yet refuses a target over
    # another field as the composition did
    spaces = {"a": Space.std(2), "b": Space.std(2)}
    moves = [DiagramMorphism("f", "a", "b", identity(Space.std(2), QQ))] if relations else []
    r = coend_of_diagram(Diagram(QQ, ["a", "b"], spaces, moves))
    f7 = PrimeField(7)
    moves7 = [DiagramMorphism("f", "a", "b", identity(Space.std(2), f7))] if relations else []
    r7 = coend_of_diagram(Diagram(f7, ["a", "b"], spaces, moves7))
    assert (r.pi.cod.dim < r.pi.dom.dim) is relations
    with pytest.raises(ScalarError, match="composing maps over different fields"):
        epi_to_c_coend(r, r7)
