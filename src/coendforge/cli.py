"""Batch front end: parse a JSON spec file, run one computation, emit JSON.

Exit codes: 0 on success, 2 on validation failure (parse errors, unresolved
names, broken axioms in the input), 3 on a computation-level verdict failure
(a reconstruction that is NotGenerated, a failed equivalence check).
Output is deterministic: identical input bytes yield identical output bytes.

Validation boundary: every command but ``validate`` first runs
``_validate_spec`` on the whole file and then trusts it; induced structures
are checked once, by the ``coend`` constructor that builds them.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .cohom import AxiomError
from .coend import (
    MissingControlData,
    MissingDual,
    NaturalityFailure,
    WellDefinednessFailure,
    antipode_from_monoidal,
    bialgebra_from_monoidal,
    c_coend,
    coend_of_functor,
    epi_to_c_coend,
    factor_through_coend,
    unit_control,
    verify_cowedge,
)
from .cohom import cohom as cohom_op
from .exactlinalg import LinearMap, ScalarError
from .fincat import check_monoidal, diagram_of_functor, validate_category, validate_functor
from .padic_banach import PrimeMismatch, bounded_coend
from .reconstruct import equivalence_check, reconstruct_coalgebra
from .specfile import SpecError, _named, load_spec, resolve_control

VALIDATION_ERRORS = (
    SpecError,
    ScalarError,
    AxiomError,
    WellDefinednessFailure,
    NaturalityFailure,
    MissingControlData,
    MissingDual,
    PrimeMismatch,
    ValueError,
    KeyError,
)


_quote = json.encoder.encode_basestring_ascii


def _json_text(v, indent="\n") -> str:
    """v as ``json.dumps(v, indent=2, sort_keys=True)`` writes it, byte for
    byte, for a JSON tree with string keys whose leaves may also be
    LinearMaps; a LinearMap is written as its wire format, the row-major
    list of rows of exact-scalar strings.  With ``indent`` set,
    ``json.dumps`` runs CPython's pure-Python encoder; this writer quotes
    each string with the C escaper and joins a row of strings at once: the
    escaper refuses a non-string with TypeError, and the row is then written
    item by item."""
    if isinstance(v, str):
        return _quote(v)
    inner = indent + "  "
    if isinstance(v, dict):
        if not v:
            return "{}"
        items = (_quote(k) + ": " + _json_text(v[k], inner) for k in sorted(v))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(v, LinearMap):
        return _matrix_text(v, indent)
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        sep = "," + inner
        try:
            body = sep.join(map(_quote, v))
        except TypeError:
            body = sep.join(_json_text(a, inner) for a in v)
        return "[" + inner + body + indent + "]"
    return json.dumps(v)


def _matrix_text(m: LinearMap, indent: str) -> str:
    """The wire format of m as ``_json_text`` writes it at indent, read off
    the sparse columns: the zero and each distinct nonzero value are
    formatted and quoted once (equal values print the same), and the text
    of an all-zero row is built once."""
    if not m.cod.dim:
        return "[]"
    f, n = m.field, m.dom.dim
    inner = indent + "  "
    cell = inner + "  "
    sep = "," + cell
    zero = _quote(f.fmt(f.zero()))
    quoted = {}
    rows = [None] * m.cod.dim
    for j, col in enumerate(m.cols):
        for i, a in col.items():
            q = quoted.get(a)
            if q is None:
                q = quoted[a] = _quote(f.fmt(a))
            row = rows[i]
            if row is None:
                row = rows[i] = [zero] * n
            row[j] = q
    zero_row = "[" + cell + sep.join([zero] * n) + inner + "]" if n else "[]"
    body = ("," + inner).join(
        zero_row if row is None else "[" + cell + sep.join(row) + inner + "]" for row in rows)
    return "[" + inner + body + indent + "]"


def _emit(payload, out_path=None) -> None:
    text = _json_text(payload) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _validate_spec(spec):
    problems = []
    cat_reports = {}
    for name, cat in spec.categories.items():
        rep = cat_reports[id(cat)] = validate_category(cat)
        problems.extend(f"category {name}: {p}" for p in rep.problems)
    for name, F in spec.functors.items():
        rep = validate_functor(F)
        # check_monoidal trusts its source category, validated above; the
        # faults of an invalid one are named once, under the category
        if rep.ok and F.monoidal is not None and cat_reports[id(F.source)].ok:
            rep = check_monoidal(F)
        problems.extend(f"functor {name}: {p}" for p in rep.problems)
    for name, c in spec.coalgebras.items():
        problems.extend(f"coalgebra {name}: {p}" for p in c.check())
    for name, com in spec.comodules.items():
        problems.extend(f"comodule {name}: {p}" for p in com.check())
    return problems


def _require_functor(spec, name):
    if name is None:
        raise SpecError("this command needs --functor")
    return _named(spec.functors, name, "unknown functor")


def _coend_payload(r):
    # each universal comodule is refused for the same reason: the family's naturality
    refusal = ["; ".join(r.naturality_problems)] if r.naturality_problems else []
    return {
        "carrier_dim": r.carrier.dim,
        "objects": list(r.diagram.objects),
        "pi": r.pi,
        "section": r.section,
        "injections": r.injections,
        "comultiplication": r.coalgebra.delta,
        "counit": r.coalgebra.counit,
        "delta": r.delta,
        "verification": {
            "cowedge": verify_cowedge(r),
            # the constructors raise unless these laws hold
            "coalgebra": [],
            "comodules": {x: refusal for x in r.diagram.objects},
        },
    }


def cmd_validate(spec, args):
    problems = _validate_spec(spec)
    _emit({"ok": not problems, "problems": problems}, args.out)
    return 0 if not problems else 2


def cmd_cohom(spec, args):
    if args.x is None or args.y is None:
        raise SpecError("cohom needs --x and --y")
    x, y = (_named(spec.spaces, name, "unknown space") for name in (args.x, args.y))
    ch = cohom_op(x, y, spec.field)
    _emit(
        {
            "carrier_dim": ch.carrier.dim,
            "carrier_labels": list(ch.carrier.labels),
            "coev": ch.coev,
        },
        args.out,
    )
    return 0


def cmd_coend(spec, args):
    F = _require_functor(spec, args.functor)
    r = coend_of_functor(F)
    _emit(_coend_payload(r), args.out)
    return 0


def cmd_ccoend(spec, args):
    F = _require_functor(spec, args.functor)
    d = diagram_of_functor(F)
    controls = []
    for name in (args.controls.split(",") if args.controls else []):
        name = name.strip()
        if name == "unit":
            controls.append(unit_control(d))
        else:
            controls.append(resolve_control(spec, F, name))
    r_plain = coend_of_functor(F)
    r = c_coend(F, controls)
    h = epi_to_c_coend(r_plain, r)
    payload = _coend_payload(r)
    payload["controls"] = [c.name for c in controls]
    payload["plain_carrier_dim"] = r_plain.carrier.dim
    payload["epi_from_plain"] = h
    _emit(payload, args.out)
    return 0


def cmd_bialgebra(spec, args):
    F = _require_functor(spec, args.functor)
    r = coend_of_functor(F)
    b = bialgebra_from_monoidal(r, F.source.monoidal, F.monoidal)
    payload = _coend_payload(r)
    payload["multiplication"] = b.mult
    payload["unit"] = b.unit
    payload["verification"]["bialgebra"] = []
    _emit(payload, args.out)
    return 0


def cmd_hopf(spec, args):
    F = _require_functor(spec, args.functor)
    r = coend_of_functor(F)
    h = antipode_from_monoidal(r, F.source.monoidal, F.monoidal)
    payload = _coend_payload(r)
    payload["multiplication"] = h.mult
    payload["unit"] = h.unit
    payload["antipode"] = h.antipode
    payload["verification"]["hopf"] = []
    _emit(payload, args.out)
    return 0


def _named_comodules(spec, names, what, coalgebra):
    """The named comodules, each of which must be over the coalgebra named
    coalgebra."""
    out = {}
    for name in names:
        name = name.strip()
        com = spec.comodules.get(name)
        if com is None:
            raise SpecError(f"unknown comodule {name!r} in --{what}")
        if com.over is not spec.coalgebras[coalgebra]:
            over = next(k for k, c in spec.coalgebras.items() if c is com.over)
            raise SpecError(f"comodule {name!r} in --{what} is over coalgebra "
                            f"{over!r}, not {coalgebra!r}")
        out[name] = com
    return out


def _coalgebra_and_seeds(spec, args):
    """The coalgebra named by --coalgebra and the comodules named by --seeds."""
    if args.coalgebra is None or not args.seeds:
        raise SpecError(f"{args.command} needs --coalgebra and --seeds")
    c = _named(spec.coalgebras, args.coalgebra, "unknown coalgebra")
    return c, _named_comodules(spec, args.seeds.split(","), "seeds", args.coalgebra)


def cmd_reconstruct(spec, args):
    c, seeds = _coalgebra_and_seeds(spec, args)
    res = reconstruct_coalgebra(c, seeds)
    payload = {
        "verdict": res.verdict,
        "iso": res.iso,
        "generated": res.generated,
        "injective": res.injective,
        "carrier_dim": res.coend.carrier.dim,
        "base_dim": c.carrier.dim,
        "h": res.h,
        "problems": res.problems,
    }
    _emit(payload, args.out)
    return 0 if res.iso else 3


def cmd_equiv(spec, args):
    c, seeds = _coalgebra_and_seeds(spec, args)
    probes = _named_comodules(
        spec, args.probes.split(",") if args.probes else [], "probes", args.coalgebra
    )
    verdict = equivalence_check(c, seeds, probes)
    payload = {
        "ok": verdict.ok,
        "reconstruction": verdict.reconstruction.verdict,
        "probes": verdict.probe_status,
        "hom_dims_base": verdict.hom_dims_base,
        "hom_dims_coend": verdict.hom_dims_coend,
        "hom_tables_match": verdict.hom_tables_match,
        "problems": verdict.problems,
    }
    _emit(payload, args.out)
    return 0 if verdict.ok else 3


def cmd_bcoend(spec, args):
    F = _require_functor(spec, args.functor)
    b = bounded_coend(F)
    payload = _coend_payload(b.result)
    payload["norms"] = {
        "pi": b.pi_norm.to_json(),
        "injections": {x: n.to_json() for x, n in b.injection_norms.items()},
        "comultiplication": b.comultiplication_norm.to_json(),
        "counit": b.counit_norm.to_json(),
        "delta_bound": b.delta_bound.to_json(),
        "class_norms": [n.to_json() for n in b.class_norms],
        "carrier_weights": list(b.normed_carrier.weights),
    }
    payload["closure_is_identity"] = b.closure_is_identity
    _emit(payload, args.out)
    return 0


def cmd_factor(spec, args):
    if args.transformation is None:
        raise SpecError("factor needs --transformation")
    F, t, target = _named(spec.transformations, args.transformation,
                          "unknown transformation")
    if args.functor is not None and _require_functor(spec, args.functor) is not F:
        raise SpecError("--functor disagrees with the transformation's functor")
    r = coend_of_functor(F)
    psi = factor_through_coend(r, t, target)
    _emit(
        {
            "psi": psi,
            "carrier_dim": r.carrier.dim,
            "target_dim": target.dim,
        },
        args.out,
    )
    return 0


COMMANDS = {
    "validate": cmd_validate,
    "cohom": cmd_cohom,
    "coend": cmd_coend,
    "ccoend": cmd_ccoend,
    "bialgebra": cmd_bialgebra,
    "hopf": cmd_hopf,
    "reconstruct": cmd_reconstruct,
    "equiv": cmd_equiv,
    "bcoend": cmd_bcoend,
    "factor": cmd_factor,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    ``main`` call in the process."""
    parser = argparse.ArgumentParser(
        prog="coendforge",
        description="Exact cohom/coend computations and reconstruction checks "
                    "driven by JSON spec files.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("specfile", help="path to the JSON spec file")
    parser.add_argument("--functor", help="functor name for coend-family commands")
    parser.add_argument("--controls", help="comma-separated control names ('unit' is built in)")
    parser.add_argument("--seeds", help="comma-separated comodule names")
    parser.add_argument("--probes", help="comma-separated comodule names")
    parser.add_argument("--coalgebra", help="coalgebra name for reconstruction")
    parser.add_argument("--transformation", help="transformation name for 'factor'")
    parser.add_argument("--x", help="space name (cohom)")
    parser.add_argument("--y", help="space name (cohom)")
    parser.add_argument("--field", help="override the file's field: q | fp:<p> | padic:<p>")
    parser.add_argument("--out", help="write the JSON result to this path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            with open(args.specfile, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise SpecError(f"cannot read {args.specfile}: {exc}") from None
        spec = load_spec(text, field_override=args.field)
        if args.command != "validate":
            problems = _validate_spec(spec)
            if problems:
                _emit({"ok": False, "problems": problems}, args.out)
                return 2
        return COMMANDS[args.command](spec, args)
    except VALIDATION_ERRORS as exc:
        problems = getattr(exc, "problems", None) or [str(exc)]
        _emit({"ok": False, "problems": problems}, args.out)
        return 2


if __name__ == "__main__":
    sys.exit(main())
