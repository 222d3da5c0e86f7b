"""JSON spec files: the single input format of the command-line front end.

A spec file declares a scalar field and named spaces, categories, functors,
coalgebras (optionally with bialgebra/Hopf data), comodules, control objects
and transformations.  Matrices are row-major arrays of exact-scalar strings
("3/4", "-2"), so values survive a byte-for-byte round trip; every name is
resolved and every matrix shape checked before any computation runs, except
the xi of a control, whose shapes depend on the functor it is used with.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .coend import ControlData
from .cohom import Bialgebra, Coalgebra, Comodule, HopfAlgebra, unit_space
from .exactlinalg import (
    LinearMap,
    ScalarError,
    Space,
    dual_space,
    field_from_descriptor,
    tensor_space,
)
from .fincat import (
    CategoryMonoidalData,
    DiagramFunctor,
    FinCategory,
    FunctorMonoidalData,
    Transformation,
)


class SpecError(Exception):
    """Input-file problems: parse errors, unresolved names, bad shapes."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass
class ControlSpec:
    name: str
    space: Space
    action: dict[str, str]
    xi_rows: dict[str, list]  # raw rows; shapes depend on the chosen functor


@dataclass
class SpecData:
    field: object
    spaces: dict[str, Space] = field(default_factory=dict)
    categories: dict[str, FinCategory] = field(default_factory=dict)
    functors: dict[str, DiagramFunctor] = field(default_factory=dict)
    coalgebras: dict[str, Coalgebra] = field(default_factory=dict)
    comodules: dict[str, Comodule] = field(default_factory=dict)
    controls: dict[str, ControlSpec] = field(default_factory=dict)
    # name -> (functor, transformation, target space)
    transformations: dict[str, tuple[DiagramFunctor, Transformation, Space]] = field(
        default_factory=dict)
    # every scalar string read so far -> its value, so each is parsed once
    scalars: dict[str, object] = field(default_factory=dict)


def _expect(value, kind, what: str):
    """value, if it is a JSON object (kind dict) or array (kind list);
    otherwise SpecError naming what."""
    if not isinstance(value, kind):
        raise SpecError(f"{what} must be a JSON {'object' if kind is dict else 'array'}")
    return value


def _int(value, what: str) -> int:
    """value as an int; booleans and non-integral numbers are refused."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise SpecError(f"{what} must be an integer")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise SpecError(f"{what} must be an integer") from None


def _required(data: dict, key: str, what: str):
    """data[key]; SpecError naming what and the key when it is missing."""
    if key not in data:
        raise SpecError(f"{what}: missing {key!r}")
    return data[key]


def _named(table: dict, name, what: str):
    """table[name] for a name that is a string; otherwise SpecError, which
    reads what followed by the name given."""
    if not isinstance(name, str) or name not in table:
        raise SpecError(f"{what} {name!r}")
    return table[name]


def _names(entry, count: int) -> bool:
    """True when entry is a JSON array of count strings.  A plain loop: this
    runs on each of the n^2 monoidal table entries."""
    if not isinstance(entry, list) or len(entry) != count:
        return False
    for a in entry:
        if not isinstance(a, str):
            return False
    return True


class _MatrixFault(Exception):
    """What is wrong with a matrix, in words that do not name the matrix."""


def _matrix(spec: SpecData, rows, dom: Space, cod: Space) -> LinearMap:
    """rows as a map dom -> cod, parsed and stored as sparse columns in one
    pass over the entries.  Each distinct scalar string is parsed once into
    spec.scalars.  A faulty matrix raises _MatrixFault for the first of these
    that holds: rows is not a list of lists, its shape is wrong, a scalar
    does not parse (the first one in row-major order).  Plain loops: this
    runs on each of the n^2 xi matrices of a monoidal functor."""
    if not isinstance(rows, list):
        raise _MatrixFault("matrix must be a list of rows")
    f, memo, n = spec.field, spec.scalars, dom.dim
    shaped = len(rows) == cod.dim
    for r in rows:
        if not isinstance(r, list):
            raise _MatrixFault("matrix must be a list of rows")
        if len(r) != n:
            shaped = False
    if not shaped:
        got = f"{len(rows)}x{len(rows[0]) if rows else 0}"
        raise _MatrixFault(f"matrix is {got}, expected {cod.dim}x{n}")
    is_zero, parse = f.is_zero, f.parse
    cols = [{} for _ in range(n)]
    try:
        for i, row in enumerate(rows):
            for j, a in enumerate(row):
                s = str(a)
                v = memo.get(s)
                if v is None:
                    v = memo[s] = parse(s)
                if not is_zero(v):
                    cols[j][i] = v
    except ScalarError as exc:
        raise _MatrixFault(str(exc)) from None
    return LinearMap.from_sparse(f, dom, cod, cols)


def _parse_rows(spec: SpecData, rows, dom: Space, cod: Space, what: str) -> LinearMap:
    try:
        return _matrix(spec, rows, dom, cod)
    except _MatrixFault as exc:
        raise SpecError(f"{what}: {exc}") from None


def _space_from_json(name, data) -> Space:
    data = _expect(data, dict, f"space {name!r}")
    if "labels" in data:
        labels = tuple(str(a) for a in _expect(data["labels"], list, f"space {name!r}: 'labels'"))
        dim = len(labels)
    elif "dim" in data:
        dim = _int(data["dim"], f"space {name!r}: 'dim'")
        if dim < 0:
            raise SpecError(f"space {name!r}: 'dim' must be nonnegative")
        labels = None
    else:
        raise SpecError(f"space {name!r}: needs 'labels' or 'dim'")
    weights = data.get("weights")
    if weights is not None:
        if len(_expect(weights, list, f"space {name!r}: 'weights'")) != dim:
            raise SpecError(f"space {name!r}: weight count != dimension")
        weights = tuple(_int(w, f"space {name!r}: each weight") for w in weights)
    if labels is None:
        # the labels name.0, name.1, ... are built only if read
        return Space.std(dim, prefix=f"{name}.", weights=weights)
    try:
        return Space(labels, weights)
    except ValueError as exc:
        raise SpecError(f"space {name!r}: {exc}") from None


def _category_from_json(name, data) -> FinCategory:
    objects = _expect(data, dict, f"category {name!r}").get("objects")
    if not isinstance(objects, list) or not objects or not all(isinstance(o, str) for o in objects):
        raise SpecError(f"category {name!r}: needs nonempty 'objects', a list of names")
    morphisms = []
    for m in _expect(data.get("morphisms", []), list, f"category {name!r}: 'morphisms'"):
        m = _expect(m, dict, f"category {name!r}: each morphism")
        if not all(isinstance(m.get(k), str) for k in ("name", "dom", "cod")):
            raise SpecError(f"category {name!r}: a morphism needs string 'name', 'dom' and 'cod'")
        morphisms.append((m["name"], m["dom"], m["cod"]))
    composition = {}
    for entry in _expect(data.get("composition", []), list, f"category {name!r}: 'composition'"):
        if not _names(entry, 3):
            raise SpecError(f"category {name!r}: composition entries are [g, f, gof]")
        g, fm, h = entry
        composition[(g, fm)] = h
    monoidal = None
    mon = data.get("monoidal")
    if mon is not None:
        _expect(mon, dict, f"category {name!r}: 'monoidal'")
        what = f"category {name!r}: monoidal"
        tensor_obj = {}
        for entry in _expect(mon.get("tensor", []), list, f"{what} 'tensor'"):
            if not _names(entry, 3):
                raise SpecError(f"category {name!r}: tensor entries are [a, b, ab]")
            tensor_obj[(entry[0], entry[1])] = entry[2]
        tensor_mor = {}
        for entry in _expect(mon.get("tensor_morphisms", []), list, f"{what} 'tensor_morphisms'"):
            if not _names(entry, 3):
                raise SpecError(f"category {name!r}: tensor_morphisms entries are [f, g, fg]")
            tensor_mor[(entry[0], entry[1])] = entry[2]
        duals = mon.get("duals")
        if duals is not None and not all(
                isinstance(a, str) and isinstance(astar, str)
                for a, astar in _expect(duals, dict, f"{what} 'duals'").items()):
            raise SpecError(f"{what} 'duals' must map names to names")
        monoidal = CategoryMonoidalData(
            unit=mon.get("unit"),
            tensor_obj=tensor_obj,
            tensor_mor=tensor_mor,
            duals=duals,
        )
    try:
        return FinCategory(objects, morphisms, composition, monoidal)
    except (ValueError, KeyError) as exc:
        raise SpecError(f"category {name!r}: {exc}") from None


def _functor_from_json(spec: SpecData, name, data) -> DiagramFunctor:
    src_name = _expect(data, dict, f"functor {name!r}").get("source")
    cat = _named(spec.categories, src_name, f"functor {name!r}: unknown source category")
    ob = {}
    objects = _expect(data.get("objects", {}), dict, f"functor {name!r}: 'objects'")
    for obj, space_name in objects.items():
        if obj not in cat.objects:
            raise SpecError(f"functor {name!r}: {obj!r} is not an object of {src_name!r}")
        ob[obj] = _named(spec.spaces, space_name, f"functor {name!r}: unknown space")
    for obj in cat.objects:
        if obj not in ob:
            raise SpecError(f"functor {name!r}: no space assigned to {obj!r}")
    mor = {}
    morphisms = _expect(data.get("morphisms", {}), dict, f"functor {name!r}: 'morphisms'")
    for mname, rows in morphisms.items():
        if mname not in cat.morphisms or cat.is_identity(mname):
            raise SpecError(f"functor {name!r}: unknown morphism {mname!r}")
        m = cat.morphisms[mname]
        mor[mname] = _parse_rows(spec, rows, ob[m.dom], ob[m.cod],
                                 f"functor {name!r} at {mname!r}")
    for m in cat.non_identity():
        if m.name not in mor:
            raise SpecError(f"functor {name!r}: no matrix for morphism {m.name!r}")
    monoidal = None
    if "xi" in data or "xi_unit" in data:
        if cat.monoidal is None:
            raise SpecError(f"functor {name!r}: xi given but {src_name!r} is not monoidal")
        xi = {}
        pair_spaces = {}  # (space name, space name) -> their tensor space
        for entry in _expect(data.get("xi", []), list, f"functor {name!r}: 'xi'"):
            if not (isinstance(entry, list) and len(entry) == 3
                    and isinstance(entry[0], str) and isinstance(entry[1], str)):
                raise SpecError(f"functor {name!r}: xi entries are [a, b, matrix]")
            a, b, rows = entry
            ab = cat.monoidal.tensor_obj.get((a, b))
            if ab is None:
                raise SpecError(f"functor {name!r}: no tensor entry for ({a}, {b})")
            try:
                key = (objects[a], objects[b])
                dom = pair_spaces.get(key)
                if dom is None:
                    dom = pair_spaces[key] = tensor_space(ob[a], ob[b])
                xi[(a, b)] = _matrix(spec, rows, dom, ob[ab])
            except (KeyError, _MatrixFault) as exc:
                # the message is built only here: an unknown object is named
                # first, as _named finds it, else the matrix fault
                what = f"functor {name!r} xi at ({a}, {b})"
                for x in (a, b, ab):
                    _named(ob, x, f"{what}: unknown object")
                raise SpecError(f"{what}: {exc}") from None
        xi_unit_rows = data.get("xi_unit")
        if xi_unit_rows is None:
            raise SpecError(f"functor {name!r}: monoidal data needs 'xi_unit'")
        what = f"functor {name!r} xi_unit"
        xi_unit = _parse_rows(spec, xi_unit_rows, unit_space(),
                              _named(ob, cat.monoidal.unit, f"{what}: unknown object"), what)
        dual_maps = None
        if "dual_maps" in data:
            if cat.monoidal.duals is None:
                raise SpecError(
                    f"functor {name!r}: dual_maps given but category declares no duals"
                )
            dual_maps = {}
            for obj, rows in _expect(data["dual_maps"], dict,
                                     f"functor {name!r}: 'dual_maps'").items():
                star = cat.monoidal.duals.get(obj)
                if star is None:
                    raise SpecError(f"functor {name!r}: no dual declared for {obj!r}")
                what = f"functor {name!r} dual map at {obj!r}"
                fobj, fstar = (_named(ob, x, f"{what}: unknown object") for x in (obj, star))
                dual_maps[obj] = _parse_rows(spec, rows, fstar, dual_space(fobj), what)
        monoidal = FunctorMonoidalData(xi=xi, xi_unit=xi_unit, dual_maps=dual_maps)
    return DiagramFunctor(cat, spec.field, ob, mor, monoidal)


def _coalgebra_from_json(spec: SpecData, name, data):
    space_name = _expect(data, dict, f"coalgebra {name!r}").get("space")
    s = _named(spec.spaces, space_name, f"coalgebra {name!r}: unknown space")
    ss = tensor_space(s, s)
    what = f"coalgebra {name!r}"

    def matrix(key, dom, cod):
        return _parse_rows(spec, _required(data, key, what), dom, cod, f"{what} {key}")

    delta = matrix("delta", s, ss)
    eps = matrix("epsilon", s, unit_space())
    if "m" in data or "u" in data:
        mult = matrix("m", ss, s)
        unit = matrix("u", unit_space(), s)
        if "antipode" in data:
            return HopfAlgebra(s, delta, eps, mult, unit, matrix("antipode", s, s))
        return Bialgebra(s, delta, eps, mult, unit)
    return Coalgebra(s, delta, eps)


def _section(raw: dict, key: str) -> dict:
    return _expect(raw.get(key, {}), dict, f"section {key!r}")


def load_spec(source, field_override: str | None = None) -> SpecData:
    """Load and validate a spec file from a path, JSON text or dict."""
    if isinstance(source, dict):
        raw = source
    else:
        text = source
        if "\n" not in str(source) and str(source).endswith(".json"):
            try:
                with open(source, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise SpecError(f"cannot read {source}: {exc}") from None
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(
                f"JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from None
    if not isinstance(raw, dict):
        raise SpecError("spec file must be a JSON object")
    desc = field_override or raw.get("field", "q")
    if not isinstance(desc, str):
        raise SpecError("'field' must be a string: q, fp:<p> or padic:<p>")
    try:
        fld = field_from_descriptor(desc)
    except ScalarError as exc:
        raise SpecError(str(exc)) from None
    spec = SpecData(field=fld)
    for name, data in _section(raw, "spaces").items():
        spec.spaces[name] = _space_from_json(name, data)
    for name, data in _section(raw, "categories").items():
        spec.categories[name] = _category_from_json(name, data)
    for name, data in _section(raw, "functors").items():
        spec.functors[name] = _functor_from_json(spec, name, data)
    for name, data in _section(raw, "coalgebras").items():
        spec.coalgebras[name] = _coalgebra_from_json(spec, name, data)
    for name, data in _section(raw, "comodules").items():
        over = _expect(data, dict, f"comodule {name!r}").get("over")
        c = _named(spec.coalgebras, over, f"comodule {name!r}: unknown coalgebra")
        s = _named(spec.spaces, data.get("space"), f"comodule {name!r}: unknown space")
        rho = _parse_rows(spec, _required(data, "rho", f"comodule {name!r}"), s,
                          tensor_space(s, c.carrier), f"comodule {name!r} rho")
        spec.comodules[name] = Comodule(s, c, rho)
    for name, data in _section(raw, "controls").items():
        what = f"control {name!r}"
        space_name = _expect(data, dict, what).get("space")
        spec.controls[name] = ControlSpec(
            name, _named(spec.spaces, space_name, f"{what}: unknown space"),
            dict(_expect(data.get("action", {}), dict, f"{what}: 'action'")),
            dict(_expect(data.get("xi", {}), dict, f"{what}: 'xi'")),
        )
    for name, data in _section(raw, "transformations").items():
        what = f"transformation {name!r}"
        data = _expect(data, dict, what)
        functor, target = _required(data, "functor", what), _required(data, "target", what)
        F = _named(spec.functors, functor, f"{what}: unknown functor")
        target = _named(spec.spaces, target, f"{what}: unknown target space")
        rows = _expect(data.get("components", {}), dict, f"{what}: 'components'")
        comps = {}
        for x in F.source.objects:
            if rows.get(x) is None:
                raise SpecError(f"{what}: missing component at {x!r}")
            comps[x] = _parse_rows(spec, rows[x], F.space(x), tensor_space(F.space(x), target),
                                   f"{what} at {x!r}")
        spec.transformations[name] = (F, Transformation(comps), target)
    return spec


def resolve_control(spec: SpecData, F: DiagramFunctor, name: str) -> ControlData:
    """Turn a control spec into control data for a specific functor, with
    xi matrices parsed up to the first object whose action or xi is absent
    or names no object; ``coend.c_coend`` names what is wrong there."""
    cs = _named(spec.controls, name, "unknown control")
    xi = {}
    for x in F.source.objects:
        cx, rows = cs.action.get(x), cs.xi_rows.get(x)
        if cx not in F.source.objects or rows is None:
            break
        xi[x] = _parse_rows(
            spec, rows, F.space(cx), tensor_space(cs.space, F.space(x)),
            f"control {name!r} xi at {x!r}",
        )
    return ControlData(name, cs.space, dict(cs.action), xi)
