"""Finitely presented categories, diagram functors, diagrams and law checks.

Categories are given by total composition tables rather than generators and
relations, which keeps every law decidable by exhaustive enumeration at desk
scale.  Identity morphisms are implicit in input data and synthesized at
construction under the reserved names ``id:<object>``; a listed morphism may
not take that prefix.  ``compose`` returns the other factor of an identity,
so the composition laws skip every pair and triple with an identity in it.
Monoidal structure, when present, is strict: tensor tables, no associators.

A ``Diagram`` is the minimal input of a coend: based spaces and maps, with no
composition table.  It keeps one relation matrix: the relation block R_f of
each morphism f: X -> Y, the map cohom(F(X), F(Y)) -> N whose columns are
cohom(id, F(f)) minus cohom(F(f), id), read straight off F(f)
(``relation_columns``).  The laws a family over a diagram can satisfy are
checked here and nowhere else, both as W o R_f = 0 on those blocks:
``cowedge_problems`` (a family w_X: cohom(F(X), F(X)) -> M, W = [w_x]_x) and
``natural_problems`` (a family t: F => F (x) M, W = [coact(t_x)]_x, exact by
the coact bijection).  So is every monoidal table entry, once:
``monoidal_table_problems``.  The tables are checked once per command: the
monoidal records are frozen, with read-only tables, and keep the verdicts
reached on them.  ``validate_category`` keeps whether the object tensor is
unital and associative on the object list, and ``monoidal_table_verdict``,
which ``check_monoidal`` and every monoidal constructor call, keeps the
entry problems per object list and dimensions.  A constructor reads both
back, and decides a law itself only on tables no check has seen.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

from .cohom import coact, product_generators
from .exactlinalg import (
    LinearMap,
    ScalarError,
    Space,
    compose_kron,
    identity,
    tensor,
    tensor_space,
)


@dataclass(frozen=True)
class Morphism:
    name: str
    dom: str
    cod: str


@dataclass
class ValidationReport:
    ok: bool
    problems: list[str] = field(default_factory=list)

    def __bool__(self):
        return self.ok


def _read_only(record, *names) -> None:
    """Replace each named table of a frozen record by a read-only copy."""
    for name in names:
        table = getattr(record, name)
        if table is not None:
            object.__setattr__(record, name, MappingProxyType(dict(table)))


@dataclass(frozen=True)
class CategoryMonoidalData:
    """Strict monoidal structure on a finite category: tensor tables and a
    unit object, with an optional dual-object assignment.

    The record is frozen and its tables are read-only copies, so a verdict
    kept on it holds for as long as it lives: ``lawful_on`` maps each object
    list that ``validate_category`` walked to whether the object tensor is
    unital and associative there.  An edited table is a new record
    (``dataclasses.replace``), with no verdicts."""

    unit: str
    tensor_obj: Mapping[tuple[str, str], str]
    tensor_mor: Mapping[tuple[str, str], str] = field(default_factory=dict)
    duals: Mapping[str, str] | None = None
    lawful_on: dict[tuple[str, ...], bool] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        _read_only(self, "tensor_obj", "tensor_mor", "duals")


def _id_name(obj: str) -> str:
    return f"id:{obj}"


class FinCategory:
    """A finite category: objects, named morphisms and a composition table.

    ``morphisms`` lists the non-identity arrows; identities are synthesized,
    and a listed arrow may not take their reserved prefix ``id:``, so
    ``is_identity`` reads a name exactly.
    ``composition`` maps composable non-identity pairs (g, f) to the name of
    g o f (which may itself be an identity name).
    """

    def __init__(self, objects, morphisms, composition=None, monoidal=None):
        self.objects = list(objects)
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("duplicate object names")
        self.morphisms: dict[str, Morphism] = {}
        for obj in self.objects:
            name = _id_name(obj)
            self.morphisms[name] = Morphism(name, obj, obj)
        for m in morphisms:
            m = m if isinstance(m, Morphism) else Morphism(*m)
            if self.is_identity(m.name):
                raise ValueError(f"morphism {m.name!r} uses the reserved identity prefix 'id:'")
            if m.name in self.morphisms:
                raise ValueError(f"duplicate morphism name {m.name!r}")
            if m.dom not in self.objects or m.cod not in self.objects:
                raise ValueError(f"morphism {m.name!r} references unknown objects")
            self.morphisms[m.name] = m
        self._table: dict[tuple[str, str], str] = {}
        for (g, f), h in (composition or {}).items():
            self._table[(g, f)] = h
        self.monoidal: CategoryMonoidalData | None = monoidal

    # -- structure ----------------------------------------------------------

    def is_identity(self, name: str) -> bool:
        return name.startswith("id:")

    def non_identity(self) -> list[Morphism]:
        return [m for m in self.morphisms.values() if not self.is_identity(m.name)]

    def by_codomain(self, morphisms) -> dict[str, list[Morphism]]:
        """The given morphisms listed under their codomains, in order."""
        index = {obj: [] for obj in self.objects}
        for m in morphisms:
            index[m.cod].append(m)
        return index

    def composable_pairs(self):
        into = self.by_codomain(self.morphisms.values())
        for g in self.morphisms.values():
            for f in into[g.dom]:
                yield g, f

    def compose(self, g: str, f: str) -> str:
        """Name of g o f for a composable pair."""
        mg, mf = self.morphisms[g], self.morphisms[f]
        if mf.cod != mg.dom:
            raise ValueError(f"{g} o {f} is not composable")
        if self.is_identity(f):
            return g
        if self.is_identity(g):
            return f
        try:
            return self._table[(g, f)]
        except KeyError:
            raise KeyError(f"composition table has no entry for ({g}, {f})") from None


def validate_category(cat: FinCategory) -> ValidationReport:
    """Check totality, unit laws and associativity of the composition table,
    then the monoidal tables when there are any: every tensor entry names an
    object, the unit laws, associativity of the object tensor and the
    endpoints of each morphism tensor entry.

    The object tensor's associativity is Light's test: the generators are
    the objects, in order, that no left-bracketed tensor of earlier
    generators reaches (``cohom.product_generators``), and (a (x) s) (x) c =
    a (x) (s (x) c) is tried for every a, c and generator s, n^2 |S| triples
    in place of n^3, which is exact.  When one of them fails, every triple
    is walked, so the report names every violated pair or triple, in order.
    """
    problems = []
    for g, f in cat.composable_pairs():
        try:
            h = cat.compose(g.name, f.name)
        except KeyError:
            problems.append(f"missing composite ({g.name}, {f.name})")
            continue
        if h not in cat.morphisms:
            problems.append(f"composite ({g.name}, {f.name}) -> unknown morphism {h!r}")
            continue
        mh = cat.morphisms[h]
        if mh.dom != f.dom or mh.cod != g.cod:
            problems.append(
                f"composite ({g.name}, {f.name}) = {h} has wrong endpoints"
            )
    if problems:
        return ValidationReport(False, problems)
    # compose returns the other factor of an identity, so a triple with an
    # identity in it associates trivially
    arrows = cat.non_identity()
    into = cat.by_codomain(arrows)
    for h in arrows:
        for g in into[h.dom]:
            for f in into[g.dom]:
                left = cat.compose(cat.compose(h.name, g.name), f.name)
                right = cat.compose(h.name, cat.compose(g.name, f.name))
                if left != right:
                    problems.append(
                        f"associativity fails on triple ({h.name}, {g.name}, {f.name}):"
                        f" {left} != {right}"
                    )
    if cat.monoidal is not None:
        problems.extend(_validate_monoidal_tables(cat))
    return ValidationReport(not problems, problems)


def _entry_problems(objects, mon: CategoryMonoidalData) -> list[str]:
    """Why the unit, an object tensor entry or a dual entry names no object."""
    known = set(objects)
    if mon.unit not in known:
        return [f"monoidal unit {mon.unit!r} is not an object"]
    problems = []
    for a in objects:
        for b in objects:
            if (ab := mon.tensor_obj.get((a, b))) is None:
                problems.append(f"missing object tensor ({a}, {b})")
            elif ab not in known:
                problems.append(f"object tensor ({a}, {b}) names unknown object")
    return problems + [f"dual table entry ({a}, {astar}) names unknown object"
                       for a, astar in (mon.duals or {}).items()
                       if a not in known or astar not in known]


def _associativity_failures(items, product, fails) -> list[tuple]:
    """The triples (a, b, c) of items at which fails(a, b, c), in order, for
    fails the associativity of the product that product(y, g) describes (see
    ``cohom.product_generators``).  By Light's test the triples whose middle
    is a generator decide it exactly, so only those are tried; all n^3 are
    walked only when one of them fails, to name every failure."""
    gens = product_generators(items, product)
    if not any(fails(a, s, c) for a in items for s in gens for c in items):
        return []
    return [(a, b, c) for a in items for b in items for c in items if fails(a, b, c)]


def tensor_associativity_failures(items, t: dict[tuple[str, str], str]) -> list[tuple]:
    """The triples (a, b, c) of items at which the object tensor t is not
    associative, t(t(a, b), c) != t(a, t(b, c)), in order, found by
    ``_associativity_failures``; items must be closed under t."""
    return _associativity_failures(items, lambda y, g: t[(y, g)],
                                   lambda a, b, c: t[(t[(a, b)], c)] != t[(a, t[(b, c)])])


def _validate_monoidal_tables(cat: FinCategory) -> list[str]:
    mon = cat.monoidal
    problems = _entry_problems(cat.objects, mon)
    if problems:
        return problems
    t = mon.tensor_obj
    failures = {}
    for a, b, c in tensor_associativity_failures(cat.objects, t):
        failures.setdefault(a, []).append(f"tensor associativity fails at ({a}, {b}, {c})")
    for a in cat.objects:
        if t[(mon.unit, a)] != a or t[(a, mon.unit)] != a:
            problems.append(f"unit law fails at object {a}")
        problems.extend(failures.get(a, ()))
    mon.lawful_on[tuple(cat.objects)] = not problems
    for (f, g), h in mon.tensor_mor.items():
        unknown = [n for n in (f, g, h) if n not in cat.morphisms]
        if unknown:
            problems.append(f"morphism tensor ({f}, {g}) names unknown morphism {unknown[0]!r}")
            continue
        mf, mg, mh = cat.morphisms[f], cat.morphisms[g], cat.morphisms[h]
        if mh.dom != mon.tensor_obj[(mf.dom, mg.dom)] or mh.cod != mon.tensor_obj[
            (mf.cod, mg.cod)
        ]:
            problems.append(f"morphism tensor ({f}, {g}) has wrong endpoints")
    return problems


@dataclass(frozen=True)
class FunctorMonoidalData:
    """Structure isomorphisms of a monoidal functor: xi[(a, b)] is
    F(a) (x) F(b) -> F(a (x) b) and xi_unit is K -> F(I).  ``dual_maps``
    optionally identifies F(a*) with F(a)^* for the antipode construction.

    Frozen with read-only tables, like ``CategoryMonoidalData``;
    ``verdicts`` holds what ``monoidal_table_verdict`` decided on it."""

    xi: Mapping[tuple[str, str], LinearMap]
    xi_unit: LinearMap
    dual_maps: Mapping[str, LinearMap] | None = None
    verdicts: dict[tuple, tuple] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        _read_only(self, "xi", "dual_maps")


def monoidal_table_problems(objects, spaces: dict[str, Space],
                            cat_mon: CategoryMonoidalData | None,
                            fun_mon: FunctorMonoidalData | None) -> list[str]:
    """Why the monoidal tables over objects, with F(x) = spaces[x], cannot
    be read entry by entry, or [] if they can: absent data, an entry naming
    no object, a missing xi or one that is not an invertible map of the
    right shape, and an xi_unit or dual identification that is no
    isomorphism.  The squares relating the entries are ``check_monoidal``'s.
    """
    if cat_mon is None:
        return ["source category carries no monoidal data"]
    if fun_mon is None:
        return ["functor carries no monoidal data"]
    problems = _entry_problems(objects, cat_mon)
    if problems:
        return problems
    for a in objects:
        for b in objects:
            xi = fun_mon.xi.get((a, b))
            if xi is None:
                problems.append(f"missing xi at ({a}, {b})")
            elif (xi.dom.dim, xi.cod.dim) != (spaces[a].dim * spaces[b].dim,
                                              spaces[cat_mon.tensor_obj[(a, b)]].dim):
                problems.append(f"xi at ({a}, {b}) has wrong shape")
            elif not xi.is_invertible():
                problems.append(f"xi at ({a}, {b}) is not invertible")
    xi_u = fun_mon.xi_unit
    if (xi_u.dom.dim, xi_u.cod.dim) != (1, spaces[cat_mon.unit].dim) or not xi_u.is_invertible():
        problems.append("xi_unit is not an isomorphism K -> F(I)")
    duals = cat_mon.duals or {}
    for x, dmap in (fun_mon.dual_maps or {}).items():
        if x in duals and ((dmap.dom.dim, dmap.cod.dim) != (spaces[duals[x]].dim, spaces[x].dim)
                           or not dmap.is_invertible()):
            problems.append(f"dual identification at {x!r} is not an isomorphism")
    return problems


def monoidal_table_verdict(objects, spaces: dict[str, Space],
                           cat_mon: CategoryMonoidalData | None,
                           fun_mon: FunctorMonoidalData | None) -> list[str]:
    """``monoidal_table_problems``, decided once per pair of records, object
    list and dimensions.  fun_mon keeps each verdict with the category
    record, the objects and their dimensions it was reached on, and a later
    call on the same ones reads it back; both records are frozen with
    read-only tables, so it cannot go stale.  Any other call computes it."""
    if cat_mon is None or fun_mon is None:
        return monoidal_table_problems(objects, spaces, cat_mon, fun_mon)
    key = (tuple(objects), tuple(spaces[x].dim for x in objects))
    kept = fun_mon.verdicts.get(key)
    if kept is None or kept[0] is not cat_mon:
        kept = fun_mon.verdicts[key] = (
            cat_mon, monoidal_table_problems(objects, spaces, cat_mon, fun_mon))
    return list(kept[1])


class DiagramFunctor:
    """A functor from a finite category to based vector spaces."""

    def __init__(self, source: FinCategory, field, ob, mor, monoidal=None):
        self.source = source
        self.field = field
        self.ob: dict[str, Space] = dict(ob)
        self._mor: dict[str, LinearMap] = dict(mor)
        self.monoidal: FunctorMonoidalData | None = monoidal

    def space(self, obj: str) -> Space:
        return self.ob[obj]

    def map(self, name: str) -> LinearMap:
        if self.source.is_identity(name):
            obj = self.source.morphisms[name].dom
            return identity(self.ob[obj], self.field)
        return self._mor[name]

    def xi(self, a: str, b: str) -> LinearMap:
        if self.monoidal is None:
            raise ValueError("functor carries no monoidal data")
        return self.monoidal.xi[(a, b)]


def validate_functor(F: DiagramFunctor) -> ValidationReport:
    """Check shapes and the functor laws F(id) = id, F(g o f) = F(g) F(f)."""
    cat = F.source
    problems = []
    for obj in cat.objects:
        if obj not in F.ob:
            problems.append(f"no space assigned to object {obj}")
    for m in cat.non_identity():
        try:
            mp = F.map(m.name)
        except KeyError:
            problems.append(f"no map assigned to morphism {m.name}")
            continue
        if mp.dom.dim != F.ob[m.dom].dim or mp.cod.dim != F.ob[m.cod].dim:
            problems.append(
                f"map for {m.name} has shape {mp.cod.dim}x{mp.dom.dim}, expected "
                f"{F.ob[m.cod].dim}x{F.ob[m.dom].dim}"
            )
    if problems:
        return ValidationReport(False, problems)
    # F(id) is the identity and compose returns the other factor of an
    # identity, so a pair with an identity in it holds trivially
    arrows = cat.non_identity()
    into = cat.by_codomain(arrows)
    for g in arrows:
        for f in into[g.dom]:
            h = cat.compose(g.name, f.name)
            if F.map(g.name) @ F.map(f.name) != F.map(h):
                problems.append(f"F({g.name} o {f.name}) != F({g.name}) F({f.name})")
    return ValidationReport(not problems, problems)


@dataclass(frozen=True)
class DiagramMorphism:
    name: str
    dom: str
    cod: str
    map: LinearMap


@dataclass
class Diagram:
    """A finite family of based spaces and maps between them; the minimal
    input the coequalizer needs.

    ``offsets`` places the block cohom(F(x), F(x)) of each object in
    N = (+)_x cohom(F(x), F(x)), and ``relations`` holds the columns of the
    relation matrix R = [R_f]_f: the relation block of each morphism
    (``relation_columns``), in order, that of f: X -> Y taking
    dim F(X) * dim F(Y) columns.  Both are built on first read and kept, so
    the coend's relation matrix, its cowedge check and the naturality of its
    universal family read the same columns."""

    field: object
    objects: list[str]
    spaces: dict[str, Space]
    morphisms: list[DiagramMorphism]

    @cached_property
    def offsets(self) -> dict[str, int]:
        offsets, off = {}, 0
        for x in self.objects:
            offsets[x] = off
            off += self.spaces[x].dim ** 2
        return offsets

    @cached_property
    def relations(self) -> list[dict]:
        cols = []
        for m in self.morphisms:
            cols.extend(relation_columns(self, m))
        return cols


def relation_columns(d: Diagram, m: DiagramMorphism) -> list[dict]:
    """The relation block R_f of f = m: X -> Y, the map cohom(F(X), F(Y)) -> N
    whose column at the basis vector (j, i) ~ y'_j (x) x_i is p - q, with
    p = cohom(id, F(f)) e_(j,i) = sum_k F(f)[j, k] e_(k,i) in the block at X
    and q = cohom(F(f), id) e_(j,i) = sum_r F(f)[r, i] e_(j,r) in the block at
    Y, as sparse columns.  They are read straight off the columns of F(f):
    p walks row j, q column i.  For an endomorphism p and q share a block,
    and an entry where they cancel is dropped."""
    f = d.field
    add, neg, is_zero = f.add, f.neg, f.is_zero
    n, k = d.spaces[m.dom].dim, d.spaces[m.cod].dim
    at_x, at_y = d.offsets[m.dom], d.offsets[m.cod]
    cols = m.map.cols
    rows = [[] for _ in range(k)]  # row j of F(f) as (column, value), in order
    for c, col in enumerate(cols):
        for r, v in col.items():
            rows[r].append((c, v))
    out = []
    for j, row in enumerate(rows):
        for i in range(n):
            rel = {at_x + c * n + i: v for c, v in row}
            for r, v in cols[i].items():
                key, v = at_y + j * k + r, neg(v)
                if key in rel:
                    v = add(rel[key], v)
                    if is_zero(v):
                        del rel[key]
                        continue
                rel[key] = v
            out.append(rel)
    return out


def diagram_of_functor(F: DiagramFunctor) -> Diagram:
    morphisms = [
        DiagramMorphism(m.name, m.dom, m.cod, F.map(m.name))
        for m in F.source.non_identity()
    ]
    return Diagram(F.field, list(F.source.objects), dict(F.ob), morphisms)


@dataclass
class Transformation:
    """An object-indexed family of linear maps."""

    components: dict[str, LinearMap]

    def __getitem__(self, obj: str) -> LinearMap:
        return self.components[obj]


def tensor_functor(F: DiagramFunctor, m_space: Space) -> DiagramFunctor:
    """The functor X |-> F(X) (x) M, f |-> F(f) (x) id_M."""
    idm = identity(m_space, F.field)
    ob = {x: tensor_space(F.space(x), m_space) for x in F.source.objects}
    mor = {
        m.name: tensor(F.map(m.name), idm) for m in F.source.non_identity()
    }
    return DiagramFunctor(F.source, F.field, ob, mor)


def _shape_problems(family: dict[str, LinearMap], shapes: dict[str, tuple[int, int]]) -> list[str]:
    """Components missing from family or not of the (rows, columns) shape
    listed for their object."""
    problems = []
    for x, (rows, cols) in shapes.items():
        comp = family.get(x)
        if comp is None:
            problems.append(f"no component at {x}")
        elif (comp.cod.dim, comp.dom.dim) != (rows, cols):
            problems.append(
                f"component at {x} has shape {comp.cod.dim}x{comp.dom.dim}, "
                f"expected {rows}x{cols}"
            )
    return problems


def _relation_failures(d: Diagram, family: dict[str, LinearMap], m_space: Space) -> list[str]:
    """The names of the morphisms f, in order, with W o R_f != 0, where
    W = [w_x]_x: N -> M is the family side by side, one block of columns
    per object, and R_f is f's relation block.  W o R_f is
    w_X o cohom(id, F(f)) - w_Y o cohom(F(f), id), so this is the cowedge
    relation at f.  It is one composition with the relation matrix, whose
    columns are the diagram's own; a diagram with no morphisms builds
    nothing."""
    if not d.morphisms:
        return []
    fld = d.field
    if any(family[x].field != fld for x in d.objects):
        raise ScalarError("composing maps over different fields")
    w_cols = [col for x in d.objects for col in family[x].cols]
    nspace = Space.std(len(w_cols))
    w = LinearMap.from_sparse(fld, nspace, m_space, w_cols)
    rel = LinearMap.from_sparse(fld, Space.std(len(d.relations)), nspace, d.relations)
    image = (w @ rel).cols
    failures, lo = [], 0
    for m in d.morphisms:
        hi = lo + d.spaces[m.dom].dim * d.spaces[m.cod].dim
        if any(image[lo:hi]):
            failures.append(m.name)
        lo = hi
    return failures


def natural_problems(d: Diagram, t: Transformation, m_space: Space) -> list[str]:
    """Why t: F -> F (x) M is not natural, or [] if it is: shapes first, then
    (F(f) (x) id_M) o t_X = t_Y o F(f) for every morphism f: X -> Y.

    coact is a bijection Hom(X, Y (x) M) -> Hom(cohom(X, Y), M) with
    coact((F(f) (x) id) o t_X) = coact(t_X) o cohom(id, F(f)) and
    coact(t_Y o F(f)) = coact(t_Y) o cohom(F(f), id), so t is natural at f
    exactly when [coact(t_x)]_x is a cowedge there: the relation test of
    ``cowedge_problems``, on the same relation blocks."""
    shapes = {x: (d.spaces[x].dim * m_space.dim, d.spaces[x].dim) for x in d.objects}
    problems = _shape_problems(t.components, shapes)
    if problems:
        return problems
    w = {x: coact(t[x], d.spaces[x], m_space) for x in d.objects}
    return [f"naturality fails at morphism {name}" for name in _relation_failures(d, w, m_space)]


def cowedge_problems(d: Diagram, w: dict[str, LinearMap], m_space: Space) -> list[str]:
    """Why w_X: cohom(F(X), F(X)) -> M is not a cowedge, or [] if it is:
    shapes first, then for every f: X -> Y both routes out of
    cohom(F(X), F(Y)) agree, w_X o cohom(id, F(f)) = w_Y o cohom(F(f), id),
    that is W o R_f = 0 for W = [w_x]_x and f's relation block R_f."""
    shapes = {x: (m_space.dim, d.spaces[x].dim ** 2) for x in d.objects}
    problems = _shape_problems(w, shapes)
    if problems:
        return problems
    return [f"cowedge relation fails at morphism {name}"
            for name in _relation_failures(d, w, m_space)]


def check_monoidal(F: DiagramFunctor) -> ValidationReport:
    """Validate the structure isomorphisms of a monoidal functor.

    First every table entry, by ``monoidal_table_verdict``, which keeps its
    verdict on the functor's record for the constructors that read the
    tables next, so the tables are checked once per command; then the
    associativity square
    xi_{X(x)Y,Z} o (xi_{X,Y} (x) id) = xi_{X,Y(x)Z} o (id (x) xi_{Y,Z}),
    the unit squares against xi_unit, and naturality of xi on every pair
    in the morphism tensor table.  The laws of the source category (its
    tensor associativity, unit laws and morphism tensor endpoints) are
    trusted: callers run ``validate_category`` on it first.

    Once every xi is invertible, dim F(a) * dim F(b) = dim F(a (x) b), so the
    dimensions of the objects form a finite multiplicatively closed subset
    of N, which lies in {0, 1} (the powers of any d > 1 are unbounded).  A
    square with a 0-dim F(a), F(b) or F(c) holds trivially; every other one
    is the 2-cocycle identity xi(a(x)b, c) xi(a, b) = xi(a, b(x)c) xi(b, c)
    of scalars.  Each xi is read once as an exact integer pair n/d (over F_p
    an int, d = 1).  With xi(a(x)b, c) = n1/d1 and xi(a, b(x)c) = n2/d2 the
    square holds iff the integer n1 n_ab d2 d_bc - n2 n_bc d1 d_ab (the
    identity times its nonzero denominators) is zero once read into the
    field by ``from_int``: exactly over Q, mod p over F_p.

    The 1-dim objects form a submonoid, and with the object tensor
    associative (trusted) the 2-cocycle identity at (a, b, c) is the
    associativity at (a, b, c) of the twisted algebra e_a e_b =
    xi(a, b) e_{a (x) b}.  So it is decided by Light's test: the generators
    are the 1-dim objects, in order, that no left-bracketed tensor of
    earlier generators reaches (``cohom.product_generators``), and the
    identity is tried at the n^2 |S| triples with a generator in the middle,
    which is exact.  When one of them fails, every triple is walked, so the
    report names every failing triple, in order.

    The unit squares are scalar identities too.  xi_unit is an isomorphism
    K -> F(I), so F(I) is 1-dim and xi_unit is a nonzero scalar n_u/d_u.  A
    0-dim F(a) passes both squares, as every map on a 0-dim space is the
    identity.  For a 1-dim F(a) the left square
    xi(I, a) o (xi_unit (x) id) = id is xi(I, a) n_u/d_u = 1, which, with
    xi(I, a) = n/d, holds iff the integer n n_u - d d_u is zero once read
    into the field by ``from_int``; the right square is the same with
    xi(a, I).  So no map is built for them, and each object's left square
    is reported before its right one.
    """
    cat = F.source
    problems = monoidal_table_verdict(cat.objects, F.ob, cat.monoidal, F.monoidal)
    if problems:
        return ValidationReport(False, problems)
    mon, fld = cat.monoidal, F.field
    t = mon.tensor_obj
    # each xi as n/d from its one entry; no pair where F(a) (x) F(b) is 0-dim
    ratio = {pair: (v.numerator, v.denominator)
             for pair, xi in F.monoidal.xi.items() for col in xi.cols for v in col.values()}

    def cocycle_fails(a, b, c):
        (n_ab, d_ab), (n_bc, d_bc) = ratio[(a, b)], ratio[(b, c)]
        n1, d1 = ratio[(t[(a, b)], c)]
        n2, d2 = ratio[(a, t[(b, c)])]
        return not fld.is_zero(fld.from_int(n1 * n_ab * d2 * d_bc - n2 * n_bc * d1 * d_ab))

    ones = [a for a in cat.objects if F.space(a).dim == 1]
    problems.extend(f"xi associativity fails at ({a}, {b}, {c})" for a, b, c
                    in _associativity_failures(ones, lambda y, g: t[(y, g)], cocycle_fails))
    (u,) = F.monoidal.xi_unit.cols[0].values()
    for a in ones:
        for side, pair in (("left", (mon.unit, a)), ("right", (a, mon.unit))):
            n, d = ratio[pair]
            if not fld.is_zero(fld.from_int(n * u.numerator - d * u.denominator)):
                problems.append(f"{side} unit square fails at {a}")
    for (fname, gname), hname in mon.tensor_mor.items():
        mf, mg = cat.morphisms[fname], cat.morphisms[gname]
        lhs = F.map(hname) @ F.xi(mf.dom, mg.dom)
        rhs = compose_kron(F.xi(mf.cod, mg.cod), F.map(fname), F.map(gname))
        if lhs != rhs:
            problems.append(f"xi naturality fails at ({fname}, {gname})")
    return ValidationReport(not problems, problems)
