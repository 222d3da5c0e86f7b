"""Finitely presented categories, diagram functors and transformation checks.

Categories are given by total composition tables rather than generators and
relations, which keeps every law decidable by exhaustive enumeration at desk
scale.  Identity morphisms are implicit in input data and synthesized at
construction under the reserved names ``id:<object>``.  Monoidal structure,
when present, is strict: tensor tables, no associators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exactlinalg import LinearMap, Space, compose_kron, identity, tensor, tensor_space


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


@dataclass
class CategoryMonoidalData:
    """Strict monoidal structure on a finite category: tensor tables and a
    unit object, with an optional dual-object assignment."""

    unit: str
    tensor_obj: dict[tuple[str, str], str]
    tensor_mor: dict[tuple[str, str], str] = field(default_factory=dict)
    duals: dict[str, str] | None = None


def _id_name(obj: str) -> str:
    return f"id:{obj}"


class FinCategory:
    """A finite category: objects, named morphisms and a composition table.

    ``morphisms`` lists the non-identity arrows; identities are synthesized.
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

    def identity_name(self, obj: str) -> str:
        return _id_name(obj)

    def is_identity(self, name: str) -> bool:
        return name.startswith("id:")

    def non_identity(self) -> list[Morphism]:
        return [m for m in self.morphisms.values() if not self.is_identity(m.name)]

    def composable_pairs(self):
        for g in self.morphisms.values():
            for f in self.morphisms.values():
                if f.cod == g.dom:
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

    def tensor_objects(self, a: str, b: str) -> str:
        if self.monoidal is None:
            raise ValueError("category carries no monoidal data")
        try:
            return self.monoidal.tensor_obj[(a, b)]
        except KeyError:
            raise KeyError(f"tensor table has no entry for ({a}, {b})") from None

    def tensor_morphisms(self, f: str, g: str) -> str:
        if self.monoidal is None:
            raise ValueError("category carries no monoidal data")
        if self.is_identity(f) and self.is_identity(g):
            a = self.morphisms[f].dom
            b = self.morphisms[g].dom
            return _id_name(self.tensor_objects(a, b))
        try:
            return self.monoidal.tensor_mor[(f, g)]
        except KeyError:
            raise KeyError(f"morphism tensor table has no entry for ({f}, {g})") from None

    def dual_object(self, a: str) -> str:
        if self.monoidal is None or self.monoidal.duals is None:
            raise KeyError(f"no dual declared for object {a!r}")
        return self.monoidal.duals[a]


def validate_category(cat: FinCategory) -> ValidationReport:
    """Check totality, unit laws and associativity of the composition table.

    The report names every violated pair or triple.
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
    for h in cat.morphisms.values():
        for g in cat.morphisms.values():
            if g.cod != h.dom:
                continue
            for f in cat.morphisms.values():
                if f.cod != g.dom:
                    continue
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


def _validate_monoidal_tables(cat: FinCategory) -> list[str]:
    mon = cat.monoidal
    problems = []
    if mon.unit not in cat.objects:
        return [f"monoidal unit {mon.unit!r} is not an object"]
    for a in cat.objects:
        for b in cat.objects:
            if (a, b) not in mon.tensor_obj:
                problems.append(f"missing object tensor ({a}, {b})")
            elif mon.tensor_obj[(a, b)] not in cat.objects:
                problems.append(f"object tensor ({a}, {b}) names unknown object")
    if problems:
        return problems
    for a in cat.objects:
        if mon.tensor_obj[(mon.unit, a)] != a or mon.tensor_obj[(a, mon.unit)] != a:
            problems.append(f"unit law fails at object {a}")
        for b in cat.objects:
            for c in cat.objects:
                left = mon.tensor_obj[(mon.tensor_obj[(a, b)], c)]
                right = mon.tensor_obj[(a, mon.tensor_obj[(b, c)])]
                if left != right:
                    problems.append(f"tensor associativity fails at ({a}, {b}, {c})")
    for (f, g), h in mon.tensor_mor.items():
        mf, mg = cat.morphisms[f], cat.morphisms[g]
        mh = cat.morphisms.get(h)
        if mh is None:
            problems.append(f"morphism tensor ({f}, {g}) names unknown morphism {h!r}")
            continue
        if mh.dom != mon.tensor_obj[(mf.dom, mg.dom)] or mh.cod != mon.tensor_obj[
            (mf.cod, mg.cod)
        ]:
            problems.append(f"morphism tensor ({f}, {g}) has wrong endpoints")
    if mon.duals is not None:
        for a, astar in mon.duals.items():
            if a not in cat.objects or astar not in cat.objects:
                problems.append(f"dual table entry ({a}, {astar}) names unknown object")
    return problems


@dataclass
class FunctorMonoidalData:
    """Structure isomorphisms of a monoidal functor: xi[(a, b)] is
    F(a) (x) F(b) -> F(a (x) b) and xi_unit is K -> F(I).  ``dual_maps``
    optionally identifies F(a*) with F(a)^* for the antipode construction."""

    xi: dict[tuple[str, str], LinearMap]
    xi_unit: LinearMap
    dual_maps: dict[str, LinearMap] | None = None


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
    for g, f in cat.composable_pairs():
        if cat.is_identity(g.name) and cat.is_identity(f.name):
            continue
        h = cat.compose(g.name, f.name)
        if F.map(g.name) @ F.map(f.name) != F.map(h):
            problems.append(f"F({g.name} o {f.name}) != F({g.name}) F({f.name})")
    return ValidationReport(not problems, problems)


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


def check_natural(t: Transformation, F: DiagramFunctor, G: DiagramFunctor) -> bool:
    """True iff G(f) o t_X = t_Y o F(f) holds exactly for every f: X -> Y."""
    for obj in F.source.objects:
        comp = t.components.get(obj)
        if comp is None:
            return False
        if comp.dom.dim != F.space(obj).dim or comp.cod.dim != G.space(obj).dim:
            return False
    for m in F.source.non_identity():
        if G.map(m.name) @ t[m.dom] != t[m.cod] @ F.map(m.name):
            return False
    return True


def check_dinatural(w: dict[str, LinearMap], F: DiagramFunctor, m_space: Space) -> bool:
    """True iff the components w_X: cohom(F(X), F(X)) -> M form a cowedge.

    For every f: X -> Y both routes out of cohom(F(X), F(Y)) must agree:
    w_X o cohom(id, F(f)) = w_Y o cohom(F(f), id), exactly.
    """
    from .cohom import cohom, cohom_on_maps

    f = F.field
    for obj in F.source.objects:
        comp = w.get(obj)
        if comp is None:
            return False
        expected = cohom(F.space(obj), F.space(obj), f).carrier.dim
        if comp.dom.dim != expected or comp.cod.dim != m_space.dim:
            return False
    for m in F.source.non_identity():
        fx, fy = F.space(m.dom), F.space(m.cod)
        ff = F.map(m.name)
        into_dom = cohom_on_maps(identity(fx, f), ff)  # cohom(FX,FY) -> cohom(FX,FX)
        into_cod = cohom_on_maps(ff, identity(fy, f))  # cohom(FX,FY) -> cohom(FY,FY)
        if w[m.dom] @ into_dom != w[m.cod] @ into_cod:
            return False
    return True


def check_monoidal(F: DiagramFunctor) -> ValidationReport:
    """Validate the structure isomorphisms of a monoidal functor.

    Checks invertibility of every xi, the associativity square
    xi_{X(x)Y,Z} o (xi_{X,Y} (x) id) = xi_{X,Y(x)Z} o (id (x) xi_{Y,Z}),
    the unit squares against xi_unit, and naturality of xi on every pair
    in the morphism tensor table.
    """
    problems = []
    cat = F.source
    if cat.monoidal is None:
        return ValidationReport(False, ["source category carries no monoidal data"])
    if F.monoidal is None:
        return ValidationReport(False, ["functor carries no monoidal data"])
    cat_report = validate_category(cat)
    if not cat_report.ok:
        return cat_report
    mon = cat.monoidal
    fld = F.field
    for a in cat.objects:
        for b in cat.objects:
            ab = mon.tensor_obj[(a, b)]
            xi = F.monoidal.xi.get((a, b))
            if xi is None:
                problems.append(f"missing xi at ({a}, {b})")
                continue
            if xi.dom.dim != F.space(a).dim * F.space(b).dim or xi.cod.dim != F.space(ab).dim:
                problems.append(f"xi at ({a}, {b}) has wrong shape")
            elif xi.rank() != xi.cod.dim or xi.dom.dim != xi.cod.dim:
                problems.append(f"xi at ({a}, {b}) is not invertible")
    xi_u = F.monoidal.xi_unit
    if xi_u.dom.dim != 1 or xi_u.cod.dim != F.space(mon.unit).dim or xi_u.rank() != 1:
        problems.append("xi_unit is not an isomorphism K -> F(I)")
    if problems:
        return ValidationReport(False, problems)
    for a in cat.objects:
        for b in cat.objects:
            for c in cat.objects:
                ab = mon.tensor_obj[(a, b)]
                bc = mon.tensor_obj[(b, c)]
                left = compose_kron(F.xi(ab, c), F.xi(a, b), identity(F.space(c), fld))
                right = compose_kron(F.xi(a, bc), identity(F.space(a), fld), F.xi(b, c))
                if left != right:
                    problems.append(f"xi associativity fails at ({a}, {b}, {c})")
    for a in cat.objects:
        # K (x) F(a) and F(a) (x) K are identified with F(a) by flat indexing
        left_unit = compose_kron(F.xi(mon.unit, a), xi_u, identity(F.space(a), fld))
        right_unit = compose_kron(F.xi(a, mon.unit), identity(F.space(a), fld), xi_u)
        if left_unit != identity(F.space(a), fld):
            problems.append(f"left unit square fails at {a}")
        if right_unit != identity(F.space(a), fld):
            problems.append(f"right unit square fails at {a}")
    for (fname, gname), hname in mon.tensor_mor.items():
        mf, mg = cat.morphisms[fname], cat.morphisms[gname]
        lhs = F.map(hname) @ F.xi(mf.dom, mg.dom)
        rhs = compose_kron(F.xi(mf.cod, mg.cod), F.map(fname), F.map(gname))
        if lhs != rhs:
            problems.append(f"xi naturality fails at ({fname}, {gname})")
    return ValidationReport(not problems, problems)
