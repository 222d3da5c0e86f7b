"""Reconstruction, recognition and equivalence checks for comodule categories.

Given a finite-dimensional coalgebra C and a finite family of comodule seeds,
the comodule category over the seeds is built with full intertwiner hom
spaces (solved exactly as linear systems).  The coend of its forgetful
diagram comes with a comparison map h onto C assembled from the seed
coactions; reconstruction holds when h is an exact coalgebra isomorphism.
Generation by the seeds is not checked abstractly: it is read off a
posteriori from the surjectivity of h, and insufficient seeds yield a
NotGenerated verdict rather than an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cohom import (
    Bialgebra,
    Coalgebra,
    Comodule,
    is_coalgebra_morphism,
    tensor_comodule,
)
from .coend import (
    CoendResult,
    Diagram,
    DiagramMorphism,
    MonoidalDiagram,
    bialgebra_from_monoidal,
    coend_of_diagram,
    comodule_on,
    factor_through_coend,
)
from .exactlinalg import (
    LinearMap,
    NoSolution,
    Space,
    compose_kron,
    identity,
    invert_map,
    kernel,
    kron_compose,
    solve_through_injection,
    tensor,
)
from .fincat import Transformation


# ---------------------------------------------------------------------------
# intertwiner spaces
# ---------------------------------------------------------------------------

def comodule_hom_basis(m: Comodule, n: Comodule) -> list[LinearMap]:
    """A deterministic basis of the space of comodule morphisms M -> N:
    all g with (g (x) id) o rho_M = rho_N o g, solved exactly."""
    f = m.over.field
    dm, dn = m.space.dim, n.space.dim
    dc = m.over.carrier.dim
    if m.over.carrier.dim != n.over.carrier.dim:
        raise ValueError("comodules live over different coalgebras")
    nvars = dn * dm
    rows = []
    for b in range(dn):
        for c in range(dc):
            for a in range(dm):
                row = [f.zero()] * nvars
                # (g (x) id) o rho_M at ((b,c), a): sum_a' g[b,a'] rhoM[(a',c),a]
                for a2 in range(dm):
                    v = m.rho.entries[a2 * dc + c][a]
                    if not f.is_zero(v):
                        row[b * dm + a2] = f.add(row[b * dm + a2], v)
                # rho_N o g at ((b,c), a): sum_b' rhoN[(b,c),b'] g[b',a]
                for b2 in range(dn):
                    v = n.rho.entries[b * dc + c][b2]
                    if not f.is_zero(v):
                        row[b2 * dm + a] = f.sub(row[b2 * dm + a], v)
                rows.append(tuple(row))
    system = LinearMap(
        f, Space.std(nvars, prefix="v"), Space.std(len(rows), prefix="eq"),
        tuple(rows),
    )
    basis = []
    ker = kernel(system)
    for j in range(ker.dom.dim):
        vec = ker.col(j)
        entries = tuple(
            tuple(vec[b * dm + a] for a in range(dm)) for b in range(dn)
        )
        basis.append(LinearMap(f, m.space, n.space, entries))
    return basis


def _in_span(g: LinearMap, basis: list[LinearMap]) -> bool:
    f = g.field
    if not basis:
        return g.is_zero_map()
    nvars = g.dom.dim * g.cod.dim
    cols = [
        [b.entries[i][j] for i in range(g.cod.dim) for j in range(g.dom.dim)]
        for b in basis
    ]
    target = [g.entries[i][j] for i in range(g.cod.dim) for j in range(g.dom.dim)]
    a = LinearMap(
        f, Space.std(len(basis), prefix="c"), Space.std(nvars, prefix="v"),
        tuple(tuple(col[i] for col in cols) for i in range(nvars)),
    )
    b = LinearMap(
        f, Space.std(1, prefix="t"), Space.std(nvars, prefix="v"),
        tuple((t,) for t in target),
    )
    try:
        solve_through_injection(b, a)
        return True
    except NoSolution:
        return False


# ---------------------------------------------------------------------------
# the comodule category of a seed family
# ---------------------------------------------------------------------------

@dataclass
class SeedMonoidalData:
    """Monoidal structure on a seed family over a bialgebra: a unit seed,
    a tensor table on seed names, and comodule isomorphisms
    xi[(a, b)]: F(a) (x) F(b) -> F(a (x) b)."""

    unit: str
    tensor_obj: dict[tuple[str, str], str]
    xi: dict[tuple[str, str], LinearMap]
    xi_unit: LinearMap
    duals: dict[str, str] | None = None
    dual_maps: dict[str, LinearMap] | None = None


@dataclass
class ComoduleCategory:
    base: Coalgebra
    objects: dict[str, Comodule]
    homs: dict[tuple[str, str], list[LinearMap]]
    monoidal: SeedMonoidalData | None = None

    def check(self) -> list[str]:
        """Every listed morphism intertwines exactly; composites of basis
        morphisms stay inside the listed spans."""
        f = self.base.field
        problems = []
        for (a, b), basis in self.homs.items():
            ma, mb = self.objects[a], self.objects[b]
            idc = identity(self.base.carrier, f)
            for k, g in enumerate(basis):
                if kron_compose(g, idc, ma.rho) != mb.rho @ g:
                    problems.append(f"morphism {k} in hom({a}, {b}) does not intertwine")
        for (a, b), basis_ab in self.homs.items():
            for (b2, c), basis_bc in self.homs.items():
                if b2 != b:
                    continue
                for g in basis_ab:
                    for h in basis_bc:
                        if not _in_span(h @ g, self.homs[(a, c)]):
                            problems.append(
                                f"composite hom({a},{b}) then hom({b},{c}) leaves the span"
                            )
        return problems


def comodule_category_of(c: Coalgebra, seeds: dict[str, Comodule],
                         monoidal: SeedMonoidalData | None = None) -> ComoduleCategory:
    """The category on the seed objects with full intertwiner hom spaces."""
    for name, com in seeds.items():
        com.require_valid()
    homs = {}
    for a, ma in seeds.items():
        for b, mb in seeds.items():
            homs[(a, b)] = comodule_hom_basis(ma, mb)
    cat = ComoduleCategory(c, dict(seeds), homs, monoidal)
    return cat


def diagram_of_comodule_category(cat: ComoduleCategory) -> Diagram:
    f = cat.base.field
    objects = list(cat.objects)
    spaces = {name: com.space for name, com in cat.objects.items()}
    morphisms = []
    for (a, b), basis in cat.homs.items():
        for k, g in enumerate(basis):
            if a == b and g == identity(spaces[a], f):
                continue  # identities contribute empty relations
            morphisms.append(DiagramMorphism(f"h:{a}->{b}:{k}", a, b, g))
    return Diagram(f, objects, spaces, morphisms)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

@dataclass
class ReconstructionResult:
    category: ComoduleCategory
    coend: CoendResult
    h: LinearMap
    generated: bool
    injective: bool
    iso: bool
    problems: list[str] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        if self.iso:
            return "Isomorphism"
        if not self.generated:
            return "NotGenerated"
        return "NotIsomorphic"


def reconstruct_coalgebra(c: Coalgebra, seeds: dict[str, Comodule]) -> ReconstructionResult:
    """Coend of the forgetful diagram of the seed category, with the
    comparison map h: Q -> C assembled from coact of the seed coactions.

    h is surjective exactly when the seeds generate C at this finite stage;
    the verdict reports NotGenerated instead of raising.
    """
    cat = comodule_category_of(c, seeds)
    d = diagram_of_comodule_category(cat)
    r = coend_of_diagram(d)
    t = Transformation({name: com.rho for name, com in cat.objects.items()})
    h = factor_through_coend(r, t, c.carrier)
    rank = h.rank()
    generated = rank == c.carrier.dim
    injective = rank == r.carrier.dim
    problems = []
    if generated and injective:
        if not is_coalgebra_morphism(h, r.coalgebra, c):
            problems.append("comparison map is not a coalgebra morphism")
    iso = generated and injective and not problems
    return ReconstructionResult(cat, r, h, generated, injective, iso, problems)


def reconstruct_bialgebra(b: Bialgebra, seeds: dict[str, Comodule],
                          monoidal: SeedMonoidalData) -> tuple[ReconstructionResult, Bialgebra]:
    """Reconstruction with monoidal seeds: additionally induces the
    multiplication on the coend and verifies that h transports it to the
    multiplication of b."""
    f = b.field
    for (x, y), name in monoidal.tensor_obj.items():
        xi = monoidal.xi[(x, y)]
        t = tensor_comodule(seeds[x], seeds[y], b)
        target = seeds[name]
        idc = identity(b.carrier, f)
        if kron_compose(xi, idc, t.rho) != target.rho @ xi:
            raise ValueError(f"xi at ({x}, {y}) is not a comodule morphism")
    res = reconstruct_coalgebra(Coalgebra(b.carrier, b.delta, b.counit), seeds)
    mon = MonoidalDiagram(
        unit=monoidal.unit,
        tensor_obj=dict(monoidal.tensor_obj),
        xi=dict(monoidal.xi),
        xi_unit=monoidal.xi_unit,
        duals=monoidal.duals,
        dual_maps=monoidal.dual_maps,
    )
    bialg_q = bialgebra_from_monoidal(res.coend, mon)
    if res.iso:
        h = res.h
        if h @ bialg_q.mult != compose_kron(b.mult, h, h):
            res.problems.append("transported multiplication differs from the base one")
            res.iso = False
        if h @ bialg_q.unit != b.unit:
            res.problems.append("transported unit differs from the base one")
            res.iso = False
    return res, bialg_q


# ---------------------------------------------------------------------------
# recognition: factor a functor through its coend comodules
# ---------------------------------------------------------------------------

@dataclass
class RecognitionResult:
    coend: CoendResult
    comodules: dict[str, Comodule]
    morphisms: dict[str, LinearMap]
    ok: bool
    problems: list[str] = field(default_factory=list)


def recognition_factorization(F, r: CoendResult | None = None) -> RecognitionResult:
    """Factor F through the category of comodules over its coend: objects go
    to (F(X), delta_X), morphisms keep their matrices (now verified to be
    comodule morphisms), and the forgetful functor returns F on the nose."""
    from .coend import coend_of_functor

    if r is None:
        r = coend_of_functor(F)
    f = r.field
    comodules = {}
    problems = []
    for x in r.diagram.objects:
        comodules[x] = comodule_on(r, x)
    morphisms = {}
    idq = identity(r.carrier, f)
    for m in r.diagram.morphisms:
        morphisms[m.name] = m.map
        if kron_compose(m.map, idq, comodules[m.dom].rho) != comodules[m.cod].rho @ m.map:
            problems.append(f"{m.name} is not a comodule morphism over the coend")
    for x in r.diagram.objects:
        if comodules[x].space.dim != r.diagram.spaces[x].dim:
            problems.append(f"forgetful composite differs from F at {x}")
    return RecognitionResult(r, comodules, morphisms, not problems, problems)


# ---------------------------------------------------------------------------
# equivalence of categories at desk scale
# ---------------------------------------------------------------------------

@dataclass
class EquivalenceVerdict:
    ok: bool
    reconstruction: ReconstructionResult
    probe_status: dict[str, str]
    hom_dims_base: dict[str, int]
    hom_dims_coend: dict[str, int]
    hom_tables_match: bool
    problems: list[str] = field(default_factory=list)


def equivalence_check(c: Coalgebra, seeds: dict[str, Comodule],
                      probes: dict[str, Comodule]) -> EquivalenceVerdict:
    """Essential surjectivity and fullness at desk scale.

    Every valid probe comodule, pulled back along h to the coend, must be
    recovered by the equalizer of (rho (x) id, id (x) delta): the coaction
    maps the probe isomorphically onto that equalizer, as a comodule.
    Fullness is checked dimension-wise: intertwiner spaces over the base
    coalgebra and over the coend must have equal dimensions for all pairs.
    """
    f = c.field
    rec = reconstruct_coalgebra(c, seeds)
    problems = []
    if not rec.iso:
        return EquivalenceVerdict(
            False, rec, {}, {}, {}, False,
            [f"reconstruction verdict: {rec.verdict}"],
        )
    r = rec.coend
    q = r.coalgebra
    h_inv = invert_map(rec.h)
    probe_status = {}
    pulled: dict[str, Comodule] = {}
    for name, probe in probes.items():
        bad = probe.check()
        if bad:
            probe_status[name] = "rejected: " + "; ".join(bad)
            continue
        idm = identity(probe.space, f)
        rho_q = kron_compose(idm, h_inv, probe.rho)
        pulled[name] = Comodule(probe.space, q, rho_q)
        status = _lift_through_equalizer(pulled[name], q)
        probe_status[name] = status
        if status != "lifted":
            problems.append(f"probe {name}: {status}")
    # hom dimension tables on both sides
    base_objs: dict[str, Comodule] = dict(seeds)
    for name, probe in probes.items():
        if probe_status.get(name, "").startswith("rejected"):
            continue
        base_objs[f"probe:{name}"] = probe
    coend_objs: dict[str, Comodule] = {
        name: comodule_on(r, name) for name in seeds
    }
    for name, com in pulled.items():
        coend_objs[f"probe:{name}"] = com
    hom_base = {}
    hom_coend = {}
    for a in base_objs:
        for b in base_objs:
            key = f"{a}|{b}"
            hom_base[key] = len(comodule_hom_basis(base_objs[a], base_objs[b]))
            hom_coend[key] = len(comodule_hom_basis(coend_objs[a], coend_objs[b]))
    tables_match = hom_base == hom_coend
    if not tables_match:
        problems.append("hom dimension tables differ")
    ok = tables_match and all(s == "lifted" for s in probe_status.values()
                              if not s.startswith("rejected"))
    return EquivalenceVerdict(
        ok and not problems, rec, probe_status, hom_base, hom_coend,
        tables_match, problems,
    )


def _lift_through_equalizer(com: Comodule, q: Coalgebra) -> str:
    """Check that rho maps the comodule isomorphically onto the equalizer of
    (rho (x) id, id (x) delta) inside M (x) Q, compatibly with coactions."""
    f = q.field
    m_space = com.space
    idm = identity(m_space, f)
    idq = identity(q.carrier, f)
    pair_diff = tensor(com.rho, idq) - tensor(idm, q.delta)
    incl = kernel(pair_diff)
    if incl.dom.dim != m_space.dim:
        return f"failed: equalizer has dimension {incl.dom.dim}, expected {m_space.dim}"
    try:
        psi = solve_through_injection(com.rho, incl)
    except NoSolution:
        return "failed: coaction does not land in the equalizer"
    if psi.rank() != m_space.dim:
        return "failed: coaction is not an isomorphism onto the equalizer"
    # comodule structure on the equalizer: restrict id (x) delta
    try:
        rho_e = solve_through_injection(
            kron_compose(idm, q.delta, incl), tensor(incl, idq)
        )
    except NoSolution:
        return "failed: equalizer carries no induced coaction"
    e_com = Comodule(incl.dom, q, rho_e)
    if e_com.check():
        return "failed: induced coaction violates comodule axioms"
    if kron_compose(psi, idq, com.rho) != rho_e @ psi:
        return "failed: lift is not a comodule morphism"
    return "lifted"
