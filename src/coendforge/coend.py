"""Coends of diagrams of based spaces, built as explicit coequalizers.

The coend of a diagram F is the cokernel of a single relation matrix into
N = (+)_X cohom(F(X), F(X)): every morphism f: X -> Y contributes, per basis
vector of the mixed block cohom(F(X), F(Y)), the difference of its two
functorial images.  On top of the quotient the comatrix coalgebras of the
blocks induce a coalgebra, every F(X) becomes a comodule, and natural
transformations F -> F (x) M factor uniquely through the quotient.

Control objects add further relation blocks (one per object and control),
shrinking the quotient; a monoidal structure on the diagram induces a
bialgebra, and declared duals induce an antipode.  Well-definedness of every
induced map is not trusted: it is an exact test that the map kills the
relations, followed by an exact axiom check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cohom import (
    Bialgebra,
    Coalgebra,
    CohomObject,
    Comodule,
    HopfAlgebra,
    coact,
    cohom,
    cohom_on_maps,
    unit_space,
)
from .exactlinalg import (
    LinearMap,
    NoSolution,
    Space,
    cokernel,
    compose_kron,
    direct_sum_space,
    dual,
    dual_space,
    identity,
    invert_map,
    kron_compose,
    swap_map,
    tensor,
    tensor_space,
)
from .fincat import DiagramFunctor, Transformation, check_monoidal


class WellDefinednessFailure(Exception):
    """An induced map on the quotient does not exist or fails its axioms."""


class NaturalityFailure(Exception):
    """A transformation expected to be (di)natural is not."""


class MissingControlData(Exception):
    """A control object lacks action or structure-isomorphism data."""


class MissingDual(Exception):
    """An object has no declared dual, so no antipode can be built."""


# ---------------------------------------------------------------------------
# diagrams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagramMorphism:
    name: str
    dom: str
    cod: str
    map: LinearMap


@dataclass
class Diagram:
    """A finite family of based spaces and maps between them; the minimal
    input the coequalizer needs."""

    field: object
    objects: list[str]
    spaces: dict[str, Space]
    morphisms: list[DiagramMorphism]


def diagram_of_functor(F: DiagramFunctor) -> Diagram:
    morphisms = [
        DiagramMorphism(m.name, m.dom, m.cod, F.map(m.name))
        for m in F.source.non_identity()
    ]
    return Diagram(F.field, list(F.source.objects), dict(F.ob), morphisms)


@dataclass(frozen=True)
class ControlData:
    """A control object: a space C, an action X |-> C.X on diagram objects,
    and structure isomorphisms xi_X: F(C.X) -> C (x) F(X)."""

    name: str
    space: Space
    action: dict[str, str]
    xi: dict[str, LinearMap]


def unit_control(d: Diagram) -> ControlData:
    """The trivial control: C = K acting identically; adds only zero
    relations, so the coend is unchanged bit for bit."""
    xi = {
        x: identity(d.spaces[x], d.field) for x in d.objects
    }
    return ControlData("unit", unit_space(), {x: x for x in d.objects}, xi)


# ---------------------------------------------------------------------------
# the coend result
# ---------------------------------------------------------------------------

@dataclass
class CoendResult:
    diagram: Diagram
    blocks: dict[str, CohomObject]
    offsets: dict[str, int]
    nspace: Space
    carrier: Space
    pi: LinearMap
    section: LinearMap
    rel: LinearMap
    injections: dict[str, LinearMap]
    coalgebra: Coalgebra
    delta: dict[str, LinearMap]
    controls: list[ControlData] = field(default_factory=list)
    bialgebra: Bialgebra | None = None
    hopf: HopfAlgebra | None = None

    @property
    def field(self):
        return self.diagram.field


def _block_inclusion(nspace, block: Space, offset: int, f) -> LinearMap:
    rows = []
    zero_row = (f.zero(),) * block.dim
    for i in range(nspace.dim):
        if offset <= i < offset + block.dim:
            rows.append(
                tuple(
                    f.one() if j == i - offset else f.zero() for j in range(block.dim)
                )
            )
        else:
            rows.append(zero_row)
    return LinearMap(f, block, nspace, tuple(rows))


def _morphism_relation_columns(d: Diagram, offsets, ndim, m: DiagramMorphism):
    """Columns in N of p - q for one morphism, one per basis vector of the
    mixed block cohom(F(dom), F(cod))."""
    f = d.field
    fx = d.spaces[m.dom]
    fy = d.spaces[m.cod]
    a = m.map
    # p: into the dom block via cohom(id, f); q: into the cod block via cohom(f, id)
    p_block = cohom_on_maps(identity(fx, f), a)
    q_block = cohom_on_maps(a, identity(fy, f))
    cols = []
    for u in range(fy.dim * fx.dim):
        col = [f.zero()] * ndim
        for i, v in enumerate(p_block.col(u)):
            if not f.is_zero(v):
                col[offsets[m.dom] + i] = f.add(col[offsets[m.dom] + i], v)
        for i, v in enumerate(q_block.col(u)):
            if not f.is_zero(v):
                col[offsets[m.cod] + i] = f.sub(col[offsets[m.cod] + i], v)
        cols.append(col)
    return cols


def control_lambda(d: Diagram, ctrl: ControlData, x: str) -> LinearMap:
    """The induced map cohom(F(C.X), C (x) F(X)) -> cohom(F(X), F(X)): the
    coaction of (id_C (x) coev_{F(X)}) o xi_X."""
    f = d.field
    fx = d.spaces[x]
    block = cohom(fx, fx, f)
    xi = ctrl.xi[x]
    chain = kron_compose(identity(ctrl.space, f), block.coev, xi)
    return coact(chain, tensor_space(ctrl.space, fx), block.carrier)


def _control_relation_columns(d: Diagram, offsets, ndim, ctrl: ControlData):
    f = d.field
    cols = []
    for x in d.objects:
        if x not in ctrl.action or ctrl.action[x] not in d.spaces:
            raise MissingControlData(
                f"control {ctrl.name!r} has no action on object {x!r}"
            )
        cx = ctrl.action[x]
        xi = ctrl.xi.get(x)
        if xi is None:
            raise MissingControlData(
                f"control {ctrl.name!r} has no structure isomorphism at {x!r}"
            )
        fx = d.spaces[x]
        fcx = d.spaces[cx]
        if xi.dom.dim != fcx.dim or xi.cod.dim != ctrl.space.dim * fx.dim:
            raise MissingControlData(
                f"control {ctrl.name!r}: xi at {x!r} has wrong shape"
            )
        if xi.rank() != xi.cod.dim or xi.dom.dim != xi.cod.dim:
            raise MissingControlData(
                f"control {ctrl.name!r}: xi at {x!r} is not an isomorphism"
            )
        # p: into the block at C.X via cohom(id, xi); q: into the block at X
        p_block = cohom_on_maps(identity(fcx, f), xi)
        q_block = control_lambda(d, ctrl, x)
        for u in range(p_block.dom.dim):
            col = [f.zero()] * ndim
            for i, v in enumerate(p_block.col(u)):
                if not f.is_zero(v):
                    col[offsets[cx] + i] = f.add(col[offsets[cx] + i], v)
            for i, v in enumerate(q_block.col(u)):
                if not f.is_zero(v):
                    col[offsets[x] + i] = f.sub(col[offsets[x] + i], v)
            cols.append(col)
    return cols


def coend_of_diagram(d: Diagram, controls: list[ControlData] | None = None) -> CoendResult:
    """The coequalizer presentation of the coend, with its induced coalgebra
    and the universal comodule family."""
    f = d.field
    blocks: dict[str, CohomObject] = {}
    offsets: dict[str, int] = {}
    off = 0
    for x in d.objects:
        fx = d.spaces[x]
        blocks[x] = cohom(fx, fx, f)
        offsets[x] = off
        off += blocks[x].carrier.dim
    nspace = direct_sum_space([blocks[x].carrier for x in d.objects])
    ndim = nspace.dim
    cols = []
    for m in d.morphisms:
        cols.extend(_morphism_relation_columns(d, offsets, ndim, m))
    for ctrl in controls or []:
        cols.extend(_control_relation_columns(d, offsets, ndim, ctrl))
    rel_dom = Space.std(len(cols), prefix="r")
    rel = LinearMap(
        f, rel_dom, nspace, tuple(tuple(c[i] for c in cols) for i in range(ndim))
    )
    pi, section = cokernel(rel)
    injections = {}
    for x in d.objects:
        incl = _block_inclusion(nspace, blocks[x].carrier, offsets[x], f)
        injections[x] = pi @ incl
    result = CoendResult(
        diagram=d,
        blocks=blocks,
        offsets=offsets,
        nspace=nspace,
        carrier=pi.cod,
        pi=pi,
        section=section,
        rel=rel,
        injections=injections,
        coalgebra=None,
        delta={},
        controls=list(controls or []),
    )
    result.coalgebra = coalgebra_on_coend(result)
    result.delta = {
        x: kron_compose(identity(d.spaces[x], f), injections[x], blocks[x].coev)
        for x in d.objects
    }
    return result


def coend_of_functor(F: DiagramFunctor) -> CoendResult:
    return coend_of_diagram(diagram_of_functor(F))


def c_coend(F: DiagramFunctor, controls: list[ControlData]) -> CoendResult:
    """Coend with control relations; with controls = [unit_control] the
    result is bit-identical to the plain coend."""
    return coend_of_diagram(diagram_of_functor(F), controls)


def verify_cowedge(r: CoendResult) -> list[str]:
    """The defining coequalizer relations: for every morphism f both
    functorial routes into the quotient agree."""
    f = r.field
    problems = []
    for m in r.diagram.morphisms:
        fx = r.diagram.spaces[m.dom]
        fy = r.diagram.spaces[m.cod]
        lhs = r.injections[m.dom] @ cohom_on_maps(identity(fx, f), m.map)
        rhs = r.injections[m.cod] @ cohom_on_maps(m.map, identity(fy, f))
        if lhs != rhs:
            problems.append(f"cowedge relation fails at morphism {m.name}")
    return problems


# ---------------------------------------------------------------------------
# induced coalgebra and comodules
# ---------------------------------------------------------------------------

def _blockwise_delta(r: CoendResult) -> LinearMap:
    """Delta_N: N -> N (x) N, the comatrix comultiplication on each block
    followed by the squared block inclusion."""
    f = r.field
    n = r.nspace.dim
    cols = []
    for x in r.diagram.objects:
        block = r.blocks[x]
        e = block.carrier.dim
        fx = r.diagram.spaces[x]
        dx = fx.dim
        off = r.offsets[x]
        for u in range(e):
            # delta(e_(j,i)) = sum_k e_(j,k) (x) e_(k,i) for the comatrix block
            j, i = divmod(u, dx)
            col = [f.zero()] * (n * n)
            for k in range(dx):
                a = off + j * dx + k
                b = off + k * dx + i
                col[a * n + b] = f.one()
            cols.append(col)
    dom = r.nspace
    cod = tensor_space(r.nspace, r.nspace)
    return LinearMap(
        f, dom, cod, tuple(tuple(c[i] for c in cols) for i in range(n * n))
    )


def _blockwise_counit(r: CoendResult) -> LinearMap:
    f = r.field
    row = []
    for x in r.diagram.objects:
        dx = r.diagram.spaces[x].dim
        for u in range(dx * dx):
            j, i = divmod(u, dx)
            row.append(f.one() if i == j else f.zero())
    return LinearMap(f, r.nspace, unit_space(), (tuple(row),))


def _descend(r: CoendResult, target: LinearMap, pair: bool = False) -> LinearMap:
    """The unique psi with psi o pi = target (psi o (pi (x) pi) = target when
    pair is set), as target o s for the section s of pi.

    Since ker(pi) = im(rel), psi exists exactly when target kills the
    relations; for pi (x) pi the kernel is im(rel) (x) N + N (x) im(rel).
    Raises NoSolution otherwise, as solve_factor would.
    """
    if pair:
        idn = identity(r.nspace, r.field)
        kills = [compose_kron(target, r.rel, idn), compose_kron(target, idn, r.rel)]
    else:
        kills = [target @ r.rel]
    if not all(k.is_zero_map() for k in kills):
        raise NoSolution("kernel of 'through' is not contained in kernel of 'target'")
    if pair:
        return compose_kron(target, r.section, r.section)
    return target @ r.section


def coalgebra_on_coend(r: CoendResult) -> Coalgebra:
    """The coalgebra induced on the quotient by the blockwise comatrix
    structure; well-definedness is tested exactly, then the axioms are
    verified."""
    f = r.field
    delta_n = _blockwise_delta(r)
    eps_n = _blockwise_counit(r)
    try:
        delta_q = _descend(r, kron_compose(r.pi, r.pi, delta_n))
        eps_q = _descend(r, eps_n)
    except NoSolution as exc:
        raise WellDefinednessFailure(
            f"induced coalgebra is not well defined: {exc}"
        ) from None
    coalg = Coalgebra(r.carrier, delta_q, eps_q)
    problems = coalg.check()
    if problems:
        raise WellDefinednessFailure("; ".join(problems))
    return coalg


def comodule_on(r: CoendResult, x: str) -> Comodule:
    """The comodule (F(X), (id (x) i_X) o coev) over the coend coalgebra;
    verifies the axioms and the naturality of the whole family."""
    f = r.field
    rho = kron_compose(identity(r.diagram.spaces[x], f), r.injections[x], r.blocks[x].coev)
    com = Comodule(r.diagram.spaces[x], r.coalgebra, rho)
    problems = com.check()
    idq = identity(r.carrier, f)
    for m in r.diagram.morphisms:
        if kron_compose(m.map, idq, r.delta[m.dom]) != r.delta[m.cod] @ m.map:
            problems.append(f"universal family is not natural at {m.name}")
    if problems:
        raise WellDefinednessFailure("; ".join(problems))
    return com


# ---------------------------------------------------------------------------
# the naturality <-> dinaturality correspondence, universal factorization
# ---------------------------------------------------------------------------

def _check_natural_on_diagram(d: Diagram, t: Transformation, m_space: Space) -> bool:
    f = d.field
    for x in d.objects:
        comp = t.components.get(x)
        if comp is None:
            return False
        if comp.dom.dim != d.spaces[x].dim or comp.cod.dim != d.spaces[x].dim * m_space.dim:
            return False
    idm = identity(m_space, f)
    for m in d.morphisms:
        if kron_compose(m.map, idm, t[m.dom]) != t[m.cod] @ m.map:
            return False
    return True


def nat_to_cowedge(r: CoendResult, t: Transformation, m_space: Space) -> dict[str, LinearMap]:
    """Turn a natural t: F -> F (x) M into the corresponding cowedge
    mu'_X = coact(t_X); raises NaturalityFailure on non-natural input."""
    if not _check_natural_on_diagram(r.diagram, t, m_space):
        raise NaturalityFailure("transformation is not natural")
    return {
        x: coact(t[x], r.diagram.spaces[x], m_space) for x in r.diagram.objects
    }


def cowedge_to_nat(r: CoendResult, w: dict[str, LinearMap], m_space: Space) -> Transformation:
    """Inverse direction: mu_X = (id (x) w_X) o coev; raises
    NaturalityFailure if the cowedge is not dinatural."""
    f = r.field
    t = Transformation(
        {
            x: kron_compose(identity(r.diagram.spaces[x], f), w[x], r.blocks[x].coev)
            for x in r.diagram.objects
        }
    )
    if not _check_natural_on_diagram(r.diagram, t, m_space):
        raise NaturalityFailure("cowedge is not dinatural")
    return t


def factor_through_coend(r: CoendResult, t: Transformation, m_space: Space) -> LinearMap:
    """The unique psi: Q -> M with (id (x) psi) o delta_X = t_X for all X."""
    f = r.field
    w = nat_to_cowedge(r, t, m_space)
    rows = []
    for i in range(m_space.dim):
        row = []
        for x in r.diagram.objects:
            row.extend(w[x].entries[i])
        rows.append(tuple(row))
    assembled = LinearMap(f, r.nspace, m_space, tuple(rows))
    try:
        return _descend(r, assembled)
    except NoSolution:
        raise NaturalityFailure(
            "cowedge does not descend to the quotient"
        ) from None


# ---------------------------------------------------------------------------
# control epimorphism
# ---------------------------------------------------------------------------

def epi_to_c_coend(r: CoendResult, r_c: CoendResult) -> LinearMap:
    """The coalgebra epimorphism from a coend onto the coend with more
    control relations; h o i_X = i'_X for every object."""
    if r.nspace.dim != r_c.nspace.dim or r.diagram.objects != r_c.diagram.objects:
        raise ValueError("coends were not computed from the same diagram")
    try:
        h = _descend(r, r_c.pi)
    except NoSolution:
        raise WellDefinednessFailure(
            "the second coend does not refine the first"
        ) from None
    problems = []
    if h.rank() != r_c.carrier.dim:
        problems.append("induced map is not surjective")
    for x in r.diagram.objects:
        if h @ r.injections[x] != r_c.injections[x]:
            problems.append(f"injection square fails at {x}")
    ca, cb = r.coalgebra, r_c.coalgebra
    if cb.delta @ h != kron_compose(h, h, ca.delta):
        problems.append("induced map does not respect comultiplication")
    if cb.counit @ h != ca.counit:
        problems.append("induced map does not respect counit")
    if problems:
        raise WellDefinednessFailure("; ".join(problems))
    return h


# ---------------------------------------------------------------------------
# bialgebra and Hopf structure
# ---------------------------------------------------------------------------

@dataclass
class MonoidalDiagram:
    """Monoidal data at the diagram level: object tensor table, structure
    isomorphisms, and optionally duals with identifications F(X*) ~ F(X)^*."""

    unit: str
    tensor_obj: dict[tuple[str, str], str]
    xi: dict[tuple[str, str], LinearMap]
    xi_unit: LinearMap
    duals: dict[str, str] | None = None
    dual_maps: dict[str, LinearMap] | None = None


def monoidal_diagram_of_functor(F: DiagramFunctor) -> MonoidalDiagram:
    if F.source.monoidal is None or F.monoidal is None:
        raise ValueError("functor carries no monoidal data")
    return MonoidalDiagram(
        unit=F.source.monoidal.unit,
        tensor_obj=dict(F.source.monoidal.tensor_obj),
        xi=dict(F.monoidal.xi),
        xi_unit=F.monoidal.xi_unit,
        duals=None if F.source.monoidal.duals is None else dict(F.source.monoidal.duals),
        dual_maps=None if F.monoidal.dual_maps is None else dict(F.monoidal.dual_maps),
    )


def _pair_braid(f, x_dim: int, y_dim: int) -> "list[int]":
    """Index permutation cohom(FX,FX) (x) cohom(FY,FY) ->
    cohom(FX (x) FY, FX (x) FY): ((j,i),(l,k)) |-> ((j,l),(i,k)).
    Returns target index per source index."""
    out = []
    for j in range(x_dim):
        for i in range(x_dim):
            for l in range(y_dim):
                for k in range(y_dim):
                    out.append((j * y_dim + l) * (x_dim * y_dim) + (i * y_dim + k))
    return out


def bialgebra_from_monoidal(r: CoendResult, mon: MonoidalDiagram) -> Bialgebra:
    """Multiplication on the coend from the blockwise cohom tensor law
    conjugated by the structure isomorphisms; unit from the monoidal unit."""
    f = r.field
    d = r.diagram
    n = r.nspace.dim
    mu = [[f.zero()] * (n * n) for _ in range(n)]  # rows x cols
    for x in d.objects:
        for y in d.objects:
            if (x, y) not in mon.tensor_obj:
                raise WellDefinednessFailure(f"missing object tensor ({x}, {y})")
            xy = mon.tensor_obj[(x, y)]
            xi = mon.xi.get((x, y))
            if xi is None:
                raise WellDefinednessFailure(f"missing xi at ({x}, {y})")
            fx, fy = d.spaces[x], d.spaces[y]
            braid = _pair_braid(f, fx.dim, fy.dim)
            conj = tensor(dual(invert_map(xi)), xi)
            ex, ey = r.blocks[x].carrier.dim, r.blocks[y].carrier.dim
            for u in range(ex):
                for v in range(ey):
                    src = (r.offsets[x] + u) * n + (r.offsets[y] + v)
                    tgt = braid[u * ey + v]
                    for i2, val in enumerate(conj.col(tgt)):
                        if not f.is_zero(val):
                            mu[r.offsets[xy] + i2][src] = f.add(
                                mu[r.offsets[xy] + i2][src], val
                            )
    mu_n = LinearMap(
        f, tensor_space(r.nspace, r.nspace), r.nspace, tuple(tuple(row) for row in mu)
    )
    try:
        m_q = _descend(r, r.pi @ mu_n, pair=True)
    except NoSolution:
        raise WellDefinednessFailure(
            "multiplication does not descend to the quotient"
        ) from None
    if mon.unit not in d.objects:
        raise WellDefinednessFailure("monoidal unit is not a diagram object")
    xi_u = mon.xi_unit
    u_q = compose_kron(r.injections[mon.unit], dual(invert_map(xi_u)), xi_u)
    bialg = Bialgebra(r.carrier, r.coalgebra.delta, r.coalgebra.counit, m_q, u_q)
    problems = bialg.check()
    if problems:
        raise WellDefinednessFailure("; ".join(problems))
    r.bialgebra = bialg
    return bialg


def bialgebra_on_coend(F: DiagramFunctor, r: CoendResult) -> Bialgebra:
    report = check_monoidal(F)
    if not report.ok:
        raise WellDefinednessFailure(
            "functor is not monoidal: " + "; ".join(report.problems)
        )
    return bialgebra_from_monoidal(r, monoidal_diagram_of_functor(F))


def antipode_from_monoidal(r: CoendResult, mon: MonoidalDiagram, bialg: Bialgebra | None = None) -> HopfAlgebra:
    """Antipode from declared duals: each block flips onto the block of the
    dual object through the identification F(X*) ~ F(X)^*."""
    f = r.field
    d = r.diagram
    if bialg is None:
        bialg = r.bialgebra
    if bialg is None:
        bialg = bialgebra_from_monoidal(r, mon)
    if mon.duals is None or mon.dual_maps is None:
        raise MissingDual("no dual objects or dual identifications declared")
    n = r.nspace.dim
    sigma = [[f.zero()] * n for _ in range(n)]
    for x in d.objects:
        if x not in mon.duals:
            raise MissingDual(f"object {x!r} has no declared dual")
        xstar = mon.duals[x]
        dmap = mon.dual_maps.get(x)
        if dmap is None:
            raise MissingDual(f"object {x!r} has no identification F(X*) ~ F(X)^*")
        fx = d.spaces[x]
        fxs = d.spaces[xstar]
        if dmap.dom.dim != fxs.dim or dmap.cod.dim != fx.dim or dmap.rank() != fx.dim:
            raise MissingDual(f"dual identification at {x!r} is not an isomorphism")
        flip = swap_map(dual_space(fx), fx, f)
        block_map = kron_compose(dual(dmap), invert_map(dmap), flip)
        for u in range(r.blocks[x].carrier.dim):
            for i2, val in enumerate(block_map.col(u)):
                if not f.is_zero(val):
                    sigma[r.offsets[xstar] + i2][r.offsets[x] + u] = f.add(
                        sigma[r.offsets[xstar] + i2][r.offsets[x] + u], val
                    )
    sigma_n = LinearMap(f, r.nspace, r.nspace, tuple(tuple(row) for row in sigma))
    try:
        s_q = _descend(r, r.pi @ sigma_n)
    except NoSolution:
        raise WellDefinednessFailure(
            "antipode does not descend to the quotient"
        ) from None
    hopf = HopfAlgebra(
        r.carrier, bialg.delta, bialg.counit, bialg.mult, bialg.unit, s_q
    )
    problems = hopf.check()
    if problems:
        raise WellDefinednessFailure("; ".join(problems))
    r.hopf = hopf
    return hopf


def antipode_on_coend(F: DiagramFunctor, r: CoendResult) -> HopfAlgebra:
    report = check_monoidal(F)
    if not report.ok:
        raise WellDefinednessFailure(
            "functor is not monoidal: " + "; ".join(report.problems)
        )
    return antipode_from_monoidal(r, monoidal_diagram_of_functor(F), r.bialgebra)
