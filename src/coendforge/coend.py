"""Coends of diagrams of based spaces, built as explicit coequalizers.

The coend of a diagram F is the cokernel of a single relation matrix into
N = (+)_X cohom(F(X), F(X)): every morphism f: X -> Y contributes, per basis
vector of the mixed block cohom(F(X), F(Y)), the difference of its two
functorial images.  The diagram keeps that matrix, block by block
(``fincat.Diagram.relations``), and ``verify_cowedge`` and the naturality of
the universal family test W o R_f = 0 on the same blocks, so each relation
is built once per diagram; a diagram with no morphisms has none, and its
cokernel is the identity.  On top of the quotient the comatrix coalgebras
of the blocks induce a coalgebra, every F(X) becomes a comodule, and
natural transformations F -> F (x) M factor uniquely through the quotient.

A control object adds no relation of its own kind: each xi_X is a diagram
morphism C.X -> X (``control_legs``), appended to the diagram's morphisms,
so the morphism relations are the only ones and a control shrinks the
quotient as any morphism does.  A monoidal structure on the diagram induces
a bialgebra, and declared duals induce an antipode.  Well-definedness of every
induced map is not trusted: each is built as psi = target o s for the section
s of pi, and its defining equation psi o pi = target is then checked exactly.
The descents of Delta and eps decide the coalgebra laws: Delta_N and eps_N
are the lawful blockwise comatrix coalgebra and pi is onto, so the quotient
coalgebra, every universal comodule and the control epimorphism obey their
laws once their descents hold, and none of them is checked again.  The
``*_from_monoidal`` constructors read the multiplication, unit and antipode
off the category's and the functor's monoidal tables, on blocks that are
1-dim or 0-dim once every xi is invertible; they refuse malformed tables
in the words of ``fincat.monoidal_table_problems`` and trust the rest (the
cocycle, unit and naturality squares).  The tables are checked once per
command: the constructors read the verdicts that ``validate_category`` and
``check_monoidal`` kept on the frozen monoidal records
(``fincat.monoidal_table_verdict``, ``CategoryMonoidalData.lawful_on``),
and decide a table law themselves only where no check has.  The tables
and the descents decide the laws these add: on the 1-dim objects O_1, N is
the monoid bialgebra K[O_1] when the object tensor is unital and
associative there, and e_x |-> e_(x*) is its antipode when
x* (x) x = I = x (x) x*; the descents of the multiplication and antipode
carry each law to Q, as pi is onto.  Only when a table law fails is the
algebra or antipode check run on Q, which may still be lawful once the
relations identify blocks.  Every constructor returns its structure or
raises ``WellDefinednessFailure``, and none of them writes to the
``CoendResult``.  The naturality of the universal family
is checked once per coend, in ``CoendResult.naturality_problems``.
``bialgebra_on_coend`` and ``antipode_on_coend`` run ``validate_category``
and ``check_monoidal`` first.

``Diagram`` and the naturality and cowedge laws live in ``fincat``
(``natural_problems``, ``cowedge_problems``); this module applies them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .cohom import (
    Bialgebra,
    Coalgebra,
    CohomObject,
    Comodule,
    HopfAlgebra,
    coact,
    cohom,
    comatrix,
    unit_space,
)
from .exactlinalg import (
    LinearMap,
    NoSolution,
    ScalarError,
    Space,
    cokernel,
    compose_kron,
    direct_sum_space,
    identity,
    kron_compose,
    tensor_space,
)
from .fincat import (
    CategoryMonoidalData,
    Diagram,
    DiagramFunctor,
    DiagramMorphism,
    FunctorMonoidalData,
    Transformation,
    check_monoidal,
    cowedge_problems,
    diagram_of_functor,
    monoidal_table_verdict,
    natural_problems,
    tensor_associativity_failures,
    validate_category,
)


class WellDefinednessFailure(Exception):
    """An induced map on the quotient does not exist or fails its axioms."""


class NaturalityFailure(Exception):
    """A transformation expected to be (di)natural is not."""


class MissingControlData(Exception):
    """A control object lacks action or structure-isomorphism data."""


class MissingDual(Exception):
    """An object has no declared dual, so no antipode can be built."""


# ---------------------------------------------------------------------------
# control objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ControlData:
    """A control object: a space C, an action X |-> C.X on diagram objects,
    and structure isomorphisms xi_X: F(C.X) -> C (x) F(X)."""

    name: str
    space: Space
    action: dict[str, str]
    xi: dict[str, LinearMap]


def unit_control(d: Diagram) -> ControlData:
    """The trivial control: C = K acting identically; its legs are the
    identities X -> X, whose relations are zero, so the coend is unchanged
    bit for bit."""
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
    injections: dict[str, LinearMap]
    coalgebra: Coalgebra
    delta: dict[str, LinearMap]

    @property
    def field(self):
        return self.diagram.field

    @cached_property
    def naturality_problems(self) -> list[str]:
        """Why the universal family delta is not natural, checked once per coend."""
        universal = natural_problems(self.diagram, Transformation(self.delta), self.carrier)
        return [f"universal family: {p}" for p in universal]


def control_legs(d: Diagram, ctrl: ControlData) -> list[DiagramMorphism]:
    """One leg C.X -> X per object, its map xi_X read as F(C.X) -> F(X).
    As K (x) F(X) flattens like F(X) and the coaction of coev o g is
    cohom(g, id), the leg's relation is, column for column, that of xi_X:
    cohom(id, xi_X) into the block at C.X minus the coaction of
    (id_C (x) coev) o xi_X into the block at X.  The tables are checked here
    and nowhere else: each action and xi shape first, then each xi's
    invertibility.  Shape lemma: invertible xi force
    dim F(C.X) = dim C * dim F(X), so if dim C >= 2 the X of largest dim has
    F(X) = 0, and if dim C = 0 every F(C.X) = 0.  Then every
    cohom(F(C.X), C (x) F(X)) is 0, so a control with dim C != 1 adds no leg."""
    for x in d.objects:
        if x not in ctrl.action:
            raise MissingControlData(f"control {ctrl.name!r} has no action on {x!r}")
        cx = ctrl.action[x]
        if cx not in d.objects:
            raise MissingControlData(
                f"control {ctrl.name!r}: action sends {x!r} to unknown object {cx!r}"
            )
        xi = ctrl.xi.get(x)
        if xi is None:
            raise MissingControlData(
                f"control {ctrl.name!r} has no structure isomorphism at {x!r}"
            )
        if (xi.dom.dim, xi.cod.dim) != (d.spaces[cx].dim, ctrl.space.dim * d.spaces[x].dim):
            raise MissingControlData(
                f"control {ctrl.name!r}: xi at {x!r} has wrong shape"
            )
    legs = []
    for x in d.objects:
        cx, xi = ctrl.action[x], ctrl.xi[x]
        if not xi.is_invertible():
            raise MissingControlData(
                f"control {ctrl.name!r}: xi at {x!r} is not an isomorphism"
            )
        if ctrl.space.dim == 1:
            leg = LinearMap.from_sparse(d.field, d.spaces[cx], d.spaces[x], xi.cols)
            legs.append(DiagramMorphism(f"{ctrl.name}.xi[{x}]", cx, x, leg))
    return legs


def coend_of_diagram(d: Diagram) -> CoendResult:
    """The coequalizer presentation of the coend, with its induced coalgebra
    and the universal comodule family."""
    f = d.field
    blocks = {x: cohom(d.spaces[x], d.spaces[x], f) for x in d.objects}
    offsets = d.offsets
    nspace = direct_sum_space([blocks[x].carrier for x in d.objects])
    rel = d.relations  # the diagram's own columns, not a copy
    pi, section = cokernel(LinearMap.from_sparse(f, Space.std(len(rel), prefix="r"), nspace, rel))
    injections = {}
    for x in d.objects:
        # i_X = pi restricted to block X: that block's columns of pi
        lo, hi = offsets[x], offsets[x] + blocks[x].carrier.dim
        injections[x] = LinearMap.from_sparse(f, blocks[x].carrier, pi.cod, pi.cols[lo:hi])
    result = CoendResult(
        diagram=d,
        blocks=blocks,
        offsets=offsets,
        nspace=nspace,
        carrier=pi.cod,
        pi=pi,
        section=section,
        injections=injections,
        coalgebra=None,
        delta={},
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
    """The coend of F's diagram with the legs of every control appended to
    its morphisms, so ``verify_cowedge`` and the universal family's
    naturality cover them too; with controls = [unit_control] the result is
    bit-identical to the plain coend."""
    d = diagram_of_functor(F)
    legs = [leg for ctrl in controls for leg in control_legs(d, ctrl)]
    return coend_of_diagram(replace(d, morphisms=d.morphisms + legs))


def verify_cowedge(r: CoendResult) -> list[str]:
    """The defining coequalizer relations: the injections form a cowedge."""
    return cowedge_problems(r.diagram, r.injections, r.carrier)


# ---------------------------------------------------------------------------
# induced coalgebra and comodules
# ---------------------------------------------------------------------------

def _require(problems: list[str]) -> None:
    """Raise if an induced structure fails its check."""
    if problems:
        raise WellDefinednessFailure("; ".join(problems))


def _descend(r: CoendResult, target: LinearMap, pair: bool = False) -> LinearMap:
    """The unique psi with psi o pi = target (psi o (pi (x) pi) = target when
    pair is set), built as target o s for the section s of pi.

    The defining equation is then checked exactly.  It holds exactly when
    target kills ker(pi), since v - s(pi(v)) lies in ker(pi) for every v.
    Raises NoSolution otherwise, as solve_factor would.  With no relations
    ``cokernel`` returns pi and s as flagged identities, and psi = target:
    its columns are returned on the domain of s (of s (x) s when pair is
    set), with no composition and nothing to check.
    """
    pi, s = r.pi, r.section
    if pi.cod.dim == pi.dom.dim:
        if target.field != pi.field:
            raise ScalarError("composing maps over different fields")
        dom = tensor_space(s.dom, s.dom) if pair else s.dom
        return LinearMap.from_sparse(target.field, dom, target.cod, target.cols)
    psi = compose_kron(target, s, s) if pair else target @ s
    back = compose_kron(psi, pi, pi) if pair else psi @ pi
    if back != target:
        raise NoSolution("kernel of 'through' is not contained in kernel of 'target'")
    return psi


def coalgebra_on_coend(r: CoendResult) -> Coalgebra:
    """The coalgebra induced on the quotient by the blockwise comatrix
    structure; well-definedness is tested exactly by the two descents, and
    they decide the axioms.

    Delta_N and eps_N, the comatrix coalgebras of the blocks, are lawful and
    pi is onto.  By Delta_Q o pi = (pi (x) pi) o Delta_N and eps_Q o pi = eps_N,
    (Delta_Q (x) id) Delta_Q pi = (pi (x) pi (x) pi)(Delta_N (x) id) Delta_N,
    which is (id (x) Delta_Q) Delta_Q pi likewise, and
    (eps_Q (x) id) Delta_Q pi = pi (eps_N (x) id) Delta_N = pi, as on the
    right; cancelling pi gives the laws of Q."""
    blocks = comatrix(r.nspace, [r.diagram.spaces[x].dim for x in r.diagram.objects], r.field)
    try:
        delta_q = _descend(r, kron_compose(r.pi, r.pi, blocks.delta))
        eps_q = _descend(r, blocks.counit)
    except NoSolution as exc:
        raise WellDefinednessFailure(
            f"induced coalgebra is not well defined: {exc}"
        ) from None
    return Coalgebra(r.carrier, delta_q, eps_q)


def comodule_on(r: CoendResult, x: str) -> Comodule:
    """The comodule (F(X), (id (x) i_X) o coev) over the coend coalgebra;
    verifies the naturality of the whole family, once per coend (kept as
    r.naturality_problems).  The descents decide the comodule laws:
    i_X = pi o in_X and Delta_N o in_X = (in_X (x) in_X) o Delta_X for the
    block's comatrix Delta_X, so Delta_Q o i_X = (i_X (x) i_X) o Delta_X and
    eps_Q o i_X = eps_X.  A coalgebra map i_X carries the lawful comatrix
    coaction coev to a lawful (id (x) i_X) o coev."""
    _require(r.naturality_problems)
    return Comodule(r.diagram.spaces[x], r.coalgebra, r.delta[x])


# ---------------------------------------------------------------------------
# the naturality <-> dinaturality correspondence, universal factorization
# ---------------------------------------------------------------------------

def nat_to_cowedge(r: CoendResult, t: Transformation, m_space: Space) -> dict[str, LinearMap]:
    """Turn a natural t: F -> F (x) M into the corresponding cowedge
    mu'_X = coact(t_X); raises NaturalityFailure on non-natural input."""
    if natural_problems(r.diagram, t, m_space):
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
    if natural_problems(r.diagram, t, m_space):
        raise NaturalityFailure("cowedge is not dinatural")
    return t


def factor_through_coend(r: CoendResult, t: Transformation, m_space: Space) -> LinearMap:
    """The unique psi: Q -> M with (id (x) psi) o delta_X = t_X for all X."""
    w = nat_to_cowedge(r, t, m_space)
    # the cowedge side by side, one block of columns per object
    cols = [col for x in r.diagram.objects for col in w[x].cols]
    assembled = LinearMap.from_sparse(r.field, r.nspace, m_space, cols)
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
    control relations.  Its defining equation h o pi = pi_c, checked by the
    descent, makes h onto and reads h o i_X = i'_X on the columns of each
    block.  It also makes h a coalgebra map: by the guard below both coends
    descend from the same Delta_N and eps_N, so
    Delta_c h pi = (pi_c (x) pi_c) Delta_N = (h (x) h) Delta_Q pi and
    eps_c h pi = eps_N = eps_Q pi, and pi is onto."""
    if (r.nspace.dim, r.offsets, r.diagram.objects) != (
            r_c.nspace.dim, r_c.offsets, r_c.diagram.objects):
        raise ValueError("coends were not computed from the same diagram")
    try:
        h = _descend(r, r_c.pi)
    except NoSolution:
        raise WellDefinednessFailure(
            "the second coend does not refine the first"
        ) from None
    return h


# ---------------------------------------------------------------------------
# bialgebra and Hopf structure
# ---------------------------------------------------------------------------


def _require_monoidal(F: DiagramFunctor) -> None:
    # check_monoidal names missing monoidal data first, then trusts a valid source
    report = validate_category(F.source)
    if report.ok or F.source.monoidal is None or F.monoidal is None:
        report = check_monoidal(F)
    if not report.ok:
        raise WellDefinednessFailure(
            "functor is not monoidal: " + "; ".join(report.problems)
        )


def _ones(r: CoendResult) -> list[str]:
    """O_1, the objects x with dim F(x) = 1, whose blocks span N once the
    tables pass; every other F(x) is 0-dim."""
    return [x for x in r.diagram.objects if r.diagram.spaces[x].dim == 1]


def bialgebra_from_monoidal(r: CoendResult, cat_mon: CategoryMonoidalData | None,
                            fun_mon: FunctorMonoidalData | None) -> Bialgebra:
    """Multiplication and unit on the coend, read off the monoidal tables.

    In general the product of the blocks at x and y is the blockwise cohom
    tensor law conjugated by xi at (x, y).  Invertible xi force every
    dim F(x) into {0, 1} (see ``check_monoidal``), so each xi between
    nonzero spaces is a nonzero scalar, the conjugation multiplies
    xi^-1 xi = 1, and the law reads e_x (x) e_y |-> e_(x (x) y) on the 1-dim
    blocks; the unit is the unit block's injection.  Every table entry is
    checked first, which is what makes the lemma apply: the verdict
    ``check_monoidal`` kept on the same records, objects and dimensions is
    read back, else ``fincat.monoidal_table_problems`` runs
    (``fincat.monoidal_table_verdict``).

    The tables then decide the laws.  The 1-dim objects O_1 contain the unit
    (xi_unit is an isomorphism) and are closed under the tensor, N has the
    basis e_x, x in O_1, and Delta_N(e_x) = e_x (x) e_x, eps_N(e_x) = 1.  So
    N is the monoid bialgebra K[O_1] when the tensor is unital,
    t(I, x) = x = t(x, I), and associative on O_1.  A tensor that
    ``validate_category`` found unital and associative on all the objects
    is so on O_1, which contains I and is closed under it; otherwise both
    laws are decided on O_1 (Light's test on names,
    ``fincat.tensor_associativity_failures``).  The descents carry every law
    to Q, as pi is onto: m_Q o (pi (x) pi) = pi o mu_N, u_Q = pi o in_I,
    Delta_Q o pi = (pi (x) pi) o Delta_N and eps_Q o pi = eps_N, so, for
    instance, Delta_Q m_Q (pi (x) pi) = (pi (x) pi) Delta_N mu_N =
    (m_Q (x) m_Q)(id (x) tau (x) id)(Delta_Q (x) Delta_Q)(pi (x) pi).  When a
    table law fails, Q may still be lawful once the relations identify
    blocks, so ``Bialgebra.algebra_problems`` decides it on Q."""
    problems = monoidal_table_verdict(r.diagram.objects, r.diagram.spaces, cat_mon, fun_mon)
    if problems:
        raise WellDefinednessFailure("functor is not monoidal: " + "; ".join(problems))
    f = r.field
    n, one = r.nspace.dim, f.one()
    t, ones = cat_mon.tensor_obj, _ones(r)
    mu = [{} for _ in range(n * n)]  # sparse columns
    for x in ones:
        for y in ones:
            mu[r.offsets[x] * n + r.offsets[y]] = {r.offsets[t[(x, y)]]: one}
    mu_n = LinearMap.from_sparse(f, tensor_space(r.nspace, r.nspace), r.nspace, mu)
    try:
        m_q = _descend(r, r.pi @ mu_n, pair=True)
    except NoSolution:
        raise WellDefinednessFailure(
            "multiplication does not descend to the quotient"
        ) from None
    bialg = Bialgebra(r.carrier, r.coalgebra.delta, r.coalgebra.counit, m_q,
                      r.injections[cat_mon.unit])
    monoid = cat_mon.lawful_on.get(tuple(r.diagram.objects)) or (
        all(t[(cat_mon.unit, x)] == x == t[(x, cat_mon.unit)] for x in ones)
        and not tensor_associativity_failures(ones, t))
    if not monoid:
        _require(bialg.algebra_problems())
    return bialg


def bialgebra_on_coend(F: DiagramFunctor, r: CoendResult) -> Bialgebra:
    _require_monoidal(F)
    return bialgebra_from_monoidal(r, F.source.monoidal, F.monoidal)


def antipode_from_monoidal(r: CoendResult, cat_mon: CategoryMonoidalData | None,
                           fun_mon: FunctorMonoidalData | None) -> HopfAlgebra:
    """Antipode from the declared duals: e_x |-> e_(x*) on the 1-dim blocks.

    In general the block at x flips onto the block at x* through the
    identification F(x*) ~ F(x)^*, conjugated by it; on a 1-dim block that
    is a nonzero scalar times its inverse.  The multiplication and unit are
    always ``bialgebra_from_monoidal``'s on the same tables, which checks
    them once.  An absent dual or identification is a ``MissingDual``.

    The tables then decide the antipode law.  Each identification
    F(x*) ~ F(x)^* makes x* 1-dim with x, and S_N(e_x) = e_(x*) gives
    mu_N (S_N (x) id) Delta_N (e_x) = e_(t(x*, x)) and
    mu_N (id (x) S_N) Delta_N (e_x) = e_(t(x, x*)), against
    u_N eps_N (e_x) = e_I.  So S_N is an antipode on N when
    t(x*, x) = I = t(x, x*) for every x in O_1, with t and I the tables the
    multiplication was read from.  The descents carry
    the law to Q: s_Q o pi = pi o S_N gives m_Q (s_Q (x) id) Delta_Q pi =
    pi mu_N (S_N (x) id) Delta_N = pi u_N eps_N = u_Q eps_Q pi, and pi is
    onto.  Otherwise ``HopfAlgebra.antipode_problems`` decides it on Q."""
    d = r.diagram
    bialg = bialgebra_from_monoidal(r, cat_mon, fun_mon)
    if cat_mon.duals is None or fun_mon.dual_maps is None:
        raise MissingDual("no dual objects or dual identifications declared")
    sigma = [{} for _ in range(r.nspace.dim)]  # sparse columns
    for x in d.objects:
        if x not in cat_mon.duals:
            raise MissingDual(f"object {x!r} has no declared dual")
        if x not in fun_mon.dual_maps:
            raise MissingDual(f"object {x!r} has no identification F(X*) ~ F(X)^*")
        if d.spaces[x].dim == 1:
            sigma[r.offsets[x]] = {r.offsets[cat_mon.duals[x]]: r.field.one()}
    sigma_n = LinearMap.from_sparse(r.field, r.nspace, r.nspace, sigma)
    try:
        s_q = _descend(r, r.pi @ sigma_n)
    except NoSolution:
        raise WellDefinednessFailure(
            "antipode does not descend to the quotient"
        ) from None
    hopf = HopfAlgebra(
        r.carrier, bialg.delta, bialg.counit, bialg.mult, bialg.unit, s_q
    )
    t, unit, duals = cat_mon.tensor_obj, cat_mon.unit, cat_mon.duals
    if not all(t[(duals[x], x)] == unit == t[(x, duals[x])] for x in _ones(r)):
        _require(hopf.antipode_problems())
    return hopf


def antipode_on_coend(F: DiagramFunctor, r: CoendResult) -> HopfAlgebra:
    _require_monoidal(F)
    return antipode_from_monoidal(r, F.source.monoidal, F.monoidal)
