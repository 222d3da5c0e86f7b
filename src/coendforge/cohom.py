"""Cohomomorphism objects and the structure maps built from them.

For finite-dimensional based spaces the cohomomorphism object cohom(X, Y)
(the value at X of the left adjoint of Y (x) -) is realized concretely as
Y* (x) X: the carrier basis is the pairs (j, i) ~ y'_j (x) x_i, flattened as
j * dim(X) + i, and the universal coevaluation sends x_i to
sum_j y_j (x) e_(j,i).  Every universal-property statement then becomes an
exact matrix identity, and `coact` is literally an index reshuffle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactlinalg import (
    LinearMap,
    Space,
    _apply,
    _apply2,
    _cols,
    dual,
    dual_space,
    identity,
    kron_compose,
    swap_map,
    tensor,
    tensor_space,
)


class AxiomError(ValueError):
    """An exact structure-map axiom failed on the given input."""


class FactorShapeError(ValueError):
    """Declared tensor factors do not match the shape of the map."""


def unit_space() -> Space:
    return Space(("1",))


# ---------------------------------------------------------------------------
# cohom objects, coact, functoriality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CohomObject:
    """Carrier Y* (x) X together with the universal coevaluation
    coev: X -> Y (x) carrier (a 0/1 matrix in the standard bases)."""

    x: Space
    y: Space
    carrier: Space
    coev: LinearMap


def cohom(x: Space, y: Space, field) -> CohomObject:
    carrier = tensor_space(dual_space(y), x)
    n, m = x.dim, y.dim
    cod = tensor_space(y, carrier)
    rows = [[field.zero()] * n for _ in range(cod.dim)]
    for i in range(n):
        for j in range(m):
            # y_j (x) e_(j,i) at flat row j * (m*n) + j * n + i
            rows[j * (m * n) + j * n + i][i] = field.one()
    coev = LinearMap(field, x, cod, tuple(tuple(r) for r in rows))
    return CohomObject(x, y, carrier, coev)


def coact(phi: LinearMap, y: Space, z: Space) -> LinearMap:
    """The unique map cohom(X, Y) -> Z with (id_Y (x) coact(phi)) o coev = phi,
    for phi: X -> Y (x) Z with declared factors y and z."""
    if phi.cod.dim != y.dim * z.dim:
        raise FactorShapeError(
            f"codomain dim {phi.cod.dim} is not dim(Y)*dim(Z) = {y.dim}*{z.dim}"
        )
    field = phi.field
    x = phi.dom
    n, m = x.dim, y.dim
    carrier = tensor_space(dual_space(y), x)
    rows = []
    for k in range(z.dim):
        row = [field.zero()] * (m * n)
        for j in range(m):
            for i in range(n):
                row[j * n + i] = phi.entries[j * z.dim + k][i]
        rows.append(tuple(row))
    return LinearMap(field, carrier, z, tuple(rows))


def cohom_on_maps(a: LinearMap, b: LinearMap) -> LinearMap:
    """Functoriality of cohom: for a: X -> X' and b: Y' -> Y this is the map
    cohom(X, Y) -> cohom(X', Y'), covariant in X and contravariant in Y;
    concretely dual(b) (x) a."""
    return tensor(dual(b), a)


def cocompose(x: Space, y: Space, z: Space, field) -> LinearMap:
    """Cocomposition cohom(X, Y) -> cohom(Z, Y) (x) cohom(X, Z), the coaction
    of the composite (coev_{Z,Y} (x) id) o coev_{X,Z}."""
    inner = cohom(x, z, field)
    outer = cohom(z, y, field)
    chain = kron_compose(outer.coev, identity(inner.carrier, field), inner.coev)
    return coact(chain, y, tensor_space(outer.carrier, inner.carrier))


def cohom_collapse_iso(x: Space, y: Space, z: Space, field) -> LinearMap:
    """The explicit carrier isomorphism cohom(X, Y (x) Z) ->
    cohom(cohom(X, Y), Z) realizing the hom-set identity
    Hom(cohom(cohom(X,Y),Z), T) = Hom(cohom(X, Y(x)Z), T).

    It is the coaction of (id_Y (x) coev_{cohom(X,Y),Z}) o coev_{X,Y} and is a
    permutation matrix in the standard bases.
    """
    inner = cohom(x, y, field)
    outer = cohom(inner.carrier, z, field)
    chain = kron_compose(identity(y, field), outer.coev, inner.coev)
    return coact(chain, tensor_space(y, z), outer.carrier)


# ---------------------------------------------------------------------------
# coalgebras, comodules, bialgebras, Hopf algebras; the checks evaluate
# columnwise on sparse vectors (see exactlinalg._apply2)
# ---------------------------------------------------------------------------

def _id_cols(n, f):
    return [{i: f.one()} for i in range(n)]


def _unit_vec(i, f):
    return {i: f.one()}


@dataclass(frozen=True)
class Coalgebra:
    """(C, delta, counit) with exact axiom checking."""

    carrier: Space
    delta: LinearMap
    counit: LinearMap

    @property
    def field(self):
        return self.delta.field

    def check(self) -> list[str]:
        f = self.field
        n = self.carrier.dim
        if self.delta.dom.dim != n or self.delta.cod.dim != n * n:
            return ["comultiplication has wrong shape"]
        if self.counit.dom.dim != n or self.counit.cod.dim != 1:
            return ["counit has wrong shape"]
        dcols = _cols(self.delta)
        ecols = _cols(self.counit)
        idc = _id_cols(n, f)
        problems = []
        coassoc = counit_l = counit_r = True
        for i in range(n):
            d = dcols[i]
            if _apply2(dcols, n, idc, n, d, f) != _apply2(idc, n, dcols, n * n, d, f):
                coassoc = False
            if _apply2(ecols, n, idc, n, d, f) != _unit_vec(i, f):
                counit_l = False
            if _apply2(idc, n, ecols, 1, d, f) != _unit_vec(i, f):
                counit_r = False
        if not coassoc:
            problems.append("comultiplication is not coassociative")
        if not counit_l:
            problems.append("left counit law fails")
        if not counit_r:
            problems.append("right counit law fails")
        return problems

    def require_valid(self):
        problems = self.check()
        if problems:
            raise AxiomError("; ".join(problems))


@dataclass(frozen=True)
class Comodule:
    """A right comodule (V, rho) over a coalgebra."""

    space: Space
    over: Coalgebra
    rho: LinearMap

    def check(self) -> list[str]:
        f = self.over.field
        nv = self.space.dim
        nc = self.over.carrier.dim
        if self.rho.dom.dim != nv or self.rho.cod.dim != nv * nc:
            return ["coaction has wrong shape"]
        rcols = _cols(self.rho)
        dcols = _cols(self.over.delta)
        ecols = _cols(self.over.counit)
        idv = _id_cols(nv, f)
        idc = _id_cols(nc, f)
        problems = []
        coassoc = counit = True
        for i in range(nv):
            r = rcols[i]
            if _apply2(rcols, nc, idc, nc, r, f) != _apply2(idv, nc, dcols, nc * nc, r, f):
                coassoc = False
            if _apply2(idv, nc, ecols, 1, r, f) != _unit_vec(i, f):
                counit = False
        if not coassoc:
            problems.append("coaction is not coassociative")
        if not counit:
            problems.append("coaction counit law fails")
        return problems

    def require_valid(self):
        problems = self.check()
        if problems:
            raise AxiomError("; ".join(problems))


@dataclass(frozen=True)
class Bialgebra(Coalgebra):
    mult: LinearMap
    unit: LinearMap

    def check(self) -> list[str]:
        problems = super().check()
        f = self.field
        n = self.carrier.dim
        m, u = self.mult, self.unit
        if m.dom.dim != n * n or m.cod.dim != n:
            return problems + ["multiplication has wrong shape"]
        if u.dom.dim != 1 or u.cod.dim != n:
            return problems + ["unit has wrong shape"]
        mcols = _cols(m)
        ucols = _cols(u)
        dcols = _cols(self.delta)
        ecols = _cols(self.counit)
        idc = _id_cols(n, f)
        assoc = unit_law = compat = eps_alg = True
        for i in range(n):
            for j in range(n):
                eij = _unit_vec(i * n + j, f)
                for k in range(n):
                    # associativity on the basis triple (i, j, k)
                    left = _apply(mcols, _apply2(mcols, n, idc, n,
                                                 _unit_vec((i * n + j) * n + k, f), f), f)
                    right = _apply(mcols, _apply2(idc, n * n, mcols, n,
                                                  _unit_vec(i * (n * n) + j * n + k, f), f), f)
                    if left != right:
                        assoc = False
                mij = _apply(mcols, eij, f)
                # Delta(ab) vs Delta(a) Delta(b) with the middle legs swapped
                lhs = _apply(dcols, mij, f)
                di, dj = dcols[i], dcols[j]
                rhs: dict = {}
                for ab, ca in di.items():
                    a, b = divmod(ab, n)
                    for cd, cb in dj.items():
                        c, d = divmod(cd, n)
                        coef = f.mul(ca, cb)
                        for ac, cac in _apply(mcols, {a * n + c: f.one()}, f).items():
                            for bd, cbd in _apply(mcols, {b * n + d: f.one()}, f).items():
                                idx = ac * n + bd
                                v = f.add(rhs.get(idx, f.zero()),
                                          f.mul(coef, f.mul(cac, cbd)))
                                if f.is_zero(v):
                                    rhs.pop(idx, None)
                                else:
                                    rhs[idx] = v
                if lhs != rhs:
                    compat = False
                # eps(ab) = eps(a) eps(b)
                li = _apply(ecols, mij, f).get(0, f.zero())
                ri = f.mul(
                    _apply(ecols, _unit_vec(i, f), f).get(0, f.zero()),
                    _apply(ecols, _unit_vec(j, f), f).get(0, f.zero()),
                )
                if li != ri:
                    eps_alg = False
        one = _apply(ucols, _unit_vec(0, f), f)
        for i in range(n):
            # K (x) C and C (x) K are identified with C by flat indexing
            l = _apply2(ucols, n, idc, n, _unit_vec(i, f), f)
            r = _apply2(idc, 1, ucols, n, _unit_vec(i, f), f)
            if _apply(mcols, l, f) != _unit_vec(i, f) or _apply(mcols, r, f) != _unit_vec(i, f):
                unit_law = False
        du = _apply(dcols, one, f)
        uu = {a * n + b: f.mul(ca, cb) for a, ca in one.items() for b, cb in one.items()}
        uu = {k: v for k, v in uu.items() if not f.is_zero(v)}
        eps_u = _apply(ecols, one, f)
        if not assoc:
            problems.append("multiplication is not associative")
        if not unit_law:
            problems.append("unit law fails")
        if not compat:
            problems.append("comultiplication is not an algebra morphism")
        if not eps_alg:
            problems.append("counit is not an algebra morphism")
        if du != uu:
            problems.append("unit is not grouplike")
        if eps_u != {0: f.one()}:
            problems.append("counit of unit is not 1")
        return problems


@dataclass(frozen=True)
class HopfAlgebra(Bialgebra):
    antipode: LinearMap

    def check(self) -> list[str]:
        problems = super().check()
        f = self.field
        n = self.carrier.dim
        s = self.antipode
        if s.dom.dim != n or s.cod.dim != n:
            return problems + ["antipode has wrong shape"]
        scols = _cols(s)
        mcols = _cols(self.mult)
        dcols = _cols(self.delta)
        ecols = _cols(self.counit)
        ucols = _cols(self.unit)
        idc = _id_cols(n, f)
        left = right = True
        for i in range(n):
            d = dcols[i]
            ue = _apply(ucols, _apply(ecols, _unit_vec(i, f), f), f)
            if _apply(mcols, _apply2(scols, n, idc, n, d, f), f) != ue:
                left = False
            if _apply(mcols, _apply2(idc, n, scols, n, d, f), f) != ue:
                right = False
        if not left:
            problems.append("left antipode axiom fails")
        if not right:
            problems.append("right antipode axiom fails")
        return problems


def trivial_coalgebra(field) -> Coalgebra:
    k = unit_space()
    one = identity(k, field)
    return Coalgebra(k, one, one)


def grouplike_coalgebra(field, labels) -> Coalgebra:
    """The coalgebra with a basis of grouplikes: delta(g) = g (x) g, eps(g) = 1."""
    space = Space(tuple(labels))
    n = space.dim
    rows = [[field.zero()] * n for _ in range(n * n)]
    for i in range(n):
        rows[i * n + i][i] = field.one()
    delta = LinearMap(field, space, tensor_space(space, space), tuple(tuple(r) for r in rows))
    counit = LinearMap(field, space, unit_space(), (tuple(field.one() for _ in range(n)),))
    return Coalgebra(space, delta, counit)


def group_hopf_algebra(field, labels, product, inverse) -> HopfAlgebra:
    """The group algebra of a finite group as a Hopf algebra: ``product`` and
    ``inverse`` act on basis indices."""
    base = grouplike_coalgebra(field, labels)
    n = base.carrier.dim
    m_rows = [[field.zero()] * (n * n) for _ in range(n)]
    for i in range(n):
        for j in range(n):
            m_rows[product(i, j)][i * n + j] = field.one()
    mult = LinearMap(field, tensor_space(base.carrier, base.carrier), base.carrier,
                     tuple(tuple(r) for r in m_rows))
    e = product_identity(product, n)
    u_rows = [[field.one() if i == e else field.zero()] for i in range(n)]
    unit = LinearMap(field, unit_space(), base.carrier, tuple(tuple(r) for r in u_rows))
    s_rows = [[field.zero()] * n for _ in range(n)]
    for i in range(n):
        s_rows[inverse(i)][i] = field.one()
    antipode = LinearMap(field, base.carrier, base.carrier, tuple(tuple(r) for r in s_rows))
    return HopfAlgebra(base.carrier, base.delta, base.counit, mult, unit, antipode)


def product_identity(product, n) -> int:
    for e in range(n):
        if all(product(e, i) == i and product(i, e) == i for i in range(n)):
            return e
    raise ValueError("product table has no identity element")


def tensor_comodule(a: Comodule, b: Comodule, bialg: Bialgebra) -> Comodule:
    """Tensor product of comodules over a bialgebra: coact on both factors,
    swap the middle legs, multiply."""
    f = bialg.field
    h = bialg.carrier
    ab = tensor_space(a.space, b.space)
    middle = tensor(identity(a.space, f), swap_map(h, b.space, f))
    rho = kron_compose(
        identity(ab, f), bialg.mult,
        kron_compose(middle, identity(h, f), tensor(a.rho, b.rho)),
    )
    return Comodule(ab, Coalgebra(h, bialg.delta, bialg.counit), rho)


# ---------------------------------------------------------------------------
# the coendomorphism coalgebra of one object
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoendObject:
    """cohom(X, X) with its comatrix coalgebra structure and the tautological
    comodule structure coev on X."""

    cohom: CohomObject
    coalgebra: Coalgebra
    comodule: Comodule


def coend_object(x: Space, field) -> CoendObject:
    ch = cohom(x, x, field)
    e = ch.carrier
    delta = coact(
        kron_compose(ch.coev, identity(e, field), ch.coev),
        x,
        tensor_space(e, e),
    )
    counit = coact(identity(x, field), x, unit_space())
    coalg = Coalgebra(e, delta, counit)
    com = Comodule(x, coalg, ch.coev)
    return CoendObject(ch, coalg, com)


def induce_coaction(phi: LinearMap, c: Coalgebra):
    """From a comodule coaction phi: X -> X (x) C, the induced coaction
    rho_phi on cohom(X, X) and the coalgebra morphism z = coact(phi) to C.

    Raises AxiomError if (X, phi) is not a comodule over C.
    """
    f = phi.field
    x = phi.dom
    Comodule(x, c, phi).require_valid()
    ce = coend_object(x, f)
    e = ce.cohom.carrier
    rho_phi = coact(
        kron_compose(ce.cohom.coev, identity(c.carrier, f), phi),
        x,
        tensor_space(e, c.carrier),
    )
    z = coact(phi, x, c.carrier)
    Comodule(e, c, rho_phi).require_valid()
    _require_coalgebra_morphism(z, ce.coalgebra, c)
    # z is recovered from rho_phi by stripping the coend leg with the counit
    if z != kron_compose(ce.coalgebra.counit, identity(c.carrier, f), rho_phi):
        raise AxiomError("induced coaction does not collapse to coact(phi)")
    return rho_phi, z


def _require_coalgebra_morphism(z: LinearMap, src: Coalgebra, dst: Coalgebra):
    if dst.delta @ z != kron_compose(z, z, src.delta):
        raise AxiomError("map does not respect comultiplication")
    if dst.counit @ z != src.counit:
        raise AxiomError("map does not respect counit")


def is_coalgebra_morphism(z: LinearMap, src: Coalgebra, dst: Coalgebra) -> bool:
    return (
        dst.delta @ z == kron_compose(z, z, src.delta)
        and dst.counit @ z == src.counit
    )


# ---------------------------------------------------------------------------
# rigidity: dual pairs
# ---------------------------------------------------------------------------

def evaluation(x: Space, field) -> LinearMap:
    """ev: X* (x) X -> K pairing dual basis against basis."""
    dom = tensor_space(dual_space(x), x)
    row = []
    for j in range(x.dim):
        for i in range(x.dim):
            row.append(field.one() if i == j else field.zero())
    return LinearMap(field, dom, unit_space(), (tuple(row),))


def db_map(x: Space, field) -> LinearMap:
    """db: K -> X (x) X*, 1 |-> sum_i x_i (x) x'_i."""
    cod = tensor_space(x, dual_space(x))
    col = []
    for i in range(x.dim):
        for j in range(x.dim):
            col.append(field.one() if i == j else field.zero())
    return LinearMap(field, unit_space(), cod, tuple((a,) for a in col))


# ---------------------------------------------------------------------------
# Hopf comodule structure on cohom(X, Y)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CohomCoactions:
    cohom: CohomObject
    rho_right: LinearMap
    rho_left: LinearMap
    rho: LinearMap


def cohom_coactions(h: HopfAlgebra, xcom: Comodule, ycom: Comodule) -> CohomCoactions:
    """The right, left and combined H-comodule coactions on cohom(X, Y) for
    H-comodules X and Y; the combined one makes coev a comodule morphism.

    Raises AxiomError if H or a comodule fails its axioms.
    """
    f = h.field
    h.require_valid()
    xcom.require_valid()
    ycom.require_valid()
    x, y = xcom.space, ycom.space
    ch = cohom(x, y, f)
    e = ch.carrier
    hs = h.carrier
    ide = identity(e, f)
    idh = identity(hs, f)
    coev_rho_x = kron_compose(ch.coev, idh, xcom.rho)
    rho_right = coact(coev_rho_x, y, tensor_space(e, hs))
    rho_left_tilde = coact(
        kron_compose(ycom.rho, ide, ch.coev), y, tensor_space(hs, e)
    )
    rho_left = kron_compose(ide, h.antipode, swap_map(hs, e, f) @ rho_left_tilde)
    rho = kron_compose(ide, h.mult, kron_compose(rho_left, idh, rho_right))
    hcoalg = Coalgebra(hs, h.delta, h.counit)
    for name, r in [("right", rho_right), ("left", rho_left), ("combined", rho)]:
        problems = Comodule(e, hcoalg, r).check()
        if problems:
            raise AxiomError(f"{name} coaction on cohom fails: " + "; ".join(problems))
    # coev must intertwine rho_X with the tensor coaction on Y (x) cohom
    target = tensor_comodule(ycom, Comodule(e, hcoalg, rho), h)
    if target.rho @ ch.coev != coev_rho_x:
        raise AxiomError("coevaluation is not a comodule morphism for the combined coaction")
    return CohomCoactions(ch, rho_right, rho_left, rho)
