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
from functools import cached_property

from .exactlinalg import (
    LinearMap,
    Space,
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
    one = field.one()
    # x_i |-> sum_j y_j (x) e_(j,i), at flat rows j * (m*n) + j * n + i
    cols = [{j * (m * n) + j * n + i: one for j in range(m)} for i in range(n)]
    coev = LinearMap.from_sparse(field, x, tensor_space(y, carrier), cols)
    return CohomObject(x, y, carrier, coev)


def coact(phi: LinearMap, y: Space, z: Space) -> LinearMap:
    """The unique map cohom(X, Y) -> Z with (id_Y (x) coact(phi)) o coev = phi,
    for phi: X -> Y (x) Z with declared factors y and z."""
    if phi.cod.dim != y.dim * z.dim:
        raise FactorShapeError(
            f"codomain dim {phi.cod.dim} is not dim(Y)*dim(Z) = {y.dim}*{z.dim}"
        )
    x = phi.dom
    n = x.dim
    # entry ((j, k), i) of phi is entry (k, (j, i)) of coact(phi)
    cols = [{} for _ in range(y.dim * n)]
    for i, col in enumerate(phi.cols):
        for r, v in col.items():
            j, k = divmod(r, z.dim)
            cols[j * n + i][k] = v
    return LinearMap.from_sparse(phi.field, tensor_space(dual_space(y), x), z, cols)


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
# coalgebras, comodules, bialgebras, Hopf algebras; each axiom is one exact
# map identity, with Kronecker products applied lazily
# ---------------------------------------------------------------------------

def _shape_problems(maps) -> list[str]:
    """["<name> has wrong shape"] for the first (name, map, dom dim, cod dim)
    of maps whose map has other dimensions, else []."""
    for name, m, dom, cod in maps:
        if m.dom.dim != dom or m.cod.dim != cod:
            return [f"{name} has wrong shape"]
    return []


@dataclass(frozen=True)
class Coalgebra:
    """(C, delta, counit) with exact axiom checking."""

    carrier: Space
    delta: LinearMap
    counit: LinearMap

    @property
    def field(self):
        return self.delta.field

    @cached_property
    def dual_generators(self) -> list[int]:
        """``dual_generators(self.delta)``, found once per coalgebra; read it
        only once delta has the shape C -> C (x) C."""
        return dual_generators(self.delta)

    def _coalgebra_maps(self) -> list:
        n = self.carrier.dim
        return [("comultiplication", self.delta, n, n * n), ("counit", self.counit, n, 1)]

    def check(self) -> list[str]:
        problems = _shape_problems(self._coalgebra_maps())
        if problems:
            return problems
        d, e = self.delta, self.counit
        idc = identity(self.carrier, self.field)
        if not coassociative(d, self.dual_generators):
            problems.append("comultiplication is not coassociative")
        if kron_compose(e, idc, d) != idc:
            problems.append("left counit law fails")
        if kron_compose(idc, e, d) != idc:
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

    @cached_property
    def law_problems(self) -> tuple[str, ...]:
        """Why (V, rho) breaks the comodule laws, or (); computed once per
        comodule, so a comodule checked by the CLI and again as a seed of a
        reconstruction pays once."""
        c, rho = self.over, self.rho
        if rho.dom.dim != self.space.dim or rho.cod.dim != self.space.dim * c.carrier.dim:
            return ("coaction has wrong shape",)
        idv, idc = identity(self.space, c.field), identity(c.carrier, c.field)
        problems = []
        if kron_compose(rho, idc, rho) != kron_compose(idv, c.delta, rho):
            problems.append("coaction is not coassociative")
        if kron_compose(idv, c.counit, rho) != idv:
            problems.append("coaction counit law fails")
        return tuple(problems)

    def check(self) -> list[str]:
        return list(self.law_problems)

    def require_valid(self):
        problems = self.check()
        if problems:
            raise AxiomError("; ".join(problems))


def product_generators(items, product) -> list:
    """The items, in order, that no left-bracketed product (..(g1 g2)..) gk
    of earlier generators reaches; product(y, g) is the item that y g is a
    nonzero multiple of, or None.  Every item is a generator or a nonzero
    multiple of such a product.

    Light's associativity test (Clifford and Preston, The Algebraic Theory
    of Semigroups I, 1.2) rests on this: the middle-associative elements
    {y : (x y) z = x (y z) for all x, z} are closed under sums and products,
    so a product is associative iff (x s) z = x (s z) for every x, z and
    every generator s, n^2 |S| triples in place of n^3.  A group of order n
    has at most log2(n) + 1 generators here, Z/n two.
    """
    gens, reached = [], set()
    for item in items:
        if item in reached:
            continue
        gens.append(item)
        reached.add(item)
        # close the reached set under right multiplication by each generator
        work = [(y, item) for y in reached] + [(item, g) for g in gens]
        while work:
            z = product(*work.pop())
            if z is not None and z not in reached:
                reached.add(z)
                work.extend((z, g) for g in gens)
    return gens


def dual_generators(delta: LinearMap) -> list[int]:
    """The basis indices of the dual algebra (C*, delta^T) that
    ``product_generators`` keeps, for delta: C -> C (x) C.  In C*,
    e*_y e*_g = sum_z delta[(y, g), z] e*_z, so e*_y e*_g reaches e*_z when
    row y * n + g of delta is the single entry z.  comatrix(d)* = M_d(K)
    has 2d - 1 generators, O(G)* = K[G] at most log2|G| + 1."""
    n = delta.dom.dim
    single = {}  # row -> its column if it is the row's only entry, else None
    for z, col in enumerate(delta.cols):
        for r in col:
            single[r] = None if r in single else z
    return product_generators(range(n), lambda y, g: single.get(y * n + g))


def coassociative(d: LinearMap, gens) -> bool:
    """True iff (d (x) id) d = (id (x) d) d for d: C -> C (x) C, where gens
    are the generators of (C*, d^T) from ``dual_generators``.

    d is coassociative iff (C*, d^T) is associative, so this is Light's test
    (see ``product_generators``): with i: K^S -> C* the inclusion of the
    generators, ((id (x) i)^T d (x) id) d = (id (x) (i (x) id)^T d) d,
    which compares only the coordinates whose middle leg is a generator and
    is exact for any bilinear product.  When every basis vector is a
    generator, i is the identity and this is the full check.
    """
    f, c = d.field, d.dom
    n, k = c.dim, len(gens)
    idc = identity(c, f)
    if k == n:  # i is the identity
        left = right = d
    else:
        slot = {g: s for s, g in enumerate(gens)}
        # (id (x) i)^T d keeps the entries (y, g) of d, (i (x) id)^T d the
        # entries (g, z)
        y_s, s_z = [], []
        for col in d.cols:
            ys, sz = {}, {}
            for r, a in col.items():
                y, z = divmod(r, n)
                if z in slot:
                    ys[y * k + slot[z]] = a
                if y in slot:
                    sz[slot[y] * n + z] = a
            y_s.append(ys)
            s_z.append(sz)
        ks = Space.std(k)
        left = LinearMap.from_sparse(f, c, tensor_space(c, ks), y_s)
        right = LinearMap.from_sparse(f, c, tensor_space(ks, c), s_z)
    return kron_compose(left, idc, d) == kron_compose(idc, right, d)


def intertwines(g: LinearMap, rho_src: LinearMap, rho_dst: LinearMap, c: Space) -> bool:
    """True iff (g (x) id_C) o rho_src = rho_dst o g exactly: g is a morphism
    of coactions rho_src: V -> V (x) C and rho_dst: W -> W (x) C."""
    return kron_compose(g, identity(c, g.field), rho_src) == rho_dst @ g


@dataclass(frozen=True)
class Bialgebra(Coalgebra):
    mult: LinearMap
    unit: LinearMap

    def _bialgebra_maps(self) -> list:
        n = self.carrier.dim
        return self._coalgebra_maps() + [("multiplication", self.mult, n * n, n),
                                         ("unit", self.unit, 1, n)]

    def check(self) -> list[str]:
        problems = super().check()
        if _shape_problems(self._coalgebra_maps()):  # already named, once
            return problems
        return problems + self.algebra_problems()

    def algebra_problems(self) -> list[str]:
        """The axioms the multiplication and unit add to the coalgebra.

        Associativity of (C, m) is coassociativity of (C*, m^T), decided by
        ``coassociative`` on the generators of (C**, m) = (C, m): a basis
        product e_y e_g counts as reaching e_z only when column y * n + g of
        m is the single entry z, and m (m (x) id) = m (id (x) m) is checked
        on the columns e_x (x) e_s (x) e_z for every x, z and every
        generator s, n^2 |S| in place of n^3, which is exact.

        Once m is associative, the same generators decide that delta and eps
        are algebra maps (Sweedler, Hopf Algebras, 1969): delta o m =
        (m (x) m)(id (x) tau (x) id)(delta (x) delta) and eps o m = eps (x) eps
        are compared on the columns e_x (x) e_s for every x and every
        generator s, n |S| in place of n^2, which is exact.  The set
        T = {b : delta(ab) = delta(a) delta(b) for all a} is a subspace.  With
        m associative, so is the product (a (x) b)(c (x) d) = ac (x) bd of
        C (x) C, and then T is closed under products: for b, b' in T,
        delta(a (b b')) = delta((a b) b') = delta(a b) delta(b') =
        delta(a) delta(b) delta(b') = delta(a) delta(b b').  Every basis
        vector is a nonzero multiple of a left-bracketed product of
        generators, so T = C; the same argument works for eps.  When m is
        not associative, or every basis vector is a generator, every column
        is compared.
        """
        problems = _shape_problems(self._bialgebra_maps())
        if problems:
            return problems
        f, h = self.field, self.carrier
        n = h.dim
        m, u, d, e = self.mult, self.unit, self.delta, self.counit
        idc = identity(h, f)
        # associativity and the unit law are read off the transposes, n
        # columns each
        mt, ut = dual(m), dual(u)
        gens = dual_generators(mt)
        associative = coassociative(mt, gens)
        if not associative:
            problems.append("multiplication is not associative")
        if kron_compose(ut, idc, mt) != idc or kron_compose(idc, ut, mt) != idc:
            problems.append("unit law fails")
        if associative and len(gens) < n:
            # the columns e_x (x) e_s of m, and eps at the generators
            ks = Space.std(len(gens))
            m_s = LinearMap.from_sparse(f, tensor_space(h, ks), h,
                                        [m.cols[x * n + s] for x in range(n) for s in gens])
            e_s = LinearMap.from_sparse(f, ks, e.cod, [e.cols[s] for s in gens])
        else:
            gens, m_s, e_s = range(n), m, e
        # (id (x) tau (x) id)(delta (x) delta): a (x) b |-> a1 (x) b1 (x) a2 (x) b2
        # on the columns of m_s, read off the entries of delta
        legs = [[(divmod(r, n), v) for r, v in col.items()] for col in d.cols]
        mul = f.mul
        middle = LinearMap.from_sparse(
            f, m_s.dom, tensor_space(d.cod, d.cod),
            [{((a1 * n + b1) * n + a2) * n + b2: mul(v, w)
              for (a1, a2), v in legs[x] for (b1, b2), w in legs[s]}
             for x in range(n) for s in gens])
        if d @ m_s != kron_compose(m, m, middle):
            problems.append("comultiplication is not an algebra morphism")
        if e @ m_s != tensor(e, e_s):
            problems.append("counit is not an algebra morphism")
        if d @ u != tensor(u, u):
            problems.append("unit is not grouplike")
        if e @ u != identity(u.dom, f):
            problems.append("counit of unit is not 1")
        return problems


@dataclass(frozen=True)
class HopfAlgebra(Bialgebra):
    antipode: LinearMap

    def check(self) -> list[str]:
        problems = super().check()
        if _shape_problems(self._bialgebra_maps()):  # already named, once
            return problems
        return problems + self.antipode_problems()

    def antipode_problems(self) -> list[str]:
        """The axioms the antipode adds to the bialgebra."""
        n = self.carrier.dim
        s, m, d = self.antipode, self.mult, self.delta
        problems = _shape_problems(self._bialgebra_maps() + [("antipode", s, n, n)])
        if problems:
            return problems
        idc = identity(self.carrier, self.field)
        ue = self.unit @ self.counit
        if m @ kron_compose(s, idc, d) != ue:
            problems.append("left antipode axiom fails")
        if m @ kron_compose(idc, s, d) != ue:
            problems.append("right antipode axiom fails")
        return problems


def trivial_coalgebra(field) -> Coalgebra:
    k = unit_space()
    one = identity(k, field)
    return Coalgebra(k, one, one)


def grouplike_coalgebra(field, labels) -> Coalgebra:
    """The coalgebra with a basis of grouplikes: delta(g) = g (x) g, eps(g) = 1."""
    space = Space(tuple(labels))
    n, one = space.dim, field.one()
    delta = LinearMap.from_sparse(field, space, tensor_space(space, space),
                                  [{i * n + i: one} for i in range(n)])
    counit = LinearMap.from_sparse(field, space, unit_space(), [{0: one} for _ in range(n)])
    return Coalgebra(space, delta, counit)


def group_hopf_algebra(field, labels, product, inverse) -> HopfAlgebra:
    """The group algebra of a finite group as a Hopf algebra: ``product`` and
    ``inverse`` act on basis indices."""
    base = grouplike_coalgebra(field, labels)
    h, n, one = base.carrier, base.carrier.dim, field.one()
    mult = LinearMap.from_sparse(field, tensor_space(h, h), h,
                                 [{product(i, j): one} for i in range(n) for j in range(n)])
    unit = LinearMap.from_sparse(field, unit_space(), h, [{product_identity(product, n): one}])
    antipode = LinearMap.from_sparse(field, h, h, [{inverse(i): one} for i in range(n)])
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
    # x (x) y |-> x0 (x) y0 (x) x1 (x) y1 in two lazy steps, so no dim A*H*B
    # permutation is built: y |-> y0 (x) y1, then x (x) y0 |-> x0 (x) y0 (x) x1
    x0_y_x1 = kron_compose(identity(a.space, f), swap_map(h, b.space, f),
                           tensor(a.rho, identity(b.space, f)))
    middle = kron_compose(x0_y_x1, identity(h, f), tensor(identity(a.space, f), b.rho))
    rho = kron_compose(identity(ab, f), bialg.mult, middle)
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


def comatrix(carrier: Space, dims, field) -> Coalgebra:
    """The comatrix coalgebra on a direct sum of cohom(K^d, K^d) blocks, one
    per d in dims, laid out in order on carrier: on each block
    delta(e_(j,i)) = sum_k e_(j,k) (x) e_(k,i) and eps(e_(j,i)) = [j == i].
    With dims = [dim X] this is cocompose(X, X, X) and the coaction of id_X."""
    n, one = carrier.dim, field.one()
    delta, counit = [], []  # sparse columns
    off = 0
    for d in dims:
        # e_(j,k) (x) e_(k,i) sits at (off + j*d + k) * n + off + k*d + i,
        # which steps by n + d as k does
        step = n + d
        for j in range(d):
            for i in range(d):
                base = (off + j * d) * n + off + i
                delta.append(dict.fromkeys(range(base, base + d * step, step), one))
                counit.append({0: one} if i == j else {})
        off += d * d
    return Coalgebra(carrier,
                     LinearMap.from_sparse(field, carrier, tensor_space(carrier, carrier), delta),
                     LinearMap.from_sparse(field, carrier, unit_space(), counit))


def coend_object(x: Space, field) -> CoendObject:
    ch = cohom(x, x, field)
    coalg = comatrix(ch.carrier, [x.dim], field)
    return CoendObject(ch, coalg, Comodule(x, coalg, ch.coev))


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
    # z is a coalgebra map as phi is lawful, and is rho_phi with the counit on the coend leg
    if z != kron_compose(ce.coalgebra.counit, identity(c.carrier, f), rho_phi):
        raise AxiomError("induced coaction does not collapse to coact(phi)")
    return rho_phi, z


def coalgebra_morphism_problems(z: LinearMap, src: Coalgebra, dst: Coalgebra) -> list[str]:
    """Why z: src -> dst is not a coalgebra morphism, or [] if it is."""
    problems = []
    if dst.delta @ z != kron_compose(z, z, src.delta):
        problems.append("does not respect comultiplication")
    if dst.counit @ z != src.counit:
        problems.append("does not respect counit")
    return problems


def is_coalgebra_morphism(z: LinearMap, src: Coalgebra, dst: Coalgebra) -> bool:
    return not coalgebra_morphism_problems(z, src, dst)


# ---------------------------------------------------------------------------
# rigidity: dual pairs
# ---------------------------------------------------------------------------

def evaluation(x: Space, field) -> LinearMap:
    """ev: X* (x) X -> K pairing dual basis against basis."""
    n, one = x.dim, field.one()
    cols = [{0: one} if i == j else {} for j in range(n) for i in range(n)]
    return LinearMap.from_sparse(field, tensor_space(dual_space(x), x), unit_space(), cols)


def db_map(x: Space, field) -> LinearMap:
    """db: K -> X (x) X*, 1 |-> sum_i x_i (x) x'_i."""
    n = x.dim
    col = {i * n + i: field.one() for i in range(n)}
    return LinearMap.from_sparse(field, unit_space(), tensor_space(x, dual_space(x)), [col])


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
    rho_right = coact(kron_compose(ch.coev, idh, xcom.rho), y, tensor_space(e, hs))
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
    if not intertwines(ch.coev, xcom.rho, target.rho, hs):
        raise AxiomError("coevaluation is not a comodule morphism for the combined coaction")
    return CohomCoactions(ch, rho_right, rho_left, rho)
