"""Exact nonarchimedean normed linear algebra and bounded colimits/coends.

Norms are diagonal sup norms with integer weights: basis vector e_i has norm
p^-w_i and a vector's norm is max_i |v_i|_p p^-w_i.  Every norm value is
then 0 or an integer power of p, so all comparisons are exact integer
arithmetic on valuations.

Quotient norms are computed by a valuation-greedy orthogonalization: pick
the entry of maximal norm as pivot, eliminate it everywhere, repeat.  The
resulting basis of the subspace is orthogonal, and a vector reduced to zero
at all pivots realizes its own coset norm.  Each computed value ||v + W|| =
||x|| is certified by a dual certificate (nonarchimedean Hahn-Banach:
Ingleton 1952; Schneider 2002), the residual x and a functional lam,
checked against the original generators of W alone:

(a) v - x lies in W (exact rank test), so ||v + W|| <= ||x||;
(b) lam(g) = 0 for every generator g, so |lam(v)| <= ||lam||* ||v - w|| for
    every w in W, where ||lam||* = max_i |lam_i|_p p^w_i;
(c) x = 0, or |lam(v)|_p / ||lam||* = ||x||, so ||v + W|| >= ||x||.

Checking is a few exact dot products and one echelon form.  The exponential
window oracle `quotient_norm_bruteforce` stays as an independent test
oracle; the package never calls it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import total_ordering

from .coend import CoendResult, _difference_columns, coend_of_functor
from .exactlinalg import (
    LinearMap,
    PadicRationals,
    QQ,
    Space,
    _apply,
    _dense,
    _dot,
    _rref,
    _sparse,
    direct_sum_space,
    identity,
    image_basis,
    invert_map,
    kernel,
    kron_compose,
    padic_valuation,
)
from .fincat import DiagramFunctor, Transformation


class OracleRefusal(ArithmeticError):
    """The window oracle declined to certify: its candidate grid would exceed
    the enumeration bound.  A certification mismatch is a plain
    ArithmeticError, not this."""


class PrimeMismatch(ValueError):
    """Operands carry different primes."""


# ---------------------------------------------------------------------------
# norm values
# ---------------------------------------------------------------------------

@total_ordering
@dataclass(frozen=True)
class NormValue:
    """Either zero or p^exp for an integer exp."""

    is_zero: bool
    exp: int = 0

    @staticmethod
    def zero() -> "NormValue":
        return NormValue(True, 0)

    @staticmethod
    def of_exp(e: int) -> "NormValue":
        return NormValue(False, e)

    def __eq__(self, other):
        if not isinstance(other, NormValue):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return self.is_zero == other.is_zero
        return self.exp == other.exp

    def __hash__(self):
        return hash((self.is_zero, 0 if self.is_zero else self.exp))

    def __lt__(self, other):
        if self.is_zero:
            return not other.is_zero
        if other.is_zero:
            return False
        return self.exp < other.exp

    def __mul__(self, other: "NormValue") -> "NormValue":
        if self.is_zero or other.is_zero:
            return NormValue.zero()
        return NormValue.of_exp(self.exp + other.exp)

    def to_json(self):
        return {"zero": True} if self.is_zero else {"exp": self.exp}

    def __repr__(self):
        return "0" if self.is_zero else f"p^{self.exp}"


def scalar_norm(a, p: int) -> NormValue:
    v = padic_valuation(a, p)
    return NormValue.zero() if v is None else NormValue.of_exp(-v)


# ---------------------------------------------------------------------------
# normed spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormedSpace:
    """A based space with integer weights over a prime p: ||e_i|| = p^-w_i."""

    space: Space
    p: int

    def __post_init__(self):
        if self.space.weights is None:
            object.__setattr__(self, "space", self.space.with_weights(
                (0,) * self.space.dim))

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def weights(self) -> tuple[int, ...]:
        return self.space.weights

    def vector_norm(self, v) -> NormValue:
        return _vec_norm(v, self.weights, self.p)


def normed(space: Space, p: int, weights=None) -> NormedSpace:
    if weights is not None:
        space = space.with_weights(weights)
    return NormedSpace(space, p)


def _wval(a, w: int, p: int):
    """Weighted valuation v_p(a) + w; None encodes +infinity."""
    v = padic_valuation(a, p)
    return None if v is None else v + w


def _vec_val(v, weights, p):
    best = None
    for a, w in zip(v, weights):
        wv = _wval(a, w, p)
        if wv is not None and (best is None or wv < best):
            best = wv
    return best


def _vec_norm(v, weights, p) -> NormValue:
    val = _vec_val(v, weights, p)
    return NormValue.zero() if val is None else NormValue.of_exp(-val)


def _prime_of_field(f) -> int:
    if not isinstance(f, PadicRationals):
        raise PrimeMismatch("norms are only defined over p-adic-flavored rationals")
    return f.p


def _prime_of(m: LinearMap) -> int:
    return _prime_of_field(m.field)


def operator_norm(m: LinearMap, dom_weights=None, cod_weights=None) -> NormValue:
    """||m|| = max_{i,j} |m_ji|_p p^(-u_j + w_i) for diagonal norms; exact."""
    p = _prime_of(m)
    w = dom_weights if dom_weights is not None else m.dom.effective_weights()
    u = cod_weights if cod_weights is not None else m.cod.effective_weights()
    best: NormValue = NormValue.zero()
    for i, col in enumerate(m.cols):
        for j, a in col.items():
            v = padic_valuation(a, p)
            cand = NormValue.of_exp(-(v + u[j] - w[i]))
            if cand > best:
                best = cand
    return best


# ---------------------------------------------------------------------------
# orthogonalization and quotient norms
# ---------------------------------------------------------------------------

def _orthogonalize(vectors, weights, p):
    """Greedy orthogonalization: returns (basis, pivots) where the basis
    spans the same subspace, every vector attains its norm at its pivot
    coordinate, and the vectors are mutually zero at each other's pivots."""
    work = [list(v) for v in vectors if any(a != 0 for a in v)]
    chosen: list[list] = []
    pivots: list[int] = []
    while work:
        best = None
        for vi, v in enumerate(work):
            for i, a in enumerate(v):
                wv = _wval(a, weights[i], p)
                if wv is None:
                    continue
                if best is None or wv < best[0]:
                    best = (wv, vi, i)
        if best is None:
            break
        _, vi, piv = best
        vec = work.pop(vi)
        inv = 1 / Fraction(vec[piv])
        for other in itertools.chain(work, chosen):
            c = Fraction(other[piv]) * inv
            if c != 0:
                for i in range(len(other)):
                    other[i] = other[i] - c * vec[i]
        chosen.append(vec)
        pivots.append(piv)
        work = [v for v in work if any(a != 0 for a in v)]
    return chosen, pivots


def _reduce_vector(v, basis, pivots):
    v = list(v)
    for vec, piv in zip(basis, pivots):
        c = Fraction(v[piv]) / Fraction(vec[piv])
        if c != 0:
            for i in range(len(v)):
                v[i] = v[i] - c * vec[i]
    return v


def quotient_norm(ns: NormedSpace, subspace_vectors, v, certify=True) -> NormValue:
    """inf_w ||v - w|| over the span W of the given vectors, computed exactly.

    The greedy reduction residual x realizes the infimum: it is zero at every
    pivot of the orthogonalized subspace basis, and for such a vector no
    element of the subspace can lower the norm (ultrametric argument on the
    pivot coordinates).  With certify=True the value is proved by a dual
    certificate: lam is the e_i0 coordinate functional of the orthogonal
    basis {b_j} u {e_i : i not a pivot}, where x attains its norm at i0
    (lam_i0 = 1, lam_pi_j = -b_j[i0] / b_j[pi_j] for b_j with pivot pi_j,
    0 elsewhere), and `_check_certificate` raises ArithmeticError unless
    (a) v - x lies in W, (b) lam kills every generator of W and (c) x = 0 or
    |lam(v)|_p / ||lam||* = ||x||.
    """
    basis, pivots = _orthogonalize(subspace_vectors, ns.weights, ns.p)
    residual = _reduce_vector(v, basis, pivots)
    val = _vec_val(residual, ns.weights, ns.p)
    if certify:
        lam = [Fraction(0)] * ns.dim
        if val is not None:
            i0 = next(i for i, a in enumerate(residual)
                      if _wval(a, ns.weights[i], ns.p) == val)
            lam[i0] = Fraction(1)
            for b, piv in zip(basis, pivots):
                lam[piv] = -Fraction(b[i0]) / Fraction(b[piv])
        _check_certificate(ns, subspace_vectors, v, residual, lam)
    return NormValue.zero() if val is None else NormValue.of_exp(-val)


def _check_certificate(ns: NormedSpace, subspace_vectors, v, x, lam) -> None:
    """Raise ArithmeticError unless (x, lam) proves ||v + W|| = ||x||, W the
    span of subspace_vectors, by conditions (a)-(c) of the module docstring.
    They are tested on the generators themselves, never on a basis derived
    from them, so the proof holds however x and lam were found."""
    def fail(why):
        raise ArithmeticError(f"quotient norm certification failed: {why}")

    # (a) v - x reduces to zero against the generators' echelon form, i.e.
    # rank [W; v - x] = rank W; then ||v + W|| <= ||x||
    gens = [[Fraction(a) for a in g] for g in subspace_vectors]
    diff = [Fraction(a) - Fraction(b) for a, b in zip(v, x)]
    red, piv_cols = _rref(QQ, [_sparse(g, QQ) for g in gens])
    for row, c in zip(red, piv_cols):
        if diff[c] != 0:
            coef = diff[c]
            for k, b in row.items():
                diff[k] -= coef * b
    if any(diff):
        fail("v - x is not in the span of the generators")
    # (b) lam kills W, so |lam(v)| = |lam(v - w)| <= ||lam||* ||v - w|| for w in W
    for k, g in enumerate(gens):
        if _dot(QQ, lam, g) != 0:
            fail(f"the functional does not vanish on generator {k}")
    # (c) hence ||v + W|| >= |lam(v)| / ||lam||*, which must equal ||x||;
    # the dual norm max_i |lam_i|_p p^w_i is a sup norm with weights -w
    x_norm = _vec_norm(x, ns.weights, ns.p)
    if x_norm.is_zero:
        return
    lam_v = scalar_norm(_dot(QQ, lam, v), ns.p)
    lam_norm = _vec_norm(lam, tuple(-w for w in ns.weights), ns.p)
    if lam_v.is_zero or lam_norm.is_zero or lam_v.exp - lam_norm.exp != x_norm.exp:
        fail(f"|lam(v)| / ||lam||* is {lam_v!r} / {lam_norm!r}, but ||x|| is {x_norm!r}")


def _det(rows):
    n = len(rows)
    rows = [list(r) for r in rows]
    det = Fraction(1)
    for c in range(n):
        piv = None
        for r in range(c, n):
            if rows[r][c] != 0:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        inv = 1 / Fraction(rows[c][c])
        for r in range(c + 1, n):
            if rows[r][c] != 0:
                f = rows[r][c] * inv
                for k in range(c, n):
                    rows[r][k] -= f * rows[c][k]
    return det


def quotient_norm_bruteforce(ns: NormedSpace, subspace_vectors, v,
                             max_candidates: int = 2_000_000) -> NormValue:
    """Independent oracle: minimize ||v - sum t_j b_j|| over all coefficient
    tuples whose p-adic digits range over a provably sufficient window.

    Sufficiency: (i) after row-reducing the subspace basis to staircase form,
    the coefficient t_j is determined at the pivot coordinate pi_j by
    t_j = v_{pi_j} - x_{pi_j}, so v_p(t_j) >= min(v_p(v_{pi_j}), nu(v) - w_{pi_j})
    (the optimum never exceeds ||v||) -- a lower digit bound; (ii) a Cramer
    expansion of any nonzero (k+1)-minor D of [B | v] gives
    nu(v - Bt) <= v_p(D) - min_i (v_p(M_i) - w_i) =: M for every t, so digits
    of t_j above M - nu(b_j) change the residual by less than the optimum and
    cannot affect the minimum.  The candidate grid therefore contains a
    representative of an optimal coefficient tuple.
    """
    p = ns.p
    weights = ns.weights
    n = ns.dim
    # staircase basis of the subspace via plain rational row reduction
    rows = [_sparse([Fraction(a) for a in vec], QQ) for vec in subspace_vectors]
    sparse_red, piv_cols = _rref(QQ, rows)
    if not sparse_red:
        return _vec_norm(v, weights, p)
    k = len(sparse_red)
    red = [_dense(r, n, QQ) for r in sparse_red]
    cols = [[red[j][i] for j in range(k)] for i in range(n)]  # n x k entries
    # membership: v in span?
    aug, _ = _rref(QQ, sparse_red + [_sparse([Fraction(a) for a in v], QQ)])
    if len(aug) == k:
        return NormValue.zero()
    nu_v = _vec_val(v, weights, p)
    if nu_v is None:
        return NormValue.zero()
    # Cramer bound M over all (k+1)-row subsets with nonzero determinant
    m_bound = None
    for subset in itertools.combinations(range(n), k + 1):
        mat = [[cols[i][j] for j in range(k)] + [Fraction(v[i])] for i in subset]
        d = _det(mat)
        if d == 0:
            continue
        vd = padic_valuation(d, p)
        best_minor = None
        for drop_pos, i in enumerate(subset):
            minor_rows = [
                [cols[i2][j] for j in range(k)]
                for i2 in subset if i2 != i
            ]
            md = _det(minor_rows)
            vm = padic_valuation(md, p)
            if vm is None:
                continue
            cand = vm - weights[i]
            if best_minor is None or cand < best_minor:
                best_minor = cand
        bound = vd - best_minor
        if m_bound is None or bound < m_bound:
            m_bound = bound
    if m_bound is None:
        raise ArithmeticError("no nonzero maximal minor; inconsistent rank")
    # digit windows per coefficient
    digit_sets = []
    total = 1
    for j in range(k):
        piv = piv_cols[j]
        b_col = [red[j][i] for i in range(n)]
        nu_b = _vec_val(b_col, weights, p)
        v_piv = padic_valuation(v[piv], p)
        lo = nu_v - weights[piv]
        if v_piv is not None:
            lo = min(lo, v_piv)
        hi = m_bound - nu_b
        if hi < lo:
            digit_sets.append([Fraction(0)])
            continue
        values = []
        base = [Fraction(p) ** e for e in range(lo, hi + 1)]
        for digits in itertools.product(range(p), repeat=len(base)):
            values.append(sum((d * b for d, b in zip(digits, base)), Fraction(0)))
        digit_sets.append(values)
        total *= len(values)
        if total > max_candidates:
            raise OracleRefusal(
                f"window oracle would enumerate > {max_candidates} candidates"
            )
    vv = [Fraction(a) for a in v]
    best = [_vec_norm(v, weights, p)]

    def walk(j, residual):
        if j == k:
            norm = _vec_norm(residual, weights, p)
            if norm < best[0]:
                best[0] = norm
            return
        for t in digit_sets[j]:
            if t == 0:
                walk(j + 1, residual)
            else:
                walk(j + 1, [a - t * b for a, b in zip(residual, red[j])])

    walk(0, vv)
    return best[0]


# ---------------------------------------------------------------------------
# Banach sums, products, colimits
# ---------------------------------------------------------------------------

def banach_sum(spaces: list[NormedSpace]) -> NormedSpace:
    """Finite Banach direct sum: concatenated weights, max norm."""
    if not spaces:
        return NormedSpace(Space((), ()), 2)
    p = spaces[0].p
    for ns in spaces[1:]:
        if ns.p != p:
            raise PrimeMismatch("summands carry different primes")
    return NormedSpace(direct_sum_space([ns.space for ns in spaces]), p)


def banach_product(spaces: list[NormedSpace]) -> NormedSpace:
    """For finite families the Banach product coincides with the sum."""
    return banach_sum(spaces)


@dataclass
class OrthogonalizedQuotient:
    """A quotient carrier with its quotient norm made diagonal: transport
    sends quotient coordinates to coordinates in an orthogonal class basis
    whose weights realize the quotient norm exactly."""

    transport: LinearMap
    weights: tuple[int, ...]
    lifts: list[list[Fraction]]


def _orthogonalize_quotient(field, ambient_weights, p, relation_vectors,
                            pi: LinearMap, section: LinearMap) -> OrthogonalizedQuotient:
    ker_basis, ker_pivots = _orthogonalize(relation_vectors, ambient_weights, p)
    # reduce the section lifts, then orthogonalize them among themselves;
    # combinations stay zero at kernel pivots, hence stay norm-reduced
    lifts = [
        _reduce_vector(section.col(j), ker_basis, ker_pivots)
        for j in range(section.dom.dim)
    ]
    lift_basis, _ = _orthogonalize(lifts, ambient_weights, p)
    if len(lift_basis) != section.dom.dim:
        raise ArithmeticError("section lifts became dependent during reduction")
    weights = []
    cols = []
    for vec in lift_basis:
        val = _vec_val(vec, ambient_weights, p)
        weights.append(val)
        cols.append(_apply(pi.cols, _sparse(vec, field), field))
    basis_map = LinearMap.from_sparse(
        field, Space.std(len(cols), prefix="o", weights=weights), pi.cod, cols
    )
    transport = invert_map(basis_map)
    return OrthogonalizedQuotient(transport, tuple(weights), lift_basis)


@dataclass
class BanachColimit:
    total: NormedSpace
    carrier: NormedSpace
    pi: LinearMap
    section: LinearMap
    cocone: dict[str, LinearMap]
    cocone_norms: dict[str, NormValue]
    class_norms: list[NormValue]
    orth: OrthogonalizedQuotient
    closure_is_identity: bool = True


def banach_colimit(F: DiagramFunctor, certify=True) -> BanachColimit:
    """Quotient of the Banach direct sum by the span of the transition
    relations; in finite dimension the span is already closed, so the
    closure step is the identity (flagged in the result)."""
    from .exactlinalg import cokernel

    f = F.field
    p = _prime_of_field(f)
    spaces = [NormedSpace(F.space(x), p) for x in F.source.objects]
    total = banach_sum(spaces)
    offsets = {}
    off = 0
    for x in F.source.objects:
        offsets[x] = off
        off += F.space(x).dim
    rel_cols = []
    for m in F.source.non_identity():
        # x - F(m) x for each basis vector x of F(dom m)
        rel_cols.extend(_difference_columns(f, identity(F.space(m.dom), f), offsets[m.dom],
                                            F.map(m.name), offsets[m.cod]))
    rel = LinearMap.from_sparse(f, Space.std(len(rel_cols), prefix="r"), total.space, rel_cols)
    pi, section = cokernel(rel)
    rel_basis = image_basis(rel)
    orth = _orthogonalize_quotient(f, total.weights, p, rel_basis, pi, section)
    # carrier expressed in the orthogonal class basis (via orth.transport)
    carrier = NormedSpace(Space.std(len(orth.weights), prefix="q",
                                    weights=orth.weights), p)
    cocone = {}
    cocone_norms = {}
    for x in F.source.objects:
        lo = offsets[x]
        kappa = LinearMap.from_sparse(f, F.space(x), pi.cod, pi.cols[lo:lo + F.space(x).dim])
        cocone[x] = kappa
        cocone_norms[x] = operator_norm(
            orth.transport @ kappa,
            dom_weights=F.space(x).effective_weights(),
            cod_weights=orth.weights,
        )
    class_norms = [
        quotient_norm(total, rel_basis, section.col(j), certify=certify)
        for j in range(section.dom.dim)
    ]
    return BanachColimit(total, carrier, pi, section, cocone, cocone_norms,
                         class_norms, orth)


# ---------------------------------------------------------------------------
# bounded transformations and the bounded coend
# ---------------------------------------------------------------------------

@dataclass
class BoundedTransformation:
    transformation: Transformation
    bound: NormValue


def check_bounded(t: Transformation) -> BoundedTransformation:
    """Bound = max of component operator norms; finite for finite sources."""
    bound = NormValue.zero()
    for comp in t.components.values():
        n = operator_norm(comp)
        if n > bound:
            bound = n
    return BoundedTransformation(t, bound)


@dataclass
class BoundedCoendResult:
    result: CoendResult
    normed_carrier: NormedSpace
    orth: OrthogonalizedQuotient
    pi_norm: NormValue
    injection_norms: dict[str, NormValue]
    comultiplication_norm: NormValue
    counit_norm: NormValue
    delta_bound: NormValue
    class_norms: list[NormValue]
    closure_is_identity: bool = True


def bounded_coend(F: DiagramFunctor, certify=True) -> BoundedCoendResult:
    """The algebraic coend equipped with the quotient norm.

    The carrier and every matrix are bit-identical to the algebraic coend
    (over a finite source the boundedness restriction is vacuous); on top of
    that the quotient norm is realized by an orthogonal class basis and the
    norms of pi, the injections, the coalgebra maps and the universal family
    are reported exactly.
    """
    r = coend_of_functor(F)
    f = r.field
    p = _prime_of(r.pi)
    ambient_weights = r.nspace.effective_weights()
    ker = kernel(r.pi)
    rel_basis = [ker.col(j) for j in range(ker.dom.dim)]
    orth = _orthogonalize_quotient(f, ambient_weights, p, rel_basis,
                                   r.pi, r.section)
    q_weights = orth.weights
    normed_carrier = NormedSpace(
        Space.std(r.carrier.dim, prefix="q", weights=q_weights), p
    )
    t = orth.transport
    pi_norm = operator_norm(t @ r.pi, dom_weights=ambient_weights,
                            cod_weights=q_weights)
    injection_norms = {
        x: operator_norm(
            t @ r.injections[x],
            dom_weights=r.blocks[x].carrier.effective_weights(),
            cod_weights=q_weights,
        )
        for x in r.diagram.objects
    }
    t_inv = invert_map(t)
    qq_weights = tuple(a + b for a in q_weights for b in q_weights)
    comult_norm = operator_norm(
        kron_compose(t, t, r.coalgebra.delta @ t_inv),
        dom_weights=q_weights, cod_weights=qq_weights,
    )
    counit_norm = operator_norm(
        r.coalgebra.counit @ t_inv, dom_weights=q_weights, cod_weights=(0,),
    )
    delta_bound = NormValue.zero()
    for x in r.diagram.objects:
        fx = r.diagram.spaces[x]
        comp_norm = operator_norm(
            kron_compose(identity(fx, f), t, r.delta[x]),
            dom_weights=fx.effective_weights(),
            cod_weights=tuple(a + b for a in fx.effective_weights()
                              for b in q_weights),
        )
        if comp_norm > delta_bound:
            delta_bound = comp_norm
    total_ns = NormedSpace(r.nspace, p)
    class_norms = [
        quotient_norm(total_ns, rel_basis, r.section.col(j), certify=certify)
        for j in range(r.carrier.dim)
    ]
    return BoundedCoendResult(
        result=r,
        normed_carrier=normed_carrier,
        orth=orth,
        pi_norm=pi_norm,
        injection_norms=injection_norms,
        comultiplication_norm=comult_norm,
        counit_norm=counit_norm,
        delta_bound=delta_bound,
        class_norms=class_norms,
    )
