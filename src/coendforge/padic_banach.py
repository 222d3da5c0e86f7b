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

A whole quotient takes one greedy orthogonalization and one echelon form of
the generators: reducing every class against the one basis yields the class
norms and the orthogonal class basis, and every certificate is checked
against the one echelon form.  The exponential window oracle
`quotient_norm_bruteforce` stays as an independent test oracle; the package
never calls it.
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
    _add_into,
    _apply,
    _dense,
    _rref,
    _sparse,
    _transpose,
    cokernel,
    direct_sum_space,
    identity,
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


def _lead(items, weights, p):
    """(weighted valuation v_p(a) + w_i, coordinate i) of the entry where a
    vector attains its norm, the lowest coordinate on a tie, from the
    vector's (i, a) pairs; None for the zero vector."""
    best = None
    for i, a in items:
        if a:
            cand = (padic_valuation(a, p) + weights[i], i)
            if best is None or cand < best:
                best = cand
    return best


def _norm(items, weights, p) -> NormValue:
    lead = _lead(items, weights, p)
    return NormValue.zero() if lead is None else NormValue.of_exp(-lead[0])


def _vec_val(v, weights, p):
    lead = _lead(enumerate(v), weights, p)
    return None if lead is None else lead[0]


def _vec_norm(v, weights, p) -> NormValue:
    return _norm(enumerate(v), weights, p)


def _prime_of(f) -> int:
    if not isinstance(f, PadicRationals):
        raise PrimeMismatch("norms are only defined over p-adic-flavored rationals")
    return f.p


def operator_norm(m: LinearMap, dom_weights=None, cod_weights=None) -> NormValue:
    """||m|| = max_{i,j} |m_ji|_p p^(-u_j + w_i) for diagonal norms; exact."""
    p = _prime_of(m.field)
    w = dom_weights if dom_weights is not None else m.dom.effective_weights()
    u = cod_weights if cod_weights is not None else m.cod.effective_weights()
    return max((NormValue.of_exp(-(padic_valuation(a, p) + u[j] - w[i]))
                for i, col in enumerate(m.cols) for j, a in col.items()),
               default=NormValue.zero())


# ---------------------------------------------------------------------------
# orthogonalization and quotient norms
# ---------------------------------------------------------------------------

def _orthogonalize(vectors, weights, p):
    """Greedy orthogonalization of sparse vectors: returns (basis, pivots)
    where the basis spans the same subspace, every vector attains its norm at
    its pivot coordinate, and the vectors are mutually zero at each other's
    pivots.  Each step pivots on the least weighted valuation left: the
    first such vector in work order, at its lowest such coordinate.  A
    vector's lead is recomputed only when a step changes it."""
    work = [dict(v) for v in vectors if v]
    leads = [_lead(v.items(), weights, p) for v in work]
    chosen, pivots = [], []
    while work:
        k = min(range(len(work)), key=lambda j: leads[j][0])
        vec, piv = work.pop(k), leads.pop(k)[1]
        for j, other in enumerate(work):
            if piv in other:
                _eliminate(other, vec, piv)
                leads[j] = _lead(other.items(), weights, p)
        for other in chosen:
            if piv in other:
                _eliminate(other, vec, piv)
        chosen.append(vec)
        pivots.append(piv)
        leads = [lead for lead, v in zip(leads, work) if v]
        work = [v for v in work if v]
    return chosen, pivots


def _eliminate(vec: dict, row: dict, c) -> None:
    """vec -= (vec[c] / row[c]) row in place, which clears coordinate c."""
    f = QQ
    coef = f.mul(vec[c], f.invert(row[c]))
    for i, a in row.items():
        _add_into(vec, i, f.neg(f.mul(coef, a)), f)


def _reduce_quotient(ns: NormedSpace, generators, vectors, certify):
    """Reduce each vector v modulo the span W of the generators against one
    greedy orthogonal basis {b_j} (pivot pi_j) of W.  Returns the residuals x
    and their norms ||x|| = ||v + W||.  With certify=True all values are
    proved by one `_check_certificate` call, with lam the e_i0 coordinate
    functional of the orthogonal basis {b_j} u {e_i : i not a pivot}, where x
    attains its norm at i0: lam_i0 = 1, lam_pi_j = -b_j[i0] / b_j[pi_j], 0
    elsewhere.  All vectors are sparse dicts of Fractions."""
    f, weights, p = QQ, ns.weights, ns.p
    basis, pivots = _orthogonalize(generators, weights, p)
    residuals = [dict(v) for v in vectors]
    for x in residuals:
        for b, piv in zip(basis, pivots):
            if piv in x:
                _eliminate(x, b, piv)
    if certify:
        certificates = []
        for v, x in zip(vectors, residuals):
            lam = {}
            if x:
                i0 = _lead(x.items(), weights, p)[1]
                lam[i0] = f.one()
                for b, piv in zip(basis, pivots):
                    if i0 in b:
                        lam[piv] = f.neg(f.mul(b[i0], f.invert(b[piv])))
            certificates.append((v, x, lam))
        _check_certificate(ns, generators, certificates)
    return residuals, [_norm(x.items(), weights, p) for x in residuals]


def quotient_norm(ns: NormedSpace, subspace_vectors, v, certify=True) -> NormValue:
    """inf_w ||v - w|| over the span W of the given vectors, computed exactly.

    The one-vector case of the reduction that `bounded_coend` and
    `banach_colimit` run on all their classes at once.  The greedy residual x
    realizes the infimum: it is zero at every pivot of the orthogonalized
    basis of W, and for such a vector no element of W can lower the norm
    (ultrametric argument on the pivot coordinates).  With certify=True the
    dual certificate of the module docstring proves the value, and
    ArithmeticError is raised unless it checks.
    """
    gens = [_rational(g) for g in subspace_vectors]
    return _reduce_quotient(ns, gens, [_rational(v)], certify)[1][0]


def _rational(v) -> dict:
    """A dense coordinate vector as a sparse dict of Fractions."""
    return {i: Fraction(a) for i, a in enumerate(v) if a}


def _check_certificate(ns: NormedSpace, generators, certificates) -> None:
    """Raise ArithmeticError unless every (v, x, lam) in certificates proves
    ||v + W|| = ||x||, W the span of the generators, by conditions (a)-(c) of
    the module docstring; all vectors are sparse dicts of Fractions.  They
    are tested on the generators themselves, never on a basis derived from
    them, so the proof holds however x and lam were found.  One echelon form
    and one transpose of the generators serve every certificate."""
    def fail(why):
        raise ArithmeticError(f"quotient norm certification failed: {why}")

    f = QQ
    echelon_rows, piv_cols = _rref(f, generators)
    gen_rows = _transpose(generators, ns.dim)
    dual_weights = tuple(-w for w in ns.weights)
    for v, x, lam in certificates:
        # (a) v - x reduces to zero against the generators' echelon form, i.e.
        # rank [W; v - x] = rank W; then ||v + W|| <= ||x||
        diff = dict(v)
        for i, a in x.items():
            _add_into(diff, i, f.neg(a), f)
        for row, c in zip(echelon_rows, piv_cols):
            if c in diff:
                _eliminate(diff, row, c)
        if diff:
            fail("v - x is not in the span of the generators")
        # (b) lam kills W, so |lam(v)| = |lam(v - w)| <= ||lam||* ||v - w|| for
        # w in W; lam(g_k) is entry k of lam applied to the transposed generators
        missed = _apply(gen_rows, lam, f)
        if missed:
            fail(f"the functional does not vanish on generator {min(missed)}")
        # (c) hence ||v + W|| >= |lam(v)| / ||lam||*, which must equal ||x||;
        # the dual norm max_i |lam_i|_p p^w_i is a sup norm with weights -w
        x_norm = _norm(x.items(), ns.weights, ns.p)
        if x_norm.is_zero:
            continue
        lam_v = scalar_norm(sum((f.mul(a, v[i]) for i, a in lam.items() if i in v),
                                f.zero()), ns.p)
        lam_norm = _norm(lam.items(), dual_weights, ns.p)
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
    whose weights realize the quotient norm exactly.  lifts are that basis
    as sparse ambient vectors; class_norms[j] is the quotient norm of the
    class of section column j."""

    transport: LinearMap
    weights: tuple[int, ...]
    lifts: list[dict]
    class_norms: list[NormValue]


def _orthogonalize_quotient(total: NormedSpace, relation_vectors, pi: LinearMap,
                            section: LinearMap, certify) -> OrthogonalizedQuotient:
    f, p = pi.field, total.p
    # one reduction gives the class norms and the reduced section lifts, which
    # are then orthogonalized among themselves; combinations stay zero at
    # kernel pivots, hence stay norm-reduced
    lifts, class_norms = _reduce_quotient(total, relation_vectors, section.cols, certify)
    lift_basis, _ = _orthogonalize(lifts, total.weights, p)
    if len(lift_basis) != section.dom.dim:
        raise ArithmeticError("section lifts became dependent during reduction")
    weights = [_lead(vec.items(), total.weights, p)[0] for vec in lift_basis]
    cols = [_apply(pi.cols, vec, f) for vec in lift_basis]
    basis_map = LinearMap.from_sparse(
        f, Space.std(len(cols), prefix="o", weights=weights), pi.cod, cols
    )
    return OrthogonalizedQuotient(invert_map(basis_map), tuple(weights), lift_basis,
                                  class_norms)


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
    f = F.field
    p = _prime_of(f)
    total = banach_sum([NormedSpace(F.space(x), p) for x in F.source.objects])
    offsets = dict(zip(F.source.objects, itertools.accumulate(
        (F.space(x).dim for x in F.source.objects), initial=0)))
    rel_cols = []
    for m in F.source.non_identity():
        # x - F(m) x for each basis vector x of F(dom m)
        rel_cols.extend(_difference_columns(f, identity(F.space(m.dom), f), offsets[m.dom],
                                            F.map(m.name), offsets[m.cod]))
    rel = LinearMap.from_sparse(f, Space.std(len(rel_cols), prefix="r"), total.space, rel_cols)
    pi, section = cokernel(rel)
    orth = _orthogonalize_quotient(total, _rref(f, rel.cols)[0], pi, section, certify)
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
    return BanachColimit(total, carrier, pi, section, cocone, cocone_norms,
                         orth.class_norms, orth)


# ---------------------------------------------------------------------------
# bounded transformations and the bounded coend
# ---------------------------------------------------------------------------

@dataclass
class BoundedTransformation:
    transformation: Transformation
    bound: NormValue


def check_bounded(t: Transformation) -> BoundedTransformation:
    """Bound = max of component operator norms; finite for finite sources."""
    return BoundedTransformation(t, max(map(operator_norm, t.components.values()),
                                        default=NormValue.zero()))


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
    p = _prime_of(f)
    total = NormedSpace(r.nspace, p)
    ambient_weights = total.weights
    orth = _orthogonalize_quotient(total, kernel(r.pi).cols, r.pi, r.section, certify)
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
    delta_bound = max((
        operator_norm(kron_compose(identity(fx, f), t, r.delta[x]),
                      dom_weights=fx.effective_weights(),
                      cod_weights=tuple(a + b for a in fx.effective_weights()
                                        for b in q_weights))
        for x, fx in r.diagram.spaces.items()), default=NormValue.zero())
    return BoundedCoendResult(
        result=r,
        normed_carrier=normed_carrier,
        orth=orth,
        pi_norm=pi_norm,
        injection_norms=injection_norms,
        comultiplication_norm=comult_norm,
        counit_norm=counit_norm,
        delta_bound=delta_bound,
        class_norms=orth.class_norms,
    )
