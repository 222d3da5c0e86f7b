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

from .coend import CoendResult, coend_of_functor
from .exactlinalg import (
    LinearMap,
    PadicRationals,
    QQ,
    Space,
    _add_into,
    _apply,
    _dense,
    _qnorm,
    _rref,
    _sparse,
    _transpose,
    cokernel,
    direct_sum_space,
    identity,
    invert_map,
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

@dataclass(frozen=True, order=True)
class NormValue:
    """Either zero or p^exp for an integer exp.  Zero is built with exp 0
    only, so the field order (nonzero, exp) puts zero below every power."""

    nonzero: bool
    exp: int = 0

    @staticmethod
    def zero() -> "NormValue":
        return NormValue(False, 0)

    @staticmethod
    def of_exp(e: int) -> "NormValue":
        return NormValue(True, e)

    @property
    def is_zero(self) -> bool:
        return not self.nonzero

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


def operator_norm(m: LinearMap) -> NormValue:
    """||m|| = max_{i,j} |m_ji|_p p^(-u_j + w_i) for the diagonal norms of m's
    own spaces: w are the weights of m.dom, u those of m.cod, and an
    unweighted space has weight 0 everywhere; exact."""
    p = _prime_of(m.field)
    w, u = m.dom.effective_weights(), m.cod.effective_weights()
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


def _reduce_quotient(ns: NormedSpace, generators, vectors):
    """Reduce each vector v modulo the span W of the generators against one
    greedy orthogonal basis {b_j} (pivot pi_j) of W.  Returns the residuals x
    and their norms ||x|| = ||v + W||.  All values are proved by one
    `_check_certificate` call, with lam the e_i0 coordinate functional of
    the orthogonal basis {b_j} u {e_i : i not a pivot}, where x attains its
    norm at i0: lam_i0 = 1, lam_pi_j = -b_j[i0] / b_j[pi_j], 0 elsewhere.
    All vectors are sparse dicts of canonical Q scalars."""
    f, weights, p = QQ, ns.weights, ns.p
    basis, pivots = _orthogonalize(generators, weights, p)
    residuals = [dict(v) for v in vectors]
    for x in residuals:
        for b, piv in zip(basis, pivots):
            if piv in x:
                _eliminate(x, b, piv)
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


def quotient_norm(ns: NormedSpace, subspace_vectors, v) -> NormValue:
    """inf_w ||v - w|| over the span W of the given vectors, computed exactly.

    The one-vector case of the reduction that `bounded_coend` and
    `banach_colimit` run on all their classes at once.  The greedy residual x
    realizes the infimum: it is zero at every pivot of the orthogonalized
    basis of W, and for such a vector no element of W can lower the norm
    (ultrametric argument on the pivot coordinates).  The dual certificate of
    the module docstring proves the value, and ArithmeticError is raised
    unless it checks.
    """
    gens = [_rational(g) for g in subspace_vectors]
    return _reduce_quotient(ns, gens, [_rational(v)])[1][0]


def _rational(v) -> dict:
    """A dense coordinate vector as a sparse dict of canonical Q scalars."""
    return {i: _qnorm(Fraction(a)) for i, a in enumerate(v) if a}


def _check_certificate(ns: NormedSpace, generators, certificates) -> None:
    """Raise ArithmeticError unless every (v, x, lam) in certificates proves
    ||v + W|| = ||x||, W the span of the generators, by conditions (a)-(c) of
    the module docstring; all vectors are sparse dicts of canonical Q
    scalars.  They are tested on the generators themselves, never on a basis
    derived from them, so the proof holds however x and lam were found.  One
    echelon form and one transpose of the generators serve every
    certificate."""
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
    """A quotient carrier with its quotient norm made diagonal.  class_basis
    sends the coordinates of an orthogonal class basis to quotient
    coordinates, and its domain carries weights that realize the quotient
    norm exactly.  class_norms[j] is the quotient norm of the class of
    section column j."""

    class_basis: LinearMap
    class_norms: list[NormValue]


def _orthogonalize_quotient(total: NormedSpace, pi: LinearMap,
                            section: LinearMap) -> OrthogonalizedQuotient:
    """The orthogonal class basis of the quotient pi: total -> Q, for a
    cokernel pi with section s."""
    f, p = pi.field, total.p
    # the relations' reduced echelon basis without a second elimination: row q
    # is e_q - s(pi(e_q)) for each coordinate q outside the section's image,
    # and those are exactly the nonzero columns of id - s o pi
    relations = [c for c in (identity(total.space, f) - section @ pi).cols if c]
    # one reduction gives the class norms and the reduced section lifts, which
    # are then orthogonalized among themselves; combinations stay zero at
    # kernel pivots, hence stay norm-reduced
    lifts, class_norms = _reduce_quotient(total, relations, section.cols)
    lift_basis, _ = _orthogonalize(lifts, total.weights, p)
    if len(lift_basis) != section.dom.dim:
        raise ArithmeticError("section lifts became dependent during reduction")
    weights = [_lead(vec.items(), total.weights, p)[0] for vec in lift_basis]
    cols = [_apply(pi.cols, vec, f) for vec in lift_basis]
    basis_map = LinearMap.from_sparse(
        f, Space.std(len(cols), prefix="o", weights=weights), pi.cod, cols
    )
    return OrthogonalizedQuotient(basis_map, class_norms)


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


def banach_colimit(F: DiagramFunctor) -> BanachColimit:
    """Quotient of the Banach direct sum by the span of the transition
    relations; in finite dimension the span is already closed, so the
    closure step is the identity (flagged in the result)."""
    f = F.field
    p = _prime_of(f)
    total = banach_sum([NormedSpace(F.space(x), p) for x in F.source.objects])
    offsets = dict(zip(F.source.objects, itertools.accumulate(
        (F.space(x).dim for x in F.source.objects), initial=0)))
    rel_cols, one = [], f.one()
    for m in F.source.non_identity():
        # x - F(m) x for each basis vector x of F(dom m)
        lo, hi = offsets[m.dom], offsets[m.cod]
        for i, col in enumerate(F.map(m.name).cols):
            rel = {lo + i: one}
            for r, v in col.items():
                _add_into(rel, hi + r, f.neg(v), f)
            rel_cols.append(rel)
    rel = LinearMap.from_sparse(f, Space.std(len(rel_cols), prefix="r"), total.space, rel_cols)
    pi, section = cokernel(rel)
    orth = _orthogonalize_quotient(total, pi, section)
    # carrier expressed in the orthogonal class basis; t takes quotient
    # coordinates to class-basis coordinates, where the cocone norms are read
    carrier = NormedSpace(orth.class_basis.dom, p)
    t = invert_map(orth.class_basis)
    cocone = {}
    cocone_norms = {}
    for x in F.source.objects:
        lo = offsets[x]
        kappa = LinearMap.from_sparse(f, F.space(x), pi.cod, pi.cols[lo:lo + F.space(x).dim])
        cocone[x] = kappa
        cocone_norms[x] = operator_norm(t @ kappa)
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


def bounded_coend(F: DiagramFunctor) -> BoundedCoendResult:
    """The algebraic coend equipped with the quotient norm.

    The carrier and every matrix are bit-identical to the algebraic coend
    (over a finite source the boundedness restriction is vacuous); on top of
    that the quotient norm is realized by an orthogonal class basis, whose
    class norms and weights are computed and certified.  The norms of pi,
    the injections, the coalgebra maps and the universal family are then
    decided by the following lemma, with no map composed.

    Let N be the sum of the blocks cohom(F x, F x), whose basis vector
    e_(j,i) has weight w_i - w_j, and Q the carrier with its orthogonal
    class basis.  Weights add, so the blockwise comatrix Delta_N is isometric
    on basis vectors, and eps_N and every coev have norm 1.  pi has norm at
    most 1 by the definition of the quotient norm, and the greedy residual
    lifts each class v to some u with ||u|| = ||v||; so Delta_Q v =
    (pi (x) pi) Delta_N u and eps_Q v = eps_N u give ||Delta_Q|| <= 1 and
    ||eps_Q|| <= 1, the counit law gives 1 <= ||eps_Q|| ||Delta_Q||, and the
    lift gives ||pi|| = 1.  i_x = pi o in_x with in_x isometric, so
    ||i_x|| <= 1, and eps_Q o i_x = eps_x, the trace of block x, has norm 1
    when F(x) != 0; so ||i_x|| = 1 exactly when F(x) != 0, and 0 otherwise.
    delta_x = (id (x) i_x) o coev has norm at most 1, and at least 1 when
    F(x) != 0 since (id (x) eps_Q) o delta_x = id.  Q = 0 exactly when every
    F(x) = 0, and then all five norms are 0.
    """
    r = coend_of_functor(F)
    p = _prime_of(r.field)
    orth = _orthogonalize_quotient(NormedSpace(r.nspace, p), r.pi, r.section)
    one, zero = NormValue.of_exp(0), NormValue.zero()
    nonzero = one if r.carrier.dim else zero
    return BoundedCoendResult(
        result=r,
        normed_carrier=NormedSpace(orth.class_basis.dom, p),
        orth=orth,
        pi_norm=nonzero,
        injection_norms={x: one if r.diagram.spaces[x].dim else zero
                         for x in r.diagram.objects},
        comultiplication_norm=nonzero,
        counit_norm=nonzero,
        delta_bound=nonzero,
        class_norms=orth.class_norms,
    )
