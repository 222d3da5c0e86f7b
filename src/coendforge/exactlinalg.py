"""Exact scalar arithmetic and linear algebra over Q, F_p and p-adic-flavored Q.

Everything here is exact: rationals are `fractions.Fraction`, prime-field
elements are reduced ints, and the p-adic flavor stores exact rationals whose
valuations are computed on demand.  No floating point anywhere.

Maps are stored as sparse columns (dicts row -> nonzero entry); the dense
row-major `entries` are a view built on demand for the JSON boundary.
Composition, Kronecker products and echelon forms touch only nonzero
entries, and Kronecker products are applied lazily: `kron_compose(a, b, m)`
equals `tensor(a, b) @ m` and `compose_kron(m, a, b)` equals
`m @ tensor(a, b)`, both computed column by column without ever building
a (x) b.

Conventions fixed once and shared by every other module:
  * matrices are stored row-major; column j is the image of the j-th domain
    basis vector;
  * the tensor product flattens X-major: basis pair (i, j) of X (x) Y sits at
    flat index i * dim(Y) + j;
  * cokernel sections are chosen by the pivot structure of the reduced
    echelon form, so results are deterministic across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class NoSolution(Exception):
    """Raised when a factorization problem has no exact solution."""


class ScalarError(ValueError):
    """Malformed or mixed-variant scalar input."""


# ---------------------------------------------------------------------------
# scalar fields
# ---------------------------------------------------------------------------

# Sorenson and Webster (Math. Comp. 86, 2017): Miller-Rabin with the first 13
# prime bases is deterministic for every n below this bound.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic primality test; raises ScalarError above the range in
    which the fixed Miller-Rabin bases are proven to decide."""
    if p >= _MR_BOUND:
        raise ScalarError(f"modulus {p} exceeds the supported bound {_MR_BOUND}")
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Rationals:
    """The field Q; elements are Fraction."""

    kind = "q"
    p = None
    _ZERO = Fraction(0)
    _ONE = Fraction(1)

    def zero(self):
        return self._ZERO

    def one(self):
        return self._ONE

    def from_int(self, n: int):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def invert(self, a):
        if a == 0:
            raise ZeroDivisionError("inverting 0")
        return 1 / a

    def is_zero(self, a) -> bool:
        return not a

    def parse(self, s: str):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise ScalarError(f"cannot parse scalar {s!r}: {exc}") from None

    def fmt(self, a) -> str:
        return str(a)

    def descriptor(self) -> str:
        return "q"

    def __eq__(self, other):
        return isinstance(other, Rationals) and type(other) is type(self)

    def __hash__(self):
        return hash(self.kind)

    def __repr__(self):
        return "Q"


class PadicRationals(Rationals):
    """Q with a prime p attached; arithmetic is plain rational arithmetic,
    the prime only matters for valuations and norms."""

    kind = "padic"

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ScalarError(f"{p} is not prime")
        self.p = p

    def valuation(self, a) -> int | None:
        """p-adic valuation of an exact rational; None encodes v(0) = +oo."""
        return padic_valuation(a, self.p)

    def descriptor(self) -> str:
        return f"padic:{self.p}"

    def __eq__(self, other):
        return isinstance(other, PadicRationals) and other.p == self.p

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return f"Q(padic,p={self.p})"


class PrimeField:
    """The field F_p; elements are ints reduced mod p."""

    kind = "fp"

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ScalarError(f"{p} is not prime")
        self.p = p

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def invert(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverting 0 in F_p")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def parse(self, s: str):
        try:
            q = Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise ScalarError(f"cannot parse scalar {s!r}: {exc}") from None
        if q.denominator % self.p == 0:
            raise ScalarError(f"{s!r} has denominator divisible by {self.p}")
        return (q.numerator % self.p) * self.invert(q.denominator % self.p) % self.p

    def fmt(self, a) -> str:
        return str(a % self.p)

    def descriptor(self) -> str:
        return f"fp:{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return f"F_{self.p}"


QQ = Rationals()


def field_from_descriptor(desc: str):
    """Parse a field descriptor: 'q', 'fp:<p>' or 'padic:<p>'."""
    if desc == "q":
        return QQ
    if desc.startswith("fp:"):
        return PrimeField(int(desc[3:]))
    if desc.startswith("padic:"):
        return PadicRationals(int(desc[6:]))
    raise ScalarError(f"unknown field descriptor {desc!r}")


def padic_valuation(a, p: int) -> int | None:
    """v_p of an exact rational (None for 0)."""
    a = Fraction(a)
    if a == 0:
        return None
    v = 0
    n = a.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = a.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


# ---------------------------------------------------------------------------
# spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Space:
    """A finite-dimensional based vector space: basis labels plus optional
    integer norm weights (weight w means the basis vector has norm p^-w)."""

    labels: tuple[str, ...]
    weights: tuple[int, ...] | None = None

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("basis labels must be unique within a space")
        if self.weights is not None and len(self.weights) != len(self.labels):
            raise ValueError("weight count must equal dimension")

    @property
    def dim(self) -> int:
        return len(self.labels)

    @staticmethod
    def std(dim: int, prefix: str = "e", weights=None) -> "Space":
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        return Space(
            tuple(f"{prefix}{i}" for i in range(dim)),
            None if weights is None else tuple(weights),
        )

    def with_weights(self, weights) -> "Space":
        return Space(self.labels, tuple(weights))

    def effective_weights(self) -> tuple[int, ...]:
        return self.weights if self.weights is not None else (0,) * self.dim


def tensor_space(x: Space, y: Space) -> Space:
    """X (x) Y with the X-major pair basis; weights add when present."""
    labels = tuple(f"{a}(x){b}" for a in x.labels for b in y.labels)
    if x.weights is None and y.weights is None:
        weights = None
    else:
        wx, wy = x.effective_weights(), y.effective_weights()
        weights = tuple(a + b for a in wx for b in wy)
    return Space(labels, weights)


def dual_space(x: Space) -> Space:
    """Dual basis labels are primed; weights flip sign (dual of norm p^-w is p^w)."""
    weights = None if x.weights is None else tuple(-w for w in x.weights)
    return Space(tuple(f"{a}'" for a in x.labels), weights)


def direct_sum_space(spaces: list[Space]) -> Space:
    labels = []
    weights = []
    has_weights = any(s.weights is not None for s in spaces)
    for k, s in enumerate(spaces):
        labels.extend(f"{k}.{a}" for a in s.labels)
        weights.extend(s.effective_weights())
    return Space(tuple(labels), tuple(weights) if has_weights else None)


# ---------------------------------------------------------------------------
# linear maps
# ---------------------------------------------------------------------------

class LinearMap:
    """A matrix between two based spaces, stored as sparse columns.

    ``cols[j]`` is the image of the j-th domain basis vector: a dict
    row -> value holding only the nonzero entries.  Entries are canonical
    field elements (Fractions over Q, reduced ints over F_p), so two maps are
    equal exactly when their columns are, however they were built.

    ``LinearMap(field, dom, cod, entries)`` takes the dense row-major form
    (cod.dim rows of dom.dim entries) and builds the columns on first use;
    ``LinearMap.from_sparse`` takes the columns.  ``entries`` is the dense
    view, built on first use, for the JSON boundary and for callers that
    read rows.
    """

    __slots__ = ("field", "dom", "cod", "_cols", "_entries", "_hash")

    def __init__(self, field, dom: Space, cod: Space, entries):
        if len(entries) != cod.dim:
            raise ValueError(f"matrix has {len(entries)} rows, codomain dim {cod.dim}")
        for row in entries:
            if len(row) != dom.dim:
                raise ValueError(
                    f"matrix row has {len(row)} entries, domain dim {dom.dim}"
                )
        self.field, self.dom, self.cod = field, dom, cod
        self._entries, self._cols, self._hash = entries, None, None

    @classmethod
    def from_sparse(cls, field, dom: Space, cod: Space, cols) -> "LinearMap":
        """The map whose j-th column is the dict cols[j] (row -> nonzero
        value); the dicts are taken over, not copied."""
        if len(cols) != dom.dim:
            raise ValueError(f"map has {len(cols)} columns, domain dim {dom.dim}")
        m = cls.__new__(cls)
        m.field, m.dom, m.cod = field, dom, cod
        m._entries, m._cols, m._hash = None, cols, None
        return m

    @property
    def cols(self):
        if self._cols is None:
            is_zero = self.field.is_zero
            cols = [{} for _ in range(self.dom.dim)]
            for i, row in enumerate(self._entries):
                for j, a in enumerate(row):
                    if not is_zero(a):
                        cols[j][i] = a
            self._cols = cols
        return self._cols

    @property
    def entries(self) -> tuple[tuple, ...]:
        if self._entries is None:
            zero = self.field.zero()
            rows = [[zero] * self.dom.dim for _ in range(self.cod.dim)]
            for j, col in enumerate(self._cols):
                for i, a in col.items():
                    rows[i][j] = a
            self._entries = tuple(map(tuple, rows))
        return self._entries

    # equality ignores labels/weights: two maps are equal when their matrices
    # agree; spaces synthesized along different routes carry different labels.
    def __eq__(self, other):
        return (
            isinstance(other, LinearMap)
            and self.field == other.field
            and self.dom.dim == other.dom.dim
            and self.cod.dim == other.cod.dim
            and self.cols == other.cols
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, self.dom.dim, self.cod.dim,
                               tuple(frozenset(c.items()) for c in self.cols)))
        return self._hash

    def __repr__(self):
        return f"LinearMap({self.field!r}, {self.dom.dim} -> {self.cod.dim}, cols={self.cols!r})"

    def __matmul__(self, other: "LinearMap") -> "LinearMap":
        """Composition self o other, one sparse column of other at a time."""
        if self.field != other.field:
            raise ScalarError("composing maps over different fields")
        if self.dom.dim != other.cod.dim:
            raise ValueError(
                f"composition mismatch: dom dim {self.dom.dim} vs cod dim {other.cod.dim}"
            )
        f, acols = self.field, self.cols
        return LinearMap.from_sparse(
            f, other.dom, self.cod, [_apply(acols, col, f) for col in other.cols]
        )

    def __add__(self, other: "LinearMap") -> "LinearMap":
        if (self.dom.dim, self.cod.dim) != (other.dom.dim, other.cod.dim):
            raise ValueError("adding maps of different shapes")
        f = self.field
        cols = []
        for ca, cb in zip(self.cols, other.cols):
            col = dict(ca)
            for i, b in cb.items():
                _add_into(col, i, b, f)
            cols.append(col)
        return LinearMap.from_sparse(f, self.dom, self.cod, cols)

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        return self + other.scale(self.field.from_int(-1))

    def scale(self, c) -> "LinearMap":
        f = self.field
        if f.is_zero(c):
            return zero_map(self.dom, self.cod, f)
        cols = [{i: f.mul(c, a) for i, a in col.items()} for col in self.cols]
        return LinearMap.from_sparse(f, self.dom, self.cod, cols)

    def apply(self, vec):
        """Image of a coefficient vector (length dom.dim)."""
        if len(vec) != self.dom.dim:
            raise ValueError("vector length does not match domain")
        f = self.field
        return _dense(_apply(self.cols, _sparse(vec, f), f), self.cod.dim, f)

    def col(self, j: int):
        return _dense(self.cols[j], self.cod.dim, self.field)

    def is_zero_map(self) -> bool:
        return not any(self.cols)

    def rank(self) -> int:
        return echelon(self)[0]


def identity(space: Space, f) -> LinearMap:
    one = f.one()
    return LinearMap.from_sparse(f, space, space, [{i: one} for i in range(space.dim)])


def zero_map(dom: Space, cod: Space, f) -> LinearMap:
    return LinearMap.from_sparse(f, dom, cod, [{} for _ in range(dom.dim)])


# ---------------------------------------------------------------------------
# sparse vectors: dicts index -> nonzero value.  Every map operation and
# axiom check pushes these through sparse columns, so no dense matrix (and
# in particular no dense Kronecker product) is ever scanned cell by cell
# ---------------------------------------------------------------------------

def _sparse(vec, f) -> dict:
    return {i: a for i, a in enumerate(vec) if not f.is_zero(a)}


def _dense(vec: dict, n: int, f) -> list:
    out = [f.zero()] * n
    for i, a in vec.items():
        out[i] = a
    return out


def _transpose(cols, nrows: int):
    """The rows of the matrix with sparse columns cols, as sparse dicts."""
    rows = [{} for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, a in col.items():
            rows[i][j] = a
    return rows


def _add_into(vec: dict, i, v, f) -> None:
    """vec[i] += v for a nonzero v, dropping the entry when it cancels."""
    if i in vec:
        v = f.add(vec[i], v)
        if f.is_zero(v):
            del vec[i]
            return
    vec[i] = v


def _apply(cols, vec: dict, f) -> dict:
    add, mul, is_zero = f.add, f.mul, f.is_zero
    out: dict = {}
    for j, c in vec.items():
        for i, a in cols[j].items():
            v = mul(c, a)
            if i in out:
                v = add(out[i], v)
                if is_zero(v):
                    del out[i]
                    continue
            out[i] = v
    return out


def _apply2(cols1, n2, cols2, m2, vec: dict, f) -> dict:
    """Apply (m1 (x) m2) to a sparse vector over dom1 (x) dom2; n2/m2 are the
    domain/codomain dimensions of the second factor."""
    add, mul, is_zero = f.add, f.mul, f.is_zero
    out: dict = {}
    for k, c in vec.items():
        j1, j2 = divmod(k, n2)
        col2 = cols2[j2]
        for r1, a1 in cols1[j1].items():
            ca1 = mul(c, a1)
            base = r1 * m2
            for r2, a2 in col2.items():
                idx = base + r2
                v = mul(ca1, a2)
                if idx in out:
                    v = add(out[idx], v)
                    if is_zero(v):
                        del out[idx]
                        continue
                out[idx] = v
    return out


# ---------------------------------------------------------------------------
# echelon form and derived operations
# ---------------------------------------------------------------------------

def _rref(f, rows):
    """Reduced row echelon form of sparse rows (dicts column -> nonzero
    value).  Returns (the nonzero reduced rows, their pivot columns), in
    pivot order.  Gauss-Jordan by increasing column; each pivot is the first
    row, in the current row order, that is nonzero in its column.  Only
    nonzero entries are touched: `holders` indexes the rows by column."""
    rows = [dict(r) for r in rows]
    holders: dict = {}
    for i, row in enumerate(rows):
        for c in row:
            holders.setdefault(c, set()).add(i)
    order = list(range(len(rows)))  # row at each position
    pos = list(range(len(rows)))  # position of each row
    zero = f.zero()
    pivots = []
    for c in sorted(holders):
        r = len(pivots)
        below = [i for i in holders[c] if pos[i] >= r]
        if not below:
            continue
        sel = min(below, key=pos.__getitem__)
        moved = order[r]
        order[r], order[pos[sel]] = sel, moved
        pos[moved], pos[sel] = pos[sel], r
        prow = rows[sel]
        inv = f.invert(prow[c])
        for k in prow:
            prow[k] = f.mul(inv, prow[k])
        for i in list(holders[c]):
            if i == sel:
                continue
            row = rows[i]
            coef = row[c]
            for k, b in prow.items():
                v = f.sub(row.get(k, zero), f.mul(coef, b))
                if f.is_zero(v):
                    if k in row:
                        del row[k]
                        holders[k].discard(i)
                else:
                    if k not in row:
                        holders[k].add(i)
                    row[k] = v
        pivots.append(c)
    return [rows[i] for i in order[:len(pivots)]], pivots


def echelon(m: LinearMap):
    """Reduced row echelon form.  Returns (rank, pivot columns, reduced rows)."""
    f, n = m.field, m.dom.dim
    rows, pivots = _rref(f, _transpose(m.cols, m.cod.dim))
    return len(pivots), pivots, [tuple(_dense(r, n, f)) for r in rows]


def kernel(m: LinearMap) -> LinearMap:
    """Inclusion of ker(m) into the domain; columns form a kernel basis."""
    f = m.field
    rows, pivots = _rref(f, _transpose(m.cols, m.cod.dim))
    pivot_set = set(pivots)
    free = [j for j in range(m.dom.dim) if j not in pivot_set]
    cols = {j: {j: f.one()} for j in free}
    for row, p in zip(rows, pivots):
        # a reduced row is zero at every other pivot, so j is free
        for j, a in row.items():
            if j != p:
                cols[j][p] = f.neg(a)
    ker_space = Space.std(len(free), prefix="k")
    return LinearMap.from_sparse(f, ker_space, m.dom, [cols[j] for j in free])


def cokernel(m: LinearMap):
    """Quotient of the codomain by im(m).

    Returns (pi, s): pi surjective with pi o m = 0 and ker(pi) = im(m);
    s a section with pi o s = id.  The quotient basis is the set of
    non-pivot coordinates of im(m) in reduced echelon form, so the result
    is deterministic.
    """
    f = m.field
    n = m.cod.dim
    rows, pivots = _rref(f, m.cols)
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    q_labels = tuple(m.cod.labels[j] for j in free)
    q_weights = (
        None
        if m.cod.weights is None
        else tuple(m.cod.weights[j] for j in free)
    )
    q_space = Space(q_labels, q_weights)
    index = {j: k for k, j in enumerate(free)}
    one = f.one()
    # pi(e_j) = e_j for free j; pi(e_p) = -(the rest of the row pivoted at p)
    pi_cols = [None] * n
    for j in free:
        pi_cols[j] = {index[j]: one}
    for row, p in zip(rows, pivots):
        pi_cols[p] = {index[j]: f.neg(a) for j, a in row.items() if j != p}
    pi = LinearMap.from_sparse(f, m.cod, q_space, pi_cols)
    s = LinearMap.from_sparse(f, q_space, m.cod, [{j: one} for j in free])
    return pi, s


def tensor(a: LinearMap, b: LinearMap) -> LinearMap:
    """Kronecker product with the X-major index convention."""
    if a.field != b.field:
        raise ScalarError("tensoring maps over different fields")
    f = a.field
    mul, m2 = f.mul, b.cod.dim
    cols = [
        {i1 * m2 + i2: mul(x, y) for i1, x in ca.items() for i2, y in cb.items()}
        for ca in a.cols for cb in b.cols
    ]
    return LinearMap.from_sparse(
        f, tensor_space(a.dom, b.dom), tensor_space(a.cod, b.cod), cols
    )


# ---------------------------------------------------------------------------
# lazy Kronecker products: (a (x) b) o m pushes one sparse column at a time
# through both factors, so the dense a (x) b (millions of cells at
# dimension ~36+) is never built
# ---------------------------------------------------------------------------

def _check_kron(a: LinearMap, b: LinearMap, m: LinearMap, dom_dim: int, cod_dim: int):
    """The errors tensor and @ raise, in the order they raise them."""
    if a.field != b.field:
        raise ScalarError("tensoring maps over different fields")
    if m.field != a.field:
        raise ScalarError("composing maps over different fields")
    if dom_dim != cod_dim:
        raise ValueError(
            f"composition mismatch: dom dim {dom_dim} vs cod dim {cod_dim}"
        )


def kron_compose(a: LinearMap, b: LinearMap, m: LinearMap) -> LinearMap:
    """tensor(a, b) @ m, computed without building a (x) b: each sparse
    column of m is pushed through both factors at once, which is the
    identity (A (x) B) vec(X) = vec(B X A^T) read column by column."""
    _check_kron(a, b, m, a.dom.dim * b.dom.dim, m.cod.dim)
    f = a.field
    acols, bcols, n2, m2 = a.cols, b.cols, b.dom.dim, b.cod.dim
    cols = [_apply2(acols, n2, bcols, m2, col, f) for col in m.cols]
    return LinearMap.from_sparse(f, m.dom, tensor_space(a.cod, b.cod), cols)


def compose_kron(m: LinearMap, a: LinearMap, b: LinearMap) -> LinearMap:
    """m @ tensor(a, b), by the same kernel transposed: row i of the result
    is (a^T (x) b^T) applied to row i of m."""
    _check_kron(a, b, m, m.dom.dim, a.cod.dim * b.cod.dim)
    f = a.field
    dom = tensor_space(a.dom, b.dom)
    arows, brows = _transpose(a.cols, a.cod.dim), _transpose(b.cols, b.cod.dim)
    n2, m2 = b.cod.dim, b.dom.dim
    rows = [_apply2(arows, n2, brows, m2, row, f) for row in _transpose(m.cols, m.cod.dim)]
    return LinearMap.from_sparse(f, dom, m.cod, _transpose(rows, dom.dim))


def dual(m: LinearMap) -> LinearMap:
    """Transpose; maps the dual of the codomain to the dual of the domain."""
    return LinearMap.from_sparse(
        m.field, dual_space(m.cod), dual_space(m.dom), _transpose(m.cols, m.cod.dim)
    )


def swap_map(x: Space, y: Space, f) -> LinearMap:
    """The flip X (x) Y -> Y (x) X as a permutation matrix."""
    one = f.one()
    cols = [{j * x.dim + i: one} for i in range(x.dim) for j in range(y.dim)]
    return LinearMap.from_sparse(f, tensor_space(x, y), tensor_space(y, x), cols)


def solve_factor(target: LinearMap, through: LinearMap) -> LinearMap:
    """The unique psi with psi o through = target, when it exists.

    Exists iff ker(through) is contained in ker(target); unique whenever
    through is surjective.  Raises NoSolution otherwise.  Free coordinates
    (when through is not surjective) are set to zero.
    """
    if target.field != through.field:
        raise ScalarError("factoring maps over different fields")
    if target.dom.dim != through.dom.dim:
        raise ValueError("target and through must share a domain")
    f = target.field
    q = through.cod.dim
    # solve through^T X = target^T columnwise via one augmented RREF: row j
    # is column j of through followed by column j of target
    aug = []
    for tcol, gcol in zip(through.cols, target.cols):
        row = dict(tcol)
        for i, a in gcol.items():
            row[q + i] = a
        aug.append(row)
    rows, pivots = _rref(f, aug)
    psi_cols = [{} for _ in range(q)]
    for row, p in zip(rows, pivots):
        if p >= q:
            raise NoSolution("kernel of 'through' is not contained in kernel of 'target'")
        psi_cols[p] = {i - q: a for i, a in row.items() if i >= q}
    return LinearMap.from_sparse(f, through.cod, target.cod, psi_cols)


def solve_through_injection(target: LinearMap, incl: LinearMap) -> LinearMap:
    """The map psi with incl o psi = target: a corestriction along an
    injective map.  Exists iff im(target) lies inside im(incl); raises
    NoSolution otherwise.  Unique whenever incl is injective.
    """
    # transpose the problem: psi^T o incl^T = target^T
    psi_t = solve_factor(dual(target), dual(incl))
    return LinearMap.from_sparse(
        target.field, target.dom, incl.dom, _transpose(psi_t.cols, psi_t.cod.dim)
    )


def invert_map(m: LinearMap) -> LinearMap:
    """Inverse of a square invertible map; raises NoSolution if singular."""
    if m.dom.dim != m.cod.dim:
        raise NoSolution("only square maps can be inverted")
    return solve_factor(identity(m.dom, m.field), m)


def parse_matrix(f, rows, dom: Space, cod: Space) -> LinearMap:
    """Build a map from row-major string (or numeric) entries."""
    parsed = []
    for row in rows:
        parsed.append(
            tuple(f.parse(str(a)) if not isinstance(a, str) else f.parse(a) for a in row)
        )
    return LinearMap(f, dom, cod, tuple(parsed))


def format_matrix(m: LinearMap):
    """Row-major matrix as exact-scalar strings (the wire format)."""
    f = m.field
    return [[f.fmt(a) for a in row] for row in m.entries]
