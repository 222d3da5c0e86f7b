"""Exact scalar arithmetic and linear algebra over Q, F_p and p-adic-flavored Q.

Everything here is exact: rationals are `fractions.Fraction`, prime-field
elements are reduced ints, and the p-adic flavor stores exact rationals whose
valuations are computed on demand.  No floating point anywhere.

Maps are stored as dense matrices, but Kronecker products are applied
lazily: `kron_compose(a, b, m)` equals `tensor(a, b) @ m` and
`compose_kron(m, a, b)` equals `m @ tensor(a, b)`, both computed column by
column from sparse columns without ever building a (x) b.

Conventions fixed once and shared by every other module:
  * matrices are stored row-major; column j is the image of the j-th domain
    basis vector;
  * the tensor product flattens X-major: basis pair (i, j) of X (x) Y sits at
    flat index i * dim(Y) + j;
  * cokernel sections are chosen by the pivot structure of the reduced
    echelon form, so results are deterministic across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
        return a == 0

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

@dataclass(frozen=True)
class LinearMap:
    """A matrix between two based spaces; rows() is cod.dim x dom.dim."""

    field: object
    dom: Space
    cod: Space
    entries: tuple[tuple, ...]

    def __post_init__(self):
        if len(self.entries) != self.cod.dim:
            raise ValueError(
                f"matrix has {len(self.entries)} rows, codomain dim {self.cod.dim}"
            )
        for row in self.entries:
            if len(row) != self.dom.dim:
                raise ValueError(
                    f"matrix row has {len(row)} entries, domain dim {self.dom.dim}"
                )

    # equality ignores labels/weights: two maps are equal when their matrices
    # agree; spaces synthesized along different routes carry different labels.
    def __eq__(self, other):
        return (
            isinstance(other, LinearMap)
            and self.field == other.field
            and self.dom.dim == other.dom.dim
            and self.cod.dim == other.cod.dim
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.dom.dim, self.cod.dim, self.entries))

    def __matmul__(self, other: "LinearMap") -> "LinearMap":
        """Composition self o other (sparse-aware: zero entries are skipped)."""
        if self.field != other.field:
            raise ScalarError("composing maps over different fields")
        if self.dom.dim != other.cod.dim:
            raise ValueError(
                f"composition mismatch: dom dim {self.dom.dim} vs cod dim {other.cod.dim}"
            )
        f = self.field
        zero = f.zero()
        a, b = self.entries, other.entries
        nrows = self.cod.dim
        out = [[zero] * other.dom.dim for _ in range(nrows)]
        for j in range(other.dom.dim):
            for k in range(other.cod.dim):
                bkj = b[k][j]
                if f.is_zero(bkj):
                    continue
                for i in range(nrows):
                    aik = a[i][k]
                    if not f.is_zero(aik):
                        out[i][j] = f.add(out[i][j], f.mul(aik, bkj))
        return LinearMap(f, other.dom, self.cod, tuple(tuple(r) for r in out))

    def __add__(self, other: "LinearMap") -> "LinearMap":
        if (self.dom.dim, self.cod.dim) != (other.dom.dim, other.cod.dim):
            raise ValueError("adding maps of different shapes")
        f = self.field
        rows = tuple(
            tuple(f.add(a, b) for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)
        )
        return LinearMap(f, self.dom, self.cod, rows)

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        return self + other.scale(self.field.from_int(-1))

    def scale(self, c) -> "LinearMap":
        f = self.field
        rows = tuple(tuple(f.mul(c, a) for a in row) for row in self.entries)
        return LinearMap(f, self.dom, self.cod, rows)

    def apply(self, vec):
        """Image of a coefficient vector (length dom.dim)."""
        f = self.field
        if len(vec) != self.dom.dim:
            raise ValueError("vector length does not match domain")
        return [
            _dot(f, row, vec) for row in self.entries
        ]

    def col(self, j: int):
        return [row[j] for row in self.entries]

    def is_zero_map(self) -> bool:
        f = self.field
        return all(f.is_zero(a) for row in self.entries for a in row)

    def rank(self) -> int:
        return echelon(self)[0]


def _dot(f, xs, ys):
    acc = f.zero()
    for x, y in zip(xs, ys):
        if not f.is_zero(x):
            acc = f.add(acc, f.mul(x, y))
    return acc


def identity(space: Space, f) -> LinearMap:
    n = space.dim
    rows = tuple(
        tuple(f.one() if i == j else f.zero() for j in range(n)) for i in range(n)
    )
    return LinearMap(f, space, space, rows)


def zero_map(dom: Space, cod: Space, f) -> LinearMap:
    rows = tuple(tuple(f.zero() for _ in range(dom.dim)) for _ in range(cod.dim))
    return LinearMap(f, dom, cod, rows)


def from_cols(dom: Space, cod: Space, f, cols) -> LinearMap:
    rows = tuple(
        tuple(col[i] for col in cols) for i in range(cod.dim)
    )
    return LinearMap(f, dom, cod, rows)


# ---------------------------------------------------------------------------
# echelon form and derived operations
# ---------------------------------------------------------------------------

def _rref(f, rows):
    """Reduced row echelon form of a list of row lists.  Returns
    (rref rows, pivot column indices).  Deterministic: first nonzero pivot."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, nrows):
            if not f.is_zero(rows[i][c]):
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = f.invert(rows[r][c])
        rows[r] = [f.mul(inv, a) for a in rows[r]]
        for i in range(nrows):
            if i != r and not f.is_zero(rows[i][c]):
                coef = rows[i][c]
                rows[i] = [f.sub(a, f.mul(coef, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def echelon(m: LinearMap):
    """Reduced row echelon form.  Returns (rank, pivot columns, reduced rows)."""
    rows, pivots = _rref(m.field, [list(r) for r in m.entries])
    return len(pivots), pivots, [tuple(r) for r in rows]


def kernel(m: LinearMap) -> LinearMap:
    """Inclusion of ker(m) into the domain; columns form a kernel basis."""
    f = m.field
    n = m.dom.dim
    rows, pivots = _rref(f, [list(r) for r in m.entries]) if m.cod.dim else ([], [])
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    cols = []
    for j in free:
        v = [f.zero()] * n
        v[j] = f.one()
        for r, p in enumerate(pivots):
            v[p] = f.neg(rows[r][j])
        cols.append(v)
    ker_space = Space.std(len(free), prefix="k")
    return from_cols(ker_space, m.dom, f, cols)


def image_basis(m: LinearMap):
    """A deterministic basis of im(m) as a list of codomain vectors
    (reduced echelon basis of the column space)."""
    f = m.field
    rows, _ = _rref(f, [m.col(j) for j in range(m.dom.dim)]) if m.dom.dim else ([], [])
    return [list(r) for r in rows]


def cokernel(m: LinearMap):
    """Quotient of the codomain by im(m).

    Returns (pi, s): pi surjective with pi o m = 0 and ker(pi) = im(m);
    s a section with pi o s = id.  The quotient basis is the set of
    non-pivot coordinates of im(m) in reduced echelon form, so the result
    is deterministic.
    """
    f = m.field
    n = m.cod.dim
    basis = image_basis(m)
    rows, pivots = _rref(f, basis) if basis else ([], [])
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    q_labels = tuple(m.cod.labels[j] for j in free)
    q_weights = (
        None
        if m.cod.weights is None
        else tuple(m.cod.weights[j] for j in free)
    )
    q_space = Space(q_labels, q_weights)
    pi_cols = []
    for i in range(n):
        v = [f.zero()] * n
        v[i] = f.one()
        for r, p in enumerate(pivots):
            if not f.is_zero(v[p]):
                coef = v[p]
                v = [f.sub(a, f.mul(coef, b)) for a, b in zip(v, rows[r])]
        pi_cols.append([v[j] for j in free])
    pi = from_cols(m.cod, q_space, f, pi_cols)
    s_cols = []
    for j in free:
        v = [f.zero()] * n
        v[j] = f.one()
        s_cols.append(v)
    s = from_cols(q_space, m.cod, f, s_cols)
    return pi, s


def tensor(a: LinearMap, b: LinearMap) -> LinearMap:
    """Kronecker product with the X-major index convention."""
    if a.field != b.field:
        raise ScalarError("tensoring maps over different fields")
    f = a.field
    dom = tensor_space(a.dom, b.dom)
    cod = tensor_space(a.cod, b.cod)
    rows = []
    for i1 in range(a.cod.dim):
        for i2 in range(b.cod.dim):
            row = []
            for j1 in range(a.dom.dim):
                x = a.entries[i1][j1]
                if f.is_zero(x):
                    row.extend([f.zero()] * b.dom.dim)
                else:
                    row.extend(f.mul(x, y) for y in b.entries[i2])
            rows.append(tuple(row))
    return LinearMap(f, dom, cod, tuple(rows))


# ---------------------------------------------------------------------------
# sparse columnwise evaluation and lazy Kronecker products: axiom checks and
# (a (x) b) o m push one sparse column at a time through both factors, so the
# dense a (x) b (millions of cells at dimension ~36+) is never built
# ---------------------------------------------------------------------------

def _cols(m: LinearMap):
    """Columns of m as sparse dicts row -> value."""
    f = m.field
    out = [dict() for _ in range(m.dom.dim)]
    for i, row in enumerate(m.entries):
        for j, a in enumerate(row):
            if not f.is_zero(a):
                out[j][i] = a
    return out


def _rows(m: LinearMap):
    """Rows of m as sparse dicts column -> value (the columns of m^T)."""
    f = m.field
    return [{j: a for j, a in enumerate(row) if not f.is_zero(a)} for row in m.entries]


def _apply(cols, vec: dict, f) -> dict:
    out: dict = {}
    for j, c in vec.items():
        for i, a in cols[j].items():
            v = f.add(out.get(i, f.zero()), f.mul(c, a))
            if f.is_zero(v):
                out.pop(i, None)
            else:
                out[i] = v
    return out


def _apply2(cols1, n2, cols2, m2, vec: dict, f) -> dict:
    """Apply (m1 (x) m2) to a sparse vector over dom1 (x) dom2; n2/m2 are the
    domain/codomain dimensions of the second factor."""
    out: dict = {}
    for k, c in vec.items():
        j1, j2 = divmod(k, n2)
        for r1, a1 in cols1[j1].items():
            ca1 = f.mul(c, a1)
            for r2, a2 in cols2[j2].items():
                idx = r1 * m2 + r2
                v = f.add(out.get(idx, f.zero()), f.mul(ca1, a2))
                if f.is_zero(v):
                    out.pop(idx, None)
                else:
                    out[idx] = v
    return out


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
    cod = tensor_space(a.cod, b.cod)
    acols, bcols, n2, m2 = _cols(a), _cols(b), b.dom.dim, b.cod.dim
    out = [[f.zero()] * m.dom.dim for _ in range(cod.dim)]
    for j, col in enumerate(_cols(m)):
        for i, v in _apply2(acols, n2, bcols, m2, col, f).items():
            out[i][j] = v
    return LinearMap(f, m.dom, cod, tuple(tuple(r) for r in out))


def compose_kron(m: LinearMap, a: LinearMap, b: LinearMap) -> LinearMap:
    """m @ tensor(a, b), by the same kernel transposed: row i of the result
    is (a^T (x) b^T) applied to row i of m."""
    _check_kron(a, b, m, m.dom.dim, a.cod.dim * b.cod.dim)
    f = a.field
    dom = tensor_space(a.dom, b.dom)
    arows, brows, n2, m2 = _rows(a), _rows(b), b.cod.dim, b.dom.dim
    out = []
    for row in _rows(m):
        dense = [f.zero()] * dom.dim
        for j, v in _apply2(arows, n2, brows, m2, row, f).items():
            dense[j] = v
        out.append(tuple(dense))
    return LinearMap(f, dom, m.cod, tuple(out))


def dual(m: LinearMap) -> LinearMap:
    """Transpose; maps the dual of the codomain to the dual of the domain."""
    f = m.field
    rows = tuple(
        tuple(m.entries[i][j] for i in range(m.cod.dim)) for j in range(m.dom.dim)
    )
    return LinearMap(f, dual_space(m.cod), dual_space(m.dom), rows)


def swap_map(x: Space, y: Space, f) -> LinearMap:
    """The flip X (x) Y -> Y (x) X as a permutation matrix."""
    dom = tensor_space(x, y)
    cod = tensor_space(y, x)
    rows = [[f.zero()] * dom.dim for _ in range(cod.dim)]
    for i in range(x.dim):
        for j in range(y.dim):
            rows[j * x.dim + i][i * y.dim + j] = f.one()
    return LinearMap(f, dom, cod, tuple(tuple(r) for r in rows))


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
    n = through.dom.dim
    q = through.cod.dim
    t = target.cod.dim
    # solve through^T X = target^T columnwise via one augmented RREF
    aug = [
        [through.entries[i][j] for i in range(q)]
        + [target.entries[i][j] for i in range(t)]
        for j in range(n)
    ]
    rows, pivots = _rref(f, aug) if n else ([], [])
    x = [[f.zero()] * t for _ in range(q)]
    for r, p in enumerate(pivots):
        if p >= q:
            raise NoSolution("kernel of 'through' is not contained in kernel of 'target'")
        x[p] = rows[r][q:]
    psi_rows = tuple(tuple(x[j][i] for j in range(q)) for i in range(t))
    return LinearMap(f, through.cod, target.cod, psi_rows)


def solve_through_injection(target: LinearMap, incl: LinearMap) -> LinearMap:
    """The map psi with incl o psi = target: a corestriction along an
    injective map.  Exists iff im(target) lies inside im(incl); raises
    NoSolution otherwise.  Unique whenever incl is injective.
    """
    # transpose the problem: psi^T o incl^T = target^T
    psi_t = solve_factor(dual(target), dual(incl))
    rows = tuple(
        tuple(psi_t.entries[j][i] for j in range(psi_t.cod.dim))
        for i in range(psi_t.dom.dim)
    )
    return LinearMap(target.field, target.dom, incl.dom, rows)


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
