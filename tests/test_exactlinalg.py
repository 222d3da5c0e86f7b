import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coendforge.exactlinalg import (
    QQ,
    LinearMap,
    NoSolution,
    PadicRationals,
    PrimeField,
    ScalarError,
    Space,
    _is_prime,
    cokernel,
    compose_kron,
    dual,
    echelon,
    field_from_descriptor,
    identity,
    kernel,
    kron_compose,
    padic_valuation,
    parse_matrix,
    solve_factor,
    tensor,
    zero_map,
)

F5 = PrimeField(5)
Q2 = PadicRationals(2)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def qmap(rows, dom=None, cod=None):
    rows = [[Fraction(a) for a in row] for row in rows]
    cod_dim = len(rows)
    dom_dim = len(rows[0]) if rows else 0
    dom = dom or Space.std(dom_dim, prefix="d")
    cod = cod or Space.std(cod_dim, prefix="c")
    return LinearMap(QQ, dom, cod, tuple(tuple(r) for r in rows))


def random_qmap(rng, rows, cols):
    return qmap([[Fraction(rng.randint(-4, 4)) for _ in range(cols)] for _ in range(rows)])


# -- scalars ----------------------------------------------------------------

@given(rationals, rationals)
def test_rational_arithmetic_exact(a, b):
    assert QQ.sub(QQ.add(a, b), b) == a


@given(st.integers(), st.integers())
def test_prime_field_arithmetic_exact(a, b):
    x, y = F5.from_int(a), F5.from_int(b)
    assert F5.sub(F5.add(x, y), y) == x


def test_prime_field_parse_and_invert():
    assert F5.parse("3/4") == (3 * F5.invert(4)) % 5
    with pytest.raises(ScalarError):
        F5.parse("1/5")
    with pytest.raises(ScalarError):
        PrimeField(6)


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert all(_is_prime(n) == trial(n) for n in range(-3, 3000))


def test_is_prime_rejects_strong_pseudoprimes():
    # 561 is a Carmichael number; the others are strong pseudoprimes to every
    # prime base up to 7 and up to 23 respectively
    for n in (561, 3215031751, 3825123056546413051):
        assert not _is_prime(n)
        with pytest.raises(ScalarError):
            PrimeField(n)


def test_large_prime_modulus_is_accepted_fast():
    start = time.perf_counter()
    f = field_from_descriptor("fp:1000000000000000003")
    assert time.perf_counter() - start < 1.0
    assert f.p == 1000000000000000003
    assert f.mul(f.invert(12345), 12345) == 1


def test_modulus_beyond_primality_bound_is_rejected():
    # the smallest number the 13 fixed Miller-Rabin bases cannot decide
    bound = 3317044064679887385961981
    for desc in (f"fp:{bound}", f"padic:{bound + 2}"):
        with pytest.raises(ScalarError, match="exceeds the supported bound"):
            field_from_descriptor(desc)


def test_field_descriptors_roundtrip():
    for desc in ["q", "fp:7", "padic:3"]:
        assert field_from_descriptor(desc).descriptor() == desc
    with pytest.raises(ScalarError):
        field_from_descriptor("r")


def test_padic_valuation():
    assert padic_valuation(Fraction(12), 2) == 2
    assert padic_valuation(Fraction(1, 8), 2) == -3
    assert padic_valuation(Fraction(5, 3), 2) == 0
    assert padic_valuation(0, 2) is None
    assert Q2.valuation(Fraction(6)) == 1


# -- echelon / kernel / cokernel ---------------------------------------------

def test_echelon_identity():
    rank, pivots, _ = echelon(identity(Space.std(2), QQ))
    assert rank == 2 and pivots == [0, 1]


def test_echelon_zero():
    rank, pivots, _ = echelon(zero_map(Space.std(2), Space.std(3), QQ))
    assert rank == 0 and pivots == []


def test_echelon_rank_one():
    rank, _, rows = echelon(qmap([[1, 2], [2, 4]]))
    assert rank == 1
    assert rows[0] == (Fraction(1), Fraction(2))


def test_kernel_of_identity_is_zero_dimensional():
    assert kernel(identity(Space.std(3), QQ)).dom.dim == 0


def test_kernel_of_zero_map_is_identity():
    k = kernel(zero_map(Space.std(2), Space.std(2), QQ))
    assert k.dom.dim == 2
    assert k.entries == identity(Space.std(2), QQ).entries


def test_kernel_of_row_covector():
    k = kernel(qmap([[1, 1]]))
    assert k.dom.dim == 1
    v = k.col(0)
    assert v[0] == -v[1] and v[0] != 0


def test_cokernel_of_zero_map():
    pi, s = cokernel(zero_map(Space.std(0), Space.std(3), QQ))
    assert pi.cod.dim == 3
    assert pi.entries == identity(Space.std(3), QQ).entries
    assert s.entries == pi.entries


def test_cokernel_of_identity_is_zero():
    pi, s = cokernel(identity(Space.std(2), QQ))
    assert pi.cod.dim == 0


def test_cokernel_of_line_in_plane():
    incl = qmap([[1], [1]])
    pi, s = cokernel(incl)
    assert pi.cod.dim == 1
    assert (pi @ incl).is_zero_map()
    assert (pi @ s).entries == ((Fraction(1),),)
    # pi identifies (1,0) with (0,-1): they differ by the relation (1,1)
    assert pi.apply([Fraction(1), Fraction(0)]) == pi.apply([Fraction(0), Fraction(-1)])


@given(st.integers(0, 8), st.integers(0, 8), st.randoms(use_true_random=False))
def test_rank_nullity_and_cokernel_contract(n, m, rnd):
    mp = qmap([[Fraction(rnd.randint(-3, 3)) for _ in range(n)] for _ in range(m)]) \
        if m and n else zero_map(Space.std(n), Space.std(m), QQ)
    rank, _, _ = echelon(mp)
    assert rank + kernel(mp).dom.dim == n
    pi, s = cokernel(mp)
    assert (pi @ mp).is_zero_map()
    assert (pi @ s).entries == identity(pi.cod, QQ).entries
    assert pi.cod.dim == m - rank


# -- tensor / dual -----------------------------------------------------------

def test_tensor_of_identities():
    t = tensor(identity(Space.std(2), QQ), identity(Space.std(3), QQ))
    assert t.entries == identity(Space.std(6), QQ).entries


def test_tensor_of_scalars():
    a = qmap([[2]])
    b = qmap([[3]])
    assert tensor(a, b).entries == ((Fraction(6),),)


def test_tensor_against_quadruple_loop_oracle(rng):
    a = random_qmap(rng, 2, 2)
    b = random_qmap(rng, 2, 2)
    t = tensor(a, b)
    for i1 in range(2):
        for i2 in range(2):
            for j1 in range(2):
                for j2 in range(2):
                    assert (
                        t.entries[i1 * 2 + i2][j1 * 2 + j2]
                        == a.entries[i1][j1] * b.entries[i2][j2]
                    )


def test_tensor_interchange_law(rng):
    for _ in range(10):
        a = random_qmap(rng, 2, 3)
        a2 = random_qmap(rng, 3, 2)
        b = random_qmap(rng, 2, 2)
        b2 = random_qmap(rng, 2, 3)
        assert tensor(a @ a2, b @ b2) == tensor(a, b) @ tensor(a2, b2)


def test_dual_is_transpose_and_involutive():
    m = qmap([[0, 1], [0, 0]])
    d = dual(m)
    assert d.entries == ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)))
    assert dual(d).entries == m.entries
    assert d.dom.labels == ("c0'", "c1'")


def test_dual_is_contravariant(rng):
    for _ in range(5):
        a = random_qmap(rng, 3, 3)
        b = random_qmap(rng, 3, 3)
        assert dual(a @ b) == dual(b) @ dual(a)


# -- lazy Kronecker products ---------------------------------------------------

KRON_FIELDS = [QQ, PrimeField(7), PadicRationals(2)]


@st.composite
def kron_operands(draw):
    """Two factors a, b over one of Q, F_7, padic:2 (zero dimensions
    included), a mostly sparse m with tensor(a, b) @ m defined, and an m2
    with m2 @ tensor(a, b) defined."""
    f = draw(st.sampled_from(KRON_FIELDS))
    dims = st.integers(0, 3)
    scalar = st.one_of(st.just(0), st.just(0), st.integers(-3, 3))

    def mat(rows, cols, dom, cod):
        entries = draw(st.lists(st.lists(scalar, min_size=cols, max_size=cols),
                                min_size=rows, max_size=rows))
        return LinearMap(f, dom, cod, tuple(tuple(f.from_int(a) for a in r) for r in entries))

    ad, ac, bd, bc, k, k2 = (draw(dims) for _ in range(6))
    a = mat(ac, ad, Space.std(ad, "x"), Space.std(ac, "y"))
    b = mat(bc, bd, Space.std(bd, "u"), Space.std(bc, "v"))
    ab = tensor(a, b)
    m = mat(ab.dom.dim, k, Space.std(k, "z"), ab.dom)
    m2 = mat(k2, ab.cod.dim, ab.cod, Space.std(k2, "w"))
    return a, b, m, m2


@given(kron_operands())
def test_kron_compose_matches_dense_tensor(ops):
    a, b, m, m2 = ops
    dense = tensor(a, b) @ m
    lazy = kron_compose(a, b, m)
    assert (lazy.dom, lazy.cod) == (dense.dom, dense.cod)
    assert (lazy.dom.dim, lazy.cod.dim) == (dense.dom.dim, dense.cod.dim)
    assert lazy.entries == dense.entries
    dense_r = m2 @ tensor(a, b)
    lazy_r = compose_kron(m2, a, b)
    assert (lazy_r.dom, lazy_r.cod) == (dense_r.dom, dense_r.cod)
    assert (lazy_r.dom.dim, lazy_r.cod.dim) == (dense_r.dom.dim, dense_r.cod.dim)
    assert lazy_r.entries == dense_r.entries


def test_kron_compose_raises_like_dense():
    a = identity(Space.std(2), QQ)
    b = identity(Space.std(1), PrimeField(5))
    with pytest.raises(ScalarError, match="tensoring"):
        kron_compose(a, b, a)
    with pytest.raises(ScalarError, match="composing"):
        kron_compose(a, a, identity(Space.std(4), PrimeField(5)))
    with pytest.raises(ValueError, match="dom dim 4 vs cod dim 2"):
        kron_compose(a, a, a)
    with pytest.raises(ValueError, match="dom dim 2 vs cod dim 4"):
        compose_kron(a, a, a)


# -- solve_factor ------------------------------------------------------------

def test_solve_factor_identity_case(rng):
    through = random_qmap(rng, 2, 3)
    psi = solve_factor(through, through)
    assert psi @ through == through


def test_solve_factor_zero_target():
    pi, _ = cokernel(qmap([[1], [1]]))
    z = zero_map(pi.dom, Space.std(1), QQ)
    psi = solve_factor(z, pi)
    assert psi.is_zero_map()


def test_solve_factor_recovers_composition(rng):
    for _ in range(20):
        through = random_qmap(rng, 2, 4)
        if through.rank() < 2:
            continue
        psi0 = random_qmap(rng, 3, 2)
        psi = solve_factor(psi0 @ through, through)
        assert psi == psi0


def test_solve_factor_no_solution():
    through = qmap([[1, 1]])
    target = qmap([[1, 0]])
    with pytest.raises(NoSolution):
        solve_factor(target, through)


def test_solve_factor_unique_when_surjective(rng):
    through = qmap([[1, 0, 2], [0, 1, -1]])
    target = random_qmap(rng, 2, 2) @ through
    a = solve_factor(target, through)
    b = solve_factor(target, through)
    assert a == b and a @ through == target


# -- parsing ----------------------------------------------------------------

def test_parse_and_format_roundtrip():
    m = parse_matrix(QQ, [["3/4", "-2"], ["0", "1/3"]], Space.std(2), Space.std(2))
    assert m.entries[0][0] == Fraction(3, 4)
    from coendforge.exactlinalg import format_matrix

    assert format_matrix(m) == [["3/4", "-2"], ["0", "1/3"]]


def test_mixed_fields_rejected():
    a = identity(Space.std(1), QQ)
    b = identity(Space.std(1), PrimeField(5))
    with pytest.raises(ScalarError):
        a @ b
    with pytest.raises(ScalarError):
        tensor(a, b)
