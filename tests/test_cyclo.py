import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from depthzero.cyclo import (
    CycInt,
    OrderMismatchError,
    _power_table,
    _reduce,
    cyclotomic_polynomial,
    euler_phi,
    root_of_unity,
    sum_of_roots,
)

ORDERS = [2, 3, 4, 8, 12]


def test_cyclotomic_polynomials_known():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_root_of_unity_examples():
    # zeta_4^2 = -1
    assert root_of_unity(4, 2).coeffs == (-1, 0)
    # identity case for several orders
    for n in (1, 2, 5, 12, 30):
        assert root_of_unity(n, 0) == CycInt.one(n)
    # derived by reducing x^2 mod x^2 - x + 1: zeta_6^2 = zeta_6 - 1
    assert root_of_unity(6, 2).coeffs == (-1, 1)


def test_full_root_sum_vanishes():
    for n in range(2, 16):
        assert sum_of_roots(n, range(n)).is_zero()


def test_zeta4_squared():
    z = root_of_unity(4, 1)
    assert z * z == root_of_unity(4, 2)
    assert z * z == -CycInt.one(4)


def test_sqrt2_identity():
    # (zeta_8 + zeta_8^7)^2 = 2, derived by expanding mod x^4 + 1
    s = root_of_unity(8, 1) + root_of_unity(8, 7)
    assert (s * s).coeffs == (2, 0, 0, 0)


def test_order_mismatch_raises():
    a, b = root_of_unity(4, 1), root_of_unity(3, 1)
    with pytest.raises(OrderMismatchError):
        _ = a + b
    with pytest.raises(OrderMismatchError):
        _ = a * b
    with pytest.raises(OrderMismatchError):
        _ = a == b


def test_roots_have_exact_order():
    for n in ORDERS:
        for k in range(n):
            assert root_of_unity(n, k) ** n == CycInt.one(n)


small_coeffs = st.lists(st.integers(-30, 30), min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from(ORDERS),
    ca=small_coeffs,
    cb=small_coeffs,
    cc=small_coeffs,
)
def test_ring_axioms(n, ca, cb, cc):
    a = CycInt.from_coeffs(n, ca)
    b = CycInt.from_coeffs(n, cb)
    c = CycInt.from_coeffs(n, cc)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == CycInt.zero(n)
    assert a * CycInt.one(n) == a


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from(ORDERS), k=st.integers(-50, 50), j=st.integers(-50, 50))
def test_root_multiplication_is_exponent_addition(n, k, j):
    assert root_of_unity(n, k) * root_of_unity(n, j) == root_of_unity(n, k + j)


def test_coeff_length_checked():
    with pytest.raises(ValueError):
        CycInt(8, (1, 2))
    assert euler_phi(8) == 4


# independent oracle: sympy's cyclotomic polynomials and polynomial remainder
_X = sympy.symbols("x")


def test_cyclotomic_polynomials_match_sympy():
    for n in range(1, 121):
        coeffs = sympy.Poly(sympy.cyclotomic_poly(n, _X), _X).all_coeffs()
        assert cyclotomic_polynomial(n) == tuple(int(c) for c in reversed(coeffs)), n


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3, 5, 8, 12, 15, 24, 30, 48]),
    coeffs=st.lists(st.integers(-30, 30), min_size=1, max_size=60),
)
def test_reduce_matches_sympy_remainder(n, coeffs):
    poly = sympy.Poly(list(reversed(coeffs)), _X)
    phi = sympy.Poly(sympy.cyclotomic_poly(n, _X), _X)
    remainder = [int(c) for c in reversed(sympy.rem(poly, phi).all_coeffs())]
    remainder += [0] * (euler_phi(n) - len(remainder))
    assert _reduce(n, coeffs) == tuple(remainder)


# independent of the sparse rows: reduction through every entry of the dense
# power table, the product as a full convolution, the root sum via buckets
def _dense_reduce(n, coeffs):
    table = _power_table(n)
    out = [0] * euler_phi(n)
    for k, c in enumerate(coeffs):
        for i, t in enumerate(table[k % n]):
            out[i] += c * t
    return tuple(out)


sparse_coeffs = st.integers(-3, 3)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.sampled_from([8, 12, 20, 24, 48, 52, 120]))
def test_sparse_reduction_matches_dense_power_table(data, n):
    phi = euler_phi(n)
    coeffs = data.draw(st.lists(sparse_coeffs, max_size=3 * n))
    assert _reduce(n, coeffs) == _dense_reduce(n, coeffs)
    a, b = (data.draw(st.lists(sparse_coeffs, min_size=phi, max_size=phi)) for _ in range(2))
    conv = [0] * (2 * phi - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    assert (CycInt(n, tuple(a)) * CycInt(n, tuple(b))).coeffs == _dense_reduce(n, conv)
    exponents = data.draw(st.lists(st.integers(-3 * n, 3 * n), max_size=4 * n))
    buckets = [0] * n
    for e in exponents:
        buckets[e % n] += 1
    assert sum_of_roots(n, exponents).coeffs == _dense_reduce(n, buckets)
    k = data.draw(st.integers(-3 * n, 3 * n))
    assert root_of_unity(n, k).coeffs == _dense_reduce(n, [0] * (k % n) + [1])
