import tracemalloc
from functools import lru_cache

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from depthzero import cyclo
from depthzero.cyclo import (
    CycInt,
    OrderMismatchError,
    PolynomialDivisionError,
    _poly_divmod_monic,
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


def test_division_guards_raise_named_errors(monkeypatch, run_optimized):
    """A divisor that is not monic, and a factor Phi_d that does not divide
    x^n - 1 (here Phi_2 replaced by x - 2), raise PolynomialDivisionError,
    also with asserts stripped."""
    with pytest.raises(PolynomialDivisionError, match="divisor must be monic"):
        _poly_divmod_monic([1, 0, 1], [1, 2])
    original = cyclotomic_polynomial
    monkeypatch.setattr(cyclo, "cyclotomic_polynomial",
                        lambda d: (-2, 1) if d == 2 else original(d))
    with pytest.raises(PolynomialDivisionError, match="by Phi_2 leaves"):
        original.__wrapped__(4)
    got = run_optimized("""
import json
from depthzero import cyclo
original = cyclo.cyclotomic_polynomial
cyclo.cyclotomic_polynomial = lambda d: (-2, 1) if d == 2 else original(d)
messages = []
for call in (lambda: cyclo._poly_divmod_monic([1, 0, 1], [1, 2]), lambda: original(4)):
    try:
        call()
        messages.append(None)
    except cyclo.PolynomialDivisionError as exc:
        messages.append(str(exc))
print(json.dumps(messages))
""")
    assert got == ["divisor must be monic, got leading coefficient 2",
                   "dividing x^4 - 1 by Phi_2 leaves [15]"]


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


# independent of the sparse rows: x^k mod Phi_n by sympy's remainder, every
# entry of each row kept; the product as a full convolution, the root sum
# via buckets
@lru_cache(maxsize=None)
def _dense_rows(n):
    phi = sympy.Poly(sympy.cyclotomic_poly(n, _X), _X)
    rows = []
    for k in range(n):
        rem = [int(c) for c in reversed(sympy.rem(sympy.Poly(_X**k, _X), phi).all_coeffs())]
        rows.append(tuple(rem + [0] * (euler_phi(n) - len(rem))))
    return tuple(rows)


def _dense_reduce(n, coeffs):
    table = _dense_rows(n)
    out = [0] * euler_phi(n)
    for k, c in enumerate(coeffs):
        for i, t in enumerate(table[k % n]):
            out[i] += c * t
    return tuple(out)


SPARSE_ORDERS = [8, 12, 20, 24, 48, 52, 120]


@pytest.mark.parametrize("n", SPARSE_ORDERS)
def test_power_table_rows_are_the_dense_nonzeros(n):
    assert _power_table(n) == tuple(
        tuple((i, t) for i, t in enumerate(row) if t) for row in _dense_rows(n)
    )


def test_power_table_memory_follows_nonzeros():
    """At n = 1684 = 4 * 421 the dense n x phi(n) table would take ~11 MB;
    the sparse rows, built one dense row at a time, stay under 1 MB."""
    n = 1684
    _power_table.cache_clear()
    cyclotomic_polynomial(n)  # cached separately; not part of the table
    tracemalloc.start()
    try:
        table = _power_table(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _power_table.cache_clear()
    assert len(table) == n and peak < 2**20, peak


sparse_coeffs = st.integers(-3, 3)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.sampled_from(SPARSE_ORDERS))
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
