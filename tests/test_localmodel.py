import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthzero.ffield import FieldTower, TowerTableError
from depthzero.localmodel import (
    CancellationError,
    eta_exponent,
    leading_diff,
    one,
    uniformizer,
    unit,
    uv_galois,
    uv_inv,
    uv_mul,
    uv_pow,
)

Q = 3


@pytest.fixture(scope="module")
def tower():
    return FieldTower.build(3, 1, seed=0, max_level=4)


def test_group_structure():
    a = unit(Q, 2, 3, 1)
    assert uv_mul(Q, a, uv_inv(Q, a)) == one(2)
    assert uv_mul(Q, unit(Q, 2, 1, 1), unit(Q, 2, -1, -1)) == one(2)
    assert uv_pow(Q, a, 3) == uv_mul(Q, a, uv_mul(Q, a, a))


def test_galois_order_is_residue_degree():
    for level in (1, 2, 4):
        x = unit(Q, level, 1, 5)
        y = x
        for _ in range(level):
            y = uv_galois(Q, y)
        assert y == x


def test_galois_is_frobenius_on_residue():
    g = unit(Q, 2, 1, 0)
    assert uv_galois(Q, g).residue.dlog == Q % (Q * Q - 1)
    # the uniformizer sits in the base field: valuation fixed
    assert uv_galois(Q, uniformizer(2)) == uniformizer(2)


def test_leading_diff_cases(tower):
    u = unit(Q, 2, 1, 0)
    v = unit(Q, 2, 3, 0)
    d = leading_diff(tower, u, v)
    assert d.val == 0
    with pytest.raises(CancellationError):
        leading_diff(tower, u, u)
    # lower valuation dominates
    d2 = leading_diff(tower, unit(Q, 2, 1, 2), v)
    assert d2 == unit(Q, 2, v.residue.dlog + tower.neg_one_dlog(2), 0)
    d3 = leading_diff(tower, unit(Q, 2, 1, -1), v)
    assert d3 == unit(Q, 2, 1, -1)


def test_leading_diff_keeps_the_subfield_guard():
    tower = FieldTower.build(3, 1, seed=0, max_level=4)
    tower.zech = tower.zech + 1  # every nonzero sum now lands off the subfield
    with pytest.raises(TowerTableError, match="escaped the subfield"):
        leading_diff(tower, unit(Q, 2, 1, 0), unit(Q, 2, 2, 0))


@settings(max_examples=60, deadline=None)
@given(
    a=st.integers(0, 79), b=st.integers(0, 79),
    va=st.integers(-3, 3), vb=st.integers(-3, 3),
)
def test_leading_diff_antisymmetry(a, b, va, vb):
    tower = FieldTower.build(3, 1, seed=0, max_level=4)
    x, y = unit(Q, 4, a, va), unit(Q, 4, b, vb)
    try:
        d = leading_diff(tower, x, y)
    except CancellationError:
        with pytest.raises(CancellationError):
            leading_diff(tower, y, x)
        return
    dd = leading_diff(tower, y, x)
    assert dd.val == d.val
    assert dd.residue.dlog == (d.residue.dlog + tower.neg_one_dlog(4)) % (3**4 - 1)


@settings(max_examples=60, deadline=None)
@given(
    a=st.integers(0, 79), b=st.integers(0, 79),
    va=st.integers(-2, 2), vb=st.integers(-2, 2),
)
def test_leading_diff_galois_equivariance(a, b, va, vb):
    tower = FieldTower.build(3, 1, seed=0, max_level=4)
    x, y = unit(Q, 4, a, va), unit(Q, 4, b, vb)
    try:
        lhs = uv_galois(Q, leading_diff(tower, x, y))
    except CancellationError:
        with pytest.raises(CancellationError):
            leading_diff(tower, uv_galois(Q, x), uv_galois(Q, y))
        return
    assert lhs == leading_diff(tower, uv_galois(Q, x), uv_galois(Q, y))


def test_eta_values():
    # quadratic character: -1 on the uniformizer, 1 on units
    assert eta_exponent(1, uniformizer(2)) == 2
    assert eta_exponent(1, unit(Q, 2, 5, 0)) == 0
    # order-4 character: zeta_4 on the uniformizer, square is -1
    assert eta_exponent(2, uniformizer(4)) == 1
    assert eta_exponent(2, unit(Q, 4, 0, 2)) == 2
    assert eta_exponent(2, uniformizer(4), branch=-1) == 3
    with pytest.raises(ValueError):
        eta_exponent(1, uniformizer(4))
    with pytest.raises(ValueError):
        eta_exponent(2, uniformizer(4), branch=2)


def test_eta_trivial_on_norms():
    # norms from the quadratic extension have even valuation
    for val in range(-3, 4):
        x = unit(Q, 2, 7, val)
        n = uv_mul(Q, x, uv_galois(Q, x))
        assert eta_exponent(1, n) == 0
    # norms of the quartic extension down to the base have valuation 4Z
    for val in range(-2, 3):
        x = unit(Q, 4, 3, val)
        n = x
        for j in range(1, 4):
            n = uv_mul(Q, n, uv_galois(Q, x, j))
        assert eta_exponent(2, n) == 0
    assert eta_exponent(1, uniformizer(2)) == 2
