"""Exact arithmetic in rings of cyclotomic integers Z[zeta_N].

Elements are stored in the canonical reduced form modulo the N-th
cyclotomic polynomial Phi_N, so structural equality of coefficient
vectors coincides with ring equality.  Phi_N itself is computed by the
recursive exact division Phi_N = (x^N - 1) / prod_{d|N, d<N} Phi_d.

Coefficients are arbitrary-precision Python ints; no overflow analysis
is ever needed.  All values are immutable and all operations pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


class OrderMismatchError(ValueError):
    """Raised when combining cyclotomic integers of different orders;
    every value of one computation lives in one order."""


class PolynomialDivisionError(ArithmeticError):
    """A divisor that is not monic, or a cyclotomic division of x^n - 1
    that leaves a remainder."""


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    result, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            pk = 1
            while m % p == 0:
                m //= p
                pk *= p
            result *= pk - pk // p
        p += 1
    if m > 1:
        result *= m - 1
    return result


def _poly_divmod_monic(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Divide by a monic integer polynomial; exact integer arithmetic."""
    if den[-1] != 1:
        raise PolynomialDivisionError(f"divisor must be monic, got leading coefficient {den[-1]}")
    num = list(num)
    dd = len(den) - 1
    if len(num) - 1 < dd:
        return [0], num
    quot = [0] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c == 0:
            continue
        quot[k - dd] = c
        for i, d in enumerate(den):
            num[k - dd + i] -= c * d
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, low degree first, monic."""
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            quot, rem = _poly_divmod_monic(num, list(cyclotomic_polynomial(d)))
            if any(rem):
                raise PolynomialDivisionError(f"dividing x^{n} - 1 by Phi_{d} leaves {rem}")
            num = quot
    return tuple(num)


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The nonzero (index, coeff) pairs of x^k mod Phi_n for every k in
    [0, n); only the row being built is dense, so memory follows the nonzeros."""
    phi = euler_phi(n)
    phi_poly = cyclotomic_polynomial(n)
    rows = []
    cur = [1] + [0] * (phi - 1)
    for _ in range(n):
        rows.append(tuple((i, t) for i, t in enumerate(cur) if t))
        over = cur[phi - 1]
        cur = [0] + cur[: phi - 1]
        if over:
            for i in range(phi):
                cur[i] -= over * phi_poly[i]
    return tuple(rows)


def _reduce(n: int, coeffs) -> tuple[int, ...]:
    """Reduce an arbitrary coefficient sequence mod Phi_n (exponents folded mod n)."""
    table = _power_table(n)
    out = [0] * euler_phi(n)
    for k, c in enumerate(coeffs):
        if c:
            for i, t in table[k % n]:
                out[i] += c * t
    return tuple(out)


@dataclass(frozen=True)
class CycInt:
    """A cyclotomic integer: order N plus the reduced coefficient vector."""

    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != euler_phi(self.order):
            raise ValueError(
                f"coefficient vector has length {len(self.coeffs)}, "
                f"expected phi({self.order}) = {euler_phi(self.order)}"
            )

    @classmethod
    def zero(cls, order: int) -> "CycInt":
        return cls(order, (0,) * euler_phi(order))

    @classmethod
    def one(cls, order: int) -> "CycInt":
        return cls(order, _reduce(order, [1]))

    @classmethod
    def from_coeffs(cls, order: int, coeffs) -> "CycInt":
        return cls(order, _reduce(order, list(coeffs)))

    def _check_order(self, other: "CycInt") -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                f"orders differ ({self.order} vs {other.order})"
            )

    def __add__(self, other: "CycInt") -> "CycInt":
        if not isinstance(other, CycInt):
            return NotImplemented
        self._check_order(other)
        return CycInt(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CycInt") -> "CycInt":
        if not isinstance(other, CycInt):
            return NotImplemented
        self._check_order(other)
        return CycInt(self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CycInt":
        return CycInt(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.order, tuple(other * a for a in self.coeffs))
        if not isinstance(other, CycInt):
            return NotImplemented
        self._check_order(other)
        n = self.order
        table = _power_table(n)
        terms = [(j, b) for j, b in enumerate(other.coeffs) if b]
        out = [0] * len(self.coeffs)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in terms:
                    for k, t in table[(i + j) % n]:
                        out[k] += a * b * t
        return CycInt(n, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "CycInt":
        if n < 0:
            raise ValueError("negative powers are not defined for cyclotomic integers")
        result = CycInt.one(self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycInt):
            return NotImplemented
        self._check_order(other)
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)


def root_of_unity(order: int, k: int) -> CycInt:
    """zeta_order^k in reduced form; k may be any integer."""
    return CycInt.from_coeffs(order, [0] * (k % order) + [1])


def sum_of_roots(order: int, exponents) -> CycInt:
    """Sum of zeta_order^e over the given exponents, exactly."""
    table = _power_table(order)
    out = [0] * euler_phi(order)
    for e in exponents:
        for i, t in table[e % order]:
            out[i] += t
    return CycInt(order, tuple(out))
