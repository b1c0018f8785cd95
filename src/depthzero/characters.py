"""Depth-zero characters of the rational tori and their cover extensions.

A depth-zero character is a character of the finite rational torus
(mu_(q+1) x mu_(q+1) for torus 1, mu_(q^2+1) for torus 2), stored by its
exponents.  The checks hold characters as int64 exponent rows: the
regular ones from one pool, ``regular_exponent_rows``, conjugated by
``conjugate_rows``; an object is made only for a FAIL witness, and
``weyl_conjugate`` and ``is_regular`` are the oracles.  A cover character
extends a character to the coinvariant group: the composite with the
norm on the unit-class subgroup, the fixed dual-group signs on the
valuation-parity subgroup.  Values are exponents of a root of unity of
order ``value_order``, so sums assemble exactly; ``CoverCharacter``
serves only the scalar oracle ``charformula.theta``.

The inertia-datum machinery realizes the bijection between equivariant
homomorphisms from the residue multiplicative group into dual-torus
torsion and depth-zero characters; the bijection is exercised by full
enumeration in the tests rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd

import numpy as np

from .dualgroup import cover_class_values
from .tori import (
    ELLIPTIC_WORD,
    KindMismatchError,
    T1Coinv,
    T1Rational,
    T2Rational,
    WeylElem,
    _cached_table,
    coinv_parity_part,
    coinv_unit_part,
    coinvariant_norm,
    rational_weyl_group,
    unit_class_order,
    weyl_inverse,
    weyl_matrix,
    word_matrix,
)


class EquivarianceError(ValueError):
    """Inertia datum fails the required Frobenius/dual-action intertwining."""


def value_order(kind: int, q: int) -> int:
    """Order of the root of unity generating all character values.

    q is odd, so q+1 is even and the kind-1 values (including signs)
    live in mu_(q+1); for kind 2 the signs force a factor of 2.
    """
    return q + 1 if kind == 1 else 2 * (q * q + 1)


@dataclass(frozen=True)
class DepthZeroCharacter:
    kind: int
    q: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        want = 2 if self.kind == 1 else 1
        if len(self.exponents) != want:
            raise ValueError(f"kind {self.kind} needs {want} exponent(s)")

    def eval_exponent(self, gamma) -> int:
        """Exponent e with value zeta_value_order^e on the rational element."""
        n = unit_class_order(self.kind, self.q)
        if not isinstance(gamma, T1Rational if self.kind == 1 else T2Rational):
            raise KindMismatchError(f"a kind-{self.kind} character cannot evaluate {gamma}")
        if self.kind == 1:
            a1, a2 = self.exponents
            raw = (a1 * gamma.k1 + a2 * gamma.k2) % n
            return raw * (value_order(1, self.q) // n)
        raw = (self.exponents[0] * gamma.k) % n
        return raw * (value_order(2, self.q) // n)


def enumerate_characters(kind: int, q: int):
    for exponents in product(range(unit_class_order(kind, q)), repeat=2 if kind == 1 else 1):
        yield DepthZeroCharacter(kind, q, exponents)


def weyl_conjugate(chi: DepthZeroCharacter, w: WeylElem) -> DepthZeroCharacter:
    """w_* chi, i.e. gamma -> chi(w^-1 gamma w), as a new character."""
    n = unit_class_order(chi.kind, chi.q)
    m = weyl_inverse(w).mat
    if chi.kind == 1:
        a1, a2 = chi.exponents
        return DepthZeroCharacter(
            1, chi.q, ((m[0][0] * a1 + m[1][0] * a2) % n, (m[0][1] * a1 + m[1][1] * a2) % n)
        )
    factor = (m[0][0] + chi.q * m[0][1]) % n
    return DepthZeroCharacter(2, chi.q, ((factor * chi.exponents[0]) % n,))


def is_regular(chi: DepthZeroCharacter) -> bool:
    """Trivial stabilizer under the rational Weyl group."""
    group = rational_weyl_group(chi.kind)
    conjugates = {weyl_conjugate(chi, w).exponents for w in group}
    return len(conjugates) == len(group)


def exponent_rows(kind: int, q: int) -> np.ndarray:
    """The int64 exponent rows of every character, in ``enumerate_characters`` order."""
    n, rank = unit_class_order(kind, q), 2 if kind == 1 else 1
    return np.stack(np.unravel_index(np.arange(n**rank, dtype=np.int64), (n,) * rank), axis=1)


def conjugate_rows(kind: int, q: int, rows) -> np.ndarray:
    """``weyl_conjugate`` of one exponent row, or of a block (..., rank), by
    every rational Weyl element, as (W, ..., rank) in ``rational_weyl_group``
    order: w_* chi = chi o w^-1 has the row x @ M mod n, M the
    ``weyl_matrix`` of w^-1 on rational rows."""
    cls = T1Rational if kind == 1 else T2Rational
    mats = np.stack([weyl_matrix(q, weyl_inverse(w), cls)[0] for w in rational_weyl_group(kind)])
    conj = np.tensordot(np.asarray(rows, dtype=np.int64), mats, axes=([-1], [1]))
    return np.moveaxis(conj % unit_class_order(kind, q), -2, 0)


_conjugate_rows = conjugate_rows  # the pool's own name, out of reach of a rebinding


@_cached_table
def regular_exponent_rows(kind: int, q: int) -> np.ndarray:
    """The read-only exponent rows of the regular characters, in
    ``enumerate_characters`` order: those whose ``conjugate_rows`` are
    pairwise distinct (``is_regular``).  No rebinding of either reaches it."""
    n, rank = unit_class_order(kind, q), 2 if kind == 1 else 1
    rows = exponent_rows(kind, q)
    # each conjugate's row packed as one integer in base n
    keys = np.sort(_conjugate_rows(kind, q, rows) @ n ** np.arange(rank - 1, -1, -1), axis=0)
    return rows[(np.diff(keys, axis=0) != 0).all(axis=0)]


def enumerate_regular_characters(kind: int, q: int):
    return [DepthZeroCharacter(kind, q, tuple(row))
            for row in regular_exponent_rows(kind, q).tolist()]


# ---------------------------------------------------------------------------
# cover characters


@dataclass(frozen=True)
class CoverCharacter:
    """Character of the coinvariant group: base composed with the norm on
    unit classes times the fixed dual-group signs on valuation parities."""

    base: DepthZeroCharacter
    hvalues: tuple

    @property
    def kind(self) -> int:
        return self.base.kind

    @property
    def q(self) -> int:
        return self.base.q

    def parity_sign(self, c) -> int:
        table = dict(self.hvalues)
        if isinstance(c, T1Coinv):
            return table[(c.v1, c.v2)]
        return table[c.v]

    def eval_exponent(self, c) -> int:
        order = value_order(self.kind, self.q)
        base_part = self.base.eval_exponent(coinvariant_norm(coinv_unit_part(c)))
        sign = self.parity_sign(coinv_parity_part(c))
        return (base_part + (order // 2 if sign < 0 else 0)) % order


def cover_character(base: DepthZeroCharacter) -> CoverCharacter:
    values = cover_class_values(base.kind)
    return CoverCharacter(base, tuple(sorted(values.items())))


# ---------------------------------------------------------------------------
# inertia data (the finite datum of a tame parameter restricted to inertia)


@dataclass(frozen=True)
class InertiaDatum:
    """Equivariant homomorphism from the degree-n residue multiplicative
    group into dual-torus torsion, recorded by its two exponents."""

    kind: int
    q: int
    s1: int
    s2: int

    def source_order(self) -> int:
        return self.q**2 - 1 if self.kind == 1 else self.q**4 - 1


def check_equivariance(datum: InertiaDatum) -> None:
    """Raise unless q s = F^-T s on the exponents s = (s1, s2), where F is
    the Weyl element of ``ELLIPTIC_WORD``: the dual torus carries the
    contragredient action (inversion for kind 1, the rotation for kind 2)."""
    n, s1, s2 = datum.source_order(), datum.s1, datum.s2
    (a, b), (c, d) = word_matrix(datum.kind, ELLIPTIC_WORD[datum.kind])
    det = a * d - b * c  # +-1, so F^-T = det (d, -c; -b, a)
    if (datum.q * s1 - det * (d * s1 - c * s2)) % n or (datum.q * s2 - det * (a * s2 - b * s1)) % n:
        raise EquivarianceError(
            f"datum {datum} is not Frobenius-equivariant for kind {datum.kind}"
        )


def enumerate_inertia_data(kind: int, q: int):
    """All equivariant data, via the solved congruence shape."""
    out = []
    if kind == 1:
        n = q * q - 1
        step = q - 1
        for a1 in range(q + 1):
            for a2 in range(q + 1):
                out.append(InertiaDatum(1, q, (step * a1) % n, (step * a2) % n))
    else:
        n = q**4 - 1
        step = q * q - 1
        for b in range(q * q + 1):
            s2 = (step * b) % n
            s1 = (q * s2) % n
            out.append(InertiaDatum(2, q, s1, s2))
    for datum in out:
        check_equivariance(datum)
    return out


def _solve_congruence(coeff: int, rhs: int, modulus: int) -> int:
    """Smallest non-negative j with coeff * j == rhs (mod modulus)."""
    g = gcd(coeff, modulus)
    if rhs % g != 0:
        raise ValueError("congruence has no solution")
    m = modulus // g
    return (pow((coeff // g) % m, -1, m) * ((rhs // g) % m)) % m


def character_from_inertia(datum: InertiaDatum) -> DepthZeroCharacter:
    """Depth-zero character attached to an equivariant inertia datum.

    Evaluation composes with a norm preimage: for a rational generator
    the preimage exponent is solved exactly, and the datum is evaluated
    there.  Equivariance is checked up front.
    """
    check_equivariance(datum)
    q, n = datum.q, datum.source_order()
    if datum.kind == 1:
        # slotwise norm acts on dlogs by j -> (1-q) j; the rational
        # generator sits at dlog q-1, so solve for its preimage exponent
        j = _solve_congruence((1 - q) % n, (q - 1) % n, n)
        step = q - 1
        exps = []
        for s in (datum.s1, datum.s2):
            raw = (s * j) % n
            if raw % step:
                raise EquivarianceError(f"datum {datum} does not land on the mu-line")
            exps.append((raw // step) % (q + 1))
        return DepthZeroCharacter(1, q, tuple(exps))
    j = _solve_congruence((1 - q * q) % n, (q * q - 1) % n, n)
    step = q * q - 1
    raw = (datum.s1 * j) % n
    if raw % step:
        raise EquivarianceError(f"datum {datum} does not land on the mu-line")
    return DepthZeroCharacter(2, q, ((raw // step) % (q * q + 1),))


# ---------------------------------------------------------------------------
# serialization


def character_to_descriptor(chi: DepthZeroCharacter, eta_branch: int = 1) -> dict:
    return {
        "kind": chi.kind,
        "q": chi.q,
        "exponents": list(chi.exponents),
        "eta_branch": "plus" if eta_branch == 1 else "minus",
    }


def character_from_descriptor(desc: dict) -> tuple[DepthZeroCharacter, int]:
    branch = {"plus": 1, "minus": -1}[desc.get("eta_branch", "plus")]
    chi = DepthZeroCharacter(int(desc["kind"]), int(desc["q"]), tuple(desc["exponents"]))
    return chi, branch
