"""Exact Sp(4) realization of the dual group over cyclotomic integers.

The simply connected rank-two group is realized as 4x4 matrices
preserving a fixed antidiagonal symplectic form.  Roots are indexed by
their coordinates in the simple-root basis: (1, 0) is the long simple
root, (0, 1) the short one.  Root subgroups are the elementary unipotent
matrices of the natural module, normalized so that each (X, X_-) pair
brackets to the coroot; the reflection lifts n_gamma then agree with the
image of ((0,1),(-1,0)) under the corresponding SL(2).

The root subgroups x(t) = I + t X have integer nilpotents X, so the
construction is checked on integer 4x4 matrices, all roots stacked:
x(1) = I + X preserves the form, and x(s) x(t) = x(s + t) + st X^2 with st
a unit makes additivity the same statement as X^2 = 0.  The reflection
lifts x(1) x_-(-1) x(1) are then signed permutation matrices, read once
into :class:`Monomial` pairs, and no array of length phi(N) is formed;
:class:`SpMatrix` builds the same matrices over Z[zeta_N] entry by entry
and stays as the oracle of that construction.  Every identity asserted
downstream (reflection-lift squares, coroot conjugation, the
structure-sign table and its triple product, the longest-element and
Coxeter lift powers, torsion-lift independence) composes those pairs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from math import gcd

import numpy as np

from .cyclo import CycInt, OrderMismatchError, root_of_unity
from .tori import ELLIPTIC_WORD, cartan_matrix, torus_level

LONG_SIMPLE = (1, 0)
SHORT_SIMPLE = (0, 1)

# the letters of a Weyl word as dual simple roots (coroots of the torus side's)
LETTER_ROOTS = {"a": LONG_SIMPLE, "b": SHORT_SIMPLE}

POSITIVE_ROOTS = ((1, 0), (0, 1), (1, 1), (1, 2))
ALL_ROOTS = POSITIVE_ROOTS + tuple((-a, -b) for a, b in POSITIVE_ROOTS)

# coordinates of each root in the weight basis (e1, e2) of the diagonal torus
_ROOT_E = {
    (1, 0): (0, 2),
    (0, 1): (1, -1),
    (1, 1): (1, 1),
    (1, 2): (2, 0),
}
_ROOT_E.update({(-a, -b): (-x, -y) for (a, b), (x, y) in list(_ROOT_E.items())})

# coroots in the cocharacter basis (f1, f2); f_i(s) scales e_i by s
_COROOT_F = {
    (1, 0): (0, 1),
    (0, 1): (1, -1),
    (1, 1): (1, 1),
    (1, 2): (1, 0),
}
_COROOT_F.update({(-a, -b): (-x, -y) for (a, b), (x, y) in list(_COROOT_F.items())})

# nilpotent directions in the natural module; (i, j, sign) means sign * E_ij
_NILPOTENT = {
    (1, 0): ((1, 2, 1),),
    (-1, 0): ((2, 1, 1),),
    (0, 1): ((0, 1, 1), (2, 3, -1)),
    (0, -1): ((1, 0, 1), (3, 2, -1)),
    (1, 1): ((0, 2, 1), (1, 3, 1)),
    (-1, -1): ((2, 0, 1), (3, 1, 1)),
    (1, 2): ((0, 3, 1),),
    (-1, -2): ((3, 0, 1),),
}


class PinningError(AssertionError):
    """The pinned matrices fail one of their defining identities."""


@dataclass(frozen=True)
class SpMatrix:
    """4x4 matrix over Z[zeta_N]; rows as a tuple of tuples of CycInt."""

    order: int
    rows: tuple


def sp_mul(a: SpMatrix, b: SpMatrix) -> SpMatrix:
    """The matrix product; zero entries of either factor are skipped."""
    if a.order != b.order:
        raise OrderMismatchError(f"matrices of orders {a.order} and {b.order}")
    b_terms = [[(j, y) for j, y in enumerate(row) if not y.is_zero()] for row in b.rows]
    rows = []
    for row in a.rows:
        out = [CycInt.zero(a.order)] * 4
        for k, x in enumerate(row):
            if not x.is_zero():
                for j, y in b_terms[k]:
                    out[j] = out[j] + x * y
        rows.append(tuple(out))
    return SpMatrix(a.order, tuple(rows))


def sp_eq(a: SpMatrix, b: SpMatrix) -> bool:
    return a.order == b.order and a.rows == b.rows


def sp_transpose(a: SpMatrix) -> SpMatrix:
    return SpMatrix(a.order, tuple(tuple(a.rows[j][i] for j in range(4)) for i in range(4)))


def sp_det(a: SpMatrix) -> CycInt:
    total = CycInt.zero(a.order)
    for perm in itertools.permutations(range(4)):
        sign = 1
        seen = list(perm)
        for i in range(4):
            for j in range(i + 1, 4):
                if seen[i] > seen[j]:
                    sign = -sign
        factors = [a.rows[i][perm[i]] for i in range(4)]
        if any(x.is_zero() for x in factors):
            continue
        term = factors[0]
        for x in factors[1:]:
            term = term * x
        total = total + (sign * term)
    return total


_IDENTITY_PERM = (0, 1, 2, 3)


@dataclass(frozen=True)
class Monomial:
    """A monomial 4x4 matrix with entries in mu_N: row i holds
    zeta^exps[i] in column perm[i] and zeros elsewhere.

    Exponents are reduced mod ``order`` and k -> zeta^k is injective on
    Z/N, so equal pairs are equal matrices.
    """

    order: int
    perm: tuple
    exps: tuple

    def __mul__(self, other: Monomial) -> Monomial:
        if self.order != other.order:
            raise OrderMismatchError(f"monomials of orders {self.order} and {other.order}")
        n = self.order
        return Monomial(
            n,
            tuple(other.perm[p] for p in self.perm),
            tuple((e + other.exps[p]) % n for e, p in zip(self.exps, self.perm)),
        )

    def inverse(self) -> Monomial:
        perm, exps = [0] * 4, [0] * 4
        for i, (p, e) in enumerate(zip(self.perm, self.exps)):
            perm[p] = i
            exps[p] = -e % self.order
        return Monomial(self.order, tuple(perm), tuple(exps))

    def __pow__(self, k: int) -> Monomial:
        if k < 0:
            return self.inverse() ** -k
        result = Monomial(self.order, _IDENTITY_PERM, (0, 0, 0, 0))
        for _ in range(k):
            result = result * self
        return result


class Pinning:
    """Pinned realization: root subgroup maps, coroots, reflection lifts.

    The construction is built and verified on integer matrices
    (``_verify_construction``); the ``SpMatrix`` methods below build the
    same matrices over Z[zeta_N] one product at a time and stay as its
    oracle.
    """

    def __init__(self, order: int = 24):
        if order % 2 != 0:
            raise ValueError("cyclotomic order must be even to host -1")
        self.order = order
        self._n_cache: dict = {}
        # the verified lifts as pairs: n_root, and the words' products
        self.lifts = dict(zip(ALL_ROOTS, self._verify_construction()))
        self._word_lifts: dict = {}

    # -- basic matrices ------------------------------------------------------

    @cached_property
    def zeta(self) -> list[CycInt]:
        return [root_of_unity(self.order, k) for k in range(self.order)]

    @cached_property
    def identity(self) -> SpMatrix:
        return self.matrix(self.torus(0, 0))

    @cached_property
    def form(self) -> SpMatrix:
        return _scalar_matrix(self.order, _FORM)

    def matrix(self, x: Monomial) -> SpMatrix:
        """The 4x4 matrix of a monomial pair."""
        zero = CycInt.zero(self.order)
        rows = []
        for p, e in zip(x.perm, x.exps):
            row = [zero] * 4
            row[p] = self.zeta[e]
            rows.append(tuple(row))
        return SpMatrix(self.order, tuple(rows))

    def torus(self, a: int, b: int) -> Monomial:
        """long_coroot(zeta^a) * short_coroot(zeta^b)."""
        n = self.order
        return Monomial(n, _IDENTITY_PERM, (b % n, (a - b) % n, (b - a) % n, -b % n))

    def coroot(self, root, exponent: int) -> Monomial:
        """root_coroot(zeta^exponent)."""
        c1, c2 = _COROOT_F[root]
        return self.torus((c1 + c2) * exponent, c1 * exponent)

    def torus_exponents(self, x: Monomial) -> tuple[int, int]:
        """Write a torus element as long_coroot(zeta^a) short_coroot(zeta^b)."""
        if x.perm != _IDENTITY_PERM:
            raise PinningError("matrix is not diagonal")
        b = x.exps[0]
        a = (b + x.exps[1]) % self.order
        if x != self.torus(a, b):
            raise PinningError("diagonal is not of symplectic torus shape")
        return a, b

    def lift(self, word: str) -> Monomial:
        """The reflection lifts of the letters of a Weyl word, multiplied in word order."""
        if word not in self._word_lifts:
            lifts = (self.lifts[LETTER_ROOTS[letter]] for letter in word)
            self._word_lifts[word] = reduce(Monomial.__mul__, lifts, self.torus(0, 0))
        return self._word_lifts[word]

    def root_subgroup(self, root, t: CycInt) -> SpMatrix:
        """x_root(t) = I + t * X_root."""
        if root not in _NILPOTENT:
            raise ValueError(f"unknown root {root}")
        if t.order != self.order:
            raise ValueError("parameter order mismatch")
        rows = [list(r) for r in self.identity.rows]
        for i, j, sign in _NILPOTENT[root]:
            rows[i][j] = rows[i][j] + (sign * t)
        return SpMatrix(self.order, tuple(tuple(r) for r in rows))

    def coroot_matrix(self, root, exponent: int) -> SpMatrix:
        """root_coroot(zeta^exponent) as a diagonal matrix."""
        return self.matrix(self.coroot(root, exponent))

    def n_elem(self, root) -> SpMatrix:
        """Reflection lift x(1) x_-(-1) x(1)."""
        if root not in self._n_cache:
            one = CycInt.one(self.order)
            neg = (-root[0], -root[1])
            m = sp_mul(
                sp_mul(self.root_subgroup(root, one), self.root_subgroup(neg, -one)),
                self.root_subgroup(root, one),
            )
            self._n_cache[root] = m
        return self._n_cache[root]

    def is_symplectic(self, m: SpMatrix) -> bool:
        return sp_eq(sp_mul(sp_mul(sp_transpose(m), self.form), m), self.form)

    def sp_inverse(self, m: SpMatrix) -> SpMatrix:
        """Inverse from the form identity: M^-1 = J^-1 M^T J with J^2 = -I."""
        jt = sp_mul(self.form, sp_mul(sp_transpose(m), self.form))
        rows = tuple(tuple(-x for x in row) for row in jt.rows)
        return SpMatrix(self.order, rows)

    # -- root geometry ---------------------------------------------------------

    @staticmethod
    def pairing(char_root, cochar_root) -> int:
        """<char, cochar> via the weight/coweight coordinates."""
        d1, d2 = _ROOT_E[char_root]
        c1, c2 = _COROOT_F[cochar_root]
        return d1 * c1 + d2 * c2

    @classmethod
    def reflect_root(cls, mirror, root):
        """w_mirror(root), returned as a root key."""
        d = _ROOT_E[root]
        m = _ROOT_E[mirror]
        coeff = cls.pairing(root, mirror)
        image = (d[0] - coeff * m[0], d[1] - coeff * m[1])
        for key, val in _ROOT_E.items():
            if val == image:
                return key
        raise PinningError(f"reflection left the root system: {image}")

    # -- construction checks -----------------------------------------------------

    def _verify_construction(self) -> list[Monomial]:
        """Check the defining identities on the integer matrices of the root
        subgroups, all roots stacked, and return the reflection lifts
        x(1) x_-(-1) x(1) as pairs in ``ALL_ROOTS`` order."""
        nilpotent = np.zeros((len(ALL_ROOTS), 4, 4), dtype=np.int64)
        for r, root in enumerate(ALL_ROOTS):
            for i, j, sign in _NILPOTENT[root]:
                nilpotent[r, i, j] += sign
        ident = np.eye(4, dtype=np.int64)
        x1 = ident + nilpotent
        # a form-preserving x(1) has determinant 1: Pf(M^T J M) = det(M) Pf(J)
        _check_form(x1, "x_{}(1)")
        # x(s) x(t) = x(s + t) + st X^2 and st is a unit for s, t in mu_N, so
        # additivity in the parameter holds exactly when X^2 = 0
        for root, square in zip(ALL_ROOTS, nilpotent @ nilpotent):
            if square.any():
                raise PinningError(f"x_{root} is not additive in the parameter")
        # the pairings are the transpose of the torus side's Cartan matrix
        cartan = cartan_matrix()
        for (i, char), (j, cochar) in itertools.product(enumerate(LETTER_ROOTS.values()), repeat=2):
            if self.pairing(char, cochar) != cartan[j][i]:
                raise PinningError("Cartan pairings are not those of type B2/C2")
        # sl2 normalization: n_root lies in the torus normalizer
        negatives = [ALL_ROOTS.index((-a, -b)) for a, b in ALL_ROOTS]
        lifts = x1 @ (ident - nilpotent[negatives]) @ x1
        _check_form(lifts, "n_{}")
        # coroot sum identities, both as vectors and as torus elements
        long, short = _COROOT_F[LONG_SIMPLE], _COROOT_F[SHORT_SIMPLE]
        for root, scale in (((1, 1), 2), ((1, 2), 1)):
            if _COROOT_F[root] != tuple(scale * a + b for a, b in zip(long, short)):
                raise PinningError(f"coroot vector identity {root} = {scale} (1,0) + (0,1) fails")
        for e in (1, 3, self.order // 2):
            if self.coroot((1, 0), 2 * e) * self.coroot((0, 1), e) != self.coroot((1, 1), e):
                raise PinningError("coroot identity (1,1) = 2(1,0)+(0,1) fails")
        if self.reflect_root(LONG_SIMPLE, SHORT_SIMPLE) != (1, 1):
            raise PinningError("long reflection must send short simple to (1,1)")
        # the only integers in mu_N are 1 = zeta^0 and -1 = zeta^(N/2)
        signs = {1: 0, -1: self.order // 2}
        return [_read_monomial(self.order, m, 0, signs) for m in lifts.tolist()]


_FORM = ((0, 0, 0, 1), (0, 0, 1, 0), (0, -1, 0, 0), (-1, 0, 0, 0))


def _scalar_matrix(order: int, rows) -> SpMatrix:
    """An integer 4x4 matrix as an ``SpMatrix``."""
    one = CycInt.one(order)
    return SpMatrix(order, tuple(tuple(x * one for x in row) for row in rows))


def _check_form(stack: np.ndarray, name: str) -> None:
    """Raise PinningError for the first matrix M of an integer stack, one per
    root in ``ALL_ROOTS`` order, with M^T J M != J."""
    form = np.array(_FORM, dtype=np.int64)
    for root, m in zip(ALL_ROOTS, stack):
        if (m.T @ form @ m != form).any():
            raise PinningError(f"{name.format(root)} does not preserve the form")


def _read_monomial(order: int, rows, zero, exponents: dict) -> Monomial:
    """The pair of a monomial matrix given by its rows; ``exponents`` maps
    each power of zeta that may occur as an entry to its exponent."""
    perm, exps = [], []
    for i, row in enumerate(rows):
        cols = [j for j, x in enumerate(row) if x != zero]
        if len(cols) != 1:
            raise PinningError(f"row {i} has {len(cols)} nonzero entries; matrix is not monomial")
        k = exponents.get(row[cols[0]])
        if k is None:
            raise PinningError("matrix entry is not a power of the fixed root of unity")
        perm.append(cols[0])
        exps.append(k)
    if len(set(perm)) != 4:
        raise PinningError("two rows share a column; matrix is singular")
    return Monomial(order, tuple(perm), tuple(exps))


def as_monomial(pin: Pinning, m: SpMatrix) -> Monomial:
    """The pair of a monomial matrix whose nonzero entries are powers of zeta.

    Raises PinningError when a row has other than exactly one nonzero
    entry, when two rows share a column, or when an entry is not a power
    of the fixed root of unity.
    """
    exponents = {z: k for k, z in enumerate(pin.zeta)}
    return _read_monomial(pin.order, m.rows, CycInt.zero(pin.order), exponents)


@lru_cache(maxsize=None)
def build_pinning(order: int = 24) -> Pinning:
    return Pinning(order)


# ---------------------------------------------------------------------------
# checks on the pinned data


def reflection_square_check(pin: Pinning) -> bool:
    """n_root^2 = coroot(-1) for every root."""
    half = pin.order // 2
    return all(pin.lifts[root] ** 2 == pin.coroot(root, half) for root in ALL_ROOTS)


def coroot_conjugation_check(pin: Pinning) -> bool:
    """n_gamma delta_coroot(t) n_gamma^-1 = (w_gamma(delta))_coroot(t) for
    t = zeta^1, ..., zeta^20."""
    for gamma in (LONG_SIMPLE, SHORT_SIMPLE):
        n = pin.lifts[gamma]
        ninv = n.inverse()
        for delta in ALL_ROOTS:
            image = pin.reflect_root(gamma, delta)
            for e in range(1, 21):
                if n * pin.coroot(delta, e) * ninv != pin.coroot(image, e):
                    return False
    return True


def reflection_sign_table(pin: Pinning):
    """Solve n_g n_d n_g^-1 = image_coroot(sign) * n_image for the signs.

    Returns (table, signed_triple_product); raises PinningError when a
    conjugation has no solution with sign +-1.
    """
    half = pin.order // 2
    table = {}
    for gamma in (LONG_SIMPLE, SHORT_SIMPLE):
        n = pin.lifts[gamma]
        ninv = n.inverse()
        for delta in ALL_ROOTS:
            image = pin.reflect_root(gamma, delta)
            lhs = n * pin.lifts[delta] * ninv
            n_image = pin.lifts[image]
            if lhs == n_image:
                table[(gamma, delta)] = 1
            elif lhs == pin.coroot(image, half) * n_image:
                table[(gamma, delta)] = -1
            else:
                raise PinningError(f"no +-1 sign solves conjugation for {gamma}, {delta}")
    signed = -(
        table[(LONG_SIMPLE, SHORT_SIMPLE)]
        * table[(SHORT_SIMPLE, (1, 1))]
        * table[(LONG_SIMPLE, (1, 1))]
    )
    return table, signed


def longest_lift_square_check(pin: Pinning) -> bool:
    """The lift of the kind-1 elliptic word, the longest element, to the
    torus level equals short_coroot(-1)."""
    return pin.lift(ELLIPTIC_WORD[1]) ** torus_level(1) == pin.coroot(SHORT_SIMPLE, pin.order // 2)


def coxeter_lift_fourth_check(pin: Pinning) -> bool:
    """The lift of the kind-2 elliptic word, a Coxeter element, to the torus
    level equals short_coroot(-1)."""
    return pin.lift(ELLIPTIC_WORD[2]) ** torus_level(2) == pin.coroot(SHORT_SIMPLE, pin.order // 2)


# ---------------------------------------------------------------------------
# torus bookkeeping


def dual_torus_conjugate(pin: Pinning, by: Monomial, a: int, b: int) -> tuple[int, int]:
    """Coroot exponents of by * torus(a, b) * by^-1."""
    return pin.torus_exponents(by * pin.torus(a, b) * by.inverse())


def twisted_frobenius_power(pin: Pinning, kind: int, a: int, b: int) -> tuple[int, int]:
    """Coroot exponents of (t lift(ELLIPTIC_WORD[kind]))^L for the torus
    level L, where t is the torus element with the given coroot exponents:
    (t n)^2 for kind 1, (t m)^4 for kind 2."""
    level = torus_level(kind)
    return pin.torus_exponents((pin.torus(a, b) * pin.lift(ELLIPTIC_WORD[kind])) ** level)


def sample_torsion_exponents(order, count, seed=0):
    """Deterministic uniform sample, with replacement, of the torus torsion
    (a, b) of element order 2, 3, 4, 8 or 12.

    Each such order divides 24, so a and b are multiples of
    order // gcd(order, 24): the candidates, at most 24^2 pairs, are
    enumerated in lexicographic order and drawn from directly.
    """
    step = order // gcd(order, 24)
    candidates = [(a, b) for a in range(0, order, step) for b in range(0, order, step)
                  if order // gcd(gcd(a, b), order) in (2, 3, 4, 8, 12)]
    return random.Random(seed).choices(candidates, k=count)


def lift_independence_check(pin: Pinning, kind: int, count: int = 200, seed: int = 0) -> bool:
    """(t n)^2 resp. (t m)^4 is independent of the torsion element t."""
    base = twisted_frobenius_power(pin, kind, 0, 0)
    for a, b in sample_torsion_exponents(pin.order, count, seed=seed):
        if twisted_frobenius_power(pin, kind, a, b) != base:
            return False
    return True


def weyl_action_checks(pin: Pinning) -> bool:
    """At four sample points of the (long, short) coroot exponents, each
    letter's lift acts by conjugation as the simple reflection s_j (column i
    e_i - C[i][j] e_j, C the torus side's Cartan matrix), and each elliptic
    word's lift as the product of those in word order."""
    c = cartan_matrix()
    for word, point in itertools.product(("a", "b", *ELLIPTIC_WORD.values()),
                                         ((1, 0), (0, 1), (3, 5), (7, 11))):
        image = list(point)
        for j in ("ab".index(letter) for letter in reversed(word)):
            image[j] -= c[0][j] * image[0] + c[1][j] * image[1]  # s_j moves coordinate j only
        if dual_torus_conjugate(pin, pin.lift(word), *point) != tuple(x % pin.order for x in image):
            return False
    return True


@lru_cache(maxsize=None)
def cover_class_values(kind: int, order: int = 24):
    """Character values on the norm-kernel classes, derived from the
    coroot coordinates of the twisted Frobenius power (never hard-coded).

    Kind 1 returns a dict keyed by valuation-parity pairs; kind 2 by the
    single valuation parity.
    """
    pin = build_pinning(order)
    a, b = twisted_frobenius_power(pin, kind, 0, 0)
    half = order // 2

    def as_sign(exp):
        if exp % order == 0:
            return 1
        if exp % order == half:
            return -1
        raise PinningError("cover class value is not +-1")

    if kind == 1:
        va, vb = as_sign(a), as_sign(b)
        return {
            (0, 0): 1,
            (1, 0): va,
            (0, 1): vb,
            (1, 1): va * vb,
        }
    # kind 2: rewrite long(a) short(b) as long(abar) (long+short)(bbar)
    abar, bbar = (a - b) % order, b % order
    sa, sb = as_sign(abar), as_sign(bbar)
    if sa != sb:
        raise PinningError("kind-2 cover values must agree in both coordinates")
    return {0: 1, 1: sa}
