"""Exact Sp(4) realization of the dual group over cyclotomic integers.

The simply connected rank-two group is realized as 4x4 matrices
preserving a fixed antidiagonal symplectic form.  Roots are indexed by
their coordinates in the simple-root basis: (1, 0) is the long simple
root, (0, 1) the short one.  Root subgroups are the elementary unipotent
matrices of the natural module, normalized so that each (X, X_-) pair
brackets to the coroot; the reflection lifts n_gamma then agree with the
image of ((0,1),(-1,0)) under the corresponding SL(2).

The lifts are built and verified as matrices over Z[zeta_N], then turned
once into :class:`Monomial` pairs by :func:`as_monomial`.  Every identity
asserted downstream (reflection-lift squares, coroot conjugation, the
structure-sign table and its triple product, the longest-element and
Coxeter lift powers, torsion-lift independence) composes those pairs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .cyclo import CycInt, root_of_unity

LONG_SIMPLE = (1, 0)
SHORT_SIMPLE = (0, 1)

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
    assert a.order == b.order
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
        assert self.order == other.order
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
    """Pinned realization: root subgroup maps, coroots, reflection lifts."""

    def __init__(self, order: int = 24):
        if order % 2 != 0:
            raise ValueError("cyclotomic order must be even to host -1")
        self.order = order
        self.zeta = [root_of_unity(order, k) for k in range(order)]
        self.zeta_exponent = {z: k for k, z in enumerate(self.zeta)}
        self._zero = CycInt.zero(order)
        self._one = CycInt.one(order)
        self.identity = self.matrix(self.torus(0, 0))
        self.form = self._build_form()
        self._n_cache: dict = {}
        self._verify_construction()
        # the verified lifts as pairs: n_root, m = n_long n_short, n = m^2
        self.lifts = {root: as_monomial(self, self.n_elem(root)) for root in ALL_ROOTS}
        self.coxeter = self.lifts[LONG_SIMPLE] * self.lifts[SHORT_SIMPLE]
        self.longest = self.coxeter * self.coxeter

    # -- basic matrices ------------------------------------------------------

    def _build_form(self) -> SpMatrix:
        z, o = self._zero, self._one
        rows = (
            (z, z, z, o),
            (z, z, o, z),
            (z, -o, z, z),
            (-o, z, z, z),
        )
        return SpMatrix(self.order, rows)

    def matrix(self, x: Monomial) -> SpMatrix:
        """The 4x4 matrix of a monomial pair."""
        rows = []
        for p, e in zip(x.perm, x.exps):
            row = [self._zero] * 4
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
            one = self._one
            neg = tuple((-a, -b) for a, b in [root])[0]
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

    def _verify_construction(self):
        half = self.order // 2
        for root in ALL_ROOTS:
            x1 = self.root_subgroup(root, self._one)
            if not self.is_symplectic(x1):
                raise PinningError(f"x_{root}(1) does not preserve the form")
            if sp_det(x1) != self._one:
                raise PinningError(f"x_{root}(1) has determinant != 1")
            if not sp_eq(self.root_subgroup(root, self._zero), self.identity):
                raise PinningError(f"x_{root}(0) is not the identity")
        # additivity in the parameter on a sample
        t1, t2 = self.zeta[1], self.zeta[5 % self.order]
        for root in ALL_ROOTS:
            lhs = sp_mul(self.root_subgroup(root, t1), self.root_subgroup(root, t2))
            if not sp_eq(lhs, self.root_subgroup(root, t1 + t2)):
                raise PinningError(f"x_{root} is not additive in the parameter")
        # Cartan pairings of the rank-two system with long alpha
        expected = {
            (LONG_SIMPLE, LONG_SIMPLE): 2,
            (SHORT_SIMPLE, SHORT_SIMPLE): 2,
            (SHORT_SIMPLE, LONG_SIMPLE): -1,
            (LONG_SIMPLE, SHORT_SIMPLE): -2,
        }
        for (char, cochar), want in expected.items():
            if self.pairing(char, cochar) != want:
                raise PinningError("Cartan pairings are not those of type B2/C2")
        # sl2 normalization: n_root lies in the torus normalizer
        for root in ALL_ROOTS:
            n = self.n_elem(root)
            if not self.is_symplectic(n):
                raise PinningError(f"n_{root} does not preserve the form")
        # coroot sum identities, both as vectors and as matrices
        assert _COROOT_F[(1, 1)] == (
            2 * _COROOT_F[(1, 0)][0] + _COROOT_F[(0, 1)][0],
            2 * _COROOT_F[(1, 0)][1] + _COROOT_F[(0, 1)][1],
        )
        assert _COROOT_F[(1, 2)] == (
            _COROOT_F[(1, 0)][0] + _COROOT_F[(0, 1)][0],
            _COROOT_F[(1, 0)][1] + _COROOT_F[(0, 1)][1],
        )
        for e in (1, 3, half):
            lhs = self.coroot_matrix((1, 1), e)
            rhs = sp_mul(self.coroot_matrix((1, 0), 2 * e), self.coroot_matrix((0, 1), e))
            if not sp_eq(lhs, rhs):
                raise PinningError("coroot identity (1,1) = 2(1,0)+(0,1) fails")
        if self.reflect_root(LONG_SIMPLE, SHORT_SIMPLE) != (1, 1):
            raise PinningError("long reflection must send short simple to (1,1)")


def as_monomial(pin: Pinning, m: SpMatrix) -> Monomial:
    """The pair of a monomial matrix whose nonzero entries are powers of zeta.

    Raises PinningError when a row has other than exactly one nonzero
    entry, when two rows share a column, or when an entry is not a power
    of the fixed root of unity.
    """
    perm, exps = [], []
    for i, row in enumerate(m.rows):
        cols = [j for j, x in enumerate(row) if not x.is_zero()]
        if len(cols) != 1:
            raise PinningError(f"row {i} has {len(cols)} nonzero entries; matrix is not monomial")
        k = pin.zeta_exponent.get(row[cols[0]])
        if k is None:
            raise PinningError("matrix entry is not a power of the fixed root of unity")
        perm.append(cols[0])
        exps.append(k)
    if len(set(perm)) != 4:
        raise PinningError("two rows share a column; matrix is singular")
    return Monomial(pin.order, tuple(perm), tuple(exps))


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
    """Square of the longest-element lift equals short_coroot(-1)."""
    return pin.longest ** 2 == pin.coroot(SHORT_SIMPLE, pin.order // 2)


def coxeter_lift_fourth_check(pin: Pinning) -> bool:
    """Fourth power of the Coxeter lift equals short_coroot(-1)."""
    return pin.coxeter ** 4 == pin.coroot(SHORT_SIMPLE, pin.order // 2)


# ---------------------------------------------------------------------------
# torus bookkeeping


def dual_torus_conjugate(pin: Pinning, by: Monomial, a: int, b: int) -> tuple[int, int]:
    """Coroot exponents of by * torus(a, b) * by^-1."""
    return pin.torus_exponents(by * pin.torus(a, b) * by.inverse())


def twisted_frobenius_power(pin: Pinning, kind: int, a: int, b: int) -> tuple[int, int]:
    """Coroot exponents of (t n)^2 for kind 1 or (t m)^4 for kind 2,
    where t is the torus element with the given coroot exponents."""
    if kind == 1:
        power = (pin.torus(a, b) * pin.longest) ** 2
    elif kind == 2:
        power = (pin.torus(a, b) * pin.coxeter) ** 4
    else:
        raise ValueError(f"kind must be 1 or 2, got {kind}")
    return pin.torus_exponents(power)


def sample_torsion_exponents(order, count, seed=0):
    """Deterministic sample of torus torsion of element order 2, 3, 4, 8 or 12."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a = rng.randrange(order)
        b = rng.randrange(order)
        elt_order = order // gcd(gcd(a, b), order) if (a or b) else 1
        if elt_order in (2, 3, 4, 8, 12):
            out.append((a, b))
    return out


def lift_independence_check(pin: Pinning, kind: int, count: int = 200, seed: int = 0) -> bool:
    """(t n)^2 resp. (t m)^4 is independent of the torsion element t."""
    base = twisted_frobenius_power(pin, kind, 0, 0)
    for a, b in sample_torsion_exponents(pin.order, count, seed=seed):
        if twisted_frobenius_power(pin, kind, a, b) != base:
            return False
    return True


def weyl_action_checks(pin: Pinning) -> bool:
    """Conjugation by the two lifts acts as inversion resp. the order-4
    rotation in the relevant coordinates, at four sample points."""
    nhat = pin.longest
    mhat = pin.coxeter
    for a, b in ((1, 0), (0, 1), (3, 5), (7, 11)):
        if dual_torus_conjugate(pin, nhat, a, b) != ((-a) % pin.order, (-b) % pin.order):
            return False
        # rotation is stated in the (long_coroot, long+short coroot) basis:
        # (w, z) -> (1/z, w); converting to (a, b) = (w z exponents) coords
        abar, bbar = (a - b) % pin.order, b
        want_abar, want_bbar = (-bbar) % pin.order, abar
        want_a, want_b = (want_abar + want_bbar) % pin.order, want_bbar
        if dual_torus_conjugate(pin, mhat, a, b) != (want_a, want_b):
            return False
    # order of the Coxeter image in the Weyl group is 4
    seen = (1 % pin.order, 2 % pin.order)
    cur = seen
    for step in range(1, 5):
        cur = dual_torus_conjugate(pin, mhat, *cur)
        if cur == seen and step != 4:
            return False
    return cur == seen


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
