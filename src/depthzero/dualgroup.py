"""Exact Sp(4) realization of the dual group over cyclotomic integers.

The simply connected rank-two group is realized as 4x4 matrices
preserving a fixed antidiagonal symplectic form.  Roots are indexed by
their coordinates in the simple-root basis: (1, 0) is the long simple
root, (0, 1) the short one.  Root subgroups are the elementary unipotent
matrices of the natural module, normalized so that each (X, X_-) pair
brackets to the coroot; the reflection lifts n_gamma then agree with the
image of ((0,1),(-1,0)) under the corresponding SL(2).

The lifts are built and verified as matrices over Z[zeta_N], all roots at
once as int64 arrays of power-basis coefficients, then read once into
:class:`Monomial` pairs; :class:`SpMatrix` builds the same matrices entry
by entry and stays as the oracle of that construction.  Every identity
asserted downstream (reflection-lift squares, coroot conjugation, the
structure-sign table and its triple product, the longest-element and
Coxeter lift powers, torsion-lift independence) composes those pairs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd

import numpy as np

from .cyclo import CycInt, _power_table, root_of_unity

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
    """Pinned realization: root subgroup maps, coroots, reflection lifts.

    The construction is built and verified as int64 arrays of power-basis
    coefficients (``_verify_construction``); the ``SpMatrix`` methods below
    build the same matrices one product at a time and stay as its oracle.
    """

    def __init__(self, order: int = 24):
        if order % 2 != 0:
            raise ValueError("cyclotomic order must be even to host -1")
        self.order = order
        self._n_cache: dict = {}
        lifts = self._verify_construction()
        # the verified lifts as pairs: n_root, m = n_long n_short, n = m^2
        self.lifts = dict(zip(ALL_ROOTS, _read_monomials(order, lifts)))
        self.coxeter = self.lifts[LONG_SIMPLE] * self.lifts[SHORT_SIMPLE]
        self.longest = self.coxeter * self.coxeter

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

    def _verify_construction(self) -> np.ndarray:
        """Check the defining identities on the stacked root subgroups, one
        batched product per identity, and return the reflection lifts
        x(1) x_-(-1) x(1) as a (root, 4, 4, phi) array in ``ALL_ROOTS`` order."""
        order = self.order
        powers = _power_array(order)
        one, half = powers[0], order // 2
        ident, form = np.eye(4, dtype=np.int64), np.array(_FORM, dtype=np.int64)
        ident, form = ident[..., None] * one, form[..., None] * one
        # x_root(t) for t = 1, 0, zeta, zeta^5, zeta + zeta^5, -1 (outer) and every root
        nilpotent = np.zeros((len(ALL_ROOTS), 4, 4), dtype=np.int64)
        for r, root in enumerate(ALL_ROOTS):
            for i, j, sign in _NILPOTENT[root]:
                nilpotent[r, i, j] += sign
        t1, t2 = powers[1], powers[5 % order]
        params = np.stack([one, np.zeros_like(one), t1, t2, t1 + t2, -one])
        x1, x0, xt1, xt2, xsum, xneg = ident + nilpotent[..., None] * params[:, None, None, None]

        def preserves_form(m):
            return _entries_equal(_mat_mul(_transpose_times_form(m), m, powers), form)

        failures = zip(preserves_form(x1), (_det(x1, powers) == one).all(axis=-1),
                       _entries_equal(x0, ident))
        for root, (symplectic, unimodular, trivial) in zip(ALL_ROOTS, failures):
            if not symplectic:
                raise PinningError(f"x_{root}(1) does not preserve the form")
            if not unimodular:
                raise PinningError(f"x_{root}(1) has determinant != 1")
            if not trivial:
                raise PinningError(f"x_{root}(0) is not the identity")
        # additivity in the parameter on a sample
        additive = _entries_equal(_mat_mul(xt1, xt2, powers), xsum)
        for root, ok in zip(ALL_ROOTS, additive):
            if not ok:
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
        negatives = [ALL_ROOTS.index((-a, -b)) for a, b in ALL_ROOTS]
        lifts = _mat_mul(_mat_mul(x1, xneg[negatives], powers), x1, powers)
        for root, ok in zip(ALL_ROOTS, preserves_form(lifts)):
            if not ok:
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

        def coroots(root, scale):
            return np.stack([_monomial_matrix(self.coroot(root, scale * e), powers)
                             for e in (1, 3, half)])

        product = _mat_mul(coroots((1, 0), 2), coroots((0, 1), 1), powers)
        if not _entries_equal(coroots((1, 1), 1), product).all():
            raise PinningError("coroot identity (1,1) = 2(1,0)+(0,1) fails")
        if self.reflect_root(LONG_SIMPLE, SHORT_SIMPLE) != (1, 1):
            raise PinningError("long reflection must send short simple to (1,1)")
        return lifts


_FORM = ((0, 0, 0, 1), (0, 0, 1, 0), (0, -1, 0, 0), (-1, 0, 0, 0))


def _scalar_matrix(order: int, rows) -> SpMatrix:
    """An integer 4x4 matrix as an ``SpMatrix``."""
    one = CycInt.one(order)
    return SpMatrix(order, tuple(tuple(x * one for x in row) for row in rows))


# ---------------------------------------------------------------------------
# 4x4 matrices over Z[zeta_N] as int64 arrays (..., 4, 4, phi(N)) of
# power-basis coefficients


def _power_array(order: int) -> np.ndarray:
    """The (order, phi) int64 array of ``_power_table``: row k is the reduced
    form of x^k."""
    return np.array(_power_table(order), dtype=np.int64)


def _product(a: np.ndarray, b: np.ndarray, shape: tuple, multiply, powers: np.ndarray):
    """The reduced coefficients of sum_i x^i multiply(a_i, b), where a_i is
    the coefficient-i slice of ``a`` and ``multiply`` returns a stack of
    ``shape`` coefficient arrays.  One pass per coefficient that ``a`` uses
    anywhere in its stack, each added at its shift into a length 2 phi - 1
    convolution; the powers x^k, k >= phi, that the stack reaches are then
    reduced through ``powers`` (2 phi - 1 <= order for even order)."""
    phi = a.shape[-1]
    conv = np.zeros((*shape, 2 * phi - 1), dtype=np.int64)
    for i in np.flatnonzero(a.any(axis=tuple(range(a.ndim - 1)))):
        conv[..., i:i + phi] += multiply(a[..., i], b)
    high = phi + np.flatnonzero(conv[..., phi:].any(axis=tuple(range(conv.ndim - 1))))
    return conv[..., :phi] + conv[..., high] @ powers[high]


def _ring_mul(a: np.ndarray, b: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """The entrywise ring product of two broadcastable coefficient arrays."""
    shape = np.broadcast_shapes(a.shape, b.shape)[:-1]
    return _product(a, b, shape, lambda a_i, b: a_i[..., None] * b, powers)


def _mat_mul(a: np.ndarray, b: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """The matrix product of two stacks of 4x4 ring matrices."""
    shape = (*np.broadcast_shapes(a.shape[:-3], b.shape[:-3]), 4, 4)
    return _product(a, b, shape, lambda a_i, b: np.einsum("...rm,...mcj->...rcj", a_i, b),
                    powers)


def _transpose_times_form(m: np.ndarray) -> np.ndarray:
    """M^T J for a stack of ring matrices M; J has integer entries, so no
    ring product is formed."""
    return np.einsum("...mrk,mc->...rck", m, np.array(_FORM, dtype=np.int64))


_PERMUTATIONS = np.array(list(itertools.permutations(range(4))))
_PERMUTATION_SIGNS = np.array([(-1) ** sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4))
                               for p in _PERMUTATIONS.tolist()])


def _det(m: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """The Leibniz determinant of each matrix of a stack, all 24 terms at once."""
    factors = m[..., np.arange(4), _PERMUTATIONS, :]  # (..., permutation, row, phi)
    term = factors[..., 0, :]
    for row in range(1, 4):
        term = _ring_mul(term, factors[..., row, :], powers)
    return (_PERMUTATION_SIGNS[:, None] * term).sum(axis=-2)


def _entries_equal(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per matrix of a stack: whether every entry of ``a`` equals ``b``'s."""
    return (a == b).all(axis=(-3, -2, -1))


def _monomial_matrix(x: Monomial, powers: np.ndarray) -> np.ndarray:
    """The (4, 4, phi) array of a monomial pair."""
    out = np.zeros((4, 4, powers.shape[1]), dtype=np.int64)
    out[np.arange(4), x.perm] = powers[list(x.exps)]
    return out


def _read_monomials(order: int, stack: np.ndarray) -> list[Monomial]:
    """The pairs of a stack of (4, 4, phi) monomial matrices whose nonzero
    entries are powers of zeta; raises as ``as_monomial`` does."""
    exponent = {row: k for k, row in enumerate(_power_table(order))}
    pairs = []
    for m in stack.tolist():
        perm, exps = [], []
        for i, row in enumerate(m):
            cols = [j for j, x in enumerate(row) if any(x)]
            if len(cols) != 1:
                raise PinningError(f"row {i} has {len(cols)} nonzero entries; matrix is not monomial")
            k = exponent.get(tuple(row[cols[0]]))
            if k is None:
                raise PinningError("matrix entry is not a power of the fixed root of unity")
            perm.append(cols[0])
            exps.append(k)
        if len(set(perm)) != 4:
            raise PinningError("two rows share a column; matrix is singular")
        pairs.append(Monomial(order, tuple(perm), tuple(exps)))
    return pairs


def as_monomial(pin: Pinning, m: SpMatrix) -> Monomial:
    """The pair of a monomial matrix whose nonzero entries are powers of zeta.

    Raises PinningError when a row has other than exactly one nonzero
    entry, when two rows share a column, or when an entry is not a power
    of the fixed root of unity.
    """
    return _read_monomials(pin.order, np.array([[[x.coeffs for x in row] for row in m.rows]]))[0]


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
