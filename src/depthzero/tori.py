"""Models of the two elliptic unramified tori of PGSp(4) at depth zero.

Torus 1 splits over the quadratic unramified extension, torus 2 over the
quartic one.  Both are handled through the identification of their
E-points with pairs (w, z) in E* x E*, on which the Weyl group acts by
monomial maps (2x2 integer matrices on exponents; on coordinate rows,
the cached ``weyl_matrix``) and the Galois group acts by Frobenius
composed with a monomial map.  The rational points are Z^2 / (q F - 1) Z^2,
F the Weyl element of the elliptic word (``torus_quotient``, which the array
layer reads); coinvariants are kept in normal form: unit class plus parity.  Tate
cohomology of the E-points is computed independently on the finitely
generated abelian-group model via Smith normal form, so the structural
claims about the norm exact sequence are machine-checked.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache, reduce, wraps
from itertools import product

import numpy as np

from . import snf
from .ffield import FFElem
from .localmodel import UnitVal, uv_galois, uv_inv, uv_mul, uv_pow

KINDS = (1, 2)


class NonRationalWeylError(ValueError):
    """A non-rational Weyl element was applied to a Galois-quotient object."""


class WeylGroupError(ValueError):
    """The positive roots give no rank-two root datum, the reflections no
    group of order 8, or the elliptic word no elliptic element of its level,
    in whatever basis; or a Weyl element does not compose or invert."""


class KindMismatchError(TypeError):
    """An element of one torus was handed to the other torus's function."""


class GaloisActionError(AssertionError):
    """The Galois action fails an identity that the model rests on."""


def _check_kind(kind: int) -> None:
    if kind not in KINDS:
        raise ValueError(f"kind must be 1 or 2, got {kind}")


def torus_level(kind: int) -> int:
    """Residue degree of the splitting field: 2 for torus 1, 4 for torus 2."""
    _check_kind(kind)
    return 2 * kind


def unit_class_order(kind: int, q: int) -> int:
    """n, the rational points and the unit classes being (Z/n)^rank."""
    return torus_quotient(kind, q)[0]


def torus_rank(kind: int, q: int) -> int:
    """The rank of the rational points (Z/n)^rank: 2 for torus 1, 1 for torus 2."""
    return len(torus_quotient(kind, q)[2])


# ---------------------------------------------------------------------------
# normal forms


@dataclass(frozen=True)
class T1Coinv:
    q: int
    u1: int
    u2: int
    v1: int
    v2: int


@dataclass(frozen=True)
class T2Coinv:
    q: int
    u: int
    v: int


@dataclass(frozen=True)
class T1Rational:
    q: int
    k1: int
    k2: int


@dataclass(frozen=True)
class T2Rational:
    q: int
    k: int


def t1_coinv(q, u1, u2, v1, v2) -> T1Coinv:
    n = q + 1
    return T1Coinv(q, u1 % n, u2 % n, v1 % 2, v2 % 2)


def t2_coinv(q, u, v) -> T2Coinv:
    return T2Coinv(q, u % (q * q + 1), v % 2)


def t1_rational(q, k1, k2) -> T1Rational:
    n = q + 1
    return T1Rational(q, k1 % n, k2 % n)


def t2_rational(q, k) -> T2Rational:
    return T2Rational(q, k % (q * q + 1))


def coinv_mul(a, b):
    if isinstance(a, T1Coinv):
        return t1_coinv(a.q, a.u1 + b.u1, a.u2 + b.u2, a.v1 + b.v1, a.v2 + b.v2)
    return t2_coinv(a.q, a.u + b.u, a.v + b.v)


def coinv_unit_part(a):
    """Unit-class component of the direct-product splitting."""
    if isinstance(a, T1Coinv):
        return t1_coinv(a.q, a.u1, a.u2, 0, 0)
    return t2_coinv(a.q, a.u, 0)


def coinv_parity_part(a):
    if isinstance(a, T1Coinv):
        return t1_coinv(a.q, 0, 0, a.v1, a.v2)
    return t2_coinv(a.q, 0, a.v)


def parity_rows(kind: int, q: int) -> np.ndarray:
    """The valuation-parity subgroup of the coinvariants (the norm kernel),
    as coinvariant rows: zero unit columns, the parities in lexicographic
    order."""
    rank = torus_rank(kind, q)
    return _lex_grid((1,) * rank + (2,) * rank)


def parity_classes(kind: int, q: int):
    """``parity_rows`` as coinvariant classes."""
    return [coinv_of_row(kind, q, row) for row in parity_rows(kind, q)]


def enumerate_coinvariants(kind: int, q: int):
    if kind == 1:
        n = q + 1
        for u1, u2, v1, v2 in product(range(n), range(n), (0, 1), (0, 1)):
            yield t1_coinv(q, u1, u2, v1, v2)
    else:
        for u, v in product(range(q * q + 1), (0, 1)):
            yield t2_coinv(q, u, v)


def _lex_grid(shape) -> np.ndarray:
    """Every row of the box ``shape`` (one column per axis), lexicographic."""
    axes = [np.arange(size, dtype=np.int64) for size in shape]
    return np.stack(np.meshgrid(*axes, indexing="ij", copy=False), axis=-1).reshape(-1, len(shape))


def coinvariant_shape(kind: int, q: int) -> tuple[int, ...]:
    """The box (Z/n)^rank x (Z/2)^rank of the coinvariant normal forms."""
    rank = torus_rank(kind, q)
    return (unit_class_order(kind, q),) * rank + (2,) * rank


# The coordinate grids that the checks of a run share, kept, latest use
# last, while they take at most TABLE_CACHE_BYTES in all; a larger grid is
# rebuilt at each call, as if uncached.
TABLE_CACHE_BYTES = 16 * 2**20
_tables: OrderedDict = OrderedDict()


def _cached_table(build):
    """Make ``build(*args)`` return its array read-only, from ``_tables``."""
    @wraps(build)
    def cached(*args):
        key = (build.__name__, *args)
        if key in _tables:
            _tables.move_to_end(key)
            return _tables[key]
        table = build(*args)
        table.flags.writeable = False
        if table.nbytes <= TABLE_CACHE_BYTES:
            _tables[key] = table
            while sum(t.nbytes for t in _tables.values()) > TABLE_CACHE_BYTES:
                _tables.popitem(last=False)
        return table
    return cached


def clear_tables() -> None:
    """Empty the cache of coordinate grids."""
    _tables.clear()


@_cached_table
def coinvariant_coordinates(kind: int, q: int) -> np.ndarray:
    """``coordinate_array`` of ``enumerate_coinvariants(kind, q)``, built
    directly: (Z/n)^rank x (Z/2)^rank in lexicographic order.  Read-only,
    cached within ``TABLE_CACHE_BYTES``."""
    return _lex_grid(coinvariant_shape(kind, q))


def coinvariant_index(kind: int, q: int, coords: np.ndarray) -> np.ndarray:
    """The row index of each reduced coinvariant row in
    ``coinvariant_coordinates(kind, q)``."""
    return np.ravel_multi_index(tuple(coords.T), coinvariant_shape(kind, q))


def rational_of_row(kind: int, q: int, row):
    """The rational element of one coordinate row (for witnesses)."""
    return (t1_rational if kind == 1 else t2_rational)(q, *(int(x) for x in row))


def coinv_of_row(kind: int, q: int, row):
    """The coinvariant class of one coordinate row (for witnesses)."""
    return (t1_coinv if kind == 1 else t2_coinv)(q, *(int(x) for x in row))


def coinvariant_order(kind: int, q: int) -> int:
    return (2 * unit_class_order(kind, q)) ** torus_rank(kind, q)


def rational_order(kind: int, q: int) -> int:
    return unit_class_order(kind, q) ** torus_rank(kind, q)


# ---------------------------------------------------------------------------
# projection, norm, lifts


def project_to_coinvariants(kind: int, q: int, pair: tuple[UnitVal, UnitVal]):
    """Class map from the pair model of the E-points to the coinvariants.

    Torus 1 classes each slot separately; torus 2 first applies the
    projection (w, z) -> w * tau(z)^(-1) and then classes modulo the
    subextension norms.
    """
    _check_kind(kind)
    w, z = pair
    if kind == 1:
        if w.level != 2 or z.level != 2:
            raise ValueError("torus-1 pairs live at level 2")
        return t1_coinv(q, w.residue.dlog, z.residue.dlog, w.val, z.val)
    if w.level != 4 or z.level != 4:
        raise ValueError("torus-2 pairs live at level 4")
    tz = uv_galois(q, z, 1)
    x = uv_mul(q, w, uv_inv(q, tz))
    return t2_coinv(q, x.residue.dlog, x.val)


def coinvariant_norm(c):
    """Induced norm from the coinvariants onto the rational points."""
    if isinstance(c, T1Coinv):
        return t1_rational(c.q, -c.u1, -c.u2)
    return t2_rational(c.q, -c.u)


def lift_of_rational(kind: int, q: int, gamma, parity=None):
    """A coinvariant lift of the rational element; parity (0,..) by default.

    The default is the canonical valuation-zero lift coming from the
    unit-class/parity direct-product splitting.
    """
    _check_kind(kind)
    if kind == 1:
        v1, v2 = parity if parity is not None else (0, 0)
        return t1_coinv(q, -gamma.k1, -gamma.k2, v1, v2)
    v = parity if parity is not None else 0
    return t2_coinv(q, -gamma.k, v)


def lift_coordinates(kind: int, q: int, gamma_rows: np.ndarray, parity=None) -> np.ndarray:
    """``lift_of_rational`` of every row of rational coordinates, as
    coinvariant rows: (-gamma) mod n next to the parity columns."""
    rows = np.asarray(gamma_rows, dtype=np.int64)
    bits = np.broadcast_to(np.atleast_1d(0 if parity is None else parity) % 2, rows.shape)
    return np.concatenate([(-rows) % unit_class_order(kind, q), bits], axis=1)


def canonical_rep(c):
    """Unit-valued representatives used by the Weyl denominator.

    Torus 1: a pair of level-2 elements; torus 2: a single level-4
    element (the z-slot of the pair model is taken to be 1).
    """
    if isinstance(c, T1Coinv):
        return (
            UnitVal(2, FFElem(2, c.u1), c.v1),
            UnitVal(2, FFElem(2, c.u2), c.v2),
        )
    return UnitVal(4, FFElem(4, c.u), c.v)


def mu_coordinate(kind: int, q: int, x: UnitVal) -> int:
    """Coordinate of a norm-one unit in mu_(q+1) resp. mu_(q^2+1)."""
    _check_kind(kind)
    if x.val != 0:
        raise ValueError("norm-one elements have valuation zero")
    step = q - 1 if kind == 1 else q * q - 1
    if x.residue.dlog % step != 0:
        raise ValueError("residue is not in the norm-one subgroup")
    return (x.residue.dlog // step) % unit_class_order(kind, q)


def mu_unit(kind: int, q: int, k: int) -> UnitVal:
    """The norm-one unit with the given mu-coordinate."""
    _check_kind(kind)
    step = q - 1 if kind == 1 else q * q - 1
    level = torus_level(kind)
    order = q**level - 1
    return UnitVal(level, FFElem(level, (k * step) % order), 0)


def pair_norm(kind: int, q: int, pair: tuple[UnitVal, UnitVal]):
    """Norm computed directly on the pair model as the product of the
    Galois orbit, landing in the rational points."""
    _check_kind(kind)
    w, z = pair
    if kind == 1:
        m1 = uv_mul(q, w, uv_inv(q, uv_galois(q, w)))
        m2 = uv_mul(q, z, uv_inv(q, uv_galois(q, z)))
        return t1_rational(q, mu_coordinate(1, q, m1), mu_coordinate(1, q, m2))
    cur = pair
    acc = pair
    for _ in range(3):
        cur = pair_galois(kind, q, cur)
        acc = (uv_mul(q, acc[0], cur[0]), uv_mul(q, acc[1], cur[1]))
    x, y = acc
    if y != uv_galois(q, x, 1):
        raise GaloisActionError("norm must land on the twisted diagonal")
    return t2_rational(q, mu_coordinate(2, q, x))


def pair_galois(kind: int, q: int, pair: tuple[UnitVal, UnitVal]):
    """Galois generator on the pair model."""
    _check_kind(kind)
    w, z = pair
    if kind == 1:
        return (uv_inv(q, uv_galois(q, w)), uv_inv(q, uv_galois(q, z)))
    return (uv_inv(q, uv_galois(q, z, 1)), uv_galois(q, w, 1))


# ---------------------------------------------------------------------------
# the quadruple model (diagonal quotient) and its pair identification


def quad_galois(kind: int, q: int, quad):
    _check_kind(kind)
    a, b, c, d = quad
    g = lambda t: uv_galois(q, t, 1)
    if kind == 1:
        return (g(d), g(c), g(b), g(a))
    return (g(c), g(a), g(d), g(b))


def quad_weyl(gen: str, quad):
    """Simple reflections on quadruples: 'a' swaps slots (1,2) and (3,4),
    'b' swaps slots (2,3)."""
    a, b, c, d = quad
    if gen == "a":
        return (b, a, d, c)
    if gen == "b":
        return (a, c, b, d)
    raise ValueError(f"unknown generator {gen!r}")


def pair_from_quad(kind: int, q: int, quad):
    _check_kind(kind)
    a, b, c, d = quad
    if kind == 1:
        return (uv_mul(q, a, uv_inv(q, b)), uv_mul(q, b, uv_inv(q, c)))
    return (uv_mul(q, a, uv_inv(q, b)), uv_mul(q, a, uv_inv(q, c)))


def quad_from_pair(kind: int, q: int, pair):
    _check_kind(kind)
    w, z = pair
    level = torus_level(kind)
    e = UnitVal(level, FFElem(level, 0), 0)
    if kind == 1:
        zi = uv_inv(q, z)
        return (w, e, zi, uv_mul(q, zi, uv_inv(q, w)))
    return (uv_mul(q, w, z), z, w, e)


# ---------------------------------------------------------------------------
# Weyl group


@dataclass(frozen=True)
class WeylElem:
    kind: int
    name: str
    mat: tuple[tuple[int, int], tuple[int, int]]


def _mat_mul2(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


# The root datum of each kind, entered once: the positive roots, and the word
# in the simple reflections "a", "b" of the element that the Frobenius acts by
# (w0 = -1 on torus 1, the Coxeter element on torus 2).  The reflections, the
# Cartan matrix and the Galois action on both sides are derived from them.
_POSITIVE_ROOTS = {1: ((1, 0), (0, 1), (1, 1), (2, 1)), 2: ((1, 0), (-1, 1), (0, 1), (1, 1))}
ELLIPTIC_WORD = {1: "abab", 2: "ab"}


def default_positive_roots(kind: int):
    """Exponent vectors on the pair model for the standard positive system."""
    _check_kind(kind)
    return _POSITIVE_ROOTS[kind]


@lru_cache(maxsize=None)
def simple_coroots(kind: int):
    """(root, coroot) of "a" and "b", the positive roots that are no sum of
    two, in listed order.  adj(K), K the sum of r^T r over the eight roots,
    is Weyl-invariant, so the coroot is 2 adj(K) alpha / alpha adj(K) alpha."""
    positive = default_positive_roots(kind)
    roots = set(positive) | {(-x, -y) for x, y in positive}
    if len(roots - {(0, 0)}) != 8:
        raise WeylGroupError(f"the kind-{kind} roots {positive} are not 8 distinct nonzero ones")
    sums = {(s[0] + t[0], s[1] + t[1]) for s in positive for t in positive}
    simple = [r for r in positive if r not in sums]
    if len(simple) != 2:
        raise WeylGroupError(f"the kind-{kind} roots {positive} have {len(simple)} simple roots")
    k00, k01, k11 = (sum(r[i] * r[j] for r in roots) for i, j in ((0, 0), (0, 1), (1, 1)))
    pairs = []
    for x, y in simple:
        v = (2 * (k11 * x - k01 * y), 2 * (k00 * y - k01 * x))
        norm = (x * v[0] + y * v[1]) // 2
        if norm == 0 or v[0] % norm or v[1] % norm:
            raise WeylGroupError(f"the kind-{kind} coroot of {(x, y)} is not integral")
        c1, c2 = v[0] // norm, v[1] // norm
        if {(r - (r * c1 + t * c2) * x, t - (r * c1 + t * c2) * y) for r, t in roots} != roots:
            raise WeylGroupError(f"the kind-{kind} reflection in {(x, y)} moves a root off")
        pairs.append(((x, y), (c1, c2)))
    return tuple(pairs)


def cartan_matrix():
    """C[i][j] = <simple root i, simple coroot j>, i and j running over "a"
    and "b"; both tori lie in one group, so both kinds must give it."""
    c1, c2 = (tuple(tuple(r[0] * c[0] + r[1] * c[1] for _, c in pairs) for r, _ in pairs)
              for pairs in map(simple_coroots, KINDS))
    if c1 != c2:
        raise WeylGroupError(f"the kinds give the Cartan matrices {c1} and {c2}")
    return c1


def reflection_matrices(kind: int) -> dict:
    """{letter: I - coroot root} for the simple roots "a" and "b"."""
    return {letter: ((1 - c1 * x, -c1 * y), (-c2 * x, 1 - c2 * y))
            for letter, ((x, y), (c1, c2)) in zip("ab", simple_coroots(kind))}


@lru_cache(maxsize=None)
def word_matrix(kind: int, word: str):
    """The product of the reflections that the letters of ``word`` name, in word order."""
    if not word:
        return ((1, 0), (0, 1))
    return _mat_mul2(word_matrix(kind, word[:-1]), reflection_matrices(kind)[word[-1]])


@lru_cache(maxsize=None)
def weyl_group(kind: int) -> tuple[WeylElem, ...]:
    """All eight abstract Weyl elements, each named by its first word in
    shortlex order, which is a reduced word; they must close to a group."""
    _check_kind(kind)
    names = {}
    for word in ("".join(w) for length in range(5) for w in product("ab", repeat=length)):
        names.setdefault(word_matrix(kind, word), word)
        if len(names) > 8:  # broken generators may generate an infinite group
            raise WeylGroupError(f"the kind-{kind} generators give more than 8 elements, "
                                 f"among them {word_matrix(kind, word)}")
    gens = reflection_matrices(kind).values()
    if len(names) != 8 or any(_mat_mul2(m, g) not in names for m in names for g in gens):
        raise WeylGroupError(f"the kind-{kind} generators give {len(names)} elements, not 8")
    return tuple(WeylElem(kind, name, mat) for mat, name in names.items())


@lru_cache(maxsize=None)
def _by_matrix(kind: int):
    return {e.mat: e for e in weyl_group(kind)}


def simple_reflections(kind: int) -> tuple[WeylElem, WeylElem]:
    """The Weyl elements of the two reflection matrices, found by matrix."""
    by_matrix = _by_matrix(kind)
    return tuple(by_matrix[mat] for mat in reflection_matrices(kind).values())


def weyl_identity(kind: int) -> WeylElem:
    return weyl_group(kind)[0]


def weyl_compose(x: WeylElem, y: WeylElem) -> WeylElem:
    if x.kind != y.kind:
        raise WeylGroupError(f"cannot compose a kind-{x.kind} with a kind-{y.kind} element")
    return _by_matrix(x.kind)[_mat_mul2(x.mat, y.mat)]


def weyl_inverse(x: WeylElem) -> WeylElem:
    (a, b), (c, d) = x.mat
    det = a * d - b * c
    if det not in (1, -1):
        raise WeylGroupError(f"{x.mat} has determinant {det}, not +-1")
    inv = ((d // det, -b // det), (-c // det, a // det))
    return _by_matrix(x.kind)[inv]


@lru_cache(maxsize=None)
def rational_weyl_group(kind: int) -> tuple[WeylElem, ...]:
    """Subgroup whose action commutes with the Galois action on E-points:
    the centralizer of F, all 8 elements for F = -1 and 4 for a Coxeter F,
    the only words that ``torus_quotient``'s guard F^(L/2) = -1 admits."""
    s = word_matrix(kind, ELLIPTIC_WORD[kind])
    return tuple(e for e in weyl_group(kind) if _mat_mul2(e.mat, s) == _mat_mul2(s, e.mat))


def is_rational(w: WeylElem) -> bool:
    return w in rational_weyl_group(w.kind)


def torus_quotient(kind: int, q: int):
    """``_quotient`` of the matrix F of ``ELLIPTIC_WORD[kind]`` at the level L."""
    return _quotient(torus_level(kind), word_matrix(kind, ELLIPTIC_WORD[kind]), q)


@lru_cache(maxsize=None)
def _quotient(level: int, frobenius, q: int):
    """The rational points T(F_q) = Z^2 / (q F - 1) Z^2 (Carter, Finite Groups
    of Lie Type, 3.3) of the torus whose Frobenius acts by F, as (n, E, P):
    the group (Z/n)^rank, its embedding E (2 x rank) in pair coordinates and
    the projection P (rank x 2) onto it, from the Smith form U (q F - 1) V.
    F must be elliptic of the pair model's order L, F^(L/2) = -1, so the
    invariant factors other than 1 all equal n (F = -1: q F - 1 is scalar
    and U, V diagonal; else one, |det(q F - 1)|).  E is the columns of V and
    P the rows of U at them, each its ``_least_unit_multiple``: I at rank 2,
    leading with 1 wherever a multiple can.  Raises WeylGroupError otherwise."""
    if reduce(_mat_mul2, [frobenius] * (level // 2)) != ((-1, 0), (0, -1)):
        raise WeylGroupError(f"F = {frobenius} has F^{level // 2} != -1: it is no "
                             f"elliptic element of order {level}")
    (a, b), (c, d) = frobenius
    diag, u, v, _uinv = snf.smith_normal_form([[q * a - 1, q * b], [q * c, q * d - 1]])
    factors, n = [i for i, x in enumerate(snf.diagonal(diag)) if x != 1], diag[1][1]
    embed = _least_unit_multiple([v[r][i] for i in factors for r in (0, 1)], n)
    project = _least_unit_multiple([u[i][r] for i in factors for r in (0, 1)], n)
    return n, tuple(zip(*zip(*[iter(embed)] * 2))), tuple(zip(*[iter(project)] * 2))


def _least_unit_multiple(x, n: int) -> tuple:
    """The least u x over units u mod n (entries compared in order in [0, n)),
    in the symmetric range: it depends only on the subgroup that x generates.
    x has order n and x_1 is a unit mod g = gcd(x_0, n).  The least first
    entry, g, fixes u mod m = n / g; u is then a unit iff y = u x_1, one class
    mod m, is prime to g, so the least such y fixes u with no scan over units."""
    g = math.gcd(x[0], n)
    m = n // g
    u = pow(x[0] // g, -1, m)
    y = next(y for y in range(u * x[1] % m, n, m) if math.gcd(y, g) == 1)
    u += m * ((y - u * x[1]) // m * pow(x[1], -1, g) % g)
    return tuple((u * e + n // 2) % n - n // 2 for e in x)


@lru_cache(maxsize=None)
def _left_inverse(basis, n: int):
    """S with S B = I mod n, for a 2 x r basis B of a free (Z/n)^r: V D^-1 U
    for its Smith form U B V = D, whose d_i are units mod n, U cut to r rows."""
    d, u, v, _uinv = snf.smith_normal_form([list(row) for row in basis])
    return snf.mat_mul(v, [[x * pow(d[i][i], -1, n) for x in u[i]] for i in range(len(v))])


def weyl_apply(q: int, w: WeylElem, x):
    """Action of a Weyl element on rational points or coinvariant classes.

    For torus 2 both kinds of Galois-quotient object require w to be
    F-rational; the coinvariant action is obtained by transporting the
    monomial action through the pair-model projection.
    """
    m = w.mat
    if isinstance(x, T1Rational):
        return t1_rational(
            x.q, m[0][0] * x.k1 + m[0][1] * x.k2, m[1][0] * x.k1 + m[1][1] * x.k2
        )
    if isinstance(x, T1Coinv):
        return t1_coinv(
            x.q,
            m[0][0] * x.u1 + m[0][1] * x.u2,
            m[1][0] * x.u1 + m[1][1] * x.u2,
            m[0][0] * x.v1 + m[0][1] * x.v2,
            m[1][0] * x.v1 + m[1][1] * x.v2,
        )
    if isinstance(x, T2Rational):
        if not is_rational(w):
            raise NonRationalWeylError(f"{w.name!r} does not act on rational points")
        factor = m[0][0] + x.q * m[0][1]
        return t2_rational(x.q, factor * x.k)
    if isinstance(x, T2Coinv):
        if not is_rational(w):
            raise NonRationalWeylError(f"{w.name!r} does not act on the coinvariants")
        q4 = x.q**4 - 1
        dw = (m[0][0] * x.u) % q4
        vw = m[0][0] * x.v
        dz = (m[1][0] * x.u) % q4
        vz = m[1][0] * x.v
        proj_dlog = (dw - x.q * dz) % q4
        proj_val = vw - vz
        return t2_coinv(x.q, proj_dlog, proj_val)
    raise TypeError(f"cannot apply Weyl element to {type(x).__name__}")


_COORD_FIELDS = {
    T1Rational: ("k1", "k2"),
    T1Coinv: ("u1", "u2", "v1", "v2"),
    T2Rational: ("k",),
    T2Coinv: ("u", "v"),
}


def coordinate_array(cls, xs) -> np.ndarray:
    """Coordinates of same-type torus elements, one int64 row each, in the
    field order of ``cls`` (``q`` omitted)."""
    names = _COORD_FIELDS[cls]
    return np.array(
        [[getattr(x, f) for f in names] for x in xs], dtype=np.int64
    ).reshape(-1, len(names))


@lru_cache(maxsize=None)
def weyl_matrix(q: int, w: WeylElem, coinvariant: bool) -> tuple[np.ndarray, np.ndarray]:
    """The integer matrix M and column moduli of ``weyl_apply(q, w, .)`` on
    rational, or if ``coinvariant`` coinvariant, rows: x goes to x @ M.T %
    moduli; read-only int64, cached.  With (n, E, P) the ``torus_quotient``,
    M is S W E, S E = I mod n, on rational rows (torus 2: a + q b), and on both
    blocks of a coinvariant row the L with P W = L P, L^T = S W^T P^T for S P^T
    = I (torus 2: a - q c, a - c mod 2); entries in the symmetric range mod n."""
    if not is_rational(w):
        raise NonRationalWeylError(f"{w.name!r} does not act on the rational points")
    n, embed, project = torus_quotient(w.kind, q)
    rank = len(project)
    basis = tuple(zip(*project)) if coinvariant else embed
    solved = snf.mat_mul(_left_inverse(basis, n),
                         snf.mat_mul(tuple(zip(*w.mat)) if coinvariant else w.mat, basis))
    unit = [[(x + n // 2) % n - n // 2 for x in row]
            for row in (zip(*solved) if coinvariant else solved)]
    mat = [r + [0] * rank for r in unit] + [[0] * rank + r for r in unit] if coinvariant else unit
    moduli = [n] * rank + [2] * rank * coinvariant
    out = np.array(mat, dtype=np.int64), np.array(moduli, dtype=np.int64)
    for array in out:
        array.flags.writeable = False
    return out


# The pair model on integer rows (dlog_w, val_w, dlog_z, val_z), residues at
# level 2*kind: Frobenius multiplies a dlog by q modulo q^L - 1, inversion
# negates and multiplication adds.  Results are in the _COORD_FIELDS order.


def _pair_order(kind: int, q: int) -> int:
    """The dlog modulus q^L - 1; no intermediate value exceeds q times it."""
    order = q ** torus_level(kind) - 1
    if q * order >= 2**63:
        raise OverflowError(f"q = {q} is too large for int64 pair-model rows")
    return order


def galois_matrix(kind: int, q: int) -> np.ndarray:
    """The Galois generator on pair rows (dlog_w, val_w, dlog_z, val_z), as
    the int64 matrix G taking a row x to G x: the Weyl element F of
    ``ELLIPTIC_WORD[kind]`` on the two slots, tensored with Frobenius,
    diag(q, 1), on (dlog, val).  That is kron(F, I_2) with the dlog columns
    scaled by q; it has one nonzero entry per row.  Read-only, cached per
    (F, q), so a rebound word gets its own matrix."""
    _check_kind(kind)
    return _galois_matrix(word_matrix(kind, ELLIPTIC_WORD[kind]), q)


@lru_cache(maxsize=None)
def _galois_matrix(frobenius, q: int) -> np.ndarray:
    out = np.kron(np.array(frobenius, dtype=np.int64), [[q, 0], [0, 1]])
    out.flags.writeable = False
    return out


def _column_sums(rows: np.ndarray, matrix) -> np.ndarray:
    """``rows @ matrix.T`` one output column at a time, for a ``matrix`` of
    Python ints: column i is the sum of the columns j of ``rows`` times
    matrix[i][j] over the nonzero entries of row i.  The result is the
    transpose of a C-ordered array, so each of its columns is contiguous
    (numpy's int64 matmul is a plain loop, slow on strided rows)."""
    out = np.empty((len(matrix), len(rows)), dtype=np.int64)
    for column, coefficients in zip(out, matrix):
        (j, c), *rest = [(j, c) for j, c in enumerate(coefficients) if c] or [(0, 0)]
        np.multiply(rows[:, j], c, out=column)
        for j, c in rest:
            column += c * rows[:, j]
    return out.T


def pair_galois_array(kind: int, q: int, rows: np.ndarray) -> np.ndarray:
    """``pair_galois`` on every row of pair-model coordinates: the
    ``_column_sums`` of ``galois_matrix``, the dlogs reduced mod q^L - 1."""
    order = _pair_order(kind, q)
    out = _column_sums(rows, galois_matrix(kind, q).tolist())
    out[:, 0::2] %= order
    return out


# Quadruples (a, b, c, d) are rows (dlog_a, val_a, dlog_b, val_b, dlog_c,
# val_c, dlog_d, val_d) at the same level: the diagonal torus of the dual
# group, whose Weyl elements permute the four slots.


def quad_from_pair_array(kind: int, q: int, rows: np.ndarray) -> np.ndarray:
    """``quad_from_pair`` on every row of pair-model coordinates."""
    order = _pair_order(kind, q)
    dw, vw, dz, vz = rows.T
    zero = np.zeros_like(dw)
    if kind == 1:
        return np.stack(
            [dw, vw, zero, zero, (-dz) % order, -vz, (-dz - dw) % order, -vz - vw], axis=1
        )
    return np.stack([(dw + dz) % order, vw + vz, dz, vz, dw, vw, zero, zero], axis=1)


def pair_from_quad_array(kind: int, q: int, quads: np.ndarray) -> np.ndarray:
    """``pair_from_quad`` on every row of quadruple coordinates."""
    order = _pair_order(kind, q)
    da, va, db, vb, dc, vc = quads[:, :6].T
    if kind == 1:
        return np.stack([(da - db) % order, va - vb, (db - dc) % order, vb - vc], axis=1)
    return np.stack([(da - db) % order, va - vb, (da - dc) % order, va - vc], axis=1)


def quad_galois_array(kind: int, q: int, quads: np.ndarray, slots: tuple) -> np.ndarray:
    """``quad_galois`` on every row of quadruple coordinates: Frobenius on
    every slot after conjugation by the inverse of ``dualgroup``'s lift of
    ``ELLIPTIC_WORD[kind]``, which reads the slots in the order ``slots``,
    the inverse of the lift's permutation.  The caller passes it, as
    ``dualgroup`` imports this module; the lift is built from the dual root
    datum, so ``pair-quad-roundtrip`` checks it against F."""
    order = _pair_order(kind, q)
    moved = quads.reshape(-1, 4, 2)[:, list(slots)]
    return np.stack([(q * moved[..., 0]) % order, moved[..., 1]], axis=-1).reshape(-1, 8)


def mu_coordinate_array(kind: int, q: int, dlog: np.ndarray, val: np.ndarray) -> np.ndarray:
    """``mu_coordinate`` on arrays of reduced dlogs and valuations; raises
    as it does if any element is off the norm-one subgroup."""
    n = unit_class_order(kind, q)
    if np.any(val != 0):
        raise ValueError("norm-one elements have valuation zero")
    step = (q ** torus_level(kind) - 1) // n
    if np.any(dlog % step != 0):
        raise ValueError("residue is not in the norm-one subgroup")
    return (dlog // step) % n


def mu_unit_array(kind: int, q: int, k: np.ndarray) -> np.ndarray:
    """``mu_unit`` of every mu-coordinate in ``k``, as (dlog, val) rows."""
    order = q ** torus_level(kind) - 1
    step = order // unit_class_order(kind, q)
    return np.stack([(k * step) % order, np.zeros_like(k)], axis=1)


def pair_norm_array(kind: int, q: int, rows: np.ndarray) -> np.ndarray:
    """``pair_norm`` on every row: the product of the Galois orbit, which
    must be fixed by ``pair_galois_array``, as the mu-coordinates of its
    first ``torus_rank`` slots (``T1Rational`` resp. ``T2Rational``)."""
    order = _pair_order(kind, q)
    cur = acc = rows
    for _ in range(torus_level(kind) - 1):
        cur = pair_galois_array(kind, q, cur)
        acc = acc + cur
    acc[:, 0::2] %= order
    if not np.array_equal(pair_galois_array(kind, q, acc), acc):
        raise GaloisActionError("the norm is not fixed by the Galois action")
    rank = torus_rank(kind, q)
    return mu_coordinate_array(kind, q, acc[:, 0:2 * rank:2], acc[:, 1:2 * rank:2])


def project_to_coinvariants_array(kind: int, q: int, rows: np.ndarray) -> np.ndarray:
    """``project_to_coinvariants`` on every row, as ``T1Coinv`` resp.
    ``T2Coinv`` coordinates: the ``torus_quotient`` projection P on the
    dlogs mod n and on the valuations mod 2 (torus 2: w * tau(z)^(-1))."""
    _pair_order(kind, q)
    n, _embed, project = torus_quotient(kind, q)
    rank = len(project)
    # P on the dlog columns (0, 2), then on the valuation columns (1, 3)
    out = _column_sums(rows, [[a, 0, b, 0] for a, b in project]
                       + [[0, a, 0, b] for a, b in project])
    out[:, :rank] %= n
    out[:, rank:] %= 2
    return out


def coinvariant_norm_array(kind: int, q: int, coords: np.ndarray) -> np.ndarray:
    """``coinvariant_norm`` on every row of coinvariant coordinates."""
    return (-coords[:, :torus_rank(kind, q)]) % unit_class_order(kind, q)


def weyl_apply_pair(q: int, w: WeylElem, pair):
    """Monomial action on the pair model of the E-points."""
    m = w.mat

    def mono(e1, e2):
        return uv_mul(q, uv_pow(q, pair[0], e1), uv_pow(q, pair[1], e2))

    return (mono(m[0][0], m[0][1]), mono(m[1][0], m[1][1]))


# ---------------------------------------------------------------------------
# roots, regular locus


def positive_system(kind: int, w: WeylElem):
    """Image of the default positive system under the Weyl element."""
    m = weyl_inverse(w).mat
    return tuple(
        (m[0][0] * g1 + m[1][0] * g2, m[0][1] * g1 + m[1][1] * g2)
        for g1, g2 in default_positive_roots(kind)
    )


def half_sum_vector(kind: int, roots=None):
    roots = default_positive_roots(kind) if roots is None else roots
    return (sum(g[0] for g in roots), sum(g[1] for g in roots))


def root_value_coord(kind: int, q: int, root, gamma) -> int:
    """mu-coordinate of the root value on a rational element."""
    g1, g2 = root
    if kind == 1:
        return (g1 * gamma.k1 + g2 * gamma.k2) % (q + 1)
    return ((g1 + q * g2) * gamma.k) % (q * q + 1)


def root_value_coord_array(kind: int, q: int, roots, coords: np.ndarray) -> np.ndarray:
    """``root_value_coord`` of each of ``roots`` on every row of
    ``coordinate_array(T1Rational | T2Rational, ...)``, one column per root:
    coords @ (roots E).T mod n, (n, E) of the ``torus_quotient``; refuses a
    q whose sums of products could pass int64 (torus 2: k (g1 + q g2))."""
    n, embed, _project = torus_quotient(kind, q)
    factor = [[g1 * x + g2 * y for x, y in zip(*embed)] for g1, g2 in roots]
    if n * int(max(sum(map(abs, row)) for row in factor)) >= 2**63:
        raise OverflowError(f"q = {q} is too large for int64 root values")
    return coords[:, :len(embed[0])] @ np.array(factor, dtype=np.int64).T % n


def strongly_regular_mask(kind: int, q: int, coords: np.ndarray) -> np.ndarray:
    """``is_strongly_regular`` on every row of rational coordinates."""
    return (root_value_coord_array(kind, q, default_positive_roots(kind), coords) != 0).all(axis=1)


def root_values(kind: int, q: int, gamma):
    return tuple(
        root_value_coord(kind, q, g, gamma) for g in default_positive_roots(kind)
    )


def is_strongly_regular(kind: int, q: int, gamma) -> bool:
    """All four positive-root values differ from 1."""
    return all(c != 0 for c in root_values(kind, q, gamma))


def iter_rational(kind: int, q: int):
    _check_kind(kind)
    if kind == 1:
        n = q + 1
        for k1 in range(n):
            for k2 in range(n):
                yield t1_rational(q, k1, k2)
    else:
        for k in range(q * q + 1):
            yield t2_rational(q, k)


def iter_strongly_regular(kind: int, q: int):
    for gamma in iter_rational(kind, q):
        if is_strongly_regular(kind, q, gamma):
            yield gamma


@_cached_table
def strongly_regular_coordinates(kind: int, q: int) -> np.ndarray:
    """``coordinate_array`` of ``iter_strongly_regular(kind, q)``, built
    directly: the rational grid in ``iter_rational`` order, masked.
    Read-only, cached within ``TABLE_CACHE_BYTES``."""
    grid = _lex_grid((unit_class_order(kind, q),) * torus_rank(kind, q))
    return grid[strongly_regular_mask(kind, q, grid)]


# ---------------------------------------------------------------------------
# Tate cohomology on the finitely generated abelian model


@lru_cache(maxsize=None)
def tate_cohomology(kind: int, q: int):
    """Orders of H^-1 and H^0 of the Galois action on the E-points model,
    plus all elements of H^-1 as pair-model rows (d1, v1, d2, v2), one
    int64 row each, read-only, cached per (kind, q).

    numpy forms ``galois_matrix``, its norm and 1 - sigma as arrays of
    Python ints, so no q overflows; ``snf`` computes each group as a
    quotient of lattices by Smith normal form, entirely independently of
    the coinvariant normal form used elsewhere.
    """
    level = torus_level(kind)
    galois = galois_matrix(kind, q).astype(object)
    ident = np.eye(4, dtype=object)
    norm = sum(np.linalg.matrix_power(galois, i) for i in range(level))
    one_minus = ident - galois
    # the dlog coordinates live modulo q^L - 1, the valuations in Z; both
    # groups need sigma^L = 1 there, or im(1 - sigma) leaves ker(norm)
    order = q**level - 1
    relations = order * ident[:, [0, 2]]
    cycle = np.linalg.matrix_power(galois, level) - ident
    cycle[[0, 2]] %= order
    if cycle.any():
        raise GaloisActionError(f"sigma^{level} is not the identity on the E-points model")

    def homology(kernel_of, image_of):
        """(ker kernel_of) / (im image_of) modulo the relations."""
        kernel = snf.kernel_basis(np.hstack([kernel_of, -relations]).tolist())
        preimage = [vec[:4] for vec in kernel] + relations.T.tolist()
        factors = snf.quotient_structure(preimage, np.hstack([image_of, relations]).T.tolist())
        if any(o == 0 for o, _ in factors):
            raise GaloisActionError("Tate group must be finite")
        return math.prod(o for o, _ in factors), factors

    h_minus1_order, h_minus1_factors = homology(norm, one_minus)
    h0_order, _h0_factors = homology(one_minus, norm)

    orders = [o for o, _ in h_minus1_factors]
    exponents = np.array(list(product(*map(range, orders))), dtype=np.int64)
    generators = np.array([gen for _, gen in h_minus1_factors], dtype=np.int64)
    vecs = exponents.reshape(h_minus1_order, len(orders)) @ generators.reshape(len(orders), 4)
    vecs.flags.writeable = False
    return h_minus1_order, h0_order, vecs
