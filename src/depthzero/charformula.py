"""Character formula engine: Weyl denominators, the rho-shift character,
the cover character sum, and the reference orbit sum it must equal.

All values live in cyclotomic integer rings.  Character values are
tracked as exponents of a fixed root of unity and only assembled into
coefficient vectors at the end, so every comparison downstream is an
exact ring equality with zero tolerance.

The denominator of the formula factors as (eta of the root-difference
product) times the rho-shift; on the standard positive system the
combined difference form is used directly, while transformed positive
systems recompute the split form with the rho-shift obtained from the
uniqueness solver.  Division by the denominator is multiplication by the
inverse root of unity, hence stays inside the ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import lcm

import numpy as np

from .characters import (
    CoverCharacter,
    DepthZeroCharacter,
    value_order,
)
from .cyclo import CycInt, sum_of_roots
from .dualgroup import cover_class_values
from .ffield import FieldTower, prime_power
from .localmodel import (
    CancellationError,
    UnitVal,
    eta_exponent,
    eta_exponent_array,
    leading_diff,
    uv_galois,
    uv_mul,
    uv_pow,
)
from .tori import (
    KindMismatchError,
    T1Coinv,
    T2Coinv,
    WeylElem,
    canonical_rep,
    coinv_mul,
    coinvariant_coordinates,
    coinvariant_index,
    coinvariant_norm,
    coinvariant_norm_array,
    coinvariant_shape,
    coordinate_array,
    default_positive_roots,
    half_sum_vector,
    is_strongly_regular,
    iter_strongly_regular,
    lift_coordinates,
    lift_of_rational,
    mu_unit,
    mu_unit_array,
    positive_system,
    rational_of_row,
    rational_weyl_group,
    root_value_coord,
    root_value_coord_array,
    simple_reflections,
    strongly_regular_mask,
    torus_level,
    torus_rank,
    unit_class_order,
    weyl_apply,
    weyl_compose,
    weyl_group,
    weyl_identity,
    weyl_inverse,
    weyl_matrix,
)


class NotStronglyRegularError(ValueError):
    """The character formula is only defined on strongly regular elements."""


class RhoShiftError(RuntimeError):
    """The rho-shift solver found no or several solutions, or a solution
    whose values are not signs: model inconsistency."""


@dataclass
class FormulaContext:
    kind: int
    q: int
    eta_branch: int = 1
    summation: tuple[WeylElem, ...] = ()
    epsilon_gt: int = 1
    epsilon_chi: int = 1

    def __post_init__(self):
        if self.eta_branch not in (1, -1):
            raise ValueError("eta branch must be +1 or -1")
        if not self.summation:
            self.summation = rational_weyl_group(self.kind)
        _check_summation(self.kind, tuple(self.summation))

    @property
    def value_order(self) -> int:
        return value_order(self.kind, self.q)

    @property
    def ambient_order(self) -> int:
        return lcm(self.value_order, 4)


@lru_cache(maxsize=16)
def _check_summation(kind: int, summation: tuple[WeylElem, ...]) -> None:
    """Raise ValueError unless ``summation`` is a subgroup of the rational
    Weyl group; a passing group is remembered for the 16 latest keys."""
    rational = set(rational_weyl_group(kind))
    elems = set(summation)
    if not elems <= rational:
        raise ValueError("summation group must consist of rational Weyl elements")
    if weyl_identity(kind) not in elems:
        raise ValueError("summation group must contain the identity")
    for x in elems:
        for y in elems:
            if weyl_compose(x, y) not in elems:
                raise ValueError("summation set is not closed under composition")


def make_context(kind, q, *, eta_branch=1, summation=None,
                 epsilon_gt=1, epsilon_chi=1) -> FormulaContext:
    """A formula context; the summation group defaults to the rational
    Weyl group."""
    return FormulaContext(
        kind=kind, q=q, eta_branch=eta_branch,
        summation=tuple(summation) if summation else (),
        epsilon_gt=epsilon_gt, epsilon_chi=epsilon_chi,
    )


@lru_cache(maxsize=None)
def _tower(kind: int, q: int) -> FieldTower:
    """The field tower that the scalar denominators (``denominator_factors``,
    ``delta0_eta_exponent``) subtract through, built at seed 0.  They read
    only valuations and whether two dlogs are equal, which the choice of
    modulus does not change; the array denominators read no tower."""
    return FieldTower.build(*prime_power(q), max_level=torus_level(kind))


# ---------------------------------------------------------------------------
# denominators


def denominator_factors(ctx: FormulaContext, rep) -> list[UnitVal]:
    """The four leading-term differences of the combined denominator form.

    Torus 1 takes a pair representative, torus 2 a single one; each
    factor pairs a monomial with its Galois twist, and cancellation
    occurs exactly when the norm of the class is not strongly regular.
    """
    tower = _tower(ctx.kind, ctx.q)
    q = ctx.q
    out = []
    if ctx.kind == 1:
        w1, w2 = rep
        for g1, g2 in default_positive_roots(1):
            m = uv_mul(q, uv_pow(q, w1, g1), uv_pow(q, w2, g2))
            out.append(leading_diff(tower, m, uv_galois(q, m)))
        return out
    w = rep
    t = [uv_galois(q, w, j) for j in range(4)]
    pairs = (
        (t[0], t[2]),
        (uv_mul(q, t[1], t[2]), uv_mul(q, t[0], t[3])),
        (t[1], t[3]),
        (uv_mul(q, t[0], t[1]), uv_mul(q, t[2], t[3])),
    )
    for a, b in pairs:
        out.append(leading_diff(tower, a, b))
    return out


def weyl_denominator_exponent(ctx: FormulaContext, rep) -> int:
    """Exponent e mod 4 with D = zeta_4^e, via the difference form."""
    total = 0
    for d in denominator_factors(ctx, rep):
        total += eta_exponent(ctx.kind, d, ctx.eta_branch)
    return total % 4


def weyl_denominator_valuations(ctx: FormulaContext, coords: np.ndarray) -> np.ndarray:
    """The valuations of the ``denominator_factors`` of every
    ``canonical_rep`` of the rows of ``coordinate_array(T1Coinv | T2Coinv,
    ...)``, one column per factor; other representatives are read alike.

    Every factor is x - sigma^kind(x), sigma the Frobenius.  The uniformizer
    lies in F, so both terms have the valuation of x: v @ G at torus 1 (the
    positive roots the columns of G), v times 1, 2, 1, 2 at torus 2.  They
    cancel where sigma^kind fixes x, where its dlog (u @ G resp. u times 1,
    q + q^2, q, 1 + q) is 0 mod q^kind + 1, that is, where the factor's root
    is 1 on the norm of the class: this raises CancellationError exactly on
    the rows whose norm is not strongly regular.
    """
    kind, q = ctx.kind, ctx.q
    if not strongly_regular_mask(kind, q, coinvariant_norm_array(kind, q, coords)).all():
        raise CancellationError("difference vanishes at depth zero (equal valuation and residue)")
    val_cols = np.array(default_positive_roots(1)).T if kind == 1 else np.array([[1, 2, 1, 2]])
    return coords[:, len(val_cols):] @ val_cols


def weyl_denominator_exponent_array(ctx: FormulaContext, coords: np.ndarray) -> np.ndarray:
    """``weyl_denominator_exponent`` of every row, read as in
    ``weyl_denominator_valuations``."""
    vals = weyl_denominator_valuations(ctx, coords)
    return eta_exponent_array(ctx.kind, vals, ctx.eta_branch).sum(axis=1) % 4


def delta0_eta_exponent(ctx: FormulaContext, gamma, positive_roots=None) -> int:
    """eta of the product of (1 - root^-1(gamma)) over the positive system."""
    tower = _tower(ctx.kind, ctx.q)
    q = ctx.q
    roots = positive_roots if positive_roots is not None else default_positive_roots(ctx.kind)
    level = torus_level(ctx.kind)
    one = UnitVal(level, mu_unit(ctx.kind, q, 0).residue, 0)
    total = 0
    for g in roots:
        c = root_value_coord(ctx.kind, q, g, gamma)
        inv_value = mu_unit(ctx.kind, q, -c)
        factor = leading_diff(tower, one, inv_value)
        total += eta_exponent(ctx.kind, factor, ctx.eta_branch)
    return total % 4


def delta0_eta_exponent_array(ctx: FormulaContext, coords: np.ndarray,
                              positive_roots=None) -> np.ndarray:
    """``delta0_eta_exponent`` on every row of
    ``coordinate_array(T1Rational | T2Rational, ...)``.  Each factor
    1 - root^-1(gamma) is a difference of two units, so its valuation is 0;
    it cancels exactly where the root value is 1."""
    kind = ctx.kind
    roots = positive_roots if positive_roots is not None else default_positive_roots(kind)
    coord = root_value_coord_array(kind, ctx.q, roots, coords)
    if not coord.all():
        raise CancellationError("difference vanishes at depth zero (equal valuation and residue)")
    return eta_exponent_array(kind, np.zeros_like(coord), ctx.eta_branch).sum(axis=1) % 4


# ---------------------------------------------------------------------------
# the rho-shift


def rho_shift_closed_sign(ctx: FormulaContext, c) -> int:
    """Closed-form rho-shift on a coinvariant class: a sign depending only
    on the valuation parities (eta is unramified)."""
    if not isinstance(c, T1Coinv if ctx.kind == 1 else T2Coinv):
        raise KindMismatchError(f"a kind-{ctx.kind} context cannot sign {c}")
    if ctx.kind == 1:
        return -1 if c.v2 else 1
    return -1 if c.v else 1


def rho_shift_closed_sign_array(ctx: FormulaContext, coords: np.ndarray) -> np.ndarray:
    """``rho_shift_closed_sign`` on every row of coinvariant coordinates:
    the sign of the last parity column (v2 resp. v)."""
    return np.where(coords[:, -1] != 0, -1, 1)


def _two_rho_eta_exponent(ctx: FormulaContext, c, positive_roots=None) -> int:
    """eta((2 rho)(N(c))) as a zeta_4 exponent, computed on the model."""
    roots = positive_roots if positive_roots is not None else default_positive_roots(ctx.kind)
    vec = half_sum_vector(ctx.kind, roots)
    gamma = coinvariant_norm(c)
    coord = root_value_coord(ctx.kind, ctx.q, vec, gamma)
    elem = mu_unit(ctx.kind, ctx.q, coord)
    return eta_exponent(ctx.kind, elem, ctx.eta_branch)


def two_rho_eta_exponent_array(ctx: FormulaContext, coords: np.ndarray,
                               positive_roots=None) -> np.ndarray:
    """``_two_rho_eta_exponent`` on every row of
    ``coordinate_array(T1Coinv | T2Coinv, ...)``, by the same model steps."""
    kind, q = ctx.kind, ctx.q
    roots = positive_roots if positive_roots is not None else default_positive_roots(kind)
    gamma = coinvariant_norm_array(kind, q, coords)
    coord = root_value_coord_array(kind, q, [half_sum_vector(kind, roots)], gamma)[:, 0]
    return eta_exponent_array(kind, mu_unit_array(kind, q, coord)[:, 1], ctx.eta_branch)


def _rho_shift_character(ctx: FormulaContext, positive_roots=None) -> np.ndarray:
    """The scaled exponent row of the character ``rho_shift_solve`` asks for.

    The characters of the finite coinvariant model are labelled as its
    classes are, by rows x of (Z/n)^rank x (Z/2)^rank in
    ``enumerate_coinvariants`` order: x takes the class c to
    zeta_ambient^(sum x_i c_i scale_i), scale ambient/n on the unit
    coordinates and ambient/2 on the parities.  Every condition reads one
    generator, so the candidates are masked axis by axis and the solutions
    are the product of the per-axis candidates, in label order.
    """
    kind, amb = ctx.kind, ctx.ambient_order
    shape = coinvariant_shape(kind, ctx.q)
    scale = amb // np.array(shape)
    gens = np.eye(len(shape), dtype=np.int64)
    targets = (two_rho_eta_exponent_array(ctx, gens, positive_roots) * (amb // 4)) % amb
    # trivial on the unit classes and, for kind 1, on (uniformizer, 1), the cover kernel
    trivial_axes = len(shape) // 2 + (kind == 1)
    candidates = []
    for axis, size in enumerate(shape):
        values = np.arange(size) * scale[axis]  # each label on this generator
        ok = (2 * values) % amb == targets[axis]  # squares to the target
        if axis < trivial_axes:
            ok &= values == 0
        if axis == len(shape) - 1:
            ok &= values != 0  # genuine
        candidates.append(np.flatnonzero(ok).tolist())
    count = int(np.prod([len(c) for c in candidates]))
    if not count:
        raise RhoShiftError("no rho-shift character exists on this model")
    if count > 1:
        raise RhoShiftError(
            f"rho-shift is not unique: {count} candidates {list(product(*candidates))}"
        )
    return np.array([c[0] for c in candidates]) * scale


def rho_shift_solve(ctx: FormulaContext, positive_roots=None) -> np.ndarray:
    """Brute-force the unique genuine square root of eta(2 rho)(N(.)) that
    is trivial on the unit-class subgroup; returns its values as a +-1
    array aligned with the rows of ``coinvariant_coordinates``.

    Raises RhoShiftError when zero or several characters qualify, or when
    the one that does takes a value other than +-1: each signals a model
    inconsistency and must abort verification.
    """
    kind, q, amb = ctx.kind, ctx.q, ctx.ambient_order
    exps = coinvariant_coordinates(kind, q) @ _rho_shift_character(ctx, positive_roots) % amb
    if not np.isin(exps, (0, amb // 2)).all():
        raise RhoShiftError("rho-shift values must be signs")
    return np.where(exps == 0, 1, -1)


# ---------------------------------------------------------------------------
# the two character sums


def theta(ctx: FormulaContext, chi: CoverCharacter, w: WeylElem, gamma,
          parity=None, positive_roots=None) -> CycInt:
    """The conjectural character value at a strongly regular element.

    ``parity`` optionally twists the lift by a norm-kernel class; the
    result is lift-independent, which the verification campaigns check
    rather than assume.  ``positive_roots`` switches to a transformed
    positive system, recomputing the denominator in split form.
    """
    if chi.kind != ctx.kind or chi.q != ctx.q:
        raise ValueError("character does not match the context")
    if not is_strongly_regular(ctx.kind, ctx.q, gamma):
        raise NotStronglyRegularError(f"{gamma} is not strongly regular")
    amb = ctx.ambient_order
    lift = lift_of_rational(ctx.kind, ctx.q, gamma)
    lift = lift if parity is None else coinv_mul(lift, parity)
    exps = []
    scale = amb // ctx.value_order
    for n in ctx.summation:
        nw = weyl_compose(n, w)
        moved = weyl_apply(ctx.q, weyl_inverse(nw), lift)
        exps.append(chi.eval_exponent(moved) * scale)
    if positive_roots is None:
        den4 = weyl_denominator_exponent(ctx, canonical_rep(lift))
    else:
        den4 = delta0_eta_exponent(ctx, gamma, positive_roots)
        index = coinvariant_index(ctx.kind, ctx.q, coordinate_array(type(lift), [lift]))
        if rho_shift_solve(ctx, positive_roots)[index[0]] < 0:
            den4 = (den4 + 2) % 4
    shift = (-den4 * (amb // 4)) % amb
    if ctx.epsilon_chi < 0:
        shift = (shift + amb // 2) % amb
    return sum_of_roots(amb, [(e + shift) % amb for e in exps])


def orbit_character_sum(ctx: FormulaContext, base: DepthZeroCharacter,
                        w: WeylElem, gamma) -> CycInt:
    """The reference sum: conjugated depth-zero character values over the
    summation group, times the configured sign."""
    if base.kind != ctx.kind or base.q != ctx.q:
        raise ValueError("character does not match the context")
    if not is_strongly_regular(ctx.kind, ctx.q, gamma):
        raise NotStronglyRegularError(f"{gamma} is not strongly regular")
    amb = ctx.ambient_order
    scale = amb // ctx.value_order
    shift = amb // 2 if ctx.epsilon_gt < 0 else 0
    exps = []
    for n in ctx.summation:
        nw = weyl_compose(n, w)
        moved = weyl_apply(ctx.q, weyl_inverse(nw), gamma)
        exps.append((base.eval_exponent(moved) * scale + shift) % amb)
    return sum_of_roots(amb, exps)


# ---------------------------------------------------------------------------
# the batched engine


def unequal_mask(order: int, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Boolean array over the leading axes: True where the sum of
    zeta_order^lhs[..., k] differs from that of rhs.

    Equal exponent multisets give equal sums, so sorted rows decide most
    entries; rows whose multisets differ may still be equal in the ring
    and are reduced exactly with ``sum_of_roots``.
    """
    mask = (np.sort(lhs, axis=-1) != np.sort(rhs, axis=-1)).any(axis=-1)
    for idx in np.argwhere(mask):
        i = tuple(int(k) for k in idx)
        mask[i] = sum_of_roots(order, lhs[i].tolist()) != sum_of_roots(order, rhs[i].tolist())
    return mask


def first_unequal_sum(order: int, lhs: np.ndarray, rhs: np.ndarray):
    """Index of the first True entry of ``unequal_mask``, in C order over
    the leading axes; None if all sums are equal."""
    hits = np.argwhere(unequal_mask(order, lhs, rhs))
    return tuple(int(k) for k in hits[0]) if len(hits) else None


def same_terms(lhs, rhs) -> bool:
    """True when two tables of sorted term keys (``SumTables.theta_keys``,
    ``orbit_keys``) agree in every cell.

    A term with unit point u and phase p contributes zeta_n^(x . u) zeta^p
    to the sum of the character with exponent row x.  Equal multisets of
    (u, p) therefore give equal sums for every x at once.  Unequal
    multisets can still give equal sums, so False is no witness."""
    return np.array_equal(lhs, rhs)


class SumTables:
    """``theta`` and ``orbit_character_sum`` on a grid of strongly regular
    elements, given as rational coordinate rows, times rational Weyl
    labels, as integer exponent tables.

    Everything that does not depend on the character is computed once:
    the moved rational coordinates of each gamma, the moved coinvariant
    lifts and the kind's cover signs on their parity classes here, the
    phase of each theta term (those signs, the Weyl denominator of its lift
    and ``epsilon_chi``) once per positive system, on first use.  Per
    exponent row, ``theta_exponents`` (of its cover character) and
    ``orbit_exponents`` give (G, W, S) arrays of zeta_ambient exponents (G
    elements, W labels, S summation elements) whose sums over the last axis
    are exactly the scalar values (a block of rows adds its leading axes),
    with ``parity`` (the parity columns, as ``lift_of_rational`` takes them)
    twisting the lifts and ``positive_roots`` choosing the positive
    system of the denominator as in ``theta``.
    ``labels`` restricts the Weyl labels (default: the rational Weyl group).
    Raises OverflowError where the term keys, below ambient * n^rank, leave int64.
    """

    def __init__(self, ctx: FormulaContext, gamma_rows, parity=None, labels=None):
        kind, q = ctx.kind, ctx.q
        self.ctx = ctx
        self.labels = tuple(labels) if labels is not None else rational_weyl_group(kind)
        n, rank = unit_class_order(kind, q), torus_rank(kind, q)
        if ctx.ambient_order * n**rank >= 2**63:
            raise OverflowError(f"q = {q} exceeds the int64 range of the tables")
        self.gamma_coords = np.asarray(gamma_rows, dtype=np.int64)
        regular = strongly_regular_mask(kind, q, self.gamma_coords)
        if not regular.all():
            bad = rational_of_row(kind, q, self.gamma_coords[np.argmin(regular)])
            raise NotStronglyRegularError(f"{bad} is not strongly regular")
        self.lift_coords = lift_coordinates(kind, q, self.gamma_coords, parity)
        inverses = [[weyl_inverse(weyl_compose(s, w)) for s in ctx.summation]
                    for w in self.labels]

        def moved(coinvariant, coords):
            """Coordinate-first (d, G, W, S) array of the moved elements."""
            mats = np.array([[weyl_matrix(q, m, coinvariant)[0] for m in row] for row in inverses])
            moduli = weyl_matrix(q, inverses[0][0], coinvariant)[1]
            table = mats @ coords.T % moduli[:, None]  # (W, S, d, G)
            return np.ascontiguousarray(table.transpose(2, 3, 0, 1))

        self.moved_gamma = moved(False, self.gamma_coords)
        moved_lift = moved(True, self.lift_coords)
        self.moved_units = moved_lift[:rank]
        # every cover character of the kind takes the same signs on the
        # parity classes: zeta_ambient exponents indexed by the parity columns
        signs = np.zeros((2,) * rank, dtype=np.int64)
        for key, value in cover_class_values(kind).items():
            signs[key] = ctx.ambient_order // 2 if value < 0 else 0
        self.cover_phases = signs[tuple(moved_lift[rank:])]
        self._phase_tables = {}
        self.orbit_shift = ctx.ambient_order // 2 if ctx.epsilon_gt < 0 else 0

    def denominator_exponents(self, positive_roots=None) -> np.ndarray:
        """The Weyl denominator of each lift as a zeta_4 exponent: the
        combined difference form on the default positive system, else
        delta0 of gamma plus the rho-shift sign of the lift (1 - sign: 0 or 2)."""
        if positive_roots is None:
            return weyl_denominator_exponent_array(self.ctx, self.lift_coords)
        rho = rho_shift_solve(self.ctx, positive_roots)
        signs = 1 - rho[coinvariant_index(self.ctx.kind, self.ctx.q, self.lift_coords)]
        delta0 = delta0_eta_exponent_array(self.ctx, self.gamma_coords, positive_roots)
        return (delta0 + signs) % 4

    def _phases(self, positive_roots=None) -> np.ndarray:
        """The zeta_ambient exponent that the cover signs, the denominator
        and ``epsilon_chi`` add to each theta term, as a (G, W, S) array
        reduced mod ambient; cached per positive system."""
        key = tuple(positive_roots) if positive_roots is not None else None
        if key not in self._phase_tables:
            amb = self.ctx.ambient_order
            den = self.denominator_exponents(positive_roots)
            shift = -den * (amb // 4) + (amb // 2 if self.ctx.epsilon_chi < 0 else 0)
            self._phase_tables[key] = (self.cover_phases + shift[:, None, None]) % amb
        return self._phase_tables[key]

    def _values(self, rows, points) -> np.ndarray:
        """The exponent rows on the unit points, as zeta_ambient exponents;
        a row of the wrong rank raises ValueError."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.shape[-1:] != points.shape[:1]:
            raise ValueError(f"kind {self.ctx.kind} characters are rows of {len(points)} exponents")
        n = unit_class_order(self.ctx.kind, self.ctx.q)
        return np.tensordot(rows, points, axes=1) % n * (self.ctx.ambient_order // n)

    def theta_exponents(self, rows, positive_roots=None) -> np.ndarray:
        """The cover character of each row on the moved lifts, minus the denominator."""
        units = self._values(np.negative(rows), self.moved_units)
        return (units + self._phases(positive_roots)) % self.ctx.ambient_order

    def orbit_exponents(self, rows) -> np.ndarray:
        """The base character of each row on the moved rational elements."""
        return (self._values(rows, self.moved_gamma) + self.orbit_shift) % self.ctx.ambient_order

    def _term_keys(self, points, phases):
        """Each summation term, unit point ``points`` mod n with zeta_ambient
        exponent ``phases``, packed as phase * n^rank + the point in base n,
        sorted along the summation axis."""
        n = unit_class_order(self.ctx.kind, self.ctx.q)
        keys = phases % self.ctx.ambient_order
        for coord in points:
            keys = keys * n + coord % n
        return np.sort(keys, axis=-1)

    def theta_keys(self, positive_roots=None) -> np.ndarray:
        """The (G, W, S) sorted term keys of ``theta_exponents``, all characters at once."""
        return self._term_keys(-self.moved_units, self._phases(positive_roots))

    def orbit_keys(self) -> np.ndarray:
        """The (G, W, S) sorted term keys of ``orbit_exponents``, all characters at once."""
        return self._term_keys(self.moved_gamma, np.int64(self.orbit_shift))

    def certify(self) -> bool:
        """True when theta equals the orbit sum at every (gamma, w) for every
        character; False proves nothing (see ``same_terms``)."""
        return same_terms(self.theta_keys(), self.orbit_keys())

    def first_mismatch(self, rows):
        """The index ((row,) gamma, label) of the first cell, in C order,
        where theta differs from the orbit sum; None if none."""
        return first_unequal_sum(
            self.ctx.ambient_order, self.theta_exponents(rows), self.orbit_exponents(rows)
        )

    def packet_classes(self, rows) -> tuple[tuple[str, ...], ...]:
        """``packet(ctx, cover_character(chi)).classes`` for the row of chi:
        the labels grouped by exact equality of their theta values on every
        element (and every row of a block), in label order."""
        exps = self.theta_exponents(rows)
        classes: list[list[int]] = []
        for i in range(len(self.labels)):
            for cls in classes:
                if not unequal_mask(self.ctx.ambient_order, exps[..., cls[0], :],
                                    exps[..., i, :]).any():
                    cls.append(i)
                    break
            else:
                classes.append([i])
        return tuple(tuple(self.labels[i].name for i in cls) for cls in classes)


# ---------------------------------------------------------------------------
# packets


PACKET_CAVEAT = (
    "labels are grouped for the configured summation subgroup; the size of "
    "the Galois-fixed-representative Weyl group inside the full rational one "
    "is an open input, so class counts reflect the configuration"
)


@dataclass(frozen=True)
class Packet:
    classes: tuple[tuple[str, ...], ...]
    functions: tuple
    caveat: str = PACKET_CAVEAT


def packet(ctx: FormulaContext, chi: CoverCharacter) -> Packet:
    """Group the conjugated formula functions by exact functional equality
    on the strongly regular set."""
    labels = rational_weyl_group(ctx.kind)
    gammas = sorted(iter_strongly_regular(ctx.kind, ctx.q), key=str)
    tables = {}
    for w in labels:
        tables[w.name] = tuple(theta(ctx, chi, w, g) for g in gammas)
    classes: list[list[str]] = []
    for w in labels:
        for cls in classes:
            if tables[cls[0]] == tables[w.name]:
                cls.append(w.name)
                break
        else:
            classes.append([w.name])
    return Packet(
        classes=tuple(tuple(c) for c in classes),
        functions=tuple(sorted(tables.items())),
    )


def positive_system_contexts(kind: int):
    """All Weyl transforms of the default positive system, labeled."""
    return [
        (w.name or "id", positive_system(kind, w)) for w in weyl_group(kind)
    ]


def named_summation_subgroup(kind: int, name: str):
    """Configuration hook: 'full', 'rotation' (the cyclic subgroup generated
    by the product of the simple reflections) or 'trivial'."""
    group = rational_weyl_group(kind)
    if name == "full":
        return group
    if name == "trivial":
        return (weyl_identity(kind),)
    if name == "rotation":
        r = weyl_compose(*simple_reflections(kind))
        elems = [weyl_identity(kind)]
        cur = r
        while cur != elems[0]:
            if len(elems) == 8:
                raise ValueError(f"the rotation {r.mat} has order above 8")
            elems.append(cur)
            cur = weyl_compose(cur, r)
        return tuple(w for w in elems if w in group)
    raise ValueError(f"unknown summation subgroup name {name!r}")
