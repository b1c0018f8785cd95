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

from dataclasses import dataclass, field
from itertools import product
from math import lcm

import numpy as np

from .characters import (
    CoverCharacter,
    DepthZeroCharacter,
    value_order,
)
from .cyclo import CycInt, root_of_unity, sum_of_roots
from .ffield import FieldTower, prime_power
from .localmodel import (
    UnitVal,
    eta_exponent,
    leading_diff,
    uv_galois,
    uv_mul,
    uv_pow,
)
from .tori import (
    T1Coinv,
    T1Rational,
    T2Coinv,
    T2Rational,
    WeylElem,
    canonical_rep,
    coinv_mul,
    coinvariant_norm,
    coordinate_array,
    default_positive_roots,
    enumerate_coinvariants,
    half_sum_vector,
    is_strongly_regular,
    iter_strongly_regular,
    lift_of_rational,
    mu_unit,
    positive_system,
    rational_weyl_group,
    root_value_coord,
    t1_coinv,
    t2_coinv,
    torus_level,
    unit_class_order,
    weyl_apply,
    weyl_apply_array,
    weyl_compose,
    weyl_group,
    weyl_identity,
    weyl_inverse,
)


class NotStronglyRegularError(ValueError):
    """The character formula is only defined on strongly regular elements."""


class RhoShiftError(RuntimeError):
    """The rho-shift solver found no or several solutions: model inconsistency."""


@dataclass
class FormulaContext:
    kind: int
    q: int
    eta_branch: int = 1
    tower: FieldTower | None = None
    summation: tuple[WeylElem, ...] = ()
    epsilon_gt: int = 1
    epsilon_chi: int = 1
    _rho_tables: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.eta_branch not in (1, -1):
            raise ValueError("eta branch must be +1 or -1")
        if not self.summation:
            self.summation = rational_weyl_group(self.kind)
        self._validate_summation()

    def _validate_summation(self):
        rational = set(rational_weyl_group(self.kind))
        elems = set(self.summation)
        if not elems <= rational:
            raise ValueError("summation group must consist of rational Weyl elements")
        if weyl_identity(self.kind) not in elems:
            raise ValueError("summation group must contain the identity")
        for x in elems:
            for y in elems:
                if weyl_compose(x, y) not in elems:
                    raise ValueError("summation set is not closed under composition")

    @property
    def value_order(self) -> int:
        return value_order(self.kind, self.q)

    @property
    def ambient_order(self) -> int:
        return lcm(self.value_order, 4)

    def require_tower(self) -> FieldTower:
        if self.tower is None:
            raise ValueError("this operation needs the field tower (denominators)")
        return self.tower


def make_context(kind, q, *, need_tower=True, eta_branch=1, summation=None,
                 epsilon_gt=1, epsilon_chi=1, seed=0, cache_dir=None,
                 budget=200_000_000) -> FormulaContext:
    tower = None
    if need_tower:
        p_e = prime_power(q)
        if p_e is None:
            raise ValueError(f"q = {q} is not a prime power")
        tower = FieldTower.build(
            *p_e, seed=seed, max_level=torus_level(kind),
            budget=budget, cache_dir=cache_dir,
        )
    return FormulaContext(
        kind=kind, q=q, eta_branch=eta_branch, tower=tower,
        summation=tuple(summation) if summation else (),
        epsilon_gt=epsilon_gt, epsilon_chi=epsilon_chi,
    )


# ---------------------------------------------------------------------------
# denominators


def denominator_factors(ctx: FormulaContext, rep) -> list[UnitVal]:
    """The four leading-term differences of the combined denominator form.

    Torus 1 takes a pair representative, torus 2 a single one; each
    factor pairs a monomial with its Galois twist, and cancellation
    occurs exactly when the norm of the class is not strongly regular.
    """
    tower = ctx.require_tower()
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


def weyl_denominator(ctx: FormulaContext, rep) -> CycInt:
    return root_of_unity(4, weyl_denominator_exponent(ctx, rep))


def delta0_eta_exponent(ctx: FormulaContext, gamma, positive_roots=None) -> int:
    """eta of the product of (1 - root^-1(gamma)) over the positive system."""
    tower = ctx.require_tower()
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


# ---------------------------------------------------------------------------
# the rho-shift


def rho_shift_closed_sign(ctx: FormulaContext, c) -> int:
    """Closed-form rho-shift on a coinvariant class: a sign depending only
    on the valuation parities (eta is unramified)."""
    if ctx.kind == 1:
        assert isinstance(c, T1Coinv)
        return -1 if c.v2 else 1
    return -1 if c.v else 1


def _two_rho_eta_exponent(ctx: FormulaContext, c, positive_roots=None) -> int:
    """eta((2 rho)(N(c))) as a zeta_4 exponent, computed on the model."""
    roots = positive_roots if positive_roots is not None else default_positive_roots(ctx.kind)
    vec = half_sum_vector(ctx.kind, roots)
    gamma = coinvariant_norm(c)
    coord = root_value_coord(ctx.kind, ctx.q, vec, gamma)
    elem = mu_unit(ctx.kind, ctx.q, coord)
    return eta_exponent(ctx.kind, elem, ctx.eta_branch)


def _model_characters(kind: int, q: int):
    """All characters of the finite coinvariant model, as evaluators
    returning exponents of zeta_ambient."""
    n = unit_class_order(kind, q)
    amb = lcm(value_order(kind, q), 4)
    ustep = amb // n
    half = amb // 2
    if kind == 1:
        for x1 in range(n):
            for x2 in range(n):
                for e1 in (0, 1):
                    for e2 in (0, 1):
                        def chi(c, x1=x1, x2=x2, e1=e1, e2=e2):
                            return (
                                (x1 * c.u1 + x2 * c.u2) * ustep
                                + (e1 * c.v1 + e2 * c.v2) * half
                            ) % amb

                        yield (x1, x2, e1, e2), chi
    else:
        for x in range(n):
            for e in (0, 1):
                def chi(c, x=x, e=e):
                    return ((x * c.u) * ustep + e * c.v * half) % amb

                yield (x, e), chi


def _coinv_generators(kind: int, q: int):
    if kind == 1:
        return [
            t1_coinv(q, 1, 0, 0, 0),
            t1_coinv(q, 0, 1, 0, 0),
            t1_coinv(q, 0, 0, 1, 0),
            t1_coinv(q, 0, 0, 0, 1),
        ]
    return [t2_coinv(q, 1, 0), t2_coinv(q, 0, 1)]


def rho_shift_solve(ctx: FormulaContext, positive_roots=None) -> dict:
    """Brute-force the unique genuine square root of eta(2 rho)(N(.)) that
    is trivial on the unit-class subgroup; returns its full value table.

    Raises RhoShiftError when zero or several characters qualify: either
    outcome signals a model inconsistency and must abort verification.
    """
    kind, q = ctx.kind, ctx.q
    amb = ctx.ambient_order
    half = amb // 2
    gens = _coinv_generators(kind, q)
    targets = {
        g: (_two_rho_eta_exponent(ctx, g, positive_roots) * (amb // 4)) % amb
        for g in gens
    }
    if kind == 1:
        unit_gens = gens[:2]
        cover_kernel = t1_coinv(q, 0, 0, 1, 0)  # class of (uniformizer, 1)
        genuine_witness = t1_coinv(q, 0, 0, 0, 1)
    else:
        unit_gens = gens[:1]
        cover_kernel = None
        genuine_witness = t2_coinv(q, 0, 1)

    solutions = []
    for label, chi in _model_characters(kind, q):
        if any((2 * chi(g)) % amb != targets[g] for g in gens):
            continue
        if any(chi(g) != 0 for g in unit_gens):
            continue
        if cover_kernel is not None and chi(cover_kernel) != 0:
            continue
        if chi(genuine_witness) == 0:
            continue
        solutions.append((label, chi))
    if not solutions:
        raise RhoShiftError("no rho-shift character exists on this model")
    if len(solutions) > 1:
        raise RhoShiftError(
            f"rho-shift is not unique: {len(solutions)} candidates {[s[0] for s in solutions]}"
        )
    _, chi = solutions[0]
    table = {}
    for c in enumerate_coinvariants(kind, q):
        e = chi(c)
        assert e in (0, half), "rho-shift values must be signs"
        table[c] = 1 if e == 0 else -1
    return table


def rho_shift_table(ctx: FormulaContext, positive_roots=None) -> dict:
    key = tuple(positive_roots) if positive_roots is not None else None
    if key not in ctx._rho_tables:
        ctx._rho_tables[key] = rho_shift_solve(ctx, positive_roots)
    return ctx._rho_tables[key]


# ---------------------------------------------------------------------------
# the two character sums


def _lift(ctx: FormulaContext, gamma, parity):
    if parity is None:
        return lift_of_rational(ctx.kind, ctx.q, gamma)
    return coinv_mul(lift_of_rational(ctx.kind, ctx.q, gamma), parity)


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
    lift = _lift(ctx, gamma, parity)
    exps = []
    scale = amb // ctx.value_order
    for n in ctx.summation:
        nw = weyl_compose(n, w)
        moved = _apply_inverse(ctx.q, nw, lift)
        exps.append(chi.eval_exponent(moved) * scale)
    if positive_roots is None:
        den4 = weyl_denominator_exponent(ctx, canonical_rep(lift))
    else:
        den4 = delta0_eta_exponent(ctx, gamma, positive_roots)
        if rho_shift_table(ctx, positive_roots)[lift] < 0:
            den4 = (den4 + 2) % 4
    shift = (-den4 * (amb // 4)) % amb
    if ctx.epsilon_chi < 0:
        shift = (shift + amb // 2) % amb
    return sum_of_roots(amb, [(e + shift) % amb for e in exps])


def _apply_inverse(q, w, x):
    return weyl_apply(q, weyl_inverse(w), x)


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
        moved = _apply_inverse(ctx.q, nw, gamma)
        exps.append((base.eval_exponent(moved) * scale + shift) % amb)
    return sum_of_roots(amb, exps)


# ---------------------------------------------------------------------------
# the batched engine


def first_unequal_sum(order: int, lhs: np.ndarray, rhs: np.ndarray):
    """Index of the first entry, in C order over the leading axes, where
    the sum of zeta_order^lhs[..., k] differs from that of rhs; None if all
    are equal.

    Equal exponent multisets give equal sums, so sorted rows decide most
    entries; rows whose multisets differ may still be equal in the ring
    and are reduced exactly with ``sum_of_roots``.
    """
    same = (np.sort(lhs, axis=-1) == np.sort(rhs, axis=-1)).all(axis=-1)
    for idx in np.argwhere(~same):
        i = tuple(int(k) for k in idx)
        if sum_of_roots(order, lhs[i].tolist()) != sum_of_roots(order, rhs[i].tolist()):
            return i
    return None


def _dot(exponents, coords):
    return sum(int(e) * c for e, c in zip(exponents, coords))


class SumTables:
    """``theta`` and ``orbit_character_sum`` on a grid of strongly regular
    elements times rational Weyl labels, as integer exponent tables.

    Everything that does not depend on the character is computed once
    here: the moved rational coordinates of each gamma, the moved
    coinvariant lifts, their parity classes, and the Weyl denominator of
    each lift.  Per character, ``theta_exponents`` and ``orbit_exponents``
    give (G, W, S) arrays of zeta_ambient exponents (G elements, W labels,
    S summation elements) whose sums over the last axis are exactly the
    scalar values, with ``parity`` twisting the lifts as in ``theta``.
    Only the default positive system is covered.
    """

    def __init__(self, ctx: FormulaContext, gammas, parity=None):
        kind, q = ctx.kind, ctx.q
        self.ctx = ctx
        self.gammas = list(gammas)
        self.labels = rational_weyl_group(kind)
        for gamma in self.gammas:
            if not is_strongly_regular(kind, q, gamma):
                raise NotStronglyRegularError(f"{gamma} is not strongly regular")
        n = unit_class_order(kind, q)
        if 2 * n * n >= 2**63:
            raise OverflowError(f"q = {q} exceeds the int64 range of the tables")
        amb = ctx.ambient_order
        rational_cls, coinv_cls = (T1Rational, T1Coinv) if kind == 1 else (T2Rational, T2Coinv)
        lifts = [_lift(ctx, gamma, parity) for gamma in self.gammas]
        gamma_coords = coordinate_array(rational_cls, self.gammas)
        lift_coords = coordinate_array(coinv_cls, lifts)
        inverses = [[weyl_inverse(weyl_compose(s, w)) for s in ctx.summation]
                    for w in self.labels]

        def moved(cls, coords):
            """Coordinate-first (d, G, W, S) array of the moved elements."""
            table = np.stack([
                np.stack([weyl_apply_array(q, m, cls, coords) for m in row], axis=1)
                for row in inverses
            ], axis=1)
            return np.ascontiguousarray(np.moveaxis(table, -1, 0))

        self.moved_gamma = moved(rational_cls, gamma_coords)
        moved_lift = moved(coinv_cls, lift_coords)
        rank = gamma_coords.shape[1]
        self.moved_units = moved_lift[:rank]
        if kind == 1:
            self.parity_index = 2 * moved_lift[2] + moved_lift[3]
            self.parity_keys = list(product((0, 1), repeat=2))
        else:
            self.parity_index = moved_lift[1]
            self.parity_keys = [0, 1]
        den = np.array([weyl_denominator_exponent(ctx, canonical_rep(lift)) for lift in lifts],
                       dtype=np.int64)
        shift = -den * (amb // 4) + (amb // 2 if ctx.epsilon_chi < 0 else 0)
        self.theta_shift = (shift % amb)[:, None, None]
        self.orbit_shift = amb // 2 if ctx.epsilon_gt < 0 else 0

    def _check_character(self, chi):
        if chi.kind != self.ctx.kind or chi.q != self.ctx.q:
            raise ValueError("character does not match the context")

    def theta_exponents(self, chi: CoverCharacter) -> np.ndarray:
        """The cover character on the moved lifts, minus the denominator."""
        self._check_character(chi)
        n, amb = unit_class_order(self.ctx.kind, self.ctx.q), self.ctx.ambient_order
        table = dict(chi.hvalues)
        signs = np.array([amb // 2 if table[k] < 0 else 0 for k in self.parity_keys],
                         dtype=np.int64)
        units = -_dot(chi.base.exponents, self.moved_units) % n
        return (units * (amb // n) + signs[self.parity_index] + self.theta_shift) % amb

    def orbit_exponents(self, base: DepthZeroCharacter) -> np.ndarray:
        """The base character on the moved rational elements."""
        self._check_character(base)
        n, amb = unit_class_order(self.ctx.kind, self.ctx.q), self.ctx.ambient_order
        units = _dot(base.exponents, self.moved_gamma) % n
        return (units * (amb // n) + self.orbit_shift) % amb

    def first_mismatch(self, chi: CoverCharacter):
        """(gamma index, label index) of the first (gamma, w), gamma outer,
        where theta differs from the orbit sum of ``chi.base``; None if none."""
        return first_unequal_sum(
            self.ctx.ambient_order, self.theta_exponents(chi), self.orbit_exponents(chi.base)
        )


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
        by_name = {w.name: w for w in weyl_group(kind)}
        r = by_name["ab"]
        elems = [weyl_identity(kind)]
        cur = r
        while cur != elems[0]:
            elems.append(cur)
            cur = weyl_compose(cur, r)
        subgroup = tuple(w for w in elems if w in group)
        return subgroup
    raise ValueError(f"unknown summation subgroup name {name!r}")
