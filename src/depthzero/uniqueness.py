"""Enumeration campaigns: regular-locus thresholds, restriction rigidity,
and non-vanishing of the orbit character sums.

The center of the adjoint group is trivial, so the comparison locus is
exactly the strongly regular set; CENTER_ORDER records that model-level
fact once.  All counts are exact: the excluded locus is enumerated with
vectorized modular arithmetic and cross-checked by inclusion-exclusion
over the root kernels via Smith normal form solution counting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd

import numpy as np

from . import snf
from .characters import (
    DepthZeroCharacter,
    enumerate_regular_characters,
    weyl_conjugate,
)
from .charformula import FormulaContext, make_context, orbit_character_sum
from .ffield import prime_power
from .tori import (
    default_positive_roots,
    iter_strongly_regular,
    rational_order,
    rational_weyl_group,
    unit_class_order,
    weyl_identity,
)

# the adjoint group has trivial center, so Z(F) contributes nothing
CENTER_ORDER = 1


def excluded_count(kind: int, q: int) -> int:
    """Number of rational elements with some positive-root value equal to 1."""
    if kind == 1:
        n = q + 1
        a = np.arange(n).repeat(n)
        b = np.tile(np.arange(n), n)
        bad = (
            (a % n == 0)
            | (b % n == 0)
            | ((a + b) % n == 0)
            | ((2 * a + b) % n == 0)
        )
        return int(np.count_nonzero(bad))
    n = q * q + 1
    d = np.arange(n)
    bad = (
        (d % n == 0)
        | ((d * (q - 1)) % n == 0)
        | ((d * q) % n == 0)
        | ((d * (q + 1)) % n == 0)
    )
    return int(np.count_nonzero(bad))


def _kernel_solution_count(rows: list[tuple[int, int]], modulus: int, kind: int, q: int) -> int:
    """Solutions of the given root equations on the rational torus, via the
    Smith normal form of the coefficient matrix (inclusion-exclusion oracle)."""
    if kind == 1:
        mat = [[r[0], r[1]] for r in rows]
        dims = 2
    else:
        mat = [[(r[0] + q * r[1]) % modulus] for r in rows]
        dims = 1
    d, _u, _v, _ui, _vi = snf.smith_normal_form(mat)
    diag = snf.diagonal(d)
    count = 1
    for i in range(dims):
        di = diag[i] if i < len(diag) else 0
        count *= gcd(di, modulus) if di != 0 else modulus
    return count


def excluded_count_inclusion_exclusion(kind: int, q: int) -> int:
    """|Y| computed independently by inclusion-exclusion over root kernels."""
    n = unit_class_order(kind, q)
    roots = default_positive_roots(kind)
    total = 0
    for r in range(1, len(roots) + 1):
        for subset in combinations(roots, r):
            cnt = _kernel_solution_count(list(subset), n, kind, q)
            total += (-1) ** (r + 1) * cnt
    return total


@dataclass(frozen=True)
class ThresholdRow:
    q: int
    excluded: int
    torus_order: int
    ratio: Fraction
    bound: Fraction
    holds: bool


@dataclass
class ThresholdReport:
    kind: int
    rows: list[ThresholdRow] = field(default_factory=list)
    empirical_min: int | None = None


def weyl_order(kind: int) -> int:
    return len(rational_weyl_group(kind))


def regular_locus_ratio(kind: int, q: int) -> ThresholdRow:
    """One threshold row: the excluded ratio against 1/|W|."""
    excluded = excluded_count(kind, q)
    total = rational_order(kind, q)
    ratio = Fraction(excluded, total)
    bound = Fraction(1, weyl_order(kind))
    return ThresholdRow(q, excluded, total, ratio, bound, ratio < bound)


def odd_prime_powers(q_max: int) -> list[int]:
    return [q for q in range(3, q_max + 1, 2) if prime_power(q)]


def threshold_scan(kind: int, q_max: int, budget: int = 100_000_000) -> ThresholdReport:
    """Rows for every odd prime power up to q_max, plus the least q0 such
    that the inequality holds for all tested q >= q0 (reported, never
    asserted to be tight)."""
    from .ffield import BudgetExceededError

    qs = odd_prime_powers(q_max)
    work = sum(rational_order(kind, q) for q in qs)
    if work > budget:
        raise BudgetExceededError(
            f"threshold scan needs {work} element visits, budget is {budget}"
        )
    report = ThresholdReport(kind)
    for q in qs:
        report.rows.append(regular_locus_ratio(kind, q))
    empirical = None
    for row in reversed(report.rows):
        if row.holds:
            empirical = row.q
        else:
            break
    report.empirical_min = empirical
    return report


# ---------------------------------------------------------------------------
# restriction rigidity


@dataclass
class RigidityResult:
    kind: int
    q: int
    passed: bool
    counterexample: tuple | None
    exhaustive: bool
    coverage: Fraction
    checked_pairs: int
    n_characters: int = 0


def _summed_function(ctx: FormulaContext, chi: DepthZeroCharacter, gammas):
    one = weyl_identity(ctx.kind)
    return tuple(orbit_character_sum(ctx, chi, one, g) for g in gammas)


def restriction_rigidity_check(kind: int, q: int, *, eval_cap: int = 100_000_000,
                               seed: int = 0) -> RigidityResult:
    """Characters whose summed functions agree on the strongly regular set
    must be Weyl-conjugate; exhaustive below the evaluation cap, sampled
    deterministically above it."""
    ctx = make_context(kind, q, need_tower=False)
    gammas = sorted(iter_strongly_regular(kind, q), key=str)
    chars = enumerate_regular_characters(kind, q)
    group = rational_weyl_group(kind)
    est = len(chars) * len(gammas) * len(group)
    exhaustive = est <= eval_cap
    if not exhaustive:
        import random

        rng = random.Random(seed)
        keep = max(2, eval_cap // max(1, len(gammas) * len(group)))
        chars = rng.sample(chars, min(keep, len(chars)))
    total = len(enumerate_regular_characters(kind, q))
    coverage = Fraction(len(chars), total) if total else Fraction(1)

    by_function: dict = {}
    for chi in chars:
        by_function.setdefault(_summed_function(ctx, chi, gammas), []).append(chi)

    checked = 0
    for _key, bucket in by_function.items():
        base = bucket[0]
        orbit = {weyl_conjugate(base, w).exponents for w in group}
        for other in bucket[1:]:
            checked += 1
            if other.exponents not in orbit:
                return RigidityResult(
                    kind, q, False, (base.exponents, other.exponents),
                    exhaustive, coverage, checked, len(chars),
                )
    return RigidityResult(kind, q, True, None, exhaustive, coverage, checked, len(chars))


def conjugate_forward_check(kind: int, q: int) -> bool:
    """Weyl-conjugate characters always give equal summed functions."""
    ctx = make_context(kind, q, need_tower=False)
    gammas = sorted(iter_strongly_regular(kind, q), key=str)
    group = rational_weyl_group(kind)
    chars = enumerate_regular_characters(kind, q)
    probe = chars[: min(4, len(chars))]
    for chi in probe:
        base_fn = _summed_function(ctx, chi, gammas)
        for w in group:
            if _summed_function(ctx, weyl_conjugate(chi, w), gammas) != base_fn:
                return False
    return True


# ---------------------------------------------------------------------------
# non-vanishing


NONVANISHING_NOTE = (
    "vanishing of the mismatched-torus sum on this locus is an external "
    "input to the comparison and is not re-derived here"
)


@dataclass(frozen=True)
class NonvanishingReport:
    kind: int
    q: int
    witness_character: tuple
    witness_gamma: tuple
    note: str = NONVANISHING_NOTE


def nonvanishing_report(kind: int, q: int) -> NonvanishingReport:
    """Exhibit a regular character and a strongly regular element where the
    orbit sum is nonzero."""
    ctx = make_context(kind, q, need_tower=False)
    one = weyl_identity(kind)
    for chi in enumerate_regular_characters(kind, q):
        for gamma in iter_strongly_regular(kind, q):
            val = orbit_character_sum(ctx, chi, one, gamma)
            if not val.is_zero():
                gk = (gamma.k1, gamma.k2) if kind == 1 else (gamma.k,)
                return NonvanishingReport(kind, q, chi.exponents, gk)
    raise RuntimeError(
        f"every orbit sum vanished on the strongly regular set (kind {kind}, q {q})"
    )


def strongly_regular_count(kind: int, q: int) -> int:
    return sum(1 for _ in iter_strongly_regular(kind, q))
