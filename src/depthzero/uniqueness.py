"""Enumeration campaigns: regular-locus thresholds, restriction rigidity,
and non-vanishing of the orbit character sums.

The center of the adjoint group is trivial, so the comparison locus is
exactly the strongly regular set.  All counts are exact and test every
element.  On torus 1, coordinates (a, b) with 0 <= a, b < q+1 are
broadcast as an int32 grid and each root value is compared with the few
multiples of q+1 it can reach (a+b against q+1, 2a+b against q+1 and
2(q+1)), so no cell takes a modulo; on torus 2, d = 0 is compared
directly and the other three root values take one modulo per element.
The counts are cross-checked by inclusion-exclusion over the root
kernels via Smith normal form solution counting.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import gcd

import numpy as np

from . import snf
from .characters import conjugate_rows, regular_exponent_rows
from .charformula import SumTables, make_context
from .cyclo import sum_of_roots
from .ffield import BudgetExceededError, prime_power
from .tori import (
    default_positive_roots,
    rational_order,
    rational_weyl_group,
    strongly_regular_coordinates,
    unit_class_order,
    weyl_identity,
)

def excluded_count(kind: int, q: int) -> int:
    """Number of rational elements with some positive-root value equal to 1."""
    if kind == 1:
        n = q + 1
        a = np.arange(n, dtype=np.int32)[:, None]
        b = np.arange(n, dtype=np.int32)[None, :]
        # 0 <= a, b < n, so a+b = 0 mod n only at a+b in {0, n} and 2a+b = 0
        # mod n only at 2a+b in {0, n, 2n}; both 0 cases lie on a = 0 already
        twice = 2 * a + b
        bad = (a == 0) | (b == 0) | (a + b == n) | (twice == n) | (twice == 2 * n)
        return int(np.count_nonzero(bad))
    n = q * q + 1
    d = np.arange(n)
    bad = (
        (d == 0)
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
    d, _u, _v, _ui = snf.smith_normal_form(mat)
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


def _ratio(a: int, b: int) -> str:
    """a/b in lowest terms, as "a/b"."""
    g = gcd(a, b)
    return f"{a // g}/{b // g}"


def regular_locus_ratio(kind: int, q: int) -> dict:
    """One threshold row: the excluded ratio against 1/|W|, tested exactly
    as excluded * |W| < total."""
    excluded = excluded_count(kind, q)
    total = rational_order(kind, q)
    w = len(rational_weyl_group(kind))
    return {"kind": kind, "q": q, "excluded": excluded, "torus_order": total,
            "ratio": _ratio(excluded, total), "bound": f"1/{w}",
            "holds": excluded * w < total}


def odd_prime_powers(q_max: int):
    """The odd prime powers up to q_max, in order, as they are tested."""
    return (q for q in range(3, q_max + 1, 2) if prime_power(q))


def threshold_scan(kind: int, q_max: int,
                   budget: int = 100_000_000) -> tuple[list[dict], int | None]:
    """Rows for every odd prime power up to q_max, plus the least q0 such
    that the inequality holds for all tested q >= q0 (reported, never
    asserted to be tight)."""
    qs, work = [], 0
    for q in odd_prime_powers(q_max):  # refused at the first q past the budget
        work += rational_order(kind, q)
        if work > budget:
            raise BudgetExceededError(f"threshold scan passes its budget of "
                                      f"{budget} element visits at q = {q}")
        qs.append(q)
    rows = [regular_locus_ratio(kind, q) for q in qs]
    empirical = None
    for row in reversed(rows):
        if not row["holds"]:
            break
        empirical = row["q"]
    return rows, empirical


# ---------------------------------------------------------------------------
# restriction rigidity


def _identity_tables(kind: int, q: int) -> SumTables:
    """The orbit-sum tables at the identity label on the strongly regular set."""
    return SumTables(make_context(kind, q), strongly_regular_coordinates(kind, q),
                     labels=(weyl_identity(kind),))


def _orbit_sums(tables: SumTables, row) -> tuple:
    """The orbit sum of the exponent row at the identity label on every
    gamma of the tables, one reduced ``sum_of_roots`` per gamma: an exact key."""
    amb = tables.ctx.ambient_order
    return tuple(sum_of_roots(amb, terms) for terms in tables.orbit_exponents(row)[:, 0].tolist())


def restriction_rigidity_check(kind: int, q: int, *, eval_cap: int = 100_000_000,
                               seed: int = 0) -> tuple[tuple | None, dict]:
    """Characters whose summed functions agree on the strongly regular set
    must be Weyl-conjugate; exhaustive below the evaluation cap, sampled
    deterministically above it.  Returns the first non-conjugate pair with
    equal functions (None if there is none) and what the check covered."""
    tables = _identity_tables(kind, q)
    regular = regular_exponent_rows(kind, q)
    chars = [tuple(row) for row in regular.tolist()]
    per_character = len(tables.gamma_coords) * len(rational_weyl_group(kind))
    exhaustive = len(chars) * per_character <= eval_cap
    if not exhaustive:
        rng = random.Random(seed)
        keep = max(2, eval_cap // max(1, per_character))
        chars = rng.sample(chars, min(keep, len(chars)))
    info = {
        "exhaustive": exhaustive,
        # an empty pool is covered in full
        "coverage": _ratio(len(chars), len(regular)) if len(regular) else "1/1",
        "pairs_checked": 0,
        "regular_characters": len(regular),
    }

    by_function: dict = {}
    for row in chars:
        by_function.setdefault(_orbit_sums(tables, row), []).append(row)

    for bucket in by_function.values():
        base = bucket[0]
        orbit = {tuple(conj) for conj in conjugate_rows(kind, q, base).tolist()}
        for other in bucket[1:]:
            info["pairs_checked"] += 1
            if other not in orbit:
                return (base, other), info
    return None, info


def conjugate_forward_check(kind: int, q: int) -> bool:
    """Weyl-conjugate characters always give equal summed functions."""
    tables = _identity_tables(kind, q)
    for row in regular_exponent_rows(kind, q)[:4]:
        base_fn = _orbit_sums(tables, row)
        for conj in conjugate_rows(kind, q, row):
            if _orbit_sums(tables, conj) != base_fn:
                return False
    return True


# ---------------------------------------------------------------------------
# non-vanishing


NONVANISHING_NOTE = (
    "vanishing of the mismatched-torus sum on this locus is an external "
    "input to the comparison and is not re-derived here"
)


def nonvanishing_report(kind: int, q: int) -> dict:
    """Exhibit a regular character and a strongly regular element where the
    orbit sum is nonzero; characters are reached lazily and sums reduced
    one gamma at a time, up to the first nonzero one."""
    tables = _identity_tables(kind, q)
    amb = tables.ctx.ambient_order
    for row in regular_exponent_rows(kind, q):
        for gamma, terms in zip(tables.gamma_coords.tolist(),
                                tables.orbit_exponents(row)[:, 0].tolist()):
            if not sum_of_roots(amb, terms).is_zero():
                return {"witness_character": row.tolist(), "witness_gamma": gamma,
                        "note": NONVANISHING_NOTE}
    raise RuntimeError(
        f"every orbit sum vanished on the strongly regular set (kind {kind}, q {q})"
    )
