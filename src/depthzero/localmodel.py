"""Depth-zero truncation of unramified local field unit groups.

An element of E*/(1+p_E) for the unramified extension of residue degree
m is a pair (nonzero residue, integer valuation).  The uniformizer is
chosen in the base field, so the Galois action fixes it and acts on
residues by Frobenius.  Every operation here is multiplicative except
``leading_diff``, which extracts the leading term of a difference and is
deliberately partial: when both leading terms agree the difference is
not determined at this truncation and a CancellationError is raised for
the caller to surface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ffield import FFElem, FieldTower, ff_frobenius, ff_inv, ff_mul, ff_pow


class CancellationError(ArithmeticError):
    """Leading terms cancel; the difference escapes the depth-zero model."""


@dataclass(frozen=True)
class UnitVal:
    """Element of E*/(1+p_E): residue at the given level plus valuation."""

    level: int
    residue: FFElem
    val: int

    def __post_init__(self):
        if self.residue.level != self.level:
            raise ValueError("residue level disagrees with element level")


def unit(q: int, level: int, dlog: int, val: int = 0) -> UnitVal:
    return UnitVal(level, FFElem(level, dlog % (q**level - 1)), val)


def uniformizer(level: int) -> UnitVal:
    return UnitVal(level, FFElem(level, 0), 1)


def one(level: int) -> UnitVal:
    return UnitVal(level, FFElem(level, 0), 0)


def uv_mul(q: int, a: UnitVal, b: UnitVal) -> UnitVal:
    if a.level != b.level:
        raise ValueError(f"level mismatch: {a.level} vs {b.level}")
    return UnitVal(a.level, ff_mul(q, a.residue, b.residue), a.val + b.val)


def uv_inv(q: int, a: UnitVal) -> UnitVal:
    return UnitVal(a.level, ff_inv(q, a.residue), -a.val)


def uv_pow(q: int, a: UnitVal, n: int) -> UnitVal:
    return UnitVal(a.level, ff_pow(q, a.residue, n), a.val * n)


def uv_galois(q: int, a: UnitVal, j: int = 1) -> UnitVal:
    """Frobenius^j on the residue; the valuation is fixed (uniformizer in F)."""
    return UnitVal(a.level, ff_frobenius(q, a.residue, j), a.val)


def leading_diff(tower: FieldTower, a: UnitVal, b: UnitVal) -> UnitVal:
    """Class of a - b in the truncation, i.e. its leading term.

    Defined whenever the leading terms do not cancel; raises
    CancellationError exactly when val(a) == val(b) and the residues
    agree, which for our callers means a non-strongly-regular input.
    """
    if a.level != b.level:
        raise ValueError(f"level mismatch: {a.level} vs {b.level}")
    if a.val < b.val:
        return a
    if b.val < a.val:
        return UnitVal(b.level, tower.neg(b.residue), b.val)
    diff = tower.sub(a.residue, b.residue)
    if diff is None:
        raise CancellationError(
            "difference vanishes at depth zero (equal valuation and residue)"
        )
    return UnitVal(a.level, diff, a.val)


def eta_exponent(kind: int, a: UnitVal, branch: int = 1) -> int:
    """Exponent e mod 4 with eta(a) = zeta_4^e; unramified in both kinds.

    kind 1 is the quadratic unramified character of the quadratic
    extension (level 2); kind 2 is an order-4 unramified character of
    the quartic extension (level 4), with the branch picking which one.
    """
    if kind == 1:
        if a.level != 2:
            raise ValueError("kind-1 eta lives on the level-2 field")
        return (2 * a.val) % 4
    if kind == 2:
        if a.level != 4:
            raise ValueError("kind-2 eta lives on the level-4 field")
        if branch not in (1, -1):
            raise ValueError(f"branch must be +1 or -1, got {branch}")
        return (branch * a.val) % 4
    raise ValueError(f"kind must be 1 or 2, got {kind}")


def eta_exponent_array(kind: int, val: np.ndarray, branch: int = 1) -> np.ndarray:
    """``eta_exponent`` on an array of valuations of level-2*kind elements."""
    if kind == 1:
        return (2 * val) % 4
    if kind == 2:
        if branch not in (1, -1):
            raise ValueError(f"branch must be +1 or -1, got {branch}")
        return (branch * val) % 4
    raise ValueError(f"kind must be 1 or 2, got {kind}")
