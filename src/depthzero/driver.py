"""Verification campaign driver: configuration, check registry, report
emission, and the command-line interface.

Campaigns are flat lists of independent check tasks.  Every registered
check appears exactly once per run in the emitted reports; failures
carry a serialized witness.  Check records contain no timing data, so a
rerun with the same configuration and seed is byte-identical; wall times
and timestamps live in a separate metadata file.

Exit codes: 0 all passed, 1 some check failed, 2 configuration error,
3 a budget was exceeded (the affected checks are reported as SKIPPED).
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import pickle
import random
import resource
import signal
import sys
import time
import traceback
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import product
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .characters import (
    DepthZeroCharacter,
    character_to_descriptor,
    conjugate_rows,
    exponent_rows,
    regular_exponent_rows,
)
from .charformula import (
    PACKET_CAVEAT,
    FormulaContext,
    SumTables,
    delta0_eta_exponent_array,
    first_unequal_sum,
    make_context,
    named_summation_subgroup,
    positive_system_contexts,
    rho_shift_closed_sign_array,
    rho_shift_solve,
    same_terms,
    two_rho_eta_exponent_array,
    unequal_mask,
    weyl_denominator_exponent_array,
    weyl_denominator_valuations,
)
from .dualgroup import (
    build_pinning,
    cover_class_values,
    coroot_conjugation_check,
    coxeter_lift_fourth_check,
    lift_independence_check,
    longest_lift_square_check,
    reflection_sign_table,
    reflection_square_check,
    weyl_action_checks,
)
from .ffield import BudgetExceededError, prime_power
from .localmodel import unit
from .tori import (
    ELLIPTIC_WORD,
    coinv_of_row,
    coinvariant_coordinates,
    coinvariant_norm_array,
    coinvariant_order,
    coinvariant_shape,
    lift_coordinates,
    pair_from_quad_array,
    pair_galois_array,
    pair_norm_array,
    parity_rows,
    project_to_coinvariants_array,
    quad_from_pair_array,
    quad_galois_array,
    rational_of_row,
    rational_order,
    strongly_regular_coordinates,
    strongly_regular_mask,
    tate_cohomology,
    torus_level,
    torus_rank,
    unit_class_order,
    weyl_identity,
)
from .uniqueness import (
    conjugate_forward_check,
    excluded_count,
    excluded_count_inclusion_exclusion,
    nonvanishing_report,
    regular_locus_ratio,
    restriction_rigidity_check,
    threshold_scan,
)

SCHEMA_VERSION = 1
SUMMATIONS = ("full", "rotation", "trivial")
REPORT_FILES = {"json": "report.json", "csv": "thresholds.csv", "md": "report.md"}
FORMATS = tuple(REPORT_FILES)


class ConfigError(ValueError):
    pass


class DuplicateCheckError(ValueError):
    """Two campaign rows share a check name, or two tasks share an id."""


def _by_key(items, key, what: str) -> dict:
    """``items`` by ``key(item)``, refusing a key that two items share."""
    table = {}
    for item in items:
        if table.setdefault(key(item), item) is not item:
            raise DuplicateCheckError(f"{what}: {key(item)!r}")
    return table


# ---------------------------------------------------------------------------
# configuration: every option is declared once, as a Config field


def _words(text: str) -> list[str]:
    return [v for v in text.replace(" ", "").split(",") if v]


def _int_list(text: str) -> list[int]:
    return [int(v) for v in _words(text)]


def _require(ok, message):
    """A validation rule: `message`, formatted with the value, unless ok(value)."""
    return lambda value: None if ok(value) else message.format(value)


def _entries(key, check):
    """A list option's rule: at least one entry, no entry twice, then check."""
    def rule(values):
        if not values:
            return f"{key}: needs at least one entry"
        if len(set(values)) != len(values):
            return f"{key}: repeated entry in {values}"
        return check(values)
    return rule


def _odd_prime_powers(qs):
    for q in qs:
        if q % 2 == 0 or prime_power(q) is None:
            return f"q: {q} is not an odd prime power"
    return None


def _check_qs(qs):
    if qs is None:  # no --q: each check keeps its own q list
        return None
    return _entries("q", _odd_prime_powers)(qs)


def option(default, flag, parse=int, *, check=None, echo=lambda value: value, **argument):
    """A Config field with its command-line flag, the parser of its text form
    (flag value or config-file value; int options are also typed by argparse),
    its validation rule, how report.json echoes it (None: not at all), and any
    extra argparse keywords.  The config file accepts the field name and the
    flag's dest as keys."""
    meta = {"flag": flag, "dest": flag.lstrip("-").replace("-", "_"), "parse": parse,
            "check": check, "echo": echo, "argument": argument}
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class Config:
    qs: list[int] | None = option(None, "--q", _int_list, check=_check_qs,
                                  help="comma-separated odd prime powers")
    q_max: int = option(200, "--q-max", check=_require(lambda v: v >= 3, "q_max: {} is too small"))
    kinds: list[int] = option(
        [1, 2], "--kind", lambda t: [1, 2] if t == "both" else _int_list(t),
        choices=["1", "2", "both"],
        check=_entries("kind", _require(lambda v: set(v) <= {1, 2},
                                        "kind: entries must be 1 or 2, got {}")))
    eta_branches: list[int] = option(
        [1, -1], "--eta-branch",
        lambda t: {"plus": [1], "minus": [-1], "both": [1, -1]}.get(t) or _int_list(t),
        choices=["plus", "minus", "both"],
        check=_entries("eta_branch", _require(lambda v: set(v) <= {1, -1},
                                              "eta_branch: entries must be +-1, got {}")),
        echo=lambda v: ["plus" if b == 1 else "minus" for b in v])
    cyclotomic_order: int = option(24, "--cyclotomic-order", check=_require(
        lambda v: v % 2 == 0 and v >= 4, "cyclotomic_order: {} must be even and >= 4"))
    summation: str = option("full", "--summation", str, choices=SUMMATIONS, check=_require(
        lambda v: v in SUMMATIONS, "summation: unknown value {!r}"))
    epsilon_gt: int = option(1, "--epsilon-gt", check=_require(
        lambda v: v in (1, -1), "epsilon_gt: must be +-1, got {}"))
    # execution only: recorded in run_meta.json, so reports do not depend on it
    jobs: int = option(1, "--jobs", echo=None,
                       check=_require(lambda v: v >= 1, "jobs: must be >= 1, got {}"))
    out_dir: str | None = option(None, "--out", str, echo=None)
    formats: list[str] = option(
        list(FORMATS), "--format", _words, help="comma-separated: json,csv,md",
        check=_entries("format", _require(lambda v: set(v) <= set(FORMATS),
                                          "format: entries must be json, csv or md, got {}")))
    # read by nothing since the campaign builds no field tower; kept so that
    # existing config files and Config(cache_dir=...) still work
    cache_dir: str | None = option(None, "--cache-dir", str, echo=None)
    seed: int = option(0, "--seed", check=_require(lambda v: v >= 0, "seed: must be >= 0, got {}"))
    budget_evals: int = option(100_000_000, "--budget-evals", check=_require(
        lambda v: v >= 1, "budget_evals: must be >= 1, got {}"))

    def validate(self) -> None:
        for f in fields(self):
            error = f.metadata["check"] and f.metadata["check"](getattr(self, f.name))
            if error:
                raise ConfigError(error)

    def echo(self) -> dict:
        shown = {f.name: f.metadata["echo"](getattr(self, f.name))
                 for f in fields(self) if f.metadata["echo"]}
        return {**shown, "version": __version__}


# config-file key -> Config field
CONFIG_KEYS = {key: f for f in fields(Config) for key in (f.name, f.metadata["dest"])}


def _context_from_params(params) -> FormulaContext:
    # --epsilon-gt picks a sign convention that both sides of the identity
    # carry: the orbit sum through epsilon_gt, the formula through epsilon_chi
    epsilon = params.get("epsilon_gt", 1)
    return make_context(
        params["kind"], params["q"],
        eta_branch=params.get("branch", 1),
        summation=named_summation_subgroup(
            params["kind"], params.get("summation", "full")
        ),
        epsilon_gt=epsilon, epsilon_chi=epsilon,
    )


# ---------------------------------------------------------------------------
# check implementations; each returns (outcome, witness, info)


def _ok(info=None):
    return "PASS", None, info or {}


def _fail(witness, info=None):
    return "FAIL", witness, info or {}


def check_pinned_identity(params, holds, witness):
    """Build the pinning; PASS if the row's predicate holds on it."""
    pin = build_pinning(params["order"])
    return _ok() if holds(pin) else _fail(witness)


def check_structure_signs(params):
    pin = build_pinning(params["order"])
    table, signed = reflection_sign_table(pin)
    info = {
        "signs": {f"{g}|{d}": v for (g, d), v in sorted(table.items())},
        "signed_triple_product": signed,
    }
    if signed != -1:
        return _fail({"signed_triple_product": signed}, info)
    if any(v not in (1, -1) for v in table.values()):
        return _fail({"table": info["signs"]}, info)
    return _ok(info)


def check_lift_independence(params):
    pin = build_pinning(params["order"])
    ok = lift_independence_check(pin, params["kind"], params["count"], params["seed"])
    return _ok({"samples": params["count"]}) if ok else _fail({"kind": params["kind"]})


def check_cover_values(params):
    kind = params["kind"]
    values = cover_class_values(kind, params["order"])
    if kind == 1:
        expected = {(0, 0): 1, (1, 0): 1, (0, 1): -1, (1, 1): -1}
    else:
        expected = {0: 1, 1: -1}
    info = {"values": {str(k): v for k, v in sorted(values.items())}}
    if values != expected:
        return _fail({"got": info["values"], "expected": str(expected)}, info)
    return _ok(info)


def check_tate_orders(params):
    kind, q = params["kind"], params["q"]
    h1, h0, _reps = tate_cohomology(kind, q)
    expected = (4, 1) if kind == 1 else (2, 1)
    if (h1, h0) != expected:
        return _fail({"orders": [h1, h0], "expected": list(expected)})
    return _ok({"h_minus1": h1, "h_zero": h0})


def check_exact_sequence(params):
    kind, q = params["kind"], params["q"]
    h1, h0, _reps = tate_cohomology(kind, q)
    coinv = coinvariant_order(kind, q)
    rat = rational_order(kind, q)
    if h1 * rat != coinv or h0 != 1:
        return _fail({"h1": h1, "rational": rat, "coinvariants": coinv, "h0": h0})
    # surjectivity of the induced norm, directly
    norms = coinvariant_norm_array(kind, q, coinvariant_coordinates(kind, q))
    image = set(map(tuple, norms.tolist()))
    if len(image) != rat:
        return _fail({"norm_image": len(image), "rational": rat})
    return _ok({"orders": [h1, h0], "coinvariants": coinv})


def check_tate_representatives(params):
    kind, q = params["kind"], params["q"]
    reps = project_to_coinvariants_array(kind, q, tate_cohomology(kind, q)[2])
    expected = set(map(tuple, parity_rows(kind, q).tolist()))
    if set(map(tuple, reps.tolist())) != expected or len(reps) != len(expected):
        return _fail({"representatives": [str(coinv_of_row(kind, q, r)) for r in reps]})
    return _ok({"count": len(reps)})


def check_splitting(params):
    """Per class, in enumeration order: unit part times parity part is the
    class, then the parity part lies in the norm kernel."""
    kind, q = params["kind"], params["q"]
    classes = coinvariant_coordinates(kind, q)
    unit_columns = np.arange(classes.shape[1]) < classes.shape[1] // 2
    units, parities = classes * unit_columns, classes * ~unit_columns
    broken = ((units + parities) % coinvariant_shape(kind, q) != classes).any(axis=1)
    identity_image = coinvariant_norm_array(kind, q, np.zeros_like(classes[:1]))
    outside = (coinvariant_norm_array(kind, q, parities) != identity_image).any(axis=1)
    bad = np.flatnonzero(broken | outside)
    if bad.size:
        witness = {"class": str(coinv_of_row(kind, q, classes[bad[0]]))}
        if not broken[bad[0]]:
            witness["reason"] = "parity part not in norm kernel"
        return _fail(witness)
    return _ok({"classes": coinvariant_order(kind, q)})


# the int64 bytes one block of a grid check may create: at q = 509 both kinds of
# split-vs-combined and rho-shift-unique peak at 90 MB with it, 168 MB without
BLOCK_BYTES = 2**19


def _blocks(count, row_bytes):
    """Slices of range(count), in order, of BLOCK_BYTES // row_bytes rows (at least 1)."""
    step = max(1, BLOCK_BYTES // row_bytes)
    return (slice(start, min(start + step, count)) for start in range(0, count, step))


def _pair_grid(kind, q, full):
    """The dlogs and valuations sampled in each slot of the pair model."""
    level_order = q ** torus_level(kind) - 1
    if full:
        return range(level_order), (-1, 0, 1)
    return range(0, level_order, max(1, level_order // 7)), (0, 1)


def _pair_samples(kind, q, full):
    residues, vals = _pair_grid(kind, q, full)
    for d1, v1, d2, v2 in product(residues, vals, residues, vals):
        yield _pair_of_row(kind, q, (d1, v1, d2, v2))


def _pair_blocks(kind, q, full):
    """The samples of ``_pair_samples`` in the same order, as int64 rows
    (dlog_w, val_w, dlog_z, val_z), in ``_blocks`` of the 8-column
    quadruple rows that the checks make of them.  Each block is
    column-major: its columns are gathered from the slot grid's."""
    residues, vals = _pair_grid(kind, q, full)
    slot = np.array(list(product(residues, vals)), dtype=np.int64).T.copy()
    for rows in _blocks(slot.shape[1] ** 2, 8 * 8):
        first, second = np.divmod(np.arange(rows.start, rows.stop), slot.shape[1])
        block = np.empty((4, len(first)), dtype=np.int64)
        for column, (index, values) in zip(block, product((first, second), slot)):
            values.take(index, out=column)
        yield block.T


def _pair_of_row(kind, q, row):
    d1, v1, d2, v2 = (int(x) for x in row)
    return (unit(q, torus_level(kind), d1, v1), unit(q, torus_level(kind), d2, v2))


def check_pair_quad_roundtrip(params):
    kind, q = params["kind"], params["q"]
    slots = build_pinning().lift(ELLIPTIC_WORD[kind]).inverse().perm
    count = 0
    for rows in _pair_blocks(kind, q, full=(q == 3 and kind == 1)):
        quads = quad_from_pair_array(kind, q, rows)
        broken = (pair_from_quad_array(kind, q, quads) != rows).any(axis=1)
        lhs = pair_from_quad_array(kind, q, quad_galois_array(kind, q, quads, slots))
        bad = np.flatnonzero(broken | (lhs != pair_galois_array(kind, q, rows)).any(axis=1))
        if bad.size:
            # the first failing sample, tested in the order of the scalar loop
            witness = {"pair": str(_pair_of_row(kind, q, rows[bad[0]]))}
            if not broken[bad[0]]:
                witness["reason"] = "Galois equivariance"
            return _fail(witness)
        count += len(rows)
    return _ok({"pairs_checked": count})


def check_norm_consistency(params):
    kind, q = params["kind"], params["q"]
    count = 0
    for rows in _pair_blocks(kind, q, full=(q == 3)):
        direct = pair_norm_array(kind, q, rows)
        via_class = coinvariant_norm_array(kind, q, project_to_coinvariants_array(kind, q, rows))
        bad = np.flatnonzero((direct != via_class).any(axis=1))
        if bad.size:
            return _fail({"pair": str(_pair_of_row(kind, q, rows[bad[0]]))})
        count += len(rows)
    return _ok({"pairs_checked": count})


def _character_pool(kind, q, limit=None):
    """The exponent rows of the first ``limit`` (default: all) regular
    characters when they exist (the stated locus of the comparison), and
    how many the pool holds; the identity needs no regularity, so fall
    back to every character rather than passing vacuously."""
    rows = regular_exponent_rows(kind, q)[:limit]
    if not len(rows):
        return exponent_rows(kind, q)[:limit], 0
    return rows, len(rows)


def _descriptor(kind, q, row, branch=1):
    """The witness descriptor of the character with this exponent row."""
    return character_to_descriptor(DepthZeroCharacter(kind, q, tuple(row.tolist())), branch)


def check_formula_equals_orbit_sum(params):
    kind, q, branch = params["kind"], params["q"], params["branch"]
    ctx = _context_from_params(params)
    chars, regular_count = _character_pool(kind, q)
    tables = SumTables(ctx, strongly_regular_coordinates(kind, q))
    # equal summation terms prove every character at once; the per-character
    # loop runs only to find the witness
    if not tables.certify():
        for row in chars:
            hit = tables.first_mismatch(row)
            if hit is not None:
                g, w = hit
                return _fail({
                    "character": _descriptor(kind, q, row, branch),
                    "gamma": str(rational_of_row(kind, q, tables.gamma_coords[g])),
                    "w": tables.labels[w].name,
                })
    elements = len(tables.gamma_coords)
    comparisons = len(chars) * elements * len(tables.labels)
    return _ok({"characters": len(chars), "regular_characters": regular_count,
                "elements": elements, "comparisons": comparisons})


def check_lift_independence_formula(params):
    """Per gamma, in order: the valuation profile of the twisted lift's
    denominator factors, the sign shift of its denominator, then every
    character (outer) and twist (inner) against the untwisted lift."""
    kind, q = params["kind"], params["q"]
    ctx = _context_from_params(params)
    chars, _ = _character_pool(kind, q, limit=6)
    twists = parity_rows(kind, q)
    parities = twists[:, torus_rank(kind, q):]
    labels = (weyl_identity(kind),)
    profile_expected = [1, 1, 2, 3] if kind == 1 else [1, 2, 1, 2]
    gammas = strongly_regular_coordinates(kind, q)
    base = SumTables(ctx, gammas, labels=labels)
    twisted = [SumTables(ctx, gammas, parity=p, labels=labels) for p in parities]
    shifted = twisted[-1]
    profiles = weyl_denominator_valuations(ctx, shifted.lift_coords)
    shift_bad = (shifted.denominator_exponents() - base.denominator_exponents()) % 4 != 2
    value_bad = np.zeros((len(gammas), len(chars), len(twists)), dtype=bool)
    base_keys = base.theta_keys()
    for t, tables in enumerate(twisted):
        if same_terms(base_keys, tables.theta_keys()):
            continue  # every character agrees on this twist
        value_bad[:, :, t] = unequal_mask(ctx.ambient_order, base.theta_exponents(chars),
                                          tables.theta_exponents(chars))[:, :, 0].T
    profile_bad = (profiles != profile_expected).any(axis=1)
    failing = np.flatnonzero(profile_bad | shift_bad | value_bad.any(axis=(1, 2)))
    if failing.size:
        g = failing[0]
        witness = {"gamma": str(rational_of_row(kind, q, gammas[g]))}
        if profile_bad[g]:
            witness["valuations"] = [int(v) for v in profiles[g]]
        elif shift_bad[g]:
            witness["reason"] = "denominator sign shift"
        else:
            c, t = np.argwhere(value_bad[g])[0]
            witness.update(character=_descriptor(kind, q, chars[c]),
                           twist=str(coinv_of_row(kind, q, twists[t])))
        return _fail(witness)
    return _ok({"twists": len(twists)})


def denominator_representative_rows(rng: random.Random, kind: int, q: int,
                                    classes: np.ndarray, samples: int) -> np.ndarray:
    """``samples`` random representatives of each coinvariant class row, as a
    (classes, samples, 2 * rank) array of rows (dlogs..., vals...).

    One block of little-endian 64-bit words from ``rng.randbytes``, two per
    (class, sample, slot) in that order: the first picks the unit dlog
    u + unit_mod * i, i in [0, group / unit_mod), the second the valuation
    v + 2 s, s in -3..3.  ``randbytes(a) + randbytes(b) == randbytes(a + b)``,
    so drawing class by class or a block at a time gives the same rows.
    """
    rank = torus_rank(kind, q)
    group, unit_mod = q ** torus_level(kind) - 1, unit_class_order(kind, q)
    draws = np.frombuffer(rng.randbytes(16 * len(classes) * samples * rank), dtype="<u8")
    draws = draws.reshape(len(classes), samples, rank, 2)
    lift = (draws[..., 0] % np.uint64(group // unit_mod)).astype(np.int64)
    shift = (draws[..., 1] % np.uint64(7)).astype(np.int64) - 3
    coords = classes[:, None, :]
    return np.concatenate([(coords[..., :rank] + unit_mod * lift) % group,
                           coords[..., rank:] + 2 * shift], axis=-1)


def check_denominator_representatives(params):
    """Classes in enumeration order, each against ``samples`` random
    representatives from ``denominator_representative_rows``, one seeded
    block of draws per block of classes."""
    kind, q = params["kind"], params["q"]
    ctx = _context_from_params(params)
    rng = random.Random(params.get("seed", 0))
    samples = params.get("samples", 100)
    classes = coinvariant_coordinates(kind, q)
    classes = classes[strongly_regular_mask(kind, q, coinvariant_norm_array(kind, q, classes))]
    for block in _blocks(len(classes), samples * 2 * torus_rank(kind, q) * 8):
        coords = classes[block]
        reps = denominator_representative_rows(rng, kind, q, coords, samples)
        got = weyl_denominator_exponent_array(ctx, reps.reshape(-1, reps.shape[-1]))
        base = weyl_denominator_exponent_array(ctx, coords)
        bad = np.argwhere(got.reshape(len(coords), samples) != base[:, None])
        if len(bad):
            return _fail({"class": str(coinv_of_row(kind, q, coords[bad[0][0]]))})
    return _ok({"representatives_checked": len(classes) * samples})


def check_split_vs_combined(params):
    kind, q = params["kind"], params["q"]
    ctx = _context_from_params(params)
    gammas = strongly_regular_coordinates(kind, q)
    twist_rows, rank = parity_rows(kind, q), torus_rank(kind, q)
    # the closed-form sign depends only on the valuation parities, which
    # each lift shares with its twist
    signs = np.where(rho_shift_closed_sign_array(ctx, twist_rows) < 0, 2, 0)
    for rows in _blocks(len(gammas), len(twist_rows) * 2 * rank * 8):
        block = gammas[rows]
        # the (gamma, twist) grid of twisted lifts, gamma outer
        grid = lift_coordinates(kind, q, np.repeat(block, len(twist_rows), axis=0),
                                np.tile(twist_rows[:, rank:], (len(block), 1)))
        combined = weyl_denominator_exponent_array(ctx, grid)
        delta0 = delta0_eta_exponent_array(ctx, block)
        split = ((delta0[:, None] + signs[None, :]) % 4).ravel()
        bad = np.flatnonzero(combined != split)
        if bad.size:
            i = int(bad[0])
            g, t = divmod(i, len(twist_rows))
            return _fail({"gamma": str(rational_of_row(kind, q, block[g])),
                          "twist": str(coinv_of_row(kind, q, twist_rows[t])),
                          "combined": int(combined[i]), "split": int(split[i])})
    return _ok()


def check_positive_systems(params):
    """System (outer), character, then gamma: theta at the identity label on
    the default positive system against each transformed one."""
    kind, q = params["kind"], params["q"]
    ctx = _context_from_params(params)
    chars, _ = _character_pool(kind, q, limit=6)
    systems = positive_system_contexts(kind)
    tables = SumTables(ctx, strongly_regular_coordinates(kind, q), labels=(weyl_identity(kind),))
    default_keys = tables.theta_keys()
    for name, roots in systems:
        if same_terms(default_keys, tables.theta_keys(roots)):
            continue  # every character agrees on this system
        hit = first_unequal_sum(ctx.ambient_order, tables.theta_exponents(chars),
                                tables.theta_exponents(chars, roots))
        if hit is not None:
            c, g = hit[:2]
            return _fail({
                "system": name,
                "character": _descriptor(kind, q, chars[c]),
                "gamma": str(rational_of_row(kind, q, tables.gamma_coords[g])),
            })
    comparisons = len(systems) * len(chars) * len(tables.gamma_coords)
    return _ok({"systems": len(systems), "comparisons": comparisons})


def check_rho_shift_unique(params):
    kind, q = params["kind"], params["q"]
    ctx = _context_from_params(params)
    signs = rho_shift_solve(ctx)
    classes = coinvariant_coordinates(kind, q)
    mismatches = np.flatnonzero(signs != rho_shift_closed_sign_array(ctx, classes))
    if mismatches.size:
        return _fail({"classes": [str(coinv_of_row(kind, q, classes[i])) for i in mismatches[:5]]})
    # a sign character squares to the trivial one, so the computed target
    # must be trivial on every class
    for rows in _blocks(len(classes), classes.shape[1] * 8):
        block = classes[rows]
        square = two_rho_eta_exponent_array(ctx, block)
        bad = np.flatnonzero(square % 4 != 0)
        if bad.size:
            return _fail({"class": str(coinv_of_row(kind, q, block[bad[0]])),
                          "reason": "square mismatch"})
    return _ok({"classes": len(classes)})


def check_eta_branch(params):
    results = {}
    for branch in (1, -1):
        outcome, witness, _ = check_formula_equals_orbit_sum({**params, "branch": branch})
        results["plus" if branch == 1 else "minus"] = outcome
        if outcome != "PASS":
            return _fail({"branch": branch, "witness": witness})
    return _ok(results)


def check_packet_conjugation(params):
    """Per character: every w (outer) and gamma against the conjugated
    character at the identity label, then the one-class claim; last the
    trivial-group claim for the first character."""
    kind, q = params["kind"], params["q"]
    ctx = _context_from_params(params)
    chars, _ = _character_pool(kind, q, limit=3)
    gammas = strongly_regular_coordinates(kind, q)
    tables = SumTables(ctx, gammas)
    labels = tables.labels
    one = labels.index(weyl_identity(kind))
    # the one-class claim is about the full summation group, whatever the
    # configured one; the trivial group below separates the conjugates
    full = tables if params.get("summation", "full") == "full" else SumTables(
        _context_from_params({**params, "summation": "full"}), gammas)
    for row in chars:
        lhs = tables.theta_exponents(row).swapaxes(0, 1)
        rhs = tables.theta_exponents(conjugate_rows(kind, q, row))[:, :, one]
        hit = first_unequal_sum(ctx.ambient_order, lhs, rhs)
        if hit is not None:
            w, g = hit
            return _fail({"w": labels[w].name, "gamma": str(rational_of_row(kind, q, gammas[g])),
                          "character": _descriptor(kind, q, row)})
        classes = full.packet_classes(row)
        if len(classes) != 1:
            return _fail({"classes": [list(c) for c in classes],
                          "reason": "full summation group must give one class"})
    # with the trivial summation subgroup the classes separate conjugates
    trivial = SumTables(_context_from_params({**params, "summation": "trivial"}), gammas)
    classes = trivial.packet_classes(chars[0])
    conjugates = trivial.orbit_exponents(conjugate_rows(kind, q, chars[0]))[:, :, one]
    distinct = len({c.tobytes() for c in conjugates})
    if len(classes) != distinct:
        return _fail({"classes": len(classes), "distinct_conjugates": distinct})
    return _ok({"packet_caveat": PACKET_CAVEAT})


def check_threshold_scan(params):
    kind = params["kind"]
    rows, empirical_min = threshold_scan(kind, params["q_max"], budget=params["eval_cap"])
    lower = 47 if kind == 1 else 4
    bad = [row["q"] for row in rows if row["q"] >= lower and not row["holds"]]
    info = {"rows": rows, "empirical_min": empirical_min, "required_from": lower}
    if bad:
        return _fail({"failing_q": bad}, info)
    return _ok(info)


def check_excluded_crosscheck(params):
    kind, q = params["kind"], params["q"]
    # the last count is the complement of the locus every identity check sums over
    counts = {"enumeration": excluded_count(kind, q),
              "inclusion_exclusion": excluded_count_inclusion_exclusion(kind, q),
              "regular_locus": rational_order(kind, q) - len(strongly_regular_coordinates(kind, q))}
    if len(set(counts.values())) > 1:
        return _fail(counts)
    return _ok({"excluded": counts["enumeration"]})


def check_rigidity(params):
    pair, info = restriction_rigidity_check(
        params["kind"], params["q"], eval_cap=params["eval_cap"], seed=params["seed"]
    )
    if pair is not None:
        return _fail({"pair": [list(row) for row in pair]}, info)
    return _ok(info)


def check_forward_conjugate(params):
    ok = conjugate_forward_check(params["kind"], params["q"])
    return _ok() if ok else _fail({"reason": "conjugate characters gave distinct sums"})


def check_nonvanishing(params):
    return _ok(nonvanishing_report(params["kind"], params["q"]))


def check_locus_ratio(params):
    row = regular_locus_ratio(params["kind"], params["q"])
    return _ok({key: row[key] for key in ("excluded", "torus_order", "ratio", "holds")})


# ---------------------------------------------------------------------------
# the campaign, declared as data


class Check(NamedTuple):
    """One row of the campaign table: check ``name`` (its REGISTRY key and
    the task's "fn") runs ``check(params)`` once per point of its
    grid: ``""`` (once), ``"k"`` (per kind), ``"kq"`` (kind x q) or ``"kqb"``
    (kind x q x eta branch, a coordinate of kind 2 only), each point adding
    ``-k{kind}``, ``-q{q}``, ``-plus``/``-minus`` to the id.  The q axis is
    ``--q`` if given, else ``qs`` (a dict gives one list per kind);
    ``q_fixed`` ignores ``--q`` and ``only(kind, q)`` drops points.  The
    parameters are the configuration values named in ``uses`` (see
    ``_config_params``), ``extra`` and the grid coordinates."""

    id: str
    name: str
    check: Callable
    claim: str
    grid: str = ""
    qs: tuple | dict = ()
    q_fixed: bool = False
    only: Callable = lambda kind, q: True
    uses: tuple = ()
    extra: dict = {}


# the parameters of every check that makes a formula context
CONTEXT_PARAMS = ("seed", "epsilon_gt", "summation")
# check parameter -> Config field, where the names differ
PARAM_FIELDS = {"order": "cyclotomic_order", "eval_cap": "budget_evals"}


def _config_params(cfg: Config, names) -> dict:
    return {name: getattr(cfg, PARAM_FIELDS.get(name, name)) for name in names}


def _pinned(slug, name, holds, identity, claim):
    check = partial(check_pinned_identity, holds=holds, witness={"identity": identity})
    return Check(f"chevalley/{slug}", name, check, claim, uses=("order",))


_COHOMOLOGY = {"grid": "kq", "qs": (3, 5, 7, 9)}
_IDENTITY = {"grid": "kq", "qs": (3, 5, 7), "uses": CONTEXT_PARAMS, "extra": {"branch": 1}}
_AT_Q3 = {**_IDENTITY, "only": lambda kind, q: q == 3}
_RIGIDITY = {"grid": "kq", "qs": {1: (3,), 2: (3, 5)}}
_SMALL_Q = {**_COHOMOLOGY, "only": lambda kind, q: q <= 9}

# The pinned-identity predicates reach the dualgroup functions through this
# module's globals, so that code rebinding those names (the traced benchmark
# run wraps them) sees every call.
CHECKS = (
    _pinned("pinning", "pinning", lambda pin: True, "root data",
            claim="pinned symplectic root data is consistent"),
    _pinned("reflection-squares", "reflection_squares", lambda pin: reflection_square_check(pin),
            "n^2 = coroot(-1)", claim="reflection lift squares equal coroots at -1"),
    _pinned("coroot-conjugation", "coroot_conjugation", lambda pin: coroot_conjugation_check(pin),
            "n coroot(t) n^-1 = image coroot(t)",
            claim="reflection lifts conjugate coroots correctly"),
    _pinned("longest-lift-square", "longest_lift", lambda pin: longest_lift_square_check(pin),
            "longest^2", claim="longest-element lift squares to short coroot at -1"),
    _pinned("coxeter-lift-fourth", "coxeter_lift", lambda pin: coxeter_lift_fourth_check(pin),
            "coxeter^4", claim="Coxeter lift to the fourth equals short coroot at -1"),
    _pinned("dual-weyl-action", "dual_weyl_action", lambda pin: weyl_action_checks(pin),
            "conjugation action", claim="conjugation acts by inversion resp. the order-4 rotation"),
    Check("chevalley/structure-signs", "structure_signs", check_structure_signs, uses=("order",),
          claim="structure sign table is +-1 with signed triple product -1"),
    Check("chevalley/lift-independence", "lift_independence", check_lift_independence, grid="k",
          uses=("order", "seed"), extra={"count": 200},
          claim="twisted Frobenius power is independent of the torsion lift"),
    Check("chevalley/cover-values", "cover_values", check_cover_values, grid="k", uses=("order",),
          claim="cover class values derived from coroot coordinates"),
    Check("cohomology/orders", "tate_orders", check_tate_orders, **_COHOMOLOGY,
          claim="norm-kernel quotient and invariant quotient have the stated orders"),
    Check("cohomology/exact-sequence", "exact_sequence", check_exact_sequence, **_COHOMOLOGY,
          claim="cover order identity and norm surjectivity"),
    Check("cohomology/representatives", "tate_representatives", check_tate_representatives,
          **_COHOMOLOGY, claim="norm-kernel representatives are the valuation parity classes"),
    Check("cohomology/splitting", "splitting", check_splitting, **_COHOMOLOGY,
          claim="coinvariants split as unit classes times parities"),
    Check("cohomology/pair-quad-roundtrip", "pair_quad_roundtrip", check_pair_quad_roundtrip,
          **_COHOMOLOGY, claim="pair and quadruple models agree equivariantly"),
    Check("cohomology/norm-consistency", "norm_consistency", check_norm_consistency,
          **_COHOMOLOGY, claim="class-map norm equals the direct Galois-orbit product"),
    Check("identity/formula-equals-orbit-sum", "formula_equals_orbit_sum",
          check_formula_equals_orbit_sum, **{**_IDENTITY, "grid": "kqb", "extra": {}},
          claim="cover character formula equals the orbit character sum exactly"),
    Check("identity/lift-independence", "lift_independence_formula",
          check_lift_independence_formula, **_AT_Q3,
          claim="formula value is independent of the coinvariant lift"),
    Check("identity/denominator-representatives", "denominator_representatives",
          check_denominator_representatives, **{**_AT_Q3, "extra": {"branch": 1, "samples": 100}},
          claim="Weyl denominator is constant across class representatives"),
    Check("identity/split-vs-combined", "split_vs_combined", check_split_vs_combined, **_AT_Q3,
          claim="split denominator equals the combined difference form"),
    Check("identity/positive-systems", "positive_systems", check_positive_systems, **_AT_Q3,
          claim="formula values do not depend on the positive system"),
    Check("identity/packet-conjugation", "packet_conjugation", check_packet_conjugation, **_AT_Q3,
          claim="conjugated formulas match conjugated characters; packets group correctly"),
    Check("identity/rho-shift-unique", "rho_shift_unique", check_rho_shift_unique,
          **{**_IDENTITY, "only": lambda kind, q: q in (3, 5)},
          claim="rho-shift solver finds exactly the closed form"),
    Check("identity/eta-branch", "eta_branch", check_eta_branch,
          **{**_IDENTITY, "only": lambda kind, q: kind == 2 and q == 3},
          claim="identity holds for both order-4 branches"),
    Check("thresholds/scan", "threshold_scan", check_threshold_scan, grid="k",
          uses=("q_max", "eval_cap"),
          claim="excluded-locus ratio beats 1/|W| from the stated bound on"),
    Check("uniqueness/rigidity", "rigidity", check_rigidity, **_RIGIDITY, uses=("eval_cap", "seed"),
          claim="equal summed restrictions force Weyl-conjugate characters"),
    Check("uniqueness/forward-conjugate", "forward_conjugate", check_forward_conjugate,
          **_RIGIDITY, claim="conjugate characters give identical summed restrictions"),
    Check("uniqueness/excluded-crosscheck", "excluded_crosscheck", check_excluded_crosscheck,
          **_SMALL_Q, claim="excluded-locus count matches inclusion-exclusion"),
    Check("uniqueness/locus-ratio", "locus_ratio", check_locus_ratio, **_SMALL_Q,
          claim="excluded-locus row is reported exactly"),
    Check("uniqueness/nonvanishing", "nonvanishing", check_nonvanishing, grid="kq",
          qs={1: (47,), 2: (5,)}, q_fixed=True,
          claim="orbit sum of a regular character is not identically zero"),
)
SUBCOMMANDS = (*dict.fromkeys(row.id.partition("/")[0] for row in CHECKS), "all")
# a name on two rows would run the first row's tasks on the second row's check
REGISTRY = _by_key(CHECKS, lambda row: row.name, "check name on two rows")


def _grid(row: Check, cfg: Config):
    """(id suffix, coordinates) of every point of the row's grid."""
    if not row.grid:
        yield "", {}
        return
    for kind in cfg.kinds:
        if row.grid == "k":
            yield f"-k{kind}", {"kind": kind}
            continue
        qs = row.qs.get(kind, ()) if isinstance(row.qs, dict) else row.qs
        if cfg.qs is not None and not row.q_fixed:
            qs = cfg.qs
        for q in qs:
            if not row.only(kind, q):
                continue
            if row.grid == "kq":
                yield f"-k{kind}-q{q}", {"kind": kind, "q": q}
                continue
            for branch in cfg.eta_branches if kind == 2 else [1]:
                tag = "" if kind == 1 else "-plus" if branch == 1 else "-minus"
                yield f"-k{kind}-q{q}{tag}", {"kind": kind, "q": q, "branch": branch}


def expand(row: Check, cfg: Config) -> list[dict]:
    """The tasks of one table row under cfg."""
    params = {**_config_params(cfg, row.uses), **row.extra}
    return [
        {"id": row.id + suffix, "claim": row.claim, "fn": row.name,
         "params": {**params, **point}}
        for suffix, point in _grid(row, cfg)
    ]


def build_tasks(subcommand: str, cfg: Config) -> list[dict]:
    tasks = [
        task for row in CHECKS
        if subcommand in ("all", row.id.partition("/")[0])
        for task in expand(row, cfg)
    ]
    _by_key(tasks, lambda t: t["id"], "check id on two tasks")
    return sorted(tasks, key=lambda t: t["id"])


def _base_params(cfg: Config) -> dict:
    # perfbench/child.py builds its tower tasks from these
    return _config_params(cfg, CONTEXT_PARAMS)


def identity_tasks(cfg: Config) -> list[dict]:
    # perfbench/child.py reads the identity claims from here
    return build_tasks("identity", cfg)


# ---------------------------------------------------------------------------
# running


def run_task(task: dict) -> tuple[dict, float]:
    start = time.perf_counter()
    row = REGISTRY[task["fn"]]
    try:
        outcome, witness, info = row.check(task["params"])
    except BudgetExceededError as exc:
        outcome, witness, info = "SKIPPED", {"reason": str(exc)}, {}
    except Exception as exc:  # a broken model fails its check, not the campaign
        print(f"{task['id']} raised:", file=sys.stderr)
        traceback.print_exc()
        outcome, witness, info = "FAIL", {"error": f"{type(exc).__name__}: {exc}"}, {}
    record = {
        "id": task["id"],
        "claim": task["claim"],
        "params": _public_params(task["params"]),
        "outcome": outcome,
        "witness": witness,
        "info": info,
    }
    return record, time.perf_counter() - start


def _public_params(params: dict) -> dict:
    return {k: v for k, v in sorted(params.items()) if k != "eval_cap"}


def run_campaign(tasks: list[dict], jobs: int = 1):
    """Run ``tasks``; returns the records sorted by id, {id: seconds} and,
    per share, the sorted CPUs its process was allowed (None where the OS
    does not say).

    With ``jobs`` > 1 the tasks are dealt round-robin into
    min(jobs, len(tasks)) shares.  This process runs share 0 itself and a
    forked child runs each other share, so ``jobs`` counts processes, this
    one included.  Records are sorted by id, so no report depends on
    ``jobs``."""
    count = min(jobs, len(tasks))
    shares = [tasks[s::count] for s in range(count)]
    if len(shares) > 1:
        results, share_cpus = _run_shares(shares)
    else:
        results, share_cpus = [run_task(t) for t in tasks], [_affinity()]
    records = sorted((r for r, _ in results), key=lambda r: r["id"])
    durations = {r["id"]: d for r, d in results}
    return records, durations, share_cpus


def _affinity() -> list[int] | None:
    """The CPUs this process may run on, sorted; None where the OS does not say."""
    try:
        return sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return None


def _set_affinity(cpus) -> None:
    """Run this process on ``cpus`` only; where the OS lacks or refuses CPU
    affinity, leave it as it is."""
    try:
        os.sched_setaffinity(0, cpus)
    except (AttributeError, OSError):
        pass


def _run_shares(shares: list[list[dict]]) -> tuple[list[tuple[dict, float]], list]:
    """Fork a child per share after the first and run the first here, then
    collect each child's pickled results from its pipe; returns the results
    and each share's sorted CPUs.  Raises RuntimeError naming a child that
    exits non-zero or sends a truncated stream; on every way out, a child
    not yet reaped is killed and reaped.

    Process k (0 is this one) runs on CPU k, wrapping, of this process's
    allowed CPUs: a cpuset without load balancing would otherwise keep
    every child on its parent's CPU.  This process gets its own mask back
    on every way out."""
    sys.stdout.flush()  # or a child would print what this process buffered
    sys.stderr.flush()
    allowed = _affinity()
    children = []  # (pid, read end of its pipe) of each child not yet reaped
    try:
        for k, share in enumerate(shares[1:], 1):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                _run_child_share(share, read_end, write_end,
                                 allowed and {allowed[k % len(allowed)]})
            os.close(write_end)
            children.append((pid, read_end))
        if allowed:
            _set_affinity({allowed[0]})
        results = [run_task(task) for task in shares[0]]
        share_cpus = [_affinity()]
        while children:
            pid, read_end = children[0]
            with open(read_end, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            os.close(read_end)
            if status != 0:
                raise RuntimeError(f"worker process {pid} exited with status {status}")
            try:
                cpus, share_results = pickle.loads(data)
            except (pickle.UnpicklingError, EOFError) as exc:
                raise RuntimeError(f"worker process {pid} sent a truncated stream "
                                   f"of {len(data)} bytes") from exc
            share_cpus.append(cpus)
            results += share_results
        return results, share_cpus
    finally:
        if allowed:
            _set_affinity(allowed)
        for pid, read_end in children:
            os.close(read_end)
            os.kill(pid, signal.SIGKILL)  # a zombie takes it without error
            os.waitpid(pid, 0)


def _run_child_share(share: list[dict], read_end: int, write_end: int, cpus):
    """In a forked child: pin itself to ``cpus`` (if any), run ``share``,
    write its sorted CPUs and its pickled [(record, seconds), ...] to the
    pipe and exit, 0 only if all of it was written.  Never returns, so the
    child never runs the parent's code."""
    status = 1
    try:
        if cpus:
            _set_affinity(cpus)
        os.close(read_end)
        with open(write_end, "wb") as pipe:
            pickle.dump((_affinity(), [run_task(task) for task in share]), pipe)
        status = 0
    except BaseException:
        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(status)


# ---------------------------------------------------------------------------
# report emission


def _peak_rss_mb() -> float:
    """Peak resident set of this process and of its reaped forked workers."""
    kib = max(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return round(kib / 1024, 1)


def _gc_counts() -> dict[str, list[int]]:
    """The collections the garbage collector has run in this process, and
    the objects they collected, per generation (youngest first).  Forked
    workers count their own and are not included."""
    stats = gc.get_stats()
    return {"collections": [g["collections"] for g in stats],
            "collected": [g["collected"] for g in stats]}


def _openblas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, asked of the library
    through numpy's core extension, which links it: the package pins
    OPENBLAS_NUM_THREADS only where it loads before numpy.  None where
    numpy links no OpenBLAS."""
    core = (sys.modules.get("numpy._core._multiarray_umath")
            or sys.modules["numpy.core._multiarray_umath"])
    library = ctypes.CDLL(core.__file__)
    for prefix, suffix in product(("scipy_", ""), ("64_", "")):
        getter = getattr(library, f"{prefix}openblas_get_num_threads{suffix}", None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            return getter()
    return None


def _git_sha(directory: Path = Path(__file__).resolve().parent) -> str | None:
    """HEAD of the git repository holding ``directory`` (by default, the
    package's); None outside a repository or without git.

    HEAD is read from the files of the git directory (``_read_head``); only
    where they do not resolve it (a reftable repository, say) does this ask
    ``git rev-parse HEAD``."""
    dot_git = next((d / ".git" for d in (directory, *directory.parents)
                    if (d / ".git").exists()), None)
    if dot_git is None:
        return None
    try:
        sha = _read_head(dot_git)
    except OSError:
        sha = None
    return sha or _rev_parse_head(directory)


def _read_head(dot_git: Path) -> str | None:
    """The object name of HEAD from a ``.git`` directory, or from the
    ``gitdir:`` of a ``.git`` file (a linked worktree) with its
    ``commondir``: a detached HEAD directly, a symbolic one through the
    loose ref file, then ``packed-refs``.  None where these do not resolve it."""
    git_dir = dot_git
    if dot_git.is_file():
        git_dir = dot_git.parent / dot_git.read_text().partition("gitdir:")[2].strip()
    common = git_dir
    if (git_dir / "commondir").is_file():
        common = git_dir / (git_dir / "commondir").read_text().strip()
    head = (git_dir / "HEAD").read_text().strip()
    if not head.startswith("ref:"):
        return _object_name(head)
    ref = head[4:].strip()
    for base in (git_dir, common):
        if (base / ref).is_file():
            return _object_name((base / ref).read_text().strip())
    if (common / "packed-refs").is_file():
        for line in (common / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return _object_name(sha)
    return None


def _object_name(text: str) -> str | None:
    """``text`` if it is a SHA-1 or SHA-256 object name in hex."""
    hexdigits = set("0123456789abcdef")
    return text if len(text) in (40, 64) and set(text) <= hexdigits else None


def _rev_parse_head(cwd: Path) -> str | None:
    """``git rev-parse HEAD`` in ``cwd``; None if it fails."""
    import subprocess  # only here: the file reader above resolves HEAD without it

    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=cwd,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else None


def emit_report(records, durations, share_cpus, cfg: Config, out_dir) -> dict:
    """Write the configured report files; returns the file map."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = {}
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config_echo": cfg.echo(),
        "checks": records,
    }
    if "json" in cfg.formats:
        path = out / REPORT_FILES["json"]
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        written["json"] = str(path)
    if "csv" in cfg.formats:
        rows = [row for rec in records for row in rec["info"].get("rows", [])]
        if rows:
            path = out / REPORT_FILES["csv"]
            header = "kind,q,excluded,torus_order,ratio,bound,holds"
            lines = [header] + [
                f"{r['kind']},{r['q']},{r['excluded']},{r['torus_order']},"
                f"{r['ratio']},{r['bound']},{str(r['holds']).lower()}"
                for r in rows
            ]
            path.write_text("\n".join(lines) + "\n")
            written["csv"] = str(path)
    if "md" in cfg.formats:
        path = out / REPORT_FILES["md"]
        lines = [
            "# Verification report",
            "",
            f"Schema version {SCHEMA_VERSION}.",
            "",
            "| check | claim | outcome | witness |",
            "|---|---|---|---|",
        ]
        for rec in records:
            witness = "" if rec["witness"] is None else json.dumps(rec["witness"], sort_keys=True)
            lines.append(
                f"| {rec['id']} | {rec['claim']} | {rec['outcome']} | {witness} |"
            )
        path.write_text("\n".join(lines) + "\n")
        written["md"] = str(path)
    # a reused out_dir keeps no report file of an earlier run
    for fmt, name in REPORT_FILES.items():
        if fmt not in written:
            (out / name).unlink(missing_ok=True)
    meta = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "jobs": cfg.jobs,
        "share_cpus": share_cpus,
        "durations_seconds": {k: round(v, 6) for k, v in sorted(durations.items())},
        "peak_rss_mb": _peak_rss_mb(),
        "gc": _gc_counts(),
        "environment": {
            "python": ".".join(map(str, sys.version_info[:3])),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "openblas_threads": _openblas_threads(),
            "git_sha": _git_sha(),
        },
    }
    meta_path = out / "run_meta.json"
    meta_path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    written["meta"] = str(meta_path)
    return written


# ---------------------------------------------------------------------------
# configuration sources


def read_config_file(path: str) -> dict:
    values = {}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value.strip()
    return values


def resolve_config(args: argparse.Namespace) -> Config:
    """Defaults, then the config file, then flags."""
    cfg = Config()
    if args.config:
        try:
            file_values = read_config_file(args.config)
        except OSError as exc:
            raise ConfigError(f"config: cannot read {args.config}: {exc}") from exc
        for key, value in file_values.items():
            f = CONFIG_KEYS[key]
            setattr(cfg, f.name, _parse_value(f, key, value))
    for f in fields(Config):
        value = getattr(args, f.metadata["dest"])
        if value is not None:
            setattr(cfg, f.name, _parse_value(f, f.metadata["dest"], str(value)))
    cfg.validate()
    return cfg


def _parse_value(f, key: str, text: str):
    try:
        return f.metadata["parse"](text)
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depthzero",
        description="exact verification campaigns for depth-zero cover character formulas",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config")
        for f in fields(Config):
            meta = f.metadata
            sp.add_argument(meta["flag"], dest=meta["dest"],
                            type=int if meta["parse"] is int else None, **meta["argument"])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}")
        return 2
    tasks = build_tasks(args.subcommand, cfg)
    records, durations, share_cpus = run_campaign(tasks, cfg.jobs)
    out_dir = cfg.out_dir or "reports"
    written = emit_report(records, durations, share_cpus, cfg, out_dir)
    outcomes = [r["outcome"] for r in records]
    for rec in records:
        print(f"{rec['outcome']:7s} {rec['id']}")
    print(f"report files: {', '.join(sorted(written.values()))}")
    if "FAIL" in outcomes:
        return 1
    if "SKIPPED" in outcomes:
        return 3
    return 0
