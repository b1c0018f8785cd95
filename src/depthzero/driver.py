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
import json
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from itertools import product
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
from .characters import (
    character_to_descriptor,
    cover_character,
    enumerate_characters,
    enumerate_regular_characters,
    weyl_conjugate,
)
from .charformula import (
    FormulaContext,
    SumTables,
    _two_rho_eta_exponent,
    delta0_eta_exponent,
    denominator_factors,
    make_context,
    named_summation_subgroup,
    packet,
    positive_system_contexts,
    rho_shift_closed_sign,
    rho_shift_solve,
    theta,
    weyl_denominator_exponent,
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
    canonical_rep,
    coinv_mul,
    coinv_parity_part,
    coinv_unit_part,
    coinvariant_norm,
    coinvariant_order,
    enumerate_coinvariants,
    is_strongly_regular,
    iter_strongly_regular,
    lift_of_rational,
    pair_from_quad,
    pair_galois,
    pair_norm,
    parity_classes,
    project_to_coinvariants,
    quad_from_pair,
    quad_galois,
    rational_order,
    rational_weyl_group,
    tate_cohomology,
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
FORMATS = ("json", "csv", "md")


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# configuration: every option is declared once, as a Config field


def _words(text: str) -> list[str]:
    return [v for v in text.replace(" ", "").split(",") if v]


def _int_list(text: str) -> list[int]:
    return [int(v) for v in _words(text)]


def _require(ok, message):
    """A validation rule: `message`, formatted with the value, unless ok(value)."""
    return lambda value: None if ok(value) else message.format(value)


_POSITIVE_BUDGET = _require(lambda v: v >= 1, "budget: budgets must be positive")


def _check_qs(qs):
    for q in qs or ():
        if q % 2 == 0 or prime_power(q) is None:
            return f"q: {q} is not an odd prime power"
    return None


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
        check=_require(lambda v: set(v) <= {1, 2}, "kind: entries must be 1 or 2, got {}"))
    eta_branches: list[int] = option(
        [1, -1], "--eta-branch",
        lambda t: {"plus": [1], "minus": [-1], "both": [1, -1]}.get(t) or _int_list(t),
        choices=["plus", "minus", "both"],
        check=_require(lambda v: set(v) <= {1, -1}, "eta_branch: entries must be +-1, got {}"),
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
        list(FORMATS), "--format", _words, help="comma-separated: json,csv,md", check=_require(
            lambda v: set(v) <= set(FORMATS), "format: entries must be json, csv or md, got {}"))
    cache_dir: str | None = option(None, "--cache-dir", str, echo=None)
    seed: int = option(0, "--seed", check=_require(lambda v: v >= 0, "seed: must be >= 0, got {}"))
    budget_entries: int = option(200_000_000, "--budget-entries", check=_POSITIVE_BUDGET)
    budget_evals: int = option(100_000_000, "--budget-evals", check=_POSITIVE_BUDGET)

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
    return make_context(
        params["kind"], params["q"], need_tower=True,
        eta_branch=params.get("branch", 1),
        summation=named_summation_subgroup(
            params["kind"], params.get("summation", "full")
        ),
        epsilon_gt=params.get("epsilon_gt", 1),
        seed=params.get("seed", 0),
        cache_dir=params.get("cache_dir"),
        budget=params.get("budget", 200_000_000),
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
    image = {coinvariant_norm(c) for c in enumerate_coinvariants(kind, q)}
    if len(image) != rat:
        return _fail({"norm_image": len(image), "rational": rat})
    return _ok({"orders": [h1, h0], "coinvariants": coinv})


def check_tate_representatives(params):
    kind, q = params["kind"], params["q"]
    _h1, _h0, reps = tate_cohomology(kind, q)
    expected = set(parity_classes(kind, q))
    if set(reps) != expected or len(reps) != len(expected):
        return _fail({"representatives": [str(r) for r in reps]})
    return _ok({"count": len(reps)})


def check_splitting(params):
    kind, q = params["kind"], params["q"]
    identity_image = coinvariant_norm(parity_classes(kind, q)[0])
    for c in enumerate_coinvariants(kind, q):
        u, v = coinv_unit_part(c), coinv_parity_part(c)
        if coinv_mul(u, v) != c:
            return _fail({"class": str(c)})
        if coinvariant_norm(v) != identity_image:
            return _fail({"class": str(c), "reason": "parity part not in norm kernel"})
    return _ok({"classes": coinvariant_order(kind, q)})


def _pair_samples(kind, q, full):
    level_order = q ** (2 * kind) - 1
    if full:
        residues = range(level_order)
        vals = (-1, 0, 1)
    else:
        residues = range(0, level_order, max(1, level_order // 7))
        vals = (0, 1)
    for d1, v1, d2, v2 in product(residues, vals, residues, vals):
        yield (unit(q, 2 * kind, d1, v1), unit(q, 2 * kind, d2, v2))


def check_pair_quad_roundtrip(params):
    kind, q = params["kind"], params["q"]
    full = q == 3 and kind == 1
    count = 0
    for pair in _pair_samples(kind, q, full):
        quad = quad_from_pair(kind, q, pair)
        back = pair_from_quad(kind, q, quad)
        if back != pair:
            return _fail({"pair": str(pair)})
        lhs = pair_from_quad(kind, q, quad_galois(kind, q, quad))
        rhs = pair_galois(kind, q, pair)
        if lhs != rhs:
            return _fail({"pair": str(pair), "reason": "Galois equivariance"})
        count += 1
    return _ok({"pairs_checked": count})


def check_norm_consistency(params):
    kind, q = params["kind"], params["q"]
    count = 0
    for pair in _pair_samples(kind, q, full=(q == 3)):
        direct = pair_norm(kind, q, pair)
        via_class = coinvariant_norm(project_to_coinvariants(kind, q, pair))
        if direct != via_class:
            return _fail({"pair": str(pair)})
        count += 1
    return _ok({"pairs_checked": count})


def _character_pool(kind, q, limit=None):
    """Regular characters when they exist (the stated locus of the
    comparison); the identity needs no regularity, so fall back to the
    full character group rather than passing vacuously."""
    chars = enumerate_regular_characters(kind, q)
    regular_count = len(chars)
    if not chars:
        chars = list(enumerate_characters(kind, q))
    if limit is not None:
        chars = chars[:limit]
    return chars, regular_count


def check_formula_equals_orbit_sum(params):
    kind, q, branch = params["kind"], params["q"], params["branch"]
    ctx = _context_from_params(params)
    chars, regular_count = _character_pool(kind, q)
    tables = SumTables(ctx, iter_strongly_regular(kind, q))
    for chi in chars:
        hit = tables.first_mismatch(cover_character(chi))
        if hit is not None:
            g, w = hit
            return _fail({
                "character": character_to_descriptor(chi, branch),
                "gamma": str(tables.gammas[g]),
                "w": tables.labels[w].name,
            })
    comparisons = len(chars) * len(tables.gammas) * len(tables.labels)
    return _ok({"characters": len(chars), "regular_characters": regular_count,
                "elements": len(tables.gammas), "comparisons": comparisons})


def check_lift_independence_formula(params):
    kind, q = params["kind"], params["q"]
    ctx = _context_from_params(params)
    chars, _ = _character_pool(kind, q, limit=6)
    twists = parity_classes(kind, q)
    one = weyl_identity(kind)
    profile_expected = [1, 1, 2, 3] if kind == 1 else [1, 2, 1, 2]
    for gamma in iter_strongly_regular(kind, q):
        base_lift = lift_of_rational(kind, q, gamma)
        shifted = coinv_mul(base_lift, twists[-1])
        profile = [d.val for d in denominator_factors(ctx, canonical_rep(shifted))]
        if profile != profile_expected:
            return _fail({"gamma": str(gamma), "valuations": profile})
        d0 = weyl_denominator_exponent(ctx, canonical_rep(base_lift))
        d1 = weyl_denominator_exponent(ctx, canonical_rep(shifted))
        if (d1 - d0) % 4 != 2:
            return _fail({"gamma": str(gamma), "reason": "denominator sign shift"})
        for chi in chars:
            cov = cover_character(chi)
            base_val = theta(ctx, cov, one, gamma)
            for tw in twists:
                if theta(ctx, cov, one, gamma, parity=tw) != base_val:
                    return _fail({
                        "character": character_to_descriptor(chi),
                        "gamma": str(gamma),
                        "twist": str(tw),
                    })
    return _ok({"twists": len(twists)})


def check_denominator_representatives(params):
    kind, q = params["kind"], params["q"]
    ctx = _context_from_params(params)
    rng = random.Random(params.get("seed", 0))
    group = q ** (2 * kind) - 1
    unit_mod = q + 1 if kind == 1 else q * q + 1

    def sample(u, v):  # another representative of the class (u, v)
        return unit(q, 2 * kind, u + unit_mod * rng.randrange(group // unit_mod),
                    v + 2 * rng.randrange(-3, 4))

    checked = 0
    for c in enumerate_coinvariants(kind, q):
        if not is_strongly_regular(kind, q, coinvariant_norm(c)):
            continue
        base = weyl_denominator_exponent(ctx, canonical_rep(c))
        for _ in range(params.get("samples", 100)):
            rep = ((sample(c.u1, c.v1), sample(c.u2, c.v2)) if kind == 1
                   else sample(c.u, c.v))
            if weyl_denominator_exponent(ctx, rep) != base:
                return _fail({"class": str(c)})
            checked += 1
    return _ok({"representatives_checked": checked})


def check_split_vs_combined(params):
    kind, q = params["kind"], params["q"]
    ctx = _context_from_params(params)
    for gamma in iter_strongly_regular(kind, q):
        for tw in parity_classes(kind, q):
            lift = coinv_mul(lift_of_rational(kind, q, gamma), tw)
            combined = weyl_denominator_exponent(ctx, canonical_rep(lift))
            split = (
                delta0_eta_exponent(ctx, gamma)
                + (2 if rho_shift_closed_sign(ctx, lift) < 0 else 0)
            ) % 4
            if combined != split:
                return _fail({"gamma": str(gamma), "twist": str(tw),
                              "combined": combined, "split": split})
    return _ok()


def check_positive_systems(params):
    kind, q = params["kind"], params["q"]
    ctx = _context_from_params(params)
    chars, _ = _character_pool(kind, q, limit=6)
    one = weyl_identity(kind)
    systems = positive_system_contexts(kind)
    count = 0
    for name, roots in systems:
        for chi in chars:
            cov = cover_character(chi)
            for gamma in iter_strongly_regular(kind, q):
                default_val = theta(ctx, cov, one, gamma)
                moved_val = theta(ctx, cov, one, gamma, positive_roots=roots)
                count += 1
                if default_val != moved_val:
                    return _fail({
                        "system": name,
                        "character": character_to_descriptor(chi),
                        "gamma": str(gamma),
                    })
    return _ok({"systems": len(systems), "comparisons": count})


def check_rho_shift_unique(params):
    kind, q = params["kind"], params["q"]
    ctx = _context_from_params(params)
    table = rho_shift_solve(ctx)
    mismatches = [
        str(c) for c, sign in table.items() if sign != rho_shift_closed_sign(ctx, c)
    ]
    if mismatches:
        return _fail({"classes": mismatches[:5]})
    # the solution is a sign character, so its square is trivial; the
    # computed target must agree pointwise on the full model
    for c, sign in table.items():
        if sign not in (1, -1) or _two_rho_eta_exponent(ctx, c) % 4 != 0:
            return _fail({"class": str(c), "reason": "square mismatch"})
    return _ok({"classes": len(table)})


def check_eta_branch(params):
    results = {}
    for branch in (1, -1):
        outcome, witness, _ = check_formula_equals_orbit_sum({**params, "branch": branch})
        results["plus" if branch == 1 else "minus"] = outcome
        if outcome != "PASS":
            return _fail({"branch": branch, "witness": witness})
    return _ok(results)


def check_packet_conjugation(params):
    kind, q = params["kind"], params["q"]
    ctx = _context_from_params(params)
    chars, _ = _character_pool(kind, q, limit=3)
    gammas = list(iter_strongly_regular(kind, q))
    labels = rational_weyl_group(kind)
    for chi in chars:
        cov = cover_character(chi)
        for w in labels:
            for gamma in gammas:
                lhs = theta(ctx, cov, w, gamma)
                rhs = theta(ctx, cover_character(weyl_conjugate(chi, w)),
                            weyl_identity(kind), gamma)
                if lhs != rhs:
                    return _fail({"w": w.name, "gamma": str(gamma),
                                  "character": character_to_descriptor(chi)})
        pk = packet(ctx, cov)
        if len(pk.classes) != 1:
            return _fail({"classes": [list(c) for c in pk.classes],
                          "reason": "full summation group must give one class"})
    # with the trivial summation subgroup the classes separate conjugates
    chi = chars[0]
    trivial_ctx = _context_from_params({**params, "summation": "trivial"})
    pk = packet(trivial_ctx, cover_character(chi))
    distinct = len({
        tuple(weyl_conjugate(chi, w).eval_exponent(g) for g in gammas)
        for w in labels
    })
    if len(pk.classes) != distinct:
        return _fail({"classes": len(pk.classes), "distinct_conjugates": distinct})
    return _ok({"packet_caveat": pk.caveat})


def check_threshold_scan(params):
    kind, q_max = params["kind"], params["q_max"]
    report = threshold_scan(kind, q_max, budget=params.get("eval_cap", 100_000_000))
    lower = 47 if kind == 1 else 4
    bad = [row.q for row in report.rows if row.q >= lower and not row.holds]
    rows_payload = [
        {
            "kind": kind,
            "q": row.q,
            "excluded": row.excluded,
            "torus_order": row.torus_order,
            "ratio": f"{row.ratio.numerator}/{row.ratio.denominator}",
            "bound": f"{row.bound.numerator}/{row.bound.denominator}",
            "holds": row.holds,
        }
        for row in report.rows
    ]
    info = {
        "rows": rows_payload,
        "empirical_min": report.empirical_min,
        "required_from": lower,
    }
    if bad:
        return _fail({"failing_q": bad}, info)
    return _ok(info)


def check_excluded_crosscheck(params):
    kind, q = params["kind"], params["q"]
    a = excluded_count(kind, q)
    b = excluded_count_inclusion_exclusion(kind, q)
    if a != b:
        return _fail({"enumeration": a, "inclusion_exclusion": b})
    return _ok({"excluded": a})


def check_rigidity(params):
    res = restriction_rigidity_check(
        params["kind"], params["q"], eval_cap=params["eval_cap"], seed=params["seed"]
    )
    info = {
        "exhaustive": res.exhaustive,
        "coverage": f"{res.coverage.numerator}/{res.coverage.denominator}",
        "pairs_checked": res.checked_pairs,
        "regular_characters": res.n_characters,
    }
    if not res.passed:
        return _fail({"pair": [list(res.counterexample[0]), list(res.counterexample[1])]}, info)
    return _ok(info)


def check_forward_conjugate(params):
    ok = conjugate_forward_check(params["kind"], params["q"])
    return _ok() if ok else _fail({"reason": "conjugate characters gave distinct sums"})


def check_nonvanishing(params):
    rep = nonvanishing_report(params["kind"], params["q"])
    return _ok({
        "witness_character": list(rep.witness_character),
        "witness_gamma": list(rep.witness_gamma),
        "note": rep.note,
    })


def check_locus_ratio(params):
    row = regular_locus_ratio(params["kind"], params["q"])
    return _ok({
        "excluded": row.excluded,
        "torus_order": row.torus_order,
        "ratio": f"{row.ratio.numerator}/{row.ratio.denominator}",
        "holds": row.holds,
    })


# ---------------------------------------------------------------------------
# the campaign, declared as data


class Check(NamedTuple):
    """One row of the campaign table: check ``name`` (its REGISTRY key and
    the task's "fn") runs ``check(params, **options)`` once per point of its
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
    options: dict = {}


# the parameters of every check that builds a field tower
TOWER_PARAMS = ("seed", "cache_dir", "budget", "epsilon_gt", "summation")
# check parameter -> Config field, where the names differ
PARAM_FIELDS = {"budget": "budget_entries", "order": "cyclotomic_order", "eval_cap": "budget_evals"}


def _config_params(cfg: Config, names) -> dict:
    return {name: getattr(cfg, PARAM_FIELDS.get(name, name)) for name in names}


def _pinned(slug, name, holds, identity, claim):
    return Check(f"chevalley/{slug}", name, check_pinned_identity, claim, uses=("order",),
                 options={"holds": holds, "witness": {"identity": identity}})


_COHOMOLOGY = {"grid": "kq", "qs": (3, 5, 7, 9)}
_IDENTITY = {"grid": "kq", "qs": (3, 5, 7), "uses": TOWER_PARAMS, "extra": {"branch": 1}}
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
REGISTRY = {row.name: row for row in CHECKS}


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
    ids = [t["id"] for t in tasks]
    assert len(ids) == len(set(ids)), "duplicate check ids"
    return sorted(tasks, key=lambda t: t["id"])


def _base_params(cfg: Config) -> dict:
    # perfbench/child.py builds its tower tasks from these
    return _config_params(cfg, TOWER_PARAMS)


def identity_tasks(cfg: Config) -> list[dict]:
    # perfbench/child.py reads the identity claims from here
    return build_tasks("identity", cfg)


# ---------------------------------------------------------------------------
# running


def run_task(task: dict) -> tuple[dict, float]:
    start = time.perf_counter()
    row = REGISTRY[task["fn"]]
    try:
        outcome, witness, info = row.check(task["params"], **row.options)
    except BudgetExceededError as exc:
        outcome, witness, info = "SKIPPED", {"reason": str(exc)}, {}
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
    hidden = {"cache_dir", "budget", "eval_cap"}
    return {k: v for k, v in sorted(params.items()) if k not in hidden}


def run_campaign(tasks: list[dict], jobs: int = 1):
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_task, tasks))
    else:
        results = [run_task(t) for t in tasks]
    records = sorted((r for r, _ in results), key=lambda r: r["id"])
    durations = {r["id"]: d for r, d in results}
    return records, durations


# ---------------------------------------------------------------------------
# report emission


def emit_report(records, durations, cfg: Config, out_dir) -> dict:
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
        path = out / "report.json"
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        written["json"] = str(path)
    if "csv" in cfg.formats:
        rows = [row for rec in records for row in rec["info"].get("rows", [])]
        if rows:
            path = out / "thresholds.csv"
            header = "kind,q,excluded,torus_order,ratio,bound,holds"
            lines = [header] + [
                f"{r['kind']},{r['q']},{r['excluded']},{r['torus_order']},"
                f"{r['ratio']},{r['bound']},{str(r['holds']).lower()}"
                for r in rows
            ]
            path.write_text("\n".join(lines) + "\n")
            written["csv"] = str(path)
    if "md" in cfg.formats:
        path = out / "report.md"
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
    meta = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "jobs": cfg.jobs,
        "durations_seconds": {k: round(v, 6) for k, v in sorted(durations.items())},
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
    """Defaults, then the config file, then DEPTHZERO_CACHE, then flags."""
    cfg = Config()
    if args.config:
        try:
            file_values = read_config_file(args.config)
        except OSError as exc:
            raise ConfigError(f"config: cannot read {args.config}: {exc}") from exc
        for key, value in file_values.items():
            f = CONFIG_KEYS[key]
            setattr(cfg, f.name, f.metadata["parse"](value))
    if cfg.cache_dir is None:
        cfg.cache_dir = os.environ.get("DEPTHZERO_CACHE")
    for f in fields(Config):
        value = getattr(args, f.metadata["dest"])
        if value is not None:
            setattr(cfg, f.name, f.metadata["parse"](str(value)))
    cfg.validate()
    return cfg


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
    records, durations = run_campaign(tasks, cfg.jobs)
    out_dir = cfg.out_dir or "reports"
    written = emit_report(records, durations, cfg, out_dir)
    outcomes = [r["outcome"] for r in records]
    for rec in records:
        print(f"{rec['outcome']:7s} {rec['id']}")
    print(f"report files: {', '.join(sorted(written.values()))}")
    if "FAIL" in outcomes:
        return 1
    if "SKIPPED" in outcomes:
        return 3
    return 0
