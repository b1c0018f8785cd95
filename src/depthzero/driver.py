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
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

from . import __version__
from .characters import (
    character_to_descriptor,
    cover_character,
    enumerate_regular_characters,
    weyl_conjugate,
)
from .charformula import (
    FormulaContext,
    SumTables,
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
from .ffield import BudgetExceededError, is_prime
from .tori import (
    canonical_rep,
    coinv_mul,
    coinv_parity_part,
    coinv_unit_part,
    coinvariant_norm,
    coinvariant_order,
    enumerate_coinvariants,
    iter_strongly_regular,
    lift_of_rational,
    parity_classes,
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
SUBCOMMANDS = ("cohomology", "chevalley", "identity", "thresholds", "uniqueness", "all")


class ConfigError(ValueError):
    pass


@dataclass
class Config:
    qs: list[int] | None = None
    q_max: int = 200
    kinds: list[int] = field(default_factory=lambda: [1, 2])
    eta_branches: list[int] = field(default_factory=lambda: [1, -1])
    cyclotomic_order: int = 24
    summation: str = "full"
    epsilon_gt: int = 1
    jobs: int = 1
    out_dir: str | None = None
    formats: list[str] = field(default_factory=lambda: ["json", "csv", "md"])
    cache_dir: str | None = None
    seed: int = 0
    budget_entries: int = 200_000_000
    budget_evals: int = 100_000_000

    def validate(self) -> None:
        if self.qs is not None:
            for q in self.qs:
                if q < 3 or q % 2 == 0:
                    raise ConfigError(f"q: {q} is not an odd prime power")
                p = min(f for f in range(2, q + 1) if q % f == 0)
                m = q
                while m % p == 0:
                    m //= p
                if m != 1 or not is_prime(p):
                    raise ConfigError(f"q: {q} is not an odd prime power")
        if self.q_max < 3:
            raise ConfigError(f"q_max: {self.q_max} is too small")
        if any(k not in (1, 2) for k in self.kinds):
            raise ConfigError(f"kind: entries must be 1 or 2, got {self.kinds}")
        if any(b not in (1, -1) for b in self.eta_branches):
            raise ConfigError(f"eta_branch: entries must be +-1, got {self.eta_branches}")
        if self.cyclotomic_order % 2 or self.cyclotomic_order < 4:
            raise ConfigError(f"cyclotomic_order: {self.cyclotomic_order} must be even and >= 4")
        if self.summation not in ("full", "rotation", "trivial"):
            raise ConfigError(f"summation: unknown value {self.summation!r}")
        if self.epsilon_gt not in (1, -1):
            raise ConfigError(f"epsilon_gt: must be +-1, got {self.epsilon_gt}")
        if self.jobs < 1:
            raise ConfigError(f"jobs: must be >= 1, got {self.jobs}")
        if any(f not in ("json", "csv", "md") for f in self.formats):
            raise ConfigError(f"format: entries must be json, csv or md, got {self.formats}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        if self.budget_entries < 1 or self.budget_evals < 1:
            raise ConfigError("budget: budgets must be positive")

    def echo(self) -> dict:
        return {
            "qs": self.qs,
            "q_max": self.q_max,
            "kinds": self.kinds,
            "eta_branches": ["plus" if b == 1 else "minus" for b in self.eta_branches],
            "cyclotomic_order": self.cyclotomic_order,
            "summation": self.summation,
            "epsilon_gt": self.epsilon_gt,
            "jobs": self.jobs,
            "formats": self.formats,
            "seed": self.seed,
            "budget_entries": self.budget_entries,
            "budget_evals": self.budget_evals,
            "version": __version__,
        }


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


def check_pinning(params):
    build_pinning(params["order"])
    return _ok()


def check_reflection_squares(params):
    pin = build_pinning(params["order"])
    return _ok() if reflection_square_check(pin) else _fail({"identity": "n^2 = coroot(-1)"})


def check_coroot_conjugation(params):
    pin = build_pinning(params["order"])
    ok = coroot_conjugation_check(pin)
    return _ok() if ok else _fail({"identity": "n coroot(t) n^-1 = image coroot(t)"})


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


def check_longest_lift(params):
    pin = build_pinning(params["order"])
    return _ok() if longest_lift_square_check(pin) else _fail({"identity": "longest^2"})


def check_coxeter_lift(params):
    pin = build_pinning(params["order"])
    return _ok() if coxeter_lift_fourth_check(pin) else _fail({"identity": "coxeter^4"})


def check_lift_independence(params):
    pin = build_pinning(params["order"])
    ok = lift_independence_check(pin, params["kind"], params["count"], params["seed"])
    return _ok({"samples": params["count"]}) if ok else _fail({"kind": params["kind"]})


def check_dual_weyl_action(params):
    pin = build_pinning(params["order"])
    return _ok() if weyl_action_checks(pin) else _fail({"identity": "conjugation action"})


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
    from itertools import product as iproduct

    from .localmodel import unit

    level_order = q ** (2 * kind) - 1
    if full:
        residues = range(level_order)
        vals = (-1, 0, 1)
    else:
        residues = range(0, level_order, max(1, level_order // 7))
        vals = (0, 1)
    for d1, v1, d2, v2 in iproduct(residues, vals, residues, vals):
        yield (unit(q, 2 * kind, d1, v1), unit(q, 2 * kind, d2, v2))


def check_pair_quad_roundtrip(params):
    kind, q = params["kind"], params["q"]
    from .tori import pair_from_quad, pair_galois, quad_from_pair, quad_galois

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
    from .tori import pair_norm, project_to_coinvariants

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
    from .characters import enumerate_characters

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
        shifted = coinv_mul(base_lift, _full_parity(kind, q))
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


def _full_parity(kind, q):
    cls = parity_classes(kind, q)
    return cls[-1]


def check_denominator_representatives(params):
    kind, q = params["kind"], params["q"]
    ctx = _context_from_params(params)
    import random

    rng = random.Random(params.get("seed", 0))
    group = q ** (2 * kind) - 1
    unit_mod = q + 1 if kind == 1 else q * q + 1
    checked = 0
    for c in enumerate_coinvariants(kind, q):
        if not _class_has_regular_norm(kind, q, c):
            continue
        base = weyl_denominator_exponent(ctx, canonical_rep(c))
        for _ in range(params.get("samples", 100)):
            if kind == 1:
                from .localmodel import unit

                rep = (
                    unit(q, 2, c.u1 + unit_mod * rng.randrange(group // unit_mod),
                         c.v1 + 2 * rng.randrange(-3, 4)),
                    unit(q, 2, c.u2 + unit_mod * rng.randrange(group // unit_mod),
                         c.v2 + 2 * rng.randrange(-3, 4)),
                )
            else:
                from .localmodel import unit

                rep = unit(q, 4, c.u + unit_mod * rng.randrange(group // unit_mod),
                           c.v + 2 * rng.randrange(-3, 4))
            if weyl_denominator_exponent(ctx, rep) != base:
                return _fail({"class": str(c)})
            checked += 1
    return _ok({"representatives_checked": checked})


def _class_has_regular_norm(kind, q, c):
    from .tori import is_strongly_regular

    return is_strongly_regular(kind, q, coinvariant_norm(c))


def check_split_vs_combined(params):
    kind, q = params["kind"], params["q"]
    ctx = _context_from_params(params)
    from .charformula import delta0_eta_exponent

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
    from .charformula import _two_rho_eta_exponent

    for c, sign in table.items():
        if sign not in (1, -1) or _two_rho_eta_exponent(ctx, c) % 4 != 0:
            return _fail({"class": str(c), "reason": "square mismatch"})
    return _ok({"classes": len(table)})


def check_eta_branch(params):
    kind, q = params["kind"], params["q"]
    results = {}
    for branch in (1, -1):
        branch_params = dict(params)
        branch_params["branch"] = branch
        outcome, witness, info = check_formula_equals_orbit_sum(branch_params)
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
    trivial_ctx = make_context(
        kind, q, need_tower=True, eta_branch=params["branch"],
        summation=(weyl_identity(kind),), seed=params["seed"],
        cache_dir=params.get("cache_dir"), budget=params["budget"],
    )
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


REGISTRY = {
    "pinning": check_pinning,
    "reflection_squares": check_reflection_squares,
    "coroot_conjugation": check_coroot_conjugation,
    "structure_signs": check_structure_signs,
    "longest_lift": check_longest_lift,
    "coxeter_lift": check_coxeter_lift,
    "lift_independence": check_lift_independence,
    "dual_weyl_action": check_dual_weyl_action,
    "cover_values": check_cover_values,
    "tate_orders": check_tate_orders,
    "exact_sequence": check_exact_sequence,
    "tate_representatives": check_tate_representatives,
    "splitting": check_splitting,
    "pair_quad_roundtrip": check_pair_quad_roundtrip,
    "norm_consistency": check_norm_consistency,
    "formula_equals_orbit_sum": check_formula_equals_orbit_sum,
    "lift_independence_formula": check_lift_independence_formula,
    "denominator_representatives": check_denominator_representatives,
    "split_vs_combined": check_split_vs_combined,
    "positive_systems": check_positive_systems,
    "rho_shift_unique": check_rho_shift_unique,
    "eta_branch": check_eta_branch,
    "packet_conjugation": check_packet_conjugation,
    "threshold_scan": check_threshold_scan,
    "excluded_crosscheck": check_excluded_crosscheck,
    "rigidity": check_rigidity,
    "forward_conjugate": check_forward_conjugate,
    "nonvanishing": check_nonvanishing,
    "locus_ratio": check_locus_ratio,
}


# ---------------------------------------------------------------------------
# campaign assembly


def _base_params(cfg: Config) -> dict:
    return {
        "seed": cfg.seed,
        "cache_dir": cfg.cache_dir,
        "budget": cfg.budget_entries,
        "epsilon_gt": cfg.epsilon_gt,
        "summation": cfg.summation,
    }


def chevalley_tasks(cfg: Config) -> list[dict]:
    order = cfg.cyclotomic_order
    tasks = [
        ("chevalley/pinning", "pinned symplectic root data is consistent", "pinning", {}),
        ("chevalley/reflection-squares", "reflection lift squares equal coroots at -1",
         "reflection_squares", {}),
        ("chevalley/coroot-conjugation", "reflection lifts conjugate coroots correctly",
         "coroot_conjugation", {}),
        ("chevalley/structure-signs", "structure sign table is +-1 with signed triple product -1",
         "structure_signs", {}),
        ("chevalley/longest-lift-square", "longest-element lift squares to short coroot at -1",
         "longest_lift", {}),
        ("chevalley/coxeter-lift-fourth", "Coxeter lift to the fourth equals short coroot at -1",
         "coxeter_lift", {}),
        ("chevalley/dual-weyl-action", "conjugation acts by inversion resp. the order-4 rotation",
         "dual_weyl_action", {}),
    ]
    for kind in cfg.kinds:
        tasks.append((
            f"chevalley/lift-independence-k{kind}",
            "twisted Frobenius power is independent of the torsion lift",
            "lift_independence", {"kind": kind, "count": 200, "seed": cfg.seed},
        ))
        tasks.append((
            f"chevalley/cover-values-k{kind}",
            "cover class values derived from coroot coordinates",
            "cover_values", {"kind": kind},
        ))
    return [
        {"id": tid, "claim": claim, "fn": fn, "params": {"order": order, **extra}}
        for tid, claim, fn, extra in tasks
    ]


def cohomology_tasks(cfg: Config) -> list[dict]:
    qs = cfg.qs if cfg.qs is not None else [3, 5, 7, 9]
    tasks = []
    for kind in cfg.kinds:
        for q in qs:
            base = {"kind": kind, "q": q}
            tasks.extend([
                {"id": f"cohomology/orders-k{kind}-q{q}",
                 "claim": "norm-kernel quotient and invariant quotient have the stated orders",
                 "fn": "tate_orders", "params": base},
                {"id": f"cohomology/exact-sequence-k{kind}-q{q}",
                 "claim": "cover order identity and norm surjectivity",
                 "fn": "exact_sequence", "params": base},
                {"id": f"cohomology/representatives-k{kind}-q{q}",
                 "claim": "norm-kernel representatives are the valuation parity classes",
                 "fn": "tate_representatives", "params": base},
                {"id": f"cohomology/splitting-k{kind}-q{q}",
                 "claim": "coinvariants split as unit classes times parities",
                 "fn": "splitting", "params": base},
                {"id": f"cohomology/pair-quad-roundtrip-k{kind}-q{q}",
                 "claim": "pair and quadruple models agree equivariantly",
                 "fn": "pair_quad_roundtrip", "params": base},
                {"id": f"cohomology/norm-consistency-k{kind}-q{q}",
                 "claim": "class-map norm equals the direct Galois-orbit product",
                 "fn": "norm_consistency", "params": base},
            ])
    return tasks


def identity_tasks(cfg: Config) -> list[dict]:
    qs = cfg.qs if cfg.qs is not None else [3, 5, 7]
    base = _base_params(cfg)
    tasks = []
    for kind in cfg.kinds:
        branches = cfg.eta_branches if kind == 2 else [1]
        for q in qs:
            for branch in branches:
                bname = "plus" if branch == 1 else "minus"
                suffix = f"-k{kind}-q{q}" + (f"-{bname}" if kind == 2 else "")
                tasks.append({
                    "id": f"identity/formula-equals-orbit-sum{suffix}",
                    "claim": "cover character formula equals the orbit character sum exactly",
                    "fn": "formula_equals_orbit_sum",
                    "params": {**base, "kind": kind, "q": q, "branch": branch},
                })
            if q == 3:
                extra = {**base, "kind": kind, "q": q, "branch": 1}
                tasks.extend([
                    {"id": f"identity/lift-independence-k{kind}-q3",
                     "claim": "formula value is independent of the coinvariant lift",
                     "fn": "lift_independence_formula", "params": extra},
                    {"id": f"identity/denominator-representatives-k{kind}-q3",
                     "claim": "Weyl denominator is constant across class representatives",
                     "fn": "denominator_representatives",
                     "params": {**extra, "samples": 100}},
                    {"id": f"identity/split-vs-combined-k{kind}-q3",
                     "claim": "split denominator equals the combined difference form",
                     "fn": "split_vs_combined", "params": extra},
                    {"id": f"identity/positive-systems-k{kind}-q3",
                     "claim": "formula values do not depend on the positive system",
                     "fn": "positive_systems", "params": extra},
                    {"id": f"identity/packet-conjugation-k{kind}-q3",
                     "claim": "conjugated formulas match conjugated characters; packets group correctly",
                     "fn": "packet_conjugation", "params": extra},
                ])
            if q in (3, 5):
                tasks.append({
                    "id": f"identity/rho-shift-unique-k{kind}-q{q}",
                    "claim": "rho-shift solver finds exactly the closed form",
                    "fn": "rho_shift_unique",
                    "params": {**base, "kind": kind, "q": q, "branch": 1},
                })
        if kind == 2 and 3 in qs:
            tasks.append({
                "id": "identity/eta-branch-k2-q3",
                "claim": "identity holds for both order-4 branches",
                "fn": "eta_branch",
                "params": {**base, "kind": 2, "q": 3, "branch": 1},
            })
    return tasks


def thresholds_tasks(cfg: Config) -> list[dict]:
    return [
        {"id": f"thresholds/scan-k{kind}",
         "claim": "excluded-locus ratio beats 1/|W| from the stated bound on",
         "fn": "threshold_scan",
         "params": {"kind": kind, "q_max": cfg.q_max, "eval_cap": cfg.budget_evals}}
        for kind in cfg.kinds
    ]


def uniqueness_tasks(cfg: Config) -> list[dict]:
    tasks = []
    if cfg.qs is not None:
        rigidity = [(k, q) for k in cfg.kinds for q in cfg.qs]
    else:
        rigidity = [(k, 3) for k in cfg.kinds]
        if 2 in cfg.kinds:
            rigidity.append((2, 5))
    for kind, q in rigidity:
        tasks.append({
            "id": f"uniqueness/rigidity-k{kind}-q{q}",
            "claim": "equal summed restrictions force Weyl-conjugate characters",
            "fn": "rigidity",
            "params": {"kind": kind, "q": q, "eval_cap": cfg.budget_evals,
                       "seed": cfg.seed},
        })
        tasks.append({
            "id": f"uniqueness/forward-conjugate-k{kind}-q{q}",
            "claim": "conjugate characters give identical summed restrictions",
            "fn": "forward_conjugate", "params": {"kind": kind, "q": q},
        })
    crosscheck_qs = cfg.qs if cfg.qs is not None else [3, 5, 7, 9]
    for kind in cfg.kinds:
        for q in [q for q in crosscheck_qs if q <= 9]:
            tasks.append({
                "id": f"uniqueness/excluded-crosscheck-k{kind}-q{q}",
                "claim": "excluded-locus count matches inclusion-exclusion",
                "fn": "excluded_crosscheck", "params": {"kind": kind, "q": q},
            })
            tasks.append({
                "id": f"uniqueness/locus-ratio-k{kind}-q{q}",
                "claim": "excluded-locus row is reported exactly",
                "fn": "locus_ratio", "params": {"kind": kind, "q": q},
            })
    nonvanishing = []
    if 1 in cfg.kinds:
        nonvanishing.append((1, 47))
    if 2 in cfg.kinds:
        nonvanishing.append((2, 5))
    for kind, q in nonvanishing:
        tasks.append({
            "id": f"uniqueness/nonvanishing-k{kind}-q{q}",
            "claim": "orbit sum of a regular character is not identically zero",
            "fn": "nonvanishing", "params": {"kind": kind, "q": q},
        })
    return tasks


def build_tasks(subcommand: str, cfg: Config) -> list[dict]:
    builders = {
        "chevalley": [chevalley_tasks],
        "cohomology": [cohomology_tasks],
        "identity": [identity_tasks],
        "thresholds": [thresholds_tasks],
        "uniqueness": [uniqueness_tasks],
        "all": [chevalley_tasks, cohomology_tasks, identity_tasks,
                thresholds_tasks, uniqueness_tasks],
    }
    tasks = []
    for builder in builders[subcommand]:
        tasks.extend(builder(cfg))
    ids = [t["id"] for t in tasks]
    assert len(ids) == len(set(ids)), "duplicate check ids"
    return sorted(tasks, key=lambda t: t["id"])


# ---------------------------------------------------------------------------
# running


def run_task(task: dict) -> tuple[dict, float]:
    start = time.perf_counter()
    fn = REGISTRY[task["fn"]]
    try:
        outcome, witness, info = fn(task["params"])
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
    import pathlib

    out = pathlib.Path(out_dir)
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
        rows = []
        for rec in records:
            for row in rec.get("info", {}).get("rows", []):
                rows.append(row)
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
    known = {f.name for f in fields(Config)} | {"q", "kind", "eta_branch", "format", "out"}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in known:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value.strip()
    return values


def _parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.replace(" ", "").split(",") if part]


def _apply_kv(cfg: Config, key: str, value: str) -> None:
    if key in ("q", "qs"):
        cfg.qs = _parse_int_list(value)
    elif key == "q_max":
        cfg.q_max = int(value)
    elif key in ("kind", "kinds"):
        cfg.kinds = [1, 2] if value == "both" else _parse_int_list(value)
    elif key in ("eta_branch", "eta_branches"):
        cfg.eta_branches = {
            "plus": [1], "minus": [-1], "both": [1, -1]
        }.get(value, None) or [int(v) for v in _parse_int_list(value)]
    elif key == "cyclotomic_order":
        cfg.cyclotomic_order = int(value)
    elif key == "summation":
        cfg.summation = value
    elif key == "epsilon_gt":
        cfg.epsilon_gt = int(value)
    elif key == "jobs":
        cfg.jobs = int(value)
    elif key in ("out", "out_dir"):
        cfg.out_dir = value
    elif key in ("format", "formats"):
        cfg.formats = [v for v in value.replace(" ", "").split(",") if v]
    elif key == "cache_dir":
        cfg.cache_dir = value
    elif key == "seed":
        cfg.seed = int(value)
    elif key == "budget_entries":
        cfg.budget_entries = int(value)
    elif key == "budget_evals":
        cfg.budget_evals = int(value)
    else:
        raise ConfigError(f"unknown configuration key {key!r}")


def resolve_config(args: argparse.Namespace) -> Config:
    cfg = Config()
    if args.config:
        try:
            file_values = read_config_file(args.config)
        except OSError as exc:
            raise ConfigError(f"config: cannot read {args.config}: {exc}") from exc
        for key, value in file_values.items():
            _apply_kv(cfg, key, value)
    if cfg.cache_dir is None:
        cfg.cache_dir = os.environ.get("DEPTHZERO_CACHE")
    flag_map = [
        ("q", args.q), ("q_max", args.q_max), ("kind", args.kind),
        ("eta_branch", args.eta_branch), ("out", args.out),
        ("format", args.format), ("jobs", args.jobs), ("seed", args.seed),
        ("summation", args.summation), ("cache_dir", args.cache_dir),
        ("cyclotomic_order", args.cyclotomic_order),
        ("budget_entries", args.budget_entries),
        ("budget_evals", args.budget_evals),
        ("epsilon_gt", args.epsilon_gt),
    ]
    for key, value in flag_map:
        if value is not None:
            _apply_kv(cfg, key, str(value))
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
        sp.add_argument("--q", help="comma-separated odd prime powers")
        sp.add_argument("--q-max", dest="q_max", type=int)
        sp.add_argument("--kind", choices=["1", "2", "both"])
        sp.add_argument("--eta-branch", dest="eta_branch",
                        choices=["plus", "minus", "both"])
        sp.add_argument("--config")
        sp.add_argument("--out")
        sp.add_argument("--format", help="comma-separated: json,csv,md")
        sp.add_argument("--jobs", type=int)
        sp.add_argument("--seed", type=int)
        sp.add_argument("--summation", choices=["full", "rotation", "trivial"])
        sp.add_argument("--cache-dir", dest="cache_dir")
        sp.add_argument("--cyclotomic-order", dest="cyclotomic_order", type=int)
        sp.add_argument("--budget-entries", dest="budget_entries", type=int)
        sp.add_argument("--budget-evals", dest="budget_evals", type=int)
        sp.add_argument("--epsilon-gt", dest="epsilon_gt", type=int)
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
