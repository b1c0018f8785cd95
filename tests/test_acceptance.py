"""Acceptance suite: one test per release criterion, every comparison at
zero tolerance (exact cyclotomic or integer equality).

Each test prints a single PASS line with its measured wall time; the
stated runtime targets are reported for context, not asserted, since
they depend on the host.
"""

import json
import time
from contextlib import contextmanager

import pytest

from depthzero.characters import (
    cover_character,
    enumerate_characters,
    enumerate_regular_characters,
)
from depthzero.charformula import (
    delta0_eta_exponent,
    denominator_factors,
    make_context,
    orbit_character_sum,
    positive_system_contexts,
    rho_shift_closed_sign,
    rho_shift_solve,
    theta,
    weyl_denominator_exponent,
)
from depthzero.driver import main
from depthzero.dualgroup import (
    build_pinning,
    coxeter_lift_fourth_check,
    lift_independence_check,
    longest_lift_square_check,
    reflection_sign_table,
    reflection_square_check,
)
from depthzero.localmodel import unit
from depthzero.tori import (
    canonical_rep,
    coinv_mul,
    coinvariant_norm,
    coinvariant_order,
    enumerate_coinvariants,
    is_strongly_regular,
    iter_strongly_regular,
    lift_of_rational,
    parity_classes,
    rational_order,
    rational_weyl_group,
    tate_cohomology,
    weyl_identity,
)
from depthzero.uniqueness import restriction_rigidity_check, threshold_scan


@contextmanager
def criterion(number, label, target):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"ACCEPT-{number:02d} PASS {label} ({elapsed:.2f}s, target {target})")


def test_criterion_01_chevalley_suite():
    with criterion(1, "Chevalley suite: lift squares, sign product, all-root squares", "<1s"):
        pin = build_pinning(24)
        assert longest_lift_square_check(pin)
        assert coxeter_lift_fourth_check(pin)
        _table, signed = reflection_sign_table(pin)
        assert signed == -1
        assert reflection_square_check(pin)


def test_criterion_02_torsion_lift_independence():
    with criterion(2, "twisted powers independent of >=200 sampled torsion lifts", "<5s"):
        pin = build_pinning(24)
        assert lift_independence_check(pin, 1, count=200, seed=0)
        assert lift_independence_check(pin, 2, count=200, seed=1)


def test_criterion_03_tate_cohomology():
    with criterion(3, "Tate cohomology orders and the exact-sequence identity", "<1s per q"):
        for q in (3, 5, 7, 9):
            for kind, expected in ((1, (4, 1)), (2, (2, 1))):
                h1, h0, _reps = tate_cohomology(kind, q)
                assert (h1, h0) == expected
                assert h1 * rational_order(kind, q) == coinvariant_order(kind, q)


def test_criterion_04_rho_shift_cross_validation():
    with criterion(4, "rho-shift solver finds exactly the closed form", "<30s"):
        for kind in (1, 2):
            for q in (3, 5):
                ctx = make_context(kind, q)
                signs = rho_shift_solve(ctx).tolist()
                assert signs == [
                    rho_shift_closed_sign(ctx, c) for c in enumerate_coinvariants(kind, q)
                ]


@pytest.mark.parametrize("q", [3, 5, 7])
def test_criterion_05_identity(q):
    with criterion(5, f"formula equals orbit sum exactly at q={q}", "<2min at q=7"):
        for kind in (1, 2):
            ctx = make_context(kind, q)
            chars = enumerate_regular_characters(kind, q)
            gammas = list(iter_strongly_regular(kind, q))
            for chi in chars:
                cov = cover_character(chi)
                for gamma in gammas:
                    for w in rational_weyl_group(kind):
                        assert theta(ctx, cov, w, gamma) == orbit_character_sum(
                            ctx, chi, w, gamma
                        )


def test_criterion_06_lift_independence_with_signs():
    with criterion(6, "lift independence incl. the denominator sign identities", "<10s"):
        for kind in (1, 2):
            q = 3
            ctx = make_context(kind, q)
            one = weyl_identity(kind)
            chars = enumerate_regular_characters(kind, q) or list(
                enumerate_characters(kind, q)
            )
            profile = [1, 1, 2, 3] if kind == 1 else [1, 2, 1, 2]
            for gamma in iter_strongly_regular(kind, q):
                lift = lift_of_rational(kind, q, gamma)
                shifted = coinv_mul(lift, parity_classes(kind, q)[-1])
                vals = [f.val for f in denominator_factors(ctx, canonical_rep(shifted))]
                assert vals == profile
                base_e = weyl_denominator_exponent(ctx, canonical_rep(lift))
                assert (weyl_denominator_exponent(ctx, canonical_rep(shifted)) - base_e) % 4 == 2
                for chi in chars:
                    cov = cover_character(chi)
                    base = theta(ctx, cov, one, gamma)
                    for tw in parity_classes(kind, q):
                        assert theta(ctx, cov, one, gamma, parity=tw) == base


def test_criterion_07_threshold_scan():
    with criterion(7, "excluded-locus ratios below 1/|W| on the stated ranges", "<1min"):
        rows1, empirical_min1 = threshold_scan(1, 200)
        assert all(row["holds"] for row in rows1 if 47 <= row["q"] <= 200)
        assert empirical_min1 is not None
        rows2, empirical_min2 = threshold_scan(2, 200)
        assert all(row["holds"] for row in rows2 if 4 <= row["q"] <= 200)
        assert empirical_min2 is not None
        # reported, never asserted tight: both empirical bounds may be lower
        assert empirical_min1 <= 47
        assert empirical_min2 <= 5


def test_criterion_08_rigidity():
    with criterion(8, "restriction rigidity exhaustive, no counterexample", "<5min"):
        for kind, q in ((1, 3), (2, 3), (2, 5)):
            pair, info = restriction_rigidity_check(kind, q)
            assert pair is None and info["exhaustive"]


def test_criterion_09_invariance_suite():
    with criterion(9, "eta-branch, positive-system and representative invariance", "<1min"):
        # eta-branch independence of the identity (kind 2)
        for branch in (1, -1):
            ctx = make_context(2, 3, eta_branch=branch)
            for chi in enumerate_regular_characters(2, 3):
                cov = cover_character(chi)
                for gamma in iter_strongly_regular(2, 3):
                    for w in rational_weyl_group(2):
                        assert theta(ctx, cov, w, gamma) == orbit_character_sum(
                            ctx, chi, w, gamma
                        )
        # positive-system independence at q = 3, via the solver route
        for kind in (1, 2):
            ctx = make_context(kind, 3)
            one = weyl_identity(kind)
            chars = (enumerate_regular_characters(kind, 3)
                     or list(enumerate_characters(kind, 3)))[:4]
            for _name, roots in positive_system_contexts(kind):
                rho_shift_solve(ctx, roots)
                for chi in chars:
                    cov = cover_character(chi)
                    for gamma in iter_strongly_regular(kind, 3):
                        assert theta(ctx, cov, one, gamma, positive_roots=roots) == theta(
                            ctx, cov, one, gamma
                        )
        # representative independence of the denominator, 100 samples/class
        import random

        rng = random.Random(0)
        for kind in (1, 2):
            q = 3
            ctx = make_context(kind, q)
            n = q + 1 if kind == 1 else q * q + 1
            group = q ** (2 * kind) - 1
            for c in enumerate_coinvariants(kind, q):
                if not is_strongly_regular(kind, q, coinvariant_norm(c)):
                    continue
                base = weyl_denominator_exponent(ctx, canonical_rep(c))
                for _ in range(100):
                    if kind == 1:
                        rep = (
                            unit(q, 2, c.u1 + n * rng.randrange(group // n),
                                 c.v1 + 2 * rng.randrange(-3, 4)),
                            unit(q, 2, c.u2 + n * rng.randrange(group // n),
                                 c.v2 + 2 * rng.randrange(-3, 4)),
                        )
                    else:
                        rep = unit(q, 4, c.u + n * rng.randrange(group // n),
                                   c.v + 2 * rng.randrange(-3, 4))
                    assert weyl_denominator_exponent(ctx, rep) == base
        # split form (delta0 times rho-shift) agrees with the combined form
        for kind in (1, 2):
            ctx = make_context(kind, 3)
            for gamma in iter_strongly_regular(kind, 3):
                for tw in parity_classes(kind, 3):
                    lift = coinv_mul(lift_of_rational(kind, 3, gamma), tw)
                    combined = weyl_denominator_exponent(ctx, canonical_rep(lift))
                    split = (
                        delta0_eta_exponent(ctx, gamma)
                        + (2 if rho_shift_closed_sign(ctx, lift) < 0 else 0)
                    ) % 4
                    assert combined == split


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "two identical runs produce byte-identical check records", "n/a"):
        argv = ["all", "--q", "3", "--q-max", "60", "--seed", "1"]
        assert main(argv + ["--out", str(tmp_path / "one")]) == 0
        assert main(argv + ["--out", str(tmp_path / "two")]) == 0
        a = (tmp_path / "one" / "report.json").read_bytes()
        b = (tmp_path / "two" / "report.json").read_bytes()
        assert a == b
        checks = json.loads(a)["checks"]
        assert checks and all(r["outcome"] == "PASS" for r in checks)
