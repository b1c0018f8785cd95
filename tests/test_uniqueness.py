from fractions import Fraction

import numpy as np
import pytest

from depthzero import uniqueness
from depthzero.characters import enumerate_regular_characters
from depthzero.charformula import make_context, orbit_character_sum
from depthzero.ffield import BudgetExceededError, prime_power
from depthzero.tori import (
    iter_strongly_regular,
    rational_order,
    rational_weyl_group,
    strongly_regular_coordinates,
    weyl_identity,
)
from depthzero.uniqueness import (
    conjugate_forward_check,
    excluded_count,
    excluded_count_inclusion_exclusion,
    nonvanishing_report,
    odd_prime_powers,
    regular_locus_ratio,
    restriction_rigidity_check,
    threshold_scan,
)


def test_excluded_counts_small_q():
    # torus 1, q=3: 12 of 16 lie on a root kernel (4 strongly regular)
    assert excluded_count(1, 3) == 12
    assert len(strongly_regular_coordinates(1, 3)) == 4
    # torus 2, odd q: exactly {1, -1} are excluded
    assert excluded_count(2, 3) == 2
    assert len(strongly_regular_coordinates(2, 3)) == 8
    assert excluded_count(2, 5) == 2


def test_kind1_excluded_is_4q():
    # union of the four root kernels has exactly 4q elements
    for q in (3, 5, 7, 9, 11, 13):
        assert excluded_count(1, q) == 4 * q


@pytest.mark.parametrize("kind", [1, 2])
@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_inclusion_exclusion_crosscheck(kind, q):
    assert excluded_count(kind, q) == excluded_count_inclusion_exclusion(kind, q)


def _excluded_count_by_modulo(kind: int, q: int) -> int:
    """The excluded count as first written: an int64 grid of every
    coordinate and one ``%`` per root value and element."""
    if kind == 1:
        n = q + 1
        a = np.arange(n).repeat(n)
        b = np.tile(np.arange(n), n)
        bad = (a % n == 0) | (b % n == 0) | ((a + b) % n == 0) | ((2 * a + b) % n == 0)
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


@pytest.mark.parametrize("kind", [1, 2])
def test_excluded_count_matches_the_modulo_grid(kind):
    for q in odd_prime_powers(401):
        assert excluded_count(kind, q) == _excluded_count_by_modulo(kind, q), q


@pytest.mark.parametrize("kind", [1, 2])
def test_excluded_count_is_the_complement_of_the_strongly_regular_set(kind):
    """The threshold count and the strongly regular mask of ``tori`` are two
    definitions of one locus."""
    for q in odd_prime_powers(200):
        assert excluded_count(kind, q) == (
            rational_order(kind, q) - len(strongly_regular_coordinates(kind, q))), q


def test_ratio_rows():
    row = regular_locus_ratio(2, 5)
    assert (row["excluded"], row["torus_order"]) == (2, 26)
    assert row["ratio"] == "1/13"
    assert row["bound"] == "1/4"
    assert row["holds"]
    row1 = regular_locus_ratio(1, 3)
    assert row1["ratio"] == "3/4"
    assert not row1["holds"]
    assert regular_locus_ratio(1, 47)["holds"]


@pytest.mark.parametrize("kind", [1, 2])
def test_ratio_rows_match_fractions(kind):
    """The integer ratio, bound and test against ``Fraction`` arithmetic."""
    w = len(rational_weyl_group(kind))
    for q in odd_prime_powers(401):
        row = regular_locus_ratio(kind, q)
        f = Fraction(excluded_count(kind, q), rational_order(kind, q))
        assert (row["kind"], row["q"]) == (kind, q)
        assert row["ratio"] == f"{f.numerator}/{f.denominator}", q
        assert row["bound"] == f"1/{w}"
        assert row["holds"] == (f < Fraction(1, w)), q


def test_odd_prime_powers():
    assert list(odd_prime_powers(30)) == [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29]


def test_threshold_scan_kind1():
    rows, empirical_min = threshold_scan(1, 200)
    by_q = {r["q"]: r for r in rows}
    # the stated sufficient bound holds everywhere above it
    assert all(r["holds"] for r in rows if r["q"] > 46)
    # and is not tight: the inequality already holds from 31 on
    assert empirical_min == 31
    assert by_q[29]["holds"] is False
    assert by_q[31]["holds"] is True


def test_threshold_scan_kind2():
    rows, empirical_min = threshold_scan(2, 200)
    assert all(r["holds"] for r in rows if r["q"] >= 4)
    # the q = 3 row is reported regardless of outcome; it happens to hold
    q3 = [r for r in rows if r["q"] == 3][0]
    assert q3["ratio"] == "1/5" and q3["holds"]
    assert empirical_min == 3


@pytest.mark.parametrize("kind,first_past", [(1, 1259), (2, 1277)])
def test_threshold_scan_refuses_at_the_first_q_past_its_budget(monkeypatch, kind, first_past):
    """The scan sums its work while it enumerates, so q_max = 10^6 is
    refused after ~630 primality tests, not after every odd number below
    it; the counting wrapper stops a scan that enumerates first."""
    calls = []

    def counting(q):
        calls.append(q)
        assert len(calls) <= 1000, "the scan enumerated past its budget"
        return prime_power(q)

    monkeypatch.setattr(uniqueness, "prime_power", counting)
    with pytest.raises(BudgetExceededError, match=f"at q = {first_past}$"):
        threshold_scan(kind, 10**6)
    assert calls[-1] == first_past


@pytest.mark.parametrize("kind,q", [(1, 3), (2, 3), (2, 5)])
def test_restriction_rigidity(kind, q):
    pair, info = restriction_rigidity_check(kind, q)
    assert pair is None
    assert info["exhaustive"]
    # torus 1 at q = 3 has no regular character: the empty pool is covered in full
    assert (info["regular_characters"] == 0) == ((kind, q) == (1, 3))
    assert info["coverage"] == "1/1"


def test_rigidity_kind1_q5_nonvacuous():
    pair, info = restriction_rigidity_check(1, 5)
    assert pair is None
    assert info["regular_characters"] == 8


@pytest.mark.parametrize("kind,q", [(1, 5), (2, 3), (2, 5)])
def test_forward_direction(kind, q):
    assert conjugate_forward_check(kind, q)


def test_nonvanishing_kind2_q5():
    rep = nonvanishing_report(2, 5)
    assert rep["witness_character"]
    assert "not re-derived" in rep["note"]


def test_nonvanishing_kind1_q47():
    rep = nonvanishing_report(1, 47)
    assert rep["witness_gamma"]


@pytest.mark.parametrize("kind,q", [(1, 5), (1, 7), (2, 3), (2, 5), (1, 47)])
def test_nonvanishing_witness_is_the_first_nonzero_orbit_sum(kind, q):
    """The table scan against the scalar loop: characters outer, gammas in
    enumeration order, the first nonzero ``orbit_character_sum``."""
    ctx, one = make_context(kind, q), weyl_identity(kind)
    want = next(
        (chi.exponents, gamma)
        for chi in enumerate_regular_characters(kind, q)
        for gamma in iter_strongly_regular(kind, q)
        if not orbit_character_sum(ctx, chi, one, gamma).is_zero()
    )
    rep = nonvanishing_report(kind, q)
    coords = [want[1].k1, want[1].k2] if kind == 1 else [want[1].k]
    assert (rep["witness_character"], rep["witness_gamma"]) == (list(want[0]), coords)


def test_sampled_mode_reports_coverage():
    pair, info = restriction_rigidity_check(2, 5, eval_cap=50)
    assert not info["exhaustive"]
    assert Fraction(info["coverage"]) < 1
    assert pair is None


@pytest.mark.parametrize("kind,info", [
    (1, {"coverage": "5/16", "exhaustive": False, "pairs_checked": 15, "regular_characters": 80}),
    (2, {"coverage": "41/120", "exhaustive": False, "pairs_checked": 17,
         "regular_characters": 120}),
])
def test_sampled_rigidity_counts_every_regular_character(kind, info):
    """Under a budget the record counts the regular characters, not the
    sample: ``uniqueness --q 11 --budget-evals 20000``.  The sample and its
    pairs are pinned, since they depend on the population it is drawn from."""
    from depthzero.driver import check_rigidity

    outcome, _witness, got = check_rigidity({"kind": kind, "q": 11, "eval_cap": 20_000,
                                             "seed": 0})
    assert outcome == "PASS"
    assert got == info
    assert got["regular_characters"] == len(enumerate_regular_characters(kind, 11))
