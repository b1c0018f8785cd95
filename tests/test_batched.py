"""The batched exact engine against the scalar oracles.

``theta``, ``orbit_character_sum`` and ``weyl_apply`` are the reference
implementations; the engine's exponent tables must reduce to exactly
their values, and the batched identity check must give the scalar
loop's outcome, witness and counts, also on deliberately broken models.
"""

import re

import numpy as np
import pytest

from depthzero import characters, charformula, driver
from depthzero.characters import DepthZeroCharacter, cover_character, enumerate_characters
from depthzero.charformula import (
    NotStronglyRegularError,
    SumTables,
    first_unequal_sum,
    make_context,
    named_summation_subgroup,
    orbit_character_sum,
    packet,
    positive_system_contexts,
    theta,
    unequal_mask,
)
from depthzero.cyclo import sum_of_roots
from depthzero.tori import (
    NonRationalWeylError,
    T1Coinv,
    T1Rational,
    T2Coinv,
    T2Rational,
    coordinate_array,
    enumerate_coinvariants,
    iter_rational,
    iter_strongly_regular,
    parity_classes,
    rational_weyl_group,
    strongly_regular_coordinates,
    t1_rational,
    t2_rational,
    unit_class_order,
    weyl_apply,
    weyl_group,
    weyl_matrix,
)


def _rows(gammas):
    """Coordinate rows of a list of rational elements of one kind."""
    return coordinate_array(type(gammas[0]), gammas)


def _parity(twist):
    """The parity columns of a parity class, as ``SumTables`` takes them."""
    return (twist.v1, twist.v2) if isinstance(twist, T1Coinv) else twist.v


def _pool(kind, q, limit=None):
    """The pooled exponent rows, each with its character for the scalar
    oracles."""
    rows, _ = driver._character_pool(kind, q, limit)
    return [(row, DepthZeroCharacter(kind, q, tuple(row.tolist()))) for row in rows]


def _tables(ctx, parity=None, labels=None):
    """The strongly regular elements of the context and their tables;
    ``parity`` is a parity class, as ``theta`` takes it."""
    gammas = list(iter_strongly_regular(ctx.kind, ctx.q))
    twist = None if parity is None else _parity(parity)
    return gammas, SumTables(ctx, _rows(gammas), parity=twist, labels=labels)


def _assert_matches_scalar(ctx, parity=None):
    kind, q = ctx.kind, ctx.q
    gammas, tables = _tables(ctx, parity)
    amb = ctx.ambient_order
    for row, chi in _pool(kind, q):
        cov = cover_character(chi)
        lhs = tables.theta_exponents(row)
        rhs = tables.orbit_exponents(row)
        assert lhs.shape == rhs.shape == (
            len(gammas), len(tables.labels), len(ctx.summation))
        for g, gamma in enumerate(gammas):
            for i, w in enumerate(tables.labels):
                assert sum_of_roots(amb, lhs[g, i].tolist()) == theta(
                    ctx, cov, w, gamma, parity=parity), (chi, gamma, w)
                assert sum_of_roots(amb, rhs[g, i].tolist()) == orbit_character_sum(
                    ctx, chi, w, gamma), (chi, gamma, w)


@pytest.mark.parametrize("branch", [1, -1])
@pytest.mark.parametrize("kind,q", [(1, 3), (2, 3), (1, 5), (2, 5)])
def test_tables_match_scalar_on_every_twist(kind, q, branch):
    ctx = make_context(kind, q, eta_branch=branch)
    for tw in parity_classes(kind, q):
        _assert_matches_scalar(ctx, parity=tw)


@pytest.mark.parametrize("summation,epsilon_gt,epsilon_chi", [
    ("full", -1, 1),
    ("full", 1, -1),
    ("rotation", -1, -1),
    ("trivial", 1, -1),
])
@pytest.mark.parametrize("kind,q", [(1, 3), (2, 3), (1, 5), (2, 5)])
def test_tables_match_scalar_across_summation_and_signs(kind, q, summation,
                                                        epsilon_gt, epsilon_chi):
    ctx = make_context(kind, q, summation=named_summation_subgroup(kind, summation),
                       epsilon_gt=epsilon_gt, epsilon_chi=epsilon_chi)
    _assert_matches_scalar(ctx)


@pytest.mark.parametrize("kind,q,branch", [(1, 3, 1), (2, 3, -1), (1, 5, 1), (2, 5, 1)])
def test_tables_match_scalar_on_every_positive_system(kind, q, branch):
    """The split denominator of each transformed positive system, on every
    twist, with the identity label only."""
    ctx = make_context(kind, q, eta_branch=branch)
    amb, one = ctx.ambient_order, rational_weyl_group(kind)[0]
    for tw in parity_classes(kind, q):
        gammas, tables = _tables(ctx, parity=tw, labels=(one,))
        for _, roots in positive_system_contexts(kind):
            for row, chi in _pool(kind, q, limit=3):
                exps = tables.theta_exponents(row, roots)
                assert exps.shape == (len(gammas), 1, len(ctx.summation))
                assert [sum_of_roots(amb, cell[0].tolist()) for cell in exps] == [
                    theta(ctx, cover_character(chi), one, g, parity=tw, positive_roots=roots)
                    for g in gammas]


@pytest.mark.parametrize("summation", ["full", "rotation", "trivial"])
@pytest.mark.parametrize("kind", [1, 2])
def test_packet_classes_match_scalar_packet(kind, summation):
    ctx = make_context(kind, 3, summation=named_summation_subgroup(kind, summation))
    _, tables = _tables(ctx)
    for row, chi in _pool(kind, 3, limit=3):
        assert tables.packet_classes(row) == packet(ctx, cover_character(chi)).classes


@pytest.mark.parametrize("epsilon_gt,epsilon_chi", [(-1, 1), (1, -1)])
@pytest.mark.parametrize("kind", [1, 2])
def test_one_sided_sign_breaks_the_identity(kind, epsilon_gt, epsilon_chi):
    # the negative control of the sign convention: flipping one side only fails
    ctx = make_context(kind, 3, epsilon_gt=epsilon_gt, epsilon_chi=epsilon_chi)
    _, tables = _tables(ctx)
    rows, _ = driver._character_pool(kind, 3)
    assert not tables.certify()
    assert any(tables.first_mismatch(row) is not None for row in rows)


# ---------------------------------------------------------------------------
# the character-free certificate


def _every_row(kind, q):
    """The exponent rows of the whole character group, from its objects."""
    return np.array([chi.exponents for chi in enumerate_characters(kind, q)])


@pytest.mark.parametrize("epsilon", [1, -1])
@pytest.mark.parametrize("summation", ["full", "rotation", "trivial"])
@pytest.mark.parametrize("kind,branch", [(1, 1), (2, 1), (2, -1)])
@pytest.mark.parametrize("q", [3, 5, 7])
def test_certificate_covers_every_character(q, kind, branch, summation, epsilon):
    """A certified table has no mismatch for any character of the whole
    group, not only for the regular ones the checks pool."""
    ctx = make_context(kind, q, eta_branch=branch, epsilon_gt=epsilon, epsilon_chi=epsilon,
                       summation=named_summation_subgroup(kind, summation))
    tables = SumTables(ctx, strongly_regular_coordinates(kind, q))
    assert tables.certify()
    assert tables.first_mismatch(_every_row(kind, q)) is None


@pytest.mark.parametrize("side", ["moved_gamma", "moved_units"])
@pytest.mark.parametrize("kind", [1, 2])
def test_certificate_sees_one_moved_unit_point(kind, side):
    """One summation term moved to another unit point, on either side, keeps
    every phase: the certificate must fail, and some character tells."""
    ctx = make_context(kind, 5)
    _, tables = _tables(ctx)
    getattr(tables, side)[0, 0, 0, 0] += 1
    assert not tables.certify()
    assert tables.first_mismatch(_every_row(kind, 5)) is not None


@pytest.mark.parametrize("kind,q,row,fits", [
    (1, 2_097_169, [1, 2], False),  # the old 2 n^2 guard let this q through
    (1, 1_663_999, [1, 2], True),
    (2, 46_341, [1], False),
    (2, 46_339, [1], True),
])
def test_tables_refuse_keys_past_int64(kind, q, row, fits):
    """The tables refuse at construction exactly where ambient * n^rank, the
    bound of the term keys, reaches 2^63; below it the keys are formed."""
    ctx = make_context(kind, q)
    n, rank = unit_class_order(kind, q), len(row)
    assert (ctx.ambient_order * n**rank < 2**63) == fits
    if not fits:
        with pytest.raises(OverflowError, match="int64 range of the tables"):
            SumTables(ctx, np.array([row]))
        return
    keys = SumTables(ctx, np.array([row])).orbit_keys()
    assert keys.dtype == np.int64 and (keys >= 0).all()


def _elements(cls, q):
    if cls in (T1Rational, T2Rational):
        return list(iter_rational(1 if cls is T1Rational else 2, q))
    return list(enumerate_coinvariants(1 if cls is T1Coinv else 2, q))


@pytest.mark.parametrize("q", [3, 5, 7])
@pytest.mark.parametrize("cls", [T1Rational, T1Coinv, T2Rational, T2Coinv])
def test_vectorised_weyl_action_matches_scalar(cls, q):
    kind = 1 if cls in (T1Rational, T1Coinv) else 2
    xs = _elements(cls, q)
    coords = coordinate_array(cls, xs)
    for w in rational_weyl_group(kind):
        expected = coordinate_array(cls, [weyl_apply(q, w, x) for x in xs])
        mat, moduli = weyl_matrix(q, w, cls in (T1Coinv, T2Coinv))
        np.testing.assert_array_equal(coords @ mat.T % moduli, expected)


@pytest.mark.parametrize("cls", [T2Rational, T2Coinv])
def test_vectorised_weyl_action_rejects_non_rational(cls):
    irrational = [w for w in weyl_group(2) if w not in rational_weyl_group(2)]
    assert irrational
    for w in irrational:
        with pytest.raises(NonRationalWeylError):
            weyl_matrix(3, w, cls is T2Coinv)


# ---------------------------------------------------------------------------
# the batched check against the scalar loop


def _scalar_check(params):
    """The per-element loop of the identity check, kept as its reference."""
    kind, q, branch = params["kind"], params["q"], params["branch"]
    ctx = driver._context_from_params(params)
    rows, regular_count = driver._character_pool(kind, q)
    chars = [characters.DepthZeroCharacter(kind, q, tuple(row)) for row in rows.tolist()]
    gammas = list(iter_strongly_regular(kind, q))
    labels = rational_weyl_group(kind)
    comparisons = 0
    for chi in chars:
        cov = cover_character(chi)
        for gamma in gammas:
            for w in labels:
                comparisons += 1
                if theta(ctx, cov, w, gamma) != orbit_character_sum(ctx, chi, w, gamma):
                    return driver._fail({
                        "character": characters.character_to_descriptor(chi, branch),
                        "gamma": str(gamma),
                        "w": w.name,
                    })
    return driver._ok({"characters": len(chars), "regular_characters": regular_count,
                       "elements": len(gammas), "comparisons": comparisons})


CASES = [(1, 3, 1), (1, 5, 1), (2, 3, -1), (2, 5, 1)]


@pytest.mark.parametrize("kind,q,branch", CASES)
def test_check_matches_scalar_loop(kind, q, branch):
    params = {"kind": kind, "q": q, "branch": branch}
    got = driver.check_formula_equals_orbit_sum(params)
    assert got == _scalar_check(params)
    assert got[0] == "PASS"
    assert all(type(v) is int for v in got[2].values())


def _first_dlog(rep):
    return (rep[0] if isinstance(rep, tuple) else rep).residue.dlog


def _break_denominator(monkeypatch, extra):
    """Add ``extra(first dlog)`` to the Weyl denominator, in the scalar form
    (the oracle) and the array form (the tables) alike; the first column of
    a coinvariant row is the first dlog of its ``canonical_rep``."""
    scalar = charformula.weyl_denominator_exponent
    array = charformula.weyl_denominator_exponent_array
    monkeypatch.setattr(charformula, "weyl_denominator_exponent",
                        lambda ctx, rep: (scalar(ctx, rep) + extra(_first_dlog(rep))) % 4)
    monkeypatch.setattr(charformula, "weyl_denominator_exponent_array",
                        lambda ctx, coords: (array(ctx, coords) + extra(coords[:, 0])) % 4)


@pytest.mark.parametrize("kind,q,branch", CASES)
def test_broken_denominator_fails_with_scalar_witness(kind, q, branch, monkeypatch, certificates):
    _break_denominator(monkeypatch, lambda dlog: 2 * (dlog % 3 == 1))
    params = {"kind": kind, "q": q, "branch": branch}
    got = driver.check_formula_equals_orbit_sum(params)
    assert certificates == [False]  # the witness comes from the per-character loop
    assert got[0] == "FAIL"
    assert got == _scalar_check(params)


def test_tables_follow_odd_denominator_exponents(monkeypatch):
    # the model's denominators are even; an odd one tells D from D^-1
    _break_denominator(monkeypatch, lambda dlog: dlog)
    for kind in (1, 2):
        _assert_matches_scalar(make_context(kind, 3))


def test_rejects_non_strongly_regular_elements():
    for kind, gamma in ((1, t1_rational(3, 0, 0)), (2, t2_rational(3, 0))):
        # the message names the element, rebuilt from its row
        with pytest.raises(NotStronglyRegularError, match=re.escape(f"{gamma} is not")):
            SumTables(make_context(kind, 3), _rows([gamma]))


@pytest.mark.parametrize("kind,row", [(1, [1]), (2, [1, 2]), (1, [[1], [2]])])
def test_tables_reject_a_row_of_the_wrong_rank(kind, row):
    """A character is a row of rank exponents; the tables refuse any other
    length rather than read a prefix of it."""
    _, tables = _tables(make_context(kind, 3))
    for method in (tables.orbit_exponents, tables.theta_exponents, tables.first_mismatch,
                   tables.packet_classes):
        with pytest.raises(ValueError):
            method(row)


@pytest.mark.parametrize("kind", [1, 2])
def test_tables_take_one_row_or_a_block(kind):
    """A block of rows gives the tables of its rows, stacked in front, and
    ``first_mismatch`` of a block puts the row index first."""
    ctx = make_context(kind, 3, epsilon_gt=-1)
    _, tables = _tables(ctx)
    rows = _every_row(kind, 3)[:5]
    for method in (tables.orbit_exponents, tables.theta_exponents):
        np.testing.assert_array_equal(method(rows), np.stack([method(row) for row in rows]))
    first = next(i for i, row in enumerate(rows) if tables.first_mismatch(row) is not None)
    assert tables.first_mismatch(rows) == (first, *tables.first_mismatch(rows[first]))


def test_exact_fallback_decides_multiset_different_sums():
    # zeta_4^0 + zeta_4^2 = 0 = zeta_4^1 + zeta_4^3, with different multisets
    assert first_unequal_sum(4, np.array([[0, 2]]), np.array([[1, 3]])) is None
    lhs = np.array([[[0, 2], [0, 0]], [[1, 1], [0, 1]]])
    rhs = np.array([[[1, 3], [0, 0]], [[1, 1], [2, 3]]])
    assert first_unequal_sum(4, lhs, rhs) == (1, 1)
    assert first_unequal_sum(4, rhs, rhs) is None


def test_unequal_mask_marks_every_unequal_sum():
    lhs = np.array([[[0, 2], [0, 0]], [[1, 1], [0, 1]]])
    rhs = np.array([[[1, 3], [0, 0]], [[1, 1], [2, 3]]])
    # (0, 0): different multisets, both sums 0; (1, 1): 1 + i against -1 - i
    assert unequal_mask(4, lhs, rhs).tolist() == [[False, False], [False, True]]
    assert unequal_mask(4, rhs[:, :, ::-1], rhs).tolist() == [[False, False], [False, False]]
