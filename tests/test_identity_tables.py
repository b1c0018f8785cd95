"""The checks that run on exponent tables, against the scalar loops they
replaced.

The ``oracle_*`` functions are the per-element bodies of
``lift-independence``, ``denominator-representatives``,
``positive-systems``, ``packet-conjugation``, ``rho-shift-unique`` and
``forward-conjugate`` as they were written on ``theta``, ``packet``,
``weyl_conjugate``, ``orbit_character_sum``, the scalar Weyl denominator
and the scalar 2-rho target.  They take the check's pooled exponent rows
as ``DepthZeroCharacter`` objects.  ``rigidity`` keeps its body and takes
its summed functions from ``orbit_character_sum``.  The table checks must return the same
record (outcome, witness and info) on a grid of configurations, and under
each deliberate break of the model, applied to both sides, the same FAIL
and witness.  A break of the Weyl conjugation rebinds ``conjugate_rows``
(what the checks read) and ``weyl_conjugate`` (what the oracles read).
The checks that walk a grid in ``driver._blocks`` must also return the
same record, intact and broken, at two block sizes.

The campaign guard at the end runs whole campaigns with the scalar paths
and the character objects made to raise.
"""

import importlib.util
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from depthzero import characters, charformula, driver, dualgroup, tori, uniqueness
from depthzero.characters import (
    DepthZeroCharacter,
    character_to_descriptor,
    cover_character,
    regular_exponent_rows,
    weyl_conjugate,
)
from depthzero.charformula import (
    _two_rho_eta_exponent,
    delta0_eta_exponent,
    denominator_factors,
    make_context,
    orbit_character_sum,
    packet,
    positive_system_contexts,
    rho_shift_closed_sign,
    rho_shift_solve,
    theta,
    weyl_denominator_exponent,
)
from depthzero.driver import _character_pool, _context_from_params, _fail, _ok, main
from depthzero.dualgroup import cover_class_values
from depthzero.localmodel import unit
from depthzero.tori import (
    T1Coinv,
    T1Rational,
    T2Coinv,
    T2Rational,
    canonical_rep,
    coinv_mul,
    coinvariant_coordinates,
    coinvariant_norm,
    coinvariant_norm_array,
    coordinate_array,
    enumerate_coinvariants,
    is_strongly_regular,
    iter_strongly_regular,
    lift_of_rational,
    parity_classes,
    rational_of_row,
    rational_weyl_group,
    strongly_regular_coordinates,
    strongly_regular_mask,
    t1_coinv,
    t2_coinv,
    unit_class_order,
    weyl_identity,
)

# ---------------------------------------------------------------------------
# the scalar oracles


def _pool_characters(kind, q, limit=None):
    """The check's pooled exponent rows, as the characters the oracles take."""
    rows, _ = _character_pool(kind, q, limit)
    return [DepthZeroCharacter(kind, q, tuple(row)) for row in rows.tolist()]


def oracle_lift_independence_formula(params):
    kind, q = params["kind"], params["q"]
    ctx = _context_from_params(params)
    chars = _pool_characters(kind, q, limit=6)
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


def oracle_denominator_representatives(params):
    kind, q = params["kind"], params["q"]
    ctx = _context_from_params(params)
    rng = random.Random(params.get("seed", 0))
    classes = list(enumerate_coinvariants(kind, q))
    coords = coordinate_array(T1Coinv if kind == 1 else T2Coinv, classes)
    rank = 2 if kind == 1 else 1
    checked = 0
    for c, row in zip(classes, coords):
        if not is_strongly_regular(kind, q, coinvariant_norm(c)):
            continue
        base = weyl_denominator_exponent(ctx, canonical_rep(c))
        samples = driver.denominator_representative_rows(rng, kind, q, row[None],
                                                         params.get("samples", 100))[0]
        for sample in samples.tolist():  # another representative of the class
            units = [unit(q, 2 * kind, d, v) for d, v in zip(sample[:rank], sample[rank:])]
            rep = tuple(units) if kind == 1 else units[0]
            if weyl_denominator_exponent(ctx, rep) != base:
                return _fail({"class": str(c)})
            checked += 1
    return _ok({"representatives_checked": checked})


def oracle_positive_systems(params):
    kind, q = params["kind"], params["q"]
    ctx = _context_from_params(params)
    chars = _pool_characters(kind, q, limit=6)
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


def oracle_packet_conjugation(params):
    kind, q = params["kind"], params["q"]
    ctx = _context_from_params(params)
    chars = _pool_characters(kind, q, limit=3)
    gammas = list(iter_strongly_regular(kind, q))
    labels = rational_weyl_group(kind)
    # the one-class claim is about the full summation group, whatever the
    # configured one; the trivial group below separates the conjugates
    full_ctx = _context_from_params({**params, "summation": "full"})
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
        pk = packet(full_ctx, cov)
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


def oracle_rho_shift_unique(params):
    ctx = _context_from_params(params)
    # the solver's sign array, keyed by the classes in enumeration order
    table = dict(zip(enumerate_coinvariants(ctx.kind, ctx.q), rho_shift_solve(ctx).tolist()))
    mismatches = [
        str(c) for c, sign in table.items() if sign != rho_shift_closed_sign(ctx, c)
    ]
    if mismatches:
        return _fail({"classes": mismatches[:5]})
    for c, sign in table.items():
        if sign not in (1, -1) or _two_rho_eta_exponent(ctx, c) % 4 != 0:
            return _fail({"class": str(c), "reason": "square mismatch"})
    return _ok({"classes": len(table)})


def _scalar_orbit_sums(tables, row):
    kind, q = tables.ctx.kind, tables.ctx.q
    chi, one = DepthZeroCharacter(kind, q, tuple(np.asarray(row).tolist())), weyl_identity(kind)
    return tuple(orbit_character_sum(tables.ctx, chi, one, rational_of_row(kind, q, row))
                 for row in tables.gamma_coords)


def oracle_forward_conjugate(params):
    kind, q = params["kind"], params["q"]
    tables = uniqueness._identity_tables(kind, q)
    for row in regular_exponent_rows(kind, q)[:4]:
        chi = DepthZeroCharacter(kind, q, tuple(row.tolist()))
        base_fn = _scalar_orbit_sums(tables, row)
        for w in rational_weyl_group(kind):
            if _scalar_orbit_sums(tables, weyl_conjugate(chi, w).exponents) != base_fn:
                return _fail({"reason": "conjugate characters gave distinct sums"})
    return _ok()


def _on_scalar_orbit_sums(check):
    def oracle(params):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(uniqueness, "_orbit_sums", _scalar_orbit_sums)
            return check(params)

    return oracle


ORACLES = {
    "lift_independence_formula": oracle_lift_independence_formula,
    "denominator_representatives": oracle_denominator_representatives,
    "positive_systems": oracle_positive_systems,
    "packet_conjugation": oracle_packet_conjugation,
    "rho_shift_unique": oracle_rho_shift_unique,
    "rigidity": _on_scalar_orbit_sums(driver.check_rigidity),
    "forward_conjugate": oracle_forward_conjugate,
}


def _params(kind, q, branch=1, **options):
    return {"kind": kind, "q": q, "branch": branch, "seed": 0, "summation": "full",
            "epsilon_gt": 1, "samples": 100, "eval_cap": 100_000_000, **options}


def _both(name, params):
    """(table check record, scalar oracle record)."""
    return driver.REGISTRY[name].check(dict(params)), ORACLES[name](dict(params))


# ---------------------------------------------------------------------------
# equivalence on a grid of configurations

POINTS = [(1, 1), (2, 1), (2, -1)]  # (kind, eta branch); kind 1 has no branch
GRID = (
    [_params(kind, q, branch) for q in (3, 5) for kind, branch in POINTS]
    + [_params(kind, 3, branch, **option) for kind, branch in POINTS
       for option in ({"seed": 7}, {"summation": "rotation"}, {"summation": "trivial"},
                      {"epsilon_gt": -1})]
)


def _grid_id(params):
    extra = [f"{k}={params[k]}" for k, default in
             (("seed", 0), ("summation", "full"), ("epsilon_gt", 1)) if params[k] != default]
    return "-".join([f"k{params['kind']}", f"q{params['q']}", f"b{params['branch']}", *extra])


@pytest.mark.parametrize("params", GRID, ids=_grid_id)
@pytest.mark.parametrize("name", sorted(ORACLES))
def test_table_check_matches_scalar_oracle(name, params):
    got, want = _both(name, params)
    assert got == want
    assert got[0] == "PASS"


@pytest.mark.parametrize("kind", [1, 2])
def test_denominator_representative_draws(kind):
    """At q = 3, seed 0: the check's draws reach every lift index and every
    valuation shift, every drawn row lies in its class, and drawing class
    by class gives the rows of one whole-block draw.  A range slip such as
    a shift drawn mod 6 still passes the check itself."""
    q, samples = 3, 100
    group, unit_mod = q ** (2 * kind) - 1, unit_class_order(kind, q)
    rank = 2 if kind == 1 else 1
    classes = coinvariant_coordinates(kind, q)
    classes = classes[strongly_regular_mask(kind, q, coinvariant_norm_array(kind, q, classes))]
    block = driver.denominator_representative_rows(random.Random(0), kind, q, classes, samples)
    assert block.shape == (len(classes), samples, 2 * rank)
    rng = random.Random(0)
    per_class = [driver.denominator_representative_rows(rng, kind, q, row[None], samples)
                 for row in classes]
    assert np.array_equal(np.concatenate(per_class), block)
    dlogs, vals = block[..., :rank], block[..., rank:]
    assert ((0 <= dlogs) & (dlogs < group)).all()
    lift, unit_part = np.divmod(dlogs - classes[:, None, :rank], unit_mod)
    shift, parity = np.divmod(vals - classes[:, None, rank:], 2)
    assert (unit_part == 0).all() and (parity == 0).all()
    assert set(lift.ravel().tolist()) == set(range(group // unit_mod))
    assert set(shift.ravel().tolist()) == set(range(-3, 4))


# ---------------------------------------------------------------------------
# negative controls: each break is applied to both sides


def _patch(monkeypatch, name, fn):
    """Rebind ``name`` wherever the table checks or the oracles look it up."""
    for module in (charformula, characters, driver, uniqueness, sys.modules[__name__]):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, fn)


def _gamma(kind, q, index):
    return list(iter_strongly_regular(kind, q))[index]


def _flip_rho_sign(monkeypatch, kind, q):
    """The rho-shift sign of the last element's lift flipped, on every
    transformed positive system.  Both sides read the sign array of
    ``rho_shift_solve``: the tables at the lift rows, ``theta`` at the
    row of its lift."""
    target = lift_of_rational(kind, q, _gamma(kind, q, -1))
    index = list(enumerate_coinvariants(kind, q)).index(target)
    original = charformula.rho_shift_solve

    def broken(ctx, positive_roots=None):
        table = original(ctx, positive_roots)
        if positive_roots is not None:
            table[index] = -table[index]
        return table

    _patch(monkeypatch, "rho_shift_solve", broken)


def _shift_delta0(index, by=2):
    """delta0 + ``by`` on the strongly regular element of this index."""

    def apply(monkeypatch, kind, q):
        target = _gamma(kind, q, index)
        row = coordinate_array(T1Rational if kind == 1 else T2Rational, [target])
        scalar, array = charformula.delta0_eta_exponent, charformula.delta0_eta_exponent_array
        _patch(monkeypatch, "delta0_eta_exponent", lambda ctx, gamma, positive_roots=None: (
            scalar(ctx, gamma, positive_roots) + by * (gamma == target)) % 4)
        _patch(monkeypatch, "delta0_eta_exponent_array", lambda ctx, coords, positive_roots=None: (
            array(ctx, coords, positive_roots) + by * (coords == row).all(axis=1)) % 4)

    return apply


def _shift_noncanonical_denominator(monkeypatch, kind, q):
    """The denominator + 2 on every representative other than
    ``canonical_rep`` of its class (a dlog past the unit class, or a
    valuation other than 0 and 1)."""
    unit_mod = unit_class_order(kind, q)
    scalar, array = weyl_denominator_exponent, charformula.weyl_denominator_exponent_array

    def off_scalar(rep):
        slots = rep if isinstance(rep, tuple) else (rep,)
        return any(x.residue.dlog >= unit_mod or x.val not in (0, 1) for x in slots)

    def off_array(coords):
        rank = coords.shape[1] // 2
        return (coords[:, :rank] >= unit_mod).any(axis=1) | (
            (coords[:, rank:] != 0) & (coords[:, rank:] != 1)).any(axis=1)

    _patch(monkeypatch, "weyl_denominator_exponent",
           lambda ctx, rep: (scalar(ctx, rep) + 2 * off_scalar(rep)) % 4)
    _patch(monkeypatch, "weyl_denominator_exponent_array",
           lambda ctx, coords: (array(ctx, coords) + 2 * off_array(coords)) % 4)


def _break_conjugation(monkeypatch, kind, wrong):
    """The first exponent of the conjugate by each rational Weyl element w
    with ``wrong(w)`` one too large, in ``weyl_conjugate`` (the oracles)
    and ``conjugate_rows`` (the checks) alike."""
    scalar, rows = characters.weyl_conjugate, characters.conjugate_rows
    shift = np.array([[int(wrong(w))] + [0] * (kind == 1) for w in rational_weyl_group(kind)])

    def broken_scalar(chi, w):
        c = scalar(chi, w)
        n = unit_class_order(chi.kind, chi.q)
        return DepthZeroCharacter(c.kind, c.q,
                                  ((c.exponents[0] + wrong(w)) % n, *c.exponents[1:]))

    def broken_rows(kind, q, block):
        conj = rows(kind, q, block)
        moved = shift.reshape(len(shift), *[1] * (conj.ndim - 2), -1)
        return (conj + moved) % unit_class_order(kind, q)

    _patch(monkeypatch, "weyl_conjugate", broken_scalar)
    _patch(monkeypatch, "conjugate_rows", broken_rows)


def _conjugate_off_by_one(monkeypatch, kind, q):
    """Every non-identity conjugate's first exponent one too large."""
    _break_conjugation(monkeypatch, kind, lambda w: bool(w.name))


def _conjugate_wrong_for_one_w(monkeypatch, kind, q):
    """The first exponent of the conjugate by the last rational Weyl element
    one too large."""
    last = rational_weyl_group(kind)[-1]
    _break_conjugation(monkeypatch, kind, lambda w: w == last)


def _flip_closed_sign(monkeypatch, kind, q):
    """The closed-form rho-shift sign of one class of parity 0 flipped, in
    the scalar form (the oracle) and the array form (the check) alike."""
    target = t1_coinv(q, 0, 1, 0, 0) if kind == 1 else t2_coinv(q, 1, 0)
    row = coordinate_array(type(target), [target])
    scalar, array = charformula.rho_shift_closed_sign, charformula.rho_shift_closed_sign_array
    _patch(monkeypatch, "rho_shift_closed_sign",
           lambda ctx, c: -scalar(ctx, c) if c == target else scalar(ctx, c))
    _patch(monkeypatch, "rho_shift_closed_sign_array", lambda ctx, coords: (
        np.where((coords == row).all(axis=1), -1, 1) * array(ctx, coords)))


def _poison_two_rho(monkeypatch, kind, q):
    """The 2-rho target of the last class, which is no generator, made odd,
    in the scalar form (the oracle) and the array form (the check) alike."""
    target = list(enumerate_coinvariants(kind, q))[-1]
    row = coordinate_array(T1Coinv if kind == 1 else T2Coinv, [target])
    scalar, array = _two_rho_eta_exponent, charformula.two_rho_eta_exponent_array
    _patch(monkeypatch, "_two_rho_eta_exponent", lambda ctx, c, positive_roots=None: (
        scalar(ctx, c, positive_roots) + (c == target)) % 4)
    _patch(monkeypatch, "two_rho_eta_exponent_array", lambda ctx, coords, positive_roots=None: (
        array(ctx, coords, positive_roots) + (coords == row).all(axis=1)) % 4)


def _flip_odd_parity_sign(monkeypatch, kind, q):
    """The closed-form rho-shift sign flipped on every class of parity
    (1, 0) resp. 1, in the scalar and array forms alike."""
    parity = (1, 0) if kind == 1 else (1,)
    scalar, array = charformula.rho_shift_closed_sign, charformula.rho_shift_closed_sign_array

    def odd(c):
        return ((c.v1, c.v2) if kind == 1 else (c.v,)) == parity

    _patch(monkeypatch, "rho_shift_closed_sign",
           lambda ctx, c: -scalar(ctx, c) if odd(c) else scalar(ctx, c))
    _patch(monkeypatch, "rho_shift_closed_sign_array", lambda ctx, coords: np.where(
        (coords[:, -len(parity):] == parity).all(axis=1), -1, 1) * array(ctx, coords))


def _flip_cover_sign(monkeypatch, kind, q):
    """The cover sign of the largest parity class (a twist) flipped, where
    ``cover_character`` (the oracle) and ``SumTables`` (the checks) read it."""
    original = cover_class_values
    key = max(original(kind))

    def broken(kind, order=24):
        values = dict(original(kind, order))
        values[key] = -values[key]
        return values

    _patch(monkeypatch, "cover_class_values", broken)


BREAKS = [  # (label, check, break, q)
    ("rho-sign-one-class", "positive_systems", _flip_rho_sign, 3),
    ("delta0-one-gamma", "positive_systems", _shift_delta0(-1), 3),
    ("denominator-noncanonical", "denominator_representatives", _shift_noncanonical_denominator, 3),
    ("conjugate-off-by-one", "packet_conjugation", _conjugate_off_by_one, 3),
    ("cover-sign-one-twist", "lift_independence_formula", _flip_cover_sign, 3),
    ("closed-sign-one-class", "rho_shift_unique", _flip_closed_sign, 3),
    ("two-rho-one-class", "rho_shift_unique", _poison_two_rho, 3),
    # kind 1 has no regular character at q = 3
    ("conjugate-one-w-forward", "forward_conjugate", _conjugate_wrong_for_one_w, 5),
    ("conjugate-one-w-rigidity", "rigidity", _conjugate_wrong_for_one_w, 5),
]


# the breaks that the character-free certificate must see: their FAIL records
# come from the per-character loop it falls back to
FALLBACK_BREAKS = ("rho-sign-one-class", "delta0-one-gamma", "cover-sign-one-twist")


@pytest.mark.parametrize("kind,q", [(1, 3), (1, 5), (2, 3), (2, 5)])
def test_flipped_cover_sign_fails_on_twisted_lifts(monkeypatch, kind, q):
    """The certificate and the per-character loop read the sign table the
    tables were built with: a flipped twist sign fails both on the twisted
    lift."""
    ctx = make_context(kind, q)
    chars, _ = _character_pool(kind, q)
    twist = parity_classes(kind, q)[-1]
    parity = (twist.v1, twist.v2) if kind == 1 else twist.v

    def tables():
        return charformula.SumTables(ctx, strongly_regular_coordinates(kind, q), parity=parity)

    intact = tables()
    assert intact.certify()
    assert all(intact.first_mismatch(chi) is None for chi in chars)
    _flip_cover_sign(monkeypatch, kind, q)
    broken = tables()
    assert not broken.certify()
    assert any(broken.first_mismatch(chi) is not None for chi in chars)


@pytest.mark.parametrize("kind", [1, 2])
@pytest.mark.parametrize("label,name,apply,q", BREAKS, ids=[b[0] for b in BREAKS])
def test_break_fails_both_with_the_same_witness(monkeypatch, certificates, label, name, apply, q,
                                                kind):
    params = _params(kind, q)
    apply(monkeypatch, kind, q)
    got, want = _both(name, params)
    assert got[0] == "FAIL", label
    assert got == want
    if label in FALLBACK_BREAKS:
        assert False in certificates


SPLIT_BREAKS = {"sign": _flip_odd_parity_sign, "delta0": _shift_delta0(-1)}


def _scalar_split_witness(kind, q):
    """The first (gamma outer, twist inner) pair whose combined denominator
    differs from delta0 plus the closed-form sign, read through the scalar
    forms as the breaks leave them, or None."""
    ctx = make_context(kind, q)
    for gamma in iter_strongly_regular(kind, q):
        for tw in parity_classes(kind, q):
            lift = coinv_mul(lift_of_rational(kind, q, gamma), tw)
            combined = weyl_denominator_exponent(ctx, canonical_rep(lift))
            sign = 2 if rho_shift_closed_sign(ctx, lift) < 0 else 0
            split = (delta0_eta_exponent(ctx, gamma) + sign) % 4
            if combined != split:
                return {"gamma": str(gamma), "twist": str(tw),
                        "combined": combined, "split": split}
    return None


@pytest.mark.parametrize("kind,q,fault", [(1, 3, "sign"), (2, 5, "sign"), (2, 17, "delta0")])
def test_split_vs_combined_fails_with_the_scalar_witness(monkeypatch, kind, q, fault):
    """A closed-form sign broken on one parity class, or the split
    denominator shifted at the last gamma: the array check FAILs with the
    witness of the scalar loop under the same fault."""
    SPLIT_BREAKS[fault](monkeypatch, kind, q)
    expected = _scalar_split_witness(kind, q)
    assert expected is not None
    assert driver.check_split_vs_combined(_params(kind, q)) == ("FAIL", expected, {})


def test_zero_sum_break_still_passes(monkeypatch, certificates):
    """At kind 1, q = 5 every pooled character's theta vanishes on the
    first strongly regular element.  A denominator turned by a quarter
    there changes the exponent multisets but not the sums (zero), so
    neither side may FAIL."""
    params = _params(1, 5)
    ctx = _context_from_params(params)
    tables = charformula.SumTables(ctx, strongly_regular_coordinates(1, 5),
                                   labels=(weyl_identity(1),))
    chars, _ = _character_pool(1, 5, limit=6)
    _shift_delta0(0, by=1)(monkeypatch, 1, 5)
    roots = positive_system_contexts(1)[0][1]
    assert not charformula.same_terms(tables.theta_keys(), tables.theta_keys(roots))
    for chi in chars:
        lhs, rhs = tables.theta_exponents(chi), tables.theta_exponents(chi, roots)
        differs = (np.sort(lhs, axis=-1) != np.sort(rhs, axis=-1)).any(axis=-1)[:, 0]
        assert differs.tolist() == [True] + [False] * (len(tables.gamma_coords) - 1)
        assert not charformula.unequal_mask(ctx.ambient_order, lhs, rhs).any()
    got, want = _both("positive_systems", params)
    assert False in certificates  # the PASS comes from the exact per-character loop
    assert got == want
    assert got[0] == "PASS"


CERTIFIED_CHECKS = ("formula_equals_orbit_sum", "positive_systems", "lift_independence_formula")


def test_certified_checks_need_no_per_character_loop(monkeypatch):
    """The identity checks that compare summation terms give the same
    records at q = 3, 5, 7 and 9 with the per-character comparisons made
    to raise: the default campaign takes the certified path."""
    grid = [_params(kind, q, branch) for q in (3, 5, 7, 9) for kind in (1, 2)
            for branch in (1, -1)]
    want = [driver.REGISTRY[name].check(dict(p)) for name in CERTIFIED_CHECKS for p in grid]

    def forbidden(*args, **kwargs):
        raise AssertionError("per-character comparison called")

    monkeypatch.setattr(charformula.SumTables, "first_mismatch", forbidden)
    for module in (charformula, driver):
        for name in ("first_unequal_sum", "unequal_mask"):
            monkeypatch.setattr(module, name, forbidden)
    got = [driver.REGISTRY[name].check(dict(p)) for name in CERTIFIED_CHECKS for p in grid]
    assert got == want
    assert all(record[0] == "PASS" for record in got)


# ---------------------------------------------------------------------------
# no record depends on the block size

GRID_CHECKS = ("split_vs_combined", "rho_shift_unique", "denominator_representatives",
               "norm_consistency", "pair_quad_roundtrip")
# (break label, check, break or None, kind, q, eta branch)
BLOCK_RUNS = (
    [("intact", name, None, kind, q, branch) for name in GRID_CHECKS for q in (3, 5)
     for kind, branch in POINTS]
    + [(fault, "split_vs_combined", apply, kind, q, 1) for fault, apply in SPLIT_BREAKS.items()
       for q in (17, 47) for kind in (1, 2)]
    + [("two-rho", "rho_shift_unique", _poison_two_rho, kind, 5, 1) for kind in (1, 2)]
    + [("noncanonical", "denominator_representatives", _shift_noncanonical_denominator, kind, 5, 1)
       for kind in (1, 2)]
)


def _checked_grid(monkeypatch, name, params):
    """The check's record, and the (rows, bytes per row) of the grid it
    handed to ``driver._blocks``."""
    grids, walker = [], driver._blocks

    def spy(count, row_bytes):
        grids.append((count, row_bytes))
        return walker(count, row_bytes)

    monkeypatch.setattr(driver, "_blocks", spy)
    record = driver.REGISTRY[name].check(dict(params))
    monkeypatch.setattr(driver, "_blocks", walker)
    (grid,) = grids
    return record, grid


@pytest.mark.parametrize("label,name,apply,kind,q,branch", BLOCK_RUNS,
                         ids=[f"{r[1]}-{r[0]}-k{r[3]}-q{r[4]}-b{r[5]}" for r in BLOCK_RUNS])
def test_records_do_not_depend_on_the_block_size(monkeypatch, label, name, apply, kind, q,
                                                 branch):
    """A grid check gives the same record, FAIL witness included, at the
    default ``BLOCK_BYTES`` and at a budget of just under a third of its
    grid, which splits the grid into four blocks or more."""
    if apply is not None:
        apply(monkeypatch, kind, q)
    params = _params(kind, q, branch)
    want, (count, row_bytes) = _checked_grid(monkeypatch, name, params)
    assert want[0] == ("PASS" if apply is None else "FAIL")
    monkeypatch.setattr(driver, "BLOCK_BYTES", row_bytes * max(1, count // 3) - 1)
    assert len(list(driver._blocks(count, row_bytes))) >= 4
    assert driver.REGISTRY[name].check(dict(params)) == want


@pytest.mark.parametrize("name", ["split_vs_combined", "rho_shift_unique"])
@pytest.mark.parametrize("kind", [1, 2])
def test_tower_grids_fit_one_block(monkeypatch, name, kind):
    """At the default budget the grids of the benchmark's tower workload,
    q = 47 the largest, take one block each."""
    record, grid = _checked_grid(monkeypatch, name, _params(kind, 47))
    assert record[0] == "PASS"
    assert len(list(driver._blocks(*grid))) == 1


# ---------------------------------------------------------------------------
# the campaign needs none of the scalar evaluators

GOLDEN = Path(__file__).resolve().parent / "golden"
SCALAR_PATHS = ("theta", "orbit_character_sum", "packet", "weyl_denominator_exponent",
                "denominator_factors", "_two_rho_eta_exponent")
SCALAR_EVALUATORS = [((charformula, driver, uniqueness), SCALAR_PATHS),
                     ((characters.DepthZeroCharacter, characters.CoverCharacter),
                      ("eval_exponent",)),
                     # the tables read the kind's cover signs themselves
                     ((characters, charformula, driver), ("cover_character",))]
SCALAR_PAIR_MODEL = [((driver, tori), ("quad_from_pair", "pair_from_quad", "quad_galois",
                                        "pair_galois", "pair_norm", "project_to_coinvariants"))]
# the regular locus, the lifts and the closed-form rho-shift sign as objects
# (rebound in ``tori`` too, where all but the sign are defined, so that a
# local import inside a check cannot reach them)
SCALAR_OBJECTS = [((charformula, driver, tori), ("iter_strongly_regular", "enumerate_coinvariants",
                                                 "lift_of_rational", "coinv_mul",
                                                 "rho_shift_closed_sign")),
                  # the characters are the pool's exponent rows, conjugated as rows
                  ((characters, driver, uniqueness), ("is_regular", "weyl_conjugate",
                                                      "enumerate_characters",
                                                      "enumerate_regular_characters"))]
# the pinning is built and verified on arrays; the SpMatrix products are its oracle
SCALAR_PINNING = [((dualgroup,), ("sp_mul", "sp_det"))]
# (argv, expected record count or None to compare with the golden report, forbidden paths)
CAMPAIGNS = {
    "identity": (["identity", "--q", "3,5", "--kind", "both", "--eta-branch", "both"], 21,
                 SCALAR_EVALUATORS + SCALAR_OBJECTS + SCALAR_PINNING),
    "all": (["all", "--jobs", "1"], None, SCALAR_EVALUATORS + SCALAR_OBJECTS + SCALAR_PINNING),
    "all-pair-model": (["all", "--jobs", "1"], None, SCALAR_PAIR_MODEL),
}


def _forbid(monkeypatch, paths):
    def forbidden(*args, **kwargs):
        raise AssertionError("scalar path called")

    # rebuild the pool and the pinning under the guard
    tori.clear_tables()
    for cache in (dualgroup.build_pinning, cover_class_values):
        cache.cache_clear()

    for owners, names in paths:
        for name in names:
            # a misspelled or deleted name would be added, not guarded
            assert any(hasattr(owner, name) for owner in owners), name
            for owner in owners:
                monkeypatch.setattr(owner, name, forbidden, raising=False)


@pytest.mark.parametrize("argv,count,paths", CAMPAIGNS.values(), ids=CAMPAIGNS.keys())
def test_identity_campaign_runs_without_the_scalar_paths(monkeypatch, tmp_path, argv, count,
                                                         paths):
    _forbid(monkeypatch, paths)
    assert main([*argv, "--out", str(tmp_path)]) == 0
    report = (tmp_path / "report.json").read_text()
    if count is None:
        assert report == (GOLDEN / "report.json").read_text()
        return
    records = json.loads(report)["checks"]
    assert len(records) == count
    assert all(r["outcome"] == "PASS" for r in records)


def test_tower_tasks_run_without_the_object_paths(monkeypatch, tmp_path):
    """The twelve tasks of the benchmark's tower workload (q = 27 and 47),
    built by its own ``tower_tasks``, give the same records with the
    object enumerators made to raise."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"
    spec = importlib.util.spec_from_file_location("perfbench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    tasks = child.tower_tasks(driver, 0, str(tmp_path / "cache"))
    assert len(tasks) == 12
    want = [driver.run_task(task)[0] for task in tasks]
    _forbid(monkeypatch, SCALAR_OBJECTS)
    got = [driver.run_task(task)[0] for task in tasks]
    assert got == want
    assert all(record["outcome"] == "PASS" for record in got)
