import random

import numpy as np
import pytest

from depthzero import charformula
from depthzero.characters import (
    DepthZeroCharacter,
    cover_character,
    enumerate_characters,
    enumerate_regular_characters,
    weyl_conjugate,
)
from depthzero.charformula import (
    NotStronglyRegularError,
    RhoShiftError,
    _two_rho_eta_exponent,
    delta0_eta_exponent,
    delta0_eta_exponent_array,
    denominator_factors,
    make_context,
    named_summation_subgroup,
    orbit_character_sum,
    packet,
    positive_system_contexts,
    rho_shift_closed_sign,
    rho_shift_solve,
    theta,
    two_rho_eta_exponent_array,
    weyl_denominator_exponent,
    weyl_denominator_exponent_array,
    weyl_denominator_valuations,
)
from depthzero.ffield import FieldTower, prime_power
from depthzero.localmodel import CancellationError, unit
from depthzero.tori import (
    KindMismatchError,
    T1Coinv,
    T1Rational,
    T2Coinv,
    T2Rational,
    canonical_rep,
    coinv_mul,
    coinvariant_coordinates,
    coinvariant_norm,
    coordinate_array,
    enumerate_coinvariants,
    is_strongly_regular,
    iter_strongly_regular,
    lift_of_rational,
    parity_classes,
    rational_weyl_group,
    t1_coinv,
    t1_rational,
    t2_coinv,
    torus_level,
    weyl_identity,
)


@pytest.fixture(scope="module")
def ctx1():
    return make_context(1, 3)


@pytest.fixture(scope="module")
def ctx2():
    return make_context(2, 3)


def _chars(kind, q, limit=None):
    chars = enumerate_regular_characters(kind, q) or list(enumerate_characters(kind, q))
    return chars[:limit] if limit else chars


# ---------------------------------------------------------------------------
# rho-shift


def test_rho_shift_closed_values(ctx1, ctx2):
    assert rho_shift_closed_sign(ctx1, t1_coinv(3, 0, 0, 0, 1)) == -1
    assert rho_shift_closed_sign(ctx1, t1_coinv(3, 0, 0, 1, 0)) == 1
    assert rho_shift_closed_sign(ctx1, t1_coinv(3, 2, 1, 0, 0)) == 1
    assert rho_shift_closed_sign(ctx2, t2_coinv(3, 0, 1)) == -1
    assert rho_shift_closed_sign(ctx2, t2_coinv(3, 5, 0)) == 1


def test_rho_shift_closed_sign_refuses_the_other_torus(ctx1, ctx2, run_optimized):
    """A coinvariant class of the other torus raises KindMismatchError,
    also with asserts stripped."""
    with pytest.raises(KindMismatchError, match="kind-1 context cannot sign T2Coinv"):
        rho_shift_closed_sign(ctx1, t2_coinv(3, 0, 1))
    with pytest.raises(KindMismatchError, match="kind-2 context cannot sign T1Coinv"):
        rho_shift_closed_sign(ctx2, t1_coinv(3, 0, 0, 0, 1))
    got = run_optimized("""
import json
from depthzero import charformula as cf
from depthzero.tori import t2_coinv
try:
    print(json.dumps(cf.rho_shift_closed_sign(cf.make_context(1, 3), t2_coinv(3, 0, 1))))
except cf.KindMismatchError as exc:
    print(json.dumps(str(exc)))
""")
    assert got == "a kind-1 context cannot sign T2Coinv(q=3, u=0, v=1)"


@pytest.mark.parametrize("kind,q", [(1, 3), (2, 3), (1, 5), (2, 5)])
def test_rho_shift_solver_unique_and_matches_closed(kind, q):
    ctx = make_context(kind, q)
    # the sign array is aligned with the classes in enumeration order
    assert rho_shift_solve(ctx).tolist() == [
        rho_shift_closed_sign(ctx, c) for c in enumerate_coinvariants(kind, q)]


@pytest.mark.parametrize("kind,q", [(1, 3), (2, 3), (1, 5), (2, 5)])
@pytest.mark.parametrize("branch", [1, -1])
def test_rho_shift_square_is_target_pointwise(kind, q, branch):
    # the array target against the scalar oracle on every class and every
    # positive system; the square of a sign character is trivial, and the
    # computed eta(2 rho)(N(.)) is the trivial character on this model
    ctx = make_context(kind, q, eta_branch=branch)
    classes = list(enumerate_coinvariants(kind, q))
    coords = coordinate_array(T1Coinv if kind == 1 else T2Coinv, classes)
    assert np.array_equal(coords, coinvariant_coordinates(kind, q))
    for _name, roots in [("default", None), *positive_system_contexts(kind)]:
        got = two_rho_eta_exponent_array(ctx, coords, roots)
        assert got.tolist() == [_two_rho_eta_exponent(ctx, c, roots) for c in classes]
        assert not got.any()
    assert (rho_shift_solve(ctx) ** 2 == 1).all()


def test_rho_shift_solver_error_paths(monkeypatch):
    import depthzero.charformula as cf

    ctx = make_context(1, 3)
    # an odd zeta_4 exponent can never be the square of a character value,
    # so a poisoned target must abort with the no-solution error
    with monkeypatch.context() as m:
        m.setattr(cf, "two_rho_eta_exponent_array",
                  lambda ctx, coords, positive_roots=None: np.ones(len(coords), dtype=np.int64))
        with pytest.raises(RhoShiftError, match="no rho-shift character exists"):
            cf.rho_shift_solve(ctx)
    # an ambient order of 4 cannot tell the ten unit labels of torus 2 at
    # q = 3 apart (each scales to 0), so every one of them qualifies, and
    # the error names all ten labels
    monkeypatch.setattr(cf, "value_order", lambda kind, q: 1)
    with pytest.raises(RhoShiftError) as err:
        cf.rho_shift_solve(make_context(2, 3))
    assert str(err.value) == (
        f"rho-shift is not unique: 10 candidates {[(u, 1) for u in range(10)]}"
    )



# zeta_4 on the first unit generator of torus 1 at q = 3 (ambient order 4)
_NON_SIGN_ROW = [1, 0, 0, 2]


def test_rho_shift_solver_rejects_non_sign_values(monkeypatch, run_optimized):
    """A rho-shift character with a value other than +-1 raises, also with
    asserts stripped, where it would otherwise be read as -1."""
    import depthzero.charformula as cf

    monkeypatch.setattr(cf, "_rho_shift_character",
                        lambda ctx, positive_roots=None: np.array(_NON_SIGN_ROW))
    with pytest.raises(RhoShiftError, match="rho-shift values must be signs"):
        cf.rho_shift_solve(make_context(1, 3))
    got = run_optimized("""
import json
import numpy as np
from depthzero import charformula as cf
from test_charformula import _NON_SIGN_ROW
cf._rho_shift_character = lambda ctx, positive_roots=None: np.array(_NON_SIGN_ROW)
try:
    cf.rho_shift_solve(cf.make_context(1, 3))
    print(json.dumps(None))
except cf.RhoShiftError as exc:
    print(json.dumps(str(exc)))
""")
    assert got == "rho-shift values must be signs"


# ---------------------------------------------------------------------------
# denominators


def test_denominator_trivial_on_unit_lifts(ctx1, ctx2):
    for ctx, kind in ((ctx1, 1), (ctx2, 2)):
        for gamma in iter_strongly_regular(kind, 3):
            lift = lift_of_rational(kind, 3, gamma)
            assert weyl_denominator_exponent(ctx, canonical_rep(lift)) == 0


def test_denominator_shift_valuation_profiles(ctx1, ctx2):
    # the uniformizer shift contributes eta(pi)^7 resp. eta(pi)^6
    gamma1 = next(iter_strongly_regular(1, 3))
    lift1 = coinv_mul(lift_of_rational(1, 3, gamma1), t1_coinv(3, 0, 0, 1, 1))
    vals1 = [f.val for f in denominator_factors(ctx1, canonical_rep(lift1))]
    assert vals1 == [1, 1, 2, 3] and sum(vals1) == 7
    assert weyl_denominator_exponent(ctx1, canonical_rep(lift1)) == 2

    gamma2 = next(iter_strongly_regular(2, 3))
    lift2 = coinv_mul(lift_of_rational(2, 3, gamma2), t2_coinv(3, 0, 1))
    vals2 = [f.val for f in denominator_factors(ctx2, canonical_rep(lift2))]
    assert vals2 == [1, 2, 1, 2] and sum(vals2) == 6
    assert weyl_denominator_exponent(ctx2, canonical_rep(lift2)) == 2


def test_denominator_partial_shift_kind1(ctx1):
    # shifting only the second slot flips the sign through eta(pi)^3
    gamma = next(iter_strongly_regular(1, 3))
    base = lift_of_rational(1, 3, gamma)
    shifted = coinv_mul(base, t1_coinv(3, 0, 0, 0, 1))
    vals = [f.val for f in denominator_factors(ctx1, canonical_rep(shifted))]
    assert sum(vals) == 3
    assert weyl_denominator_exponent(ctx1, canonical_rep(shifted)) == 2
    # first-slot shift contributes eta(pi)^4 = +1
    shifted2 = coinv_mul(base, t1_coinv(3, 0, 0, 1, 0))
    vals2 = [f.val for f in denominator_factors(ctx1, canonical_rep(shifted2))]
    assert sum(vals2) == 4
    assert weyl_denominator_exponent(ctx1, canonical_rep(shifted2)) == 0


def test_denominator_representative_independence(ctx1, ctx2):
    import random

    rng = random.Random(7)
    for ctx, kind in ((ctx1, 1), (ctx2, 2)):
        q = 3
        n = q + 1 if kind == 1 else q * q + 1
        group = q ** (2 * kind) - 1
        for c in enumerate_coinvariants(kind, q):
            from depthzero.tori import coinvariant_norm, is_strongly_regular

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


def test_split_equals_combined_on_all_lifts(ctx1, ctx2):
    for ctx, kind in ((ctx1, 1), (ctx2, 2)):
        for gamma in iter_strongly_regular(kind, 3):
            for tw in parity_classes(kind, 3):
                lift = coinv_mul(lift_of_rational(kind, 3, gamma), tw)
                combined = weyl_denominator_exponent(ctx, canonical_rep(lift))
                split = (
                    delta0_eta_exponent(ctx, gamma)
                    + (2 if rho_shift_closed_sign(ctx, lift) < 0 else 0)
                ) % 4
                assert combined == split


def test_denominator_cancellation_surfaces(ctx1):
    from depthzero.localmodel import CancellationError

    degenerate = t1_rational(3, 0, 1)  # first root value is 1
    lift = lift_of_rational(1, 3, degenerate)
    with pytest.raises(CancellationError):
        weyl_denominator_exponent(ctx1, canonical_rep(lift))
    with pytest.raises(CancellationError):
        delta0_eta_exponent(ctx1, degenerate)
    with pytest.raises(CancellationError):
        weyl_denominator_exponent_array(ctx1, coordinate_array(T1Coinv, [lift]))
    with pytest.raises(CancellationError):
        delta0_eta_exponent_array(ctx1, coordinate_array(T1Rational, [degenerate]))


_CLASSES = {1: (T1Rational, T1Coinv), 2: (T2Rational, T2Coinv)}


@pytest.mark.parametrize("q", [3, 5, 7, 9])
@pytest.mark.parametrize("kind,branch", [(1, 1), (2, 1), (2, -1)])
def test_array_denominators_equal_scalar(q, kind, branch):
    """Both denominator forms on every (gamma, twist) of split-vs-combined."""
    ctx = make_context(kind, q, eta_branch=branch)
    rational_cls, coinv_cls = _CLASSES[kind]
    gammas = list(iter_strongly_regular(kind, q))
    lifts = [coinv_mul(lift_of_rational(kind, q, g), tw)
             for g in gammas for tw in parity_classes(kind, q)]
    combined = weyl_denominator_exponent_array(ctx, coordinate_array(coinv_cls, lifts))
    assert combined.tolist() == [weyl_denominator_exponent(ctx, canonical_rep(x))
                                 for x in lifts]
    assert set(combined.tolist()) == {0, 2}  # twisted lifts shift by 2
    delta0 = delta0_eta_exponent_array(ctx, coordinate_array(rational_cls, gammas))
    assert delta0.tolist() == [delta0_eta_exponent(ctx, g) for g in gammas]
    for _, roots in positive_system_contexts(kind):
        moved = delta0_eta_exponent_array(ctx, coordinate_array(rational_cls, gammas), roots)
        assert moved.tolist() == [delta0_eta_exponent(ctx, g, roots) for g in gammas]


def _scalar_factor_valuations(ctx, rep):
    """The valuation of each scalar denominator factor, None where one cancels."""
    try:
        return [f.val for f in denominator_factors(ctx, rep)]
    except CancellationError:
        return None


@pytest.mark.parametrize("q", [3, 5, 7, 9, 25, 27])
@pytest.mark.parametrize("kind", [1, 2])
def test_denominator_valuations_equal_scalar_factors(q, kind):
    """Column by column, the array valuations are those of the scalar
    factors, and the array form cancels exactly where the scalar one does:
    on every coinvariant class (canonical rows cancel on the classes whose
    norm is not strongly regular), and on non-canonical random rows, any
    dlog and valuations in [-3, 3], where a permutation of the columns
    would show."""
    ctx = make_context(kind, q)
    classes = list(enumerate_coinvariants(kind, q))
    expected = [_scalar_factor_valuations(ctx, canonical_rep(c)) for c in classes]
    keep = np.array([e is not None for e in expected])
    assert keep.tolist() == [is_strongly_regular(kind, q, coinvariant_norm(c)) for c in classes]
    assert not keep.all()
    coords = coordinate_array(_CLASSES[kind][1], classes)

    rng = random.Random(q)
    order = q ** (2 * kind) - 1
    rank = 2 if kind == 1 else 1
    rows = np.array([[rng.randrange(order) for _ in range(rank)]
                     + [rng.randrange(-3, 4) for _ in range(rank)]
                     for _ in range(200)], dtype=np.int64)
    for row in rows.tolist():
        units = [unit(q, 2 * kind, d, v) for d, v in zip(row[:rank], row[rank:])]
        expected.append(_scalar_factor_valuations(ctx, tuple(units) if kind == 1 else units[0]))
    coords = np.concatenate([coords, rows])
    keep = np.array([e is not None for e in expected])
    vals = weyl_denominator_valuations(ctx, coords[keep])
    assert vals.shape == (keep.sum(), 4)
    assert vals.tolist() == [e for e in expected if e is not None]
    assert len({tuple(v) for v in vals.tolist()}) > 1
    for row in coords[~keep]:
        with pytest.raises(CancellationError):
            weyl_denominator_valuations(ctx, row[None])


def _valuations_or_cancellation(ctx, row):
    try:
        return weyl_denominator_valuations(ctx, np.array([row], dtype=np.int64)).tolist()[0]
    except CancellationError:
        return "cancels"


def _kind2_factor_valuations_by_definition(q, row):
    """The valuations of the kind-2 factors x - sigma^2(x) of the row (u, v),
    in Python integers: x runs over t0, t1 + t2, t1, t0 + t1, t_j = sigma^j(w),
    with dlogs u times 1, q + q^2, q, 1 + q mod q^4 - 1 and valuations v
    times 1, 2, 1, 2; a factor cancels where sigma^2 fixes the dlog of x."""
    order = q**4 - 1
    u, v = row
    dlogs = [u * c % order for c in (1, q + q * q, q, 1 + q)]
    if any(d == d * q * q % order for d in dlogs):
        return "cancels"
    return [v * c for c in (1, 2, 1, 2)]


@pytest.mark.parametrize("q", [251, 1447, 1451, 2003, 4001])
def test_kind2_denominator_valuations_are_exact_up_to_the_int64_bound(q):
    """Past the old cliffs (q = 251 for (q^4 - 1)^2, 1451 for the sigma^2
    products), the regular-locus test gives what x and sigma^2(x) give in
    Python integers: 300 random rows, any dlog and valuations in [-3, 3];
    150 whose dlog is a multiple of q^2 + 1, where every factor cancels;
    and 150 at odd multiples of (q^2 + 1) / 2, where only the second and
    fourth factors (root factors q - 1 and q + 1) cancel."""
    ctx = make_context(2, q)
    rng = random.Random(q)
    n, order = q * q + 1, q**4 - 1
    lifts = 2**61 // order
    rows = [[rng.randrange(-2**62, 2**62), rng.randrange(-3, 4)] for _ in range(300)]
    rows += [[rng.randrange(q * q - 1) * n + rng.randrange(-lifts, lifts) * order, 0]
             for _ in range(150)]
    rows += [[(2 * rng.randrange(q * q - 1) + 1) * (n // 2) + rng.randrange(-lifts, lifts) * order,
              rng.randrange(-3, 4)] for _ in range(150)]
    expected = [_kind2_factor_valuations_by_definition(q, row) for row in rows]
    assert [_valuations_or_cancellation(ctx, row) for row in rows] == expected
    assert expected[300:] == ["cancels"] * 300 and "cancels" not in expected[:300]


@pytest.mark.parametrize("q", [3, 5, 9])
@pytest.mark.parametrize("kind", [1, 2])
def test_scalar_denominators_do_not_depend_on_the_tower_seed(monkeypatch, kind, q):
    """The scalar denominators read valuations and dlog equality only, so
    towers built from different moduli give them the same values on every
    (gamma, twist) of split-vs-combined."""
    ctx = make_context(kind, q)
    moduli, results = [], []
    for seed in (0, 15, 21):  # distinct moduli at every (p, degree) reached
        tower = FieldTower.build(*prime_power(q), seed=seed, max_level=torus_level(kind))
        monkeypatch.setattr(charformula, "_tower", lambda kind, q, tower=tower: tower)
        values = []
        for gamma in iter_strongly_regular(kind, q):
            values.append(delta0_eta_exponent(ctx, gamma))
            for tw in parity_classes(kind, q):
                rep = canonical_rep(coinv_mul(lift_of_rational(kind, q, gamma), tw))
                values.append([f.val for f in denominator_factors(ctx, rep)])
                values.append(weyl_denominator_exponent(ctx, rep))
        moduli.append(tower.modulus)
        results.append(values)
    assert len(set(moduli)) == 3
    assert results[1] == results[0] and results[2] == results[0]


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("kind,branch", [(1, 1), (2, 1), (2, -1)])
def test_array_denominator_on_random_representatives(q, kind, branch):
    """Non-canonical rows: any residue dlog, valuations in [-3, 3]."""
    ctx = make_context(kind, q, eta_branch=branch)
    rng = random.Random(11)
    order = q ** (2 * kind) - 1
    rank = 2 if kind == 1 else 1
    coords = np.array([[rng.randrange(order) for _ in range(rank)]
                       + [rng.randrange(-3, 4) for _ in range(rank)]
                       for _ in range(400)], dtype=np.int64)
    expected = []
    for row in coords.tolist():
        if kind == 1:
            rep = (unit(q, 2, row[0], row[2]), unit(q, 2, row[1], row[3]))
        else:
            rep = unit(q, 4, row[0], row[1])
        try:
            expected.append(weyl_denominator_exponent(ctx, rep))
        except CancellationError:
            expected.append(None)
    keep = np.array([e is not None for e in expected])
    got = weyl_denominator_exponent_array(ctx, coords[keep])
    assert got.tolist() == [e for e in expected if e is not None]
    if not keep.all():
        with pytest.raises(CancellationError):
            weyl_denominator_exponent_array(ctx, coords)


# ---------------------------------------------------------------------------
# the identity


@pytest.mark.parametrize("kind,q", [(1, 3), (2, 3), (1, 5), (2, 5)])
def test_formula_equals_orbit_sum(kind, q):
    ctx = make_context(kind, q)
    for chi in _chars(kind, q):
        cov = cover_character(chi)
        for gamma in iter_strongly_regular(kind, q):
            for w in rational_weyl_group(kind):
                assert theta(ctx, cov, w, gamma) == orbit_character_sum(ctx, chi, w, gamma)


def test_formula_rejects_irregular_elements(ctx1):
    chi = cover_character(DepthZeroCharacter(1, 3, (1, 0)))
    with pytest.raises(NotStronglyRegularError):
        theta(ctx1, chi, weyl_identity(1), t1_rational(3, 0, 0))
    with pytest.raises(NotStronglyRegularError):
        orbit_character_sum(ctx1, DepthZeroCharacter(1, 3, (1, 0)),
                            weyl_identity(1), t1_rational(3, 0, 0))


def test_lift_independence_all_twists(ctx1, ctx2):
    for ctx, kind in ((ctx1, 1), (ctx2, 2)):
        one = weyl_identity(kind)
        for chi in _chars(kind, 3, limit=5):
            cov = cover_character(chi)
            for gamma in iter_strongly_regular(kind, 3):
                base = theta(ctx, cov, one, gamma)
                for tw in parity_classes(kind, 3):
                    assert theta(ctx, cov, one, gamma, parity=tw) == base


def test_eta_branch_independence():
    for branch in (1, -1):
        ctx = make_context(2, 3, eta_branch=branch)
        for chi in _chars(2, 3):
            cov = cover_character(chi)
            for gamma in iter_strongly_regular(2, 3):
                for w in rational_weyl_group(2):
                    assert theta(ctx, cov, w, gamma) == orbit_character_sum(ctx, chi, w, gamma)


def test_positive_system_independence(ctx1, ctx2):
    for ctx, kind in ((ctx1, 1), (ctx2, 2)):
        one = weyl_identity(kind)
        for name, roots in positive_system_contexts(kind):
            assert set(rho_shift_solve(ctx, roots).tolist()) <= {1, -1}
            for chi in _chars(kind, 3, limit=4):
                cov = cover_character(chi)
                for gamma in iter_strongly_regular(kind, 3):
                    assert theta(ctx, cov, one, gamma, positive_roots=roots) == theta(
                        ctx, cov, one, gamma
                    ), name


def test_conjugated_formula_matches_conjugated_character(ctx1, ctx2):
    for ctx, kind in ((ctx1, 1), (ctx2, 2)):
        one = weyl_identity(kind)
        for chi in _chars(kind, 3, limit=4):
            cov = cover_character(chi)
            for w in rational_weyl_group(kind):
                moved = cover_character(weyl_conjugate(chi, w))
                for gamma in iter_strongly_regular(kind, 3):
                    assert theta(ctx, cov, w, gamma) == theta(ctx, moved, one, gamma)


def test_epsilon_constants_scale_both_sides():
    ctx = make_context(2, 3, epsilon_gt=-1)
    chi = _chars(2, 3)[0]
    cov = cover_character(chi)
    gamma = next(iter_strongly_regular(2, 3))
    base = make_context(2, 3)
    w = weyl_identity(2)
    assert orbit_character_sum(ctx, chi, w, gamma) == -orbit_character_sum(base, chi, w, gamma)
    # epsilon_chi scales theta the same way
    ctx_chi = make_context(2, 3)
    ctx_chi.epsilon_chi = -1
    assert theta(ctx_chi, cov, w, gamma) == -theta(base, cov, w, gamma)


# ---------------------------------------------------------------------------
# packets


def test_packet_single_class_with_full_group(ctx2):
    chi = _chars(2, 3)[0]
    pk = packet(ctx2, cover_character(chi))
    assert len(pk.classes) == 1
    assert set(pk.classes[0]) == {w.name for w in rational_weyl_group(2)}
    assert "summation" in pk.caveat


def test_packet_classes_with_trivial_subgroup():
    ctx = make_context(2, 3, summation=named_summation_subgroup(2, "trivial"))
    chi = _chars(2, 3)[0]
    pk = packet(ctx, cover_character(chi))
    # oracle: distinct conjugate characters on the strongly regular set
    gammas = list(iter_strongly_regular(2, 3))
    distinct = len({
        tuple(weyl_conjugate(chi, w).eval_exponent(g) for g in gammas)
        for w in rational_weyl_group(2)
    })
    assert len(pk.classes) == distinct


def test_packet_proper_subgroup_kind1():
    rotation = named_summation_subgroup(1, "rotation")
    assert len(rotation) == 4
    ctx = make_context(1, 5, summation=rotation)
    chi = _chars(1, 5)[0]
    pk = packet(ctx, cover_character(chi))
    # labels in the same right coset of the summation subgroup coincide
    for cls in pk.classes:
        assert len(cls) % 1 == 0
    assert sum(len(c) for c in pk.classes) == 8


def test_summation_subgroup_validation():
    from depthzero.tori import weyl_group

    nonrational = tuple(w for w in weyl_group(2) if w.name in ("", "a"))
    with pytest.raises(ValueError):
        make_context(2, 3, summation=nonrational)
