import json

import numpy as np
import pytest

from depthzero import characters, tori
from depthzero.characters import (
    CoverCharacter,
    DepthZeroCharacter,
    EquivarianceError,
    InertiaDatum,
    character_from_descriptor,
    character_from_inertia,
    character_to_descriptor,
    check_equivariance,
    conjugate_rows,
    cover_character,
    enumerate_characters,
    enumerate_inertia_data,
    enumerate_regular_characters,
    is_regular,
    regular_exponent_rows,
    value_order,
    weyl_conjugate,
)
from depthzero.tori import (
    KindMismatchError,
    T1Rational,
    T2Rational,
    coinv_mul,
    enumerate_coinvariants,
    iter_rational,
    parity_classes,
    rational_weyl_group,
    t1_coinv,
    t2_coinv,
    weyl_apply,
    weyl_inverse,
    weyl_matrix,
)

Q = 3


# ---------------------------------------------------------------------------
# inertia data


@pytest.mark.parametrize("kind,total", [(1, 16), (2, 10)])
def test_inertia_data_biject_with_characters(kind, total):
    data = enumerate_inertia_data(kind, Q)
    assert len(data) == total
    chars = [character_from_inertia(d) for d in data]
    # bijection, detected by evaluation on every rational element
    tables = {
        tuple(c.eval_exponent(g) for g in iter_rational(kind, Q)) for c in chars
    }
    assert len(tables) == total
    all_tables = {
        tuple(c.eval_exponent(g) for g in iter_rational(kind, Q))
        for c in enumerate_characters(kind, Q)
    }
    assert tables == all_tables


def test_trivial_datum_gives_trivial_character():
    for kind in (1, 2):
        chi = character_from_inertia(InertiaDatum(kind, Q, 0, 0))
        assert chi == DepthZeroCharacter(kind, Q, (0, 0) if kind == 1 else (0,))


def test_non_equivariant_rejected():
    with pytest.raises(EquivarianceError):
        character_from_inertia(InertiaDatum(1, Q, 1, 0))
    with pytest.raises(EquivarianceError):
        check_equivariance(InertiaDatum(2, Q, 1, 1))


# one call per guard of ``characters``: a rational element of the other
# torus, then a datum off the mu-line, which only a disabled equivariance
# check lets through
GUARDED_CALLS = (
    lambda: DepthZeroCharacter(1, Q, (1, 2)).eval_exponent(T2Rational(Q, 1)),
    lambda: DepthZeroCharacter(2, Q, (1,)).eval_exponent(T1Rational(Q, 1, 1)),
    lambda: character_from_inertia(InertiaDatum(1, Q, 1, 0)),
    lambda: character_from_inertia(InertiaDatum(2, Q, 1, 0)),
)


def test_guards_raise_named_errors(monkeypatch, run_optimized):
    """Each guarded call raises its named error, also with asserts stripped."""
    monkeypatch.setattr(characters, "check_equivariance", lambda datum: None)
    expected = [KindMismatchError, KindMismatchError, EquivarianceError, EquivarianceError]
    for call, error in zip(GUARDED_CALLS, expected, strict=True):
        with pytest.raises(error):
            call()
    got = run_optimized("""
import json
from depthzero import characters
from test_characters import GUARDED_CALLS
characters.check_equivariance = lambda datum: None
raised = []
for call in GUARDED_CALLS:
    try:
        call()
        raised.append(None)
    except (characters.KindMismatchError, characters.EquivarianceError) as exc:
        raised.append(str(exc))
print(json.dumps(raised))
""")
    assert got == [
        "a kind-1 character cannot evaluate T2Rational(q=3, k=1)",
        "a kind-2 character cannot evaluate T1Rational(q=3, k1=1, k2=1)",
        "datum InertiaDatum(kind=1, q=3, s1=1, s2=0) does not land on the mu-line",
        "datum InertiaDatum(kind=2, q=3, s1=1, s2=0) does not land on the mu-line",
    ]


@pytest.mark.parametrize("kind,word", [(1, ""), (1, "a"), (2, "ba"), (2, "abab")])
def test_equivariance_reads_the_elliptic_word(monkeypatch, kind, word):
    """The dual action is the contragredient of the Frobenius's Weyl
    element: under another element the solved data are refused."""
    data = enumerate_inertia_data(kind, Q)
    monkeypatch.setitem(tori.ELLIPTIC_WORD, kind, word)
    with pytest.raises(EquivarianceError):
        for datum in data:
            check_equivariance(datum)


# ---------------------------------------------------------------------------
# depth-zero characters and regularity


def test_value_orders():
    assert value_order(1, 3) == 4
    assert value_order(2, 3) == 20
    assert value_order(1, 7) == 8


def test_regularity_kind2_orbit():
    chi = DepthZeroCharacter(2, 3, (1,))
    orbit = {weyl_conjugate(chi, w).exponents[0] for w in rational_weyl_group(2)}
    assert orbit == {1, 3, 9, 7}
    assert is_regular(chi)
    assert not is_regular(DepthZeroCharacter(2, 3, (0,)))
    assert not is_regular(DepthZeroCharacter(1, 3, (0, 0)))


def test_kind1_q3_has_no_regular_characters():
    # the full dihedral group acts on the 16 characters with orbit sizes
    # 1,1,2,4,4,4: no free orbit exists at q = 3
    assert enumerate_regular_characters(1, 3) == []
    assert len(enumerate_regular_characters(1, 5)) == 8


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 25, 27, 47])
@pytest.mark.parametrize("kind", [1, 2])
def test_pool_is_the_regularity_filter(kind, q):
    """The pool of exponent rows holds exactly the characters that pass
    ``is_regular``, in ``enumerate_characters`` order, and is read-only."""
    want = [chi for chi in enumerate_characters(kind, q) if is_regular(chi)]
    rows = regular_exponent_rows(kind, q)
    assert rows.dtype == np.int64 and not rows.flags.writeable
    assert [DepthZeroCharacter(kind, q, tuple(r)) for r in rows.tolist()] == want
    assert enumerate_regular_characters(kind, q) == want


def test_pool_reads_no_rebound_name(monkeypatch):
    """The cached pool is built without the per-character oracle or the
    row conjugation the checks read, so a test that rebinds
    ``weyl_conjugate``, ``conjugate_rows`` or ``is_regular`` cannot fill the
    cache with its break.  The cached Weyl matrices it is built from are
    read-only, so no caller can write a break into them either."""
    want = [enumerate_regular_characters(kind, 5) for kind in (1, 2)]

    def forbidden(*args, **kwargs):
        raise AssertionError("per-character oracle called")

    for name in ("weyl_conjugate", "conjugate_rows", "is_regular"):
        monkeypatch.setattr(characters, name, forbidden)
    tori.clear_tables()
    assert [enumerate_regular_characters(kind, 5) for kind in (1, 2)] == want
    for kind, cls in ((1, T1Rational), (2, T2Rational)):
        for w in rational_weyl_group(kind):
            mat, moduli = weyl_matrix(5, w, cls)
            assert weyl_matrix(5, w, cls)[0] is mat
            for array in (mat, moduli):
                with pytest.raises(ValueError):
                    array[0] += 1


@pytest.mark.parametrize("q", [3, 5, 7])
@pytest.mark.parametrize("kind", [1, 2])
def test_conjugate_rows_match_weyl_conjugate(kind, q):
    """The row conjugation against the per-character oracle, on one row and
    on a block, in ``rational_weyl_group`` order."""
    chars = list(enumerate_characters(kind, q))
    block = np.array([chi.exponents for chi in chars])
    got = conjugate_rows(kind, q, block)
    group = rational_weyl_group(kind)
    assert got.shape == (len(group), *block.shape) and got.dtype == np.int64
    for i, w in enumerate(group):
        assert [tuple(r) for r in got[i].tolist()] == [
            weyl_conjugate(chi, w).exponents for chi in chars]
    np.testing.assert_array_equal(conjugate_rows(kind, q, chars[-1].exponents), got[:, -1])


def test_conjugation_is_action():
    for kind in (1, 2):
        group = rational_weyl_group(kind)
        for chi in list(enumerate_characters(kind, Q))[:6]:
            for w in group:
                back = weyl_conjugate(weyl_conjugate(chi, w), weyl_inverse(w))
                assert back == chi


def test_conjugation_matches_pointwise_definition():
    for kind in (1, 2):
        vo = value_order(kind, Q)
        for chi in list(enumerate_characters(kind, Q))[:6]:
            for w in rational_weyl_group(kind):
                moved = weyl_conjugate(chi, w)
                for gamma in iter_rational(kind, Q):
                    expected = chi.eval_exponent(weyl_apply(Q, weyl_inverse(w), gamma))
                    assert moved.eval_exponent(gamma) % vo == expected % vo


# ---------------------------------------------------------------------------
# cover characters


def test_cover_values_on_kernel_classes():
    chi = DepthZeroCharacter(1, Q, (1, 2))
    cov = cover_character(chi)
    vo = value_order(1, Q)
    assert cov.eval_exponent(t1_coinv(Q, 0, 0, 1, 0)) == 0
    assert cov.eval_exponent(t1_coinv(Q, 0, 0, 0, 1)) == vo // 2
    assert cov.eval_exponent(t1_coinv(Q, 0, 0, 1, 1)) == vo // 2
    cov2 = cover_character(DepthZeroCharacter(2, Q, (1,)))
    assert cov2.eval_exponent(t2_coinv(Q, 0, 1)) == value_order(2, Q) // 2


def test_cover_restricts_to_base_through_norm():
    # on valuation-zero classes the value is the base at the norm
    from depthzero.tori import lift_of_rational

    for kind in (1, 2):
        for chi in list(enumerate_characters(kind, Q))[:8]:
            cov = cover_character(chi)
            for gamma in iter_rational(kind, Q):
                lift = lift_of_rational(kind, Q, gamma)
                assert cov.eval_exponent(lift) == chi.eval_exponent(gamma)


@pytest.mark.parametrize("kind", [1, 2])
def test_cover_multiplicative_full_enumeration_q3(kind):
    chi = list(enumerate_characters(kind, Q))[3]
    cov = cover_character(chi)
    vo = value_order(kind, Q)
    classes = list(enumerate_coinvariants(kind, Q))
    for a in classes:
        for b in classes:
            assert (
                cov.eval_exponent(coinv_mul(a, b))
                == (cov.eval_exponent(a) + cov.eval_exponent(b)) % vo
            )


def test_cover_multiplicative_sampled_q5():
    for kind in (1, 2):
        chi = list(enumerate_characters(kind, 5))[5]
        cov = cover_character(chi)
        vo = value_order(kind, 5)
        classes = list(enumerate_coinvariants(kind, 5))[::7]
        for a in classes:
            for b in classes:
                assert (
                    cov.eval_exponent(coinv_mul(a, b))
                    == (cov.eval_exponent(a) + cov.eval_exponent(b)) % vo
                )


def test_genuineness_kind1():
    # nontrivial on the cover kernel, trivial on the class of (pi, 1),
    # so the quotient by that class is well-defined and still genuine
    cov = cover_character(DepthZeroCharacter(1, Q, (0, 0)))
    vo = value_order(1, Q)
    assert cov.eval_exponent(t1_coinv(Q, 0, 0, 1, 0)) == 0
    kernel_values = {cov.eval_exponent(c) for c in parity_classes(1, Q)}
    assert kernel_values == {0, vo // 2}


def test_cover_conjugation_commutes_with_lifting():
    """Weyl conjugation moves only the base character and the cover signs
    are the kind's, so one sign table serves a whole conjugation orbit."""
    for kind in (1, 2):
        for chi in list(enumerate_characters(kind, Q))[:6]:
            signs = cover_character(chi).hvalues
            for w in rational_weyl_group(kind):
                conj = weyl_conjugate(chi, w)
                assert cover_character(conj) == CoverCharacter(conj, signs)


# ---------------------------------------------------------------------------
# serialization


def test_descriptor_roundtrip():
    chi = DepthZeroCharacter(2, 5, (7,))
    desc = character_to_descriptor(chi, eta_branch=-1)
    assert desc == {"kind": 2, "q": 5, "exponents": [7], "eta_branch": "minus"}
    back, branch = character_from_descriptor(desc)
    assert back == chi and branch == -1


def test_json_roundtrip():
    """A descriptor survives a report's JSON: the exponents come back as a
    list, and a descriptor without a branch reads as the plus branch."""
    chi = DepthZeroCharacter(1, 3, (1, 2))
    payload = json.loads(json.dumps(character_to_descriptor(chi), sort_keys=True))
    assert payload["kind"] == 1 and payload["exponents"] == [1, 2]
    back, branch = character_from_descriptor(payload)
    assert back == chi and branch == 1
    del payload["eta_branch"]
    assert character_from_descriptor(payload) == (chi, 1)


def test_exponent_arity_enforced():
    with pytest.raises(ValueError):
        DepthZeroCharacter(1, 3, (1,))
    with pytest.raises(ValueError):
        DepthZeroCharacter(2, 3, (1, 2))
