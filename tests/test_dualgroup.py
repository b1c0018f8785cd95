import itertools
import random
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthzero import cyclo, driver, dualgroup
from depthzero.cyclo import CycInt, root_of_unity
from depthzero.dualgroup import (
    ALL_ROOTS,
    LONG_SIMPLE,
    POSITIVE_ROOTS,
    SHORT_SIMPLE,
    Monomial,
    Pinning,
    PinningError,
    SpMatrix,
    as_monomial,
    build_pinning,
    coroot_conjugation_check,
    cover_class_values,
    coxeter_lift_fourth_check,
    dual_torus_conjugate,
    lift_independence_check,
    longest_lift_square_check,
    reflection_sign_table,
    reflection_square_check,
    sample_torsion_exponents,
    sp_det,
    sp_eq,
    sp_mul,
    twisted_frobenius_power,
    weyl_action_checks,
)


@pytest.fixture(scope="module")
def pin():
    return build_pinning(24)


def test_pinning_constructs_and_verifies(pin):
    # construction itself runs the symplectic/Cartan/coroot checks
    assert pin.order == 24
    one = CycInt.one(24)
    for root in ALL_ROOTS:
        x = pin.root_subgroup(root, one)
        assert pin.is_symplectic(x)
        assert sp_det(x) == one


def test_root_subgroup_at_zero_is_identity(pin):
    z = CycInt.zero(24)
    for root in ALL_ROOTS:
        assert sp_eq(pin.root_subgroup(root, z), pin.identity)


def test_reflection_geometry(pin):
    assert Pinning.reflect_root(LONG_SIMPLE, SHORT_SIMPLE) == (1, 1)
    assert Pinning.reflect_root(SHORT_SIMPLE, (1, 1)) == (1, 1)
    assert Pinning.reflect_root(LONG_SIMPLE, (1, 1)) == SHORT_SIMPLE
    assert Pinning.reflect_root(SHORT_SIMPLE, LONG_SIMPLE) == (1, 2)
    assert Pinning.reflect_root(SHORT_SIMPLE, (1, 2)) == LONG_SIMPLE


def test_reflection_lift_squares(pin):
    assert reflection_square_check(pin)
    # spot-check the simple ones explicitly
    half = pin.order // 2
    for root in (LONG_SIMPLE, SHORT_SIMPLE):
        n = pin.n_elem(root)
        assert sp_eq(sp_mul(n, n), pin.coroot_matrix(root, half))


def test_lifts_normalize_torus(pin):
    for root in POSITIVE_ROOTS:
        conj = dual_torus_conjugate(pin, pin.lifts[root], 3, 7)
        # lands back in the torus (extraction succeeds) and is a lattice map
        assert isinstance(conj, tuple)


def test_coroot_conjugation(pin):
    assert coroot_conjugation_check(pin)


def test_sign_table_and_triple_product(pin):
    table, signed = reflection_sign_table(pin)
    assert all(v in (1, -1) for v in table.values())
    assert signed == -1
    # fixed-root cases are consistent with direct conjugation: sign +1
    assert table[(SHORT_SIMPLE, (1, 1))] in (1, -1)


def test_headline_lift_identities(pin):
    assert longest_lift_square_check(pin)
    assert coxeter_lift_fourth_check(pin)
    # the longest lift is the square of the Coxeter lift
    coxeter = pin.matrix(pin.coxeter)
    assert sp_eq(pin.matrix(pin.longest), sp_mul(coxeter, coxeter))


def test_twisted_power_values(pin):
    half = pin.order // 2
    # torus-1 direction: long_coroot(1) short_coroot(-1)
    assert twisted_frobenius_power(pin, 1, 0, 0) == (0, half)
    assert twisted_frobenius_power(pin, 1, 5, 17) == (0, half)
    # torus-2 direction: the same coroot value, reached by the fourth power
    assert twisted_frobenius_power(pin, 2, 0, 0) == (0, half)
    assert twisted_frobenius_power(pin, 2, 9, 2) == (0, half)
    with pytest.raises(ValueError):
        twisted_frobenius_power(pin, 3, 0, 0)


def test_lift_independence_sampled(pin):
    assert lift_independence_check(pin, 1, count=60, seed=0)
    assert lift_independence_check(pin, 2, count=60, seed=1)


def _torsion_by_brute_force(order):
    """Every (a, b) in (Z/order)^2 of element order 2, 3, 4, 8 or 12."""
    b = np.arange(order)
    return {(a, int(y)) for a in range(order)
            for y in b[np.isin(order // np.gcd(np.gcd(a, b), order), (2, 3, 4, 8, 12))]}


@pytest.mark.parametrize("order,count", [(24, 3000), (2018, 50)])
def test_torsion_sampler_orders(order, count):
    """The sample covers exactly the torsion of the five orders: 167 pairs
    at N = 24, and the 3 elements of order 2 at N = 2 * 1009, where a draw
    from all of mu_N^2 would be accepted with probability 3 / N^2."""
    from math import gcd

    samples = sample_torsion_exponents(order, count, seed=3)
    assert len(samples) == count
    for a, b in samples:
        assert order // gcd(gcd(a, b), order) in (2, 3, 4, 8, 12)
    assert set(samples) == _torsion_by_brute_force(order)


def test_weyl_action_on_dual_torus(pin):
    assert weyl_action_checks(pin)
    # inversion, directly
    assert dual_torus_conjugate(pin, pin.longest, 5, 9) == (19, 15)


def test_extract_coroot_exponents_roundtrip(pin):
    for a, b in ((0, 0), (1, 0), (0, 1), (7, 13), (23, 23)):
        m = pin.matrix(pin.torus(a, b))
        assert pin.torus_exponents(as_monomial(pin, m)) == (a, b)


def test_cover_class_values_both_kinds():
    v1 = cover_class_values(1)
    assert v1 == {(0, 0): 1, (1, 0): 1, (0, 1): -1, (1, 1): -1}
    # multiplicativity of the table
    assert v1[(1, 1)] == v1[(1, 0)] * v1[(0, 1)]
    v2 = cover_class_values(2)
    assert v2 == {0: 1, 1: -1}


def test_products_preserve_form(pin):
    words = [
        sp_mul(pin.n_elem(LONG_SIMPLE), pin.n_elem(SHORT_SIMPLE)),
        sp_mul(pin.matrix(pin.coxeter), pin.n_elem((1, 1))),
        sp_mul(pin.matrix(pin.torus(3, 5)), pin.matrix(pin.longest)),
        sp_mul(pin.root_subgroup((1, 2), root_of_unity(24, 7)), pin.matrix(pin.coxeter)),
    ]
    for m in words:
        assert pin.is_symplectic(m)
        assert sp_det(m) == CycInt.one(24)


def _random_matrix(rng, order, density):
    """A 4x4 matrix whose entries are nonzero with probability ``density``."""
    zero = CycInt.zero(order)
    phi = len(zero.coeffs)

    def entry():
        if rng.random() >= density:
            return zero
        return CycInt(order, tuple(rng.randint(-3, 3) for _ in range(phi)))

    return SpMatrix(order, tuple(tuple(entry() for _ in range(4)) for _ in range(4)))


def _dense_mul(a, b):
    """The triple-loop product, every term formed."""
    zero = CycInt.zero(a.order)
    return SpMatrix(a.order, tuple(
        tuple(sum((a.rows[i][k] * b.rows[k][j] for k in range(4)), zero) for j in range(4))
        for i in range(4)))


def _dense_det(a):
    """The Leibniz sum, every term formed."""
    total = CycInt.zero(a.order)
    for perm in itertools.permutations(range(4)):
        inversions = sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4))
        term = reduce(lambda x, y: x * y, (a.rows[i][perm[i]] for i in range(4)))
        total = total + (-1) ** inversions * term
    return total


@pytest.mark.parametrize("order", [8, 24])
@pytest.mark.parametrize("density", [0.15, 0.4, 1.0])
def test_sparse_products_match_dense(order, density):
    rng = random.Random(order * 100 + int(density * 100))
    for _ in range(6):
        a, b = _random_matrix(rng, order, density), _random_matrix(rng, order, density)
        assert sp_eq(sp_mul(a, b), _dense_mul(a, b))
        assert sp_det(a) == _dense_det(a)


def test_alternate_cyclotomic_order():
    pin8 = build_pinning(8)
    assert longest_lift_square_check(pin8)
    assert coxeter_lift_fourth_check(pin8)
    assert twisted_frobenius_power(pin8, 1, 0, 0) == (0, 4)


# ---------------------------------------------------------------------------
# monomial pairs against the 4x4 matrices they stand for


def _generator(pin, letter):
    """A reflection lift ("n", root) or a torus element ("t", a, b)."""
    if letter[0] == "n":
        return pin.lifts[letter[1]]
    return pin.torus(letter[1], letter[2])


def _letters(order):
    lift = st.tuples(st.just("n"), st.sampled_from(ALL_ROOTS))
    torus = st.tuples(st.just("t"), st.integers(0, order - 1), st.integers(0, order - 1))
    return st.lists(st.one_of(lift, torus), min_size=1, max_size=5)


def _word_mismatches(pin, letters):
    """The operations on the pair of a word whose results differ from
    sp_mul / sp_inverse on its matrices."""
    pairs = [_generator(pin, letter) for letter in letters]
    word = reduce(lambda x, y: x * y, pairs)
    matrix = reduce(sp_mul, [pin.matrix(x) for x in pairs])
    bad = []
    if not sp_eq(pin.matrix(word), matrix):
        bad.append("product")
    if not sp_eq(pin.matrix(word.inverse()), pin.sp_inverse(matrix)):
        bad.append("inverse")
    if word ** -1 != word.inverse():
        bad.append("power -1")
    power = pin.identity
    for k in range(5):
        if not sp_eq(pin.matrix(word ** k), power):
            bad.append(f"power {k}")
        power = sp_mul(power, matrix)
    return bad


@pytest.mark.parametrize("order", [8, 24])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_monomial_operations_match_matrices(order, data):
    pin = build_pinning(order)
    assert _word_mismatches(pin, data.draw(_letters(order))) == []


def test_monomial_roundtrip_through_matrices(pin):
    for letter in [("n", root) for root in ALL_ROOTS] + [("t", 7, 13), ("t", 0, 0)]:
        x = _generator(pin, letter)
        assert as_monomial(pin, pin.matrix(x)) == x
    assert as_monomial(pin, pin.matrix(pin.coxeter)) == pin.coxeter
    assert as_monomial(pin, pin.n_elem((1, 1))) == pin.lifts[(1, 1)]


def test_as_monomial_rejects_non_monomial_matrices(pin):
    one = CycInt.one(24)
    with pytest.raises(PinningError, match="not monomial"):
        as_monomial(pin, pin.root_subgroup((1, 2), one))
    rows = [list(r) for r in pin.identity.rows]
    rows[0][0] = 2 * pin.zeta[1]
    with pytest.raises(PinningError, match="not a power"):
        as_monomial(pin, SpMatrix(24, tuple(tuple(r) for r in rows)))
    rows = [list(r) for r in pin.identity.rows]
    rows[1] = rows[0]
    with pytest.raises(PinningError, match="share a column"):
        as_monomial(pin, SpMatrix(24, tuple(tuple(r) for r in rows)))


def _frobenius_power_by_matrices(pin, kind, a, b):
    """twisted_frobenius_power on 4x4 matrices, from the root-subgroup lifts."""
    m = sp_mul(pin.n_elem(LONG_SIMPLE), pin.n_elem(SHORT_SIMPLE))
    x = sp_mul(pin.matrix(pin.torus(a, b)), sp_mul(m, m) if kind == 1 else m)
    power = sp_mul(x, x)
    if kind == 2:
        power = sp_mul(power, power)
    b = pin.zeta.index(power.rows[0][0])
    a = (b + pin.zeta.index(power.rows[1][1])) % pin.order
    assert sp_eq(power, pin.matrix(pin.torus(a, b)))
    return a, b


@pytest.mark.parametrize("kind", [1, 2])
def test_twisted_power_matches_matrix_path(kind):
    pin24 = build_pinning(24)
    for a, b in sample_torsion_exponents(24, 200, seed=0):
        assert twisted_frobenius_power(pin24, kind, a, b) == _frobenius_power_by_matrices(
            pin24, kind, a, b)
    pin8 = build_pinning(8)
    for a in range(8):
        for b in range(8):
            assert twisted_frobenius_power(pin8, kind, a, b) == _frobenius_power_by_matrices(
                pin8, kind, a, b)


def test_mutant_product_is_caught(monkeypatch, pin):
    def wrong_index(self, other):
        n = self.order
        return Monomial(n, tuple(other.perm[p] for p in self.perm),
                        tuple((e + other.exps[i]) % n for i, e in enumerate(self.exps)))

    words = [[("n", LONG_SIMPLE), ("t", 1, 3)], [("n", SHORT_SIMPLE), ("t", 5, 2), ("n", (1, 1))]]
    assert all(_word_mismatches(pin, w) == [] for w in words)
    monkeypatch.setattr(Monomial, "__mul__", wrong_index)
    assert all("product" in _word_mismatches(pin, w) for w in words)
    assert not coroot_conjugation_check(pin)


@pytest.mark.parametrize("position", range(4))
def test_shifted_coxeter_exponent_fails_its_check(monkeypatch, position):
    broken = Pinning(24)
    exps = list(broken.coxeter.exps)
    exps[position] = (exps[position] + 12) % 24
    broken.coxeter = Monomial(24, broken.coxeter.perm, tuple(exps))
    monkeypatch.setattr(driver, "build_pinning", lambda order: broken)
    tasks = {t["fn"]: t for t in driver.build_tasks("chevalley", driver.Config())}
    outcomes = {fn: driver.run_task(tasks[fn])[0]["outcome"]
                for fn in ("coxeter_lift", "dual_weyl_action")}
    # a diagonal sign commutes with the torus, so only the fourth power sees it
    assert outcomes == {"coxeter_lift": "FAIL", "dual_weyl_action": "PASS"}


@pytest.mark.parametrize("order", [8, 12, 24, 48, 120])
def test_lift_independence_exhaustive(order):
    pin_n = build_pinning(order)
    for kind in (1, 2):
        base = twisted_frobenius_power(pin_n, kind, 0, 0)
        assert base == (0, order // 2)
        for a in range(order):
            for b in range(order):
                assert twisted_frobenius_power(pin_n, kind, a, b) == base, (kind, a, b)


@pytest.mark.parametrize("order", [4, 6, 8, 12, 48, 120, 1000, 2018])
def test_chevalley_campaign_passes_at_order(order):
    tasks = driver.build_tasks("chevalley", driver.Config(cyclotomic_order=order))
    records = [driver.run_task(t)[0] for t in tasks]
    assert len(records) == 11
    assert all(r["params"]["order"] == order for r in records)
    assert [r["id"] for r in records if r["outcome"] != "PASS"] == []


def test_checks_make_no_matrix_products(monkeypatch, pin):
    calls = []
    real = dualgroup.sp_mul

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(dualgroup, "sp_mul", counting)
    for kind in (1, 2):
        assert lift_independence_check(pin, kind)
        cover_class_values.__wrapped__(kind, 24)
    assert coroot_conjugation_check(pin)
    reflection_sign_table(pin)
    assert weyl_action_checks(pin)
    assert reflection_square_check(pin)
    assert longest_lift_square_check(pin)
    assert coxeter_lift_fourth_check(pin)
    assert calls == []
    # the counter sees the matrix path
    assert pin.is_symplectic(pin.identity)
    assert calls


# ---------------------------------------------------------------------------
# the array construction against the SpMatrix oracle


@pytest.mark.parametrize("order", [8, 12, 24, 48, 120, 1000])
def test_array_pinning_matches_the_scalar_oracle(order):
    pin_n = Pinning(order)
    for root in ALL_ROOTS:
        assert pin_n.lifts[root] == as_monomial(pin_n, pin_n.n_elem(root))
        assert sp_eq(pin_n.matrix(pin_n.lifts[root]), pin_n.n_elem(root))
    coxeter = sp_mul(pin_n.n_elem(LONG_SIMPLE), pin_n.n_elem(SHORT_SIMPLE))
    assert pin_n.coxeter == as_monomial(pin_n, coxeter)
    assert pin_n.longest == as_monomial(pin_n, sp_mul(coxeter, coxeter))


def test_array_pinning_memory_is_linear_in_phi():
    """The construction multiplies integer 4x4 matrices and reads signed
    permutations, so at order 1000 (phi = 400) nothing grows with phi: the
    build stays far below the bound, where a (phi, phi, phi)
    multiplication tensor alone takes 512 MB."""
    tracemalloc.start()
    try:
        Pinning(1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_pinning_forms_no_power_table():
    """No coefficient vector of Z[zeta_N] is formed: Pinning(2018) never
    asks for the powers of zeta that the scalar ring reduces through."""
    def calls():
        info = cyclo._power_table.cache_info()
        return info.hits + info.misses

    before = calls()
    pin_n = Pinning(2018)
    assert twisted_frobenius_power(pin_n, 2, 0, 0) == (0, 1009)
    assert calls() == before
    root_of_unity(8, 5)
    assert calls() == before + 1  # the counter sees the scalar ring


def test_array_pinning_makes_no_scalar_products(monkeypatch):
    calls = []
    for name in ("sp_mul", "sp_det"):
        real = getattr(dualgroup, name)
        monkeypatch.setattr(dualgroup, name,
                            lambda *args, real=real: calls.append(1) or real(*args))
    Pinning(24)
    assert calls == []
    assert sp_eq(Pinning(24).n_elem(LONG_SIMPLE), build_pinning(24).n_elem(LONG_SIMPLE))
    assert calls  # the counter sees the oracle


# (table, key, broken value, the error it raises): every error a single
# entry of _NILPOTENT, _COROOT_F or _ROOT_E can reach
TABLE_BREAKS = [
    ("_NILPOTENT", (1, 0), ((0, 2, 1),), "x_\\(1, 0\\)\\(1\\) does not preserve the form"),
    ("_NILPOTENT", (0, -1), ((1, 0, 1), (3, 1, -1)),
     "x_\\(0, -1\\)\\(1\\) does not preserve the form"),
    ("_NILPOTENT", (1, 0), ((1, 2, -1),), "row 1 has 2 nonzero entries; matrix is not monomial"),
    ("_NILPOTENT", (1, 2), ((0, 3, 2),), "row 3 has 2 nonzero entries; matrix is not monomial"),
    ("_COROOT_F", (1, 0), (0, 2), "Cartan pairings are not those of type B2/C2"),
    ("_COROOT_F", (1, 1), (1, 2), "coroot vector identity \\(1, 1\\)"),
    ("_COROOT_F", (1, 2), (1, 1), "coroot vector identity \\(1, 2\\)"),
    ("_ROOT_E", (1, 1), (1, 2), "reflection left the root system"),
]


@pytest.mark.parametrize("table,key,value,message", TABLE_BREAKS,
                         ids=[f"{t}{k}" for t, k, _, _ in TABLE_BREAKS])
def test_broken_table_entry_raises(monkeypatch, table, key, value, message):
    monkeypatch.setitem(getattr(dualgroup, table), key, value)
    with pytest.raises(PinningError, match=message):
        Pinning(24)


def test_coroot_vector_identity_survives_python_O(run_optimized):
    """Every +-1 change of the (1, 2) coroot, which the coroot matrix
    identity does not read, still raises with asserts stripped."""
    got = run_optimized("""
import json
from depthzero import dualgroup
raised = []
for delta in ((1, 0), (-1, 0), (0, 1), (0, -1)):
    dualgroup._COROOT_F[(1, 2)] = (1 + delta[0], delta[1])
    try:
        dualgroup.Pinning(24)
        raised.append(None)
    except dualgroup.PinningError as exc:
        raised.append(str(exc))
print(json.dumps(raised))
""")
    assert got == ["coroot vector identity (1, 2) = 1 (1,0) + (0,1) fails"] * 4


def test_unreachable_branches_still_raise(monkeypatch):
    """No single table entry breaks the coroot matrix identity alone (the
    vector identity fires first); a broken coroot map does."""
    coroot = Pinning.coroot
    monkeypatch.setattr(Pinning, "coroot", lambda self, root, e: coroot(
        self, root, e + (root == (1, 1))))
    with pytest.raises(PinningError, match="coroot identity"):
        Pinning(24)


# (i, j, sign) entries of x_(1,0)(1) x_(0,1)(1) - I: not a root direction,
# so I + X preserves the form while X^2 != 0
_NON_ADDITIVE = ((1, 2, 1), (0, 1, 1), (2, 3, -1), (1, 3, -1))


def test_nilpotent_with_nonzero_square_is_not_additive(monkeypatch):
    monkeypatch.setitem(dualgroup._NILPOTENT, (1, 0), _NON_ADDITIVE)
    with pytest.raises(PinningError, match="x_\\(1, 0\\) is not additive in the parameter"):
        Pinning(24)


# (guard, lift, entries set, message) for the guards on the lifts that no
# table entry reaches: once every x(1) preserves the form and X^2 = 0, the
# lifts are products of form-preserving integer matrices, and a
# form-preserving monomial integer matrix has distinct columns and entries +-1
CRAFTED_LIFTS = [
    ("form", 5, {(0, 0): 2}, "n_(0, -1) does not preserve the form"),
    ("read", 2, {(1, 1): 2}, "matrix entry is not a power of the fixed root of unity"),
    ("read", 2, {(1, 1): -2}, "matrix entry is not a power of the fixed root of unity"),
    ("read", 0, {(3, 3): 0, (3, 0): 1}, "two rows share a column; matrix is singular"),
]


def _run_lift_guard(guard, lift, entries):
    """Run one guard of the construction on eight identity lifts, one of
    them with the given entries set."""
    stack = np.array([np.eye(4, dtype=np.int64)] * len(ALL_ROOTS))
    for cell, value in entries.items():
        stack[lift][cell] = value
    if guard == "form":
        dualgroup._check_form(stack, "n_{}")
    else:
        for m in stack.tolist():
            dualgroup._read_monomial(24, m, 0, {1: 0, -1: 12})


@pytest.mark.parametrize("guard,lift,entries,message", CRAFTED_LIFTS,
                         ids=["form", "entry+2", "entry-2", "column"])
def test_crafted_lift_raises(guard, lift, entries, message):
    _run_lift_guard(guard, lift, {})  # the identity lifts pass
    with pytest.raises(PinningError) as err:
        _run_lift_guard(guard, lift, entries)
    assert str(err.value) == message


def test_construction_guards_survive_python_O(run_optimized):
    """The crafted-lift guards and the additivity guard raise PinningError
    with asserts stripped."""
    got = run_optimized("""
import json
from depthzero import dualgroup
from test_dualgroup import CRAFTED_LIFTS, _NON_ADDITIVE, _run_lift_guard
messages = []
for guard, lift, entries, _ in CRAFTED_LIFTS:
    try:
        _run_lift_guard(guard, lift, entries)
        messages.append(None)
    except dualgroup.PinningError as exc:
        messages.append(str(exc))
dualgroup._NILPOTENT[(1, 0)] = _NON_ADDITIVE
try:
    dualgroup.Pinning(24)
    messages.append(None)
except dualgroup.PinningError as exc:
    messages.append(str(exc))
print(json.dumps(messages))
""")
    assert got == [message for *_, message in CRAFTED_LIFTS] + [
        "x_(1, 0) is not additive in the parameter"]


# ---------------------------------------------------------------------------
# the dual root datum is read off the torus side's


def test_word_lifts_are_the_coxeter_and_longest_lifts(pin):
    assert pin.lift("ab") == pin.coxeter
    assert pin.lift("abab") == pin.longest
    assert pin.lift("") == pin.torus(0, 0)


def _conjugation_matrix(pin, word):
    """Conjugation by the word's lift on (long, short) coroot exponents,
    column by column, exponents read in -order/2..order/2."""
    half = pin.order // 2
    columns = [dual_torus_conjugate(pin, pin.lift(word), *e) for e in ((1, 0), (0, 1))]
    return [[(columns[j][i] + half) % pin.order - half for j in range(2)] for i in range(2)]


def test_letter_and_word_lifts_act_as_the_reflections(pin):
    assert _conjugation_matrix(pin, "a") == [[-1, 2], [0, 1]]
    assert _conjugation_matrix(pin, "b") == [[1, 0], [1, -1]]
    assert _conjugation_matrix(pin, "ab") == [[1, -2], [1, -1]]
    assert _conjugation_matrix(pin, "abab") == [[-1, 0], [0, -1]]


def test_pairings_are_checked_against_the_torus_cartan_matrix(monkeypatch):
    """The transposed Cartan matrix is refused at construction, and a
    Cartan matrix that disagrees with the lifts fails the Weyl action."""
    pin_n = Pinning(24)
    transposed = lambda: ((2, -2), (-1, 2))
    monkeypatch.setattr(dualgroup, "cartan_matrix", transposed)
    assert not weyl_action_checks(pin_n)
    with pytest.raises(PinningError, match="Cartan pairings are not those of type B2/C2"):
        Pinning(24)


def test_elliptic_word_drives_the_frobenius_power(monkeypatch, pin):
    """The power reads the kind's word: the Coxeter lift squared is no torus
    element, and the longest lift to the fourth power is the identity."""
    monkeypatch.setitem(dualgroup.ELLIPTIC_WORD, 1, "ab")
    with pytest.raises(PinningError, match="matrix is not diagonal"):
        twisted_frobenius_power(pin, 1, 0, 0)
    monkeypatch.setitem(dualgroup.ELLIPTIC_WORD, 2, "abab")
    assert twisted_frobenius_power(pin, 2, 0, 0) == (0, 0)


def test_every_positive_coroot_mutant_raises():
    """Each single-entry +-1 change of a positive coroot in _COROOT_F."""
    messages = []
    for root, i, delta in itertools.product(POSITIVE_ROOTS, range(2), (1, -1)):
        coroot = list(dualgroup._COROOT_F[root])
        coroot[i] += delta
        saved, dualgroup._COROOT_F[root] = dualgroup._COROOT_F[root], tuple(coroot)
        try:
            with pytest.raises(PinningError) as err:
                Pinning(24)
            messages.append(str(err.value))
        finally:
            dualgroup._COROOT_F[root] = saved
    assert len(messages) == 16


def test_order_guards_raise_named_errors(run_optimized):
    got = run_optimized("""
import json
from depthzero import cyclo, dualgroup
pin8, pin24 = dualgroup.build_pinning(8), dualgroup.build_pinning(24)
raised = []
for call in (lambda: dualgroup.sp_mul(pin8.identity, pin24.identity),
             lambda: pin8.torus(1, 0) * pin24.torus(1, 0)):
    try:
        call()
        raised.append(None)
    except cyclo.OrderMismatchError as exc:
        raised.append(str(exc))
print(json.dumps(raised))
""")
    assert got == ["matrices of orders 8 and 24", "monomials of orders 8 and 24"]
