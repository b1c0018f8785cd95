import json
import math
import os
import random
import resource
import signal
from dataclasses import replace
from itertools import islice, permutations, product

import numpy as np
import pytest

from depthzero import characters, charformula, driver, dualgroup, tori
from depthzero.charformula import named_summation_subgroup
from depthzero.ffield import prime_power
from depthzero.localmodel import unit, uv_galois, uv_inv, uv_mul
from depthzero.snf import mat_mul
from depthzero.tori import (
    NonRationalWeylError,
    T1Coinv,
    T1Rational,
    T2Coinv,
    T2Rational,
    coinv_mul,
    coinv_of_row,
    coinv_parity_part,
    coinv_unit_part,
    coinvariant_coordinates,
    coinvariant_norm,
    coinvariant_norm_array,
    coinvariant_order,
    coordinate_array,
    default_positive_roots,
    enumerate_coinvariants,
    is_strongly_regular,
    iter_rational,
    iter_strongly_regular,
    lift_of_rational,
    mu_coordinate,
    mu_coordinate_array,
    pair_from_quad,
    pair_from_quad_array,
    pair_galois,
    pair_galois_array,
    pair_norm,
    pair_norm_array,
    parity_classes,
    positive_system,
    project_to_coinvariants,
    project_to_coinvariants_array,
    quad_from_pair,
    quad_from_pair_array,
    quad_galois,
    quad_galois_array,
    quad_weyl,
    rational_order,
    rational_weyl_group,
    root_values,
    simple_reflections,
    strongly_regular_coordinates,
    t1_coinv,
    t1_rational,
    t2_coinv,
    t2_rational,
    tate_cohomology,
    weyl_apply,
    weyl_apply_pair,
    weyl_compose,
    weyl_group,
    weyl_identity,
    weyl_inverse,
)
from depthzero.uniqueness import odd_prime_powers

Q = 3


# ---------------------------------------------------------------------------
# Weyl group structure


def test_weyl_group_order_eight():
    for kind in (1, 2):
        elems = weyl_group(kind)
        assert len(elems) == 8
        names = {e.name for e in elems}
        assert {weyl_compose(x, y).name for x in elems for y in elems} <= names


def test_rational_subgroups():
    assert len(rational_weyl_group(1)) == 8
    rat2 = rational_weyl_group(2)
    assert [w.name for w in rat2] == ["", "ab", "ba", "abab"]
    # closed under composition and inverse
    for x in rat2:
        assert weyl_inverse(x) in rat2
        for y in rat2:
            assert weyl_compose(x, y) in rat2
    # generated by the rotation
    r = [w for w in rat2 if w.name == "ab"][0]
    powers = {weyl_identity(2)}
    cur = r
    while cur not in powers:
        powers.add(cur)
        cur = weyl_compose(cur, r)
    assert powers == set(rat2)


def test_group_inverses():
    for kind in (1, 2):
        for w in weyl_group(kind):
            assert weyl_compose(w, weyl_inverse(w)) == weyl_identity(kind)


# the reflection and Frobenius matrices as they were entered by hand before
# both were derived from the positive roots and the elliptic words
GENERATOR_MATS = {
    1: {"a": ((-1, 0), (2, 1)), "b": ((1, 1), (0, -1))},
    2: {"a": ((-1, 0), (0, 1)), "b": ((0, 1), (1, 0))},
}
GALOIS_MATS = {1: ((-1, 0), (0, -1)), 2: ((0, -1), (1, 0))}


def test_simple_reflections_are_the_generator_matrices():
    for kind in (1, 2):
        assert tori.reflection_matrices(kind) == GENERATOR_MATS[kind]
        assert [w.mat for w in simple_reflections(kind)] == list(GENERATOR_MATS[kind].values())
        assert [w.name for w in simple_reflections(kind)] == ["a", "b"]
        assert tori.word_matrix(kind, tori.ELLIPTIC_WORD[kind]) == GALOIS_MATS[kind]
        assert np.array_equal(tori.galois_matrix(kind, 5),
                              np.kron(GALOIS_MATS[kind], [[5, 0], [0, 1]]))


def test_root_datum_of_both_kinds():
    """Simple roots in listed order, integral coroots, and the Cartan
    matrix of type B2 with "a" long at both kinds."""
    assert tori.simple_coroots(1) == (((1, 0), (2, -2)), ((0, 1), (-1, 2)))
    assert tori.simple_coroots(2) == (((1, 0), (2, 0)), ((-1, 1), (-1, 1)))
    assert tori.cartan_matrix() == ((2, -1), (-2, 2))


def test_kinds_that_disagree_on_the_cartan_matrix_are_refused(monkeypatch):
    derived = tori.simple_coroots
    swapped = lambda kind: derived(kind)[::-1] if kind == 2 else derived(kind)
    monkeypatch.setattr(tori, "simple_coroots", swapped)
    with pytest.raises(tori.WeylGroupError, match="the kinds give the Cartan matrices "
                       r"\(\(2, -1\), \(-2, 2\)\) and \(\(2, -2\), \(-1, 2\)\)"):
        tori.cartan_matrix()


def test_weyl_guards_raise_named_errors(run_optimized):
    got = run_optimized("""
import json
from depthzero import tori
a1, a2 = tori.simple_reflections(1)[0], tori.simple_reflections(2)[0]
raised = []
for call in (lambda: tori.weyl_compose(a1, a2),
             lambda: tori.weyl_inverse(tori.WeylElem(1, "x", ((2, 0), (0, 1))))):
    try:
        call()
        raised.append(None)
    except tori.WeylGroupError as exc:
        raised.append(str(exc))
print(json.dumps(raised))
""")
    assert got == ["cannot compose a kind-1 with a kind-2 element",
                   "((2, 0), (0, 1)) has determinant 2, not +-1"]


ODD_PRIME_POWERS = [q for q in range(3, 62, 2) if prime_power(q)]


@pytest.mark.parametrize("q", ODD_PRIME_POWERS)
def test_rational_order_is_the_frobenius_determinant(q):
    """|T^F| = |det(q F - 1)| for the Weyl element F of the elliptic word
    (Carter, Finite Groups of Lie Type, 3.3)."""
    for kind, rank in ((1, 2), (2, 1)):
        (a, b), (c, d) = tori.word_matrix(kind, tori.ELLIPTIC_WORD[kind])
        det = abs((q * a - 1) * (q * d - 1) - (q * b) * (q * c))
        assert det == rational_order(kind, q) == tori.unit_class_order(kind, q) ** rank


@pytest.mark.parametrize("q", ODD_PRIME_POWERS)
def test_torus_quotient_is_the_hand_entered_arithmetic(q):
    """The quotient read from the elliptic words against the forms that were
    entered by hand before it, which live only here: n = q + 1, E = P = I at
    kind 1; n = q^2 + 1, E = (1, q)^T, P = (1, -q) at kind 2.  Every rational
    Weyl matrix, each row reduced by its column modulus, is the old literal."""
    eye = ((1, 0), (0, 1))
    assert tori.torus_quotient(1, q) == (q + 1, eye, eye)
    assert tori.torus_quotient(2, q) == (q * q + 1, ((1,), (q,)), ((1, -q),))
    n1, n2 = q + 1, q * q + 1
    for kind in (1, 2):
        for w in rational_weyl_group(kind):
            (a, b), (c, d) = w.mat
            forms = {(1, False): ([[a, b], [c, d]], [n1, n1]),
                     (1, True): ([[a, b, 0, 0], [c, d, 0, 0], [0, 0, a, b], [0, 0, c, d]],
                                 [n1, n1, 2, 2]),
                     (2, False): ([[a + q * b]], [n2]),
                     (2, True): ([[a - q * c, 0], [0, a - c]], [n2, 2])}
            for coinvariant in (False, True):
                mat, moduli = (np.array(x) for x in forms[kind, coinvariant])
                got, got_moduli = tori.weyl_matrix(q, w, coinvariant)
                assert got_moduli.tolist() == moduli.tolist()
                assert np.array_equal(got % moduli[:, None], mat % moduli[:, None]), w.name


@pytest.mark.parametrize("kind", [0, 3])
@pytest.mark.parametrize("module,name", [
    (tori, "unit_class_order"), (tori, "rational_order"), (tori, "coinvariant_order"),
    (characters, "value_order"), (tori, "parity_rows"), (tori, "torus_quotient")])
def test_an_unknown_kind_raises(module, name, kind):
    """Each once returned the kind-2 numbers (or rows) for any kind but 1."""
    with pytest.raises(ValueError, match=f"kind must be 1 or 2, got {kind}"):
        getattr(module, name)(kind, 5)


WEYL_CACHES = (tori.simple_coroots, tori.word_matrix, tori.weyl_group, tori._by_matrix,
               tori.rational_weyl_group, tori.weyl_matrix)


@pytest.fixture
def fresh_weyl_group():
    """Empty Weyl caches before and after the test, which patches the group."""
    for cache in WEYL_CACHES:
        cache.cache_clear()
    yield
    for cache in WEYL_CACHES:
        cache.cache_clear()


def test_rotation_is_found_by_matrix(monkeypatch, fresh_weyl_group):
    """Reversed reduced-word names swap "ab" and "ba"; the rotation
    subgroup, found as the product of the two generator matrices, keeps
    its elements and their order."""
    want = {kind: [w.mat for w in named_summation_subgroup(kind, "rotation")] for kind in (1, 2)}
    named = tori.weyl_group
    monkeypatch.setattr(tori, "weyl_group", lambda kind: tuple(
        replace(w, name=w.name[::-1]) for w in named.__wrapped__(kind)))
    for cache in WEYL_CACHES:
        cache.cache_clear()
    for kind in (1, 2):
        assert [w.mat for w in named_summation_subgroup(kind, "rotation")] == want[kind]
        assert "ba" in [w.name for w in named_summation_subgroup(kind, "rotation")]


def _in_forked_child(fn, seconds=20, address_space=None):
    """``fn()`` in a forked child under an alarm of ``seconds`` and, if
    given, a cap of ``address_space`` bytes on the child alone, its stderr
    discarded: its JSON result, or {"raised": message}; a child that the
    alarm or the cap stops fails."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns into the test run
        status = 1
        try:
            os.close(read_end)
            os.dup2(os.open(os.devnull, os.O_WRONLY), 2)
            if address_space:
                resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))
            signal.alarm(seconds)
            try:
                payload = fn()
            except Exception as exc:
                payload = {"raised": f"{type(exc).__name__}: {exc}"}
            with os.fdopen(write_end, "w") as pipe:
                json.dump(payload, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end) as pipe:
        data = pipe.read()
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0:  # raised, not asserted: the sweep also runs under python -O
        raise AssertionError(f"child ended with {status} (-{int(signal.SIGALRM)}: the alarm)")
    return json.loads(data)


def _clear_weyl_caches():
    """Empty every cache that holds something derived from the root datum."""
    for cache in (*WEYL_CACHES, charformula._check_summation, tori.tate_cohomology,
                  dualgroup.build_pinning, dualgroup.cover_class_values):
        cache.cache_clear()
    tori.clear_tables()


def _unbounded_generator_run():
    """A kind-1 generator whose product with b has trace 2 and so infinite
    order: the closure raises, and the identity task that needs it FAILs."""
    derived = tori.reflection_matrices(1)
    tori.reflection_matrices = lambda kind: {**derived, "a": ((-1, 0), (4, 1))}
    _clear_weyl_caches()
    try:
        tori.weyl_group(1)
        raised = None
    except tori.WeylGroupError as exc:
        raised = str(exc)
    task = driver.build_tasks("identity", driver.Config(qs=[3], kinds=[1]))[0]
    record, _ = driver.run_task(task)
    return {"raised": raised, "outcome": record["outcome"], "witness": record["witness"]}


def test_unbounded_weyl_closure_fails_its_checks():
    got = _in_forked_child(_unbounded_generator_run)
    assert got["raised"].startswith("the kind-1 generators give more than 8 elements")
    assert got["outcome"] == "FAIL"
    assert got["witness"]["error"].startswith("WeylGroupError: the kind-1 generators")


def _endless_rotation_run():
    """A composition that never returns to the identity."""
    _clear_weyl_caches()
    a, _b = simple_reflections(1)
    charformula.weyl_compose = lambda x, y: a
    try:
        named_summation_subgroup(1, "rotation")
    except ValueError as exc:
        return {"raised": str(exc)}
    return {"raised": None}


def test_rotation_loop_stops_after_eight_steps():
    assert _in_forked_child(_endless_rotation_run)["raised"].endswith("has order above 8")


def test_table_caches_are_bounded_and_read_only(monkeypatch):
    tables = {"coinvariants": coinvariant_coordinates(1, 3),
              "regular": strongly_regular_coordinates(2, 5)}
    for name, array in tables.items():
        assert not array.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 1
    # a second call returns the cached array
    assert coinvariant_coordinates(1, 3) is tables["coinvariants"]
    assert strongly_regular_coordinates(2, 5) is tables["regular"]
    # the cache keeps the latest grids that fit its budget, and no larger one
    budget = coinvariant_coordinates(1, 5).nbytes + coinvariant_coordinates(1, 7).nbytes
    monkeypatch.setattr(tori, "TABLE_CACHE_BYTES", budget)
    tori.clear_tables()
    first, second = coinvariant_coordinates(1, 5), coinvariant_coordinates(1, 7)
    assert coinvariant_coordinates(1, 5) is first  # both fit; (1, 5) is now the latest
    coinvariant_coordinates(1, 3)  # evicts (1, 7), the oldest
    assert coinvariant_coordinates(1, 5) is first
    assert coinvariant_coordinates(1, 7) is not second
    big = coinvariant_coordinates(1, 11)
    assert big.nbytes > budget and not big.flags.writeable
    assert coinvariant_coordinates(1, 11) is not big
    assert sum(table.nbytes for table in tori._tables.values()) <= budget


# ---------------------------------------------------------------------------
# class maps, norms, lifts


def test_projection_examples():
    # (pi, pi): trivial unit classes, both parities one
    pi = unit(Q, 2, 0, 1)
    cls = project_to_coinvariants(1, Q, (pi, pi))
    assert cls == t1_coinv(Q, 0, 0, 1, 1)
    # kind 2: (pi, 1) is the nontrivial norm-kernel class
    pi4 = unit(Q, 4, 0, 1)
    cls2 = project_to_coinvariants(2, Q, (pi4, unit(Q, 4, 0, 0)))
    assert cls2 == t2_coinv(Q, 0, 1)
    # a slotwise norm maps to the trivial first-slot class
    x = unit(Q, 2, 5, 3)
    norm = uv_mul(Q, x, uv_galois(Q, x))
    anything = unit(Q, 2, 1, 0)
    cls3 = project_to_coinvariants(1, Q, (norm, anything))
    assert (cls3.u1, cls3.v1) == (0, 0)


def test_projection_is_homomorphism():
    pairs = [
        (unit(Q, 4, a, va), unit(Q, 4, b, vb))
        for a, va, b, vb in product((0, 3, 11), (-1, 0, 1), (0, 7), (0, 1))
    ]
    for p1 in pairs:
        for p2 in pairs:
            prod = (uv_mul(Q, p1[0], p2[0]), uv_mul(Q, p1[1], p2[1]))
            lhs = project_to_coinvariants(2, Q, prod)
            rhs = coinv_mul(
                project_to_coinvariants(2, Q, p1), project_to_coinvariants(2, Q, p2)
            )
            assert lhs == rhs


def test_norm_identities():
    # identity class maps to the identity
    assert coinvariant_norm(t1_coinv(Q, 0, 0, 0, 0)) == t1_rational(Q, 0, 0)
    # ([pi],[pi]) is in the kernel: the norm-kernel classes die
    assert coinvariant_norm(t1_coinv(Q, 0, 0, 1, 1)) == t1_rational(Q, 0, 0)
    # kind 2: a unit outside the middle field has nontrivial image
    cls = t2_coinv(Q, 1, 0)
    image = coinvariant_norm(cls)
    assert image != t2_rational(Q, 0)
    # oracle: u^(1-q^2) as dlog arithmetic
    d = 1
    expected = (d * (1 - Q * Q)) % (Q**4 - 1)
    assert image == t2_rational(Q, expected // (Q * Q - 1))


def test_norm_surjective_with_kernel_parities():
    for kind in (1, 2):
        image = {}
        for c in enumerate_coinvariants(kind, Q):
            image.setdefault(coinvariant_norm(c), 0)
            image[coinvariant_norm(c)] += 1
        assert len(image) == rational_order(kind, Q)
        kernel = [c for c in enumerate_coinvariants(kind, Q)
                  if coinvariant_norm(c) == coinvariant_norm(parity_classes(kind, Q)[0])]
        assert len(kernel) == len(parity_classes(kind, Q))
        assert set(kernel) == set(parity_classes(kind, Q))


def test_lift_section():
    for kind in (1, 2):
        for gamma in iter_rational(kind, Q):
            lift = lift_of_rational(kind, Q, gamma)
            assert coinvariant_norm(lift) == gamma
            parity = coinv_parity_part(lift)
            assert parity == parity_classes(kind, Q)[0]


def test_splitting_direct_product():
    for kind in (1, 2):
        seen = set()
        for c in enumerate_coinvariants(kind, Q):
            u, v = coinv_unit_part(c), coinv_parity_part(c)
            assert coinv_mul(u, v) == c
            seen.add((u, v))
        assert len(seen) == coinvariant_order(kind, Q)


# ---------------------------------------------------------------------------
# pair and quadruple models


def _sample_pairs(kind, q):
    level = 2 * kind
    out = []
    for d1, v1, d2, v2 in product(range(0, q**level - 1, 3), (-1, 0, 1), (0, 5), (0, 1)):
        out.append((unit(q, level, d1, v1), unit(q, level, d2, v2)))
    return out


@pytest.mark.parametrize("kind", [1, 2])
def test_pair_quad_roundtrip_and_equivariance(kind):
    for pair in _sample_pairs(kind, Q):
        quad = quad_from_pair(kind, Q, pair)
        a, b, c, d = quad
        assert uv_mul(Q, a, d) == uv_mul(Q, b, c)
        assert pair_from_quad(kind, Q, quad) == pair
        lhs = pair_from_quad(kind, Q, quad_galois(kind, Q, quad))
        assert lhs == pair_galois(kind, Q, pair)


@pytest.mark.parametrize("kind", [1, 2])
def test_quad_model_weyl_transport(kind):
    # the 4-slot permutation action transports to the monomial matrices
    by_name = {w.name: w for w in weyl_group(kind)}
    for pair in islice(_sample_pairs(kind, Q), 40):
        quad = quad_from_pair(kind, Q, pair)
        for gen in ("a", "b"):
            lhs = pair_from_quad(kind, Q, quad_weyl(gen, quad))
            rhs = weyl_apply_pair(Q, by_name[gen], pair)
            assert lhs == rhs


def test_quad_class_equality_mod_diagonal():
    pair = (unit(Q, 2, 1, 0), unit(Q, 2, 3, 1))
    quad = quad_from_pair(1, Q, pair)
    scalar = unit(Q, 2, 4, 2)
    scaled = tuple(uv_mul(Q, x, scalar) for x in quad)
    assert pair_from_quad(1, Q, scaled) == pair_from_quad(1, Q, quad) == pair


def test_norm_on_pairs_matches_class_norm():
    for kind in (1, 2):
        for pair in _sample_pairs(kind, Q):
            direct = pair_norm(kind, Q, pair)
            via = coinvariant_norm(project_to_coinvariants(kind, Q, pair))
            assert direct == via


# ---------------------------------------------------------------------------
# Weyl actions on classes


def test_kind1_parity_action_matches_tables():
    wg = {e.name: e for e in weyl_group(1)}
    pp = t1_coinv(Q, 0, 0, 1, 1)
    assert weyl_apply(Q, wg["a"], pp) == pp
    assert weyl_apply(Q, wg["b"], pp) == t1_coinv(Q, 0, 0, 0, 1)
    one_pi = t1_coinv(Q, 0, 0, 0, 1)
    assert weyl_apply(Q, wg["a"], one_pi) == one_pi
    assert weyl_apply(Q, wg["b"], one_pi) == pp
    pi_one = t1_coinv(Q, 0, 0, 1, 0)
    assert weyl_apply(Q, wg["a"], pi_one) == pi_one
    assert weyl_apply(Q, wg["b"], pi_one) == pi_one


def test_kind2_rotation_fixes_norm_kernel():
    r = [w for w in rational_weyl_group(2) if w.name == "ab"][0]
    assert weyl_apply(Q, r, t2_coinv(Q, 0, 1)) == t2_coinv(Q, 0, 1)


def test_nonrational_rejected_on_quotients():
    w = {e.name: e for e in weyl_group(2)}["a"]
    with pytest.raises(NonRationalWeylError):
        weyl_apply(Q, w, t2_coinv(Q, 1, 0))
    with pytest.raises(NonRationalWeylError):
        weyl_apply(Q, w, t2_rational(Q, 1))


def test_action_is_group_action_on_classes():
    for kind in (1, 2):
        group = rational_weyl_group(kind)
        for c in islice(enumerate_coinvariants(kind, Q), 25):
            for x in group:
                for y in group:
                    lhs = weyl_apply(Q, x, weyl_apply(Q, y, c))
                    rhs = weyl_apply(Q, weyl_compose(x, y), c)
                    assert lhs == rhs


def test_action_commutes_with_norm():
    for kind in (1, 2):
        for w in rational_weyl_group(kind):
            for c in enumerate_coinvariants(kind, Q):
                assert coinvariant_norm(weyl_apply(Q, w, c)) == weyl_apply(
                    Q, w, coinvariant_norm(c)
                )


def test_coinvariant_action_transports_from_pairs():
    # kind 2: acting on a representative pair then classing equals acting
    # on the class directly
    for w in rational_weyl_group(2):
        for pair in islice(_sample_pairs(2, Q), 30):
            cls = project_to_coinvariants(2, Q, pair)
            lhs = project_to_coinvariants(2, Q, weyl_apply_pair(Q, w, pair))
            assert lhs == weyl_apply(Q, w, cls)


# ---------------------------------------------------------------------------
# roots and the regular locus


def test_root_value_tables():
    gamma = t1_rational(Q, 1, 2)
    assert root_values(1, Q, gamma) == (1, 2, 3, 0)
    z = t2_rational(Q, 1)
    assert root_values(2, Q, z) == (1, (Q - 1) % 10, Q % 10, (Q + 1) % 10)
    # value of the long root is z * tau(z), i.e. the (q+1)-th power
    assert root_values(2, Q, t2_rational(Q, 3))[3] == (3 * (Q + 1)) % 10


def test_strongly_regular_counts_q3():
    assert sum(1 for _ in iter_strongly_regular(1, 3)) == 4
    assert sum(1 for _ in iter_strongly_regular(2, 3)) == 8
    assert not is_strongly_regular(1, 3, t1_rational(3, 0, 0))
    assert not is_strongly_regular(2, 3, t2_rational(3, 0))
    # forced degeneracy: (z, z^-2) kills the long root
    gamma = t1_rational(3, 1, -2)
    assert root_values(1, 3, gamma)[3] == 0


def test_positive_system_transforms_are_root_sets():
    for kind in (1, 2):
        default = set(default_positive_roots(kind))
        all_roots = default | {(-a, -b) for a, b in default}
        for w in weyl_group(kind):
            moved = set(positive_system(kind, w))
            assert moved <= all_roots
            assert len(moved) == 4
            # a positive system never contains a root and its negative
            assert not any((-a, -b) in moved for a, b in moved)


def _root_values_in_python_ints(q, roots, ks):
    n = q * q + 1
    return [[(g1 + q * g2) * k % n for g1, g2 in roots] for k in ks]


@pytest.mark.parametrize("q", [3, 5, 46337, 60013, 2097143])
def test_kind2_root_values_are_exact(q):
    """On every positive system, against Python integers.  A factor reduced
    mod q^2 + 1 before the product wrapped int64 on about a third of these
    rows from q = 60013 on; 2097143 is the last odd prime power that
    (q^2 + 1)(q + 1) < 2^63 admits."""
    rng = random.Random(q)
    ks = [rng.randrange(q * q + 1) for _ in range(500)] + [0, q * q]
    coords = np.array(ks, dtype=np.int64)[:, None]
    for w in weyl_group(2):
        roots = positive_system(2, w)
        assert tori.root_value_coord_array(2, q, roots, coords).tolist() \
            == _root_values_in_python_ints(q, roots, ks), w.name


def test_kind2_root_values_refuse_past_the_int64_bound():
    """2097169 is the first odd prime power with (q^2 + 1)(q + 1) >= 2^63,
    the largest product a positive system forms."""
    q = 2097169
    assert prime_power(q) and (q * q + 1) * (q + 1) >= 2**63 > (2097143**2 + 1) * 2097144
    assert all(prime_power(p) is None for p in range(2097145, q, 2))
    with pytest.raises(OverflowError, match="too large for int64 root values"):
        tori.root_value_coord_array(2, q, default_positive_roots(2), np.zeros((1, 1), np.int64))


# ---------------------------------------------------------------------------
# Tate cohomology


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 25, 27, 49])
def test_tate_cohomology_orders(q):
    for kind, orders in ((1, (4, 1)), (2, (2, 1))):
        h1, h0, vecs = tate_cohomology(kind, q)
        assert (h1, h0) == orders
        assert vecs.dtype == np.int64 and not vecs.flags.writeable
        reps = project_to_coinvariants_array(kind, q, vecs)
        classes = [coinv_of_row(kind, q, row) for row in reps]
        assert len(classes) == h1 and set(classes) == set(parity_classes(kind, q))


@pytest.mark.parametrize("q", [3, 5])
def test_tate_representative_row_order(q):
    # the order in which the cohomology/representatives witness prints them
    reps = {kind: project_to_coinvariants_array(kind, q, tate_cohomology(kind, q)[2]).tolist()
            for kind in (1, 2)}
    assert reps == {1: [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 0, 1, 1]],
                    2: [[0, 0], [0, 1]]}


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_exact_sequence_order_identity(q):
    for kind in (1, 2):
        h1, h0, _ = tate_cohomology(kind, q)
        assert h1 * rational_order(kind, q) == coinvariant_order(kind, q)
        assert h0 == 1


def test_inverse_class():
    c = t1_coinv(Q, 1, 3, 1, 0)
    assert coinv_mul(c, t1_coinv(Q, -1, -3, 1, 0)) == t1_coinv(Q, 0, 0, 0, 0)


# ---------------------------------------------------------------------------
# the pair model on integer rows against the scalar oracles


def _as_rows(tuples):
    """(dlog, val) of every slot of each tuple of units, as one row."""
    return [[c for u in units for c in (u.residue.dlog, u.val)] for units in tuples]


def lift_slots(kind):
    """The quadruple slot order of ``check_pair_quad_roundtrip``: the inverse
    permutation of the dual lift of the kind's elliptic word."""
    return dualgroup.build_pinning().lift(tori.ELLIPTIC_WORD[kind]).inverse().perm


@pytest.mark.parametrize("kind,q,full,stride", [
    (1, 3, True, 1), (1, 5, True, 1), (2, 3, False, 1), (2, 5, False, 1), (2, 3, True, 97),
])
def test_pair_arrays_match_scalar_pair_model(kind, q, full, stride):
    blocks = list(driver._pair_blocks(kind, q, full))
    sizes = [len(b) for b in blocks]
    # the walker's blocks of the checks' 8-column int64 quadruple rows:
    # 8,192 rows at the default budget, only the last shorter
    assert sizes == [len(range(sum(sizes))[s]) for s in driver._blocks(sum(sizes), 8 * 8)]
    assert sizes[0] == min(sum(sizes), 8192)
    rows = np.concatenate(blocks)[::stride]
    pairs = list(islice(driver._pair_samples(kind, q, full), 0, None, stride))
    # the blocks hold the scalar samples, in the same order
    np.testing.assert_array_equal(rows, _as_rows(pairs))
    assert set(rows[:, 1]) == ({-1, 0, 1} if full else {0, 1})
    rational, coinv = (T1Rational, T1Coinv) if kind == 1 else (T2Rational, T2Coinv)
    np.testing.assert_array_equal(pair_galois_array(kind, q, rows),
                                  _as_rows(pair_galois(kind, q, p) for p in pairs))
    classes = [project_to_coinvariants(kind, q, p) for p in pairs]
    projected = project_to_coinvariants_array(kind, q, rows)
    np.testing.assert_array_equal(projected, coordinate_array(coinv, classes))
    np.testing.assert_array_equal(
        pair_norm_array(kind, q, rows),
        coordinate_array(rational, [pair_norm(kind, q, p) for p in pairs]))
    np.testing.assert_array_equal(
        coinvariant_norm_array(kind, q, projected),
        coordinate_array(rational, [coinvariant_norm(c) for c in classes]))
    quads = [quad_from_pair(kind, q, p) for p in pairs]
    quad_rows = quad_from_pair_array(kind, q, rows)
    np.testing.assert_array_equal(quad_rows, _as_rows(quads))
    # along the whole Galois orbit, so that every slot carries nontrivial units
    for _ in range(2 * kind):
        np.testing.assert_array_equal(pair_from_quad_array(kind, q, quad_rows),
                                      _as_rows(pair_from_quad(kind, q, x) for x in quads))
        quads = [quad_galois(kind, q, x) for x in quads]
        quad_rows = quad_galois_array(kind, q, quad_rows, lift_slots(kind))
        np.testing.assert_array_equal(quad_rows, _as_rows(quads))


def _untwisted_projection(kind, q, pair):
    """The kind-2 class map with tau dropped: w * z^(-1)."""
    w, z = pair
    x = uv_mul(q, w, uv_inv(q, z))
    return t2_coinv(q, x.residue.dlog, x.val)


def _untwisted_projection_array(kind, q, rows):
    dw, vw, dz, vz = rows.T
    return np.stack([(dw - dz) % (q * q + 1), (vw - vz) % 2], axis=1)


def test_broken_class_map_fails_with_scalar_witness(monkeypatch):
    kind, q = 2, 3
    scalar_witness = next(
        {"pair": str(pair)} for pair in driver._pair_samples(kind, q, full=True)
        if pair_norm(kind, q, pair) != coinvariant_norm(_untwisted_projection(kind, q, pair))
    )
    params = {"kind": kind, "q": q}
    assert driver.check_norm_consistency(params) == ("PASS", None, {"pairs_checked": 57_600})
    monkeypatch.setattr(driver, "project_to_coinvariants_array", _untwisted_projection_array)
    assert driver.check_norm_consistency(params) == ("FAIL", scalar_witness, {})


@pytest.mark.parametrize("kind,step", [(1, Q - 1), (2, Q * Q - 1)])
def test_mu_coordinate_array_guards(kind, step):
    level = 2 * kind
    on = np.array([0, step, 3 * step])
    np.testing.assert_array_equal(
        mu_coordinate_array(kind, Q, on, np.zeros(3, dtype=np.int64)),
        [mu_coordinate(kind, Q, unit(Q, level, d)) for d in on])
    for dlog, val in ((step + 1, 0), (step, 1)):
        with pytest.raises(ValueError) as scalar:
            mu_coordinate(kind, Q, unit(Q, level, dlog, val))
        with pytest.raises(ValueError, match=str(scalar.value)):
            mu_coordinate_array(kind, Q, np.array([0, dlog]), np.array([0, val]))


def test_pair_norm_guards_the_twisted_diagonal(monkeypatch):
    # a kind-2 orbit under the kind-1 Galois action leaves the scalar oracle's
    # twisted diagonal, and the array path's orbit product is not Galois-fixed
    pair = (unit(Q, 4, 1, 0), unit(Q, 4, 2, 0))
    rows = np.array([[1, 0, 2, 0]])
    monkeypatch.setattr(tori, "pair_galois", lambda kind, q, p: pair_galois(1, q, p))
    with pytest.raises(tori.GaloisActionError, match="twisted diagonal"):
        pair_norm(2, Q, pair)
    monkeypatch.setattr(tori, "pair_galois_array",
                        lambda kind, q, r: pair_galois_array(1, q, r))
    with pytest.raises(tori.GaloisActionError, match="not fixed by the Galois action"):
        pair_norm_array(2, Q, rows)


def test_pair_arrays_refuse_int64_overflow():
    pairs, quads = np.zeros((1, 4), dtype=np.int64), np.zeros((1, 8), dtype=np.int64)
    cases = [(pair_galois_array, pairs), (pair_norm_array, pairs),
             (project_to_coinvariants_array, pairs), (quad_from_pair_array, pairs),
             (pair_from_quad_array, quads),
             (lambda kind, q, r: quad_galois_array(kind, q, r, lift_slots(kind)), quads)]
    for fn, rows in cases:
        with pytest.raises(OverflowError):
            fn(2, 10007, rows)
        assert len(fn(2, 6007, rows)) == 1
    assert pair_norm_array(2, 6007, pairs).shape == (1, 1)


def test_column_sums_are_the_matmul():
    """Any integer matrix, zero rows and several nonzeros per row included,
    on row-major and column-major rows alike."""
    rng = random.Random(0)
    rows = np.array([[rng.randrange(-50, 50) for _ in range(4)] for _ in range(37)])
    for _ in range(20):
        matrix = np.array([[rng.randrange(-2, 3) for _ in range(4)]
                           for _ in range(rng.randrange(1, 5))])
        matrix[rng.randrange(len(matrix))] = 0
        for layout in (rows, np.asfortranarray(rows)):
            out = tori._column_sums(layout, matrix.tolist())
            np.testing.assert_array_equal(out, rows @ matrix.T)
            assert out[:, 0].flags.c_contiguous


# ---------------------------------------------------------------------------
# negative controls for the pair/quadruple round trip


def _scalar_roundtrip(kind, q):
    """``pair-quad-roundtrip`` as a loop over the scalar quadruple model."""
    count = 0
    for pair in driver._pair_samples(kind, q, full=(q == 3 and kind == 1)):
        quad = tori.quad_from_pair(kind, q, pair)
        if tori.pair_from_quad(kind, q, quad) != pair:
            return ("FAIL", {"pair": str(pair)}, {})
        lhs = tori.pair_from_quad(kind, q, tori.quad_galois(kind, q, quad))
        if lhs != tori.pair_galois(kind, q, pair):
            return ("FAIL", {"pair": str(pair), "reason": "Galois equivariance"}, {})
        count += 1
    return ("PASS", None, {"pairs_checked": count})


def _times_c_pair_from_quad(kind, q, quad):
    """The kind-2 pair_from_quad with a*c in place of a*c^(-1)."""
    a, b, c, _ = quad
    return (uv_mul(q, a, uv_inv(q, b)), uv_mul(q, a, c))


def _times_c_pair_from_quad_array(kind, q, quads):
    order = q**4 - 1
    da, va, db, vb, dc, vc = quads[:, :6].T
    return np.stack([(da - db) % order, va - vb, (da + dc) % order, va + vc], axis=1)


def _break_pair_from_quad(monkeypatch):
    monkeypatch.setattr(tori, "pair_from_quad", _times_c_pair_from_quad)
    monkeypatch.setattr(driver, "pair_from_quad_array", _times_c_pair_from_quad_array)


def _with_slots(monkeypatch, slots):
    """``check_pair_quad_roundtrip`` with the quadruple slots read in this order."""
    monkeypatch.setattr(driver, "quad_galois_array",
                        lambda kind, q, quads, _lift: quad_galois_array(kind, q, quads, slots))


def _break_quad_galois(monkeypatch):
    """The kind-2 quad_galois with the kind-1 slot order."""
    monkeypatch.setattr(tori, "quad_galois", lambda kind, q, quad: quad_galois(1, q, quad))
    _with_slots(monkeypatch, lift_slots(1))


@pytest.mark.parametrize("brk,reason", [
    (_break_pair_from_quad, None), (_break_quad_galois, "Galois equivariance"),
], ids=["pair-from-quad-times-c", "quad-galois-kind-1-slots"])
def test_broken_quadruple_model_fails_with_scalar_witness(monkeypatch, brk, reason):
    kind, q = 2, 3
    params = {"kind": kind, "q": q}
    passing = ("PASS", None, {"pairs_checked": 256})
    assert driver.check_pair_quad_roundtrip(params) == _scalar_roundtrip(kind, q) == passing
    brk(monkeypatch)
    got = driver.check_pair_quad_roundtrip(params)
    assert got == _scalar_roundtrip(kind, q)
    assert got[0] == "FAIL" and got[1].get("reason") == reason


@pytest.mark.parametrize("kind", [1, 2])
@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_quad_galois_slots_are_the_only_equivariant_order(monkeypatch, kind, q):
    """Of the 24 slot orders, only the inverse permutation of the dual lift
    of the kind's word makes the quadruple model Galois-equivariant."""
    params = {"kind": kind, "q": q}
    passing = []
    for slots in permutations(range(4)):
        _with_slots(monkeypatch, slots)
        if driver.check_pair_quad_roundtrip(params)[0] == "PASS":
            passing.append(slots)
    monkeypatch.undo()
    assert passing == [lift_slots(kind)] == [{1: (3, 2, 1, 0), 2: (2, 0, 3, 1)}[kind]]


# ---------------------------------------------------------------------------
# the positive roots and the elliptic words are the one source of the Weyl
# and Galois data: a single-entry change of a root, or another Weyl element
# as the Frobenius, must fail records


def root_mutants():
    """Every single-entry +-1 change of ``default_positive_roots``, as (kind, roots)."""
    out = []
    for kind, r, i, delta in product(tori.KINDS, range(4), range(2), (1, -1)):
        roots = [list(root) for root in tori.default_positive_roots(kind)]
        roots[r][i] += delta
        out.append((kind, tuple(map(tuple, roots))))
    return out


def conjugacy_class(kind, word):
    """The matrices of the Weyl conjugates of ``word``'s element."""
    f = tori.word_matrix(kind, word)
    return {tori._mat_mul2(tori._mat_mul2(x.mat, f), weyl_inverse(x).mat)
            for x in weyl_group(kind)}


def word_mutants():
    """Per kind, the reduced word of every Weyl element outside the conjugacy
    class of the one that ``ELLIPTIC_WORD`` names, as (kind, word); the
    class is the torus, so its other words are no mutants."""
    return [(kind, w.name) for kind, word in tori.ELLIPTIC_WORD.items()
            for w in weyl_group(kind) if w.mat not in conjugacy_class(kind, word)]


def records_under(kind, subcommand, roots=None, word=None, qs=(3,)):
    """{check id: record} of the ``subcommand`` tasks at this kind and
    ``qs`` (None: each check's own), run with the kind's positive roots
    and elliptic word replaced where given."""
    saved = tori._POSITIVE_ROOTS[kind], tori.ELLIPTIC_WORD[kind]
    tori._POSITIVE_ROOTS[kind] = saved[0] if roots is None else roots
    tori.ELLIPTIC_WORD[kind] = saved[1] if word is None else word
    try:
        _clear_weyl_caches()
        config = driver.Config(qs=None if qs is None else list(qs), kinds=[kind])
        records = [driver.run_task(task)[0] for task in driver.build_tasks(subcommand, config)]
    finally:
        tori._POSITIVE_ROOTS[kind], tori.ELLIPTIC_WORD[kind] = saved
        _clear_weyl_caches()
    return {r["id"]: r for r in records}


def _records_not_passing(kind, qs, change):
    """How many records of the ``all`` task list do not PASS under the
    change.  A record that ran out of memory raises instead: it would count
    as catching the mutant, and it says nothing of the mutant."""
    records = records_under(kind, "all", qs=qs, **change).values()
    starved = [r["id"] for r in records if isinstance(r["witness"], dict)
               and r["witness"].get("error", "").startswith("MemoryError")]
    if starved:
        raise MemoryError(f"out of memory in {starved}")
    return sum(r["outcome"] != "PASS" for r in records)


def mutant_sweep(mutants, qs=None, seconds=60, address_space=2**31):
    """[kind, mutant, records not PASS] of the ``all`` task list of each
    (kind, roots) or (kind, word) mutant, each in a forked child under an
    alarm and an address-space cap.  Raises AssertionError if a child
    hangs, is killed, raises, or runs out of memory in some record."""
    out = []
    for kind, mutant in mutants:
        change = {"word" if isinstance(mutant, str) else "roots": mutant}
        failed = _in_forked_child(lambda: _records_not_passing(kind, qs, change),
                                  seconds, address_space)
        if isinstance(failed, dict):
            raise AssertionError(f"the kind-{kind} mutant {mutant} raised {failed['raised']}")
        out.append([kind, mutant, failed])
    return out


@pytest.mark.parametrize("records", [
    lambda *args, **kwargs: {"x": {"id": "x", "outcome": "FAIL",
                                   "witness": {"error": "MemoryError: "}}},
    lambda *args, **kwargs: {}["a mutant that breaks the sweep itself"],
])
def test_mutant_sweep_refuses_children_that_raise_or_starve(monkeypatch, records):
    monkeypatch.setitem(globals(), "records_under", records)
    with pytest.raises(AssertionError, match="the kind-1 mutant ab raised (MemoryError|KeyError)"):
        mutant_sweep([(1, "ab")])


def test_every_root_mutant_is_refused(monkeypatch, fresh_weyl_group):
    reasons = []
    for kind, roots in root_mutants():
        monkeypatch.setitem(tori._POSITIVE_ROOTS, kind, roots)
        for cache in WEYL_CACHES:
            cache.cache_clear()
        with pytest.raises(tori.WeylGroupError) as raised:
            weyl_group(kind)
        reasons.append(str(raised.value).rsplit(") ", 1)[-1])
    assert len(reasons) == 32
    assert set(reasons) == {"are not 8 distinct nonzero ones", "have 3 simple roots",
                            "have 4 simple roots", "is not integral"}


def test_every_kind2_root_mutant_fails_a_record_at_q3():
    """Before the reflections were derived from the roots, 10 of these 16
    left every kind-2 record of ``all`` PASS.  The unmutated roots, swept
    alike, pass every record under the same alarm and cap."""
    control = (2, tori.default_positive_roots(2))
    swept = mutant_sweep([control] + [m for m in root_mutants() if m[0] == 2], qs=(3,))
    assert swept[0][2] == 0
    assert len(swept) == 17 and all(failed > 0 for _, _, failed in swept[1:])


@pytest.mark.parametrize("q", [3, 5, 61])
def test_torus_quotient_refuses_the_other_words(monkeypatch, fresh_weyl_group, q):
    """The identity and the reflections fix a vector, the kind-1 Coxeter
    words have order 4 and w0 = -1 has order 2 at kind 2: none has
    F^(L/2) = -1 at its pair model's level L, so each raises WeylGroupError
    (before this guard, adj(q F - 1) of the kind-1 Coxeter words led with
    q - 1 resp. -q - 1, both even, and ``pow`` raised a bare ValueError)."""
    for kind, word in word_mutants():
        monkeypatch.setitem(tori.ELLIPTIC_WORD, kind, word)
        with pytest.raises(tori.WeylGroupError, match="no elliptic element of order"):
            tori.torus_quotient(kind, q)


def test_torus_quotient_reads_a_projection_that_cannot_lead(monkeypatch, fresh_weyl_group):
    """F = ((3, 1), (-10, -3)) has F^2 = -1, and at q = 3 no unit multiple of
    its projection leads with 1: the entry -q*3 - 1 = -10 of adj(q F - 1) is
    no unit mod n = 10, so the quotient once refused F.  Read from the Smith
    form, E and P have order n and P (q F - 1) = (q F - 1) E = 0 mod n; the
    least unit multiple is one form for the whole subgroup."""
    monkeypatch.setattr(tori, "word_matrix", lambda kind, word: ((3, 1), (-10, -3)))
    n, embed, project = tori.torus_quotient(2, 3)
    relation = [[3 * 3 - 1, 3 * 1], [3 * -10, 3 * -3 - 1]]
    assert (n, embed, project) == (10, ((1,), (4,)), ((0, 1),))
    assert all(x % n == 0 for row in mat_mul(project, relation) for x in row)
    assert all(x % n == 0 for row in mat_mul(relation, embed) for x in row)
    assert math.gcd(*project[0], n) == math.gcd(*(row[0] for row in embed), n) == 1
    for unit_ in (u for u in range(n) if math.gcd(u, n) == 1):
        for vector in (project[0], [row[0] for row in embed]):
            assert tori._least_unit_multiple([unit_ * x for x in vector], n) == tuple(vector)


def test_torus_quotient_keeps_its_forms_up_to_the_pair_order_bound():
    """(q + 1, I, I) at kind 1 and (q^2 + 1, (1, q)^T, (1, -q)) at kind 2 at
    every odd prime power q up to 6,208, past which ``_pair_order`` refuses
    kind 2."""
    eye = ((1, 0), (0, 1))
    qs = list(odd_prime_powers(6208))
    assert qs[-1] == 6203 and len(qs) == 839
    for q in qs:
        assert tori.torus_quotient(1, q) == (q + 1, eye, eye), q
        assert tori.torus_quotient(2, q) == (q * q + 1, ((1,), (q,)), ((1, -q),)), q


def test_an_elliptic_word_of_the_wrong_order_fails_the_exact_sequence():
    """w0 = -1 as torus 2's word: the pair model runs at level 4, where F has
    order 2, and the quotient of -q - 1 would be torus 1's.  Both checks that
    compare the Tate groups with the coinvariants fail at every q."""
    records = records_under(2, "cohomology", word="abab", qs=(3, 5, 7, 9))
    for name, q in product(("exact-sequence", "representatives"), (3, 5, 7, 9)):
        assert records[f"cohomology/{name}-k2-q{q}"]["outcome"] == "FAIL", (name, q)


def test_kind2_word_mutants_fail_every_identity_record():
    """While nothing on the identity path read the elliptic word, "a", "b",
    "aba" and "bab" each failed only lift-independence-k2-q3 of these 12."""
    for kind, word in word_mutants():
        if kind != 2:
            continue
        records = records_under(2, "identity", word=word, qs=(3, 5)).values()
        failed = sum(r["outcome"] != "PASS" for r in records)
        assert (len(records), failed) == (12, 12), word


def test_the_other_coxeter_word_gives_the_same_records():
    """The torus is the conjugacy class of its word: "ba", the inverse of
    the Coxeter element "ab", gives every record of the kind-2 ``all`` list
    at the default qs, outcome, witness and info, equal to those of "ab".
    Before the quadruple slots and the norm test were read from the word, it
    failed norm-consistency and pair-quad-roundtrip at q = 3 to 9."""
    assert conjugacy_class(2, "ab") == {tori.word_matrix(2, w) for w in ("ab", "ba")}
    expected = records_under(2, "all", qs=None)
    assert {r["outcome"] for r in expected.values()} == {"PASS"}
    assert records_under(2, "all", word="ba", qs=None) == expected


# ---------------------------------------------------------------------------
# isomorphic root data: the positive roots in another basis g of the
# character lattice, g . R+, with the word unchanged, are the same torus (F
# becomes g F g^-1), so an outcome that moves with g reads a basis


BASES = {"-I": ((-1, 0), (0, -1)), "[[0,1],[1,0]]": ((0, 1), (1, 0)),
         "diag(-1,1)": ((-1, 0), (0, 1)), "[[1,0],[1,1]]": ((1, 0), (1, 1)),
         "[[1,1],[0,1]]": ((1, 1), (0, 1))}
SHEARS = ("[[1,0],[1,1]]", "[[1,1],[0,1]]")


def roots_in_basis(kind, g):
    """g . R+: each of the kind's positive roots multiplied by the matrix g."""
    return tuple((g[0][0] * x + g[0][1] * y, g[1][0] * x + g[1][1] * y)
                 for x, y in tori.default_positive_roots(kind))


def cohomology_counts(kind, qmax, roots=None):
    """[q, [|H^-1|, |H^0|], number of inertia data] at every odd prime power
    q <= qmax, with the kind's positive roots replaced where given."""
    saved = tori._POSITIVE_ROOTS[kind]
    tori._POSITIVE_ROOTS[kind] = saved if roots is None else roots
    try:
        _clear_weyl_caches()
        return [[q, list(tate_cohomology(kind, q)[:2]), len(characters.enumerate_inertia_data(kind, q))]
                for q in odd_prime_powers(qmax)]
    finally:
        tori._POSITIVE_ROOTS[kind] = saved
        _clear_weyl_caches()


def sheared_mismatches(qmax):
    """[kind, shear, q] wherever a shear of the roots changes the standard
    datum's Tate orders or inertia count, at the odd prime powers q <= qmax.
    Under [[1,1],[0,1]] the Smith form once grew entries past 10^30 and did
    not finish tate_cohomology(2, 9)."""
    out = []
    for kind in tori.KINDS:
        standard = cohomology_counts(kind, qmax)
        for name in SHEARS:
            got = cohomology_counts(kind, qmax, roots_in_basis(kind, BASES[name]))
            out += [[kind, name, want[0]] for want, row in zip(standard, got) if row != want]
    return out


def test_sheared_root_data_stay_fast():
    """Both shears at both kinds and q <= 23, in a forked child under an
    alarm; CI runs q <= 61."""
    assert _in_forked_child(lambda: sheared_mismatches(23), seconds=20) == []


def outcomes_in_basis(kind, g=None):
    """The outcome of every record of the kind's ``all`` list at the default
    qs under the roots g . R+ (None: R+), and the ids with an error witness."""
    roots = None if g is None else roots_in_basis(kind, g)
    records = records_under(kind, "all", roots=roots, qs=None)
    return {"outcomes": {i: r["outcome"] for i, r in records.items()},
            "errors": sorted(i for i, r in records.items()
                             if isinstance(r["witness"], dict) and "error" in r["witness"])}


_Q3_TO_Q9 = (3, 5, 7, 9)
_ROUNDTRIP = {f"cohomology/pair-quad-roundtrip-k2-q{q}" for q in _Q3_TO_Q9}
_NORM = {f"cohomology/norm-consistency-k2-q{q}" for q in _Q3_TO_Q9}
# The records whose outcome under g . R+ is not R+'s, as measured: what of
# the model still reads a basis (CHANGES.md gives each cause).  Kind 1: the
# hand-entered valuation profile of lift-independence, the cover signs keyed
# by parities and the closed rho sign on the last parity; kind 2: the quad
# maps' kind branches and the norm read off the first pair slot.
BASIS_REMAINDER = {
    1: {"-I": {"identity/lift-independence-k1-q3"},
        "[[0,1],[1,0]]": {"identity/lift-independence-k1-q3", "identity/split-vs-combined-k1-q3"},
        "diag(-1,1)": {"identity/lift-independence-k1-q3"},
        "[[1,0],[1,1]]": {"identity/lift-independence-k1-q3"},
        "[[1,1],[0,1]]": {"identity/lift-independence-k1-q3", "identity/split-vs-combined-k1-q3"}},
    2: {"-I": set(), "[[0,1],[1,0]]": _ROUNDTRIP, "diag(-1,1)": _ROUNDTRIP,
        "[[1,0],[1,1]]": _ROUNDTRIP | _NORM, "[[1,1],[0,1]]": _ROUNDTRIP | _NORM},
}


@pytest.mark.parametrize("kind", tori.KINDS)
def test_isomorphic_root_data_differ_only_in_the_pinned_records(kind):
    """Each basis of ``BASES`` runs the kind's ``all`` list in a forked child
    under an alarm.  None raises a WeylGroupError or SmithNormalFormError
    any more (48 kind-2 records did under [[1,0],[1,1]], and [[1,1],[0,1]]
    hung), and the records whose outcome moves are exactly the pinned ones."""
    standard = _in_forked_child(lambda: outcomes_in_basis(kind))
    assert set(standard["outcomes"].values()) == {"PASS"}
    for name, g in BASES.items():
        got = _in_forked_child(lambda: outcomes_in_basis(kind, g))
        assert got["errors"] == [], name
        assert got["outcomes"].keys() == standard["outcomes"].keys(), name
        moved = {i for i, outcome in got["outcomes"].items() if outcome != "PASS"}
        assert moved == BASIS_REMAINDER[kind][name], name


def cohomology_verdicts():
    """Per word mutant, [kind, word, round trip, Tate orders]: the round
    trip's outcome and witness keys, and the orders check's outcome with the
    orders it found or the type of the error that refused the word."""
    verdicts = []
    for kind, word in word_mutants():
        records = records_under(kind, "cohomology", word=word)
        trip, orders = (records[f"cohomology/{name}-k{kind}-q3"]
                        for name in ("pair-quad-roundtrip", "orders"))
        found = orders["witness"] or {}
        verdicts.append([kind, word, [trip["outcome"], sorted(trip["witness"] or ())],
                         [orders["outcome"], found.get("orders", found.get("error", "")
                                                       .partition(":")[0])]])
    return verdicts


# The orders check reports the orders [H^-1, H^0] it found; at kind 1 the
# order-4 words give sigma^2 != 1 and tate_cohomology refuses them.
ORDERS_VERDICTS = {
    (1, ""): ["FAIL", [1, 4]], (1, "a"): ["FAIL", [2, 2]], (1, "b"): ["FAIL", [1, 1]],
    (1, "ab"): ["FAIL", "GaloisActionError"], (1, "ba"): ["FAIL", "GaloisActionError"],
    (1, "aba"): ["FAIL", [1, 1]], (1, "bab"): ["FAIL", [2, 2]],
    (2, ""): ["FAIL", [1, 16]], (2, "a"): ["FAIL", [2, 4]], (2, "b"): ["FAIL", [1, 2]],
    (2, "aba"): ["FAIL", [1, 2]], (2, "bab"): ["FAIL", [2, 4]], (2, "abab"): ["FAIL", [4, 1]],
}
# The round trip reads the word on both sides: the pair model's Galois action
# from F, the quadruple slots from the dual lift of the same word.  So it
# passes the words of determinant 1 ("", the Coxeter words, w0), and fails
# the four reflections a, b, aba and bab with a counterexample pair.
ROUNDTRIP_PASSES = {(1, ""), (1, "ab"), (1, "ba"), (2, ""), (2, "abab")}
WORD_VERDICTS = [[kind, word, ["PASS", []] if (kind, word) in ROUNDTRIP_PASSES
                  else ["FAIL", ["pair", "reason"]], orders]
                 for (kind, word), orders in ORDERS_VERDICTS.items()]


def test_every_word_mutant_fails_the_cohomology_checks():
    for kind in (1, 2):
        assert {r["outcome"] for r in records_under(kind, "cohomology").values()} == {"PASS"}
    assert cohomology_verdicts() == WORD_VERDICTS


def test_swapped_words_fail():
    for kind, word in ((1, "ab"), (2, "abab")):
        assert "FAIL" in {r["outcome"] for r in records_under(kind, "all", word=word).values()}


def test_word_guards_survive_python_O(run_optimized):
    got = run_optimized("""
import json
from test_tori import cohomology_verdicts, records_under
identity = records_under(2, "identity", word="b").values()
print(json.dumps({"identity": sorted({r["outcome"] for r in identity}),
                  "cohomology": cohomology_verdicts()}))
""")
    assert "FAIL" in got["identity"]
    assert got["cohomology"] == WORD_VERDICTS
