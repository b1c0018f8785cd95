import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from depthzero import ffield
from depthzero.ffield import (
    BudgetExceededError,
    FFElem,
    FieldTower,
    ff_frobenius,
    ff_in_subfield,
    ff_norm,
    is_prime,
    prime_power,
)


@pytest.fixture(scope="module")
def tower3():
    return FieldTower.build(3, 1, seed=0, max_level=4)


def _walk(tower):
    """The (exp_packed, dlog) tables of the walk that built the tower."""
    p, modulus = tower.p, list(tower.modulus)
    exp_packed, dlog, _zech = ffield._build_tables(p, modulus, ffield._find_primitive(p, modulus))
    return exp_packed, dlog


def test_rejects_composite_and_char2():
    with pytest.raises(ValueError):
        FieldTower.build(9, 1)
    with pytest.raises(ValueError, match="characteristic 2"):
        FieldTower.build(2, 1, max_level=2)


def test_prime_power_matches_sympy():
    """Every q below 5,000, then inputs whose divisor search must stop at
    sqrt(q): a prime near 10^9, two prime powers and a prime times 3."""
    assert prime_power(0) is None and prime_power(1) is None
    for q in [*range(2, 5000), 10**9 + 7, 3**19, 101**4, 3 * (10**9 + 7)]:
        factors = sympy.factorint(q)
        assert prime_power(q) == (next(iter(factors.items())) if len(factors) == 1 else None), q


def test_budget_rejection(monkeypatch):
    # 127^4 = 260M entries: refused before the modulus search starts
    monkeypatch.setattr(ffield, "_find_modulus", None)
    with pytest.raises(BudgetExceededError, match="budget is 200000000"):
        FieldTower.build(127, 1, max_level=4)


# Each corruption of the q = 3 tower, whose Zech table has 80 entries: its
# entry 0 is dlog(1 + 1) = dlog(-1) = 40 and its one sentinel is at 40.  The
# script prints the TowerTableError message of each (null if none is raised);
# it imports no test module, so python -O compiles no sympy to run it.
TABLE_CORRUPTIONS = """
import json
import numpy as np
from depthzero.ffield import FFElem, FieldTower, TowerTableError

tower = FieldTower.build(3, 1, seed=0, max_level=4)
good = np.array(tower.zech)

def with_zech(zech, max_level=4):
    return lambda: FieldTower(3, 1, max_level, 0, tower.modulus, zech)

two_zeros, moved, off_subfield = good.copy(), good.copy(), good.copy()
two_zeros[0] = -1
moved[[0, 40]] = moved[[40, 0]]
off_subfield[0] = 1
# a made-up level 3: q^3 - 1 = 26 entries with the sentinel at 13, but
# level 2's group of order q^2 - 1 = 8 is no subgroup of that
level3 = np.zeros(26, dtype=np.int64)
level3[13] = -1
one = FFElem(1, 0)
messages = []
for corrupted in (with_zech(good[:-1]), with_zech(two_zeros), with_zech(moved),
                  with_zech(level3, max_level=3),
                  lambda: with_zech(off_subfield)().add(one, one)):
    try:
        corrupted()
        messages.append(None)
    except TowerTableError as exc:
        messages.append(str(exc))
print(json.dumps(messages))
"""

TABLE_GUARD_MESSAGES = [
    "Zech table has 79 entries, not q^L - 1 = 80",
    "Zech table must have exactly one zero entry, has 2",
    "-1 must sit at dlog (q^L-1)/2 = 40",
    "level 2 has group order 8, which does not divide 26",
    "sum escaped the subfield of level 1, table corrupt",
]


def test_table_guards_raise_named_errors(capsys, run_optimized):
    """Each structural guard of a tower's table raises TowerTableError, also
    with asserts stripped; the untouched table passes them all."""
    tower = FieldTower.build(3, 1, seed=0, max_level=4)
    one = FFElem(1, 0)
    assert tower.add(one, one) == FFElem(1, 1)  # 1 + 1 = -1, of dlog 1 in F_3^*
    exec(TABLE_CORRUPTIONS, {})
    assert json.loads(capsys.readouterr().out) == TABLE_GUARD_MESSAGES
    assert run_optimized(TABLE_CORRUPTIONS) == TABLE_GUARD_MESSAGES


def test_q47_level2_group_order():
    t = FieldTower.build(47, 1, seed=0, max_level=2)
    assert t.group_order(2) == 2208
    assert t.group_order(1) == 46


def test_zech_agrees_with_polynomial_addition_full_enumeration(tower3):
    exp, dlog = _walk(tower3)
    p = tower3.p
    n = len(tower3.modulus) - 1
    group = tower3.top_order

    def unpack(code):
        out = []
        for _ in range(n):
            out.append(code % p)
            code //= p
        return out

    def pack(c):
        t = 0
        for x in reversed(c):
            t = t * p + x
        return t

    for a in range(group):
        pa = unpack(int(exp[a]))
        for b in range(group):
            pb = unpack(int(exp[b]))
            code = pack([(x + y) % p for x, y in zip(pa, pb)])
            res = tower3.add(FFElem(4, a), FFElem(4, b))
            if code == 0:
                assert res is None
            else:
                assert res is not None and res.dlog == int(dlog[code])


def test_add_of_negative_is_zero(tower3):
    for d in range(0, tower3.top_order, 7):
        x = FFElem(4, d)
        assert tower3.add(x, tower3.neg(x)) is None


def test_frobenius_order_and_fixed_field(tower3):
    q = tower3.q
    # frob^j fixes x exactly when x lies in the level-gcd(j, m) subfield
    for m in (1, 2, 4):
        for d in range(tower3.group_order(m)):
            x = FFElem(m, d)
            assert ff_frobenius(q, x, m) == x
            for j in range(1, m):
                fixed = ff_frobenius(q, x, j) == x
                from math import gcd

                assert fixed == ff_in_subfield(q, x, gcd(j, m))
    # frobenius itself fixes exactly the prime field
    for d in range(tower3.group_order(4)):
        x = FFElem(4, d)
        assert (ff_frobenius(q, x) == x) == ff_in_subfield(q, x, 1)


@pytest.mark.parametrize("q,e,p", [(3, 1, 3), (5, 1, 5), (9, 2, 3)])
def test_norm_kernels_exhaustive(q, e, p):
    # |ker(norm)| = q+1 from level 2 and q^2+1 from level 4
    kernel2 = sum(1 for d in range(q**2 - 1) if ff_norm(q, FFElem(2, d), 1).dlog == 0)
    assert kernel2 == q + 1
    kernel4 = sum(1 for d in range(q**4 - 1) if ff_norm(q, FFElem(4, d), 2).dlog == 0)
    assert kernel4 == q * q + 1


def test_norm_surjectivity_on_generators(tower3):
    q = tower3.q
    g2 = tower3.gen(2)
    image = ff_norm(q, g2, 1)
    # the norm of a level-2 generator generates the level-1 group
    seen = {(image.dlog * k) % (q - 1) for k in range(q - 1)}
    assert seen == set(range(q - 1))


def test_subfield_membership_pattern(tower3):
    q = tower3.q
    index = (q**4 - 1) // (q**2 - 1)
    for t in range(q**2 - 1):
        assert ff_in_subfield(q, FFElem(4, index * t), 2)
    assert not ff_in_subfield(q, FFElem(4, 1), 2)


def test_embed_then_norm_roundtrip(tower3):
    # norm from level 4 down to 2 of an embedded element is its (q^2+1)-th power
    q = tower3.q
    for d in range(q**2 - 1):
        up = FFElem(4, d * (q * q + 1))  # FFElem(2, d) embedded in level 4
        assert ff_in_subfield(q, up, 2)
        assert ff_norm(q, up, 2) == FFElem(2, (d * (q * q + 1)) % (q * q - 1))


def test_add_levels_consistent(tower3):
    q = tower3.q
    # close under addition within level 2, exhaustively
    for a in range(q * q - 1):
        for b in range(q * q - 1):
            res = tower3.add(FFElem(2, a), FFElem(2, b))
            if res is not None:
                assert res.level == 2
                assert 0 <= res.dlog < q * q - 1


def test_model_choice_invariance():
    # two different moduli (seeds) must give identical structural answers
    t_a = FieldTower.build(3, 1, seed=0, max_level=4)
    t_b = FieldTower.build(3, 1, seed=6, max_level=4)
    assert tuple(t_a.modulus) != tuple(t_b.modulus)
    q = 3
    for t in (t_a, t_b):
        kernel = sum(1 for d in range(q**2 - 1) if ff_norm(q, FFElem(2, d), 1).dlog == 0)
        assert kernel == q + 1
        x = FFElem(4, 5)
        s = t.add(x, t.one(4))
        assert s is not None


def test_cache_roundtrip(tmp_path):
    t1 = FieldTower.build(3, 1, seed=0, max_level=4, cache_dir=tmp_path)
    cache_files = list(tmp_path.glob("zech_*.bin"))
    assert len(cache_files) == 1
    t2 = FieldTower.build(3, 1, seed=0, max_level=4, cache_dir=tmp_path)
    assert np.array_equal(np.asarray(t1.zech), np.asarray(t2.zech))
    # corrupting the file forces regeneration
    raw = bytearray(cache_files[0].read_bytes())
    raw[-1] ^= 0xFF
    cache_files[0].write_bytes(bytes(raw))
    t3 = FieldTower.build(3, 1, seed=0, max_level=4, cache_dir=tmp_path)
    assert np.array_equal(np.asarray(t1.zech), np.asarray(t3.zech))
    # a different seed gets its own file
    FieldTower.build(3, 1, seed=1, max_level=4, cache_dir=tmp_path)
    assert len(list(tmp_path.glob("zech_*.bin"))) == 2


def test_cache_write_is_atomic(tmp_path, monkeypatch):
    FieldTower.build(3, 1, seed=0, max_level=4, cache_dir=tmp_path)
    (path,) = tmp_path.glob("zech_*.bin")
    before = path.read_bytes()
    original = Path.write_bytes

    def half_then_fail(self, data):
        original(self, data[: len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_bytes", half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        ffield._save_cache(tmp_path, 3, 1, 4, 0, [1] * 5, np.zeros(80, dtype=np.int64))
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_zech_tables_are_read_only(tmp_path):
    built = FieldTower.build(3, 1, seed=0, max_level=4, cache_dir=tmp_path)
    loaded = FieldTower.build(3, 1, seed=0, max_level=4, cache_dir=tmp_path)
    for tower in (built, loaded):
        with pytest.raises(ValueError):
            tower.zech[0] = 0


# sha256 of the Zech table of (p, e, max_level, seed), as the polynomial
# walk built it; any other walk must reproduce these bytes
ZECH_SHA256 = {
    (3, 1, 4, 0): "c81c4e376145bd5d71f5683f18b78a5c74264eb548b46634eb9e6f2de169c783",
    (3, 1, 4, 6): "5f35ed0ab4714b4e360fc3e12871a12fc4ecfdf0a2a5724bcd181f5a1d59e5de",
    (5, 1, 4, 0): "12b77e86d8b4604c66e81012ae55f824a68ff8dc80c9b70aa0640f5f90e09083",
    (3, 2, 4, 0): "b4320c10ed445f30fc903217866e8d1f4b9b929eb8988fad380ffc961c913c44",
    (3, 3, 4, 0): "76e90a6eaf50c22e185ef2f7fdfe1b531c4fd0340d9d87cf1d43ec718c7753f1",
    (7, 1, 2, 0): "f7d4a99a9896a374d8298574312927c666a38b8191d38fe9071421a81ac30677",
}


@pytest.mark.parametrize("p,e,level,seed", sorted(ZECH_SHA256))
def test_zech_table_bytes_pinned(p, e, level, seed):
    tower = FieldTower.build(p, e, seed=seed, max_level=level)
    assert hashlib.sha256(tower.zech.tobytes()).hexdigest() == ZECH_SHA256[p, e, level, seed]


def test_walk_equals_generator_powers():
    p, modulus = 3, ffield._find_modulus(3, 12, 0)  # the walk of q = 27 at level 4
    generator = ffield._find_primitive(p, modulus)
    exp_packed, dlog, _zech = ffield._build_tables(p, modulus, generator)
    for k in [0, 1, 2, 729, 730, 731, 1459, 1460, 12345, 265720, 27**4 - 2]:
        coeffs = ffield._ppow(generator, k, p, modulus)
        assert int(exp_packed[k]) == sum(c * p**i for i, c in enumerate(coeffs))
        assert int(dlog[exp_packed[k]]) == k


@settings(max_examples=40, deadline=None)
@given(a=st.integers(0, 79), b=st.integers(0, 79))
def test_addition_commutes(a, b):
    t = FieldTower.build(3, 1, seed=0, max_level=4)
    x, y = FFElem(4, a), FFElem(4, b)
    assert t.add(x, y) == t.add(y, x)


def test_is_prime():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
