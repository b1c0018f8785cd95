"""Finite field tower f_q < f_{q^2} < f_{q^4} on discrete logarithms.

Nonzero elements of every level live in a single cyclic group: the
multiplicative group of the top field F_{q^L} (L = 2 or 4), represented
by discrete logs for a fixed primitive generator.  Level-m elements are
the dlogs divisible by (q^L-1)/(q^m-1), so subfield compatibility holds
by construction.  Multiplicative structure (Frobenius, norms, subfield
tests) is pure modular arithmetic; the one additive operation goes
through a precomputed Zech logarithm table.

The modulus polynomial is the first irreducible in a fixed enumeration
order offset by the seed, so runs are reproducible and the model choice
is exercised by tests rather than assumed.

Towers exist in odd characteristic only (the campaigns take odd q), and
a tower whose top field has more than TABLE_BUDGET elements is refused
before any table is built.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from math import isqrt
from pathlib import Path

import numpy as np

CACHE_MAGIC = b"ZECH"
CACHE_VERSION = 2
# Zech table entries one tower may hold: 200M int64 entries are 1.6 GB
TABLE_BUDGET = 200_000_000


class BudgetExceededError(RuntimeError):
    """Table construction would exceed the entry budget."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, e) with q = p**e for a prime p, or None if q is not a prime power."""
    if q < 2:
        return None
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)  # least divisor, so prime
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    return (p, e) if q == 1 else None


@dataclass(frozen=True)
class FFElem:
    """A nonzero element of f_{q^level}, as a dlog for that level's generator."""

    level: int
    dlog: int


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (coefficient lists, low degree first)


def _pmul(a, b, p, mod):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _pmod(out, p, mod)


def _pmod(a, p, mod):
    a = [c % p for c in a]
    n = len(mod) - 1
    for k in range(len(a) - 1, n - 1, -1):
        c = a[k]
        if c:
            for i in range(n + 1):
                a[k - n + i] = (a[k - n + i] - c * mod[i]) % p
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _ppow(a, e, p, mod):
    result = [1]
    base = _pmod(list(a), p, mod)
    while e:
        if e & 1:
            result = _pmul(result, base, p, mod)
        base = _pmul(base, base, p, mod)
        e >>= 1
    return result


def _pgcd(a, b, p):
    a = [c % p for c in a]
    b = [c % p for c in b]
    while any(b):
        while len(b) > 1 and b[-1] == 0:
            b.pop()
        inv = pow(b[-1], p - 2, p)
        bm = [(c * inv) % p for c in b]
        r = [c % p for c in a]
        while len(r) > 1 and r[-1] == 0:
            r.pop()
        while len(r) >= len(bm) and any(r):
            c = r[-1]
            shift = len(r) - len(bm)
            for i, bc in enumerate(bm):
                r[shift + i] = (r[shift + i] - c * bc) % p
            while len(r) > 1 and r[-1] == 0:
                r.pop()
        a, b = bm, r
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible(coeffs, p):
    # coeffs: monic, degree n; uses x^(p^k) fixed-point criteria
    n = len(coeffs) - 1
    x = [0, 1]
    xq = _ppow(x, p**n, p, coeffs)
    lhs = [(a - b) % p for a, b in zip(xq + [0] * len(x), x + [0] * len(xq))]
    if any(lhs):
        return False
    for ell in _prime_factors(n):
        xk = _ppow(x, p ** (n // ell), p, coeffs)
        diff = [(a - b) % p for a, b in zip(xk + [0] * len(x), x + [0] * len(xk))]
        g = _pgcd(coeffs, diff, p)
        if len(g) > 1:
            return False
    return True


def _find_modulus(p: int, degree: int, seed: int) -> list[int]:
    """First irreducible monic polynomial of the given degree, scanning
    coefficient codes upward from an offset derived from the seed."""
    space = p**degree
    start = seed % space
    for step in range(space):
        code = (start + step) % space
        coeffs = []
        c = code
        for _ in range(degree):
            coeffs.append(c % p)
            c //= p
        coeffs.append(1)
        if _is_irreducible(coeffs, p):
            return coeffs
    raise RuntimeError("no irreducible polynomial found (unreachable)")


def _find_primitive(p: int, modulus: list[int]) -> list[int]:
    n = len(modulus) - 1
    group = p**n - 1
    factors = _prime_factors(group)
    code = 2
    while True:
        coeffs = []
        c = code
        while c:
            coeffs.append(c % p)
            c //= p
        if len(coeffs) > n:
            raise RuntimeError("no primitive element found (unreachable)")
        candidate = _pmod(coeffs, p, modulus)
        if any(candidate):
            ok = all(
                _ppow(candidate, group // ell, p, modulus) != [1] for ell in factors
            )
            if ok:
                assert _ppow(candidate, group, p, modulus) == [1]
                return candidate
        code += 1


# ---------------------------------------------------------------------------
# table construction (vectorised walk of the multiplicative group)


def _mul_matrix(elem, p, modulus) -> np.ndarray:
    """The n x n matrix of multiplication by ``elem`` on coefficient rows:
    row i holds x^i * elem reduced modulo the modulus, so a row vector v
    maps to v @ M % p."""
    n = len(modulus) - 1
    rows = []
    cur = _pmod(list(elem), p, modulus)
    for _ in range(n):
        rows.append(cur + [0] * (n - len(cur)))
        cur = _pmul(cur, [0, 1], p, modulus)
    return np.array(rows, dtype=np.int64)


def _build_tables(p, modulus, generator):
    n = len(modulus) - 1
    size = p**n
    group = size - 1
    powers = np.array([p**i for i in range(n)], dtype=np.int64)

    baby_count = max(2, int(group**0.5) + 1)
    baby_count = min(baby_count, group)
    # baby steps g^0 .. g^(B-1), then each giant stride multiplies the whole
    # block by g^B; entries stay below n * p^2, far inside int64
    step = _mul_matrix(generator, p, modulus)
    block = np.zeros((baby_count, n), dtype=np.int64)
    block[0, 0] = 1
    for k in range(1, baby_count):
        block[k] = block[k - 1] @ step % p
    giant = _mul_matrix(_ppow(generator, baby_count, p, modulus), p, modulus)

    exp_packed = np.empty(group, dtype=np.int64)
    written = 0
    while written < group:
        take = min(baby_count, group - written)
        exp_packed[written : written + take] = block[:take] @ powers
        written += take
        if written < group:
            block = block @ giant % p

    dlog = np.full(size, -1, dtype=np.int64)
    dlog[exp_packed] = np.arange(group, dtype=np.int64)
    assert exp_packed[0] == 1, "g^0 must be the identity"
    assert dlog[1] == 0

    c0 = exp_packed % p
    plus1 = exp_packed - c0 + (c0 + 1) % p
    zech = dlog[plus1]
    return exp_packed, dlog, zech


# ---------------------------------------------------------------------------


class FieldTower:
    """Shared-generator model of f_q < f_{q^2} (< f_{q^4} when max_level=4)."""

    def __init__(self, p, e, max_level, seed, modulus, zech):
        self.p = p
        self.e = e
        self.q = p**e
        self.max_level = max_level
        self.seed = seed
        self.modulus = tuple(modulus)
        self.zech = zech
        self.levels = tuple(m for m in (1, 2, 4) if m <= max_level)
        self.top_order = self.q**max_level - 1
        self._check_structure()

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, p, e, *, seed=0, max_level=4, cache_dir=None):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if p == 2:
            raise ValueError("characteristic 2 is excluded")
        if max_level not in (2, 4):
            raise ValueError(f"max_level must be 2 or 4, got {max_level}")
        entries = p ** (e * max_level)
        if entries > TABLE_BUDGET:
            raise BudgetExceededError(
                f"table would need {entries} entries, budget is {TABLE_BUDGET}"
            )
        degree = e * max_level
        modulus = _find_modulus(p, degree, seed)

        if cache_dir is not None:
            cached = _load_cache(Path(cache_dir), p, e, max_level, seed, modulus)
            if cached is not None:
                return cls(p, e, max_level, seed, modulus, cached)

        generator = _find_primitive(p, modulus)
        _exp_packed, _dlog, zech = _build_tables(p, modulus, generator)
        # read-only like a table loaded from the cache, so a tower shared
        # between contexts cannot be altered through one of them
        zech.setflags(write=False)
        if cache_dir is not None:
            _save_cache(Path(cache_dir), p, e, max_level, seed, modulus, zech)
        return cls(p, e, max_level, seed, modulus, zech)

    def _check_structure(self):
        group = self.top_order
        assert len(self.zech) == group
        # exactly one k has 1 + g^k = 0 in odd characteristic
        sentinel = int(np.count_nonzero(self.zech < 0))
        assert sentinel == 1, "Zech table must have exactly one zero entry"
        assert self.zech[group // 2] < 0, "-1 must sit at dlog (q^L-1)/2"
        for m in self.levels:
            assert group % self.group_order(m) == 0

    # -- structure ---------------------------------------------------------

    def group_order(self, level: int) -> int:
        return self.q**level - 1

    def scale(self, level: int) -> int:
        """dlog multiplier embedding level into the top field."""
        if level not in self.levels:
            raise ValueError(f"level {level} not available (max {self.max_level})")
        return self.top_order // self.group_order(level)

    def one(self, level: int) -> FFElem:
        return FFElem(level, 0)

    def gen(self, level: int) -> FFElem:
        self.scale(level)
        return FFElem(level, 1 % self.group_order(level))

    def neg_one_dlog(self, level: int) -> int:
        return self.group_order(level) // 2

    # -- additive structure (Zech) ------------------------------------------

    def add(self, x: FFElem, y: FFElem) -> FFElem | None:
        """x + y, or None when the sum is zero."""
        if x.level != y.level:
            raise ValueError(f"level mismatch: {x.level} vs {y.level}")
        s = self.scale(x.level)
        a = (x.dlog * s) % self.top_order
        b = (y.dlog * s) % self.top_order
        c = (b - a) % self.top_order
        z = int(self.zech[c])
        if z < 0:
            return None
        d = (a + z) % self.top_order
        assert d % s == 0, "sum escaped the subfield, table corrupt"
        return FFElem(x.level, d // s)

    def neg(self, x: FFElem) -> FFElem:
        return FFElem(x.level, (x.dlog + self.neg_one_dlog(x.level)) % self.group_order(x.level))

    def sub(self, x: FFElem, y: FFElem) -> FFElem | None:
        return self.add(x, self.neg(y))


# ---------------------------------------------------------------------------
# level arithmetic that needs only q (no tables)


def ff_mul(q: int, x: FFElem, y: FFElem) -> FFElem:
    if x.level != y.level:
        raise ValueError(f"level mismatch: {x.level} vs {y.level}")
    return FFElem(x.level, (x.dlog + y.dlog) % (q**x.level - 1))


def ff_inv(q: int, x: FFElem) -> FFElem:
    return FFElem(x.level, (-x.dlog) % (q**x.level - 1))


def ff_pow(q: int, x: FFElem, n: int) -> FFElem:
    return FFElem(x.level, (x.dlog * n) % (q**x.level - 1))


def ff_frobenius(q: int, x: FFElem, j: int = 1) -> FFElem:
    """x -> x^(q^j), the arithmetic Frobenius iterated j times."""
    order = q**x.level - 1
    return FFElem(x.level, (x.dlog * pow(q, j % x.level, order)) % order)


def ff_norm(q: int, x: FFElem, to_level: int) -> FFElem:
    """Norm from level m down to level k | m: x -> x^((q^m-1)/(q^k-1))."""
    if x.level % to_level != 0:
        raise ValueError(f"cannot take norm from level {x.level} to {to_level}")
    return FFElem(to_level, x.dlog % (q**to_level - 1))


def ff_in_subfield(q: int, x: FFElem, sub_level: int) -> bool:
    if x.level % sub_level != 0:
        raise ValueError(f"level {sub_level} is not a subfield of level {x.level}")
    index = (q**x.level - 1) // (q**sub_level - 1)
    return x.dlog % index == 0


# ---------------------------------------------------------------------------
# cache files: versioned header, then the Zech table


def _cache_path(cache_dir: Path, p, e, max_level, seed) -> Path:
    return cache_dir / f"zech_p{p}_e{e}_L{max_level}_s{seed}.bin"


def _header_bytes(p, e, max_level, seed, modulus, checksum):
    packed = struct.pack(
        "<4sIIIIIIQ",
        CACHE_MAGIC, CACHE_VERSION, p, e, max_level, seed, len(modulus), checksum,
    )
    return packed + struct.pack(f"<{len(modulus)}I", *modulus)


def _checksum(body: bytes) -> int:
    """The first 8 bytes of the SHA-256 of a cache body; hashlib is imported
    here because no campaign reads or writes the tower cache."""
    import hashlib

    return int.from_bytes(hashlib.sha256(body).digest()[:8], "little")


def _save_cache(cache_dir: Path, p, e, max_level, seed, modulus, zech):
    cache_dir.mkdir(parents=True, exist_ok=True)
    body = np.asarray(zech, dtype=np.int64).tobytes()
    checksum = _checksum(body)
    path = _cache_path(cache_dir, p, e, max_level, seed)
    # write a private file, then rename it over the cache file: a reader
    # (or a --jobs worker writing the same table) sees the old file or the
    # new one, never a partial write
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(_header_bytes(p, e, max_level, seed, modulus, checksum) + body)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _load_cache(cache_dir: Path, p, e, max_level, seed, modulus):
    path = _cache_path(cache_dir, p, e, max_level, seed)
    if not path.exists():
        return None
    raw = path.read_bytes()
    head_len = struct.calcsize("<4sIIIIIIQ")
    if len(raw) < head_len:
        return None
    magic, version, hp, he, hl, hs, mlen, checksum = struct.unpack(
        "<4sIIIIIIQ", raw[:head_len]
    )
    if (magic, version, hp, he, hl, hs) != (CACHE_MAGIC, CACHE_VERSION, p, e, max_level, seed):
        return None
    mod_bytes = raw[head_len : head_len + 4 * mlen]
    if len(mod_bytes) != 4 * mlen:
        return None
    stored_modulus = list(struct.unpack(f"<{mlen}I", mod_bytes))
    if stored_modulus != list(modulus):
        return None
    body = raw[head_len + 4 * mlen :]
    if _checksum(body) != checksum:
        return None
    zech = np.frombuffer(body, dtype=np.int64)
    if len(zech) != p ** (e * max_level) - 1:
        return None
    return zech
