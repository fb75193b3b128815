"""The primality kernel as it stood before Baillie-PSW became its only path.

Below 2^64 `is_prime` here runs 12 Miller-Rabin rounds (bases 2-37), a
deterministic witness set for that range; above it, a strong base-2 round
and then a strong Lucas test with Selfridge's parameters.  The package now
runs the second path for every size, so the tests compare the two verdicts
and the two Lucas tests.  `_jacobi` is copied too, so that the reference
shares only `arith.valuation` with the code it checks.
"""

from __future__ import annotations

import math

from congspeed import arith

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_DETERMINISTIC_LIMIT = 1 << 64
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def _miller_rabin_round(n: int, a: int, d: int, s: int) -> bool:
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    a %= n
    result = 1
    while a:
        s = arith.valuation(2, a)
        if s % 2 and n % 8 in (3, 5):
            result = -result
        a, n = n, a >> s
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas test with Selfridge parameter selection."""
    if math.isqrt(n) ** 2 == n:
        return False
    d = 5
    while True:
        j = _jacobi(d, n)
        if j == -1:
            break
        if j == 0 and abs(d) != n:
            return False
        d = -(d + 2) if d > 0 else -(d - 2)
    p, q = 1, (1 - d) // 4

    def _half(x: int) -> int:
        return (x + n) // 2 % n if x & 1 else x // 2 % n

    s = arith.valuation(2, n + 1)
    t = (n + 1) >> s
    u, v, qk = 1, p, q % n
    for bit in bin(t)[3:]:
        u, v = u * v % n, (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = _half(p * u + v), _half(d * u + p * v)
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def is_prime(x: int) -> bool:
    """Deterministic below 2^64, Baillie-PSW style above."""
    if x < 2:
        return False
    for p in _SMALL_PRIMES:
        if x == p:
            return True
        if x % p == 0:
            return False
    s = arith.valuation(2, x - 1)
    d = (x - 1) >> s
    if x < _DETERMINISTIC_LIMIT:
        return all(_miller_rabin_round(x, a, d, s) for a in _MR_WITNESSES)
    if not _miller_rabin_round(x, 2, d, s):
        return False
    return _strong_lucas_prp(x)
