"""Primality testing and the smallest prime attaining each congruence speed.

For every target speed n >= 2 the residue classes 1, 3, 7 and 9 are merged
in ascending order and tested for primality; the first hit is the record
holder.  The even classes and class 5 hold no prime except 5 itself
(V(5) = 2), so they are never enumerated.  A candidate above _SIEVE_BOUND
with a prime factor up to that bound is struck, by a gcd with the product
of the primes up to isqrt(_SIEVE_BOUND) or else one with the product of the
rest, before the primality test runs; it still counts as examined.  Every
verdict is Baillie-PSW: a strong base-2 round, then a strong Lucas test on a
Q = 1 sequence.  Feitsma and Galway listed every base-2 strong pseudoprime below
2^64 and none passes the Lucas test, so only larger verdicts are "probabilistic".
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from typing import Iterator

from . import arith, classes, speed

_DETERMINISTIC_LIMIT = 1 << 64
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
# The search's gcd prefilter strikes candidates with a prime factor up to here.
_SIEVE_BOUND = 20_000

METHOD_DETERMINISTIC = "deterministic-small"
METHOD_PROBABILISTIC = "probabilistic"


class SearchBudgetError(RuntimeError):
    """Raised when the candidate budget runs out; last_candidate was the last examined."""

    def __init__(self, n: int, examined: int, last_candidate: int):
        super().__init__(
            f"budget exhausted after {examined} candidates for speed {n}; "
            f"resume above {arith.to_decimal(last_candidate)}"
        )
        self.n = n
        self.examined = examined
        self.last_candidate = last_candidate


@dataclass(frozen=True)
class PrimeSpeedRecord:
    n: int
    q: int
    method: str
    oracle_checked: bool


@dataclass(frozen=True)
class RepnineForm:
    """(k+1) * 10^n - 1: the last n digits are all nines."""

    k: int
    n: int

    @property
    def value(self) -> int:
        return (self.k + 1) * 10**self.n - 1


def _miller_rabin_round(n: int) -> bool:
    """Strong probable-prime test to base 2 for odd n."""
    s = arith.valuation(2, n - 1)
    x = pow(2, (n - 1) >> s, n)
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
    """Strong Lucas test with Selfridge parameter selection, on a Q = 1 sequence.

    With alpha, beta the roots of x^2 - x + Q and gamma = alpha / beta,
    W_k = gamma^k + gamma^-k is V_k(P', 1) for P' = (1 - 2Q) / Q mod n: two
    products per bit, no power of Q.  Q is a unit, as a prime p dividing Q and
    n has D = 1 (mod p) and |D| > 3p, so n failed at D = +-p or 9 (Jacobi 0).
    gamma - 1/gamma = sqrt(D) / Q is a unit too, so for t, the odd part of
    n + 1, U_t = 0 iff (W_t, W_(t+1)) = (2, P') and V_t = 0 iff it is (-2, -P');
    and V_(2m) = Q^m W_m, so V_(t 2^r) = 0 iff W_(t 2^(r-1)) = 0.
    """
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
    q = (1 - d) // 4
    p = (1 - 2 * q) * pow(q, -1, n) % n
    s = arith.valuation(2, n + 1)
    t = (n + 1) >> s
    v, w = p, (p * p - 2) % n  # W_1, W_2
    for bit in bin(t)[3:]:
        if bit == "1":  # k -> 2k + 1
            v, w = (v * w - p) % n, (w * w - 2) % n
        else:  # k -> 2k
            v, w = (v * v - 2) % n, (v * w - p) % n
    if (v, w) in ((2 % n, p), (-2 % n, -p % n)):
        return True
    for _ in range(s - 1):
        if v == 0:
            return True
        v = (v * v - 2) % n
    return False


def is_prime(x: int) -> bool:
    """Baillie-PSW at every size: exact below 2^64 (Feitsma-Galway), probabilistic above."""
    if x < 2:
        return False
    for p in _SMALL_PRIMES:
        if x == p:
            return True
        if x % p == 0:
            return False
    return _miller_rabin_round(x) and _strong_lucas_prp(x)


def primality_method(x: int) -> str:
    return METHOD_DETERMINISTIC if x < _DETERMINISTIC_LIMIT else METHOD_PROBABILISTIC


def repnine_speed(k: int, n: int):
    """Constant congruence speed of (k+1) * 10^n - 1, or None when above n.

    For n >= 2 the speed is exactly n unless k = 9 (mod 10); at n = 1 the
    exceptional multipliers are k = 4 (mod 5).
    """
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    if n == 1:
        return 1 if k % 5 != 4 else None
    return n if k % 10 != 9 else None


@functools.lru_cache(maxsize=None)
def _primorials() -> tuple[int, int]:
    """Products of the primes up to isqrt(_SIEVE_BOUND) and of the rest up to the bound."""
    root = math.isqrt(_SIEVE_BOUND)
    sieve = bytearray([1]) * (_SIEVE_BOUND + 1)
    for p in range(2, root + 1):
        sieve[p * p :: p] = bytes(len(sieve[p * p :: p]))
    return (math.prod(p for p in range(2, root + 1) if sieve[p]),
            math.prod(p for p in range(root + 1, _SIEVE_BOUND + 1) if sieve[p]))


def speed_candidates(n: int) -> Iterator[int]:
    """The prime search's stream: ascending bases with speed n.

    Every speed-1 base for n = 1.  For n >= 2 only the classes 1, 3, 7 and
    9, plus 5 at n = 2: every other even or class-5 base is composite.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    digits = range(1, 10) if n == 1 else (1, 3, 7, 9)
    five = (5,) if n == 2 else ()
    return heapq.merge(five, *(classes.class_spec(s1, n).members() for s1 in digits))


def smallest_prime_with_speed(
    n: int, budget: int | None = None, oracle_check: bool | None = None
) -> PrimeSpeedRecord:
    """First prime in the merged ascending class enumerations for speed n."""
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    examined = 0
    last = 0
    for cand in speed_candidates(n):
        if examined == budget:
            raise SearchBudgetError(n, examined, last)
        examined += 1
        last = cand
        if cand > _SIEVE_BOUND and any(math.gcd(cand, p) != 1 for p in _primorials()):
            continue
        if is_prime(cand):
            if classes.speed_by_formula(cand) != n:  # pragma: no cover
                raise RuntimeError(
                    f"candidate {arith.to_decimal(cand)} fails the speed check for n = {n}")
            check = oracle_check if oracle_check is not None else n <= 12
            if check and speed.constant_speed(cand) != n:  # pragma: no cover
                raise RuntimeError(f"oracle rejects {arith.to_decimal(cand)} as a speed-{n} base")
            return PrimeSpeedRecord(n, cand, primality_method(cand), bool(check))
    raise RuntimeError("unreachable: the enumerations are infinite")  # pragma: no cover


def smallest_prime_table(
    n_max: int, extra: tuple = (), resolve=smallest_prime_with_speed
) -> list[PrimeSpeedRecord]:
    """resolve(n) for n = 1..n_max plus any extra indices, ascending in n."""
    indices = sorted(set(range(1, n_max + 1)) | set(extra))
    if not indices:
        raise ValueError("no indices: need n_max >= 1 or an extra index")
    return [resolve(n) for n in indices]


def non_monotonic_flags(records: list, resolver=None) -> set:
    """Indices n among the records whose q_n drops below q_(n-1).

    Predecessors missing from the record list are computed through the
    resolver (defaults to a fresh search), so a run like 51..54 still gets
    its leading flag evaluated.
    """
    if resolver is None:
        resolver = lambda n: smallest_prime_with_speed(n).q
    known = {r.n: r.q for r in records}
    flags = set()
    for r in records:
        if r.n <= 1:
            continue
        prev = known.get(r.n - 1)
        if prev is None:
            prev = resolver(r.n - 1)
        if r.q < prev:
            flags.add(r.n)
    return flags


def prime_speed_bounds(n: int, known_prime: int | None = None) -> tuple[int, int]:
    """(lower, upper) bounds for the smallest prime with speed n >= 2.

    Lower comes from the square-root class bound; upper is the all-nines
    witness 9 * 10^n - 1, refined by any known smaller speed-n prime.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    lower = math.isqrt(5**n - 1) + 1
    if repnine_speed(8, n) != n:  # pragma: no cover - k = 8 is never excluded
        raise AssertionError("all-nines witness lost its speed")
    upper = 9 * 10**n - 1
    if known_prime is not None:
        upper = min(upper, known_prime)
    return lower, upper
