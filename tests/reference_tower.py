"""Recursive power-tower evaluator, the reference for `arith.tower_residues`.

The package computes towers with one iterative table over the Carmichael
chain.  This module evaluates the same towers top-down, one modulus at a
time, so the tests can compare the two.  It carries a tower exponent
exactly up to its own threshold, CLAMP_THRESHOLD (or a larger prime-power
exponent of the modulus), where the package stops at the digit count, so
the two evaluations clamp different towers.  Its Carmichael lambda is its
own too, written from the prime-power values, so the package's chain is
checked against a lambda it did not compute.  `exact_tetration` gives
exact values for the few towers small enough to write out.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from congspeed.arith import digit_length, valuation

CLAMP_THRESHOLD = 64


@dataclass(frozen=True)
class ClampedExponent:
    """A tower exponent prepared for use modulo some m.

    When is_large is false, residue is the exact exponent.  When true, the
    exact exponent exceeds the evaluation threshold and residue is its value
    modulo lambda(m); the consumer must add lambda(m) back before
    exponentiating.
    """

    residue: int
    is_large: bool


@functools.lru_cache(maxsize=None)
def carmichael(m: int) -> int:
    """lambda(2^i * 5^j) = lcm(lambda(2^i), lambda(5^j)), where lambda(2) = 1,
    lambda(4) = 2, lambda(2^i) = 2^(i - 2) from i = 3 and lambda(5^j) = 4 * 5^(j - 1)."""
    if m < 1:
        raise ValueError("modulus must be positive")
    i, j = valuation(2, m), valuation(5, m)
    if m != 2**i * 5**j:
        raise ValueError(f"modulus {m} is not of the form 2^i * 5^j")
    two = 2 if i == 2 else 2 ** max(i - 2, 0)
    five = 4 * 5 ** (j - 1) if j else 1
    return math.lcm(two, five)


def _exact_tower(a: int, b: int, cap: int):
    """^b a for b >= 2 by repeated multiplication, or None once a tower on
    the way, ^b a included, exceeds cap."""
    v = a
    for _ in range(b - 1):
        if v > cap:
            return None
        w = 1
        for _ in range(v):
            w *= a
            if w > cap:
                return None
        v = w
    return v


def tower_exponent(a: int, b: int, m: int) -> ClampedExponent:
    """The tower ^b a prepared as an exponent for reduction modulo m."""
    cap = max(CLAMP_THRESHOLD, valuation(2, m), valuation(5, m))
    return _tower_exponent(a, b, m, cap)


def _tower_exponent(a: int, b: int, m: int, cap: int) -> ClampedExponent:
    if b == 1:
        # The base itself is always available exactly.
        return ClampedExponent(a, False)
    exact = _exact_tower(a, b, cap)
    if exact is not None:
        return ClampedExponent(exact, False)
    lam = carmichael(m)
    return ClampedExponent(_tower_mod(a, b, lam, cap), True)


def _tower_mod(a: int, b: int, m: int, cap: int) -> int:
    if m == 1:
        return 0
    if b == 1:
        return a % m
    e = _tower_exponent(a, b - 1, m, cap)
    if e.is_large:
        lam = carmichael(m)
        return pow(a, e.residue + lam, m)
    return pow(a, e.residue, m)


def tower_residue(a: int, b: int, digits: int) -> int:
    """^b a mod 10^digits."""
    if a < 1 or b < 1 or digits < 1:
        raise ValueError("tower_residue requires a, b, digits >= 1")
    cap = max(CLAMP_THRESHOLD, digits)
    return _tower_mod(a, b, 10**digits, cap)


def exact_tetration(a: int, b: int, max_digits: int) -> int:
    """Exact value of ^b a, provided it has at most max_digits digits."""
    if a < 1 or b < 1 or max_digits < 1:
        raise ValueError("exact_tetration requires a, b, max_digits >= 1")
    if a == 1:
        return 1
    bit_cap = max_digits * 10 // 3 + 8
    v = a
    for _ in range(b - 1):
        if v * max(a.bit_length() - 1, 1) > bit_cap:
            raise OverflowError("exact tower too large")
        v = a**v
        if digit_length(v) > max_digits:
            raise OverflowError("exact tower too large")
    return v
