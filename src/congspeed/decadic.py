"""10-adic machinery: idempotent-style generators and the thirteen
nontrivial roots of y^5 = y.

The two generators are h(n) = 5^(2^n) mod 10^n and r(n) = 2^(5^n) mod 10^n.
h is idempotent; r is the Teichmueller-style lift of 2 on the 5-adic side,
with r^2 + 1 = h and r^4 = 1 - h modulo 10^n.  Every nontrivial root of
y^5 = y modulo 10^n is a small signed combination of 1, h and r.  h is one
modular inverse and r about log2(n) Newton steps on y^4 = 1, of like cost.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .arith import to_decimal

# Last digit of each root, indexed 1..13.
ROOT_LAST_DIGIT = {
    1: 1, 2: 2, 3: 3, 4: 3, 5: 4, 6: 5, 7: 5,
    8: 6, 9: 7, 10: 7, 11: 8, 12: 9, 13: 9,
}

# Root i as c + kh * h + kr * r modulo 10^n, stored as (c, kh, kr).
_ROOT_COEFFS = {
    1: (1, -2, 0), 2: (0, 0, 1), 3: (0, 1, -1), 4: (0, -1, -1), 5: (-1, 1, 0),
    6: (0, 1, 0), 7: (0, -1, 0), 8: (1, -1, 0), 9: (0, -1, 1), 10: (0, 1, 1),
    11: (0, 0, -1), 12: (-1, 2, 0), 13: (-1, 0, 0),
}


@dataclass(frozen=True)
class IdempotentPair:
    """The pair (h, r) truncated to n digits."""

    n: int
    h: int
    r: int


@dataclass(frozen=True)
class DecadicResidue:
    """An n-digit truncation of one of the thirteen roots of y^5 = y."""

    root_index: int
    n: int
    value: int

    @property
    def digits(self) -> tuple[int, ...]:
        """Digits s_1..s_n, least significant first."""
        return tuple(map(int, reversed(to_decimal(self.value).zfill(self.n))))


@functools.lru_cache(maxsize=None)
def _h(n: int) -> int:
    # 1 mod 2^n and 0 mod 5^n.
    five = 5**n
    return five * pow(five, -1, 2**n)


@functools.lru_cache(maxsize=None)
def _r(n: int) -> int:
    # 0 mod 2^n and, mod 5^n, 2^(5^(n-1)): the one root of y^4 = 1 that is 2 mod 5.
    # A Newton step y <- y - (y^4 - 1) y / 4 (y for 1/y^3, as y^4 = 1 so far) doubles
    # the power of 5 that y is exact to; 1 - h carries y over to mod 10^n.
    y, k = 2, 1
    while k < n:
        k = min(2 * k, n)
        m = 5**k
        y = (y - (pow(y, 4, m) - 1) * y * pow(4, -1, m)) % m
    return y * (1 - _h(n)) % (10**n)


def idempotents(n: int) -> IdempotentPair:
    """h(n) = 5^(2^n) and r(n) = 2^(5^n), both mod 10^n, built by CRT.

    Neither takes a power modulo 10^n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return IdempotentPair(n, _h(n), _r(n))


@functools.lru_cache(maxsize=None)
def root_residue(i: int, n: int) -> DecadicResidue:
    """The n-digit truncation of root number i (1..13) of y^5 = y."""
    if not 1 <= i <= 13:
        raise ValueError(f"root index must be in 1..13, got {i}")
    if n < 1:
        raise ValueError("n must be >= 1")
    c, kh, kr = _ROOT_COEFFS[i]
    value = (c + kh * _h(n) + kr * _r(n)) % 10**n
    if value % 10 != ROOT_LAST_DIGIT[i]:  # pragma: no cover - structural guarantee
        raise AssertionError(f"root {i} truncation has wrong last digit")
    return DecadicResidue(i, n, value)
