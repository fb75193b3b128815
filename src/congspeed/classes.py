"""Residue-class map of the constant congruence speed.

For each last digit s1 and target speed n >= 2 the bases with V(a) = n form
one arithmetic progression per root y of y^5 = y that ends in s1 (for s1 = 1
the trivial root 1 too): y modulo M(n), stepped by M(n), minus the one
shift that agrees with y modulo M(n+1).  M(n) is 10^n for odd last digits
and 2 * 5^n for even ones.  Class 5 keeps the paper's closed form, two
bases shifted by 10 * 2^n.  Speed 1 is a plain residue test modulo 25, so
its classes are residues modulo 50 (class 5 has none).  A direct valuation
formula for V(a) is derived from the same structure and cross-checked
against class membership.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass
from typing import Callable, Iterator

from . import decadic
from .arith import to_decimal, valuation
from .speed import UndefinedSpeedError, _require_valid_base

# Residues modulo 25 of the bases with constant congruence speed exactly 1.
V1_RESIDUES = frozenset(
    {2, 3, 4, 6, 8, 9, 11, 12, 13, 14, 16, 17, 19, 21, 22, 23}
)

# Exact sin/cos at quarter-period points k * pi/2.
_SIN = (0, 1, 0, -1)
_COS = (1, 0, -1, 0)


def _sin_q(k: int) -> int:
    return _SIN[k % 4]


def _cos_q(k: int) -> int:
    return _COS[k % 4]


def _quarter_power_sign(n: int) -> int:
    # i^(n(n-1)) with n(n-1) even, i.e. (-1)^(n(n-1)/2).
    return -1 if (n * (n - 1) // 2) % 2 else 1


def speed_one_residues() -> frozenset:
    """Residues mod 25 characterizing V(a) = 1 (for a not divisible by 10)."""
    return V1_RESIDUES


@dataclass(frozen=True)
class ProgressionFamily:
    """base + k * step for k >= 0 with k mod residue_modulus outside excluded."""

    base: int
    step: int
    excluded: frozenset
    residue_modulus: int = 10

    def members(self) -> Iterator[int]:
        k = 0
        while True:
            if k % self.residue_modulus not in self.excluded:
                yield self.base + k * self.step
            k += 1

    def contains(self, a: int) -> bool:
        d = a - self.base
        if d < 0 or d % self.step:
            return False
        return (d // self.step) % self.residue_modulus not in self.excluded

    def smallest(self) -> int:
        return next(self.members())


@dataclass(frozen=True)
class ClassSpec:
    """All bases with last digit s1 and constant congruence speed exactly n."""

    s1: int
    n: int
    families: tuple

    def members(self) -> Iterator[int]:
        return heapq.merge(*(f.members() for f in self.families))

    def contains(self, a: int) -> bool:
        return any(f.contains(a) for f in self.families)

    def smallest(self) -> int:
        if not self.families:
            raise ValueError(f"no base with last digit {self.s1} has speed {self.n}")
        return min(f.smallest() for f in self.families)


# The roots of y^5 = y behind each speed class, by last digit; 0 is the trivial root 1.
_CLASS_ROOTS = {1: (1, 0), 2: (2,), 3: (3, 4), 4: (5,), 6: (8,), 7: (9, 10), 8: (11,), 9: (12, 13)}


def _root_family(i: int, n: int, mod: Callable[[int], int]) -> ProgressionFamily:
    # Root i modulo mod(n), shifted by any multiple of mod(n) except the one
    # that still agrees with the root modulo mod(n + 1): speed exactly n.
    root = decadic.root_residue(i, n + 1).value if i else 1
    step, nxt = mod(n), mod(n + 1)
    base = root % step
    return ProgressionFamily(base, step, frozenset({(root % nxt - base) // step}), nxt // step)


def class5_bases(n: int) -> tuple[int, int]:
    """The two class-5 progression bases, by quarter-period trig lookup."""
    s, c = _sin_q(n), _cos_q(n)
    return (
        2**n * (5 + 2 * s + 4 * c) + 1,
        2**n * (5 - 2 * s - 4 * c) - 1,
    )


def class5_bases_signed(n: int) -> tuple[int, int]:
    """The same two bases from the parity/quarter-power closed form."""
    sg = _quarter_power_sign(n)
    return (
        2**n * ((-1) ** (n - 1) + 2) - sg,
        2**n * ((-1) ** n + 8) + sg,
    )


@functools.lru_cache(maxsize=None)
def class_spec(s1: int, n: int) -> ClassSpec:
    """The progression families making up the speed-n class of last digit s1."""
    if not 1 <= s1 <= 9:
        raise ValueError(f"last digit must be 1..9, got {s1}")
    if n < 1:
        raise ValueError(f"speed must be at least 1, got {n}")
    if n == 1:  # the residues modulo 50 with last digit s1 and a % 25 in V1_RESIDUES
        fams = tuple(ProgressionFamily(b, 50, frozenset()) for b in range(2, 52)
                     if b % 10 == s1 and b % 25 in V1_RESIDUES)
    elif s1 == 5:
        fams = tuple(ProgressionFamily(b, 10 * 2**n, frozenset(), 10) for b in class5_bases(n))
    else:
        mod = (lambda k: 10**k) if s1 % 2 else (lambda k: 2 * 5**k)
        fams = tuple(_root_family(i, n, mod) for i in _CLASS_ROOTS[s1])
    return ClassSpec(s1, n, fams)


def min_base_class(s1: int, n: int) -> int:
    """Smallest base with last digit s1 and constant congruence speed n >= 1."""
    return class_spec(s1, n).smallest()


def min_base_trig(n: int) -> int:
    """Smallest speed-n base as the minimum of the two shifted-phase forms."""
    s, c = _sin_q(n - 1), _cos_q(n - 1)
    return min(
        2**n * (2 * c - 4 * s + 5) + 1,
        2**n * (4 * s - 2 * c + 5) - 1,
    )


def min_base_piecewise(n: int) -> int:
    """Smallest speed-n base via the case split on n mod 4."""
    if n % 4 in (2, 3):
        return 2**n * (5 + 2 * _sin_q(n) + 4 * _cos_q(n)) + 1
    return 2**n * (5 - 2 * _sin_q(n) - 4 * _cos_q(n)) - 1


def min_base_signed(n: int) -> int:
    """Smallest speed-n base via the parity/quarter-power closed form."""
    return 2**n * ((-1) ** (n - 1) + 2) - _quarter_power_sign(n)


def min_base(n: int) -> int:
    """Smallest base with constant congruence speed n (any last digit)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1
    if n == 1:
        return 2
    v = min_base_signed(n)
    # All three published routes must coincide.
    if not v == min_base_piecewise(n) == min_base_trig(n):  # pragma: no cover
        raise AssertionError(f"minimal-base closed forms disagree at n = {n}")
    return v


def class5_closed_form(n: int, count: int) -> list[int]:
    """First `count` multiples-of-5 bases with speed n, by the closed form.

    Merges the two signed-form bases shifted by 10 * 2^n and cross-checks
    against the class-5 progression enumeration.
    """
    if n < 2 or count < 1:
        raise ValueError("need n >= 2 and count >= 1")
    step = 10 * 2**n
    out = sorted(b + k * step for b in class5_bases_signed(n) for k in range(count))[:count]
    spec = class_spec(5, n)
    for got, want in zip(out, spec.members()):
        if got != want:  # pragma: no cover - structural guarantee
            raise AssertionError("class-5 closed form disagrees with enumeration")
    return out


def table1_rows(n_max: int = 19) -> list[tuple]:
    """Rows (n, smallest class-5 base or None, smallest other base)."""
    rows = []
    for n in range(1, n_max + 1):
        a5 = min_base_class(5, n) if n > 1 else None  # no base ending in 5 has speed 1
        other = min(min_base_class(s1, n) for s1 in (1, 2, 3, 4, 6, 7, 8, 9))
        rows.append((n, a5, other))
    return rows


def valuation_bound(a: int) -> int:
    """Upper bound on V(a) from 2- and 5-adic valuations of a^2 -+ 1."""
    if a < 2 or a % 10 == 0:
        raise UndefinedSpeedError(
            f"valuation bound needs a >= 2 not divisible by 10, got {to_decimal(a)}")
    s1 = a % 10
    sq = a * a
    if s1 == 5:
        return valuation(2, sq - 1)
    if s1 in (4, 6):
        return valuation(5, sq - 1)
    if s1 in (2, 8):
        return valuation(5, sq + 1)
    if s1 in (1, 9):
        return min(valuation(5, sq - 1), valuation(2, sq - 1))
    return min(valuation(5, sq + 1), valuation(2, sq - 1))


def _formula_value(a: int) -> int:
    s1 = a % 10
    if s1 == 5:
        return valuation(2, a * a - 1) - 1
    if s1 % 2 == 0:
        return valuation(5, a**4 - 1)
    return min(valuation(5, a**4 - 1), valuation(2, a * a - 1) - 1)


class FormulaMismatch(RuntimeError):
    """The valuation formula and class membership disagree on V(a)."""


def speed_by_formula(a: int) -> int:
    """V(a) by direct valuations, cross-checked against class membership.

    Raises FormulaMismatch when a is not in the class the formula names.
    """
    _require_valid_base(a)
    if a == 1:
        return 0
    v = _formula_value(a)
    if not class_spec(a % 10, v).contains(a):
        raise FormulaMismatch(
            f"valuation formula gives V({to_decimal(a)}) = {v}, "
            f"class membership gives {speed_by_membership(a)}"
        )
    return v


def speed_by_membership(a: int):
    """The unique n whose class contains a, or None if not exactly one."""
    _require_valid_base(a)
    if a == 1:
        return 0
    matches = [n for n in range(1, valuation_bound(a) + 2) if class_spec(a % 10, n).contains(a)]
    return matches[0] if len(matches) == 1 else None
