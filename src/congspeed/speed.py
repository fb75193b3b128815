"""Congruence speed of integer tetration, straight from the definition.

The frozen-digit count nu(b) is the 10-adic valuation of ^(b+1)a - ^b a,
i.e. how many trailing decimal digits the tower shares with the next taller
tower.  The speed at height b is nu(b) - nu(b-1), with nu(0) taken as 0 so
the height-1 speed equals nu(1).  For every base not divisible by 10 the
speed settles to a constant once the height is large enough; this module
computes that constant by watching the per-height speeds stabilize.

The tower residues are exact modulo 10^N, since clamping exponents along
the Carmichael chain is an identity, so every nu below N read from them is
the true valuation.  The one height N digits cannot resolve is where both
towers agree in all N digits (None), and only that calls for more digits.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import arith

# Working precision an automatic query starts from.
_START_DIGITS = 64

# Cap on the per-length part of the stabilization floor.  Beyond ~60 digits
# the floor len(a) + 3 would demand towers of thousands of heights at
# matching precision, so every base of 62 or more digits is settled from
# height 64, whatever its length.  How it fails: for a = 2^c - 1 (mod 2^(c+1)) with
# a^2 = -1 mod 5^(c+1) but not mod 5^(c+2), V(a, b) = c + 1 at heights 2 to
# c + 2 and c from height c + 3 on (lifting-the-exponent lemma), so for
# c >= 62 constant_speed returns c + 1 instead of V(a) = c.  Such a base
# agrees with a root of y^5 = y in only its last c digits (807 in 3,
# 81666295807 in 11), not hundreds, and the family has a member below
# 2^(c+1) * 5^(c+2), so about c + 1 digits suffice.
_FLOOR_LENGTH_CAP = 61


class UndefinedSpeedError(ValueError):
    """The congruence speed is undefined for multiples of 10."""


class PrecisionError(RuntimeError):
    """The requested working precision cannot resolve the answer."""


def _exhausted(digits: int) -> PrecisionError:
    return PrecisionError(f"increase digits (working precision {digits} exhausted)")


@dataclass(frozen=True)
class TetrationBase:
    """A tetration base together with its last digit and decimal length."""

    a: int
    s1: int
    length: int

    @classmethod
    def from_int(cls, a: int) -> "TetrationBase":
        _require_valid_base(a)
        return cls(a, a % 10, arith.digit_length(a))


@dataclass(frozen=True)
class ProfileEntry:
    height: int
    frozen: int | None  # None marks "all working digits agree" (only a = 1 keeps it)
    speed: int


@dataclass(frozen=True)
class SpeedProfile:
    base: TetrationBase
    precision_digits: int
    entries: tuple[ProfileEntry, ...]
    constant_speed: int

    @property
    def speeds(self) -> list[int]:
        return [e.speed for e in self.entries]

    @property
    def frozen_counts(self) -> list:
        return [e.frozen for e in self.entries]


def _require_valid_base(a: int) -> None:
    if a < 1 or a % 10 == 0:
        raise UndefinedSpeedError(f"undefined congruence speed for a = {a}")


def _trailing_zeros(x: int) -> int:
    n = 0
    while x % 10 == 0:
        x //= 10
        n += 1
    return n


def _frozen_table(a: int, b_max: int, digits: int) -> list:
    """nu(1..b_max) from residues mod 10^digits; None where all digits agree."""
    towers = arith.tower_residues(a, b_max + 1, digits)
    mod = 10**digits
    out = []
    for b in range(1, b_max + 1):
        diff = (towers[b] - towers[b - 1]) % mod
        out.append(None if diff == 0 else _trailing_zeros(diff))
    return out


def speed_at_height(a: int, b: int, digits: int) -> int:
    """V(a, b) = nu(b) - nu(b-1); V(a, 1) = nu(1)."""
    _require_valid_base(a)
    if b < 1 or digits < 1:
        raise ValueError("height and digits must be >= 1")
    if a == 1:
        return 0
    nus = _frozen_table(a, b, digits)
    if None in nus[-2:]:
        raise _exhausted(digits)
    if b == 1:
        return nus[0]
    return nus[b - 1] - nus[b - 2]


def _stable_speed(nus: list, floor_b: int) -> int | None:
    """First speed value repeated at three consecutive heights ending at or
    after floor_b, or None if the table is too short."""
    speeds = [nus[0]]
    for i in range(1, len(nus)):
        speeds.append(nus[i] - nus[i - 1])
    # speeds[i] = V(a, i + 1)
    for b in range(max(floor_b, 4), len(speeds) + 1):
        v = speeds[b - 1]
        if speeds[b - 2] == v and speeds[b - 3] == v:
            return v
    return None


def stabilization_floor(a: int) -> int:
    """The lowest height at which a settled speed is accepted: len(a) + 3,
    with the length capped at _FLOOR_LENGTH_CAP."""
    _require_valid_base(a)
    return min(arith.digit_length(a), _FLOOR_LENGTH_CAP) + 3


def _settle(a: int, digits: int, b_max: int = 0, strict: bool = False) -> tuple[int, list]:
    """(V(a), nus) for a > 1, nus exact over at least max(floor, b_max) heights.

    The first table stops at the floor height (or b_max); heights grow by 3
    until three consecutive speeds at or after the floor agree, up to the
    last height max(floor + 2, b_max) + 3k within floor + 61 (or b_max).  A
    None at height h + 1 leaves nu(1..h) exact: the retry carries
    s = nu(h) - nu(h-1) from nu(h+1) >= digits to the top height and at
    least doubles the digits.  With `strict`, a None among the first b_max
    heights raises PrecisionError instead.
    """
    floor_b = stabilization_floor(a)
    b_hi = max(floor_b, b_max)
    b_last = max(floor_b + 2, b_max)
    b_last += max(0, floor_b + 61 - b_last) // 3 * 3
    while True:
        nus = _frozen_table(a, b_hi, digits)
        if None in nus:
            if strict and None in nus[:b_max]:
                raise _exhausted(digits)
            h = nus.index(None)
            if h < 2:
                digits *= 2
            else:
                s = nus[h - 1] - nus[h - 2]
                digits = max(2 * digits, max(nus[h - 1] + s, digits) + s * (b_hi - h - 1) + 1)
            continue
        v = _stable_speed(nus, floor_b)
        if v is not None:
            return v, nus
        if b_hi >= b_last:
            raise PrecisionError(f"speed of {a} did not stabilize by height {b_hi}")
        b_hi = min(b_hi + 3, b_last)


def constant_speed(a: int, start_digits: int | None = None) -> int:
    """The constant congruence speed V(a).

    V(1) = 0.  Otherwise three consecutive heights must agree at height
    >= len(a) + 3, which rides out the bases whose speed runs one high
    through height len(a) + 2; for bases longer than 61 digits the floor is
    capped at height 64 (see _FLOOR_LENGTH_CAP).  Precision starts at
    start_digits (64 by default) and grows as _settle describes.
    """
    _require_valid_base(a)
    if a == 1:
        return 0
    return _settle(a, start_digits or _START_DIGITS)[0]


def speed_profile(a: int, b_max: int | None = None, digits: int | None = None) -> SpeedProfile:
    """Per-height table of frozen digits and speeds up to b_max.

    b_max defaults to the heights V(a) is settled over, stabilization_floor(a).
    With explicit digits the profile raises PrecisionError when that
    precision leaves a height up to b_max unresolved; the reported precision
    is the smallest doubling of the start (explicit, or 64) that resolves
    every height.
    """
    _require_valid_base(a)
    if b_max is None:
        b_max = stabilization_floor(a)
    if b_max < 1:
        raise ValueError("b_max must be >= 1")
    base = TetrationBase.from_int(a)
    n = digits or _START_DIGITS
    if a == 1:
        entries = tuple(ProfileEntry(b, None, 0) for b in range(1, b_max + 1))
        return SpeedProfile(base, n, entries, 0)
    const, nus = _settle(a, n, b_max, strict=digits is not None)
    nus = nus[:b_max]
    while max(nus) >= n:
        n *= 2
    entries = [ProfileEntry(1, nus[0], nus[0])]
    for b in range(2, b_max + 1):
        entries.append(ProfileEntry(b, nus[b - 1], nus[b - 1] - nus[b - 2]))
    return SpeedProfile(base, n, tuple(entries), const)
