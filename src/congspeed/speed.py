"""Congruence speed of integer tetration, straight from the definition.

The frozen-digit count nu(b) is the 10-adic valuation of ^(b+1)a - ^b a, and
the speed at height b is nu(b) - nu(b-1) (nu(0) = 0).  nu(b) = min(t2(b),
t5(b)), the 2- and 5-adic valuations of the same difference.  By the
lifting-the-exponent lemma a side t_p with p not dividing a is affine in b
from height 2 and at most (b + 1) nu_p(a^4 - 1), and the other side grows
like ^(b-1)a, so V(a) is the smaller slope of the affine sides.  The oracle
certifies this from its tower residues at heights 1-4, exact modulo 10^N so
that every valuation below N is true, in one table that the bound sizes
before it is built.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import arith
from .arith import to_decimal

# Cap on the per-length part of the stabilization floor, the default depth
# of speed_profile: past ~60 digits len(a) + 3 heights would need thousands
# of digits, so a base of 62 or more digits is profiled to height 64.
_FLOOR_LENGTH_CAP = 61


class UndefinedSpeedError(ValueError):
    """The congruence speed is undefined for multiples of 10."""


class PrecisionError(RuntimeError):
    """The towers cannot be read within the oracle's precision bound."""


class CertificateMismatch(RuntimeError):
    """The tower residues contradict the certified frozen-digit lines."""


@dataclass(frozen=True)
class ProfileEntry:
    height: int
    frozen: int | None  # None marks "all working digits agree" (only a = 1 keeps it)
    speed: int


@dataclass(frozen=True)
class SpeedProfile:
    a: int
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
        raise UndefinedSpeedError(f"undefined congruence speed for a = {to_decimal(a)}")


def _side_reads(a: int, b_max: int, digits: int) -> tuple[list, list]:
    """t2(1..b_max), t5(1..b_max) off towers mod 10^digits; None for >= digits."""
    towers = arith.tower_residues(a, b_max + 1, digits)
    mod, reads = 10**digits, ([], [])
    for x, y in zip(towers, towers[1:]):
        diff = (y - x) % mod
        for t, p in zip(reads, (2, 5)):
            nu = arith.valuation(p, diff) if diff else digits
            t.append(nu if nu < digits else None)
    return reads


def _frozen_table(a: int, b_max: int, digits: int) -> list:
    """nu(1..b_max) = min(t2, t5) mod 10^digits; None where all digits agree."""
    reads = _side_reads(a, b_max, digits)
    return [min((x for x in pair if x is not None), default=None) for pair in zip(*reads)]


def speed_at_height(a: int, b: int) -> int:
    """V(a, b) = nu(b) - nu(b-1), V(a, 1) = nu(1), off the certified profile."""
    return speed_profile(a, b).speeds[-1]


def stabilization_floor(a: int) -> int:
    """speed_profile's default depth: len(a) + 3, the length capped at 61."""
    _require_valid_base(a)
    return min(arith.digit_length(a), _FLOOR_LENGTH_CAP) + 3


def _line_nu(a: int, lines: list, b: int) -> int:
    """nu(b) on the lines t2, t5: their reads to height 4 (a divisible side
    lies above the other there if unresolved), then each affine slope."""
    if b <= 4:
        return min(t[b - 1] for t in lines if t[b - 1] is not None)
    return min(t[3] + (b - 4) * (t[3] - t[2]) for p, t in zip((2, 5), lines) if a % p)


def _certify(a: int, floor: int) -> tuple[int, tuple, int]:
    """(V, lines, digits) for a > 1: V(a), the lines t2, t5 at heights 1-4
    that certify it, and the digits of the one table they are read off.

    The table has max(floor, 1 + 5 max nu_p(a^4 - 1)) digits, p over the
    affine sides, so it reads them to height 4 by the LTE bound t_p(b) <=
    (b + 1) nu_p(a^4 - 1), p not dividing a.  Proof: ^(b+1)a - ^b a is a
    p-unit times a^E - 1, E = ^b a - ^(b-1)a, nu_p(E) = t_p(b-1), where
    t_p(0) = nu_p(a - 1) <= nu_p(a^4 - 1); by LTE t5(b) is 0 or nu5(a^4 - 1)
    + t5(b-1), and, E being even, t2(b) = nu2(a^2 - 1) - 1 + t2(b-1).
    An affine side must read one positive slope over heights 2-4, and the
    5-side needs t2(2) >= 2 so that ord_5(a) divides every later exponent
    gap.  A divisible side must grow at least a-fold per height, as ^(b-1)a
    does, and lie above the other side at height 4, so it stays above.
    The bound only sizes the table: every line is still read off towers and
    certified, so a bound too small raises PrecisionError, never a wrong V.
    """
    lte = [arith.valuation(p, a**4 - 1) for p in (2, 5) if a % p]
    digits = max(floor, 1 + 5 * max(lte))
    lines = _side_reads(a, 4, digits)
    if any(None in t for p, t in zip((2, 5), lines) if a % p):
        raise PrecisionError(f"cannot certify the speed of {to_decimal(a)} from {digits} digits")
    ok = a % 5 == 0 or lines[0][1] is None or lines[0][1] >= 2
    for p, t, other in zip((2, 5), lines, lines[::-1]):
        low = [digits if x is None else x for x in t]
        if a % p:
            ok = ok and t[2] > t[1] and t[3] - t[2] == t[2] - t[1]
        else:
            ok = ok and low[0] >= 1 and low[3] > other[3]
            ok = ok and all(low[b] >= min(digits, a * low[b - 1]) for b in (1, 2, 3))
    if not ok:
        raise CertificateMismatch(
            f"t2 {lines[0]} and t5 {lines[1]} of {to_decimal(a)} fail the certificate")
    return min(t[3] - t[2] for p, t in zip((2, 5), lines) if a % p), lines, digits


def constant_speed(a: int, start_digits: int | None = None) -> int:
    """V(a): 0 for a = 1, else the smaller slope of the lines _certify reads
    off one table of towers up to height 5, of at least start_digits digits."""
    _require_valid_base(a)
    if a == 1:
        return 0
    return _certify(a, start_digits or 0)[0]


def speed_profile(a: int, b_max: int | None = None) -> SpeedProfile:
    """Per-height table of frozen digits and speeds up to b_max.

    b_max defaults to stabilization_floor(a).  The oracle picks its own
    precision: nu(1..4) is read off the table _certify sized, and a taller
    profile off one more table at the digits the lines predict for b_max,
    which must equal the lines (else CertificateMismatch).  The precision
    reported is the digits of the table the counts were read off, 0 for
    a = 1, which reads none.
    """
    _require_valid_base(a)
    if b_max is None:
        b_max = stabilization_floor(a)
    if b_max < 1:
        raise ValueError("b_max must be >= 1")
    if a == 1:
        entries = tuple(ProfileEntry(b, None, 0) for b in range(1, b_max + 1))
        return SpeedProfile(a, 0, entries, 0)
    v, lines, digits = _certify(a, 0)
    nus = [_line_nu(a, lines, b) for b in range(1, b_max + 1)]
    if b_max > 4:
        digits = max(nus) + 1
        read = _frozen_table(a, b_max, digits)
        if read != nus:
            raise CertificateMismatch(f"frozen digits {read} of {to_decimal(a)} leave "
                                      f"the certified lines {nus}")
    speeds = [y - x for x, y in zip([0] + nus, nus)]
    entries = tuple(ProfileEntry(b, nu, s) for b, nu, s in zip(range(1, b_max + 1), nus, speeds))
    return SpeedProfile(a, digits, entries, v)
