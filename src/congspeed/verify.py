"""Cross-validation: definitional oracle vs. formula system, plus probes.

The sweep demands three-way agreement for every base in range: the
definitional constant speed, the valuation formula, and the unique
residue-class membership.  The probes check two open regularities (early
stabilization height; height-2 stabilization for primes ending in nines)
and report possible counterexamples instead of asserting, since a hit
would be a finding rather than a bug.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from . import classes, primes
from .arith import digit_length
from .speed import constant_speed, speed_profile, PrecisionError, SpeedProfile

PHASE_SHIFT_BASE_ROOT = 143
PHASE_SHIFT_BASE_EXP = 625
PHASE_SHIFT_SPEEDS = (0, 6, 6, 5, 4, 4)


class FixtureMismatch(AssertionError):
    """A frozen reference value failed to reproduce."""

    def __init__(self, message: str, profile: SpeedProfile | None = None):
        super().__init__(message)
        self.profile = profile


@dataclass
class SweepReport:
    a_min: int
    a_max: int
    precision: int
    mismatches: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {
            "a_min": self.a_min,
            "a_max": self.a_max,
            "precision": self.precision,
            "mismatches": [list(m) for m in self.mismatches],
        }


def sweep(a_min: int, a_max: int, precision: int = 40) -> SweepReport:
    """Three-way agreement check over [a_min, a_max], skipping multiples of 10.

    The formula column is the raw valuation formula, not `speed_by_formula`,
    which would refuse to answer where the formula and membership disagree.
    """
    if precision < 40:
        raise ValueError("sweep precision must be >= 40")
    if a_min < 1 or a_max < a_min:
        raise ValueError("bad sweep range")
    if a_max > 10**6:
        raise ValueError("sweep is a desk-scale tool; a_max is capped at 10^6")
    report = SweepReport(a_min, a_max, precision)
    for a in range(a_min, a_max + 1):
        if a % 10 == 0:
            continue
        oracle = constant_speed(a, start_digits=precision)
        formula = classes._formula_value(a) if a > 1 else 0
        member = classes.speed_by_membership(a)
        if not (oracle == formula == member):
            report.mismatches.append((a, oracle, formula, member))
    return report


def _cheap_profile(a: int, b_max: int, precision: int) -> SpeedProfile:
    try:
        return speed_profile(a, b_max, precision)
    except PrecisionError:
        return speed_profile(a, b_max)


def probe_stabilization_height(a_min: int, a_max: int, precision: int = 48) -> list:
    """Bases violating V(a, b) = V(a) from height len(a) + 2 on.

    Only bases with last digit outside {0, 3, 7} are probed; classes 3 and 7
    are excluded because some of their members provably stabilize one height
    later.  Known desk-scale hit: a = 5, whose speed at height 3 is still 3
    while V(5) = 2.  Violations are reported, never asserted away.
    """
    violations = []
    for a in range(max(a_min, 2), a_max + 1):
        if a % 10 in (0, 3, 7):
            continue
        length = digit_length(a)
        profile = _cheap_profile(a, length + 4, precision)
        v = profile.constant_speed
        bad = [e for e in profile.entries if e.height >= length + 2 and e.speed != v]
        if bad:
            violations.append((a, bad[0].height, bad[0].speed))
    return violations


def probe_repnine_stabilization(n_max: int, k_max: int, precision: int = 48) -> list:
    """Primes (k+1) * 10^n - 1 violating V(p, b) = V(p) for some b >= 2.

    Height 1 is exempt: several such primes (499, 29509900499, ...) freeze
    more digits at the very first step than their constant speed.
    """
    violations = []
    seen = set()
    for n in range(1, n_max + 1):
        for k in range(0, k_max + 1):
            p = primes.RepnineForm(k, n).value
            if p in seen or not primes.is_prime(p):
                continue
            seen.add(p)
            profile = _cheap_profile(p, digit_length(p) + 4, precision)
            v = profile.constant_speed
            bad = [e for e in profile.entries if e.height >= 2 and e.speed != v]
            if bad:
                violations.append((p, bad[0].height, bad[0].speed))
    return violations


@functools.lru_cache(maxsize=1)
def _phase_shift_profile() -> SpeedProfile:
    a = PHASE_SHIFT_BASE_ROOT**PHASE_SHIFT_BASE_EXP
    return speed_profile(a, 6, 80)


def phase_shift_fixture() -> SpeedProfile:
    """Profile of 143^625 with the frozen per-height speeds asserted."""
    profile = _phase_shift_profile()
    if tuple(profile.speeds) != PHASE_SHIFT_SPEEDS:
        raise FixtureMismatch(
            f"phase-shift profile speeds {profile.speeds} != {list(PHASE_SHIFT_SPEEDS)}",
            profile,
        )
    return profile
