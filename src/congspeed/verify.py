"""Cross-validation: definitional oracle vs. formula system.

The sweep demands three-way agreement for every base in range: the
definitional constant speed, the valuation formula, and the unique
residue-class membership.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field

from . import classes
from .speed import constant_speed, speed_profile, SpeedProfile

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
        return asdict(self)


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


@functools.lru_cache(maxsize=1)
def _phase_shift_profile() -> SpeedProfile:
    a = PHASE_SHIFT_BASE_ROOT**PHASE_SHIFT_BASE_EXP
    return speed_profile(a, 6)


def phase_shift_fixture() -> SpeedProfile:
    """Profile of 143^625 with the frozen per-height speeds asserted."""
    profile = _phase_shift_profile()
    if tuple(profile.speeds) != PHASE_SHIFT_SPEEDS:
        raise FixtureMismatch(
            f"phase-shift profile speeds {profile.speeds} != {list(PHASE_SHIFT_SPEEDS)}",
            profile,
        )
    return profile
