"""The oracle's settle loop before its tables stopped at the floor height,
the reference for `speed.constant_speed` and `speed.speed_profile`.

Every table reaches two heights past the stabilization floor, the starting
precision grows with the base's length (8 * (len + 8) digits, length capped
at 61, at least 64), and an unresolved table only doubles its digits.  It
builds its tables with `speed._frozen_table` and accepts V with
`_stable_speed`, the scan the oracle used before it certified V from
heights 1-4: the first speed repeated at three consecutive heights at or
after the floor.  It rests on no lifting-the-exponent argument.
"""

from congspeed import arith
from congspeed.speed import (
    _FLOOR_LENGTH_CAP,
    _frozen_table,
    PrecisionError,
    stabilization_floor,
)


def _stable_speed(nus, floor_b):
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


def auto_digits(a):
    return max(64, 8 * (min(arith.digit_length(a), _FLOOR_LENGTH_CAP) + 8))


def settle(a, digits=None):
    """(V(a), nus) for a > 1 with tables to floor + 2 heights and doubling."""
    digits = digits or auto_digits(a)
    floor_b = stabilization_floor(a)
    b_hi = floor_b + 2
    while True:
        nus = _frozen_table(a, b_hi, digits)
        if None in nus:
            digits *= 2
            continue
        v = _stable_speed(nus, floor_b)
        if v is not None:
            return v, nus
        b_hi += 3
        if b_hi > floor_b + 61:
            raise PrecisionError(f"speed of {a} did not stabilize by height {b_hi}")
