"""The oracle's settle loop before its tables stopped at the floor height,
the reference for `speed._settle`.

Every table reaches two heights past the stabilization floor, the starting
precision grows with the base's length (8 * (len + 8) digits, length capped
at 61, at least 64), and an unresolved table only doubles its digits.  It
builds its tables with the same `speed._frozen_table` and accepts V with the
same `speed._stable_speed`, so it pins the loop around them: how tall each
table is and how many digits it gets.
"""

from congspeed import arith
from congspeed.speed import (
    _FLOOR_LENGTH_CAP,
    _frozen_table,
    _stable_speed,
    PrecisionError,
    stabilization_floor,
)


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
