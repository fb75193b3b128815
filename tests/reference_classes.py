"""The speed classes built family by family, the reference for `classes.class_spec`.

The package builds every class but class 5 with one rule: a root of
y^5 = y modulo M(n), minus the one shift that matches it modulo M(n+1).
This module builds the same classes the way the paper lists them, one
construction per last digit:

- 3 and 7: n-digit root truncations shifted by 10^n, minus the shift by
  the root's own (n+1)-th digit;
- 1 and 9: the same for roots 1 and 12, plus 10^n + 1 and 10^n - 1 shifted
  by 10^n, minus every tenth shift;
- 4 and 6: 5^n - 1 and 5^n + 1 shifted by 2 * 5^n, minus the shift by 2;
- 2 and 8: the root residue modulo 2 * 5^n, lifted by 2 * 5^n when it
  already has speed n + 1, minus the shift that reaches the next lift.
"""

from __future__ import annotations

from congspeed.classes import ProgressionFamily
from congspeed.decadic import root_residue


def root_digit(i, pos):
    """Digit s_pos of root i (pos >= 1, least significant is s_1)."""
    return root_residue(i, pos).value // 10 ** (pos - 1) % 10


def truncation_family(i, n):
    base = root_residue(i, n).value
    return ProgressionFamily(base, 10**n, frozenset({root_digit(i, n + 1)}), 10)


def lift(s1, n):
    """1 when the n- and (n+1)-digit even roots reduce to the same residue."""
    i = 2 if s1 == 2 else 11
    cur = root_residue(i, n).value % (2 * 5**n)
    nxt = root_residue(i, n + 1).value % (2 * 5 ** (n + 1))
    return 1 if cur == nxt else 0


def lifted_residue(s1, n):
    """The reduced even root residue that `lift` may move, unlifted."""
    return root_residue(2 if s1 == 2 else 11, n).value % (2 * 5**n)


def even_min_base(s1, n):
    step = 2 * 5**n
    return lifted_residue(s1, n) + lift(s1, n) * step


def families(s1, n):
    """The progression families of the speed-n class of last digit s1 != 5, n >= 2."""
    ten, two5 = 10**n, 2 * 5**n
    if s1 == 1:
        return (truncation_family(1, n), ProgressionFamily(ten + 1, ten, frozenset({9}), 10))
    if s1 == 9:
        return (truncation_family(12, n), ProgressionFamily(ten - 1, ten, frozenset({9}), 10))
    if s1 == 3:
        return (truncation_family(3, n), truncation_family(4, n))
    if s1 == 7:
        return (truncation_family(9, n), truncation_family(10, n))
    if s1 in (4, 6):
        base = 5**n - 1 if s1 == 4 else 5**n + 1
        return (ProgressionFamily(base, two5, frozenset({2}), 5),)
    if s1 in (2, 8):
        base, nxt = even_min_base(s1, n), even_min_base(s1, n + 1)
        return (ProgressionFamily(base, two5, frozenset({(nxt - base) // two5 % 5}), 5),)
    raise ValueError(f"no reference construction for last digit {s1}")
