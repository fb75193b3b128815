"""Frozen-digit counts by the lifting-the-exponent lemma, with no towers:
the reference for `speed._frozen_table` and for the lines the oracle
certifies.

t_p(b) = nu_p(^(b+1)a - ^b a) for p = 2, 5, and nu(b) = min(t_2(b), t_5(b)).
- If p divides a, t_p(b) = nu_p(a) * ^(b-1)a with ^0 a = 1, from a capped
  exact tower.
- If a is odd, t_2(1) = nu_2(a^(a-1) - 1) = 2 nu_2(a-1) + nu_2(a+1) - 1 and
  t_2(b) = t_2(b-1) + nu_2(a^2 - 1) - 1.
- If 5 does not divide a and d = ord_5(a), t_5(1) = nu_5(a^(a-1) - 1), which
  is nu_5(a^d - 1) + nu_5(a - 1) when d divides a - 1 and 0 otherwise, and
  t_5(b) = t_5(b-1) + nu_5(a^d - 1) when nu_2(d) <= t_2(b-1), else 0.
"""

from congspeed.arith import valuation


def capped_towers(a, levels, cap):
    """^0 a .. ^levels a, each replaced by cap once it exceeds cap."""
    out = [1]
    for _ in range(levels):
        e = out[-1]
        # a^e > cap as soon as a > cap or 2^e > cap
        out.append(cap if a > cap or e >= cap.bit_length() else min(a**e, cap))
    return out


def frozen_lines(a, b_max, cap=10**9):
    """(t_2, t_5) at heights 1..b_max for a > 1, a divisible side capped at cap."""
    towers = capped_towers(a, b_max - 1, cap)
    lines = {}
    for p in (2, 5):
        if a % p == 0:
            lines[p] = [min(valuation(p, a) * towers[b - 1], cap) for b in range(1, b_max + 1)]
    if a % 2:
        c2 = valuation(2, a * a - 1) - 1
        t1 = 2 * valuation(2, a - 1) + valuation(2, a + 1) - 1
        lines[2] = [t1 + (b - 1) * c2 for b in range(1, b_max + 1)]
    if a % 5:
        d = next(k for k in (1, 2, 4) if pow(a, k, 5) == 1)
        c5 = valuation(5, a**d - 1)
        t5 = [c5 + valuation(5, a - 1) if (a - 1) % d == 0 else 0]
        for b in range(2, b_max + 1):
            t5.append(t5[-1] + c5 if d.bit_length() - 1 <= lines[2][b - 2] else 0)
        lines[5] = t5
    return lines[2], lines[5]


def frozen_counts(a, b_max):
    """nu(1..b_max) for a > 1 not divisible by 10."""
    return [min(pair) for pair in zip(*frozen_lines(a, b_max))]
