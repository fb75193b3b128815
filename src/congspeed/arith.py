"""Exact arithmetic over moduli of the form 2^i * 5^j.

Everything in this module is integer arithmetic; decimal digit counts are
the only size parameters.  Power towers are evaluated modulo 10^n by
descending the Carmichael chain m, lambda(m), lambda(lambda(m)), ... and
clamping exponents with the identity

    a^e = a^((e mod lambda(m)) + lambda(m))   (mod m),

which holds for every a (coprime or not) as soon as the true exponent e is
at least the largest prime-power exponent of m.
"""

from __future__ import annotations

import functools

# Exponents at or below this are always carried exactly; tower evaluation
# raises the effective threshold to the digit count so the clamp identity
# stays valid for very wide moduli.
CLAMP_THRESHOLD = 64


def valuation(p: int, x: int) -> int:
    """Largest e with p^e dividing x, for p in {2, 5}."""
    if p not in (2, 5):
        raise ValueError(f"valuation only supported for p in {{2, 5}}, got {p}")
    if x <= 0:
        raise ValueError("valuation undefined for zero")
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def digit_length(a: int) -> int:
    """Number of decimal digits of a >= 1.

    Pure integer arithmetic; unlike len(str(a)) it is immune to the
    interpreter's int-to-str conversion limit on huge values.
    """
    if a < 1:
        raise ValueError("digit_length requires a positive integer")
    # 30102/100000 underestimates log10(2), so d starts at most at log10(a)
    d = (a.bit_length() - 1) * 30102 // 100000
    p = 10**d
    while p <= a:
        p *= 10
        d += 1
    return d


def _lambda_exponents(i: int, j: int) -> tuple[int, int]:
    """Exponents of lambda(2^i * 5^j) = lcm(lambda(2^i), lambda(5^j)) as 2^i' * 5^j'."""
    if i <= 1:
        i2 = 0
    elif i == 2:
        i2 = 1
    else:
        i2 = i - 2
    if j == 0:
        return i2, 0
    # lambda(5^j) = 4 * 5^(j-1)
    return max(i2, 2), j - 1


def carmichael(m: int) -> int:
    """Carmichael's lambda for a modulus m = 2^i * 5^j."""
    if m < 1:
        raise ValueError("modulus must be positive")
    i, j = valuation(2, m), valuation(5, m)
    if m != 2**i * 5**j:
        raise ValueError(f"modulus {m} is not of the form 2^i * 5^j")
    i2, j2 = _lambda_exponents(i, j)
    return 2**i2 * 5**j2


@functools.lru_cache(maxsize=None)
def lambda_chain(digits: int) -> tuple[int, ...]:
    """The chain 10^digits, lambda(10^digits), ..., 1 as plain integers.

    Every link satisfies lambda(m) >= max prime-power exponent of m, the
    precondition for clamped tower exponentiation along the chain.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    i, j = digits, digits
    chain = [2**i * 5**j]
    while chain[-1] > 1:
        i2, j2 = _lambda_exponents(i, j)
        nxt = 2**i2 * 5**j2
        if nxt < max(i, j):  # pragma: no cover - structural guarantee
            raise AssertionError("lambda chain too small for exponent clamping")
        chain.append(nxt)
        i, j = i2, j2
    return tuple(chain)


def _exact_towers_capped(a: int, levels: int, cap: int) -> list:
    """vals[k] = ^k a when it is known exactly and usable, else None.

    vals[1] is always the exact base a.  For k >= 2, vals[k] is the exact
    tower value when it does not exceed cap; towers above cap are None.
    """
    vals: list = [None] * (levels + 1)
    if levels < 1:
        return vals
    vals[1] = a
    if a == 1:
        for k in range(2, levels + 1):
            vals[k] = 1
        return vals
    for k in range(2, levels + 1):
        p = vals[k - 1]
        if p is None or p > cap:
            break
        v = 1
        for _ in range(p):
            v *= a
            if v > cap:
                v = None
                break
        vals[k] = v
        if v is None:
            break
    return vals


def tower_residues(a: int, b_max: int, digits: int) -> list[int]:
    """Residues of ^1 a .. ^b_max a modulo 10^digits.

    Iterative table over the Carmichael chain: the height-b residue at chain
    depth d is derived from the height-(b-1) residue at depth d+1, so the
    whole column of heights costs O(b_max^2) modular powers at worst.
    """
    if a < 1 or b_max < 1 or digits < 1:
        raise ValueError("tower_residues requires a, b_max, digits >= 1")
    chain = lambda_chain(digits)
    cap = max(CLAMP_THRESHOLD, digits)
    exact = _exact_towers_capped(a, max(b_max - 1, 1), cap)
    mods = [chain[d] if d < len(chain) else 1 for d in range(b_max)]
    amod = [a % m if m > 1 else 0 for m in mods]
    row = amod[:]
    results = [row[0]]
    for b in range(2, b_max + 1):
        e = exact[b - 1]
        new = []
        for d in range(b_max - b + 1):
            m = mods[d]
            if m == 1:
                new.append(0)
                continue
            if e is not None:
                new.append(pow(amod[d], e, m))
            else:
                lam = mods[d + 1]
                new.append(pow(amod[d], row[d + 1] + lam, m))
        row = new
        results.append(row[0])
    return results
