"""Exact arithmetic over moduli of the form 2^i * 5^j.

Everything in this module is integer arithmetic; decimal digit counts are
the only size parameters.  Power towers are evaluated modulo 2^n and 5^n
apart, each by descending its own Carmichael chain m, lambda(m),
lambda(lambda(m)), ... and clamping exponents with the identity

    a^e = a^((e mod L) + L)   (mod m),   L a multiple of lambda(m),

which holds for every a (coprime or not) as soon as the true exponent e and
L are at least the largest prime-power exponent of m.  No link of a chain
from 2^n or 5^n has a prime-power exponent above max(n, 2), so a tower
exponent is carried exactly while it is at most n and clamped once it
exceeds n.  The two residues are recombined into the residue modulo 10^n
by the Chinese remainder theorem.
"""

from __future__ import annotations

import functools


def valuation(p: int, x: int) -> int:
    """Largest e with p^e dividing x, for p in {2, 5}."""
    if p not in (2, 5):
        raise ValueError(f"valuation only supported for p in {{2, 5}}, got {p}")
    if x <= 0:
        raise ValueError("valuation undefined for zero")
    if p == 2:
        return (x & -x).bit_length() - 1
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


# CPython refuses one int-str conversion past 4,300 digits; to_decimal and
# decimal convert 1,000 digits at a time and change no process-wide setting.
# A constant: CPython does not fold 10**1000, and printing a table pays for it.
_BLOCK = 10**1000


def to_decimal(x: int) -> str:
    """x in decimal, at any length."""
    if x < 0:
        return "-" + to_decimal(-x)
    blocks = []
    while x >= _BLOCK:
        x, block = divmod(x, _BLOCK)
        blocks.append(f"{block:01000d}")
    return str(x) + "".join(reversed(blocks))


def decimal(text: str) -> int:
    """The int that text writes as an optional sign and ASCII digits, at any length."""
    body = text.strip()
    digits = body.lstrip("+-")
    if len(body) - len(digits) > 1 or not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid decimal integer: {text!r}")
    value = 0
    for i in range(0, len(digits), 1000):
        value = value * 10 ** len(digits[i : i + 1000]) + int(digits[i : i + 1000])
    return -value if body[0] == "-" else value


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


def _carmichael_chain(i: int, j: int) -> tuple[int, ...]:
    """The chain 2^i * 5^j, then each link's lambda (or a multiple), down to 1.

    Every link is a multiple of lambda of the link before it and at least
    that link's largest prime-power exponent, the precondition for clamped
    tower exponentiation along the chain.  Only lambda(2^3) = 2 falls below
    its exponent 3; the chain takes its multiple 4 there.
    """
    chain = [2**i * 5**j]
    while chain[-1] > 1:
        i2, j2 = _lambda_exponents(i, j)
        while 2**i2 * 5**j2 < max(i, j):
            i2 += 1
        chain.append(2**i2 * 5**j2)
        i, j = i2, j2
    return tuple(chain)


@functools.lru_cache(maxsize=None)
def lambda_chain(digits: int) -> tuple[int, ...]:
    """The chain 10^digits, lambda(10^digits), ..., 1 as plain integers."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    return _carmichael_chain(digits, digits)


@functools.lru_cache(maxsize=None)
def _side_chains(digits: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The chains from 2^digits and from 5^digits, and 5^-digits mod 2^digits."""
    two, five = _carmichael_chain(digits, 0), _carmichael_chain(0, digits)
    return two, five, pow(five[0], -1, two[0])


def _exact_towers_capped(a: int, levels: int, cap: int) -> list:
    """vals[k] = ^k a while it is at most cap (vals[1] = a always), else None."""
    vals: list = [None] * (levels + 1)
    v = a
    for k in range(1, levels + 1):
        vals[k] = v
        if a > 1 and v >= cap.bit_length():
            break  # ^(k+1) a >= 2^v > cap
        v = a**v
        if v > cap:
            break
    return vals


def _side_residues(a: int, p: int, b_max: int, chain: tuple[int, ...], exact: list) -> list[int]:
    """Residues of ^1 a .. ^b_max a modulo chain[0] = p^n, p in {2, 5}.

    Iterative table over the chain: the height-b residue at chain depth d is
    derived from the height-(b-1) residue at depth d+1, so the whole column
    of heights costs O(b_max^2) modular powers at worst.  When p divides a,
    every tower whose exponent is past the exact cap n is 0 mod p^n,
    so only the exact heights take a power and no table is built.
    """
    if a % p == 0:
        top = chain[0]
        out = [a % top]
        for b in range(2, b_max + 1):
            e = exact[b - 1]
            out.append(0 if e is None else pow(out[0], e, top))
        return out
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


def tower_residues(a: int, b_max: int, digits: int) -> list[int]:
    """Residues of ^1 a .. ^b_max a modulo 10^digits.

    The towers are evaluated modulo 2^digits and 5^digits, each along its
    own Carmichael chain, and recombined by the Chinese remainder theorem.
    Exponents up to digits are exact and larger ones clamped: no chain link
    has a prime-power exponent above max(digits, 2).
    """
    if a < 1 or b_max < 1 or digits < 1:
        raise ValueError("tower_residues requires a, b_max, digits >= 1")
    two, five, inv = _side_chains(digits)
    exact = _exact_towers_capped(a, max(b_max - 1, 1), digits)
    m2, m5 = two[0], five[0]
    r2 = _side_residues(a, 2, b_max, two, exact)
    r5 = _side_residues(a, 5, b_max, five, exact)
    return [y + m5 * ((x - y) * inv % m2) for x, y in zip(r2, r5)]
