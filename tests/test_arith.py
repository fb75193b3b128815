import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from congspeed import arith
from congspeed.arith import digit_length, lambda_chain, tower_residues, valuation
from reference_tower import (
    carmichael, ClampedExponent, exact_tetration, tower_exponent, tower_residue,
)


def trial_factor(x):
    """Independent factorization by trial division (test oracle)."""
    out = {}
    d = 2
    while d * d <= x:
        while x % d == 0:
            out[d] = out.get(d, 0) + 1
            x //= d
        d += 1
    if x > 1:
        out[x] = out.get(x, 0) + 1
    return out


def brute_carmichael(m):
    """lcm of the multiplicative orders of all units mod m (test oracle)."""
    lam = 1
    for a in range(1, m):
        if math.gcd(a, m) != 1:
            continue
        x, k = a % m, 1
        while x != 1:
            x = x * a % m
            k += 1
        lam = lam * k // math.gcd(lam, k)
    return lam


class TestValuation:
    def test_factored_example_33125(self):
        assert trial_factor(33125) == {5: 4, 53: 1}
        assert 182 * 182 + 1 == 33125
        assert valuation(5, 33125) == 4

    def test_unit(self):
        assert valuation(2, 1) == 0

    def test_derived_9024(self):
        assert 95 * 95 - 1 == 9024
        assert trial_factor(9024)[2] == 6
        assert valuation(2, 9024) == 6

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            valuation(5, 0)

    def test_only_2_and_5(self):
        with pytest.raises(ValueError):
            valuation(3, 9)

    @given(st.integers(0, 12), st.integers(1, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_exact_on_constructed_input(self, e, u):
        for p in (2, 5):
            while u % p == 0:
                u //= p
            assert valuation(p, p**e * u) == e


class TestDigitLength:
    @pytest.mark.parametrize("a,n", [(807, 3), (10, 2), (9, 1), (1, 1), (10**60, 61)])
    def test_values(self, a, n):
        assert digit_length(a) == n
        assert 10 ** (n - 1) <= a < 10**n

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            digit_length(0)


class TestDecimal:
    """to_decimal and decimal convert any length, past CPython's 4,300-digit limit."""

    @pytest.mark.parametrize(
        "x",
        [0, 7, -7, 10**999, 10**1000 - 1, 10**1000, -(10**1000) - 1, 2**3000,
         12345 * 10**2000 + 6789],
        ids=["0", "7", "-7", "1e999", "1e1000-1", "1e1000", "-1e1000-1", "2^3000", "zero-blocks"],
    )
    def test_match_str_and_int_below_the_limit(self, x):
        assert arith.to_decimal(x) == str(x)
        assert arith.decimal(str(x)) == x
        assert arith.decimal(f" +{abs(x)}\n") == abs(x)

    @pytest.mark.parametrize("digits", [4301, 5000, 15001])
    def test_past_the_limit(self, digits):
        x = 3 ** (digits * 2096 // 1000)  # 10^0.477 = 3, so about `digits` digits
        text = arith.to_decimal(x)
        assert len(text) > 4300 and arith.decimal(text) == x
        # digit by digit, independent of either helper
        rest = x
        for c in reversed(text):
            rest, digit = divmod(rest, 10)
            assert int(c) == digit
        assert rest == 0 and text[0] != "0"
        assert arith.decimal("-" + text) == -x and arith.to_decimal(-x) == "-" + text

    @pytest.mark.parametrize(
        "text",
        ["", "-", "x", "1_000", "--5", "+-5", "1-2", "7.0", "\u0663", "1" * 1000 + "-5"],
        ids=["empty", "sign", "x", "underscore", "two-signs", "mixed-signs", "inner-sign",
             "point", "arabic-indic-3", "sign-at-block-1000"],
    )
    def test_rejects_what_is_not_a_decimal_integer(self, text):
        with pytest.raises(ValueError):
            arith.decimal(text)


class TestCarmichael:
    """The tower reference's own lambda, which the chain tests below rely on."""

    def test_fixtures(self):
        assert carmichael(10) == 4
        assert carmichael(100) == 20
        assert carmichael(10**5) == 5000

    @pytest.mark.parametrize(
        "i,j", [(0, 0), (1, 0), (2, 0), (3, 0), (5, 0), (0, 1), (0, 3), (1, 1), (2, 2), (4, 2), (3, 3)]
    )
    def test_against_brute_force(self, i, j):
        m = 2**i * 5**j
        if m == 1:
            assert carmichael(m) == 1
        else:
            assert carmichael(m) == brute_carmichael(m)

    def test_int_convenience(self):
        assert carmichael(100) == 20
        with pytest.raises(ValueError):
            carmichael(12)  # 2^2 * 3 is outside the domain


class TestModulus:
    """Moduli are plain ints 2^i * 5^j; carmichael reads (i, j) off the value."""

    def test_validation(self):
        for bad in (12, 3, 0, -10):
            with pytest.raises(ValueError):
                carmichael(bad)

    def test_from_value(self):
        # 4000 = 2^5 * 5^3, so lambda = lcm(2^3, 4 * 5^2) = 200
        assert (valuation(2, 4000), valuation(5, 4000)) == (5, 3)
        assert carmichael(4000) == 200 == brute_carmichael(4000)


class TestPowMod:
    def test_fixtures(self):
        assert pow(2, 101, 100) == 52
        assert pow(7, 0, 10) == 1
        assert pow(5, 4, 100) == 25

    @given(
        st.integers(1, 10**9),
        st.integers(0, 50),
        st.integers(0, 6),
        st.integers(0, 6),
    )
    @settings(max_examples=80, deadline=None)
    def test_clamp_identity(self, a, k, i, j):
        # a^(lam+k) = a^(2lam+k) (mod m) once lam + k exceeds log2(m).
        m = 2**i * 5**j
        if m == 1:
            return
        lam = carmichael(m)
        if lam + k < m.bit_length():
            k += m.bit_length()
        assert pow(a, lam + k, m) == pow(a, 2 * lam + k, m)


class TestLambdaChain:
    def test_structure(self):
        chain = lambda_chain(5)
        assert chain[0] == 10**5
        assert chain[1] == 5000
        assert chain[-1] == 1
        for prev, nxt in zip(chain, chain[1:]):
            assert nxt == carmichael(prev)

    def test_link_dominates_exponents(self):
        # Needed so a clamped exponent stays valid at every depth.
        for n in (1, 2, 3, 10, 50, 200):
            for prev, nxt in zip(lambda_chain(n), lambda_chain(n)[1:]):
                if prev > 1:
                    assert nxt >= max(valuation(2, prev), valuation(5, prev))


class TestTower:
    def test_reference_values(self):
        assert tower_residue(2, 4, 5) == 65536
        assert tower_residue(2, 5, 8) == 19156736

    def test_height_one(self):
        for a in (1, 7, 12345678901234567890):
            assert tower_residue(a, 1, 6) == a % 10**6

    def test_matches_exact_small(self):
        # ^3 6 = 6^46656 already has ~36300 digits
        for a in range(1, 7):
            for b in range(1, 4):
                exact = exact_tetration(a, b, 40000)
                for n in (1, 5, 17, 30):
                    assert tower_residue(a, b, n) == exact % 10**n

    def test_exact_height_four(self):
        # ^4 2 = 65536 and ^4 3 = 3^7625597484987 need the clamped path
        # beyond the exact window; check a pure-pow reference at height 4.
        t3 = 3**27
        ref = pow(3, t3, 10**20)
        assert tower_residue(3, 4, 20) == ref

    def test_table_matches_recursive(self):
        for a in (2, 3, 7, 10, 12, 55, 143, 99999999999):
            got = tower_residues(a, 7, 25)
            assert got == [tower_residue(a, b, 25) for b in range(1, 8)]

    @given(st.integers(1, 10**6), st.integers(1, 6), st.integers(2, 40))
    @settings(max_examples=60, deadline=None)
    def test_truncation_coherence(self, a, b, n):
        assert tower_residue(a, b, n) % 10 ** (n - 1) == tower_residue(a, b, n - 1)

    def test_wide_modulus_small_exponent(self):
        # 4^256 = 2^512 is nonzero mod 2^600; the exact path must be used.
        assert tower_residue(4, 3, 600) == pow(4, 256, 10**600)
        assert tower_residue(70, 2, 200) == pow(70, 70, 10**200)

    def test_clamped_exponent_invariant(self):
        e = tower_exponent(2, 3, 10**12)
        assert e == ClampedExponent(16, False)
        lam = carmichael(10**12)
        e = tower_exponent(2, 4, 10**12)
        assert e.is_large and e.residue == 65536 % lam
        e = tower_exponent(3, 3, 10**12)
        assert e.is_large and e.residue == 3**27 % lam


def _golden_bases():
    """Bases 1-299, then 600 seeded bases of 2-60 digits."""
    rng = random.Random(2024)
    lengths = [rng.randint(2, 60) for _ in range(600)]
    return list(range(1, 300)) + [rng.randrange(10 ** (k - 1), 10**k) for k in lengths]


GOLDEN_DIGITS = (1, 2, 3, 5, 8, 17, 40, 64)
GOLDEN_HEIGHTS = (1, 2, 4, 7)


class TestTowerGolden:
    """`tower_residues` pinned on 28,768 (base, height, digits) tables.

    The hash is of this implementation's output, itself checked against the
    recursive reference on a subset, so a rewrite of the table (one modulus
    per side in place of the Carmichael chain) can prove it gives the same
    residues without a checkout of the code it replaces.
    """

    SHA256 = "52191fc9fee690db74e7925633ab8b996efee618012c7230cd6799ec80c2a40e"

    def test_hash(self):
        digest = hashlib.sha256()
        for a in _golden_bases():
            for digits in GOLDEN_DIGITS:
                for b_max in GOLDEN_HEIGHTS:
                    residues = " ".join(map(str, tower_residues(a, b_max, digits)))
                    digest.update(f"{a} {b_max} {digits}: {residues}\n".encode())
        assert digest.hexdigest() == self.SHA256

    def test_subset_matches_recursive(self):
        for a in _golden_bases()[::15]:
            for digits in GOLDEN_DIGITS:
                want = [tower_residue(a, b, digits) for b in range(1, GOLDEN_HEIGHTS[-1] + 1)]
                for b_max in GOLDEN_HEIGHTS:
                    assert tower_residues(a, b_max, digits) == want[:b_max], (a, b_max, digits)


def _is_power_of(p, m):
    return m == p ** valuation(p, m)


class TestCrtSplit:
    """The table runs modulo 2^n and 5^n on separate chains, joined by CRT."""

    BASES = (1, 2, 3, 4, 5, 7, 12, 25, 143, 250, 2**50, 5**30, 143**625)

    @pytest.mark.parametrize("digits", [1, 2, 3, 4, 5, 6, 7, 25, 26, 27, 28, 40, 41, 81])
    def test_matches_recursive(self, digits):
        # Odd digit counts put 2^3 on the 2-side chain.  Its link matters
        # only to even bases, whose 2-side takes the p | a shortcut instead.
        # The package clamps ^2 3 = 27 below 27 digits, the reference never.
        for a in self.BASES:
            got = tower_residues(a, 6, digits)
            assert got == [tower_residue(a, b, digits) for b in range(1, 7)], a

    @given(st.integers(1, 300))
    @settings(max_examples=60, deadline=None)
    def test_side_chain_links(self, n):
        two, five, inv = arith._side_chains(n)
        assert (two[0], five[0], two[-1], five[-1]) == (2**n, 5**n, 1, 1)
        assert five[0] * inv % two[0] == 1 % two[0]
        for chain in (two, five, lambda_chain(n)):
            for prev, nxt in zip(chain, chain[1:]):
                assert nxt % carmichael(prev) == 0
                assert nxt >= max(valuation(2, prev), valuation(5, prev))

    @given(st.integers(1, 30), st.integers(1, 7), st.integers(0, 300))
    @settings(max_examples=200, deadline=None)
    def test_exact_towers_capped(self, a, levels, cap):
        want = [None, a]
        for _ in range(2, levels + 1):
            prev = want[-1]
            want.append(None if prev is None or a**prev > cap else a**prev)
        assert arith._exact_towers_capped(a, levels, cap) == want

    def test_two_side_skips_lambda_of_8(self):
        # lambda(8) = 2 < 3; the chain takes 4 instead
        assert arith._side_chains(5)[0] == (32, 8, 4, 2, 1)
        assert arith._side_chains(3)[1] == (125, 100, 20, 4, 2, 1)

    @pytest.mark.parametrize("a,p", [(2**20, 2), (5 * 7**9, 5)])
    def test_divisible_side_takes_no_clamped_pow(self, monkeypatch, a, p):
        # Only moduli p^k with k >= 3 are the p-side's alone: the 5-side
        # chain ends in 4, 2.  With p | a that side takes one exact power
        # (height 2, exponent a) and every taller tower is 0 mod p^40.
        calls = []

        def counting(base, exp, mod):
            calls.append((exp, mod))
            return pow(base, exp, mod)

        arith._side_chains(40)  # cached first, so its CRT inverse is not counted
        monkeypatch.setattr(arith, "pow", counting, raising=False)
        got = tower_residues(a, 9, 40)
        assert got == [tower_residue(a, b, 40) for b in range(1, 10)]
        own = [(e, m) for e, m in calls if m >= p**3 and _is_power_of(p, m)]
        assert own == [(a, p**40)]
        assert len(calls) > 1  # the other side still builds its table


class TestExactTetration:
    def test_fixtures(self):
        assert exact_tetration(2, 4, 10) == 65536
        assert exact_tetration(3, 2, 10) == 27
        assert exact_tetration(1, 99, 10) == 1

    def test_overflow(self):
        with pytest.raises(OverflowError, match="too large"):
            exact_tetration(2, 6, 50)
        with pytest.raises(OverflowError):
            exact_tetration(10, 3, 500)
