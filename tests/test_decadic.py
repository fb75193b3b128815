import pytest

from congspeed import decadic
from congspeed.decadic import (
    DecadicResidue,
    idempotents,
    ROOT_LAST_DIGIT,
    root_residue,
)
from congspeed.speed import constant_speed

from reference_tails import ROOT_TAILS

SIGN_PAIRS = [(1, 12), (2, 11), (3, 9), (4, 10), (5, 8), (6, 7)]


class TestIdempotents:
    def test_small_values(self):
        assert idempotents(1).h == 5
        assert idempotents(1).r == 2
        assert idempotents(2).h == 25
        assert idempotents(2).r == 32

    def test_printed_tails(self):
        assert idempotents(20).h == 92256259918212890625
        assert idempotents(21).r == 804103263499879186432

    def test_against_plain_pow(self):
        for n in range(1, 301):
            assert idempotents(n).h == pow(5, 2**n, 10**n)
        # r up to 401 covers every class_spec that `q 150` to `q 399` builds.
        for n in range(1, 402):
            assert idempotents(n).r == pow(2, 5**n, 10**n)

    def test_ring_identities(self):
        for n in (1, 2, 5, 20, 40, 60):
            m = 10**n
            h, r = idempotents(n).h, idempotents(n).r
            assert h * h % m == h
            assert h * r % m == 0
            assert (r * r + 1) % m == h
            assert pow(r, 4, m) == (1 - h) % m
            assert pow(r, 5, m) == r

    def test_r_is_not_the_complement_of_h(self):
        # r = 2^(5^n) is a fifth root of itself, not an idempotent: its
        # square is h - 1 and the additive complement of h is r^4.
        h, r = idempotents(2).h, idempotents(2).r
        assert r * r % 100 == 24 != r
        assert (h + r) % 100 == 57 != 1


class TestRoots:
    def test_fixtures(self):
        assert root_residue(9, 3).value == 807
        assert root_residue(13, 6).value == 999999
        assert root_residue(10, 7).value == 2077057

    def test_index_validation(self):
        with pytest.raises(ValueError):
            root_residue(0, 5)
        with pytest.raises(ValueError):
            root_residue(14, 5)

    def test_last_digits(self):
        for i, s1 in ROOT_LAST_DIGIT.items():
            assert root_residue(i, 25).value % 10 == s1

    def test_fifth_power_fixed_points(self):
        for n in range(1, 61):
            m = 10**n
            for i in range(1, 14):
                y = root_residue(i, n).value
                assert pow(y, 5, m) == y

    def test_truncation_coherence(self):
        for i in range(1, 14):
            for n in (2, 7, 30, 55):
                assert root_residue(i, n).value % 10 ** (n - 1) == root_residue(i, n - 1).value

    def test_printed_tails_40_digits(self):
        for i, tail in ROOT_TAILS.items():
            assert f"{root_residue(i, 40).value:040d}" == tail[-40:]

    def test_sign_pairs(self):
        for n in range(1, 61):
            m = 10**n
            for i, j in SIGN_PAIRS:
                assert (root_residue(i, n).value + root_residue(j, n).value) % m == 0

    def test_digits_property(self):
        res = root_residue(9, 5)
        assert res.value == 95807
        assert res.digits == (7, 0, 8, 5, 9)
        assert root_residue(9, 4).digits[-1] == 5

    @pytest.mark.parametrize("n", [999, 1000, 1001, 2001])
    def test_digits_across_blocks(self, n):
        res = root_residue(10, n)
        assert res.digits == tuple(int(c) for c in reversed(f"{res.value:0{n}d}"))

    def test_digits_above_str_limit(self):
        # Root 13 is -1, so every digit is 9; one int-to-str of 5,000 digits raises.
        assert DecadicResidue(13, 5000, 10**5000 - 1).digits == (9,) * 5000

    def test_unit_root_alternative_form(self):
        # root 1 = 1 - 2h = 2 r^4 - 1 = 2^(4*5^n + 1) - 1, since r^4 = 1 - h
        for n in range(1, 51):
            m = 10**n
            assert (pow(2, 4 * 5**n + 1, m) - 1) % m == root_residue(1, n).value


class TestOracleLink:
    def test_coprime_roots_have_speed_n(self):
        # Coprime-class truncations have speed >= n, exactly n iff the next
        # digit of the underlying root is nonzero.
        for i in (1, 3, 4, 9, 10, 12, 13):
            for n in range(2, 13):
                v = constant_speed(root_residue(i, n).value)
                assert v >= n
                if root_residue(i, n + 1).digits[n] != 0:
                    assert v == n
                else:
                    assert v > n

    def test_even_and_five_roots_at_least_n(self):
        for i in (2, 5, 6, 7, 8, 11):
            for n in range(2, 13):
                assert constant_speed(root_residue(i, n).value) >= n


def sqrt_minus_one_mod5(n):
    """The two solutions of x^2 = -1 (mod 5^n), ascending, from r(n)."""
    five = 5**n
    x = idempotents(n).r % five
    return tuple(sorted((x, five - x)))


def min_coprime_candidates(n):
    """Per coprime last digit, the least root truncation to n digits ending in it."""
    return {
        1: root_residue(1, n).value,
        3: min(root_residue(3, n).value, root_residue(4, n).value),
        7: min(root_residue(10, n).value, root_residue(9, n).value),
        9: root_residue(12, n).value,
    }


class TestSqrtMinusOne:
    def test_fixtures(self):
        assert sqrt_minus_one_mod5(1) == (2, 3)
        assert sqrt_minus_one_mod5(2) == (7, 18)

    def test_defining_property(self):
        for n in range(1, 51):
            five = 5**n
            x, y = sqrt_minus_one_mod5(n)
            assert (x * x + 1) % five == 0
            assert (y * y + 1) % five == 0
            assert x + y == five


class TestMinCoprimeCandidates:
    def test_small(self):
        got = min_coprime_candidates(2)
        assert got == {1: 51, 3: 43, 7: 7, 9: 49}
        # oracle confirmation for the derived values
        assert constant_speed(49) == 2
        assert constant_speed(51) == 2

    def test_class7_at_7(self):
        assert min(root_residue(9, 7).value, root_residue(10, 7).value) == 2077057

    def test_speed_at_least_n(self):
        for n in range(2, 11):
            for s1, a in min_coprime_candidates(n).items():
                assert a % 10 == s1
                assert constant_speed(a) >= n
