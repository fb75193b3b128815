import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import reference_profile
import reference_settle
from congspeed import arith
from congspeed.classes import class_spec
from congspeed.decadic import root_residue
from congspeed.speed import (
    _certify,
    _frozen_table,
    _line_nu,
    constant_speed,
    PrecisionError,
    speed_at_height,
    speed_profile,
    stabilization_floor,
    UndefinedSpeedError,
)


def v10(x):
    n = 0
    while x % 10 == 0:
        x //= 10
        n += 1
    return n


class TestFrozenDigits:
    def test_base_two(self):
        # towers 2, 4, 16, 65536: one shared digit between 16 and 65536
        assert _frozen_table(2, 3, 10) == [0, 0, 1]
        assert speed_profile(2, 3).frozen_counts == [0, 0, 1]

    def test_base_one_marker(self):
        assert speed_profile(1, 1).frozen_counts == [None]
        assert speed_profile(1, 7).frozen_counts == [None] * 7

    def test_multiple_of_ten_rejected(self):
        with pytest.raises(UndefinedSpeedError):
            speed_profile(20, 2)

    def test_exact_reference_base_five(self):
        # Fully independent: exact exponents throughout, no chain logic.
        m = 10**40
        t2 = 5**3125
        nu1 = v10(3125 - 5)
        nu2 = v10((t2 - 3125) % m)
        nu3 = v10((pow(5, t2, m) - t2) % m)
        assert _frozen_table(5, 3, 40) == [nu1, nu2, nu3]
        assert speed_profile(5, 3).frozen_counts == [nu1, nu2, nu3]
        assert (nu1, nu2, nu3) == (1, 5, 8)


class TestSpeedAtHeight:
    def test_fixtures(self):
        assert speed_at_height(2, 3) == 1
        assert speed_at_height(499, 2) == 2
        assert speed_at_height(499, 1) == 3

    def test_phase_shift_height_two(self):
        assert speed_at_height(143**625, 2) == 6

    def test_base_one(self):
        assert speed_at_height(1, 5) == 0


class TestConstantSpeed:
    @pytest.mark.parametrize("a,v", [(5, 2), (1, 0), (807, 3), (2, 1), (3, 1), (499, 2)])
    def test_fixtures(self, a, v):
        assert constant_speed(a) == v

    def test_undefined(self):
        with pytest.raises(UndefinedSpeedError, match="undefined"):
            constant_speed(110)

    def test_anomalous_base_runs_high_before_settling(self):
        assert [speed_at_height(807, b) for b in range(2, 6)] == [4, 4, 4, 4]
        assert constant_speed(807) == 3

    def test_lowered_lte_bound_raises_precision_error(self, monkeypatch):
        # From test_retried_sides_stay_under_the_lte_bound's generator: the 5-side of
        # this even base meets its bound, t5(4) = 70 = 5 nu_5(a^4 - 1), so one table
        # of 71 digits reads it; with nu_5 lowered by 1 the table has 66 digits, too
        # few, and nothing retries.
        a = 2094367361904940081787109376
        t5 = reference_profile.frozen_lines(a, 4)[1]
        assert t5[3] == 5 * arith.valuation(5, a**4 - 1) == 70
        tables, inner = [], arith.tower_residues

        def counting(a, b_max, digits):
            tables.append(digits)
            return inner(a, b_max, digits)

        monkeypatch.setattr(arith, "tower_residues", counting)
        assert constant_speed(a) == t5[3] - t5[2]
        assert tables == [71]
        nu = arith.valuation
        monkeypatch.setattr(arith, "valuation", lambda p, x: nu(p, x) - (x == a**4 - 1))
        for query in (constant_speed, lambda a: speed_profile(a, 6)):
            with pytest.raises(PrecisionError, match="from 66 digits"):
                query(a)
        assert tables == [71, 66, 66]


class TestSpeedProfile:
    def test_base_two(self):
        assert speed_profile(2, 5).speeds == [0, 0, 1, 1, 1]

    def test_phase_shift(self):
        from congspeed.verify import phase_shift_fixture

        p = phase_shift_fixture()  # speed_profile(143**625, 6), cached
        assert p.speeds == [0, 6, 6, 5, 4, 4]
        assert p.constant_speed == 4
        assert p.a == 143**625 and arith.digit_length(p.a) == 1348

    def test_repnine_prime_pattern(self):
        p = speed_profile(29509900499, 3)
        assert p.speeds[:2] == [3, 2]
        assert p.constant_speed == 2

    def test_long_anomalous_base(self):
        p = speed_profile(81666295807, 16)
        assert p.speeds[1:13] == [12] * 12  # heights 2..13 = len + 2
        assert p.speeds[13:] == [11, 11, 11]
        assert p.constant_speed == 11

    def test_base_one(self):
        p = speed_profile(1, 4)
        assert p.speeds == [0, 0, 0, 0]
        assert p.frozen_counts == [None] * 4
        assert p.constant_speed == 0

    def test_entries_telescoping_and_monotone(self):
        for a in (2, 5, 7, 18, 57, 143, 807, 4999, 65535):
            p = speed_profile(a, 9)
            nus = p.frozen_counts
            assert nus == sorted(nus)
            for idx in range(1, len(nus)):
                assert p.speeds[idx] == nus[idx] - nus[idx - 1]
            # speeds never increase from height 3 on
            tail = p.speeds[2:]
            assert all(x >= y for x, y in zip(tail, tail[1:]))


class TestStabilization:
    def test_settles_by_length_plus_three(self):
        for a in list(range(2, 400)) + [999, 1049, 2500, 3127, 9999]:
            if a % 10 == 0:
                continue
            v = constant_speed(a)
            length = len(str(a))
            assert speed_at_height(a, length + 3) == v, a
            assert speed_at_height(a, length + 5) == v, a

    def test_tall_tower_heights(self):
        # A tower taller than its own base is always past stabilization.
        for a in (2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 25, 31, 49):
            assert speed_at_height(a, a + 1) == constant_speed(a)


class TestResolvedIsExact:
    """A nu below the working precision is the true valuation, so only a
    height where all working digits agree (None) asks for more digits."""

    def test_resolved_near_precision_answers(self):
        # nu(5) = 11 and nu(6) = 13 at 20 digits: resolved, hence exact
        nus = _frozen_table(499, 6, 20)
        assert nus[4:] == [11, 13] and nus == _frozen_table(499, 6, 60)

    def test_start_precision_resolves_without_doubling(self, monkeypatch):
        calls = []
        inner = arith.tower_residues

        def counting(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(arith, "tower_residues", counting)
        assert constant_speed(95, start_digits=40) == 5
        assert len(calls) == 1

    @given(
        st.integers(2, 10**24).filter(lambda a: a % 10 != 0),
        st.integers(1, 10),
        st.integers(8, 32),
    )
    @settings(max_examples=80, deadline=None)
    def test_resolved_nu_matches_triple_precision(self, a, b, n):
        nus, wide = _frozen_table(a, b, n), _frozen_table(a, b, 3 * n)
        for nu, ref in zip(nus, wide):
            assert nu is None or nu == ref

    def test_speed_at_height_matches_triple_precision(self):
        # speed_at_height sizes its own precision; 3x that resolves every height
        rng = random.Random(1705)
        for _ in range(300):
            a = rng.randrange(2, 10 ** rng.randint(1, 20))
            a += a % 10 == 0
            b = rng.randint(1, 12)
            wide = _frozen_table(a, b, 3 * speed_profile(a, b).precision_digits)
            assert speed_at_height(a, b) == wide[-1] - (wide[-2] if b > 1 else 0), (a, b)


def assert_settles_like_reference(a, start=64, reference_start=None):
    """constant_speed gives the reference loop's V, and speed_profile built to
    the reference's height reads the reference's nu at every height."""
    ref_v, ref_nus = reference_settle.settle(a, reference_start)
    assert constant_speed(a, start) == ref_v, a
    profile = speed_profile(a, len(ref_nus))
    assert (profile.constant_speed, profile.frozen_counts) == (ref_v, ref_nus), a


class TestSettleMatchesReference:
    """`constant_speed` and `speed_profile` against tests/reference_settle.py:
    tables to floor + 2 heights, a length-based start, blind doubling and
    three equal speeds at or after the floor."""

    def test_every_base_to_3000_at_40_digits(self):
        for a in range(2, 3001):
            if a % 10:
                assert_settles_like_reference(a, 40, 40)

    def test_seeded_long_bases_at_default_start(self):
        rng = random.Random(2208)
        for _ in range(10):
            length = rng.randint(7, 40)
            a = rng.randrange(10 ** (length - 1), 10**length)
            if a % 10 == 0:
                a += 1
            assert_settles_like_reference(a)

    @pytest.mark.parametrize("s1", [1, 2, 3, 7, 8, 9])
    def test_first_two_class_members(self, s1):
        # The reference starts at (v + 1) * (len + 6) digits, enough for its
        # first table: every nu it reads is exact at any precision, so the
        # start changes only its cost.  The profile stops at the floor, where
        # the table of the loop before the certificate stopped.
        for v in range(8, 22):
            for a in itertools.islice(class_spec(s1, v).members(), 2):
                length = arith.digit_length(a)
                ref_v, ref_nus = reference_settle.settle(a, (v + 1) * (length + 6))
                profile = speed_profile(a)  # to the floor, two heights below the reference
                assert ref_v == v and constant_speed(a) == v == profile.constant_speed, a
                assert profile.frozen_counts == ref_nus[: stabilization_floor(a)], a

    def test_anomalous_family_members(self):
        # a = 2^c - 1 mod 2^(c+1), a^2 = -1 mod 5^(c+1): speed c + 1 through
        # height c + 2, c after
        for a in (807, 407922943, 31666295807, 81666295807):
            assert_settles_like_reference(a)


def family_member(c):
    """The member of a = 2^c - 1 mod 2^(c+1), a^2 = -1 mod 5^(c+1) but not
    mod 5^(c+2), below 2^(c+1) * 5^(c+2): V(a) = c."""
    m2, m5 = 2 ** (c + 1), 5 ** (c + 2)
    x = pow(2, 5 ** (c + 1), m5) + m5 // 5  # a square root of -1 mod 5^(c+1) only
    return x + m5 * ((2**c - 1 - x) * pow(m5, -1, m2) % m2)


class TestReferenceProfile:
    """`_frozen_table` against tests/reference_profile.py, the lemma's
    recursion for t_2 and t_5 with no towers."""

    def test_every_base_to_3000_at_six_heights(self):
        for a in range(2, 3001):
            if a % 10:
                ref = reference_profile.frozen_counts(a, 6)
                assert _frozen_table(a, 6, ref[-1] + 1) == ref, a

    def test_seeded_long_bases(self):
        rng = random.Random(62100)
        for _ in range(20):
            length = rng.randint(62, 100)
            a = rng.randrange(10 ** (length - 1), 10**length)
            if a % 10 == 0:
                a += 1
            ref = reference_profile.frozen_counts(a, 6)
            assert _frozen_table(a, 6, ref[-1] + 1) == ref, a
            assert speed_profile(a, 6).frozen_counts == ref, a
            t2, t5 = reference_profile.frozen_lines(a, 6)
            slopes = [t[5] - t[4] for p, t in ((2, t2), (5, t5)) if a % p]
            assert constant_speed(a) == min(slopes), a

    def test_phase_shift_profile(self):
        nus = reference_profile.frozen_counts(143**625, 6)
        speeds = [nus[0]] + [y - x for x, y in zip(nus, nus[1:])]
        assert speeds == [0, 6, 6, 5, 4, 4]

    @pytest.mark.parametrize("c", [3, 8, 10, 11, 62, 101])
    def test_family_members_settle_to_c(self, c):
        a = family_member(c)
        nus = reference_profile.frozen_counts(a, c + 4)
        assert [nus[b] - nus[b - 1] for b in range(1, c + 4)] == [c + 1] * (c + 1) + [c] * 2
        assert constant_speed(a) == c
        assert speed_profile(a, 6).frozen_counts == nus[:6]

    def test_known_family_members(self):
        assert [family_member(c) for c in (3, 10)] == [30807, 31666295807]
        for a, c in ((807, 3), (407922943, 8), (31666295807, 10), (81666295807, 11)):
            assert constant_speed(a) == c
            assert reference_profile.frozen_counts(a, 6) == _frozen_table(a, 6, 6 * (c + 1))

    def test_retried_sides_stay_under_the_lte_bound(self):
        # Bases near a root of y^5 = y have affine sides past 64 digits, which a
        # 64-digit table leaves open; _certify(a, 64) sizes its one table past them
        # by the bound t_p(b) <= (b + 1) nu_p(a^4 - 1).
        rng = random.Random(20)
        retried = tight = 0
        for _ in range(300):
            m = rng.randint(12, 60)
            a = root_residue(rng.randint(1, 13), m).value + rng.randrange(1, 10**m) * 10**m
            ref = reference_profile.frozen_lines(a, 4)
            certified = _certify(a, 64)[1]
            for p, t, read in zip((2, 5), ref, certified):
                if a % p and max(t) >= 64:
                    nu = arith.valuation(p, a**4 - 1)
                    assert all(t[b - 1] <= (b + 1) * nu for b in range(1, 5)), (a, p)
                    assert read == t, (a, p)
                    retried += 1
                    tight += t[3] == 5 * nu
        assert retried > 300 and tight > 0  # the bound is met with equality

    def test_certified_lines_on_every_base_to_3000(self):
        # V and nu(1..8) on the lines read at heights 1-4, and V(a, 1 + a % 8),
        # against the lemma
        for a in range(2, 3001):
            if a % 10:
                v, lines, _ = _certify(a, 40)
                lined = [_line_nu(a, lines, b) for b in range(1, 9)]
                ref = reference_profile.frozen_lines(a, 8)
                nus, b = [min(pair) for pair in zip(*ref)], 1 + a % 8
                assert lined == nus, a
                assert v == min(r[7] - r[6] for p, r in zip((2, 5), ref) if a % p), a
                assert speed_at_height(a, b) == nus[b - 1] - (nus[b - 2] if b > 1 else 0), a
