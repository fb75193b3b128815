import pytest
from hypothesis import given, settings, strategies as st

from congspeed import classes, verify
from congspeed.arith import digit_length
from congspeed.primes import is_prime, RepnineForm
from congspeed.speed import constant_speed, speed_profile
from congspeed.verify import FixtureMismatch, phase_shift_fixture, sweep


def late_speeds(a, from_height):
    """(height, speed) of the first height >= from_height, up to len(a) + 4,
    whose speed differs from V(a); None if there is none."""
    profile = speed_profile(a, digit_length(a) + 4)
    for e in profile.entries:
        if e.height >= from_height and e.speed != profile.constant_speed:
            return e.height, e.speed
    return None


def unsettled_bases(a_min, a_max):
    """Bases outside classes 0, 3 and 7 whose speed differs from V(a) at
    some height >= len(a) + 2, with that height and speed."""
    out = []
    for a in range(a_min, a_max + 1):
        if a % 10 not in (0, 3, 7):
            hit = late_speeds(a, digit_length(a) + 2)
            if hit:
                out.append((a, *hit))
    return out


def unsettled_repnines(n_max, k_max):
    """Primes (k+1) * 10^n - 1 whose speed differs from V(p) at some height >= 2."""
    out = []
    for p in sorted({RepnineForm(k, n).value for n in range(1, n_max + 1)
                     for k in range(k_max + 1)}):
        if is_prime(p):
            hit = late_speeds(p, 2)
            if hit:
                out.append((p, *hit))
    return out


class TestSweep:
    def test_small_range_clean(self):
        report = sweep(2, 1500, 40)
        assert report.mismatches == []
        assert report.ok
        assert (report.a_min, report.a_max, report.precision) == (2, 1500, 40)

    def test_precision_floor(self):
        with pytest.raises(ValueError):
            sweep(2, 100, 32)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            sweep(50, 10, 40)
        with pytest.raises(ValueError):
            sweep(2, 10**6 + 1, 40)

    def test_report_dict(self):
        report = sweep(2, 30, 40)
        d = report.to_dict()
        assert d["a_min"] == 2 and d["a_max"] == 30
        assert d["mismatches"] == []

    def test_raw_formula_mismatch_reported(self, monkeypatch):
        # A wrong formula value must surface as a mismatch, not be repaired
        # by class membership.
        true_value = classes._formula_value
        monkeypatch.setattr(classes, "_formula_value",
                            lambda a: 9 if a == 807 else true_value(a))
        report = sweep(800, 810, 40)
        assert report.mismatches == [(807, 3, 9, 3)]
        assert not report.ok

    @given(st.integers(7, 15).flatmap(lambda k: st.integers(10 ** (k - 1), 10**k - 1)))
    @settings(derandomize=True, max_examples=25, deadline=None)
    def test_long_bases_agree(self, a):
        if a % 10 == 0:
            a += 1
        v = constant_speed(a)
        assert classes._formula_value(a) == v
        assert classes.speed_by_membership(a) == v


class TestStabilizationProbe:
    def test_known_violation_is_five(self):
        # V(5, 3) = 3 while V(5) = 2: the one desk-scale base whose speed
        # has not settled at height len(a) + 2
        assert unsettled_bases(2, 1200) == [(5, 3, 3)]

    def test_classes_3_and_7_not_probed(self):
        # 807 runs one high through height 5, which is why class 7 is left out
        assert unsettled_bases(800, 810) == []
        assert late_speeds(807, 5) == (5, 4)


class TestRepnineProbe:
    def test_clean_at_desk_scale(self):
        assert unsettled_repnines(3, 60) == []

    def test_499_is_not_a_violation(self):
        # height 1 is exempt: 499 freezes 3 digits there, V(499) = 2
        assert unsettled_repnines(1, 50) == []
        assert late_speeds(499, 1) == (1, 3)


class TestPhaseShiftFixture:
    def test_profile(self):
        profile = phase_shift_fixture()
        assert profile.speeds == [0, 6, 6, 5, 4, 4]
        assert profile.constant_speed == 4
        assert profile.precision_digits == 26  # nu(6) + 1: nu(1..6) = 0, 6, 12, 17, 21, 25

    def test_mismatch_raises(self, monkeypatch):
        monkeypatch.setattr(verify, "PHASE_SHIFT_SPEEDS", (0, 6, 6, 5, 4, 3))
        with pytest.raises(FixtureMismatch) as exc:
            phase_shift_fixture()
        assert exc.value.profile is not None
