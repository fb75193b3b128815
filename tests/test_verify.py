import pytest
from hypothesis import given, settings, strategies as st

from congspeed import classes, verify
from congspeed.speed import constant_speed
from congspeed.verify import (
    FixtureMismatch,
    phase_shift_fixture,
    probe_repnine_stabilization,
    probe_stabilization_height,
    sweep,
)


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
        assert probe_stabilization_height(2, 1200) == [(5, 3, 3)]

    def test_classes_3_and_7_not_probed(self):
        # 807 runs one high through height 5 but its class is excluded
        assert probe_stabilization_height(800, 810) == []


class TestRepnineProbe:
    def test_clean_at_desk_scale(self):
        assert probe_repnine_stabilization(3, 60) == []

    def test_499_is_not_a_violation(self):
        # height 1 is exempt by contract
        assert probe_repnine_stabilization(1, 50) == []


class TestPhaseShiftFixture:
    def test_profile(self):
        profile = phase_shift_fixture()
        assert profile.speeds == [0, 6, 6, 5, 4, 4]
        assert profile.constant_speed == 4
        assert profile.precision_digits == 80

    def test_mismatch_raises(self, monkeypatch):
        monkeypatch.setattr(verify, "PHASE_SHIFT_SPEEDS", (0, 6, 6, 5, 4, 3))
        with pytest.raises(FixtureMismatch) as exc:
            phase_shift_fixture()
        assert exc.value.profile is not None
