import heapq
import itertools
import random

import pytest

from congspeed import classes
from congspeed.classes import (
    class5_bases,
    class5_bases_signed,
    class5_closed_form,
    class_spec,
    min_base,
    min_base_class,
    min_base_piecewise,
    min_base_signed,
    min_base_trig,
    ProgressionFamily,
    speed_by_formula,
    speed_by_membership,
    speed_one_residues,
    table1_rows,
    valuation_bound,
)
from congspeed.decadic import root_residue
from congspeed.speed import constant_speed, UndefinedSpeedError

import reference_classes


def take(it, k):
    return list(itertools.islice(it, k))


class TestSpeedOneResidues:
    def test_exact_set(self):
        assert speed_one_residues() == frozenset(
            {2, 3, 4, 6, 8, 9, 11, 12, 13, 14, 16, 17, 19, 21, 22, 23}
        )

    def test_examples(self):
        assert 2 % 25 in speed_one_residues()
        assert 57 % 25 not in speed_one_residues()
        assert 29 % 25 in speed_one_residues()
        assert constant_speed(29) == 1

    def test_matches_oracle_below_600(self):
        for a in range(2, 600):
            if a % 10 == 0:
                continue
            assert (constant_speed(a) == 1) == (a % 25 in speed_one_residues())


class TestProgressionFamily:
    def test_members_and_contains(self):
        fam = ProgressionFamily(182, 1250, frozenset({4}), 5)
        first = take(fam.members(), 5)
        assert first == [182, 1432, 2682, 3932, 6432]
        assert fam.contains(6432)
        assert not fam.contains(5182)  # the excluded multiplier
        assert not fam.contains(183)
        assert fam.smallest() == 182


class TestClassSpec:
    def test_class2_speed4(self):
        spec = class_spec(2, 4)
        assert take(spec.members(), 5) == [182, 1432, 2682, 3932, 6432]
        assert constant_speed(6432) == 4
        assert constant_speed(5182) == 5

    def test_class5_speed2(self):
        spec = class_spec(5, 2)
        assert sorted(f.base for f in spec.families) == [5, 35]
        assert all(f.step == 40 for f in spec.families)
        assert take(spec.members(), 4) == [5, 35, 45, 75]

    def test_class4_speed3(self):
        spec = class_spec(4, 3)
        fam = spec.families[0]
        assert (fam.base, fam.step, fam.residue_modulus) == (124, 250, 5)
        assert fam.excluded == frozenset({2})

    def test_speed_one_classes(self):
        # Speed 1 is a residue test mod 25, so each class is residues mod 50.
        for s1 in range(1, 10):
            want = [a for a in range(2, 1000) if a % 10 == s1 and a % 25 in speed_one_residues()]
            assert take(class_spec(s1, 1).members(), len(want)) == want
        assert [f.base for f in class_spec(3, 1).families] == [3, 13, 23, 33]
        assert class_spec(5, 1).families == ()
        with pytest.raises(ValueError, match="at least 1, got 0"):
            class_spec(3, 0)

    def test_members_have_the_right_speed(self):
        for s1 in range(1, 10):
            for n in (2, 3):
                for a in take(class_spec(s1, n).members(), 6):
                    assert a % 10 == s1
                    assert constant_speed(a) == n, (s1, n, a)

    def test_distinct_families_disjoint(self):
        for s1 in (1, 3, 7, 9):
            spec = class_spec(s1, 3)
            m1 = set(take(spec.families[0].members(), 200))
            m2 = set(take(spec.families[1].members(), 200))
            assert not (m1 & m2)


class TestOneRootRule:
    """`class_spec` against independent constructions of the same classes."""

    @pytest.mark.parametrize("s1", [1, 2, 3, 4, 6, 7, 8, 9])
    def test_matches_reference_construction(self, s1):
        rng = random.Random(s1)
        for n in range(2, 81):
            spec = class_spec(s1, n)
            ref = reference_classes.families(s1, n)
            want = take(heapq.merge(*(f.members() for f in ref)), 50)
            assert take(spec.members(), 50) == want, (s1, n)
            assert spec.smallest() == min(f.smallest() for f in ref) == want[0]
            top = 3 * 10 ** (n + 1)
            probes = [1, *want, *(w + 10 for w in want)]
            probes += [rng.randrange(top) // 10 * 10 + s1 for _ in range(100)]
            if s1 in (2, 8):
                low = reference_classes.lifted_residue(s1, n)
                probes += [low, low + 2 * 5**n]
            for a in probes:
                assert spec.contains(a) == any(f.contains(a) for f in ref), (s1, n, a)

    def test_lifted_cases(self):
        # The even classes where the reduced root already has speed n + 1.
        assert [reference_classes.lift(s1, n) for s1, n in ((8, 9), (2, 4), (2, 14))] == [1, 0, 1]
        for s1, n in ((8, 9), (2, 14)):
            low = reference_classes.lifted_residue(s1, n)
            assert not class_spec(s1, n).contains(low)
            assert class_spec(s1, n + 1).contains(low)

    def test_class5_closed_form_is_the_root_rule(self):
        # Roots 6 and 7 (h and -h) with M(n) = 5 * 2^n give the trig closed form.
        mod = lambda k: 5 * 2**k  # noqa: E731
        for n in range(2, 81):
            fams = [classes._root_family(i, n, mod) for i in (6, 7)]
            want = take(heapq.merge(*(f.members() for f in fams)), 50)
            spec = class_spec(5, n)
            assert take(spec.members(), 50) == want, n
            assert spec.smallest() == want[0]
            for a in [*want, *(w + 5 * 2**n for w in want)]:
                assert spec.contains(a) == any(f.contains(a) for f in fams), (n, a)


class TestMinBaseClass:
    @pytest.mark.parametrize(
        "s1,n,want",
        [
            (4, 4, 624),
            (2, 4, 182),
            (8, 9, 7532318),
            (2, 14, 23316686432),
            (8, 20, 15613890344818),
            (2, 20, 175120972936432),
            (2, 21, 365855836217682),
            (5, 2, 5),
            (7, 3, 57),
            (7, 7, 2077057),
        ],
    )
    def test_values(self, s1, n, want):
        assert min_base_class(s1, n) == want

    def test_oracle_confirms_small(self):
        for s1 in range(1, 10):
            for n in (2, 3, 4):
                a = min_base_class(s1, n)
                assert constant_speed(a) == n, (s1, n, a)

    def test_is_the_minimum_of_the_class(self):
        for s1 in range(1, 10):
            for n in (2, 3):
                assert min_base_class(s1, n) == take(class_spec(s1, n).members(), 1)[0]

    @pytest.mark.parametrize("s1", [1, 2, 3, 4, 6, 7, 8, 9])
    def test_speed_one_by_oracle(self, s1):
        want = min(a for a in range(2, 200) if a % 10 == s1 and constant_speed(a) == 1)
        assert min_base_class(s1, 1) == want

    def test_empty_class_names_digit_and_speed(self):
        with pytest.raises(ValueError, match="last digit 5 has speed 1"):
            min_base_class(5, 1)

    def test_mirror_identity_classes_4_6(self):
        for n in range(2, 61):
            assert min_base_class(4, n) + 2 == min_base_class(6, n)


class TestMinBase:
    @pytest.mark.parametrize("n,want", [(0, 1), (1, 2), (2, 5), (4, 15), (19, 1572865)])
    def test_values(self, n, want):
        assert min_base(n) == want

    def test_three_routes_agree(self):
        for n in range(2, 201):
            assert min_base_signed(n) == min_base_piecewise(n) == min_base_trig(n)

    def test_class5_pairs_agree(self):
        for n in range(2, 61):
            assert sorted(class5_bases(n)) == sorted(class5_bases_signed(n))

    def test_crossover_against_other_classes(self):
        for n in range(2, 20):
            others = min(min_base_class(s1, n) for s1 in (1, 2, 3, 4, 6, 7, 8, 9))
            assert min_base(n) == min_base_class(5, n) < others

    def test_crossover_inequality_first_holds_at_20(self):
        # 5^n - 1 > (9 * 2^n + 1)^2, exact integer comparison
        assert not 5**19 - 1 > (9 * 2**19 + 1) ** 2
        for n in range(20, 201):
            assert 5**n - 1 > (9 * 2**n + 1) ** 2

    def test_weaker_inequality_holds_from_10(self):
        assert not 5**9 - 1 > (3 * 2**9 + 1) ** 2
        for n in range(10, 201):
            assert 5**n - 1 > (3 * 2**n + 1) ** 2


class TestTable1:
    def test_first_rows(self):
        rows = table1_rows(4)
        assert rows == [(1, None, 2), (2, 5, 7), (3, 25, 57), (4, 15, 182)]


class TestClass5ClosedForm:
    def test_fixtures(self):
        assert class5_closed_form(2, 4) == [5, 35, 45, 75]
        assert class5_closed_form(4, 2) == [15, 145]
        assert class5_closed_form(3, 1) == [25]

    def test_oracle_confirms(self):
        for v in class5_closed_form(2, 4):
            assert constant_speed(v) == 2

    def test_matches_enumeration(self):
        for n in range(2, 31):
            want = take(class_spec(5, n).members(), 10)
            assert class5_closed_form(n, 10) == want


class TestValuationBound:
    def test_examples(self):
        assert valuation_bound(182) == 4
        assert valuation_bound(7) == 2
        # class {1,9} takes the min over both prime sides: for 2499 the
        # 2-adic side (2^3 || 2499^2 - 1) caps the bound at 3
        assert valuation_bound(2499) == 3
        assert constant_speed(2499) == 2

    def test_bound_dominates_oracle(self):
        for a in list(range(2, 300)) + [807, 2499, 6432, 9437185]:
            if a % 10 == 0:
                continue
            assert valuation_bound(a) >= constant_speed(a), a

    def test_domain(self):
        with pytest.raises(UndefinedSpeedError):
            valuation_bound(30)

    def test_domain_past_the_str_limit(self):
        # CPython converts at most 4,300 digits between int and str in one step.
        with pytest.raises(UndefinedSpeedError, match=f"got 1{'0' * 5000}$"):
            valuation_bound(10**5000)


class TestSpeedByFormula:
    @pytest.mark.parametrize(
        "a,v",
        [(5, 2), (8999, 3), (249999, 4), (163574218751, 13), (1, 0),
         (9437185, 20), (6291455, 21), (2077057, 7), (6295807, 7)],
    )
    def test_values(self, a, v):
        assert speed_by_formula(a) == v

    def test_matches_oracle_range(self):
        for a in range(2, 1500):
            if a % 10 == 0:
                continue
            assert speed_by_formula(a) == constant_speed(a), a

    def test_matches_oracle_samples(self):
        import random

        rng = random.Random(20260810)
        for _ in range(40):
            a = rng.randrange(10**5, 10**8)
            if a % 10 == 0:
                a += 1
            assert speed_by_formula(a) == constant_speed(a), a

    def test_undefined(self):
        with pytest.raises(UndefinedSpeedError):
            speed_by_formula(100)

    def test_disagreement_raises(self, monkeypatch):
        monkeypatch.setattr(classes, "_formula_value", lambda a: 4)
        with pytest.raises(classes.FormulaMismatch, match="membership gives 3"):
            speed_by_formula(807)

    def test_disagreement_past_the_str_limit(self, monkeypatch):
        a = 7 * (10**5000 - 1) // 9  # 5,000 sevens, V = 1
        monkeypatch.setattr(classes, "_formula_value", lambda a: 2)
        with pytest.raises(classes.FormulaMismatch,
                           match=f"^valuation formula gives V\\({'7' * 5000}\\) = 2, "
                                 "class membership gives 1$"):
            speed_by_formula(a)


class TestMembership:
    def test_unique_class_small_range(self):
        for a in range(2, 1200):
            if a % 10 == 0:
                continue
            n = speed_by_membership(a)
            assert n is not None, a
            assert n == speed_by_formula(a), a

    def test_root_mirror_sums(self):
        for n in range(1, 61):
            r2 = root_residue(2, n).value
            r8 = root_residue(11, n).value
            assert r2 + r8 == 10**n
            assert r2 % (2 * 5**n) + r8 % (2 * 5**n) == 2 * 5**n


class TestClass5Reductions:
    def test_reduced_roots_keep_speed(self):
        # both fifth-root truncations in the class of 5 keep speed >= n
        # after reduction mod 10 * 2^n
        for n in range(3, 26):
            m = 10 * 2**n
            for i in (6, 7):
                v = root_residue(i, n).value % m
                assert constant_speed(v) >= n, (n, i, v)

    def test_worked_pair(self):
        assert root_residue(6, 20).value % (10 * 2**20) == 9437185
        assert constant_speed(9437185) == 20
        assert root_residue(7, 20).value % (10 * 2**20) == 6291455
        assert constant_speed(6291455) == 21
