"""Acceptance suite: one test per exit criterion, exact integer comparisons.

Each test prints a single PASS/FAIL line (run with -s to see them all; on
failure the line also appears in the captured output).  The full sweep in
criterion 6 is the long pole at about half a minute (27 s on a 2-core Xeon
with CPython 3.11); everything else is seconds.
"""

import itertools
import math

from congspeed import verify
from congspeed.classes import (
    class5_closed_form,
    class_spec,
    min_base_class,
    min_base_piecewise,
    min_base_signed,
    min_base_trig,
    speed_one_residues,
    table1_rows,
)
from congspeed.decadic import idempotents, root_residue
from congspeed.primes import (
    is_prime,
    non_monotonic_flags,
    prime_speed_bounds,
    RepnineForm,
    smallest_prime_with_speed,
    speed_candidates,
)
from congspeed.speed import constant_speed, speed_profile

TABLE1 = {
    1: (None, 2), 2: (5, 7), 3: (25, 57), 4: (15, 182), 5: (95, 3124),
    6: (65, 1068), 7: (385, 32318), 8: (255, 390624), 9: (1535, 280182),
    10: (1025, 3626068), 11: (6145, 23157318), 12: (4095, 120813568),
    13: (24575, 1220703124), 14: (16385, 1097376068), 15: (98305, 11109655182),
    16: (65535, 49925501068), 17: (393215, 762939453124),
    18: (262145, 355101282318), 19: (1572865, 19073486328124),
}

TABLE2 = {
    1: 2, 2: 5, 3: 193, 4: 1249, 5: 22943, 6: 2218751, 7: 4218751,
    8: 74218751, 9: 574218751, 10: 30000000001, 11: 281907922943,
    12: 581907922943, 13: 6581907922943, 14: 123418092077057,
    15: 480163574218751, 16: 19523418092077057, 17: 40476581907922943,
    18: 2152996418333704193, 19: 23640476581907922943,
    20: 3640476581907922943, 21: 803640476581907922943,
    51: 138023544317662666830362972182803640476581907922943,
    52: 56138023544317662666830362972182803640476581907922943,
    53: 199999999999999999999999999999999999999999999999999999,
    54: 1114846846461792218008213239954784512519836425781249,
}

from reference_tails import ROOT_TAILS


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}  {name}", flush=True)
    return ok


def test_criterion_01_table1_minimal_bases():
    rows = table1_rows(19)
    got = {n: (a5, other) for n, a5, other in rows}
    ok = got == TABLE1
    assert report("criterion 1: minimal-base table (19 rows, both columns)", ok)


def test_criterion_02_table2_smallest_primes():
    indices = list(range(1, 22)) + [51, 52, 53, 54]
    records = [smallest_prime_with_speed(n) for n in indices]
    values_ok = all(r.q == TABLE2[r.n] for r in records)
    methods_ok = all(
        r.method == ("deterministic-small" if r.q < 2**64 else "probabilistic")
        for r in records
    )
    flags = non_monotonic_flags(records)
    flags_ok = flags == {20, 51, 54}
    ok = values_ok and methods_ok and flags_ok
    assert report(
        "criterion 2: smallest-prime table incl. drops at 20, 51, 54"
        f" (flags={sorted(flags)})",
        ok,
    )


def test_criterion_03_root_digit_tails():
    ok = all(
        f"{root_residue(i, 40).value:040d}" == ROOT_TAILS[i][-40:] for i in range(1, 14)
    )
    assert report("criterion 3: 40-digit tails of all 13 fifth-power roots", ok)


def test_criterion_04_worked_fixtures():
    checks = [
        min_base_class(2, 4) == 182,
        min_base_class(8, 9) == 7532318,
        min_base_class(2, 14) == 23316686432,
        min_base_class(2, 20) == 175120972936432,
        min_base_class(8, 20) == 15613890344818,
        min_base_class(2, 21) == 365855836217682,
        constant_speed(9437185) == 20,
        constant_speed(6291455) == 21,
        constant_speed(163574218751) == 13,
        constant_speed(2077057) == 7,
        constant_speed(6295807) == 7,
    ]
    ok = all(checks)
    assert report("criterion 4: worked minimal-base and speed fixtures", ok)


def test_criterion_05_anomaly_profiles():
    p807 = speed_profile(807, 8)
    ok = p807.speeds[1:5] == [4, 4, 4, 4] and p807.constant_speed == 3
    for a in (499, 29509900499):
        p = speed_profile(a, 5)
        ok = ok and p.speeds[0] == 3 and all(v == 2 for v in p.speeds[1:])
        ok = ok and p.constant_speed == 2
    phase = verify.phase_shift_fixture()
    ok = ok and phase.speeds == [0, 6, 6, 5, 4, 4]
    assert report("criterion 5: anomaly fixtures (807, 499, 29509900499, 143^625)", ok)


def test_criterion_06_oracle_equivalence_sweep():
    report_obj = verify.sweep(2, 10**5, 40)
    ok = report_obj.mismatches == []
    v1 = speed_one_residues()
    for a in range(2, 2501):
        if a % 10 == 0:
            continue
        ok = ok and (constant_speed(a, start_digits=40) == 1) == (a % 25 in v1)
    assert report(
        f"criterion 6: oracle = formula = membership on [2, 10^5] "
        f"({len(report_obj.mismatches)} mismatches), V=1 set exact to 2500",
        ok,
    )


def test_criterion_07_closed_form_coherence():
    ok = all(
        min_base_signed(n) == min_base_piecewise(n) == min_base_trig(n)
        for n in range(2, 201)
    )
    for n in range(2, 31):
        first10 = list(itertools.islice(class_spec(5, n).members(), 10))
        ok = ok and class5_closed_form(n, 10) == first10
    ok = ok and not 5**19 - 1 > (9 * 2**19 + 1) ** 2
    ok = ok and all(5**n - 1 > (9 * 2**n + 1) ** 2 for n in range(20, 201))
    assert report("criterion 7: minimal-base forms agree; crossover first at n = 20", ok)


def test_criterion_08_decadic_ring_properties():
    sign_pairs = [(1, 12), (2, 11), (3, 9), (4, 10), (5, 8), (6, 7)]
    ok = True
    for n in range(1, 61):
        m = 10**n
        h, r = idempotents(n).h, idempotents(n).r
        ok = ok and h * h % m == h
        ok = ok and h * r % m == 0
        ok = ok and (r * r + 1) % m == h
        for i, j in sign_pairs:
            ok = ok and (root_residue(i, n).value + root_residue(j, n).value) % m == 0
    assert report("criterion 8a: idempotent and sign-pair identities, n <= 60", ok)


def test_criterion_08_complement_identities_as_stated():
    # As stated, the pair is also supposed to satisfy r^2 = r and
    # h + r = 1 (mod 10^n).  Both are false for r = 2^(5^n): already at
    # n = 2, r = 32 gives r^2 = 24 and h + r = 57.  The limit of 2^(5^n)
    # is a fifth root of unity times the idempotent, not the idempotent
    # itself; the additive complement of h is r^4 = 1 - h.  The assertions
    # are kept as stated, so this check fails and documents the defect.
    ok = True
    for n in range(1, 61):
        m = 10**n
        h, r = idempotents(n).h, idempotents(n).r
        ok = ok and r * r % m == r
        ok = ok and (h + r) % m == 1
    assert report("criterion 8b: r^2 = r and h + r = 1 (mod 10^n) as stated", ok)


def test_criterion_09_prime_family_properties():
    ok = True
    for n in range(1, 9):
        found = 0
        for k in itertools.count():
            if k % 10 == 9:
                continue
            p = RepnineForm(k, n).value
            if is_prime(p):
                ok = ok and constant_speed(p) == n
                found += 1
                if found == 5:
                    break
        if n >= 2:
            found = 0
            for mlt in itertools.count():
                p = (2 * mlt + 1) * 10**n - 1
                if is_prime(p):
                    ok = ok and constant_speed(p) == n
                    found += 1
                    if found == 5:
                        break
    found = 0
    for p in itertools.count(29, 100):
        if is_prime(p):
            ok = ok and constant_speed(p) == 1
            found += 1
            if found == 5:
                break
    for n in range(1, 13):
        rec = smallest_prime_with_speed(n)
        ok = ok and is_prime(rec.q) and rec.oracle_checked
        below = itertools.takewhile(lambda v: v < rec.q, speed_candidates(n))
        ok = ok and not any(is_prime(v) for v in below)
    assert report("criterion 9: prime families keep speed n; records minimal, n <= 12", ok)


def test_criterion_10_speed_bounds_symbolic():
    ok = True
    for n in range(2, 61):
        lo, hi = prime_speed_bounds(n)
        ok = ok and lo < hi
        ok = ok and lo == math.isqrt(5**n - 1) + 1
        ok = ok and (lo - 1) ** 2 <= 5**n - 1 < lo**2
        ok = ok and hi == 9 * 10**n - 1
    for n in range(2, 13):
        q = smallest_prime_with_speed(n).q
        lo, hi = prime_speed_bounds(n)
        ok = ok and lo <= q <= hi
    assert report("criterion 10: bound expressions evaluate and order correctly", ok)
