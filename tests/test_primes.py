import heapq
import itertools
import json
import math
import random
from pathlib import Path

import pytest

import reference_primality
from congspeed import primes
from congspeed.classes import class_spec, speed_by_formula
from congspeed.primes import (
    is_prime,
    METHOD_DETERMINISTIC,
    METHOD_PROBABILISTIC,
    non_monotonic_flags,
    prime_speed_bounds,
    primality_method,
    PrimeSpeedRecord,
    repnine_speed,
    RepnineForm,
    SearchBudgetError,
    smallest_prime_table,
    smallest_prime_with_speed,
    speed_candidates,
)
from congspeed.speed import constant_speed


def sieve_primality(limit):
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = [False] * len(flags[p * p :: p])
    return flags


def assert_matches_reference(xs):
    for x in xs:
        assert is_prime(x) == reference_primality.is_prime(x), x


class TestIsPrime:
    def test_agrees_with_sieve(self):
        flags = sieve_primality(5000)
        for x in range(5000):
            assert is_prime(x) == flags[x], x

    def test_fixtures(self):
        assert is_prime(22943)
        assert not is_prime(1)
        assert is_prime(29509900499)

    def test_strong_pseudoprime_composites(self):
        # strong pseudoprime to bases 2, 3, 5, 7 -- the strong Lucas test
        # must still reject it
        assert 3215031751 == 151 * 751 * 28351
        assert not is_prime(3215031751)
        # Carmichael number
        assert not is_prime(561)

    def test_large_probabilistic(self):
        m89 = 2**89 - 1  # Mersenne prime, above the deterministic limit
        assert primality_method(m89) == METHOD_PROBABILISTIC
        assert is_prime(m89)
        m101 = 2**101 - 1  # composite Mersenne
        assert not is_prime(m101)
        assert not is_prime(m89 * m89)

    def test_method_boundary(self):
        assert primality_method(2**64 - 59) == METHOD_DETERMINISTIC
        assert primality_method(2**64 + 13) == METHOD_PROBABILISTIC

    def test_probabilistic_range_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        import random

        rng = random.Random(599)
        for _ in range(120):
            x = rng.randrange(2**66, 2**80) | 1
            assert is_prime(x) == sympy.isprime(x), x

    def test_deterministic_range_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(601)
        for _ in range(300):
            x = rng.randrange(2**32, 2**64) | 1
            assert is_prime(x) == sympy.isprime(x), x
            p = sympy.nextprime(x)
            if p < 2**64:
                assert is_prime(p), p

    # Baillie-PSW against the kernel it replaced, which ran 12 Miller-Rabin
    # rounds (bases 2-37) below 2^64.
    def test_every_small_x(self):
        assert_matches_reference(range(300_000))

    def test_seeded_odd_64_bit(self):
        rng = random.Random(16)
        assert_matches_reference(rng.randrange(2**32, 2**64) | 1 for _ in range(20_000))

    def test_seeded_semiprimes(self):
        rng = random.Random(17)

        def prime():
            x = rng.randrange(2**30, 2**32) | 1
            while not reference_primality.is_prime(x):
                x += 2
            return x

        assert_matches_reference(prime() * prime() for _ in range(2_000))

    def test_seeded_above_64_bits(self):
        rng = random.Random(18)
        assert_matches_reference(
            rng.getrandbits(k) | 1 << (k - 1) | 1
            for k in (rng.randrange(65, 401) for _ in range(1_000))
        )

    def test_a014233_strong_pseudoprimes(self):
        # The least strong pseudoprime to all of the first k prime bases, k = 1..9.
        for x in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                  341550071728321, 3825123056546413051, 318665857834031151167461):
            assert not is_prime(x), x

    def test_strong_lucas_against_reference(self):
        # Every odd n below 300,000, then 20,000 seeded odd n of 2 to 120 digits.
        rng = random.Random(2208)
        seeded = (rng.randrange(10 ** (k - 1), 10**k) | 1
                  for k in (rng.randrange(2, 121) for _ in range(20_000)))
        for n in itertools.chain(range(3, 300_000, 2), seeded):
            if math.isqrt(n) ** 2 != n:
                got = primes._strong_lucas_prp(n)
                assert got == reference_primality._strong_lucas_prp(n), n

    # The first 12 strong Lucas pseudoprimes (OEIS A217255).
    @pytest.mark.parametrize("n", [5459, 5777, 10877, 16109, 18971, 22499,
                                   24569, 25199, 40309, 58519, 75077, 97439])
    def test_strong_lucas_pseudoprimes(self, n):
        # Composites that pass the strong Lucas test; the base-2 round rejects them.
        assert primes._strong_lucas_prp(n) and reference_primality._strong_lucas_prp(n)
        assert not primes._miller_rabin_round(n) and not is_prime(n)

    def test_selfridge_q_is_a_unit(self):
        # A prime p dividing n and Q = (1 - D) / 4 has D = 1 (mod p) and |D| > 3p,
        # so the search for D meets p (or 9, for p = 3) first, where jacobi(D, n)
        # is 0 and n fails: the Q = 1 ladder never needs the inverse of a non-unit.
        # 27892309 = 59 * 472751, with no factor up to 53, runs the search to D = -59.
        def selfridge(n):
            d = 5
            while reference_primality._jacobi(d, n) == 1:
                d = -(d + 2) if d > 0 else -(d - 2)
            return d, reference_primality._jacobi(d, n)

        n = 27892309
        assert selfridge(n) == (-59, 0) and all(n % p for p in primes._SMALL_PRIMES)
        assert not primes._strong_lucas_prp(n) and not reference_primality._strong_lucas_prp(n)
        assert not is_prime(n)
        for n in range(55, 300_000, 2):
            d, j = selfridge(n)
            assert j == 0 or math.gcd((1 - d) // 4, n) == 1, n


class TestRepnine:
    def test_form(self):
        f = RepnineForm(8, 3)
        assert f.value == 8999
        assert f.value % 10**3 == 10**3 - 1

    def test_speed_rule(self):
        assert repnine_speed(8, 3) == 3
        assert constant_speed(8999) == 3
        assert repnine_speed(9, 2) is None
        assert constant_speed(2999) == 3  # 2999 = 30 * 10^2 - 1, k = 29 = 9 (mod 10)
        assert repnine_speed(8, 1762063) == 1762063

    def test_speed_rule_height_one(self):
        assert repnine_speed(1, 1) == 1
        assert constant_speed(19) == 1
        assert repnine_speed(4, 1) is None
        assert constant_speed(49) == 2
        assert repnine_speed(14, 1) is None
        assert constant_speed(149) == 2

    def test_excluded_multiplier_really_jumps(self):
        assert constant_speed(9999) == 4  # k = 9 at n = 2 lands higher up


class TestSpeedCandidates:
    def test_ascending_and_correct(self):
        for n in (2, 3, 4):
            got = list(itertools.islice(speed_candidates(n), 12))
            assert got == sorted(got)
            for a in got:
                assert speed_by_formula(a) == n

    def test_speed_one_stream(self):
        got = list(itertools.islice(speed_candidates(1), 6))
        assert got == [2, 3, 4, 6, 8, 9]


class TestSmallestPrime:
    @pytest.mark.parametrize("n,q", [(1, 2), (2, 5), (3, 193), (4, 1249), (6, 2218751)])
    def test_fixtures(self, n, q):
        rec = smallest_prime_with_speed(n)
        assert rec.q == q
        assert rec.n == n
        assert rec.oracle_checked
        assert rec.method == METHOD_DETERMINISTIC

    def test_eleven(self):
        assert smallest_prime_with_speed(11).q == 281907922943

    def test_budget(self):
        with pytest.raises(SearchBudgetError) as exc:
            smallest_prime_with_speed(6, budget=1)
        assert exc.value.n == 6
        assert exc.value.examined == 1
        # Resuming above last_candidate must not skip an untested candidate.
        assert exc.value.last_candidate == next(speed_candidates(6)) == 77057

    @pytest.mark.parametrize("budget", [0, -2])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError, match="at least 1"):
            smallest_prime_with_speed(6, budget=budget)

    def test_minimality_small(self):
        for n in (3, 4, 5, 6):
            q = smallest_prime_with_speed(n).q
            below = itertools.takewhile(lambda v: v < q, speed_candidates(n))
            assert not any(is_prime(v) for v in below)

    def test_table(self):
        recs = smallest_prime_table(4)
        assert [r.q for r in recs] == [2, 5, 193, 1249]

    def test_table_takes_resolver(self):
        seen = []
        recs = smallest_prime_table(2, extra=(5, 2), resolve=lambda n: seen.append(n) or n)
        assert recs == seen == [1, 2, 5]
        with pytest.raises(ValueError):
            smallest_prime_table(0)


def reference_stream(n):
    """The search stream as all nine classes, the even and class-5 ones cut above 5."""
    def cut(s1):
        members = class_spec(s1, n).members()
        if s1 % 2 and s1 != 5:
            return members
        return itertools.takewhile(lambda v: v <= 5, members)
    return heapq.merge(*(cut(s1) for s1 in range(1, 10)))


def reference_search(n, budget=None):
    """The candidates a plain is_prime loop over reference_stream examines."""
    seen = []
    for cand in reference_stream(n):
        seen.append(cand)
        if is_prime(cand) or len(seen) == budget:
            return seen


RECORDED_Q = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "recorded_q.json").read_text(encoding="utf-8")
)


class TestSearchEquivalence:
    """The four-class stream with its gcd prefilter against the reference search."""

    @staticmethod
    def assert_examines(n, q, examined, last_before):
        # q is found within `examined` candidates and not within one fewer.
        assert smallest_prime_with_speed(n, budget=examined, oracle_check=False).q == q
        if examined > 1:
            with pytest.raises(SearchBudgetError) as exc:
                smallest_prime_with_speed(n, budget=examined - 1, oracle_check=False)
            assert exc.value.examined == examined - 1
            if last_before is not None:
                assert exc.value.last_candidate == last_before

    @pytest.mark.parametrize("n", range(2, 41))
    def test_same_q_and_examined(self, n):
        seen = reference_search(n)
        self.assert_examines(n, seen[-1], len(seen), seen[-2] if len(seen) > 1 else None)

    @pytest.mark.parametrize("n", [6, 7])
    @pytest.mark.parametrize("budget", [1, 5, 37])
    def test_same_budget_stop(self, n, budget):
        seen = reference_search(n, budget)
        if is_prime(seen[-1]):
            assert smallest_prime_with_speed(n, budget=budget).q == seen[-1]
            return
        with pytest.raises(SearchBudgetError) as exc:
            smallest_prime_with_speed(n, budget=budget)
        assert exc.value.examined == budget == len(seen)
        assert exc.value.last_candidate == seen[-1]

    def test_stream_matches_reference(self):
        for n in range(2, 61):
            got = list(itertools.islice(speed_candidates(n), 50))
            assert got == list(itertools.islice(reference_stream(n), 50)), n

    def test_prefilter_spares_primes_below_its_bound(self):
        # Each of these primes divides the primorial, so only the bound
        # keeps the gcds from striking it.
        primorial = math.prod(primes._primorials())
        for n, q in ((2, 5), (3, 193), (4, 1249)):
            assert q < primes._SIEVE_BOUND and math.gcd(q, primorial) == q
            assert smallest_prime_with_speed(n, oracle_check=False).q == q

    @pytest.mark.parametrize("n", [21, 51, 150, 275, 399])
    def test_two_products_strike_what_one_primorial_strikes(self, monkeypatch, n):
        flags = sieve_primality(primes._SIEVE_BOUND)
        primorial = math.prod(p for p, prime in enumerate(flags) if prime)
        assert math.prod(primes._primorials()) == primorial
        first = list(itertools.islice(speed_candidates(n), 300))
        tested = []
        monkeypatch.setattr(primes, "is_prime", lambda x: tested.append(x) or False)
        with pytest.raises(SearchBudgetError):
            smallest_prime_with_speed(n, budget=300, oracle_check=False)
        assert tested == [c for c in first
                          if c <= primes._SIEVE_BOUND or math.gcd(c, primorial) == 1]

    @pytest.mark.parametrize("n", [156, 215, 309, 357, 386])
    def test_recorded_high_n(self, n):
        q, examined = RECORDED_Q[str(n)]
        self.assert_examines(n, int(q), examined, None)


class TestNonMonotonicFlags:
    def test_detects_drop(self):
        recs = [
            PrimeSpeedRecord(3, 193, METHOD_DETERMINISTIC, True),
            PrimeSpeedRecord(4, 1249, METHOD_DETERMINISTIC, True),
        ]
        assert non_monotonic_flags(recs) == set()

    def test_resolver_for_missing_predecessor(self):
        recs = [PrimeSpeedRecord(4, 1249, METHOD_DETERMINISTIC, True)]
        assert non_monotonic_flags(recs, resolver=lambda n: 10**9) == {4}
        assert non_monotonic_flags(recs, resolver=lambda n: 1) == set()


class TestBounds:
    def test_fixtures(self):
        assert prime_speed_bounds(5) == (56, 899999)
        assert prime_speed_bounds(2) == (5, 899)

    def test_known_prime_refines_upper(self):
        lo, hi = prime_speed_bounds(5, known_prime=22943)
        assert (lo, hi) == (56, 22943)

    def test_sandwich_on_computed_records(self):
        for n in range(2, 13):
            q = smallest_prime_with_speed(n).q
            lo, hi = prime_speed_bounds(n)
            assert lo <= q <= hi

    def test_isqrt_defining_property(self):
        import math

        for n in range(2, 61):
            lo, hi = prime_speed_bounds(n)
            assert lo < hi
            assert lo == math.isqrt(5**n - 1) + 1
            assert (lo - 1) ** 2 <= 5**n - 1 < lo**2


class TestPrimeFamilies:
    def test_trailing_nines_primes_have_speed_n(self):
        # first 5 primes (k+1) * 10^n - 1 with k != 9 (mod 10), n <= 4 here;
        # the acceptance suite pushes n to 8
        for n in range(1, 5):
            found = 0
            for k in itertools.count():
                if k % 10 == 9:
                    continue
                p = RepnineForm(k, n).value
                if is_prime(p):
                    assert constant_speed(p) == n, (n, k, p)
                    found += 1
                    if found == 5:
                        break

    def test_odd_multiplier_primes_have_speed_n(self):
        for n in range(2, 5):
            found = 0
            for m in itertools.count():
                p = (2 * m + 1) * 10**n - 1
                if is_prime(p):
                    assert constant_speed(p) == n, (n, m, p)
                    found += 1
                    if found == 5:
                        break

    def test_primes_29_mod_100_have_speed_one(self):
        found = 0
        for p in itertools.count(29, 100):
            if is_prime(p):
                assert constant_speed(p) == 1, p
                found += 1
                if found == 5:
                    break
