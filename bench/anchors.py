"""Micro-figures to compare with the ROADMAP re-anchor numbers.

    python3 bench/anchors.py

Prints one JSON object: `pow` modulo 10^40, `_frozen_table(a, 10, 40)`,
towers built per base by `constant_speed(a, start_digits=40)` on bases up to
2*10^4, and `smallest_prime_with_speed(200, oracle_check=False)`.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from congspeed import arith, primes, speed  # noqa: E402


def _median_s(fn, repeat: int, number: int) -> float:
    runs = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        runs.append((time.perf_counter() - t0) / number)
    return statistics.median(runs)


def main() -> None:
    rng = random.Random(0)
    m = 10**40
    lam = arith.lambda_chain(40)[1]
    pairs = [(rng.randrange(2, 10**6), rng.randrange(lam)) for _ in range(64)]
    pow_s = _median_s(lambda: [pow(a, e, m) for a, e in pairs], 7, 20) / len(pairs)

    bases = [rng.randrange(10**3, 10**6) | 1 for _ in range(16)]
    table_s = _median_s(lambda: [speed._frozen_table(a, 10, 40) for a in bases], 5, 3) / len(bases)

    tables = 0
    plain = arith.tower_residues

    def counting(*args):
        nonlocal tables
        tables += 1
        return plain(*args)

    sweep_bases = [a for a in range(2, 20001, 7) if a % 10]
    arith.tower_residues = counting
    try:
        t0 = time.perf_counter()
        for a in sweep_bases:
            speed.constant_speed(a, start_digits=40)
        per_base_s = (time.perf_counter() - t0) / len(sweep_bases)
    finally:
        arith.tower_residues = plain

    search_s = _median_s(lambda: primes.smallest_prime_with_speed(200, oracle_check=False), 3, 1)
    print(json.dumps({
        "pow_mod_10e40_us": pow_s * 1e6,
        "frozen_table_10_40_ms": table_s * 1e3,
        "sweep_tables_per_base": tables / len(sweep_bases),
        "sweep_ms_per_base": per_base_s * 1e3,
        "smallest_prime_200_s": search_s,
    }))


if __name__ == "__main__":
    main()
