"""Write recorded_q.json: q_n and its candidate count for the `primes` workload.

The benchmark checks every `q n` answer against this file, and uses the
candidate counts as the unit of search work, so that the work a search
represents is fixed here and cannot shift with later changes to the search.

    python3 bench/make_recorded.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from congspeed.primes import smallest_prime_with_speed, speed_candidates  # noqa: E402

N_RANGE = range(150, 401)


def main() -> None:
    table = {}
    for n in N_RANGE:
        q = smallest_prime_with_speed(n).q
        examined = next(i for i, c in enumerate(speed_candidates(n), 1) if c == q)
        table[str(n)] = [str(q), examined]
    out = Path(__file__).resolve().parent / "recorded_q.json"
    out.write_text(json.dumps(table, indent=0) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
