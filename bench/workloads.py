"""Seeded workloads for the congspeed benchmark.

Each workload is a closed loop: one process, one call in flight. A workload
starts with a fixed reference call (`cold_op`), the first call a fresh
process makes, then runs rounds; round r is a fixed mix of operations whose
inputs come from `random.Random(f"{name}:{seed}:{r}")`, so the same seed
gives the same inputs and every round has the same shape. The mix is
stratified (one input per size band) because the cost of a call grows
steeply with the size of its input; a plain random draw would make a run's
figures depend on its luck.

Every operation has a correctness gate, evaluated outside the timed call.
The gates use the functions captured at import, so a traced pass does not
count their work.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from congspeed import cli, verify
from congspeed.classes import class_spec, speed_by_formula
from congspeed.primes import is_prime

HERE = Path(__file__).resolve().parent

# The paper's Table 2: the smallest prime with each constant congruence speed.
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
TABLE2_DROPS = frozenset({20, 51, 54})
TABLE2_ARGS = ["table2", "--max", "21", "--extra", "51,52,53,54"]

RECORDED_Q = HERE / "recorded_q.json"


def run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main in-process with stdout captured; (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["--output", "json", *argv])
    return rc, buf.getvalue()


def _json_out(out: tuple[int, str]):
    rc, text = out
    return json.loads(text) if rc == 0 else None


@dataclass
class Op:
    """One timed call: `call()` is timed, `check(result)` is not."""

    kind: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    units: int = 1


class Workload:
    """Base: subclasses define the round mix and the metric mapping."""

    name = ""
    # Samples of this kind give p50 and tail latency; "round" means the
    # summed time of each round.
    latency_kind = ""
    # Samples of this kind give throughput (units per second) and CPU per unit.
    rate_kind = ""
    unit = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.inputs: list = []  # the generated inputs of each round run

    def rng(self, r: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{r}")

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def cold_op(self) -> Op:
        """A fixed reference call, the first call of a fresh process."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class Sweep(Workload):
    """verify.sweep over windows of consecutive bases, one per decade."""

    name, latency_kind, rate_kind, unit = "sweep", "round", "window", "bases"
    WINDOW = 60
    DECADES = range(1, 6)  # [10^k, 10^(k+1)); the sweep caps a_max at 10^6
    PRECISION = 40
    COLD_LO = 1001

    def _window(self, lo: int) -> Op:
        hi = lo + self.WINDOW - 1
        return Op(
            "window", f"{lo}..{hi}",
            lambda: verify.sweep(lo, hi, self.PRECISION),
            lambda rep: rep.ok and (rep.a_min, rep.a_max, rep.precision) == (lo, hi, self.PRECISION),
            sum(1 for a in range(lo, hi + 1) if a % 10),
        )

    def round(self, r: int) -> list[Op]:
        rng = self.rng(r)
        ops = [self._window(rng.randrange(10**k, 10 ** (k + 1) - self.WINDOW + 1))
               for k in self.DECADES]
        self.inputs.append([op.label for op in ops])
        return ops

    def cold_op(self) -> Op:
        return self._window(self.COLD_LO)


def _check_speed(a: int, class_v: int | None):
    def check(out) -> bool:
        payload = _json_out(out)
        if payload is None or payload["a"] != str(a):
            return False
        v = payload["V"]
        return v == speed_by_formula(a) and (class_v is None or v == class_v)
    return check


class Deep(Workload):
    """Single `speed` queries through the CLI on long and high-speed bases."""

    name, latency_kind, rate_kind, unit = "deep", "query", "query", "queries"

    # One random base per length band; round r takes the (r mod 3)-th length
    # of each band, so every three rounds cover 7 to 24 digits once.
    LENGTH_BANDS = (7, 10, 13, 16, 19, 22)
    BAND_WIDTH = 3
    # (V, last digit): class members whose oracle needs precision doubling.
    # Drawn from the first MEMBER_INDEX members, they cost about as much as
    # the 19-22 digit bases; the median and the tail then fall inside a
    # cluster of similar calls instead of in the gap between two strata.
    MEMBERS = ((10, 9), (13, 8), (14, 8), (15, 8))
    MEMBER_INDEX = 8
    # The worked example whose CLI query computes V twice.
    COLD_BASE, COLD_SPEED = 163574218751, 13

    @staticmethod
    def _query(a: int, class_v: int | None) -> Op:
        return Op("query", str(a), lambda: run_cli(["speed", str(a)]), _check_speed(a, class_v))

    def round(self, r: int) -> list[Op]:
        rng = self.rng(r)
        picks = []
        for lo in self.LENGTH_BANDS:
            length = lo + r % self.BAND_WIDTH
            a = rng.randrange(10 ** (length - 1), 10**length)
            if a % 10 == 0:
                a += rng.randint(1, 9)
            picks.append((a, None))
        for v, s1 in self.MEMBERS:
            k = rng.randrange(self.MEMBER_INDEX)
            picks.append((next(itertools.islice(class_spec(s1, v).members(), k, None)), v))
        self.inputs.append([[str(a), v] for a, v in picks])
        return [self._query(a, v) for a, v in picks]

    def cold_op(self) -> Op:
        return self._query(self.COLD_BASE, self.COLD_SPEED)


def load_recorded_q() -> dict[int, tuple[int, int]]:
    """n -> (q, candidates examined) as recorded by make_recorded.py."""
    with open(RECORDED_Q, encoding="utf-8") as fh:
        raw = json.load(fh)
    return {int(n): (int(q), int(c)) for n, (q, c) in raw.items()}


def check_table2(out, expected: dict = TABLE2, drops: frozenset = TABLE2_DROPS) -> bool:
    payload = _json_out(out)
    if payload is None:
        return False
    rows = payload["rows"]
    return (
        [r["n"] for r in rows] == sorted(expected)
        and all(int(r["q"]) == expected[r["n"]] for r in rows)
        and {r["n"] for r in rows if r["non_monotonic"]} == drops
    )


def _check_q(n: int, recorded: int):
    def check(out) -> bool:
        payload = _json_out(out)
        if payload is None or payload["n"] != n:
            return False
        q = int(payload["q"])
        return q == recorded and is_prime(q) and speed_by_formula(q) == n
    return check


class Primes(Workload):
    """Table 2 into an empty cache, then warm Table 2 and high-n `q` searches."""

    name, latency_kind, rate_kind, unit = "primes", "table2_warm", "q", "candidates"

    WARM_REPEATS = 10
    # One n per band in each round: a search's cost grows steeply with n.
    Q_BANDS = ((150, 200), (200, 250), (250, 300), (300, 350), (350, 400))

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.recorded = load_recorded_q()
        self.expected = dict(TABLE2)
        workdir.mkdir(parents=True, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="primes-", dir=workdir)
        self.cache = os.path.join(self.tmp, "q.jsonl")

    def _table2(self, kind: str) -> Op:
        return Op(kind, "table2", lambda: run_cli([*TABLE2_ARGS, "--cache", self.cache]),
                  lambda out: check_table2(out, self.expected))

    def cold_op(self) -> Op:
        """Table 2 into the empty cache, which it fills for the warm runs."""
        return self._table2("table2_cold")

    def round(self, r: int) -> list[Op]:
        rng = self.rng(r)
        ns = [rng.randrange(lo, hi) for lo, hi in self.Q_BANDS]
        self.inputs.append(ns)
        ops = [self._table2("table2_warm") for _ in range(self.WARM_REPEATS)]
        for n in ns:
            q, candidates = self.recorded[n]
            ops.append(Op("q", str(n), lambda n=n: run_cli(["q", str(n)]), _check_q(n, q), candidates))
        return ops

    def close(self) -> None:
        shutil.rmtree(self.tmp)


WORKLOADS = {w.name: w for w in (Sweep, Deep, Primes)}
