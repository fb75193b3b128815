"""Benchmark for congspeed: seeded workloads, correctness gates, metrics.

    python3 bench/run.py --workload {sweep,deep,primes,all} --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src.

--trace 0 measures the end-to-end metrics. The run is split over PARTS fresh
interpreters, one after another, because the speed of a single process
varies by about 10% from one process to the next on the same input. Each part
sets the workload up (`setup_s`), makes the workload's fixed reference call
(`cold_ms`), then runs its share of the rounds (round i goes to part
i mod PARTS) until the next round would end after --seconds / PARTS.

--trace 1 runs in this process a fixed number of rounds, derived from
--seconds, each once with the per-layer wrappers of tracer.py installed and
once without, and reports the per-layer metrics and the overhead.

Standard output ends with two JSON lines: a record of the run (inputs,
environment, samples, the workload's figures under their own names), then
the result {"correct", "attempted", "failed", "metrics"}. The exit code is 0
only when every answer passed its gate.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_tmp"
PARTS = 3
PART_TIMEOUT_S = 150

sys.path.insert(0, str(SRC))
try:
    import congspeed
except ImportError as exc:
    sys.exit(f"bench: cannot import congspeed from {SRC}: {exc}")
if Path(congspeed.__file__).resolve().parent != SRC / "congspeed":
    sys.exit(f"bench: congspeed was imported from {congspeed.__file__}, not from {SRC}")

from congspeed.primes import SearchBudgetError  # noqa: E402
from congspeed.speed import PrecisionError  # noqa: E402

import workloads  # noqa: E402

# Failures counted in `failed`; anything else is a crash of the benchmark.
COUNTED_ERRORS = (PrecisionError, SearchBudgetError, RuntimeError)

# Seconds one round takes at the commit that introduced the benchmark
# (2-core Xeon, CPython 3.11). A traced run replays a fixed number of rounds
# derived from --seconds with these, so its work counts repeat exactly for a
# given seed and length.
NOMINAL_ROUND_S = {"sweep": 0.55, "deep": 9.0, "primes": 2.5}

LRU_CACHES = ("classes.class_spec", "decadic.root_residue", "decadic.idempotents",
              "arith.lambda_chain", "verify._phase_shift_profile")


@dataclass
class Sample:
    kind: str
    label: str
    round: int  # -1 for the reference call
    wall_s: float
    cpu_s: float
    units: int
    ok: bool
    error: str | None


def _cpu_s() -> float:
    """User + system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def execute(ops, samples: list, r: int = -1) -> None:
    for op in ops:
        c0 = _cpu_s()
        t0 = time.perf_counter()
        error = None
        try:
            out = op.call()
        except COUNTED_ERRORS as exc:
            out, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - c0
        ok = error is None and op.check(out)
        samples.append(Sample(op.kind, op.label, r, wall, cpu, op.units, ok, error))


def run_rounds(w, round_ids, budget_s: float) -> tuple[list, float]:
    """The reference call, then rounds from round_ids until the next round
    would end after budget_s; (samples, seconds of rounds)."""
    samples: list[Sample] = []
    execute([w.cold_op()], samples)
    t0 = time.perf_counter()
    for done, r in enumerate(round_ids, 1):
        execute(w.round(r), samples, r)
        elapsed = time.perf_counter() - t0
        if elapsed * (done + 1) / done > budget_s:
            break
    return samples, time.perf_counter() - t0


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def environment(fresh_parts: bool) -> dict:
    return {
        "python": sys.executable,
        "python_version": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gmpy2_present": importlib.util.find_spec("gmpy2") is not None,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "commit": _git_commit(),
        "fresh_process_per_part": fresh_parts,
        "lru_caches_kept_between_rounds_of_a_part": list(LRU_CACHES),
    }


# -- end-to-end run: PARTS fresh processes ------------------------------------

def part(name: str, seed: int, index: int, budget_s: float) -> None:
    """Child side of one part; prints its samples as one JSON line."""
    w = workloads.WORKLOADS[name](seed, WORKDIR)
    try:
        ready = time.monotonic()
        samples, rounds_s = run_rounds(w, range(index, 1 << 30, PARTS), budget_s)
    finally:
        w.close()
    print(json.dumps({"ready": ready, "rounds_s": rounds_s, "inputs": w.inputs,
                      "samples": [asdict(s) for s in samples]}))


def run_parts(name: str, seed: int, seconds: float) -> list[dict]:
    parts = []
    for index in range(PARTS):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--part", str(index), "--seconds", str(seconds / PARTS)],
            capture_output=True, text=True, timeout=PART_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"part {index} of {name} exited {proc.returncode}: {proc.stderr.strip()}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res["setup_s"] = res.pop("ready") - start
        res["samples"] = [Sample(**s) for s in res["samples"]]
        parts.append(res)
    return parts


def _latencies(w, samples) -> list[float]:
    """Latency samples of the rounds; the reference call counts only in cold_ms."""
    if w.latency_kind != "round":
        return [s.wall_s for s in samples if s.kind == w.latency_kind and s.round >= 0]
    per_round: dict[int, float] = {}
    for s in samples:
        if s.round >= 0:
            per_round[s.round] = per_round.get(s.round, 0.0) + s.wall_s
    return list(per_round.values())


def _round_rates(samples) -> list[tuple[float, float]]:
    """(units per second, CPU seconds per unit) of each round.

    Rates are medians over rounds, not one ratio of sums: the host's speed
    moves by 10-30% for seconds at a time with its neighbours' load, and a
    median ignores such bursts where a sum takes them in. Within a round each
    call weighs the same (a geometric mean over its calls): a ratio of sums
    would let the call that drew the most work, such as a `q` search over 800
    candidates next to one over 10, set the round's rate.
    """
    by_round: dict[int, list] = {}
    for s in samples:
        by_round.setdefault(s.round, []).append(s)
    return [(statistics.geometric_mean([s.units / s.wall_s for s in ss]),
             statistics.geometric_mean([s.cpu_s / s.units for s in ss]))
            for ss in by_round.values()]


def end_to_end(name: str, seed: int, seconds: float):
    w = workloads.WORKLOADS[name]
    parts = run_parts(name, seed, seconds)
    samples = [s for p in parts for s in p["samples"]]
    cold = [s.wall_s for s in samples if s.round < 0]
    lat = _latencies(w, samples)
    # The mean over parts of each part's median: one process's median can
    # sit 20% off another's on the same input, and a mean of three is
    # steadier than the median of their pooled samples.
    p50 = statistics.fmean(statistics.median(_latencies(w, p["samples"])) for p in parts)
    rate = [s for s in samples if s.kind == w.rate_kind and s.round >= 0]
    rates = _round_rates(rate)
    tail_v, tail_pct = tail(lat)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in parts), "s"),
        "cold_ms": (1e3 * statistics.median(cold), "ms"),
        "throughput": (statistics.median(r for r, _ in rates), "1/s"),
        "p50_ms": (1e3 * p50, "ms"),
        "tail_ms": (1e3 * tail_v, "ms"),
        "cpu_ms_per_unit": (1e3 * statistics.median(c for _, c in rates), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    named = {
        "cpu_s": (_cpu_s(), "s"),
        "rounds_s": (sum(p["rounds_s"] for p in parts), "s"),
        "fail_ratio": (sum(not s.ok for s in samples) / len(samples), "ratio"),
        "latency_samples": (len(lat), "count"),
        "tail_percentile": (tail_pct, "%"),
    }
    pooled = (sum(s.units for s in rate) / sum(s.wall_s for s in rate), "1/s")
    if name == "sweep":
        named.update(sweep_bases_per_s=pooled)
    elif name == "deep":
        named.update(query_p50_s=(p50, "s"), query_tail_s=(tail_v, "s"))
    elif name == "primes":
        q = [s.wall_s for s in rate]
        named.update(candidates_per_s=pooled, table2_cold_s=(statistics.median(cold), "s"),
                     table2_warm_s=(p50, "s"),
                     search_s=(statistics.median(q), "s"), searches=(len(q), "count"))
    record = {
        "rounds": len({s.round for s in samples if s.round >= 0}),
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "inputs": [p["inputs"] for p in parts],
        # kind, label, round, wall seconds, CPU seconds, units
        "samples": [[s.kind, s.label, s.round, s.wall_s, s.cpu_s, s.units] for s in samples],
    }
    return samples, metrics, record


# -- traced run -----------------------------------------------------------------

def traced(name: str, seed: int, seconds: float):
    from tracer import Tracer

    rounds = range(max(1, int(seconds / 2 / NOMINAL_ROUND_S[name])))
    # Two instances of the workload make the same calls, the traced one first
    # in every round: it meets the lru caches as a traced run alone would,
    # and a slow stretch of the host falls on both sides of the overhead.
    tracer = Tracer()
    sides = [workloads.WORKLOADS[name](seed, WORKDIR) for _ in range(2)]
    samples: list[Sample] = []
    spent = [0.0, 0.0]
    try:
        for r in (-1, *rounds):
            for i, w in enumerate(sides):
                ops = [w.cold_op()] if r < 0 else w.round(r)
                t0 = time.perf_counter()
                if i == 0:
                    with tracer:
                        execute(ops, samples, r)
                else:
                    execute(ops, samples, r)
                spent[i] += time.perf_counter() - t0
    finally:
        for w in sides:
            w.close()
    metrics = tracer.metrics()
    metrics["trace.overhead"] = (spent[0] / spent[1], "ratio")
    record = {"rounds": len(rounds), "traced_s": spent[0], "untraced_s": spent[1],
              "inputs": sides[0].inputs,
              "spans": {k: vars(v) for k, v in sorted(tracer.spans.items())}}
    return samples, metrics, record


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    samples, metrics, record = (traced if trace else end_to_end)(name, seed, seconds)
    failures = [asdict(s) for s in samples if not s.ok]
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              **record, "failures": failures[:20], "environment": environment(not trace)}
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not failures else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in turn; exit 1 if any answer was wrong."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        if results[name]:
            print(lines[-2])
    ok = all(r is not None and r["correct"] for r in results.values())
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in results.values() if r),
        "failed": sum(r["failed"] for r in results.values() if r),
        "metrics": {f"{n}.{k}": v for n, r in results.items() if r for k, v in r["metrics"].items()},
    }))
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--part", type=int, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.part is not None:
        part(args.workload, args.seed, args.part, args.seconds)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
