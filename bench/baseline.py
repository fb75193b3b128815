"""Record a baseline: ten seeded runs per workload, one traced run, anchors.

    python3 bench/baseline.py --seeds 201-210

Runs `run.py` once per (seed, workload) with --trace 0, for BENCHMARK.json's
`run_seconds`, the workloads taking turns so that a slow stretch of the host
falls on all of them, then once per workload with --trace 1 on the first
seed, then `anchors.py`. Writes to bench/baseline.json, per workload and
end-to-end metric, the median, the quartiles and the spread (quartile
distance over median, as `statistics.quantiles(values, n=4)` gives the
quartiles), the medians of the named figures, the per-layer metrics, and the
anchors next to the ROADMAP re-anchor figures. Stops with exit code 1 at the
first run that fails or gives a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "deep", "primes")
RUN_TIMEOUT_S = 600
# Every run lasts as long as the runs a comparison against the baseline makes.
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]

# ROADMAP re-anchor figures for the quantities anchors.py measures.
ROADMAP = {"pow_mod_10e40_us": 39, "frozen_table_10_40_ms": 1.37, "sweep_tables_per_base": 1.04,
           "sweep_ms_per_base": 1.84, "smallest_prime_200_s": 0.33}


def _last_lines(argv: list[str], n: int) -> list[dict]:
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          cwd=ROOT, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"baseline: {' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return [json.loads(line) for line in proc.stdout.strip().splitlines()[-n:]]


def bench(name: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(record, result) of one run.py run."""
    record, result = _last_lines(
        [str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)], 2)
    print(f"{name} seed {seed} trace {trace}: " + ", ".join(
        f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), file=sys.stderr)
    return record["record"], result


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_range, default=seed_range("201-210"))
    args = p.parse_args(argv)
    if len(args.seeds) < 2:
        p.error("--seeds needs at least two seeds for quartiles")

    runs: dict[str, list] = {w: [] for w in WORKLOADS}
    for seed in args.seeds:
        for w in WORKLOADS:
            runs[w].append(bench(w, seed, 0))
    traced = {w: bench(w, args.seeds[0], 1) for w in WORKLOADS}
    anchors = _last_lines([str(HERE / "anchors.py")], 1)[0]

    out = {
        "how": (f"end_to_end: python3 bench/run.py --trace 0 --seconds {SECONDS}, seeds "
                f"{args.seeds[0]}-{args.seeds[-1]}, one run per seed and workload; per_layer: "
                f"--trace 1, seed {args.seeds[0]}; anchors: python3 bench/anchors.py"),
        "end_to_end": {}, "named": {}, "per_layer": {}, "trace_record": {},
    }
    for w, rs in runs.items():
        out["end_to_end"][w] = {
            k: {"unit": m["unit"], **summary([res["metrics"][k]["value"] for _, res in rs])}
            for k, m in rs[0][1]["metrics"].items()}
        out["named"][w] = {
            k: {"unit": m["unit"], "median": statistics.median(rec["named"][k]["value"] for rec, _ in rs)}
            for k, m in rs[0][0]["named"].items()}
        rec, res = traced[w]
        out["per_layer"][w] = res["metrics"]
        out["trace_record"][w] = {k: rec[k] for k in ("rounds", "traced_s", "untraced_s")}
    # Each run's record keeps the interpreter's path; the baseline keeps its version.
    out["environment"] = {k: v for k, v in runs[WORKLOADS[0]][0][0]["environment"].items()
                          if k != "python"}
    out["roadmap_comparison"] = {
        k: {"here": anchors[k], "roadmap": ref, "ratio": anchors[k] / ref,
            "differs_over_2x": not 0.5 <= anchors[k] / ref <= 2}
        for k, ref in ROADMAP.items()}
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    for w, metrics in out["end_to_end"].items():
        print(w, {k: round(m["spread"], 4) for k, m in metrics.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
