"""The benchmark in bench/ still runs against src/: its workloads, tracer,
anchors and gate self-test call the package's API by name, so a change that
breaks one of those calls fails here, not only in a benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def bench(script, *args):
    proc = subprocess.run([sys.executable, f"bench/{script}", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_workload_runs_and_passes_its_gates(trace):
    out = bench("run.py", "--workload", "all", "--seed", "1", "--seconds", "1", "--trace", trace)
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    names = {name.split(".")[0] for name in result["metrics"]}
    assert names == {"sweep", "deep", "primes"}


def test_anchors_run():
    assert set(json.loads(bench("anchors.py"))) >= {"sweep_tables_per_base", "smallest_prime_200_s"}


def test_gate_selftest_passes():
    bench("selftest.py")
