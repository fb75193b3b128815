"""Self-test of the benchmark's correctness gates.

Each gate must pass on the program's real answer and fail once the expected
value is wrong; errors the gates count must be counted, not crash the run.

    python3 bench/selftest.py
"""

from __future__ import annotations

import itertools
import unittest

import run  # puts ./src on the path and checks the import
import workloads
from congspeed.classes import class_spec
from congspeed.speed import PrecisionError


def _raise_precision():
    raise PrecisionError("working precision exhausted")


class GateTest(unittest.TestCase):
    def test_sweep_gate_rejects_a_mismatch(self):
        op = workloads.Sweep(0, run.WORKDIR).round(0)[0]
        report = op.call()
        self.assertTrue(op.check(report))
        report.mismatches.append((report.a_min, 1, 2, 2))
        self.assertFalse(op.check(report))

    def test_deep_gate_rejects_a_wrong_class_speed(self):
        a = next(itertools.islice(class_spec(9, 10).members(), 3, None))
        out = workloads.run_cli(["speed", str(a)])
        self.assertTrue(workloads._check_speed(a, 10)(out))
        self.assertFalse(workloads._check_speed(a, 11)(out))

    def test_q_gate_rejects_a_wrong_recorded_value(self):
        q, _ = workloads.load_recorded_q()[150]
        out = workloads.run_cli(["q", "150"])
        self.assertTrue(workloads._check_q(150, q)(out))
        self.assertFalse(workloads._check_q(150, q + 2)(out))

    def test_table2_gate_fails_the_run_on_a_wrong_value_or_drop(self):
        w = workloads.Primes(0, run.WORKDIR)
        try:
            samples = []
            run.execute([w.cold_op()], samples)
            out = workloads.run_cli([*workloads.TABLE2_ARGS, "--cache", w.cache])
            self.assertTrue(samples[0].ok)
            self.assertFalse(workloads.check_table2(out, drops=frozenset({20, 51})))
            w.expected[3] = 191
            run.execute(w.round(0)[:1], samples)
            self.assertFalse(samples[1].ok)
        finally:
            w.close()

    def test_counted_errors_fail_the_operation(self):
        samples = []
        run.execute([workloads.Op("x", "x", _raise_precision, lambda out: True)], samples)
        self.assertFalse(samples[0].ok)
        self.assertIn("PrecisionError", samples[0].error)


if __name__ == "__main__":
    unittest.main()
