"""
Fast self-test of the benchmark harness (a few seconds):

    python3 perfbench/selftest.py

Run from the repository root.  It checks that the oracle gate fails on a
wrong expected value, that self time is right on a synthetic nested span,
and that an unknown workload name is refused without a result.
"""

import os
import random
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from tracer import SEGMENT, Tracer, layer_totals, self_times  # noqa: E402


class NullClock:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class OracleGate(unittest.TestCase):
    def row(self, seed=0):
        return workloads._table3_row("NOplus2n_2", 3, random.Random(seed), NullClock())

    def test_true_oracle_passes(self):
        self.assertEqual(self.row(), [])

    def test_wrong_expected_value_fails(self):
        key = ("NOplus2n_2", 3)
        saved = workloads.ETF3_ORACLE[key]
        workloads.ETF3_ORACLE[key] = (28, 8, 20)
        try:
            problems = self.row()
        finally:
            workloads.ETF3_ORACLE[key] = saved
        self.assertEqual(problems, ["(M, N) = (28, 7), expected (28, 8)"])

    def test_broken_witness_fails(self):
        rows = [0b110, 0b101, 0b011]  # a triangle
        self.assertIsNone(workloads.bijection_problem(rows, rows, [2, 0, 1]))
        path = [0b010, 0b101, 0b010]
        self.assertIsNotNone(workloads.bijection_problem(rows, path, [0, 1, 2]))


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # root [0, 10] holds a [1, 6] and b [7, 9]; a holds c [2, 5]
        spans = [
            (SEGMENT, 0.0, 10.0, -1, False),
            ("a", 1.0, 6.0, 0, True),
            ("c", 2.0, 5.0, 1, False),
            ("b", 7.0, 9.0, 0, True),
        ]
        self.assertEqual(self_times(spans), [3.0, 2.0, 3.0, 2.0])
        totals = layer_totals(spans + [("a", 9.5, 9.75, 0, False)])
        self.assertEqual(totals["a"], [2.25, 2, 1])

    def test_tracer_records_library_calls(self):
        import rank3etf as R

        tracer = Tracer()
        tracer.install()
        try:
            g = R.build("Paley", 5)  # outside a segment: not recorded
            tracer.begin()
            R.srg_params(g)
            tracer.end()
        finally:
            tracer.uninstall()
        spans = tracer.take()
        self.assertEqual([s[0] for s in spans], [SEGMENT, "graphs.srg_params"])
        self.assertEqual(spans[1][3], 0)
        self.assertFalse(hasattr(R.srg_params, "__wrapped__"))


class Arguments(unittest.TestCase):
    def test_unknown_workload_is_refused(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "nope",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")
        self.assertIn("invalid choice", proc.stderr)


if __name__ == "__main__":
    unittest.main()
