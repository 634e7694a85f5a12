"""Fast self-test of the benchmark, so the harness cannot rot unnoticed.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It runs a small slice of every workload, the traced run on one layer, checks
that BENCHMARK.json names exactly the metrics and workloads the code reports,
and that a directory without the package sources makes the benchmark exit 2.
"""

import json
import shutil
import signal
import subprocess
import sys
import tempfile
import unittest

import run
import spans
import speed
from workloads import ROOT, WORKLOADS, GroupLattice, fresh_import


class BenchmarkFileTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_workloads_match(self):
        self.assertEqual({w["name"]: w["why"] for w in self.spec["workloads"]},
                         {name: w.why for name, w in WORKLOADS.items()})

    def test_end_to_end_metrics_match(self):
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["end_to_end"]],
                         list(run.END_TO_END))

    def test_per_layer_metrics_match(self):
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["per_layer"]],
                         run.per_layer_names())

    def test_suite_list_matches_package(self):
        fk = fresh_import()
        self.assertEqual(tuple(fk.verify.theorem_ids()), run.SUITES)


class SliceTest(unittest.TestCase):
    def test_every_workload_slice_is_correct(self):
        for name, workload in WORKLOADS.items():
            with self.subTest(workload=name):
                result, details = run.timed_run(workload, seed=3, seconds=0, small=True)
                self.assertTrue(result["correct"], details)
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(list(result["metrics"]), [n for n, _ in run.END_TO_END])
                for metric, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, metric)

    def test_relabelling_keeps_the_digest(self):
        digests = {run.timed_run(GroupLattice(), seed, 0, small=True)[1]["digest"][0]
                   for seed in (1, 2)}
        self.assertEqual(len(digests), 1)

    def test_quantile(self):
        self.assertAlmostEqual(run.quantile([5.0] * 7, 0.9), 5.0)
        self.assertAlmostEqual(run.quantile(list(range(1, 100)), 0.5), 50.0)
        low, high = run.quantile(list(range(100)), 0.2), run.quantile(list(range(100)), 0.8)
        self.assertTrue(15 < low < 25 and 75 < high < 85, (low, high))

    def test_tail_percentile_leaves_ten_samples(self):
        for n in (33, 82, 300, 1000):
            q = run.tail_percentile(n)
            self.assertGreaterEqual(n - -(-q * n // 100), run.TAIL_BEYOND)
            self.assertLess(n - -(-(q + 1) * n // 100), run.TAIL_BEYOND)


class SpeedClockTest(unittest.TestCase):
    def test_clock_runs_and_leaves_no_timer(self):
        before = signal.getsignal(signal.SIGALRM)
        with speed.SpeedClock() as clock:
            t0, r0 = clock.now(), clock.raw_now()
            while clock.raw_now() - r0 < 0.4:
                speed.kernel()
            elapsed = clock.now() - t0
        self.assertGreater(len(clock.samples), 3)
        self.assertGreater(elapsed, 0)
        # the normalized clock tracks wall time up to the machine's speed
        self.assertAlmostEqual(elapsed / (clock.raw_now() - r0), clock.speed_factor(), delta=0.5)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGALRM), before)

    def test_kernel_is_fixed_work(self):
        self.assertEqual(speed.kernel(), speed.kernel())


class TraceTest(unittest.TestCase):
    def test_traced_permgroup_layer(self):
        result, details = run.traced_run(GroupLattice(), seed=3, small=True,
                                         layers=("permgroup",), cold=False)
        self.assertTrue(result["correct"], details)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertEqual(set(metrics), {n for n, _ in run.per_layer_names()})
        self.assertGreater(metrics["permgroup.subgroups_of.calls"], 0)
        self.assertGreater(metrics["permgroup.automorphisms.distinct"], 0)
        self.assertGreater(metrics[spans.MUL_CALLS], 0)
        self.assertGreater(metrics["permgroup.subgroups_of.self_s"], 0)
        self.assertEqual(metrics["fusion.is_saturated.calls"], 0)
        self.assertGreater(metrics["trace.overhead_ratio"], 0)
        # the wrappers are gone again, in every module that bound them
        for mod in spans.fuskit_modules():
            for val in vars(mod).values():
                self.assertFalse(hasattr(val, "__wrapped__"), mod.__name__)

    def test_calls_repeat_exactly(self):
        def counts():
            result, _ = run.traced_run(GroupLattice(), seed=5, small=True, cold=False)
            return {k: v["value"] for k, v in result["metrics"].items()
                    if k.endswith((".calls", ".distinct"))}
        self.assertEqual(counts(), counts())


class BareDirectoryTest(unittest.TestCase):
    def test_exits_2_without_sources(self):
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-selftest-") as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", f"{tmp}/perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "group-lattice",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.returncode, 2, proc.stderr)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
