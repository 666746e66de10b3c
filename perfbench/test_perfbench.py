"""Tests of the benchmark itself. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The store-corruption test builds the harness (as run.py does) and runs
warm-resweep, whose store takes about 20 s to prepare, so it takes one
to two minutes on a clean checkout.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import metrics  # noqa: E402


def load_benchmark_json():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


class MetricNames(unittest.TestCase):
    def test_rule(self):
        for ok in ("wall_s", "core.run_ms", "a-b.c_1", "9lives"):
            self.assertTrue(metrics.valid_name(ok), ok)
        for bad in ("", "_x", ".x", "x y", "x/y", "ms%", "a" * 65):
            self.assertFalse(metrics.valid_name(bad), bad)

    def test_every_emitted_name_and_unit_is_valid(self):
        names = list(metrics.per_layer_units())
        self.assertEqual(len(names), len(set(names)))
        for name, unit in metrics.per_layer_units().items():
            self.assertTrue(metrics.valid_name(name), name)
            self.assertTrue(metrics.valid_unit(unit), unit)

    def test_benchmark_json_matches_the_harness(self):
        bench = load_benchmark_json()
        declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
        self.assertEqual(declared, metrics.per_layer_units())
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertTrue(metrics.valid_name(m["name"]), m["name"])
            self.assertTrue(metrics.valid_unit(m["unit"]), m["unit"])


class TailPercentile(unittest.TestCase):
    def test_needs_more_than_ten_samples(self):
        self.assertIsNone(metrics.tail_percentile([1.0] * 10))
        self.assertIsNone(metrics.tail_percentile([]))

    def test_eleven_samples_give_the_minimum(self):
        samples = list(range(11, 0, -1))
        p, value = metrics.tail_percentile(samples)
        self.assertEqual(value, 1)
        self.assertEqual(p, 9)

    def test_twenty_samples_give_the_median(self):
        p, value = metrics.tail_percentile(list(range(1, 21)))
        self.assertEqual((p, value), (50, 10))

    def test_at_least_ten_beyond_and_highest(self):
        for n in (11, 25, 60, 100, 1000):
            samples = list(range(n))
            p, value = metrics.tail_percentile(samples)
            self.assertGreaterEqual(sum(s > value for s in samples), 10)
            if p < 99:
                rank = -(-(p + 1) * n // 100)
                self.assertLess(n - rank, 10, f"p{p + 1} also fits n={n}")


class SelfTime(unittest.TestCase):
    def span(self, id_, parent, start, end, name="x"):
        return {"id": id_, "parent": parent, "start": start, "end": end,
                "name": name, "job": 1, "thread": 1, "count": 0}

    def test_synthetic_tree(self):
        # root 0..100 with children 10..30 and 20..50 (overlapping, as
        # two pool workers' jobs do) and 90..120 (overhangs the root);
        # child 10..30 has a grandchild 12..18.
        spans = [
            self.span(1, 0, 0, 100),
            self.span(2, 1, 10, 30),
            self.span(3, 1, 20, 50),
            self.span(4, 1, 90, 120),
            self.span(5, 2, 12, 18),
        ]
        selfs = metrics.self_times(spans)
        # root: 100 - |[10,50] u [90,100]| = 100 - 50; the gaps 0..10
        # and 50..90 are the root's own time.
        self.assertEqual(selfs[1], 50)
        self.assertEqual(selfs[2], 20 - 6)
        self.assertEqual(selfs[3], 30)
        self.assertEqual(selfs[4], 30)
        self.assertEqual(selfs[5], 6)

    def test_layer_metrics_average_traced_passes(self):
        ms = 1_000_000
        spans = [
            self.span(1, 0, 0, 5 * ms, "bench.setup"),
            self.span(2, 1, 1 * ms, 4 * ms, "cc.compile"),
            self.span(10, 0, 0, 10 * ms, "bench.pass"),
            self.span(11, 10, 0, 8 * ms, "sim.workload"),
            self.span(12, 11, 1 * ms, 7 * ms, "core.run"),
            self.span(20, 0, 0, 20 * ms, "bench.pass"),
            self.span(21, 20, 0, 16 * ms, "sim.workload"),
            self.span(22, 21, 2 * ms, 14 * ms, "core.run"),
            self.span(30, 0, 0, 99 * ms, "bench.pass"),  # untraced root
        ]
        spans[4]["count"] = 1000
        spans[7]["count"] = 2000
        out = metrics.layer_metrics(spans, traced_roots={10, 20})
        self.assertAlmostEqual(out["cc.compile_ms"], 3.0)
        self.assertAlmostEqual(out["bench.setup_self_ms"], 2.0)
        self.assertAlmostEqual(out["sim.workload_ms"], 12.0)
        self.assertAlmostEqual(out["sim.workload_calls"], 1.0)
        self.assertAlmostEqual(out["sim.setup_ms"], 3.0)
        self.assertAlmostEqual(out["core.run_ms"], 9.0)
        self.assertAlmostEqual(out["bench.pass_ms"], 15.0)
        self.assertAlmostEqual(out["core.ns_per_sim_cycle"], 18e6 / 3000)


class CorruptStoreEntry(unittest.TestCase):
    def test_counts_as_a_failure(self):
        root = os.path.join(HERE, "..")
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", "warm-resweep", "--seed", "1", "--seconds", "1",
             "--trace", "0", "--corrupt-entries", "1"],
            cwd=root, capture_output=True, text=True, timeout=900)
        self.assertEqual(proc.returncode, 1, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("corrupt", proc.stderr)


if __name__ == "__main__":
    unittest.main()
