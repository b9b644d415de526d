"""Self-checks of the BluSim benchmark.

Run from the repository root:

    python3 -m unittest discover -s blubench/tests -v

The determinism check builds the driver and runs the serial workloads
twice, which takes about a minute.
"""

import importlib.util
import json
import os
import re
import subprocess
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)

spec = importlib.util.spec_from_file_location(
    "blubench_run", os.path.join(BENCH, "run.py"))
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


class MetricNames(unittest.TestCase):
    def test_names_match_pattern(self):
        for name in list(run.END_TO_END) + list(run.PER_LAYER):
            self.assertRegex(name, NAME)

    def test_benchmark_json_lists_the_reported_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertRegex(m["name"], NAME)


class Percentiles(unittest.TestCase):
    def test_dropped_with_fewer_than_ten_samples_beyond(self):
        self.assertIsNone(run.percentile(list(range(99)), 0.90))
        self.assertEqual(run.percentile(list(range(100)), 0.90), 89)
        self.assertIsNone(run.percentile(list(range(19)), 0.50))
        self.assertEqual(run.percentile(list(range(20)), 0.50), 9)
        self.assertIsNone(run.percentile(list(range(999)), 0.99))
        self.assertEqual(run.percentile(list(range(1000)), 0.99), 989)

    def test_nearest_rank_ignores_input_order(self):
        values = [5.0, 1.0, 4.0] + [2.0] * 30
        self.assertEqual(run.percentile(values, 0.5), 2.0)


class SameSeed(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def raw(self, workload, seed):
        out = subprocess.run(
            [run.BINARY, "--workload", workload, "--seed", str(seed),
             "--seconds", "1", "--trace", "0"],
            stdout=subprocess.PIPE, check=True, text=True, timeout=170)
        return json.loads(out.stdout.strip().splitlines()[-1])

    def test_same_orders_and_sim_ms(self):
        for workload in ("dashboard", "offload"):
            with self.subTest(workload=workload):
                a = self.raw(workload, 7)
                b = self.raw(workload, 7)
                other = self.raw(workload, 8) if workload == "offload" else None
                self.assertEqual(a["order_hash"], b["order_hash"])
                self.assertEqual(a["sim_ms"], b["sim_ms"])
                self.assertEqual(a["ok"], a["attempted"])
                if other is not None:
                    self.assertNotEqual(a["order_hash"], other["order_hash"])


if __name__ == "__main__":
    unittest.main()
