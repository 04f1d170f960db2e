#!/usr/bin/env python3
"""Tests tools/bench_compare.py on synthetic perfbench runs, one scenario
per verdict plus the exit-status rules. Run: tools/bench_compare_test.py"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave no __pycache__ in tools/

import bench_compare  # noqa: E402

TOOL = HERE / "bench_compare.py"
SEEDS = list(range(901, 911))
# Parent values with a small spread: median 1.0, IQR 0.0175.
BASE = [0.97, 0.98, 0.99, 0.995, 1.0, 1.0, 1.005, 1.01, 1.02, 1.03]
METRICS = [m["name"] for m in
           json.loads((HERE.parent / "BENCHMARK.json").read_text())
           ["end_to_end"]]


def record(seed: int, values: dict[str, float], mismatches: int = 0) -> str:
    """One perfbench record line: every end-to-end metric is 1.0 unless
    `values` says otherwise."""
    end_to_end = {name: {"value": values.get(name, 1.0), "unit": "ms"}
                  for name in METRICS}
    return json.dumps({"record": {
        "workload": "range_select", "seed": seed, "trace": 0,
        "failures": {"errors": 0, "mismatches": mismatches,
                     "cache_hits": 0, "first": ""},
        "end_to_end": end_to_end}})


class VerdictTest(unittest.TestCase):
    def verdict(self, parent, change, bound=0.25):
        return bench_compare.compare(parent, change, "lower", bound)

    def test_gain(self):
        row = self.verdict(BASE, [v / 2 for v in BASE])
        self.assertEqual(row["verdict"], "gain")
        self.assertEqual(row["won"], 10)
        self.assertAlmostEqual(row["ratio"], 0.5)

    def test_same(self):
        self.assertEqual(self.verdict(BASE, BASE[::-1])["verdict"], "same")

    def test_a_win_inside_the_parent_iqr_is_same(self):
        # Wins every pair, but by less than the parent's IQR.
        row = self.verdict(BASE, [v - 0.01 for v in BASE])
        self.assertEqual(row["won"], 10)
        self.assertEqual(row["verdict"], "same")

    def test_eight_of_ten_pairs_is_not_a_gain(self):
        change = [v / 2 for v in BASE[:8]] + [v * 1.02 for v in BASE[8:]]
        self.assertEqual(self.verdict(BASE, change)["verdict"], "same")

    def test_worse(self):
        self.assertEqual(
            self.verdict(BASE, [v * 1.3 for v in BASE])["verdict"], "worse")

    def test_worse_within_the_bound_is_same(self):
        self.assertEqual(
            self.verdict(BASE, [v * 1.1 for v in BASE])["verdict"], "same")

    def test_wide_spread_is_unresolved(self):
        wide = [0.5, 0.6, 0.7, 0.8, 1.0, 1.0, 1.2, 1.4, 1.5, 1.6]
        self.assertEqual(self.verdict(wide, wide[::-1])["verdict"],
                         "unresolved")

    def test_wide_spread_resolves_when_every_change_run_wins(self):
        parent = [2.0, 2.2, 2.5, 2.8, 3.0, 3.2, 3.5, 3.7, 3.9, 4.0]
        change = [0.5, 0.6, 0.7, 0.8, 1.0, 1.0, 1.2, 1.4, 1.5, 1.6]
        self.assertEqual(self.verdict(parent, change)["verdict"], "gain")

    def test_pair_rule_gain_survives_host_drift(self):
        # The host switches from a fast to a slow mode between pairs: each
        # side spreads past the bound, but every pair is won and the
        # medians differ by more than the parent's IQR.
        parent = [0.35, 0.36, 0.37, 0.38, 0.6, 0.62, 0.63, 0.64, 0.65, 0.66]
        change = [v * 0.54 for v in parent]
        row = self.verdict(parent, change)
        self.assertEqual(row["won"], 10)
        self.assertEqual(row["verdict"], "gain")

    def test_higher_is_better(self):
        row = bench_compare.compare(BASE, [v * 2 for v in BASE], "higher",
                                    0.25)
        self.assertEqual(row["verdict"], "gain")


class ExitStatusTest(unittest.TestCase):
    def run_tool(self, parent_lines, change_lines, *extra):
        with tempfile.TemporaryDirectory() as tmp:
            parent = Path(tmp) / "parent.jsonl"
            change = Path(tmp) / "change.jsonl"
            parent.write_text("build noise\n" + "\n".join(parent_lines) + "\n")
            change.write_text("\n".join(change_lines) + "\n")
            result = subprocess.run(
                [sys.executable, str(TOOL), "--parent", str(parent),
                 "--change", str(change), *extra],
                capture_output=True, text=True)
        return result.returncode, result.stdout

    def runs(self, scale=1.0, mismatches=0):
        return [record(seed, {"read_cpu_ms_p50": v * scale}, mismatches)
                for seed, v in zip(SEEDS, BASE)]

    def test_claimed_gain_passes(self):
        code, out = self.run_tool(self.runs(), self.runs(0.5), "--claim",
                                  "read_cpu_ms_p50@range_select")
        self.assertEqual(code, 0, out)
        self.assertIn("claim read_cpu_ms_p50@range_select: gain", out)
        self.assertIn("10/10", out)

    def test_claim_without_gain_fails(self):
        code, out = self.run_tool(self.runs(), self.runs(), "--claim",
                                  "read_cpu_ms_p50@range_select")
        self.assertEqual(code, 1, out)
        self.assertIn("is same, not gain", out)

    def test_worse_fails_without_a_claim(self):
        code, out = self.run_tool(self.runs(), self.runs(1.5))
        self.assertEqual(code, 1, out)
        self.assertIn("read_cpu_ms_p50@range_select is worse", out)

    def test_more_failed_ops_fail(self):
        code, out = self.run_tool(self.runs(), self.runs(mismatches=1))
        self.assertEqual(code, 1, out)
        self.assertIn("failed ops: parent 0, change 10", out)

    def test_unpaired_runs_are_reported(self):
        code, out = self.run_tool(self.runs(), self.runs()[:9])
        self.assertEqual(code, 0, out)
        self.assertIn("unpaired parent run: range_select seed 910", out)
        self.assertIn("9 seeds", out)

    def test_no_pairs_is_bad_input(self):
        code, _ = self.run_tool(self.runs(), [])
        self.assertEqual(code, 2)


if __name__ == "__main__":
    unittest.main()
