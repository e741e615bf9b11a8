"""Tests of ab_perfbench's summary on canned result lines (nothing is built).

    python3 -m unittest discover -s tools -p 'ab_perfbench_test.py'
"""
import unittest

import ab_perfbench

SPECS = [
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ok_frac", "unit": "ratio", "better": "higher", "bound": 0.01},
]


def result(run_s, ok_frac=1.0):
    metrics = {"ok_frac": {"value": ok_frac, "unit": "ratio"}}
    if run_s is not None:
        metrics["run_s"] = {"value": run_s, "unit": "s"}
    return {"correct": True, "attempted": 64, "failed": 0, "metrics": metrics}


def rows(base, change, ok_frac=(1.0, 1.0)):
    """Summary rows by metric name for per-pair run_s values."""
    runs = {"base": [result(v, ok_frac[0]) for v in base],
            "change": [result(v, ok_frac[1]) for v in change]}
    return {r["metric"]: r for r in ab_perfbench.summarize(runs, SPECS)}


class SummaryTest(unittest.TestCase):
    def test_medians_ratio_spread_and_wins(self):
        s = rows([1.0, 1.2, 1.1, 1.0, 1.1], [1.1, 1.1, 1.0, 1.2, 1.0])
        r = s["run_s"]
        self.assertAlmostEqual(r["base"], 1.1)
        self.assertAlmostEqual(r["change"], 1.1)
        self.assertAlmostEqual(r["ratio"], 1.0)
        # Exclusive quartiles of the base: q1 1.0, q3 1.15.
        self.assertAlmostEqual(r["base_iqr"], 0.15 / 1.1)
        self.assertEqual((r["wins"], r["pairs"]), (3, 5))
        self.assertEqual(r["verdict"], "ok")
        self.assertEqual(s["ok_frac"]["verdict"], "ok")
        lines = ab_perfbench.report("w", list(s.values())).splitlines()
        self.assertEqual(lines[0], "workload w")
        self.assertTrue(any(l.strip().startswith("run_s [s]") and "3/5" in l
                            and l.endswith("ok") for l in lines))

    def test_slower_change_beyond_the_bound_is_worse(self):
        r = rows([1.0, 1.0, 1.02, 0.98], [1.3, 1.31, 1.29, 1.3])["run_s"]
        self.assertEqual(r["verdict"], "worse")
        self.assertEqual(r["wins"], 0)

    def test_base_wider_than_the_bound_is_unresolved(self):
        base = [0.5, 1.0, 1.5, 2.0]
        self.assertEqual(rows(base, [3.0] * 4)["run_s"]["verdict"], "unresolved")
        # Unless every change run beats every base run.
        self.assertEqual(rows(base, [0.4] * 4)["run_s"]["verdict"], "ok")
        # One pair has no spread to read.
        self.assertEqual(rows([1.0], [3.0])["run_s"]["verdict"], "unresolved")

    def test_higher_is_better_metrics_count_drops_as_worse(self):
        s = rows([1.0] * 3, [1.0] * 3, ok_frac=(1.0, 0.9))
        self.assertEqual(s["ok_frac"]["verdict"], "worse")

    def test_a_metric_missing_from_a_run_is_left_out(self):
        # perfbench reports no timings when every timed run failed.
        s = rows([1.0, 1.0], [1.0, None], ok_frac=(1.0, 0.5))
        self.assertNotIn("run_s", s)
        self.assertEqual(s["ok_frac"]["verdict"], "worse")


if __name__ == "__main__":
    unittest.main()
