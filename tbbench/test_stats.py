"""Self-tests of the benchmark's own statistics and of BENCHMARK.json.

    python3 tbbench/test_stats.py        (from the repository root)
"""

import json
import os
import re
import unittest

import stats

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def names(kind):
    return [m["name"] for m in BENCH[kind]]


class TailRule(unittest.TestCase):
    def test_ten_samples_beyond(self):
        for n in (11, 12, 20, 26, 45, 100, 1000):
            values = [float(v) for v in range(n, 0, -1)]  # unsorted input
            value, pct, count = stats.tail(values)
            self.assertEqual(count, n)
            self.assertEqual(sum(v > value for v in values), 10)
            self.assertAlmostEqual(pct, 100.0 * (n - 10) / n)

    def test_known_percentiles(self):
        self.assertEqual(stats.tail(list(range(1, 101)))[:2], (90, 90.0))
        self.assertEqual(stats.tail(list(range(1, 21)))[:2], (10, 50.0))

    def test_small_sample_falls_back_to_minimum(self):
        value, pct, count = stats.tail([5.0, 3.0, 4.0, 9.0, 7.0])
        self.assertEqual((value, pct, count), (3.0, 20.0, 5))

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.tail([])


class FailedFraction(unittest.TestCase):
    def test_accounting(self):
        self.assertEqual(stats.failed_frac(20, 0), 0.0)
        self.assertEqual(stats.failed_frac(12, 3), 0.25)
        self.assertEqual(stats.failed_frac(1, 1), 1.0)

    def test_rejects_impossible_counts(self):
        for attempted, failed in ((0, 0), (5, 6), (5, -1)):
            with self.assertRaises(ValueError):
                stats.failed_frac(attempted, failed)

    def test_workload_metrics_carry_it(self):
        raw = {"workload": "on_bulk_c216", "attempted": 8, "failed": 2,
               "values": {}}
        self.assertEqual(stats.workload_metrics(raw)["failed_frac"][0], 0.25)


def raw_run(step_ms, setup_s):
    return {"workload": "on_bulk_c216", "step_ms": step_ms,
            "setup_s": setup_s, "attempted": len(step_ms), "failed": 0,
            "values": {"steps": len(step_ms), "timed_s": sum(step_ms) / 1e3,
                       "peak_rss_mb": 50.0}}


def span(name, start, end, parent, step):
    return [name, int(start * 1e6), int(end * 1e6), parent, step]


class EndToEnd(unittest.TestCase):
    def test_metrics(self):
        m, labels = stats.end_to_end(raw_run([100.0] * 19 + [300.0],
                                             [0.5, 0.7, 0.6]))
        self.assertEqual(sorted(m), sorted(names("end_to_end")))
        self.assertAlmostEqual(m["steps_per_s"], 20 / 2.2)
        self.assertEqual(m["step_ms_p50"], 100.0)
        self.assertEqual(m["setup_s"], 0.6)
        self.assertEqual(labels["step_ms_tail"], "p50.0 of n=20")


class Spans(unittest.TestCase):
    DOC = {
        "spans": [
            span("md.step", 0, 100, -1, 0),          # 0
            span("calc.compute", 10, 60, 0, 0),      # 1
            span("trace.replay", 60, 95, 0, 0),      # 2
            span("replay", 60, 90, 2, 0),            # 3
            span("neighbor", 60, 61, 3, 0),
            span("onx.purify", 61, 89, 3, 0),
            span("onx.purify", 200, 290, -1, stats.STEP_SERIAL),
        ],
        "counters": [["onx.spmm_symbolic", 2, 0], ["onx.spmm_reuses", 6, 0],
                     ["trace.untraced_compute_ms", 45.0, -1]],
    }

    def test_self_time_subtracts_children(self):
        t = stats.Trace(self.DOC)
        self.assertAlmostEqual(t.self_times("md.step")[0], 100 - 50 - 35)
        self.assertAlmostEqual(t.self_times("replay")[0], 30 - 1 - 28)

    def test_per_layer(self):
        m = stats.per_layer(self.DOC)
        self.assertEqual(sorted(m), sorted(names("per_layer")))
        self.assertAlmostEqual(m["md.self_ms"], 15.0)
        self.assertAlmostEqual(m["onx.purify_ms"], 28.0)
        self.assertAlmostEqual(m["onx.speedup"], 90.0 / 28.0)
        self.assertAlmostEqual(m["onx.pattern_reuse"], 0.75)
        self.assertAlmostEqual(m["trace.coverage"], 29.0 / 50.0)
        self.assertAlmostEqual(m["trace.overhead_ms"], 5.0)
        self.assertEqual(m["linalg.eigh_ms"], 0.0)


class BenchmarkJson(unittest.TestCase):
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_names_and_units(self):
        seen = set()
        for kind in ("workloads", "end_to_end", "per_layer"):
            for entry in BENCH[kind]:
                self.assertRegex(entry["name"], self.NAME)
                self.assertNotIn(entry["name"], seen)
                seen.add(entry["name"])
                if kind != "workloads":
                    self.assertRegex(entry["unit"], self.UNIT)
                    self.assertIn(entry["better"], ("higher", "lower"))

    def test_bounds(self):
        bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_validate_names(self):
        e2e = {n: 1.0 for n in names("end_to_end")}
        stats.validate_names(BENCH, "on_bulk_c216", e2e, trace=False)
        layers = {n: 1.0 for n in names("per_layer")}
        stats.validate_names(BENCH, "exact_tube_edge", layers, trace=True)
        with self.assertRaises(ValueError):
            stats.validate_names(BENCH, "no_such_workload", e2e, trace=False)
        with self.assertRaises(ValueError):
            stats.validate_names(BENCH, "on_bulk_c216",
                                 dict(e2e, extra=1.0), trace=False)
        missing = dict(e2e)
        missing.pop("setup_s")
        with self.assertRaises(ValueError):
            stats.validate_names(BENCH, "on_bulk_c216", missing, trace=False)
        with self.assertRaises(ValueError):
            stats.validate_names(BENCH, "on_bulk_c216", e2e, trace=True)


if __name__ == "__main__":
    unittest.main()
