#!/usr/bin/env python3
"""Unit tests of the benchmark's own helpers (metrics.py).

    python3 gcabench/test_gcabench.py

Needs no build: percentiles on known samples, self time on a hand-built
span tree, and the metric names the benchmark emits against BENCHMARK.json.
"""

import json
import math
import statistics
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402


def span(name, layer, begin, end, parent, op=0, pas=0):
    return [name, layer, begin, end, parent, op, pas]


class PercentileTest(unittest.TestCase):
    def test_known_samples(self):
        xs = list(range(1, 11))  # 1..10
        self.assertEqual(metrics.percentile(xs, 0), 1)
        self.assertEqual(metrics.percentile(xs, 100), 10)
        self.assertAlmostEqual(metrics.percentile(xs, 50), 5.5)
        self.assertAlmostEqual(metrics.percentile(xs, 99), 9.91)
        self.assertAlmostEqual(metrics.percentile(xs, 25), 3.25)

    def test_order_and_single_sample(self):
        self.assertAlmostEqual(metrics.percentile([9, 1, 5], 50), 5)
        self.assertEqual(metrics.percentile([7.5], 99), 7.5)
        with self.assertRaises(ValueError):
            metrics.percentile([], 50)

    def test_blocked_percentile(self):
        # Five slices of 1000; one slice carries a burst of slow samples.
        xs = [1.0] * 5000
        xs[1000:1100] = [50.0] * 100
        self.assertEqual(metrics.blocked_percentile(xs, 99), 1.0)
        self.assertEqual(metrics.percentile(xs, 99), 50.0)
        # Too few samples for slices: the plain percentile.
        self.assertAlmostEqual(metrics.blocked_percentile(
            list(range(1, 11)), 99), 9.91)

    def test_quartile_spread_matches_statistics(self):
        xs = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
        q1, _, q3 = statistics.quantiles(xs, n=4)
        self.assertAlmostEqual(metrics.quartile_spread(xs),
                               (q3 - q1) / statistics.median(xs))


class FitTest(unittest.TestCase):
    def test_slope_of_power_law(self):
        entries = [1500, 3000, 6000, 12000]
        walls = [1e-9 * e ** 2 for e in entries]
        self.assertAlmostEqual(
            metrics.slope([math.log(e) for e in entries],
                          [math.log(w) for w in walls]), 2.0)

    def test_geomean(self):
        self.assertAlmostEqual(metrics.geomean([1, 4, 16]), 4)


class SelfTimeTest(unittest.TestCase):
    def test_hand_built_tree(self):
        spans = [
            span("compile", "bench", 0, 100, -1),       # 0
            span("frontend.parse", "frontend", 10, 40, 0),  # 1
            span("core.placement", "core", 30, 60, 0),  # 2: overlaps 1
            span("xform.scalarize", "xform", 15, 20, 1),  # 3: child of 1
            span("lower.lower", "lower", 90, 120, 0),   # 4: runs past 0
        ]
        self.assertEqual(metrics.self_times(spans), [40, 25, 30, 5, 30])

    def test_layer_self_seconds_median_over_passes(self):
        spans = [
            span("compile", "bench", 0, 1000, -1, pas=0),
            span("frontend.parse", "frontend", 0, 400, 0, pas=0),
            span("compile", "bench", 2000, 3000, -1, pas=1),
            span("frontend.parse", "frontend", 2000, 2200, 2, pas=1),
            span("compile", "bench", 4000, 5000, -1, pas=2),
            span("frontend.parse", "frontend", 4000, 4300, 4, pas=2),
        ]
        out = metrics.layer_self_seconds(spans)
        self.assertAlmostEqual(out["frontend"], 300e-9)
        self.assertEqual(out["core"], 0)
        self.assertEqual(set(out), set(metrics.LAYERS))

    def test_chrome_trace_events(self):
        doc = metrics.chrome_trace([span("a", "core", 5000, 7000, -1)])
        (ev,) = doc["traceEvents"]
        self.assertEqual((ev["ph"], ev["ts"], ev["dur"]), ("X", 0, 2))


def fake_raw(workload, trace):
    """A minimal harness document with every series the metrics read."""
    series = {
        "setup_s": [0.1, 0.2, 0.3], "sweep_s": [1.0, 1.1],
        "check_s": [0.5], "op_ms": [1.0, 2.0, 3.0],
        "sim_comm_ms": [2.0, 8.0], "point_s.0": [0.1], "point_s.1": [0.4],
        "op_ms.0": [1.0, 1.0, 9.0], "op_ms.1": [3.0],
        "overhead.untraced_s": [1.0], "overhead.traced_s": [1.1],
    }
    scalars = {"entries.0": 100, "entries.1": 200, "peak_rss_mb": 50,
               "window_s": 10, "requests_ok": 3, "server_misses": 2,
               "core.entries": 10, "cache.hits": 1, "cache.misses": 3}
    spans = [span("compile", "bench", 0, 100, -1),
             span("core.placement", "core", 0, 50, 0)]
    return {"workload": workload, "trace": trace, "series": series,
            "scalars": scalars, "spans": spans, "attempted": 1,
            "failed": 0, "errors": []}


class MetricNamesTest(unittest.TestCase):
    def setUp(self):
        with open(HERE.parent / "BENCHMARK.json") as f:
            self.bench = json.load(f)

    def test_declared_names_and_units_match(self):
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.bench["end_to_end"]],
            metrics.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.bench["per_layer"]],
            metrics.PER_LAYER)
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         ["synth-scale", "paper-fig10", "serve-mix"])

    def test_emitted_names_match(self):
        info = {"info.host_cores": 4.0, "info.release_build": 1.0,
                "info.src_tools_lines": 1.0}
        for w in ("synth-scale", "paper-fig10", "serve-mix"):
            e2e = metrics.end_to_end(fake_raw(w, False))
            self.assertEqual(list(e2e),
                             [m["name"] for m in self.bench["end_to_end"]])
            layer = metrics.per_layer(fake_raw(w, True), info)
            self.assertEqual(sorted(layer),
                             sorted(m["name"] for m in
                                    self.bench["per_layer"]))
        fig10 = metrics.end_to_end(fake_raw("paper-fig10", False))
        self.assertAlmostEqual(fig10["request_p50_ms"], 2.0)
        layer = metrics.per_layer(fake_raw("synth-scale", True), info)
        self.assertAlmostEqual(layer["cache.hit_ratio"], 0.25)
        self.assertAlmostEqual(layer["trace.overhead_pct"], 10.0)
        self.assertAlmostEqual(layer["core.self_s"], 50e-9)


if __name__ == "__main__":
    unittest.main()
