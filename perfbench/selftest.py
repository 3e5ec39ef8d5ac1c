"""Unit tests of the benchmark's own arithmetic.

    python3 perfbench/selftest.py

They cover span self time (children that nest, overlap or stick out of their
parent), the tail-percentile rule, the scaling of wall_s by the reference
kernel, and that BENCHMARK.json names exactly the metrics the benchmark
prints.
"""

import json
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

from run import END_TO_END  # noqa: E402
from spans import covered_length, layer_figures, self_times  # noqa: E402
from worker import (  # noqa: E402
    CLI_SUBCOMMANDS,
    MIN_BEYOND,
    REF_S,
    floor_wall,
    normalised_floor,
    percentile,
    reference,
)


def span(name, start, end, parent=None, counts=None):
    return [name, start, end, parent, 0, counts]


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(self_times([span("robp.validate", 1.0, 3.5)]), [2.5])

    def test_nested_children_are_subtracted(self):
        spans = [
            span("labeling.verify", 0.0, 10.0),
            span("labeling.compute_labels", 1.0, 4.0, parent=0),
            span("robp.validate", 1.5, 2.0, parent=1),
            span("labeling.compute_labels", 5.0, 9.0, parent=0),
        ]
        self.assertEqual(self_times(spans), [3.0, 2.5, 0.5, 4.0])

    def test_overlapping_children_count_once(self):
        # children from two threads or processes may overlap; the parent
        # loses the union of their intervals, not the sum
        spans = [
            span("potential.profile_counter", 0.0, 10.0),
            span("robp.read_robp", 2.0, 6.0, parent=0),
            span("robp.read_robp", 4.0, 8.0, parent=0),
            span("robp.read_robp", 5.0, 7.0, parent=0),
        ]
        self.assertAlmostEqual(self_times(spans)[0], 4.0)

    def test_children_are_clipped_to_the_parent(self):
        self.assertAlmostEqual(covered_length([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0), 3.0)
        self.assertEqual(covered_length([(11.0, 12.0)], 0.0, 10.0), 0.0)

    def test_layer_figures_sum_self_time_and_counts(self):
        spans = [
            span("constructions.rounded_counter", 0.0, 2.0, counts={"vertices": 7}),
            span("labeling.verify", 2.0, 5.0),
            span("labeling.compute_labels", 2.5, 4.5, parent=1),
            span("robp.validate", 2.5, 3.0, parent=2),
        ]
        figures = layer_figures([spans])
        self.assertEqual(figures["constructions.build_s"], 2.0)
        self.assertEqual(figures["constructions.vertices"], 7)
        self.assertEqual(figures["labeling.verify_s"], 1.0)
        self.assertEqual(figures["labeling.compute_labels_s"], 1.5)
        self.assertEqual(figures["robp.validate_s"], 0.5)
        self.assertEqual(figures["labeling.calls"], 2)


class PercentileRuleTest(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        self.assertIsNone(percentile(range(999), 99))
        self.assertIsNotNone(percentile(range(1000), 99))

    def test_reported_percentile_has_ten_samples_beyond(self):
        for n in (1000, 1003, 2500, 3009):
            samples = list(range(n))
            p = percentile(samples, 99)
            self.assertGreaterEqual(sum(s > p for s in samples), MIN_BEYOND)

    def test_median_rank(self):
        self.assertEqual(percentile(range(1, 101), 50), 50)


class NormalisedFloorTest(unittest.TestCase):
    def test_a_round_slowed_with_its_reference_scales_back(self):
        fast = {"latencies": [1.0, 2.0], "ref": REF_S}
        slow = {"latencies": [1.5, 3.0], "ref": 1.5 * REF_S}
        self.assertAlmostEqual(normalised_floor([slow]), 3.0)
        self.assertAlmostEqual(normalised_floor([fast, slow]), 3.0)
        self.assertAlmostEqual(floor_wall([fast, slow]), 3.0)

    def test_each_operation_takes_its_own_shortest_scaled_time(self):
        a = {"latencies": [1.0, 4.0], "ref": 2 * REF_S}
        b = {"latencies": [1.0, 1.0], "ref": REF_S}
        self.assertAlmostEqual(normalised_floor([a, b]), 0.5 + 1.0)
        self.assertAlmostEqual(floor_wall([a, b]), 2.0)

    def test_reference_kernel_runs(self):
        self.assertGreater(reference(), 0.0)


class BenchmarkFileTest(unittest.TestCase):
    def test_benchmark_json_names_the_printed_metrics(self):
        doc = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in doc["end_to_end"]], list(END_TO_END))
        per_layer = set(layer_figures([])) | {f"cli.{c}_s" for c in CLI_SUBCOMMANDS}
        per_layer |= {"trace.overhead_s", "trace.unattributed_s"}
        self.assertEqual({m["name"] for m in doc["per_layer"]}, per_layer)


if __name__ == "__main__":
    unittest.main()
