"""Tests for the benchmark's own logic.

    python3 -m pytest -q perfbench        (or: python3 -m unittest perfbench.test_perfbench)
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import unittest
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (str(ROOT), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import oracles, run, workloads  # noqa: E402
from perfbench.tracer import Installed, Tracer  # noqa: E402


class FakeClock:
    def __init__(self, *ticks: float):
        self._ticks = list(ticks)

    def __call__(self) -> float:
        return self._ticks.pop(0)


class TracerTest(unittest.TestCase):
    def test_self_time_with_nested_and_sibling_spans(self):
        # outer [0, 10] holds siblings a [1, 3] and b [4, 8]; b holds leaf [5, 6]
        tracer = Tracer(clock=FakeClock(0, 1, 3, 4, 5, 6, 8, 10))
        tracer.enter("outer")
        tracer.enter("a")
        tracer.exit()
        tracer.enter("b")
        tracer.enter("leaf")
        tracer.exit()
        tracer.exit()
        tracer.exit()
        self.assertEqual(dict(tracer.self_s), {"outer": 4, "a": 2, "b": 3, "leaf": 1})
        self.assertEqual(dict(tracer.calls), {"outer": 1, "a": 1, "b": 1, "leaf": 1})

    def test_repeated_calls_accumulate(self):
        tracer = Tracer(clock=FakeClock(0, 2, 5, 6))
        for _ in range(2):
            tracer.enter("f")
            tracer.exit()
        self.assertEqual((tracer.calls["f"], tracer.self_s["f"]), (2, 3))

    def test_installed_wraps_importer_names_and_restores_them(self):
        from threefold import blowup, quotients
        original = quotients.blowup_charts
        tracer = Tracer()
        installed = Installed(tracer)
        with installed:
            self.assertIsNot(blowup.blowup_charts, original)
            self.assertIs(blowup.blowup_charts, quotients.blowup_charts)
            ambient = quotients.QuotientType(5, (2, 3, 1))
            v = (Fraction(2, 5), Fraction(3, 5), Fraction(1, 5))
            quotients.blowup_charts(ambient, v)
            quotients.blowup_charts(ambient, v)
        self.assertIs(quotients.blowup_charts, original)
        self.assertIs(blowup.blowup_charts, original)
        self.assertEqual(tracer.calls["quotients.blowup_charts"], 2)
        self.assertEqual(tracer.distinct("quotients.blowup_charts"), 1)
        # calls between layers get spans of their own
        self.assertEqual(tracer.calls["quotients.quotient_presentation"], 6)
        self.assertGreater(tracer.calls["linalg.smith_normal_form"], 0)


class Growing:
    """A cheap workload whose passes grow: pass k normalizes k + 1 types."""

    name = "growing"

    def __init__(self):
        self._passes = 0

    def prepare(self) -> None:
        pass

    def next_pass(self) -> list[workloads.Job]:
        from threefold import quotients
        self._passes += 1
        return [workloads.Job("normalize",
                              lambda n=n: quotients.QuotientType(n, (1, n - 1, 1)).normalized(),
                              lambda result: None)
                for n in range(5, 5 + self._passes)]


class TracedRunTest(unittest.TestCase):
    def test_per_layer_counts_do_not_depend_on_untraced_passes(self):
        setup = run.Setup(interpreter_s=[0.05], import_s=[0.1])
        counts = []
        for untraced in (1, 3):
            workload = Growing()
            plain = run.run_passes(workload, passes=untraced)
            traced, tracer = run.traced_passes(Growing)
            metrics, _ = run.per_layer(workload, setup, plain, traced, tracer)
            counts.append({name: value for name, (value, unit) in metrics.items()
                           if unit in ("count", "ratio") and name != "trace.overhead_ratio"})
        self.assertEqual(counts[0], counts[1])
        self.assertEqual(counts[0]["quotients.QuotientType.normalized.calls"],
                         sum(range(1, run.TRACE_PASSES + 1)))


class TailTest(unittest.TestCase):
    def check(self, n: int, expected_label: str):
        samples = [float(x) for x in range(n, 0, -1)]
        value, label = run.tail(samples)
        self.assertEqual(label, expected_label)
        beyond = sum(1 for x in samples if x > value)
        if label == "max":
            self.assertEqual(value, max(samples))
            return
        p = int(label[1:])
        self.assertGreaterEqual(beyond, 10)
        # one percentile higher would leave fewer than ten beyond it
        self.assertLess(n - -(-(p + 1) * n // 100), 10)

    def test_few_samples_report_the_maximum(self):
        for n in (1, 4, 10, 12, 19):
            self.check(n, "max")

    def test_percentile_selection(self):
        self.check(20, "p50")
        self.check(23, "p56")
        self.check(100, "p90")
        self.check(360, "p97")
        self.check(1234, "p99")
        self.check(5000, "p99")


class PassSecondsTest(unittest.TestCase):
    def test_each_kind_at_its_percentile_times_its_share_of_a_pass(self):
        self.assertEqual(run.PASS_PERCENTILE, 2)
        phase = run.Phase(passes=50)
        # kind "a": two jobs a pass, 100 samples 1..100, whose p2 is the 2nd smallest
        phase.samples += [("a", float(x)) for x in range(100, 0, -1)]
        # kind "b": one job a pass, 50 samples, whose p2 is the smallest
        phase.samples += [("b", 5.0 + (7 * x) % 50) for x in range(50)]
        self.assertEqual(run.pass_seconds(phase), 2 * 2.0 + 1 * 5.0)

    def test_nearest_rank(self):
        self.assertEqual(run.nearest_rank([3.0, 1.0, 2.0], 2), 1.0)
        self.assertEqual(run.nearest_rank([float(x) for x in range(1, 101)], 5), 5.0)
        self.assertEqual(run.nearest_rank([float(x) for x in range(1, 101)], 100), 100.0)


class OracleTest(unittest.TestCase):
    def test_hilbert_series_anchors_at_r7(self):
        dims = oracles.hilbert_dimensions(7, 42)
        self.assertEqual(dims[1][0], 1)
        self.assertEqual(dims[2][1], 1)
        self.assertEqual(dims[4][0], 2)

    def test_hilbert_series_matches_direct_count(self):
        for r in (7, 9):
            weights = ((r + 1) // 2, (r - 1) // 2, 2, 1, r)
            counts = [[0, 0] for _ in range(6 * r + 1)]
            for l1 in (0, 1):
                for l2 in (0, 1):
                    for l3 in range(3 * r + 1):
                        for l5 in range(7):
                            base = weights[0] * l1 + weights[1] * l2 + 2 * l3 + r * l5
                            for degree in range(base, 6 * r + 1):  # l4 = degree - base
                                counts[degree][(l1 + l2 + l3) % 2] += 1
            self.assertEqual(oracles.hilbert_dimensions(r, 6 * r), [tuple(c) for c in counts])

    def test_reid_tai_classification(self):
        self.assertTrue(oracles.is_terminal(7, (1, 6, 3)))      # 1/7(1,-1,3)
        self.assertTrue(oracles.is_terminal(5, (1, 2, 3)))      # 3 * (1,2,3) = (3,1,4)
        self.assertTrue(oracles.is_terminal(2, (1, 1, 1)))
        self.assertTrue(oracles.is_terminal(1, (0, 0, 0)))
        self.assertFalse(oracles.is_terminal(3, (1, 1, 1)))     # age 1: canonical only
        self.assertFalse(oracles.is_terminal(4, (1, 1, 2)))     # not isolated
        self.assertFalse(oracles.is_terminal(6, (1, 5, 2)))     # gcd(2, 6) > 1
        self.assertEqual(oracles.min_age(3, (1, 1, 1)), 3)
        self.assertEqual(oracles.min_age(4, (1, 1, 2)), 4)
        self.assertEqual(oracles.min_age(5, (1, 1, 1)), 3)      # not canonical

    def test_terminal_rule_matches_the_orbits_of_1_minus1_b(self):
        for n in range(1, 13):
            units = [u for u in range(n) if math.gcd(u, n) == 1]
            terminal = {tuple(sorted((u, -u % n, u * b % n))) for u in units for b in units}
            for weights in itertools.product(range(n), repeat=3):
                self.assertEqual(oracles.is_terminal(n, weights),
                                 tuple(sorted(weights)) in terminal, (n, weights))

    def test_canonical_form(self):
        self.assertEqual(workloads.expected_point(7), "1/14(1,3,13)")
        self.assertEqual(oracles.canonical_form(7, (3, 6, 1)), (1, 2, 5))  # unit 5
        self.assertEqual(oracles.canonical_form(1, (0, 0)), (0, 0))

    def test_chart_order_rule(self):
        fifth = (Fraction(2, 5), Fraction(3, 5), Fraction(1, 5))
        self.assertEqual(oracles.chart_orders(5, fifth), [2, 3, 1])
        self.assertEqual(oracles.chart_orders(1, (1, 2, 3)), [1, 2, 3])
        self.assertEqual(oracles.chart_orders(2, workloads.cd2_weights(7)), [8, 6, 4, 2, 14])
        with self.assertRaises(ValueError):
            oracles.chart_orders(2, (Fraction(1, 3),))


class ToricStreamTest(unittest.TestCase):
    def test_reid_tai_stream_never_repeats_a_type(self):
        sweep = workloads.ToricSweep(seed=3)
        sweep.prepare()
        seen = [sweep._rt_type(i) for i in range(60_000)]
        self.assertEqual(len(set(seen)), len(seen))
        for n, weights in seen[:2000]:
            self.assertTrue(1 <= n <= sweep.RT_MAX_N and all(0 <= w < n for w in weights))


class BenchmarkSpecTest(unittest.TestCase):
    def test_spec_lists_every_reported_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         run.per_layer_names())
        # dims-growth runs by hand only; see "Baseline and bounds" in README.md
        self.assertEqual([m["name"] for m in spec["workloads"]],
                         [name for name in run.WORKLOADS if name != "dims-growth"])
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         ["setup_s", "pass_s_p2", "peak_rss_mib"])


if __name__ == "__main__":
    unittest.main()
