"""Self-tests for the benchmark's helpers.

    python3 perfbench/selftest.py        # from the root of a checkout

They cover the percentile (and its sample count), the open-loop
sender's timing from due times, seed-determined inputs, that a
corrupted output is counted as failed, span self-time arithmetic, and
that ``BENCHMARK.json`` and ``METRICS.md`` name exactly the metrics the
code reports.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import layers  # noqa: E402
from spans import Span  # noqa: E402

common.use_source_tree()


class PercentileTest(unittest.TestCase):
    def test_matches_linear_interpolation(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(common.percentile(values, 50), common.Percentile(3.0, 5))
        self.assertAlmostEqual(common.percentile(values, 90).value, 4.6)
        self.assertEqual(common.percentile(values, 0).value, 1.0)
        self.assertEqual(common.percentile(values, 100).value, 5.0)
        data = [0.3, 7.0, 1.5, 2.25, 9.0, 4.0]
        self.assertAlmostEqual(
            common.percentile(data, 50).value, statistics.median(data)
        )

    def test_reports_sample_count(self):
        self.assertEqual(common.percentile(range(120), 90).samples, 120)
        empty = common.percentile([], 50)
        self.assertEqual(empty.samples, 0)
        self.assertTrue(math.isnan(empty.value))

    def test_rejects_out_of_range(self):
        with self.assertRaises(ValueError):
            common.percentile([1.0], 101)


class OpenLoopTest(unittest.TestCase):
    def test_times_from_due_and_reports_lateness(self):
        # One lane, three requests due 10 ms apart, each taking 50 ms:
        # the later ones leave late, and their latency includes the wait.
        def send(lane, i):
            time.sleep(0.05)
            return i

        sent = common.open_loop([0.0, 0.01, 0.02], send, connections=1)
        self.assertEqual([s.outcome for s in sent], [0, 1, 2])
        self.assertLess(sent[0].late, 0.02)
        self.assertGreater(sent[1].late, 0.03)
        self.assertGreater(sent[2].late, 0.07)
        for s in sent:
            self.assertAlmostEqual(s.latency, s.late + (s.done - s.sent))
            self.assertGreaterEqual(s.done - s.sent, 0.05)

    def test_does_not_wait_for_answers_with_free_lanes(self):
        sent = common.open_loop(
            [0.0, 0.0], lambda lane, i: time.sleep(0.05), connections=2
        )
        self.assertLess(max(s.late for s in sent), 0.03)

    def test_failed_request_is_recorded(self):
        def send(lane, i):
            raise ConnectionError("refused")

        (record,) = common.open_loop([0.0], send, connections=1)
        self.assertIn("refused", record.error)


class DeterministicInputsTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        import ensemble_lockstep
        import service_mixed
        import sweep_process

        self.assertEqual(
            ensemble_lockstep.call_seeds(7, 50), ensemble_lockstep.call_seeds(7, 50)
        )
        self.assertNotEqual(
            ensemble_lockstep.call_seeds(7, 50), ensemble_lockstep.call_seeds(8, 50)
        )
        self.assertEqual(sweep_process.sweep_seeds(7, 50), sweep_process.sweep_seeds(7, 50))
        self.assertEqual(
            service_mixed.schedule(7, 20.0, 2), service_mixed.schedule(7, 20.0, 2)
        )
        self.assertNotEqual(
            service_mixed.schedule(7, 20.0, 2), service_mixed.schedule(8, 20.0, 2)
        )

    def test_schedule_has_fixed_mix_and_span(self):
        import service_mixed

        for seed in (1, 2, 3):
            plan = service_mixed.schedule(seed, 20.0, 2)
            kinds = [kind for _, kind, _ in plan]
            blocks = round(service_mixed.RATE * 20.0 / sum(service_mixed.MIX.values()))
            self.assertEqual(kinds.count("warm"), service_mixed.MIX["warm"] * blocks)
            self.assertEqual(kinds.count("burst"), 2 * blocks)
            self.assertAlmostEqual(plan[-1][0], 20.0)


class CorruptedOutputTest(unittest.TestCase):
    def test_lockstep_recheck_flags_corruption(self):
        import ensemble_lockstep
        from repro.engine import Engine
        from repro.workloads import uniform_configuration

        workload = ensemble_lockstep.Workload(seed=3, seconds=0)
        workload.calls = [("tiny", uniform_configuration(60, 2))]
        with Engine(backend="batched", executor="serial", cache=False) as engine:
            workload.engine = engine
            done = []
            for seed in (11, 12):
                results = engine.ensemble(
                    workload.calls[0][1],
                    ensemble_lockstep.TRIALS,
                    seed=seed,
                    max_interactions=ensemble_lockstep.BUDGET,
                )
                done.append((0, seed, 0.0, ensemble_lockstep.records(results)))
            self.assertEqual(workload.recheck(done), [])
            interactions, winner, counts = done[1][3][0]
            done[1][3][0] = (interactions + 1, winner, counts)
            self.assertEqual(workload.recheck(done), [1])

    def test_service_verify_flags_wrong_warm_answer(self):
        import service_mixed

        workload = service_mixed.Workload(seed=3, seconds=1.0)
        payload = service_mixed.warm_payload(0)
        answer = [{"interactions": 10, "winner": 1}]
        workload.plan = [(0.0, "warm", payload), (0.1, "warm", payload)]
        workload.cold_answers = {payload["seed"]: answer}
        good = common.Sent(due=0.0, sent=0.0, done=0.01)
        good.outcome = (200, {"served_from_cache": True, "results": answer})
        bad = common.Sent(due=0.1, sent=0.1, done=0.11)
        bad.outcome = (
            200,
            {"served_from_cache": True, "results": [{"interactions": 11, "winner": 1}]},
        )
        self.assertEqual(workload.verify([good, bad]), {1})
        rejected = common.Sent(due=0.1, sent=0.1, done=0.11)
        rejected.outcome = (429, {"error": "queue full"})
        self.assertEqual(workload.verify([good, rejected]), {1})


class SpanArithmeticTest(unittest.TestCase):
    def test_self_time_and_kernel_counts(self):
        spans = [
            Span(1, 0, "session.ensemble", 0.0, 1.0, 1, 10, {"spec_id": 5}),
            Span(2, 1, "scenario", 0.1, 0.8, 1, 10, {"scenario": "usd"}),
            Span(3, 2, "kernel", 0.2, 0.7, 1, 10, {"replicates": 8, "interactions": 400}),
            Span(4, 1, "cache.store", 0.85, 0.95, 1, 10, {"bytes": 100}),
        ]
        metrics = layers.from_spans(spans)
        self.assertAlmostEqual(metrics["session.self_s"], 0.2)
        self.assertAlmostEqual(metrics["scenario.usd.busy_s"], 0.7)
        self.assertEqual(metrics["kernel.batch_width"], 8)
        self.assertAlmostEqual(metrics["kernel.interactions_per_busy_s"], 800.0)
        self.assertEqual(metrics["cache.bytes_written"], 100)
        self.assertEqual(len(layers.in_window(spans, 0.05, 0.5)), 2)


class DeclaredMetricsTest(unittest.TestCase):
    def test_benchmark_json_matches_code(self):
        import run

        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]],
            [(name, unit) for name, unit, _, _ in layers.PER_LAYER],
        )
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END
        )

    def test_metrics_doc_lists_every_metric(self):
        doc = (HERE / "METRICS.md").read_text()
        for name, *_ in layers.PER_LAYER:
            self.assertIn(f"`{name}`", doc)


if __name__ == "__main__":
    unittest.main()
