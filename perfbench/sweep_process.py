"""sweep-process: repeated ``Engine.sweep`` calls on the process executor.

Closed loop from one thread, ``jobs = nproc`` pool workers, no cache.
Every call runs the same heterogeneous grid — plain USD cells over
n 30..960 and k 2..5, plus one zealot, noise, graph and gossip cell —
at a fresh seed drawn from the workload seed.  Replicates are cheap,
so the cost-model scheduler, chunking, shared-memory result transport
and the persistent pool carry much of the time.  Warm-up spawns the
pool and lets the cost model learn the cells before timing starts.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from common import nproc, percentile, session_counts

WARMUP_SWEEPS = 3
#: Timed sweeps recomputed on the serial executor for the output check.
CHECKED_SWEEPS = 2


def grid():
    """The fixed sweep grid every call runs."""
    from repro.engine import (
        SweepCell,
        SweepSpec,
        gossip_spec,
        graph_spec,
        noise_spec,
        usd_spec,
        zealot_spec,
    )
    from repro.workloads import uniform_configuration

    cells = [
        SweepCell(
            spec=usd_spec(uniform_configuration(n, k)),
            trials=trials,
            label=(("n", n), ("k", k)),
        )
        for n, k, trials in (
            (30, 2, 4),
            (30, 5, 4),
            (120, 3, 4),
            (240, 2, 4),
            (480, 3, 2),
            (960, 2, 2),
        )
    ]
    ring = np.arange(100)
    edges = np.concatenate(
        [np.stack([ring, (ring + step) % 100], axis=1) for step in (1, 2, -1, -2)]
    )
    base = uniform_configuration(200, 3)
    cells += [
        SweepCell(
            spec=zealot_spec(base, [0, 3, 0]),
            trials=2,
            max_interactions=20_000,
            label=(("scenario", "zealots"),),
        ),
        SweepCell(
            spec=noise_spec(base, 0.05, 1_000),
            trials=2,
            label=(("scenario", "noise"),),
        ),
        SweepCell(
            spec=graph_spec(edges, config=uniform_configuration(100, 2)),
            trials=2,
            max_interactions=5_000,
            label=(("scenario", "graph"),),
        ),
        SweepCell(
            spec=gossip_spec(base), trials=4, label=(("scenario", "gossip"),)
        ),
    ]
    return SweepSpec(cells=tuple(cells))


def sweep_seeds(seed: int, count: int) -> list[int]:
    """The seed of each sweep call, a function of the workload seed alone."""
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=count)]


def records(run) -> list[list[tuple]]:
    """Per cell, the per-replicate (interactions, winner) pairs a check compares."""
    return [
        [(getattr(r, "interactions", None), getattr(r, "winner", None)) for r in cell.results]
        for cell in run
    ]


def interactions(run) -> int:
    """Interactions simulated across every cell (gossip counts rounds, not interactions)."""
    return sum(
        int(getattr(r, "interactions", None) or 0) for cell in run for r in cell.results
    )


class Workload:
    name = "sweep-process"

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.engine = None
        self.spec = grid()
        self.jobs = nproc()

    def setup(self) -> None:
        from repro.engine import Engine

        self.engine = Engine(
            backend="batched", executor="process", jobs=self.jobs, cache=False
        )
        for warm in range(WARMUP_SWEEPS):
            self.engine.sweep(self.spec, seed=10_000 + warm)

    def run(self) -> dict:
        seeds = sweep_seeds(self.seed, 4096)
        done = []  # (seed, latency, records, interactions)
        failed = set()
        errors = []
        before = self.engine.stats()
        start = time.perf_counter()
        while time.perf_counter() - start < self.seconds:
            seed = seeds[len(done) % len(seeds)]
            began = time.perf_counter()
            run = self.engine.sweep(self.spec, seed=seed)
            latency = time.perf_counter() - began
            report = self.engine.stats()["scheduler"]["last_sweep"]
            if report and report["prediction_error"] is not None:
                errors.append(report["prediction_error"])
            if [len(cell.results) for cell in run] != [c.trials for c in self.spec]:
                failed.add(len(done))
            done.append((seed, latency, records(run), interactions(run)))
        end = time.perf_counter()
        self.counts = session_counts(before, self.engine.stats())
        self.window = (start, end)
        bad, serial_seconds, process_seconds = self.recheck(done)
        failed.update(bad)
        latencies = [latency for _, latency, _, _ in done]
        efficiency = serial_seconds / (self.jobs * process_seconds)
        self.counts.update(
            {
                "executor.scaling_efficiency": efficiency,
                "costmodel.prediction_error": (
                    statistics.median(errors) if errors else 0.0
                ),
            }
        )
        return {
            "window": (start, end),
            "attempted": len(done),
            "failed": len(failed),
            "latencies": latencies,
            "interactions": sum(count for *_, count in done),
            "info": {
                "sweeps": len(done),
                "replicates_per_s": self.spec.total_trials * len(done) / (end - start),
                "cells": len(self.spec),
                "jobs": self.jobs,
                "latency_p90_ms": percentile(latencies, 90).as_dict(),
                "scaling_efficiency": efficiency,
                "replicates_per_chunk": self.counts["executor.replicates_per_chunk"],
                "prediction_error_p50": self.counts["costmodel.prediction_error"],
            },
        }

    def recheck(self, done):
        """Rerun sampled sweeps on the serial executor; results must match bit for bit.

        Returns the indices that differ and the serial and process
        seconds of the sampled sweeps (for the scaling efficiency).
        """
        from repro.engine import Engine

        picks = np.random.default_rng(self.seed + 1).choice(
            len(done), size=min(CHECKED_SWEEPS, len(done)), replace=False
        )
        failed, serial_seconds, process_seconds = [], 0.0, 0.0
        with Engine(backend="batched", executor="serial", cache=False) as serial:
            for pick in map(int, picks):
                seed, latency, expected, _ = done[pick]
                began = time.perf_counter()
                again = serial.sweep(self.spec, seed=seed)
                serial_seconds += time.perf_counter() - began
                process_seconds += latency
                if records(again) != expected:
                    failed.append(pick)
        return failed, serial_seconds, process_seconds

    def layer_extras(self, spans) -> dict:
        from layers import worker_busy_s

        wall = self.window[1] - self.window[0]
        return {
            **self.counts,
            "executor.utilisation": worker_busy_s(spans) / (self.jobs * wall),
        }

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
