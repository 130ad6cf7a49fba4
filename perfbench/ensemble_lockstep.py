"""ensemble-lockstep: many short ``Engine.ensemble`` calls on the lockstep kernel.

Closed loop from one thread: each call starts when the previous one
returns.  The calls cycle through a fixed panel that covers the paper's
regimes — n in {10^3, 10^4}, k in {2, 5, 16}, no bias, an additive bias
of sqrt(n ln n), a multiplicative bias, and a start with half the agents
undecided — on the ``batched`` backend, serial executor, no cache.  The
workload seed only picks each call's replicate seed.

Every replicate stops at the same interaction budget, below the
consensus time of every panel entry, so each call does a fixed amount
of work and its latency depends on the machine and the kernel, not on
how long a seed's slowest replicate takes to reach consensus (a replicate
to consensus at n = 10^4 alone takes seconds).  A run measures whole
passes over the panel, so every run has the same mix of calls.
"""

from __future__ import annotations

import math
import time

import numpy as np

from common import percentile, session_counts

TRIALS = 16
#: Interactions per replicate in every call: 8 parallel rounds at n = 10^3.
BUDGET = 8_000
#: Calls whose outputs are recomputed with a different batch split.
CHECKED_CALLS = 2


def panel():
    """The fixed list of (label, config) calls."""
    from repro.workloads import (
        additive_bias_configuration,
        multiplicative_bias_configuration,
        uniform_configuration,
    )

    calls = []
    for n in (1_000, 10_000):
        beta = math.ceil(math.sqrt(n * math.log(n)))
        calls += [
            (f"n={n} k=2 none", uniform_configuration(n, 2)),
            (f"n={n} k=5 additive", additive_bias_configuration(n, 5, beta)),
            (f"n={n} k=16 multiplicative", multiplicative_bias_configuration(n, 16, 1.5)),
            (f"n={n} k=5 undecided", uniform_configuration(n, 5, undecided_fraction=0.5)),
        ]
    # An odd panel puts the median latency inside one call type, not
    # between two.
    calls.append(
        ("n=1000 k=2 multiplicative", multiplicative_bias_configuration(1_000, 2, 1.5))
    )
    return calls


def call_seeds(seed: int, count: int) -> list[int]:
    """The replicate seed of each call, a function of the workload seed alone."""
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=count)]


def records(results) -> list[tuple]:
    """Per replicate, the (interactions, winner, final counts) a check compares."""
    return [
        (int(r.interactions), r.winner, tuple(int(c) for c in r.final.counts))
        for r in results
    ]


def invariant_failures(config, results) -> int:
    """Replicates whose result is impossible for this call."""
    bad = 0 if len(results) == TRIALS else 1
    for r in results:
        if r.converged:
            ok = r.winner is not None and 1 <= r.winner <= config.k
        else:
            ok = r.interactions == BUDGET
        conserved = int(sum(r.final.counts)) == config.n
        bad += not (ok and conserved)
    return bad


class Workload:
    name = "ensemble-lockstep"

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.engine = None
        self.calls = panel()

    def setup(self) -> None:
        from repro.engine import Engine

        self.engine = Engine(backend="batched", executor="serial", cache=False)
        # Untimed warm-up: a short call on every panel entry.
        for _, config in self.calls:
            self.engine.ensemble(config, 2, seed=0, max_interactions=2_000)

    def run(self) -> dict:
        seeds = call_seeds(self.seed, 4096)
        done = []  # (call index, seed, latency, records)
        failed = set()
        before = self.engine.stats()
        start = time.perf_counter()
        while time.perf_counter() - start < self.seconds:
            for index, (_, config) in enumerate(self.calls):
                seed = seeds[len(done) % len(seeds)]
                began = time.perf_counter()
                results = self.engine.ensemble(
                    config, TRIALS, seed=seed, max_interactions=BUDGET
                )
                latency = time.perf_counter() - began
                if invariant_failures(config, results):
                    failed.add(len(done))
                done.append((index, seed, latency, records(results)))
        end = time.perf_counter()
        self.counts = session_counts(before, self.engine.stats())
        failed.update(self.recheck(done))
        latencies = [latency for _, _, latency, _ in done]
        interactions = sum(rec[0] for *_, recs in done for rec in recs)
        return {
            "window": (start, end),
            "attempted": len(done),
            "failed": len(failed),
            "latencies": latencies,
            "interactions": interactions,
            "info": {
                "calls": len(done),
                "panel": [label for label, _ in self.calls],
                "replicates_per_s": TRIALS * len(done) / (end - start),
                "latency_p90_ms": percentile(latencies, 90).as_dict(),
            },
        }

    def recheck(self, done) -> list[int]:
        """Recompute sampled calls split into two batches; return those that differ.

        Replicate seeds are fixed before batching, so the per-replicate
        results must match the timed call bit for bit.
        """
        picks = np.random.default_rng(self.seed + 1).choice(
            len(done), size=min(CHECKED_CALLS, len(done)), replace=False
        )
        failed = []
        for pick in map(int, picks):
            index, seed, _, expected = done[pick]
            _, config = self.calls[index]
            again = self.engine.ensemble(
                config,
                TRIALS,
                seed=seed,
                max_interactions=BUDGET,
                batch_size=TRIALS // 2,
            )
            if records(again) != expected:
                failed.append(pick)
        return failed

    def layer_extras(self, spans) -> dict:
        return self.counts

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
