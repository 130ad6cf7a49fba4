"""One workload in a fresh interpreter: set up, report ready, run, report.

``run.py`` starts this script once per set-up it times.  Protocol on
standard output: a line ``READY`` once set-up and warm-up are done,
then (with ``--mode run``) a line ``RESULT <json>`` after the timed
phase and its output checks.  Nothing else is printed to standard
output.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--mode setup|run] [--trace-dir DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import peak_rss_mb, percentile, process_tree, use_source_tree  # noqa: E402

#: Workload name -> the module that implements it.
WORKLOADS = {
    "ensemble-lockstep": "ensemble_lockstep",
    "sweep-process": "sweep_process",
    "service-mixed": "service_mixed",
}


def build(name: str, seed: int, seconds: float, trace_dir: Path | None):
    module = __import__(WORKLOADS[name])
    if name == "service-mixed":
        return module.Workload(seed, seconds, trace_dir)
    return module.Workload(seed, seconds)


def layer_metrics(workload, outcome: dict, trace_dir: Path) -> dict:
    """Per-layer metrics of the timed phase, from every process's spans."""
    from layers import from_spans, in_window
    from spans import load_spans

    spans = in_window(load_spans(trace_dir), *outcome["window"])
    metrics = from_spans(spans)
    metrics.update(workload.layer_extras(spans))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--trace-dir", type=Path, default=None)
    args = parser.parse_args(argv)

    use_source_tree()
    tracer = None
    if args.trace_dir is not None:
        from spans import Tracer, install

        tracer = Tracer(args.trace_dir)
        install(tracer)
    workload = build(args.workload, args.seed, args.seconds, args.trace_dir)
    try:
        workload.setup()
        print("READY", flush=True)
        if args.mode == "setup":
            return 0
        outcome = workload.run()
        outcome["peak_rss_mb"] = peak_rss_mb(process_tree(os.getpid()))
    finally:
        workload.close()
    if tracer is not None:
        tracer.dump()
        outcome["layers"] = layer_metrics(workload, outcome, args.trace_dir)
    latencies = outcome.pop("latencies")
    outcome["latency_p50_ms"] = percentile(latencies, 50).value * 1000.0
    outcome["latency_samples"] = len(latencies)
    print("RESULT " + json.dumps(outcome), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
