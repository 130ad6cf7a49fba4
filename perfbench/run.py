"""The repository's benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its
``src`` directory.  Workloads (see ``METRICS.md``): ``ensemble-lockstep``,
``sweep-process``, ``service-mixed``.

With ``--trace 0`` the run times :data:`SETUPS` fresh set-ups (a new
interpreter each: imports, engine, pool or server, warm-up), measures
the last one for ``--seconds`` and prints the end-to-end metrics.  With
``--trace 1`` it runs the workload twice for half the time each — once
plain, once with spans recorded around each layer's entry points — and
prints the per-layer metrics, including the tracing overhead.

The last line of standard output is the result object; a copy with the
environment stamp and informational figures goes to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    WORK_DIR,
    SetupError,
    child_env,
    environment,
    machine_state,
    source_root,
)
from worker import WORKLOADS  # noqa: E402

WORKER = Path(__file__).resolve().with_name("worker.py")
#: End-to-end metrics and their units, as ``BENCHMARK.json`` declares them.
END_TO_END = {
    "setup_s": "s",
    "interactions_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
#: Set-ups timed per run; ``setup_s`` is their median.
SETUPS = 3
#: A run that has not finished this many seconds after it started kills
#: its workers and fails, so it always exits within the 180 s it is given.
DEADLINE_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # already gone


def run_worker(
    workload: str, seed: int, seconds: float, mode: str, deadline: float, trace_dir=None
):
    """Start one worker; return (seconds from launch to READY, its result or None).

    The worker runs in its own process group; if it is still running at
    ``deadline`` (a ``time.monotonic`` reading), the whole group (the
    worker, its pool or its server) is killed.
    """
    command = [
        sys.executable,
        str(WORKER),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        repr(seconds),
        "--mode",
        mode,
    ]
    if trace_dir is not None:
        command += ["--trace-dir", str(trace_dir)]
    launched = time.perf_counter()
    proc = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(),
        start_new_session=True,
    )
    watchdog = threading.Timer(
        max(0.0, deadline - time.monotonic()), _kill_group, (proc.pid,)
    )
    watchdog.start()
    ready = None
    result = None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                ready = time.perf_counter() - launched
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            _kill_group(proc.pid)
            proc.wait()
    if code != 0 or ready is None or (mode == "run" and result is None):
        raise WorkerFailed(f"{workload} worker ({mode}) exited with code {code}")
    return ready, result


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    setups = [
        run_worker(workload, seed, seconds, "setup", deadline)[0]
        for _ in range(SETUPS - 1)
    ]
    ready, outcome = run_worker(workload, seed, seconds, "run", deadline)
    setups.append(ready)
    wall = outcome["window"][1] - outcome["window"][0]
    values = {
        "setup_s": statistics.median(setups),
        "interactions_per_s": outcome["interactions"] / wall,
        "latency_p50_ms": outcome["latency_p50_ms"],
        "peak_rss_mb": outcome["peak_rss_mb"],
    }
    outcome["setups_s"] = setups
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return metrics, outcome


def per_layer(workload: str, seed: int, seconds: float, deadline: float):
    from layers import complete

    trace_dir = WORK_DIR / "trace" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    try:
        _, plain = run_worker(workload, seed, seconds / 2, "run", deadline)
        _, traced = run_worker(workload, seed, seconds / 2, "run", deadline, trace_dir)
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    layers = traced["layers"]
    layers["trace.overhead_ratio"] = traced["latency_p50_ms"] / plain["latency_p50_ms"]
    outcome = {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "plain": plain,
        "traced": {k: v for k, v in traced.items() if k != "layers"},
    }
    return complete(layers), outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        source_root()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    before = machine_state()
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, outcome = measure(args.workload, args.seed, args.seconds, deadline)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(before, machine_state()),
        "result": result,
        "error_ratio": result["failed"] / result["attempted"],
        "outcome": outcome,
    }
    results_dir = WORK_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
