"""Helpers shared by every workload: percentiles, the open-loop sender,
memory and environment readings, and locating the source tree.

Everything here is stdlib-only so ``run.py`` can import it without the
program's dependencies; the workload modules import :mod:`repro` after
:func:`use_source_tree` has put ``src/`` on the path.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

#: Where runs keep scratch files (cache directories, span dumps, result
#: files).  Relative to the checkout root; listed in ``.gitignore``.
WORK_DIR = Path(".perfbench")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (e.g. the source is missing)."""


def source_root() -> Path:
    """The ``src`` directory of the checkout the benchmark runs from."""
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SetupError(
            f"no program source at {src}/repro; run from the root of a checkout"
        )
    return src


def use_source_tree() -> Path:
    """Put the checkout's ``src`` first on ``sys.path`` and return it."""
    src = source_root()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return src


def child_env() -> dict:
    """Environment for subprocesses that import the program from ``src``."""
    env = dict(os.environ)
    paths = [str(source_root()), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Percentile:
    """A percentile together with the number of samples it came from."""

    value: float
    samples: int

    def as_dict(self) -> dict:
        return {"value": self.value, "samples": self.samples}


def percentile(values, q: float) -> Percentile:
    """The ``q``-th percentile (0-100) by linear interpolation.

    Matches ``numpy.percentile``'s default method.  An empty sample has
    no percentile: the value is NaN and ``samples`` is 0.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return Percentile(math.nan, 0)
    rank = (n - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, n - 1)
    value = ordered[low] + (ordered[high] - ordered[low]) * (rank - low)
    return Percentile(float(value), n)


def session_counts(before: dict, after: dict) -> dict:
    """Per-layer counts from two ``Engine.stats()`` snapshots around a timed phase."""
    transport_before = before["transport"]
    transport_after = after["transport"]
    chunks = sum(
        transport_after[t]["chunks"] - transport_before[t]["chunks"]
        for t in ("shared", "pickle")
    )
    simulated = after["replicates_simulated"] - before["replicates_simulated"]
    return {
        "session.ensembles": after["ensembles"] - before["ensembles"],
        "session.replicates_simulated": simulated,
        "session.replicates_from_cache": (
            after["replicates_from_cache"] - before["replicates_from_cache"]
        ),
        "executor.chunks": chunks,
        "executor.replicates_per_chunk": simulated / chunks if chunks else 0.0,
        "executor.transport_bytes": sum(
            transport_after[t]["bytes"] - transport_before[t]["bytes"]
            for t in ("shared", "pickle")
        ),
        "executor.pool_spawns": after["pool"]["spawns"],
    }


# ----------------------------------------------------------------------
# Open-loop sending
# ----------------------------------------------------------------------
@dataclass
class Sent:
    """What happened to one scheduled request."""

    due: float
    sent: float = math.nan
    done: float = math.nan
    outcome: object = None
    error: str | None = None

    @property
    def latency(self) -> float:
        """Seconds from when the request was due to its answer."""
        return self.done - self.due

    @property
    def late(self) -> float:
        """Seconds the request left after it was due."""
        return self.sent - self.due


def open_loop(offsets, send, connections: int, clock=time.perf_counter):
    """Send request ``i`` at ``start + offsets[i]`` over ``connections`` lanes.

    ``send(lane, i)`` performs request ``i`` on lane ``lane`` (one
    keep-alive connection per lane) and returns its outcome.  The
    schedule does not wait for answers: a lane takes the next request
    due, sleeps until it is due and sends it, so a slow answer delays
    later requests only by occupying lanes, and that delay shows as
    lateness.  Latency is measured from the due time, not the send
    time.  Returns one :class:`Sent` per offset, in schedule order.
    """
    offsets = list(offsets)
    if any(b < a for a, b in zip(offsets, offsets[1:])):
        raise ValueError("offsets must be non-decreasing")
    start = clock()
    records = [Sent(due=start + offset) for offset in offsets]
    cursor = iter(range(len(records)))
    lock = threading.Lock()

    def lane(index: int) -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            record = records[i]
            pause = record.due - clock()
            if pause > 0:
                time.sleep(pause)
            record.sent = clock()
            try:
                record.outcome = send(index, i)
            except Exception as exc:  # a failed request is data, not a crash
                record.error = f"{type(exc).__name__}: {exc}"
            record.done = clock()

    threads = [
        threading.Thread(target=lane, args=(j,), name=f"lane-{j}", daemon=True)
        for j in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def speed_probe_ms(repeats: int = 25) -> float:
    """Median time of a fixed unit of interpreter-bound numpy work, in ms.

    The program is not involved: this reads the machine's own speed, which
    on shared hosts drifts by tens of percent over tens of seconds, so a
    result file says whether its run met a fast or a slow machine.
    """
    import numpy as np

    times = []
    for _ in range(repeats):
        values = np.arange(64, dtype=np.float64)
        began = time.perf_counter()
        for _ in range(2_000):
            values = values * 1.0000001 + 1.0
        times.append(time.perf_counter() - began)
    return percentile(times, 50).value * 1000.0


# ----------------------------------------------------------------------
# Memory and environment
# ----------------------------------------------------------------------
def _children(pid: int) -> list[int]:
    found = []
    task_dir = Path(f"/proc/{pid}/task")
    try:
        tasks = list(task_dir.iterdir())
    except OSError:
        return found
    for task in tasks:
        try:
            text = (task / "children").read_text()
        except OSError:
            continue
        found.extend(int(tok) for tok in text.split())
    return found


def process_tree(pid: int) -> list[int]:
    """``pid`` and all its live descendants."""
    tree, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        tree.append(current)
        frontier.extend(_children(current))
    return tree


def peak_rss_mb(pids) -> float:
    """Sum of each process's peak resident set (``VmHWM``), in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(module: str) -> str:
    try:
        imported = __import__(module)
    except ImportError:
        return "absent"
    return getattr(imported, "__version__", "unknown")


def source_digest(src: Path) -> str:
    """sha256 over the program's Python sources, path and content."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"
    return out.stdout.strip()


def environment(before: dict, after: dict) -> dict:
    """The environment stamp written into every result file.

    ``before`` and ``after`` hold the load average and the speed probe
    taken around the run.
    """
    return {
        "commit": _commit(),
        "source_sha256": source_digest(source_root()),
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "numba": _version("numba"),
        "loadavg_before": before["loadavg"],
        "loadavg_after": after["loadavg"],
        "speed_probe_ms_before": before["speed_probe_ms"],
        "speed_probe_ms_after": after["speed_probe_ms"],
    }


def machine_state() -> dict:
    """Load average and speed probe, read before and after a run."""
    return {"loadavg": list(os.getloadavg()), "speed_probe_ms": speed_probe_ms()}
