"""Per-layer metrics: their names, and how spans turn into them.

:data:`PER_LAYER` is the one list of per-layer metrics.  Each entry
names its unit, which direction is better, and — written down before
any change is measured against it — which end-to-end metric on which
workload it should move.  ``BENCHMARK.json`` lists the same names (the
self-tests check that), and ``METRICS.md`` renders the table.

A traced run reports every metric on every workload; a layer the
workload never reaches reads 0.
"""

from __future__ import annotations

from collections import defaultdict

from common import percentile

SCENARIOS = ("usd", "zealots", "noise", "graph", "gossip")

_KERNEL = "ensemble-lockstep: interactions_per_s, latency_p50_ms; sweep-process: interactions_per_s; barely service-mixed"
_SCENARIO = "sweep-process: interactions_per_s, latency_p50_ms"
_EXECUTOR = "sweep-process: interactions_per_s, latency_p50_ms; nothing on ensemble-lockstep"
_SESSION = "sweep-process: latency_p50_ms; service-mixed: latency_p50_ms of cold requests"
_CACHE_LOAD = "service-mixed: latency_p50_ms (warm reads dominate); nothing on ensemble-lockstep"
_CACHE_STORE = "service-mixed: latency_p90_ms of cold requests (result file); nothing on ensemble-lockstep"
_JOBS = "service-mixed: latency_p50_ms"
_SERVICE = "service-mixed: latency_p50_ms; latency_p90_ms and goodput_rps (result file)"

#: (name, unit, better, what it should move).
PER_LAYER = (
    ("kernel.calls", "count", "lower", _KERNEL),
    ("kernel.replicates", "count", "higher", _KERNEL),
    ("kernel.interactions", "count", "higher", _KERNEL),
    ("kernel.batch_width", "count", "higher", _KERNEL),
    ("kernel.busy_s", "s", "lower", _KERNEL),
    ("kernel.interactions_per_busy_s", "1/s", "higher", _KERNEL),
    *(
        (f"scenario.{name}.busy_s", "s", "lower", _SCENARIO)
        for name in SCENARIOS
    ),
    ("executor.chunks", "count", "lower", _EXECUTOR),
    ("executor.replicates_per_chunk", "count", "higher", _EXECUTOR),
    ("executor.transport_bytes", "bytes", "lower", _EXECUTOR),
    ("executor.pool_spawns", "count", "lower", _EXECUTOR),
    ("executor.worker_busy_s", "s", "lower", _EXECUTOR),
    ("executor.utilisation", "ratio", "higher", _EXECUTOR),
    ("executor.scaling_efficiency", "ratio", "higher", _EXECUTOR),
    ("costmodel.prediction_error", "ratio", "lower", _EXECUTOR),
    ("session.self_s", "s", "lower", _SESSION),
    ("session.ensembles", "count", "higher", _SESSION),
    ("session.replicates_simulated", "count", "higher", _SESSION),
    ("session.replicates_from_cache", "count", "higher", _SESSION),
    ("cache.probes", "count", "higher", _CACHE_LOAD),
    ("cache.hit_ratio", "ratio", "higher", _CACHE_LOAD),
    ("cache.bytes_read", "bytes", "lower", _CACHE_LOAD),
    ("cache.bytes_written", "bytes", "lower", _CACHE_STORE),
    ("cache.load_s", "s", "lower", _CACHE_LOAD),
    ("cache.store_s", "s", "lower", _CACHE_STORE),
    ("jobs.parse_s", "s", "lower", _JOBS),
    ("jobs.render_s", "s", "lower", _JOBS),
    ("jobs.response_bytes", "bytes", "lower", _JOBS),
    ("service.requests", "count", "higher", _SERVICE),
    ("service.submitted", "count", "lower", _SERVICE),
    ("service.coalesced", "count", "higher", _SERVICE),
    ("service.served_from_cache", "count", "higher", _SERVICE),
    ("service.rejected", "count", "lower", _SERVICE),
    ("service.front_door_ms", "ms", "lower", _SERVICE),
    ("service.engine_wait_ms", "ms", "lower", _SERVICE),
    (
        "loadgen.late_ms",
        "ms",
        "lower",
        "validity check on service-mixed: a late generator invalidates its latencies",
    ),
    (
        "trace.overhead_ratio",
        "ratio",
        "lower",
        "none: traced p50 latency over untraced p50 latency, per workload",
    ),
)

UNITS = {name: unit for name, unit, _, _ in PER_LAYER}


def in_window(spans, start: float, end: float):
    """Spans that began inside ``[start, end]``."""
    return [span for span in spans if start <= span.start <= end]


def _index(spans):
    return {(span.pid, span.id): span for span in spans}


def _parent(span, index):
    return index.get((span.pid, span.parent))


def _top_level(spans, index, names):
    """Spans in ``names`` not nested inside another span in ``names``."""
    return [
        span
        for span in spans
        if span.name in names
        and (_parent(span, index) is None or _parent(span, index).name not in names)
    ]


def _job_keys(spans):
    """spec identity -> job keys, in time order, per process."""
    keyed = defaultdict(list)
    for span in sorted(spans, key=lambda s: s.start):
        if span.name == "jobs.key" and span.attrs and span.attrs.get("key"):
            keyed[(span.pid, span.attrs["spec_id"])].append(span)
    return keyed


def _key_of(span, keyed):
    """The job key of the latest ``jobs.key`` span for this span's spec."""
    candidates = keyed.get((span.pid, (span.attrs or {}).get("spec_id")), ())
    best = None
    for candidate in candidates:
        if candidate.start <= span.start:
            best = candidate
    return best


def engine_intervals(spans) -> dict:
    """job key -> (start, end) of engine and cache calls made for it."""
    keyed = _job_keys(spans)
    intervals = defaultdict(list)
    for span in spans:
        if span.name in ("session.ensemble", "session.sweep", "session.cached"):
            key_span = _key_of(span, keyed)
            if key_span is not None:
                intervals[key_span.attrs["key"]].append((span.start, span.end))
    return intervals


def engine_wait_ms(spans):
    """Per job that ran on the engine: ms from its key being computed to the engine starting it."""
    keyed = _job_keys(spans)
    waits = []
    for span in spans:
        if span.name in ("session.ensemble", "session.sweep"):
            key_span = _key_of(span, keyed)
            if key_span is not None:
                waits.append((span.start - key_span.start) * 1000.0)
    return waits


def worker_busy_s(spans) -> float:
    """Seconds pool workers spent running chunks."""
    return sum(
        s.seconds for s in _top_level(spans, _index(spans), {"executor.chunk"})
    )


def from_spans(spans) -> dict:
    """Every per-layer metric that spans alone determine."""
    index = _index(spans)
    children = defaultdict(float)
    for span in spans:
        if span.parent:
            children[(span.pid, span.parent)] += span.seconds

    kernel = [s for s in spans if s.name == "kernel" and s.attrs]
    calls = len(kernel)
    replicates = sum(s.attrs["replicates"] for s in kernel)
    interactions = sum(s.attrs["interactions"] for s in kernel)
    kernel_busy = sum(s.seconds for s in kernel)
    metrics = {
        "kernel.calls": calls,
        "kernel.replicates": replicates,
        "kernel.interactions": interactions,
        "kernel.batch_width": replicates / calls if calls else 0.0,
        "kernel.busy_s": kernel_busy,
        "kernel.interactions_per_busy_s": (
            interactions / kernel_busy if kernel_busy else 0.0
        ),
    }
    busy = defaultdict(float)
    for span in _top_level(spans, index, {"scenario"}):
        busy[span.attrs["scenario"]] += span.seconds
    for name in SCENARIOS:
        metrics[f"scenario.{name}.busy_s"] = busy[name]

    metrics["executor.worker_busy_s"] = worker_busy_s(spans)
    metrics["session.self_s"] = sum(
        s.seconds - children[(s.pid, s.id)]
        for s in _top_level(spans, index, {"session.ensemble", "session.sweep"})
    )

    loads = [s for s in spans if s.name == "cache.load" and s.attrs]
    stores = [s for s in spans if s.name == "cache.store" and s.attrs]
    hits = sum(1 for s in loads if s.attrs["hit"])
    metrics.update(
        {
            "cache.probes": len(loads),
            "cache.hit_ratio": hits / len(loads) if loads else 0.0,
            "cache.bytes_read": sum(s.attrs["bytes"] for s in loads),
            "cache.bytes_written": sum(s.attrs["bytes"] for s in stores),
            "cache.load_s": sum(
                s.seconds
                for s in _top_level(spans, index, {"session.cached", "cache.load"})
            ),
            "cache.store_s": sum(s.seconds for s in stores),
        }
    )
    metrics["jobs.parse_s"] = sum(
        s.seconds for s in _top_level(spans, index, {"jobs.parse", "jobs.key"})
    )
    metrics["jobs.render_s"] = sum(
        s.seconds for s in _top_level(spans, index, {"jobs.render"})
    )
    metrics["jobs.response_bytes"] = sum(
        s.attrs["bytes"] for s in spans if s.name == "jobs.response" and s.attrs
    )
    waits = engine_wait_ms(spans)
    metrics["service.engine_wait_ms"] = percentile(waits, 50).value if waits else 0.0
    return metrics


def complete(metrics: dict) -> dict:
    """``metrics`` with every per-layer name present (0 where a layer was not reached)."""
    return {
        name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
        for name, unit in UNITS.items()
    }
