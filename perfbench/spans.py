"""Spans recorded from outside the program, by wrapping its public entry points.

:func:`install` replaces each entry point named in :data:`ENTRY_POINTS`
with a wrapper that records one span per call: name, start, end, the
span that encloses it on the same thread, and a few attributes (counts,
byte sizes, the identity of the spec a call worked on).  Nothing in
``src/`` changes.  Spans stay in memory; each process writes its own to
``<out_dir>/spans-<pid>.json`` when it ends, and :func:`load_spans`
gathers them.  Times are ``time.perf_counter`` readings, which on Linux
come from the system-wide monotonic clock, so spans from the load
generator, the server and pool workers share one time axis.

Worker processes that ``multiprocessing`` forks after :func:`install`
(the engine's pool) inherit the wrappers; an after-fork callback gives
each an empty span list and writes it out when the worker exits.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import multiprocessing.util
import os
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Span:
    id: int
    parent: int
    name: str
    start: float
    end: float
    thread: int
    pid: int
    attrs: dict | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.rows: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # multiprocessing clears its exit finalizers in a new worker before
        # running its after-fork callbacks, so register the dump from one.
        multiprocessing.util.register_after_fork(self, Tracer._forked)

    def _forked(self) -> None:
        self.pid = os.getpid()
        self.rows = []
        self._local = threading.local()
        multiprocessing.util.Finalize(None, self.dump, exitpriority=100)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, describe=None):
        """``fn`` with a span around every call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = describe(args, kwargs, result) if describe else None
                self.rows.append(
                    (span_id, parent, name, start, end, threading.get_ident(), attrs)
                )

        return traced

    def dump(self) -> Path:
        """Write this process's spans to ``spans-<pid>.json``."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.json"
        path.write_text(json.dumps({"pid": self.pid, "spans": self.rows}))
        return path


def load_spans(out_dir: Path) -> list[Span]:
    """Every span written under ``out_dir``, from every process."""
    spans = []
    for path in sorted(Path(out_dir).glob("spans-*.json")):
        payload = json.loads(path.read_text())
        spans.extend(Span(*row[:6], payload["pid"], row[6]) for row in payload["spans"])
    return spans


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
def _kernel(args, kwargs, result):
    if result is None:
        return None
    return {"replicates": len(kwargs["rngs"]), "interactions": int(result[1].sum())}


def _scenario(args, kwargs, result):
    return {"scenario": args[1].scenario}


def _spec_id(args, kwargs, result):
    return {"spec_id": id(args[1])}


def _entry_bytes(cache, key) -> int:
    try:
        return cache._path(key).stat().st_size
    except OSError:
        return 0


def _cache_load(args, kwargs, result):
    hit = result is not None
    return {"hit": hit, "bytes": _entry_bytes(args[0], args[1]) if hit else 0}


def _cache_store(args, kwargs, result):
    return {"bytes": _entry_bytes(args[0], args[1])}


def _job_key(args, kwargs, result):
    return {"spec_id": id(args[0].spec), "key": result}


def _response(args, kwargs, result):
    return {"bytes": len(result) if result is not None else 0}


#: (module, attribute, span name, describe).  A dotted attribute names a
#: method on a class; a bare one names a module function, which is
#: replaced in every loaded ``repro`` module that imported it by name.
ENTRY_POINTS = (
    ("repro.core.lockstep", "lockstep_batch", "kernel", _kernel),
    ("repro.engine.executors", "_worker", "executor.chunk", None),
    ("repro.engine.executors", "_timed_worker", "executor.chunk", None),
    ("repro.engine.executors", "_shm_worker", "executor.chunk", None),
    ("repro.engine.executors", "_shm_sweep_worker", "executor.chunk", None),
    ("repro.engine.session", "Engine.ensemble", "session.ensemble", _spec_id),
    ("repro.engine.session", "Engine.sweep", "session.sweep", _spec_id),
    ("repro.engine.session", "Engine.cached_ensemble", "session.cached", _spec_id),
    ("repro.engine.cache", "EnsembleCache.load", "cache.load", _cache_load),
    ("repro.engine.cache", "EnsembleCache.store", "cache.store", _cache_store),
    ("repro.service.jobs", "parse_ensemble", "jobs.parse", None),
    ("repro.service.jobs", "parse_sweep", "jobs.parse", None),
    ("repro.service.jobs", "EnsembleJob.key", "jobs.key", _job_key),
    ("repro.service.jobs", "SweepJob.key", "jobs.key", _job_key),
    ("repro.service.jobs", "result_to_jsonable", "jobs.render", None),
    ("repro.service.jobs", "results_to_jsonable", "jobs.render", None),
    ("repro.service.jobs", "summarize_results", "jobs.render", None),
    ("repro.service.http", "json_response", "jobs.response", _response),
)


def _replace_everywhere(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`ENTRY_POINTS` and each scenario's chunk runner."""
    for module_name, attr, name, describe in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if "." in attr:
            owner_name, method = attr.split(".")
            owner = getattr(module, owner_name)
            setattr(owner, method, tracer.wrap(vars(owner)[method], name, describe))
        else:
            original = getattr(module, attr)
            _replace_everywhere(original, tracer.wrap(original, name, describe))
    from repro.engine import available_scenarios, get_scenario

    defining = set()
    for scenario in available_scenarios():
        for cls in type(get_scenario(scenario)).__mro__:
            if "run_chunk" in vars(cls):
                defining.add(cls)
                break
    for cls in defining:
        cls.run_chunk = tracer.wrap(vars(cls)["run_chunk"], "scenario", _scenario)
