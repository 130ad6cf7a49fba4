"""service-mixed: an open-loop request mix against ``repro serve --cache``.

The service runs in its own process over a fresh cache directory.  One
load-generator process sends requests on a seeded, jittered schedule at
:data:`RATE` requests per second — below saturation — over ``nproc``
keep-alive connections, and times each request from when it was due.
Each block of requests holds the fixed mix :data:`MIX`, shuffled by the
workload seed:

* warm repeats of ensembles already answered during warm-up, each key
  once, so the service reads them from its on-disk cache;
* cold small ensembles, which it simulates and writes to the cache;
* a burst of ``nproc`` identical concurrent submissions (coalescing);
* a cold small sweep;
* polls of ``/v1/jobs/KEY`` and scrapes of ``/metrics``.

The warm answers are computed during set-up by a direct
``Engine.ensemble`` into the cache directory; every warm response must
equal that cold answer, and sampled cold responses must equal a direct
engine call rendered through ``result_to_jsonable``.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from common import WORK_DIR, child_env, nproc, open_loop, percentile

#: Offered load, requests per second.
RATE = 20.0
#: Requests answered correctly within this limit count toward goodput.
LATENCY_LIMIT_MS = 250.0
#: One block's mix; the burst entry stands for ``nproc`` identical requests.
MIX = {"warm": 32, "cold": 2, "burst": 1, "sweep": 1, "poll": 2, "metrics": 1}
#: (n, k) of cold ensembles, cycled so every run simulates the same shapes;
#: bursts use the first.  Cold work keeps the engine thread busy only a few
#: percent of the time: while it computes, warm reads wait for the GIL, and
#: a busier engine would make the median latency jump between two modes.
COLD_SHAPES = ((60, 2), (80, 3), (100, 2), (120, 3))
#: Cold submissions per run checked against a direct engine call.
CHECKED_COLD = 4
SERVER_TIMEOUT = 60.0


def warm_payload(i: int) -> dict:
    """The i-th warm ensemble: tiny, so set-up can compute hundreds, and distinct by seed."""
    return {
        "workload": "uniform",
        "params": {"n": 20 + 10 * (i % 3), "k": 2},
        "trials": 4,
        "seed": 1_000_000 + i,
    }


def schedule(seed: int, seconds: float, lanes: int):
    """The (offset, kind, payload) list a run sends, from the workload seed alone.

    Every run sends the same number of blocks, each holding exactly
    :data:`MIX`, in a seeded order.  Gaps are drawn uniformly between
    half and one and a half mean gaps, then scaled so the schedule spans
    ``seconds``: arrivals jitter but do not cluster, so with ``nproc``
    connections the latencies measure the service rather than requests
    queueing behind each other in the generator.
    """
    rng = np.random.default_rng(seed)
    kinds = [kind for kind, count in MIX.items() for _ in range(count)]
    blocks = max(1, round(RATE * seconds / len(kinds)))
    order = [kind for _ in range(blocks) for kind in rng.permutation(kinds)]
    offsets = np.cumsum(rng.uniform(0.5, 1.5, size=len(order)))
    offsets *= seconds / offsets[-1]
    plan, warm, cold = [], 0, 0
    for offset, kind in zip(offsets.tolist(), order):
        if kind == "warm":
            plan.append((offset, "warm", warm_payload(warm)))
            warm += 1
        elif kind in ("cold", "burst"):
            if kind == "burst":
                n, k = COLD_SHAPES[0]
            else:
                n, k = COLD_SHAPES[cold % len(COLD_SHAPES)]
                cold += 1
            payload = {
                "workload": "uniform",
                "params": {"n": n, "k": k},
                "trials": 4,
                "seed": int(rng.integers(0, 2**31)),
            }
            copies = lanes if kind == "burst" else 1
            plan.extend((offset, kind, payload) for _ in range(copies))
        elif kind == "sweep":
            payload = {
                "workload": "uniform",
                "params": {"n": [20, 40], "k": 2},
                "trials": 2,
                "seed": int(rng.integers(0, 2**31)),
            }
            plan.append((offset, "sweep", payload))
        else:
            plan.append((offset, kind, int(rng.integers(0, 1 << 30))))
    return plan


def _jsonable(value):
    return json.loads(json.dumps(value))


class Workload:
    name = "service-mixed"

    def __init__(self, seed: int, seconds: float, trace_dir: Path | None = None) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace_dir = trace_dir
        self.lanes = nproc()
        self.server = None
        self.conns: list[http.client.HTTPConnection] = []
        self.cache_dir = WORK_DIR / "tmp" / f"service-{os.getpid()}"

    # -- set-up ----------------------------------------------------------
    def setup(self) -> None:
        from repro.engine import Engine
        from repro.service.jobs import results_to_jsonable
        from repro.workloads import uniform_configuration

        self.plan = schedule(self.seed, self.seconds, self.lanes)
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir.mkdir(parents=True)
        command = [sys.executable]
        if self.trace_dir is not None:
            command += [
                str(Path(__file__).with_name("serve_traced.py")),
                str(self.trace_dir),
            ]
        else:
            command += ["-m", "repro"]
        command += [
            "serve",
            "127.0.0.1:0",
            "--backend",
            "batched",
            "--executor",
            "serial",
            "--cache",
            "--cache-dir",
            str(self.cache_dir),
        ]
        self.server = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, env=child_env()
        )
        # While the server starts, answer every warm request directly into
        # its cache directory; the answers are what warm responses must equal.
        self.cold_answers = {}
        with Engine(
            backend="batched", executor="serial", cache=True, cache_dir=str(self.cache_dir)
        ) as eng:
            for _, kind, payload in self.plan:
                if kind != "warm":
                    continue
                config = uniform_configuration(**payload["params"])
                results = eng.ensemble(config, payload["trials"], seed=payload["seed"])
                self.cold_answers[payload["seed"]] = _jsonable(results_to_jsonable(results))
        self.host, self.port = self._await_listening()
        self.conns = [
            http.client.HTTPConnection(self.host, self.port, timeout=SERVER_TIMEOUT)
            for _ in range(self.lanes)
        ]
        # Untimed warm-up through the front door: code paths, and the
        # job keys the timed polls ask about.
        self.poll_keys = []
        for i in range(4):
            status, body = self._request(
                0,
                "POST",
                "/v1/ensemble",
                {"workload": "uniform", "params": {"n": 100, "k": 2}, "trials": 4, "seed": i},
            )
            if status != 200:
                raise RuntimeError(f"warm-up submission answered {status}")
            self.poll_keys.append(body["key"])
        self._request(1 % self.lanes, "GET", "/metrics", None)

    def _await_listening(self):
        for line in self.server.stdout:
            if line.startswith("service: listening on "):
                host, port = line.rsplit(" ", 1)[1].strip().rsplit(":", 1)
                return host, int(port)
        raise RuntimeError("the service exited without reporting a listening address")

    def _request(self, lane: int, method: str, path: str, body):
        conn = self.conns[lane]
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        try:
            conn.request(method, path, body=data, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except (ConnectionError, http.client.HTTPException, OSError):
            conn.close()  # dial afresh on the next request
            raise
        if response.headers.get("Content-Type", "").startswith("application/json"):
            return response.status, json.loads(raw)
        return response.status, raw

    # -- timed phase -----------------------------------------------------
    def _send(self, lane: int, i: int):
        _, kind, payload = self.plan[i]
        if kind in ("warm", "cold", "burst"):
            return self._request(lane, "POST", "/v1/ensemble", payload)
        if kind == "sweep":
            return self._request(lane, "POST", "/v1/sweep", payload)
        if kind == "poll":
            key = self.poll_keys[payload % len(self.poll_keys)]
            return self._request(lane, "GET", f"/v1/jobs/{key}", None)
        return self._request(lane, "GET", "/metrics", None)

    def metrics_json(self) -> dict:
        status, body = self._request(0, "GET", "/metrics?format=json", None)
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return body

    def run(self) -> dict:
        before = self.metrics_json()
        start = time.perf_counter()
        sent = open_loop([offset for offset, _, _ in self.plan], self._send, self.lanes)
        end = time.perf_counter()
        after = self.metrics_json()
        self.sent = sent
        self.window = (start, end)
        self.counts = self._counts(before, after)
        failed = self.verify(sent)
        latencies = [s.latency for s in sent]
        good = sum(
            1
            for i, s in enumerate(sent)
            if i not in failed and s.latency * 1000.0 <= LATENCY_LIMIT_MS
        )
        interactions = 0
        for i, s in enumerate(sent):
            if i in failed or s.outcome is None:
                continue
            _, body = s.outcome
            for results in _result_lists(self.plan[i][1], body):
                interactions += sum(int(r.get("interactions") or 0) for r in results)
        wall = end - start
        return {
            "window": (start, end),
            "attempted": len(sent),
            "failed": len(failed),
            "latencies": latencies,
            "interactions": interactions,
            "info": {
                "requests": len(sent),
                "rate_rps": RATE,
                "lanes": self.lanes,
                "latency_p90_ms": percentile(latencies, 90).as_dict(),
                "goodput_rps": good / wall,
                "latency_limit_ms": LATENCY_LIMIT_MS,
                "late_p90_ms": percentile([s.late for s in sent], 90).value * 1000.0,
            },
        }

    # -- output checks ---------------------------------------------------
    def verify(self, sent) -> set[int]:
        """Indices of requests that failed or answered wrongly."""
        from repro.engine import Engine
        from repro.service.jobs import parse_sweep, results_to_jsonable
        from repro.workloads import uniform_configuration

        failed = set()
        cold = []
        bursts: dict[int, list[int]] = {}
        for i, s in enumerate(sent):
            _, kind, payload = self.plan[i]
            if s.error is not None or s.outcome is None:
                failed.add(i)
                continue
            status, body = s.outcome
            if status != 200:
                failed.add(i)
                continue
            if kind == "warm":
                if not body.get("served_from_cache") or (
                    body["results"] != self.cold_answers[payload["seed"]]
                ):
                    failed.add(i)
            elif kind in ("cold", "sweep"):
                cold.append(i)
            elif kind == "burst":
                bursts.setdefault(payload["seed"], []).append(i)
            elif kind == "poll" and body.get("status") != "done":
                failed.add(i)
        for members in bursts.values():
            first = sent[members[0]].outcome[1]["results"]
            if any(sent[j].outcome[1]["results"] != first for j in members[1:]):
                failed.update(members)
            cold.append(members[0])
        if not cold:
            return failed
        picks = np.random.default_rng(self.seed + 1).choice(
            len(cold), size=min(CHECKED_COLD, len(cold)), replace=False
        )
        with Engine(backend="batched", executor="serial", cache=False) as eng:
            for pick in map(int, picks):
                i = cold[pick]
                _, kind, payload = self.plan[i]
                body = sent[i].outcome[1]
                if kind == "sweep":
                    job = parse_sweep(dict(payload))
                    run = eng.sweep(job.spec, seed=job.seed, seed_derivation=job.seed_derivation)
                    expected = [_jsonable(results_to_jsonable(c.results)) for c in run]
                    got = [cell["results"] for cell in body["cells"]]
                else:
                    config = uniform_configuration(**payload["params"])
                    expected = _jsonable(
                        results_to_jsonable(
                            eng.ensemble(config, payload["trials"], seed=payload["seed"])
                        )
                    )
                    got = body["results"]
                if got != expected:
                    failed.add(i)
        return failed

    # -- per-layer numbers -----------------------------------------------
    @staticmethod
    def _counts(before: dict, after: dict) -> dict:
        from common import session_counts

        service = {
            f"service.{name}": after["service"][name] - before["service"][name]
            for name in ("requests", "submitted", "coalesced", "served_from_cache", "rejected")
        }
        session = session_counts(before["engine"], after["engine"])
        return {
            **service,
            **{k: v for k, v in session.items() if k.startswith("session.")},
        }

    def layer_extras(self, spans) -> dict:
        """Front-door and generator numbers, which need the client's records."""
        from layers import engine_intervals

        engine = engine_intervals(spans)
        front = []
        for i, s in enumerate(self.sent):
            if s.outcome is None or not isinstance(s.outcome[1], dict):
                continue
            key = s.outcome[1].get("key")
            if key is None or self.plan[i][1] in ("poll", "metrics"):
                continue
            inside = sum(
                max(0.0, min(end, s.done) - max(begin, s.sent))
                for begin, end in engine.get(key, ())
            )
            front.append((s.done - s.sent - inside) * 1000.0)
        return {
            **self.counts,
            "service.front_door_ms": percentile(front, 50).value if front else 0.0,
            "loadgen.late_ms": percentile([s.late for s in self.sent], 90).value * 1000.0,
        }

    def close(self) -> None:
        for conn in self.conns:
            conn.close()
        if self.server is not None:
            if self.server.poll() is None:
                self.server.send_signal(signal.SIGTERM)
            try:
                self.server.communicate(timeout=SERVER_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.communicate()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def _result_lists(kind: str, body: dict):
    if kind in ("warm", "cold", "burst"):
        return [body.get("results") or []]
    if kind == "sweep":
        return [cell.get("results") or [] for cell in body.get("cells", [])]
    return []
