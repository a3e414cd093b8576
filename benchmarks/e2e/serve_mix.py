"""The ``serve-mix`` workload: load generator and daemon control.

The daemon runs in a child process (:mod:`serve_child`, i.e.
``python -m repro serve --workers 2``); this process is the client.  A
fixed seeded sequence of ``POST /v1/analyze`` requests, encoded during
set-up, is sent on at most two connections: first an open loop at
:data:`RATE` requests per second for the length of the run (latency
counted from the time each request was due), then a closed loop of a
fixed number of requests.  One request in five — at a seeded position in each block of
five — carries a RoX08 system in its own time unit (a store miss that
runs the degraded fixed-point loop); the others ask for
``example=rox08`` (store reads).

Both phases are a fixed request count, not a fixed time, because the
daemon slows down as it serves: its telemetry keeps every observation,
and on two cores its closed-loop rate fell from about 280 to 140
requests per second over 24 s.  A time-boxed closed loop would measure
a daemon state that depends on its own speed.

Checks, after the timed phases: every response is HTTP 200 with
``status: ok``, and every hit's ``data`` equals
``run_job(build_job("analyze", {"example": "rox08"})).data``.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import common

#: Open-loop arrival rate (requests per second).  A miss holds a worker
#: (and, in Python code, the interpreter lock) for 20-30 ms on two
#: cores; at 100 req/s a miss was in flight half of the time, the median
#: request sat on the edge between undisturbed hits (3 ms) and hits
#: waiting behind a miss (6-9 ms), and it jumped between the two from
#: run to run.  At 50 req/s the hits' quartiles stay within 3.4 ms.
RATE = 50.0
#: Concurrent connections of both loops.
CONNECTIONS = 2
#: Daemon dispatcher threads.
WORKERS = 2
#: Closed-loop requests per second of run: about 6 s after a 20 s open
#: loop, at the rate two workers sustain.
CLOSED_PER_SECOND = 50
#: Warm-up requests after the first (which stores the rox08 result).
WARM_UP = 8

Plan = List[Tuple[bool, bytes]]


# ----------------------------------------------------------------------
# HTTP on raw sockets (the daemon answers with Connection: close)
# ----------------------------------------------------------------------
def encode(method: str, path: str, body: Optional[dict] = None) -> bytes:
    payload = b"" if body is None else json.dumps(body).encode("utf-8")
    head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n")
    return head.encode("latin-1") + payload


def exchange(port: int, raw: bytes, timeout: float = 30.0
             ) -> Tuple[int, bytes]:
    """Send one request; ``(status, body)``, status 0 on a socket error."""
    try:
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=timeout) as sock:
            sock.sendall(raw)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
    except OSError:
        return 0, b""
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    try:
        return int(head.split(b" ", 2)[1]), body
    except (IndexError, ValueError):
        return 0, body


def get_json(port: int, path: str) -> dict:
    status, body = exchange(port, encode("GET", path))
    if status != 200:
        raise RuntimeError(f"GET {path}: HTTP {status}")
    return json.loads(body)


def scrape(port: int) -> Dict[str, float]:
    """``GET /metrics`` as ``{sample name with labels: value}``."""
    status, body = exchange(port, encode("GET", "/metrics"))
    if status != 200:
        raise RuntimeError(f"GET /metrics: HTTP {status}")
    samples = {}
    for line in body.decode("utf-8").splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            samples[name] = float(value)
    return samples


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def make_plan(seed: int, salt: str, n: int) -> Plan:
    """``n`` encoded requests, one miss at a seeded position in every
    block of five, each miss a RoX08 system in a time unit of its own."""
    import workloads

    base = workloads.rox08_dict()
    hit = encode("POST", "/v1/analyze", {"example": "rox08"})
    rng = random.Random(f"e2e:serve-mix:{seed}:{salt}:order")
    misses = [i for block in range(0, n, 5)
              for i in (block + rng.randrange(5),) if i < n]
    factors = iter(workloads.distinct_factors(seed, salt, len(misses)))
    plan: Plan = [(False, hit)] * n
    for i in misses:
        system = workloads.scale_dict(base, next(factors))
        plan[i] = (True, encode("POST", "/v1/analyze", {"system": system}))
    return plan


def reference_data() -> dict:
    from repro.batch.jobs import run_job
    from repro.serve.handlers import build_job

    result = run_job(build_job("analyze", {"example": "rox08"}))
    return json.loads(json.dumps(result.data))


# ----------------------------------------------------------------------
# the daemon
# ----------------------------------------------------------------------
class Daemon:
    """One daemon process started through :mod:`serve_child`."""

    def __init__(self, cache_dir: Path, ledger: bool = False,
                 obs_off: bool = False, ready_timeout: float = 60.0):
        flags = (["--ledger"] if ledger else []) + (
            ["--obs-off"] if obs_off else [])
        cmd = [sys.executable, str(common.HERE / "serve_child.py"), *flags,
               "--", "--port", "0", "--workers", str(WORKERS),
               "--cache-dir", str(cache_dir)]
        env = dict(os.environ, PYTHONPATH=str(common.SRC))
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                     cwd=str(common.ROOT), env=env)
        self.port = self._await_port(ready_timeout)

    def _await_port(self, timeout: float) -> int:
        pattern = re.compile(r"serving on [^:\s]+:(\d+)")
        line = common.read_line(self.proc, pattern.search, timeout)
        return int(pattern.search(line).group(1))

    def stop(self, timeout: float = 60.0) -> dict:
        """SIGTERM (graceful drain), then the launcher's report."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("serve daemon did not drain in time")
        for line in out.splitlines():
            if line.startswith(common.REPORT):
                return json.loads(line[len(common.REPORT):])
        raise RuntimeError(f"serve daemon exited {self.proc.returncode} "
                           f"without a report")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


# ----------------------------------------------------------------------
# load
# ----------------------------------------------------------------------
class Sample:
    __slots__ = ("index", "due", "sent", "done", "status", "body")

    def __init__(self, index, due, sent, done, status, body):
        self.index, self.due, self.sent = index, due, sent
        self.done, self.status, self.body = done, status, body

    @property
    def ok(self) -> bool:
        return self.status == 200

    def latency(self) -> float:
        """From the time the request was due; ``inf`` when it failed."""
        return self.done - self.due if self.ok else math.inf


def _run_threads(target) -> None:
    threads = [threading.Thread(target=target) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def open_loop(port: int, plan: Plan, start: int, n: int) -> List[Sample]:
    """Requests ``start .. start+n-1``, each due ``1/RATE`` s after the
    previous one whether or not earlier ones were answered."""
    t0 = time.perf_counter() + 0.05
    samples: List[Optional[Sample]] = [None] * n
    cursor = iter(range(n))
    lock = threading.Lock()

    def sender() -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            due = t0 + i / RATE
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            status, body = exchange(port, plan[start + i][1])
            samples[i] = Sample(start + i, due, sent, time.perf_counter(),
                                status, body)

    _run_threads(sender)
    return samples


def closed_loop(port: int, plan: Plan, start: int
                ) -> Tuple[List[Sample], float]:
    """Each connection sends its next request when its previous one is
    answered, until requests ``start ..`` of the plan are all sent.
    Returns the samples and the successful answers per second."""
    samples: List[Sample] = []
    lock = threading.Lock()
    cursor = iter(range(start, len(plan)))

    def sender() -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            sent = time.perf_counter()
            status, body = exchange(port, plan[i][1])
            sample = Sample(i, sent, sent, time.perf_counter(), status, body)
            with lock:
                samples.append(sample)

    t0 = time.perf_counter()
    _run_threads(sender)
    elapsed = time.perf_counter() - t0
    return samples, sum(1 for s in samples if s.ok) / elapsed


def problems_of(samples: List[Sample], plan: Plan, ref: dict) -> List[str]:
    """Correctness of every timed response."""
    problems = []
    for s in samples:
        if not s.ok:
            problems.append(f"request {s.index}: HTTP {s.status}")
            continue
        body = json.loads(s.body)
        if body.get("status") != "ok":
            problems.append(f"request {s.index}: status "
                            f"{body.get('status')}: {body.get('error')}")
        elif not plan[s.index][0] and body.get("data") != ref:
            problems.append(f"request {s.index}: rox08 data differs from "
                            f"run_job")
    return problems[:20]


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------
def start_daemon(work: Path, tag: str, warm: Plan, **kwargs
                 ) -> Tuple[Daemon, float]:
    """Spawn a daemon and send the warm-up requests; the daemon and the
    set-up time (spawn to the last warm-up answer)."""
    t0 = time.perf_counter()
    daemon = Daemon(work / f"serve-{tag}", **kwargs)
    for _miss, raw in warm:
        status, _ = exchange(daemon.port, raw)
        if status != 200:
            daemon.kill()
            raise RuntimeError(f"warm-up request: HTTP {status}")
    return daemon, time.perf_counter() - t0


def run(seed: int, seconds: float, trace: bool, setups: int,
        work: Path) -> dict:
    sys.path.insert(0, str(common.SRC))
    open_n = max(5, int(RATE * seconds / (3 if trace else 1)))
    closed_n = 0 if trace else max(5, int(CLOSED_PER_SECOND * seconds))
    plan = make_plan(seed, "timed", open_n + closed_n)
    warm = [(False, encode("POST", "/v1/analyze", {"example": "rox08"}))]
    warm += make_plan(seed, "warm-up", WARM_UP)
    ref = reference_data()
    if trace:
        return _traced(plan, warm, ref, open_n, work)

    setup_s = []
    for i in range(setups):
        daemon, setup = start_daemon(work, str(i), warm)
        setup_s.append(setup)
        if i < setups - 1:
            daemon.stop()
    try:
        opened = open_loop(daemon.port, plan, 0, open_n)
        closed, ops_per_s = closed_loop(daemon.port, plan, open_n)
    finally:
        report = daemon.stop()
    samples = opened + closed
    return {
        "setup_s": setup_s,
        "samples": [("miss" if plan[s.index][0] else "hit", s.latency())
                    for s in opened],
        "ops_per_s": ops_per_s,
        "late_p99_ms": common.percentile(
            [s.sent - s.due for s in opened], 99) * 1e3,
        "attempted": len(samples),
        "failed": sum(1 for s in samples if not s.ok),
        "peak_rss_mb": report["peak_rss_mb"],
        "problems": problems_of(samples, plan, ref),
    }


def _traced(plan: Plan, warm: Plan, ref: dict, n: int, work: Path) -> dict:
    """Three daemons, one open-loop window each: as served, with the
    daemon's telemetry off, and with the layer ledger installed."""
    runs: Dict[str, List[Sample]] = {}
    for tag, kwargs in (("plain", {}), ("obs-off", {"obs_off": True})):
        daemon, _ = start_daemon(work, tag, warm, **kwargs)
        try:
            runs[tag] = open_loop(daemon.port, plan, 0, n)
        finally:
            daemon.stop()

    daemon, _ = start_daemon(work, "ledger", warm, ledger=True)
    try:
        before = (scrape(daemon.port), get_json(daemon.port, "/healthz"))
        runs["ledger"] = open_loop(daemon.port, plan, 0, n)
        after = (scrape(daemon.port), get_json(daemon.port, "/healthz"))
    finally:
        report = daemon.stop()

    import ledger as _ledger

    samples = [s for run in runs.values() for s in run]
    served = after[1]["requests"]["requests"]
    metrics = _ledger.per_op(report["ledger"], served)
    metrics.update(_daemon_metrics(before, after, runs["ledger"]))
    p50 = {tag: common.median([s.latency() for s in run])
           for tag, run in runs.items()}
    metrics["obs.overhead_pct"] = (p50["plain"] / p50["obs-off"] - 1) * 100
    metrics["trace.overhead_pct"] = (p50["ledger"] / p50["plain"] - 1) * 100
    metrics["loadgen.late_p99_ms"] = common.percentile(
        [s.sent - s.due for s in runs["ledger"]], 99) * 1e3
    return {
        "metrics": metrics,
        "missing": report["ledger"]["missing"],
        "attempted": len(samples),
        "failed": sum(1 for s in samples if not s.ok),
        "problems": problems_of(samples, plan, ref),
    }


def _delta(before: dict, after: dict, key: str) -> float:
    return after.get(key, 0.0) - before.get(key, 0.0)


def _healthz_counters(health: dict) -> Dict[str, float]:
    """The counters :func:`ledger.counter_metrics` reads, from
    ``/healthz``."""
    out: Dict[str, float] = {}
    compiled = health.get("compile_cache") or {}
    if "hits" in compiled:
        out["compile.hits"] = compiled["hits"]
        out["compile.misses"] = compiled["misses"]
    kernels = health.get("kernels") or {}
    for key in ("batches", "lanes"):
        if key in kernels:
            out[f"kernels.{key}"] = kernels[key]
    pools = health.get("incremental")
    if pools is not None:
        for key in ("analyses", "resource_hits", "task_reuses",
                    "tasks_total"):
            out[f"memo.{key}"] = sum(p.get(key, 0) for p in pools.values())
    return out


def _daemon_metrics(before, after, samples: List[Sample]) -> Dict[str, float]:
    """Queue wait, execution and HTTP time per request, from the daemon's
    own ``/metrics`` histograms over the window; the store hit rate and
    engine counters from ``/healthz``."""
    import ledger as _ledger

    (m0, h0), (m1, h1) = before, after
    out: Dict[str, float] = {}
    wait_n = _delta(m0, m1, "repro_serve_queue_wait_seconds_count")
    exec_key = 'repro_serve_endpoint_seconds_{}{{endpoint="analyze"}}'
    exec_n = _delta(m0, m1, exec_key.format("count"))
    if wait_n and exec_n:
        wait = _delta(m0, m1, "repro_serve_queue_wait_seconds_sum") / wait_n
        execute = _delta(m0, m1, exec_key.format("sum")) / exec_n
        client = sum(s.done - s.sent for s in samples) / len(samples)
        out["serve.queue_wait_ms"] = wait * 1e3
        out["serve.execute_ms"] = execute * 1e3
        out["serve.http_ms"] = (client - wait - execute) * 1e3
    r0, r1 = h0["requests"], h1["requests"]
    hits = r1["cache_hits"] - r0["cache_hits"]
    total = hits + r1["cache_misses"] - r0["cache_misses"]
    out["serve.cache_hit_rate"] = hits / total if total else 0.0
    c0, c1 = _healthz_counters(h0), _healthz_counters(h1)
    out.update(_ledger.counter_metrics(
        {key: value - c0.get(key, 0) for key, value in c1.items()},
        len(samples)))
    return out
