"""service_jobs: a closed loop of two clients against a live campaign server.

The server is ``repro-oa serve`` in its own process, with a fresh store
and a pool of two workers.  Two client threads in this process, each
on its own connection, run ``submit -> wait -> result`` back to back
over a seeded mix of small ``simulate`` and ``campaign`` jobs; every
``LIST_EVERY`` jobs a client also lists recent runs, so store reads
happen beside store writes.  Latency is what the client sees, from
submit to result in hand.

The traced loop makes the same calls, plus a ``health`` round trip
every ``HEALTH_EVERY`` jobs (the protocol floor), and afterwards runs
``execute_job`` in this process on each distinct job's parameters to
split the server's time into execution and dispatch.
"""

from __future__ import annotations

import json
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from checks import digest, finite_at_least
from workloads import PassResult, percentile

#: Concurrent clients (closed loop: each waits for its result).
CLIENTS = 2
#: Pool workers of the server.
POOL_WORKERS = 2
#: A client lists recent runs after every this many of its jobs.
LIST_EVERY = 10
#: The traced loop probes ``health`` after every this many jobs.
HEALTH_EVERY = 5
#: Jobs per loop at least, so p90 has ten samples beyond it; the output
#: digest covers these first jobs, which every loop issues.
MIN_JOBS = {"full": 100, "tiny": 12}
#: Jobs drawn per seed; loops never get near the end of the list.
JOB_POOL = 5_000

_HEURISTICS = ("basic", "redistribute", "allpost_end", "knapsack")
_CLUSTERS = ("sagittaire", "grelon", "chti", "paravent", "azur")


def make_jobs(seed: int, count: int) -> list[tuple[str, dict[str, Any]]]:
    """A seeded mix: about two simulate jobs for each campaign job."""
    rng = random.Random(f"service_jobs:{seed}")
    jobs = []
    for _ in range(count):
        if rng.random() < 0.7:
            jobs.append(("simulate", {
                "cluster": rng.choice(_CLUSTERS),
                "resources": rng.randint(20, 60),
                "scenarios": rng.randint(4, 10),
                "months": rng.choice((6, 12)),
                "heuristic": rng.choice(_HEURISTICS),
            }))
        else:
            jobs.append(("campaign", {
                "clusters": rng.randint(2, 3),
                "resources": rng.choice((30, 40)),
                "scenarios": rng.randint(4, 8),
                "months": rng.choice((6, 12)),
                "heuristic": rng.choice(_HEURISTICS),
            }))
    return jobs


def _peak_rss_kb(pid: str) -> int:
    """``VmHWM`` of a live process (``"self"`` for this one)."""
    status = Path(f"/proc/{pid}/status").read_text()
    found = re.search(r"VmHWM:\s+(\d+) kB", status)
    return int(found.group(1)) if found is not None else 0


def _above_lower_bound(kind: str, params: dict[str, Any], payload: Any) -> bool:
    """Whether the job's makespan is finite and not below its lower bound.

    A campaign may spread over all its clusters, so only the chain bound
    of its fastest cluster applies to it.
    """
    from repro.core.bounds import lower_bounds
    from repro.platform.benchmarks import benchmark_grid, benchmark_timing
    from repro.workflow.ocean_atmosphere import EnsembleSpec

    spec = EnsembleSpec(params["scenarios"], params["months"])
    if kind == "simulate":
        timing = benchmark_timing(params["cluster"])
        bound = lower_bounds(params["resources"], spec, timing).combined
    else:
        grid = benchmark_grid(params["clusters"], params["resources"])
        bound = min(lower_bounds(c.resources, spec, c.timing).chain for c in grid)
    return finite_at_least(payload["data"]["data"]["makespan"], bound)


def _key(kind: str, params: dict[str, Any]) -> str:
    return json.dumps([kind, params], sort_keys=True)


@dataclass
class JobRecord:
    index: int
    submit_s: float
    wait_s: float
    result_s: float
    #: wall-clock instant the client saw the run done (same clock as the store).
    seen_done_at: float
    status: dict[str, Any] | None
    payload: Any
    error: str | None = None

    @property
    def latency_s(self) -> float:
        return self.submit_s + self.wait_s + self.result_s


class ServiceWorkload:
    prefix = "service"
    observed = False
    seed_independent_outputs = False

    def __init__(self, name: str, seed: int, size: str, workdir: Path) -> None:
        self.size = size
        self.jobs = make_jobs(seed, JOB_POOL)
        self.inputs_digest = digest(self.jobs)
        self.workdir = workdir
        self.db = workdir / "service.db"
        for stale in workdir.glob("service.db*"):
            stale.unlink()
        self.log = open(workdir / "server.log", "w", encoding="utf-8")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--db", str(self.db),
             "--port", "0", "--workers", str(POOL_WORKERS)],
            stdout=subprocess.PIPE, stderr=self.log, text=True,
        )
        self.port = self._read_port()
        self._warm_up()
        self.next_job = 0
        self.client_peak_rss_kb = 0
        self.expected: dict[str, tuple[Any, float]] = {}

    def _read_port(self) -> int:
        assert self.server.stdout is not None
        line = self.server.stdout.readline()
        found = re.search(r"listening on [^:]+:(\d+)", line)
        if found is None:
            self.close()
            raise RuntimeError(f"campaign server did not start: {line!r}")
        return int(found.group(1))

    def _warm_up(self) -> None:
        """Run one job of each kind per pool worker, so workers are up.

        A server starts its pool workers and their imports on the first
        jobs; users pay that once per server, not per job, so it counts
        as set-up here.
        """
        from repro.service.client import ServiceClient

        with ServiceClient(port=self.port, timeout=60.0) as client:
            run_ids = [
                client.submit(kind, {})
                for kind in ("simulate", "campaign")
                for _ in range(POOL_WORKERS)
            ]
            for run_id in run_ids:
                client.wait(run_id, timeout=60.0)

    # -- the closed loop ----------------------------------------------------

    def _client(self, deadline: float, min_jobs: int, traced: bool,
                records: list[JobRecord], probes: dict[str, list[float]],
                lock: threading.Lock) -> None:
        from repro.exceptions import ServiceError
        from repro.service.client import ServiceClient

        done = 0
        with ServiceClient(port=self.port, timeout=60.0) as client:
            while True:
                with lock:
                    if time.perf_counter() >= deadline and self.next_job >= min_jobs:
                        return
                    index = self.next_job
                    self.next_job += 1
                kind, params = self.jobs[index]
                t0 = time.perf_counter()
                try:
                    run_id = client.submit(kind, params)
                    t1 = time.perf_counter()
                    status = client.wait(run_id, timeout=60.0)
                    seen = time.time()
                    t2 = time.perf_counter()
                    payload = client.result(run_id)["result"]
                    t3 = time.perf_counter()
                    record = JobRecord(index, t1 - t0, t2 - t1, t3 - t2, seen,
                                       status, payload)
                except ServiceError as exc:
                    record = JobRecord(index, 0.0, 0.0, 0.0, 0.0, None, None,
                                       error=str(exc))
                with lock:
                    records.append(record)
                done += 1
                if done % LIST_EVERY == 0:
                    started = time.perf_counter()
                    client.runs(limit=20)
                    probes["list"].append(time.perf_counter() - started)
                if traced and done % HEALTH_EVERY == 0:
                    started = time.perf_counter()
                    client.health()
                    probes["health"].append(time.perf_counter() - started)

    def run_loop(self, seconds: float, traced: bool) -> PassResult:
        """Run the closed loop for ``seconds`` (and at least ``MIN_JOBS`` jobs)."""
        records: list[JobRecord] = []
        probes: dict[str, list[float]] = {"list": [], "health": []}
        lock = threading.Lock()
        self.next_job = 0  # every loop issues the same jobs, in order
        started = time.perf_counter()
        crashes: list[BaseException] = []

        def client() -> None:
            try:
                self._client(started + seconds, MIN_JOBS[self.size], traced,
                             records, probes, lock)
            except BaseException as exc:  # re-raised below, in this thread
                crashes.append(exc)

        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        if crashes:
            raise crashes[0]
        self.client_peak_rss_kb = _peak_rss_kb("self")

        exec_s = self._expect(records)
        failed = 0
        for record in records:
            if record.error is not None or record.payload is None:
                failed += 1
                continue
            kind, params = self.jobs[record.index]
            expected, _ = self.expected[_key(kind, params)]
            if (
                record.status["state"] != "done"
                or record.payload != expected
                or not _above_lower_bound(kind, params, record.payload)
            ):
                failed += 1
        ok = [r for r in records if r.error is None]
        first = sorted(
            (r for r in ok if r.index < MIN_JOBS[self.size]),
            key=lambda r: r.index,
        )
        outcome = PassResult(
            wall, len(records), failed, [r.latency_s for r in ok],
            digest([r.payload["data"] for r in first]),
        )
        if traced and ok:
            outcome.layers = self._layers(ok, probes, exec_s)
        return outcome

    def _expect(self, records: list[JobRecord]) -> dict[int, float]:
        """Run ``execute_job`` in-process once per distinct job; time it."""
        from repro.service.workers import execute_job

        exec_s = {}
        for record in records:
            kind, params = self.jobs[record.index]
            key = _key(kind, params)
            if key not in self.expected:
                started = time.perf_counter()
                text = execute_job(kind, dict(params))
                self.expected[key] = (
                    json.loads(text), time.perf_counter() - started
                )
            exec_s[record.index] = self.expected[key][1]
        return exec_s

    def _layers(self, ok: list[JobRecord], probes: dict[str, list[float]],
                exec_s: dict[int, float]) -> dict[str, float]:
        def p50_ms(values: list[float]) -> float:
            return percentile(values, 50) * 1000 if values else 0.0

        server = [r.status["updated_at"] - r.status["created_at"] for r in ok]
        overshoot = [r.seen_done_at - r.status["updated_at"] for r in ok]
        execs = [exec_s[r.index] for r in ok]
        return {
            "service.submit_ms_p50": p50_ms([r.submit_s for r in ok]),
            "service.result_ms_p50": p50_ms([r.result_s for r in ok]),
            "service.list_ms_p50": p50_ms(probes["list"]),
            "service.health_rtt_ms_p50": p50_ms(probes["health"]),
            "service.server_ms_p50": p50_ms(server),
            "service.exec_ms_p50": p50_ms(execs),
            "service.dispatch_ms_p50": p50_ms(
                [s - e for s, e in zip(server, execs)]
            ),
            "service.wait_overshoot_ms_p50": p50_ms(overshoot),
            "service.wait_overshoot_share": percentile(
                [o / r.latency_s for o, r in zip(overshoot, ok)], 50
            ),
            "service.unattributed_ms_p50": p50_ms([
                r.latency_s - r.submit_s - s - o - r.result_s
                for r, s, o in zip(ok, server, overshoot)
            ]),
        }

    # -- process accounting -------------------------------------------------

    def peak_rss_kb(self) -> int:
        """Peak RSS of the clients' process, the server and its pool workers."""
        pids = [str(self.server.pid)]
        for task in Path(f"/proc/{self.server.pid}/task").glob("*"):
            pids.extend((task / "children").read_text().split())
        return self.client_peak_rss_kb + sum(_peak_rss_kb(pid) for pid in pids)

    def close(self) -> None:
        """Drain and stop the server (SIGINT, as Ctrl-C would) and wait."""
        if self.server.poll() is None:
            self.server.send_signal(signal.SIGINT)
            try:
                self.server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
        if self.server.stdout is not None:
            self.server.stdout.close()
        self.log.close()
        for stale in self.workdir.glob("service.db*"):
            stale.unlink()
