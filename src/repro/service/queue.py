"""The job queue — an asyncio dispatcher over a process worker pool.

The dispatcher loop claims eligible runs from the
:class:`~repro.service.store.RunStore` (oldest first, honouring
per-run backoff deadlines), executes each on a
:class:`~concurrent.futures.ProcessPoolExecutor` via
:func:`repro.service.workers.execute_job`, and writes the outcome back:

* success → ``done`` with the serialized result;
* failure with attempts left → re-``queued`` with a full-jitter
  exponential backoff deadline (uniform over ``[0, min(base *
  factor**(attempt-1), cap)]`` — simultaneous failures never retry in
  lock-step);
* failure on the last attempt → ``failed`` with the error recorded;
* per-job timeout → treated as a failure (the stuck worker is
  abandoned and the pool rebuilt so the slot is not lost).

A :class:`~repro.faults.chaos.ChaosConfig` arms the queue with
deterministic fault injection: each claimed execution may be hit by an
injected worker crash, forced timeout, or transient executor error
*instead of* running, consuming the attempt and exercising exactly the
retry/backoff and pool-rebuild paths above.  Decisions depend only on
``(seed, run_id, attempt)``, so chaotic campaigns replay identically.

Because every transition is a durable store write *before* the next
claim, the queue is crash-safe: a process killed mid-job leaves the row
``running``, and the next server start requeues it via
``recover_interrupted``.

Shutdown is graceful by default — the dispatcher stops claiming, and
in-flight jobs finish and are recorded; queued runs simply stay queued
for the next start.  ``graceful=False`` abandons in-flight work (the
crash path, used deliberately by the resilience tests).
"""

from __future__ import annotations

import asyncio
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro import obs
from repro.exceptions import ReproError, ServiceError
from repro.faults.chaos import ChaosConfig, ChaosMonkey
from repro.obs.tracing import WORKER_PID
from repro.service.store import RUN_STATES, RunRecord, RunStore
from repro.service.workers import execute_job, execute_job_traced

__all__ = ["JobQueue", "QueueConfig", "full_jitter_backoff"]

_log = obs.get_logger(__name__)


def full_jitter_backoff(
    attempt: int,
    *,
    base: float,
    factor: float,
    cap: float,
    rng: random.Random | None = None,
) -> float:
    """Full-jitter (AWS style) retry delay after the ``attempt``-th failure.

    Uniform over ``[0, min(base * factor**(attempt-1), cap)]`` — many
    callers failing together spread their retries instead of
    thundering back in lock-step.  Without an ``rng`` the ceiling
    itself is returned (the deterministic worst case).  Shared by the
    dispatcher's retry scheduling, the fleet worker's idle polling,
    and the client's connect retries.
    """
    ceiling = min(base * factor ** max(0, attempt - 1), cap)
    if rng is None:
        return ceiling
    return rng.uniform(0.0, ceiling)


@dataclass(frozen=True)
class QueueConfig:
    """Tunables of the dispatcher and its worker pool."""

    #: Worker processes (concurrent jobs).  ``0`` disables the
    #: in-process pool entirely — the fleet-only topology, where the
    #: server just serves, recovers, and reaps while ``repro-oa
    #: worker`` processes execute.
    max_workers: int = 2
    #: Per-job wall-clock budget in seconds; ``None`` disables.
    job_timeout: float | None = None
    #: Default executions per run (submit can override per run).
    max_attempts: int = 3
    #: First retry delay in seconds.
    backoff_base: float = 0.5
    #: Delay multiplier per further attempt.
    backoff_factor: float = 2.0
    #: Upper bound on any single backoff delay.
    backoff_cap: float = 30.0
    #: Seed for the backoff jitter stream; ``None`` seeds from the OS.
    backoff_seed: int | None = None
    #: Idle dispatcher poll period in seconds.
    poll_interval: float = 0.05

    def __post_init__(self) -> None:
        if self.max_workers < 0:
            raise ServiceError(
                f"max_workers must be >= 0, got {self.max_workers!r}",
                code="bad-request",
            )
        if self.job_timeout is not None and self.job_timeout <= 0:
            raise ServiceError(
                f"job_timeout must be positive, got {self.job_timeout!r}",
                code="bad-request",
            )

    def backoff_ceiling(self, attempt: int) -> float:
        """The capped exponential bound on the ``attempt``-th retry delay."""
        delay = self.backoff_base * self.backoff_factor ** max(0, attempt - 1)
        return min(delay, self.backoff_cap)

    def backoff(self, attempt: int, rng: random.Random | None = None) -> float:
        """Retry delay after the ``attempt``-th failed execution.

        Delegates to :func:`full_jitter_backoff` with this config's
        base/factor/cap.
        """
        return full_jitter_backoff(
            attempt,
            base=self.backoff_base,
            factor=self.backoff_factor,
            cap=self.backoff_cap,
            rng=rng,
        )


class JobQueue:
    """Dispatch queued runs onto worker processes (see module docstring)."""

    def __init__(
        self,
        store: RunStore,
        config: QueueConfig | None = None,
        *,
        chaos: ChaosConfig | None = None,
    ) -> None:
        self.store = store
        self.config = config or QueueConfig()
        self.chaos = (
            ChaosMonkey(chaos)
            if chaos is not None and chaos.total_rate > 0
            else None
        )
        self._backoff_rng = random.Random(self.config.backoff_seed)
        self._executor: ProcessPoolExecutor | None = None
        self._dispatcher: asyncio.Task | None = None
        self._active: set[asyncio.Task] = set()
        self._wake: asyncio.Event | None = None
        self._stopping = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> int:
        """Recover interrupted runs and start dispatching.

        Returns the number of runs recovered from a previous process.
        """
        if self._wake is not None:
            raise ServiceError("queue already started", code="internal")
        recovered = self.store.recover_interrupted()
        if recovered:
            obs.log_event(_log, "service.recovered", runs=recovered)
        self._stopping = False
        self._wake = asyncio.Event()
        if self.config.max_workers > 0:
            self._executor = ProcessPoolExecutor(
                max_workers=self.config.max_workers
            )
            self._dispatcher = asyncio.create_task(self._dispatch_loop())
        self._publish_metrics()
        return recovered

    def kick(self) -> None:
        """Wake the dispatcher (call after a submit)."""
        if self._wake is not None:
            self._wake.set()

    async def join(self, timeout: float | None = None) -> None:
        """Wait until no run is queued or running (the queue is drained)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.store.unfinished():
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(
                    f"queue not drained within {timeout}s", code="timeout"
                )
            await asyncio.sleep(self.config.poll_interval)

    async def stop(self, *, graceful: bool = True) -> None:
        """Stop dispatching; finish (graceful) or abandon in-flight jobs.

        Graceful shutdown lets running jobs complete and records their
        outcomes; queued runs stay queued for the next start.  The
        non-graceful path cancels in-flight bookkeeping so rows stay
        ``running`` — exactly what a crash would leave behind.
        """
        self._stopping = True
        self.kick()
        if self._dispatcher is not None:
            await self._dispatcher
            self._dispatcher = None
        active = list(self._active)
        if graceful:
            if active:
                await asyncio.gather(*active, return_exceptions=True)
        else:
            for task in active:
                task.cancel()
            if active:
                await asyncio.gather(*active, return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=graceful, cancel_futures=True)
            self._executor = None
        self._wake = None
        self._publish_metrics()

    # -- dispatch ----------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        assert self._wake is not None
        while not self._stopping:
            if len(self._active) >= self.config.max_workers:
                await self._sleep(self.config.poll_interval)
                continue
            # One clock read per pass: the same instant decides both the
            # claim's eligibility and the idle sleep, so a deadline that
            # lands between two reads cannot make the job wait an extra
            # poll interval.
            now = time.time()
            record = self.store.claim_next(now)
            if record is None:
                await self._sleep(self._idle_delay(now))
                continue
            task = asyncio.create_task(self._run_job(record))
            self._active.add(task)
            task.add_done_callback(self._job_finished)
            self._publish_metrics()

    def _idle_delay(self, now: float) -> float:
        """How long to sleep when nothing was claimable at ``now``."""
        eligible_at = self.store.next_eligible_at()
        if eligible_at is None:
            return self.config.poll_interval
        return max(
            0.0, min(self.config.poll_interval, eligible_at - now)
        )

    async def _sleep(self, delay: float) -> None:
        assert self._wake is not None
        self._wake.clear()
        if delay <= 0:
            return
        try:
            await asyncio.wait_for(self._wake.wait(), timeout=delay)
        except asyncio.TimeoutError:
            pass

    def _job_finished(self, task: asyncio.Task) -> None:
        self._active.discard(task)
        self.kick()

    async def _run_job(self, record: RunRecord) -> None:
        executor = self._executor
        assert executor is not None
        loop = asyncio.get_running_loop()
        started = time.perf_counter()
        obs.observe(
            "service.queue_wait_seconds",
            max(0.0, time.time() - record.created_at),
            kind=record.kind,
        )
        with obs.span(
            "service.job",
            run_id=record.run_id,
            kind=record.kind,
            attempt=record.attempts,
            trace_id=record.trace_id,
        ) as dispatch_span:
            if self.chaos is not None:
                action = self.chaos.decide(record.run_id, record.attempts)
                if action is not None:
                    self._inject_chaos(action, record)
                    self._publish_metrics()
                    return
            try:
                if obs.enabled():
                    # Traced execution: the worker runs inside its own
                    # obs session and ships its span buffer back.  When
                    # collection is off, the plain entry point keeps
                    # workers on the uninstrumented fast paths.
                    trace_wire = None
                    if record.trace_id:
                        trace_wire = {
                            "trace_id": record.trace_id,
                            "run_id": record.run_id,
                            "parent_span_id": dispatch_span,
                        }
                    dispatch_us = obs.tracer().now_us()
                    future = loop.run_in_executor(
                        executor,
                        execute_job_traced,
                        record.kind,
                        record.params,
                        trace_wire,
                    )
                else:
                    dispatch_us = 0.0
                    future = loop.run_in_executor(
                        executor,
                        execute_job,
                        record.kind,
                        record.params,
                    )
                if self.config.job_timeout is not None:
                    outcome = await asyncio.wait_for(
                        future, timeout=self.config.job_timeout
                    )
                else:
                    outcome = await future
                if isinstance(outcome, str):
                    result = outcome
                else:
                    result = outcome["result"]
                    self._import_worker_spans(
                        record, outcome, dispatch_span, dispatch_us
                    )
            except asyncio.TimeoutError:
                self._rebuild_executor()
                self._record_failure(
                    record,
                    f"timeout: exceeded {self.config.job_timeout}s "
                    f"wall-clock budget",
                )
            except asyncio.CancelledError:
                # Another job's pool rebuild cancels the calls still
                # queued in the old pool: this attempt failed as on a
                # broken pool.  Any other cancellation is this task's own.
                if self._stopping or self._executor is executor:
                    raise
                self._record_failure(
                    record, "executor failure: call cancelled by a pool rebuild"
                )
            except ReproError as exc:
                self._record_failure(
                    record, f"{type(exc).__name__}: {exc}"
                )
            except Exception as exc:  # e.g. BrokenProcessPool
                self._rebuild_executor()
                self._record_failure(
                    record, f"executor failure: {exc!r}"
                )
            else:
                self.store.mark_done(record.run_id, result)
                obs.inc("service.jobs_done", kind=record.kind)
                obs.observe(
                    "service.job_seconds",
                    time.perf_counter() - started,
                    kind=record.kind,
                    outcome="done",
                )
                obs.log_event(
                    _log, "service.job_done",
                    run_id=record.run_id, kind=record.kind,
                    attempt=record.attempts,
                )
        self._publish_metrics()

    def _import_worker_spans(
        self,
        record: RunRecord,
        envelope: dict,
        parent_id: int | None,
        dispatch_us: float,
    ) -> None:
        """Graft a worker's span buffer onto the dispatcher's tracer.

        Worker spans are timed against the worker session's own epoch;
        offsetting by the dispatch instant (``dispatch_us``, read on
        this tracer's timeline just before the executor call) lines
        them up under the ``service.job`` span that sent them.  Worker
        span ids live in a different namespace, so they are kept as
        ``worker_span_id``/``worker_parent_id`` args and the imported
        spans all parent on the dispatch span.
        """
        if not obs.enabled():
            return
        spans = envelope.get("spans") or []
        worker_pid = int(envelope.get("worker_pid", 0))
        tracer = obs.tracer()
        for event in spans:
            args = dict(event.get("args", {}))
            args["worker_span_id"] = args.pop("span_id", None)
            worker_parent = args.pop("parent_id", None)
            if worker_parent is not None:
                args["worker_parent_id"] = worker_parent
            args["trace_id"] = record.trace_id
            args["run_id"] = record.run_id
            tracer.add_complete_span(
                str(event.get("name", "?")),
                ts=dispatch_us + float(event.get("ts", 0.0)),
                dur=float(event.get("dur", 0.0)),
                pid=WORKER_PID,
                tid=worker_pid,
                parent_id=parent_id,
                **args,
            )
        if spans:
            obs.inc("service.worker_spans", len(spans), kind=record.kind)

    def _inject_chaos(self, action: str, record: RunRecord) -> None:
        """Apply one injected failure, consuming this execution attempt.

        Each action exercises the same code path its real counterpart
        would: ``crash`` and ``timeout`` abandon the pool (rebuild),
        ``error`` is a plain failed attempt.  The job itself never runs.
        """
        assert self.chaos is not None
        self.chaos.record(action, record.run_id, record.kind)
        if action == "crash":
            self._rebuild_executor()
            self._record_failure(record, "chaos: injected worker crash")
        elif action == "timeout":
            self._rebuild_executor()
            self._record_failure(record, "chaos: injected forced timeout")
        else:
            self._record_failure(
                record, "chaos: injected transient executor error"
            )

    def _record_failure(self, record: RunRecord, error: str) -> None:
        """Route a failed execution to retry-with-backoff or terminal."""
        if record.attempts >= record.max_attempts:
            self.store.mark_failed(record.run_id, error)
            obs.inc("service.jobs_failed", kind=record.kind)
            obs.log_event(
                _log, "service.job_failed",
                run_id=record.run_id, kind=record.kind,
                attempt=record.attempts, error=error,
            )
            return
        delay = self.config.backoff(record.attempts, self._backoff_rng)
        self.store.requeue_for_retry(
            record.run_id, error, not_before=time.time() + delay
        )
        obs.inc("service.jobs_retried", kind=record.kind)
        obs.log_event(
            _log, "service.job_retry",
            run_id=record.run_id, kind=record.kind,
            attempt=record.attempts, backoff_s=delay, error=error,
        )

    def _rebuild_executor(self) -> None:
        """Replace the pool after a timeout/breakage reclaimed no slot.

        ``ProcessPoolExecutor`` cannot cancel a running call, so a
        timed-out job would otherwise occupy its worker forever; the old
        pool is abandoned (its stuck process exits when the call ends)
        and a fresh one takes over.
        """
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
        self._executor = ProcessPoolExecutor(
            max_workers=self.config.max_workers
        )

    def _publish_metrics(self) -> None:
        """Export queue depth and per-state job counts as gauges."""
        if not obs.enabled():
            return
        counts = self.store.counts_by_state()
        obs.set_gauge("service.queue_depth", counts["queued"])
        for state in RUN_STATES:
            obs.set_gauge("service.jobs", counts[state], state=state)
        obs.set_gauge("service.active_jobs", len(self._active))
