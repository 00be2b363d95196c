"""Dispatcher tests: retry, backoff, timeout, drain."""

from __future__ import annotations

import asyncio
import random
import time
from concurrent.futures import Executor, Future

import pytest

from repro.exceptions import ServiceError
from repro.service.queue import JobQueue, QueueConfig
from repro.service.store import RunStore


def _fast_config(**overrides) -> QueueConfig:
    defaults = dict(
        max_workers=1,
        backoff_base=0.02,
        backoff_factor=2.0,
        backoff_cap=0.1,
        poll_interval=0.01,
    )
    defaults.update(overrides)
    return QueueConfig(**defaults)


def _run_queue(store: RunStore, config: QueueConfig, *, timeout=30.0):
    """Start a queue, drain it, stop it — inside one event loop."""

    async def scenario() -> None:
        queue = JobQueue(store, config)
        await queue.start()
        try:
            await queue.join(timeout=timeout)
        finally:
            await queue.stop()

    asyncio.run(scenario())


class TestConfig:
    def test_rejects_negative_workers(self) -> None:
        # Zero is the fleet-only topology (no in-process pool);
        # anything below is still malformed.
        assert QueueConfig(max_workers=0).max_workers == 0
        with pytest.raises(ServiceError):
            QueueConfig(max_workers=-1)

    def test_rejects_nonpositive_timeout(self) -> None:
        with pytest.raises(ServiceError):
            QueueConfig(job_timeout=0)

    def test_backoff_ceiling_schedule(self) -> None:
        config = QueueConfig(
            backoff_base=0.5, backoff_factor=2.0, backoff_cap=3.0
        )
        assert config.backoff_ceiling(1) == pytest.approx(0.5)
        assert config.backoff_ceiling(2) == pytest.approx(1.0)
        assert config.backoff_ceiling(3) == pytest.approx(2.0)
        assert config.backoff_ceiling(10) == pytest.approx(3.0)  # capped
        # Without an RNG the schedule degrades to the raw ceiling.
        assert config.backoff(3) == pytest.approx(2.0)

    def test_backoff_full_jitter_stays_within_bounds(self) -> None:
        config = QueueConfig(
            backoff_base=0.5, backoff_factor=2.0, backoff_cap=3.0
        )
        rng = random.Random(7)
        for attempt in range(1, 16):
            delay = config.backoff(attempt, rng)
            assert 0.0 <= delay <= config.backoff_ceiling(attempt)
            assert delay <= config.backoff_cap

    def test_backoff_jitter_is_seed_deterministic(self) -> None:
        config = QueueConfig(
            backoff_base=0.5, backoff_factor=2.0, backoff_cap=3.0
        )
        first = [config.backoff(a, random.Random(3)) for a in range(1, 8)]
        second = [config.backoff(a, random.Random(3)) for a in range(1, 8)]
        assert first == second


class TestDispatch:
    def test_runs_jobs_to_done(self, tmp_path) -> None:
        with RunStore(tmp_path / "runs.db") as store:
            ids = [store.submit("sleep", {"seconds": 0}) for _ in range(3)]
            _run_queue(store, _fast_config(max_workers=2))
            assert {store.get(i).state for i in ids} == {"done"}
            assert all(store.get(i).result for i in ids)

    def test_failure_retries_then_fails(self, tmp_path) -> None:
        with RunStore(tmp_path / "runs.db") as store:
            run_id = store.submit(
                "sleep", {"fail": True, "seconds": 0}, max_attempts=3
            )
            _run_queue(store, _fast_config())
            record = store.get(run_id)
            assert record.state == "failed"
            assert record.attempts == 3
            assert "sleep job asked to fail" in record.error

    def test_backoff_deadline_written_between_attempts(self, tmp_path) -> None:
        # Observe the intermediate queued-with-deadline state directly.
        with RunStore(tmp_path / "runs.db") as store:
            run_id = store.submit("sleep", {"fail": True}, max_attempts=2)

            async def scenario() -> None:
                queue = JobQueue(
                    store, _fast_config(backoff_base=5.0, backoff_cap=60.0)
                )
                await queue.start()
                try:
                    for _ in range(500):
                        record = store.get(run_id)
                        if record.state == "queued" and record.attempts == 1:
                            break
                        await asyncio.sleep(0.01)
                    record = store.get(run_id)
                    assert record.state == "queued"
                    assert record.attempts == 1
                    # Full jitter: the deadline lands anywhere in
                    # [now, now + ceiling]; assert the bounds, not a
                    # fixed offset (near-zero draws are legal).
                    assert record.not_before >= record.updated_at - 1.0
                    assert record.not_before <= record.updated_at + 5.0
                    assert "sleep job asked to fail" in record.error
                finally:
                    await queue.stop()

            asyncio.run(scenario())

    def test_timeout_lands_failed(self, tmp_path) -> None:
        with RunStore(tmp_path / "runs.db") as store:
            run_id = store.submit(
                "sleep", {"seconds": 30.0}, max_attempts=1
            )
            _run_queue(store, _fast_config(job_timeout=0.3), timeout=30.0)
            record = store.get(run_id)
            assert record.state == "failed"
            assert "timeout" in record.error

    def test_bad_params_fail_without_validation_at_submit(self, tmp_path) -> None:
        # The store accepts anything; validation failures inside the
        # worker are ordinary failures with the typed message recorded.
        with RunStore(tmp_path / "runs.db") as store:
            run_id = store.submit(
                "sleep", {"seconds": "soon"}, max_attempts=1
            )
            _run_queue(store, _fast_config())
            record = store.get(run_id)
            assert record.state == "failed"
            assert "seconds" in record.error

    def test_graceful_stop_leaves_queued_runs(self, tmp_path) -> None:
        with RunStore(tmp_path / "runs.db") as store:
            ids = [
                store.submit("sleep", {"seconds": 0.5}) for _ in range(4)
            ]

            async def scenario() -> None:
                queue = JobQueue(store, _fast_config())
                await queue.start()
                await asyncio.sleep(0.15)  # first job in flight
                await queue.stop(graceful=True)

            asyncio.run(scenario())
            states = [store.get(i).state for i in ids]
            # Graceful: nothing is left 'running'; in-flight work was
            # recorded, the rest stays queued for the next start.
            assert "running" not in states
            assert states.count("done") >= 1
            assert states.count("queued") >= 1

    def test_call_cancelled_by_a_pool_rebuild_is_retried(self, tmp_path) -> None:
        # Rebuilding the pool for one job (timeout, crash) cancels the
        # calls still queued in the old pool.  The cancelled job must be
        # retried, not left 'running' with the queue waiting forever.
        with RunStore(tmp_path / "runs.db") as store:
            run_id = store.submit("sleep", {"seconds": 0}, max_attempts=2)
            queue = JobQueue(store, _fast_config())

            class RebuiltUnderfoot(Executor):
                def submit(self, fn, /, *args, **kwargs):
                    queue._executor = Executor()  # another job's rebuild
                    cancelled: Future = Future()
                    cancelled.cancel()
                    return cancelled

            async def scenario() -> None:
                queue._executor = RebuiltUnderfoot()
                await queue._run_job(store.claim_next(time.time()))

            asyncio.run(scenario())
            record = store.get(run_id)
            assert record.state == "queued"
            assert "pool rebuild" in record.error
