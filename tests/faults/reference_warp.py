"""The record-by-record fault warp: the differential oracle for the column warp.

This is the hook's original application loop.  It takes a traced
:class:`~repro.simulation.events.SimulationResult`, warps every
:class:`~repro.simulation.events.TaskRecord` through the scalar
:meth:`~repro.faults.hooks.FaultHook.wallclock`, drops the tasks that end
after the crash and accounts for the rest one record at a time.  It
implements the checkpoint semantics of :mod:`repro.faults.hooks` in the
most direct way, so the property suite compares the engine's column
warp against it bit for bit — outcomes, makespans and warped records.
:func:`reference_apply_dag` does the same for the DAG engine's records.
"""

from __future__ import annotations

from dataclasses import replace

from repro.exceptions import SimulationError
from repro.faults.hooks import FaultHook, FaultOutcome
from repro.simulation.events import SimulationResult

__all__ = ["reference_apply", "reference_apply_dag"]


def reference_apply(
    hook: FaultHook, result: SimulationResult
) -> tuple[SimulationResult, FaultOutcome]:
    """Warp a traced result record by record; return ``(warped, outcome)``."""
    if not result.records:
        raise SimulationError(
            "fault hooks need a traced simulation (record_trace=True)"
        )
    crash_at = hook.crash_at
    survivors = []
    lost_work = 0.0
    completed = {s: 0 for s in range(result.spec.scenarios)}
    finished_posts = {s: 0 for s in range(result.spec.scenarios)}
    for record in result.records:
        start = hook.wallclock(record.start)
        end = hook.wallclock(record.end)
        if crash_at is not None and end > crash_at:
            if start < crash_at:
                lost_work += (crash_at - start) * record.n_procs
            continue
        survivors.append(replace(record, start=start, end=end))
        if record.kind == "main":
            completed[record.scenario] += 1
        else:
            finished_posts[record.scenario] += 1
    makespan = max((r.end for r in survivors), default=0.0)
    main_makespan = max(
        (r.end for r in survivors if r.kind == "main"), default=0.0
    )
    pending_posts = {
        s: completed[s] - min(finished_posts[s], completed[s])
        for s in completed
    }
    months_lost = (
        result.spec.scenarios * result.spec.months - sum(completed.values())
        if crash_at is not None
        else 0
    )
    warped = replace(
        result,
        makespan=makespan,
        main_makespan=main_makespan,
        records=tuple(survivors),
    )
    outcome = FaultOutcome(
        cluster_name=result.cluster_name,
        crash_at=crash_at,
        completed_months=completed,
        pending_posts=pending_posts,
        months_lost=months_lost,
        lost_work_seconds=lost_work,
        makespan=makespan,
    )
    return warped, outcome


def reference_apply_dag(hook: FaultHook, result, dag):
    """Warp a traced DAG result record by record; return ``(warped, outcome)``."""
    if not result.records:
        raise SimulationError(
            "fault hooks need a traced simulation (record_trace=True)"
        )
    crash_at = hook.crash_at
    survivors = []
    finished_ids: set[str] = set()
    lost_work = 0.0
    total_mains = 0
    surviving_mains = 0
    for record in result.records:
        if record.kind == "main":
            total_mains += 1
        start = hook.wallclock(record.start)
        end = hook.wallclock(record.end)
        if crash_at is not None and end > crash_at:
            if start < crash_at:
                procs = record.procs_stop - record.procs_start
                lost_work += (crash_at - start) * procs
            continue
        survivors.append(replace(record, start=start, end=end))
        finished_ids.add(record.task_id)
        if record.kind == "main":
            surviving_mains += 1
    makespan = max((r.end for r in survivors), default=0.0)
    main_makespan = max(
        (r.end for r in survivors if r.kind == "main"), default=0.0
    )
    scenarios = sorted({t.scenario for t in dag.tasks()})
    completed = {s: 0 for s in scenarios}
    pending = {s: 0 for s in scenarios}
    for tid in dag.task_ids():
        task = dag.task(tid)
        if task.kind.value == "main":
            if tid in finished_ids:
                completed[task.scenario] += 1
        elif tid not in finished_ids and all(
            p in finished_ids for p in dag.predecessors(tid)
        ):
            pending[task.scenario] += 1
    warped = replace(
        result,
        makespan=makespan,
        main_makespan=main_makespan,
        records=tuple(survivors),
    )
    outcome = FaultOutcome(
        cluster_name="dag",
        crash_at=crash_at,
        completed_months=completed,
        pending_posts=pending,
        months_lost=total_mains - surviving_mains,
        lost_work_seconds=lost_work,
        makespan=makespan,
    )
    return warped, outcome
