"""The discrete-event makespan simulator (Section 4.3).

Main-task phase
    Groups are matched to scenarios greedily at every completion event:
    the *least advanced* waiting scenario (fewest finished months; ties
    broken by longest wait, then scenario id) is placed on the *fastest*
    free group (smallest ``T[g]``; ties broken by group index).  This is
    the paper's policy — "when a group becomes ready, the month of the
    less advanced simulation waiting is scheduled on this group" —
    extended deterministically to the heterogeneous group sizes produced
    by Improvements 1 and 3.

Post-task phase
    Every finished main task releases one post task.  Post tasks run on
    single processors: the dedicated post pool is available from time 0,
    and each main group's processors join the pool once the group has run
    its last main task (this realizes both the ``Rleft`` reuse of
    Equations 3/5 and Improvement 2's posts-at-the-end).  Posts are
    placed in ready order on the processor giving the earliest start —
    optimal for equal-length tasks with release dates on identical
    machines, so the simulator never under-reports a heuristic.

Complexity: ``O(NS·NM · log(NS + groups))`` for the main phase (heaps
of waiting scenarios, free groups and running tasks) and
``O(NS·NM · log R)`` for the post phase; a full paper-scale experiment
(10 × 1800 months) simulates in well under a second.

Decision stream
    There is one engine, and it runs whether or not anyone is watching.
    When ``record_trace`` is set or :mod:`repro.obs` is enabled, the main
    loop also appends one ``(start, end, group, scenario)`` tuple per
    dispatch to a plain list; everything observable is derived from that
    list after the run.  Task records number each scenario's dispatches
    to get the month and replay the post list, in ``(ready, scenario,
    month)`` order, on a ``(available_from, proc_id)`` heap to get
    processor ids; the metrics read task counts per group off the same
    list.  Observability only decides whether the list is built — never
    which loop runs.

    The makespan always comes from the float-only post loop.  Processor
    identity never changes timing, and carrying ``(time, proc)`` tuples
    through the hot loop made an NS=10, NM=1800 simulation 45–60% slower
    (2-vCPU VM), so proc ids are reconstructed only when records are
    asked for.  The original
    linear-scan loops live on in ``tests/simulation/reference_engine.py``
    as the differential oracle: the property suite pins makespans and
    the full records tuple bit for bit against them.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

from repro import obs
from repro.core.grouping import Grouping
from repro.exceptions import SimulationError
from repro.platform.cluster import ClusterSpec
from repro.platform.timing import TimingModel
from repro.simulation.events import SimulationResult, TaskRecord
from repro.simulation.groups import post_pool_range, proc_ranges
from repro.workflow.ocean_atmosphere import EnsembleSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.hooks import FaultHook

__all__ = ["simulate", "simulate_on_cluster"]

#: One main dispatch: ``(start, end, group, scenario)``.
_Dispatch = tuple[float, float, int, int]


def simulate(
    grouping: Grouping,
    spec: EnsembleSpec,
    timing: TimingModel,
    *,
    cluster_name: str = "cluster",
    record_trace: bool = False,
    enforce_cardinality: bool = True,
    faults: "FaultHook | None" = None,
) -> SimulationResult:
    """Simulate one ensemble on one cluster under a fixed grouping.

    Parameters
    ----------
    grouping:
        The processor partition to evaluate.
    spec:
        Ensemble dimensions (``NS`` scenarios × ``NM`` months).
    timing:
        The cluster's timing model; every group size must be admissible.
    record_trace:
        Collect per-task :class:`~repro.simulation.events.TaskRecord`
        entries (needed for Gantt charts and schedule validation).
    enforce_cardinality:
        Reject groupings with more groups than scenarios (the paper's
        rule).  Disable only for deliberately degenerate test inputs.
    faults:
        A compiled :class:`~repro.faults.hooks.FaultHook` for this
        cluster.  A no-op hook (or ``None``) is ignored, so fault-free
        results stay bit-for-bit identical.  A live hook simulates the
        fault-free schedule with records and returns it warped and
        crash-truncated; use
        :func:`repro.faults.hooks.simulate_with_faults` when the
        checkpoint-level :class:`~repro.faults.hooks.FaultOutcome` is
        needed too.
    """
    if faults is not None and not faults.is_noop:
        base = simulate(
            grouping,
            spec,
            timing,
            cluster_name=cluster_name,
            record_trace=True,
            enforce_cardinality=enforce_cardinality,
        )
        warped, _outcome = faults.apply(base, keep_records=record_trace)
        return warped
    if enforce_cardinality:
        grouping.validate_against(timing, spec.scenarios)
    else:
        for g in grouping.group_sizes:
            timing.validate_group(g)

    group_times = [timing.main_time(g) for g in grouping.group_sizes]
    tp = timing.post_time()

    observed = obs.enabled()
    stream: list[_Dispatch] | None = [] if record_trace or observed else None
    ready_times, group_last_end = _run_main_phase(spec, group_times, stream)
    main_makespan = ready_times[-1] if ready_times else 0.0
    post_makespan = _run_post_phase(grouping, ready_times, group_last_end, tp)
    makespan = max(main_makespan, post_makespan)

    records: tuple[TaskRecord, ...] = ()
    if stream is not None:
        if record_trace:
            records = _records(grouping, spec, stream, group_last_end, tp)
        if observed:
            _publish_stats(
                stream, cluster_name, group_times, group_last_end,
                makespan, main_makespan,
            )
    return SimulationResult(
        makespan=makespan,
        main_makespan=main_makespan,
        grouping=grouping,
        spec=spec,
        cluster_name=cluster_name,
        records=records,
    )


def simulate_on_cluster(
    cluster: ClusterSpec,
    grouping: Grouping,
    spec: EnsembleSpec,
    *,
    record_trace: bool = False,
) -> SimulationResult:
    """Convenience wrapper binding a grouping to a named cluster."""
    if grouping.total_resources != cluster.resources:
        raise SimulationError(
            f"grouping sized for {grouping.total_resources} processors but "
            f"cluster {cluster.name!r} has {cluster.resources}"
        )
    return simulate(
        grouping,
        spec,
        cluster.timing,
        cluster_name=cluster.name,
        record_trace=record_trace,
    )


def _records(
    grouping: Grouping,
    spec: EnsembleSpec,
    stream: list[_Dispatch],
    group_last_end: list[float],
    tp: float,
) -> tuple[TaskRecord, ...]:
    """Rebuild the schedule's task records from the decision stream.

    Main records follow dispatch order; a scenario's months are its
    dispatches counted in order, because a scenario is only dispatched
    once its previous month has finished.  Post records replay the ready
    list in ``(ready, scenario, month)`` order on a ``(available_from,
    proc_id)`` heap — the float-only post loop makes the same pops, so
    start and end times match the makespan it reported.
    """
    ranges = proc_ranges(grouping)
    months = [0] * spec.scenarios
    main: list[TaskRecord] = []
    ready: list[tuple[float, int, int]] = []
    for start, end, group, scenario in stream:
        month = months[scenario]
        months[scenario] = month + 1
        rng = ranges[group]
        main.append(
            TaskRecord("main", scenario, month, start, end, group, rng.start, rng.stop)
        )
        ready.append((end, scenario, month))
    ready.sort()

    pool = [(0.0, proc) for proc in post_pool_range(grouping)]
    for group, rng in enumerate(ranges):
        pool.extend((group_last_end[group], proc) for proc in rng)
    heapq.heapify(pool)
    posts: list[TaskRecord] = []
    for ready_at, scenario, month in ready:
        free_at, proc = heapq.heappop(pool)
        start = max(free_at, ready_at)
        end = start + tp
        heapq.heappush(pool, (end, proc))
        posts.append(TaskRecord("post", scenario, month, start, end, -1, proc, proc + 1))
    return tuple(main + posts)


def _publish_stats(
    stream: list[_Dispatch],
    cluster_name: str,
    group_times: list[float],
    group_last_end: list[float],
    makespan: float,
    main_makespan: float,
) -> None:
    """Flush one run's accounting to the global metrics registry.

    Every dispatch is one completion event and releases one post task.
    *Waves* is the deepest group's task count — how many times the
    busiest group turned around; *idle seconds* is the main phase's
    group-level slack: for each group, the gap between its last task's
    end and the time it spent computing (matching the paper's per-group
    reasoning).
    """
    tasks_per_group = [0] * len(group_times)
    for _start, _end, group, _scenario in stream:
        tasks_per_group[group] += 1
    obs.inc("simulation.runs", cluster=cluster_name)
    obs.inc("simulation.tasks", len(stream), cluster=cluster_name, kind="main")
    obs.inc("simulation.tasks", len(stream), cluster=cluster_name, kind="post")
    obs.inc("engine.events_dispatched", len(stream), cluster=cluster_name)
    obs.set_gauge(
        "simulation.makespan_seconds", makespan, cluster=cluster_name
    )
    obs.set_gauge(
        "simulation.main_makespan_seconds", main_makespan, cluster=cluster_name
    )
    if tasks_per_group:
        obs.set_gauge(
            "engine.waves", max(tasks_per_group), cluster=cluster_name
        )
        idle = sum(
            last_end - tasks * gt
            for last_end, tasks, gt in zip(
                group_last_end, tasks_per_group, group_times, strict=True
            )
        )
        obs.set_gauge(
            "engine.idle_seconds", idle, cluster=cluster_name, phase="main"
        )


def _run_main_phase(
    spec: EnsembleSpec,
    group_times: list[float],
    stream: list[_Dispatch] | None,
) -> tuple[list[float], list[float]]:
    """Schedule every main task; return ``(ready_times, group_last_end)``.

    The waiting set is a heap of ``(months_done, wait_since, scenario)``
    (keys are frozen while a scenario waits, so entries never go stale)
    and the free groups a heap of ``(T[g], g)``: each completion event
    pairs the least advanced waiting scenario with the fastest free
    group until one side runs out.  Ready times come back in completion
    order — nondecreasing, so the last entry is the main-phase makespan
    and the post phase needs no sort.  When ``stream`` is a list, every
    dispatch is appended to it as ``(start, end, group, scenario)``.
    """
    ns, nm = spec.scenarios, spec.months
    months_done = [0] * ns
    unstarted = ns * nm

    # Both comprehensions produce ascending sequences — already valid heaps.
    waiting: list[tuple[int, float, int]] = [(0, 0.0, s) for s in range(ns)]
    idle: list[tuple[float, int]] = sorted(
        (gt, g) for g, gt in enumerate(group_times)
    )
    running: list[tuple[float, int, int]] = []
    group_last_end = [0.0] * len(group_times)
    ready_times: list[float] = []

    push, pop = heapq.heappush, heapq.heappop
    now = 0.0
    while True:
        while idle and waiting and unstarted > 0:
            gt, group = pop(idle)
            _, _, scenario = pop(waiting)
            end = now + gt
            push(running, (end, group, scenario))
            if stream is not None:
                stream.append((now, end, group, scenario))
            unstarted -= 1
        if not running:
            break
        now, group, scenario = pop(running)
        done = months_done[scenario] + 1
        months_done[scenario] = done
        group_last_end[group] = now
        ready_times.append(now)
        if done < nm:
            push(waiting, (done, now, scenario))
        push(idle, (group_times[group], group))

    if unstarted != 0 or waiting:
        raise SimulationError(
            f"main phase ended with {unstarted} unstarted tasks and "
            f"{len(waiting)} waiting scenarios — engine invariant broken"
        )
    return ready_times, group_last_end


def _run_post_phase(
    grouping: Grouping,
    ready_times: list[float],
    group_last_end: list[float],
    tp: float,
) -> float:
    """The post phase on a float-only processor heap; returns its makespan.

    Processor identity never affects timing — the pool pops the earliest
    ``available_from`` either way — so the heap holds bare floats.  The
    ready list arrives sorted (main-phase completion order), and posts of
    equal ready time are interchangeable: whatever order they claim the
    two earliest processors in, the resulting pool and end-time multisets
    are identical, hence the same makespan as the proc-id replay.
    """
    pool: list[float] = [0.0] * grouping.post_pool
    for group, size in enumerate(grouping.group_sizes):
        pool.extend([group_last_end[group]] * size)
    heapq.heapify(pool)

    if not pool:
        if ready_times:
            raise SimulationError(
                "no processor ever becomes available for post-processing "
                "tasks — grouping has no post pool and no groups?"
            )
        return 0.0

    push, pop = heapq.heappush, heapq.heappop
    makespan = 0.0
    for ready in ready_times:
        free_at = pop(pool)
        end = (free_at if free_at > ready else ready) + tp
        push(pool, end)
        if end > makespan:
            makespan = end
    return makespan
