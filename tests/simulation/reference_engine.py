"""The linear-scan reference engine: the differential oracle for ``simulate``.

This is the engine's original, instrumented-by-construction loop: the
main phase rescans the waiting set at every completion event and the
post phase replays the ready list against a ``(available_from,
proc_id)`` heap, building :class:`~repro.simulation.events.TaskRecord`
entries as it goes.  It implements the scheduling policy documented in
:mod:`repro.simulation.engine` in the most direct way, so the property
suite compares the production heap engine against it bit for bit —
makespans and the full ``records`` tuple.
"""

from __future__ import annotations

import heapq

from repro.core.grouping import Grouping
from repro.exceptions import SimulationError
from repro.platform.timing import TimingModel
from repro.simulation.events import SimulationResult, TaskRecord
from repro.simulation.groups import post_pool_range, proc_ranges
from repro.workflow.ocean_atmosphere import EnsembleSpec

__all__ = ["reference_simulate"]


def reference_simulate(
    grouping: Grouping,
    spec: EnsembleSpec,
    timing: TimingModel,
    *,
    cluster_name: str = "cluster",
    enforce_cardinality: bool = True,
) -> SimulationResult:
    """Simulate with the reference loops; records are always collected."""
    if enforce_cardinality:
        grouping.validate_against(timing, spec.scenarios)
    else:
        for g in grouping.group_sizes:
            timing.validate_group(g)
    group_times = [timing.main_time(g) for g in grouping.group_sizes]
    ranges = proc_ranges(grouping)
    main_records, post_ready, group_last_end = _run_main_phase(
        spec, group_times, ranges, True
    )
    main_makespan = max((end for _, _, _, end in post_ready), default=0.0)
    post_records, post_makespan = _run_post_phase(
        grouping, post_ready, group_last_end, ranges, timing.post_time(), True
    )
    return SimulationResult(
        makespan=max(main_makespan, post_makespan),
        main_makespan=main_makespan,
        grouping=grouping,
        spec=spec,
        cluster_name=cluster_name,
        records=tuple(main_records + post_records),
    )


def _run_main_phase(
    spec: EnsembleSpec,
    group_times: list[float],
    ranges: list[range],
    record_trace: bool,
) -> tuple[list[TaskRecord], list[tuple[float, int, int, float]], list[float]]:
    """Schedule every main task; return (records, post-ready list, last ends).

    ``post_ready`` entries are ``(ready_time, scenario, month, main_end)``
    tuples emitted in completion order (``ready_time == main_end``; the
    duplication keeps the post phase free of record lookups).
    """
    ns, nm = spec.scenarios, spec.months
    n_groups = len(group_times)

    months_done = [0] * ns
    wait_since = [0.0] * ns
    waiting: set[int] = set(range(ns))
    unstarted = ns * nm

    # (finish_time, group_index, scenario)
    running: list[tuple[float, int, int]] = []
    idle_groups: list[int] = list(range(n_groups))
    group_last_end = [0.0] * n_groups

    records: list[TaskRecord] = []
    post_ready: list[tuple[float, int, int, float]] = []

    def match(now: float, free: list[int]) -> None:
        """Assign waiting scenarios to free groups; leftovers go idle."""
        nonlocal unstarted
        free = sorted(free, key=lambda g: (group_times[g], g))
        while free and waiting and unstarted > 0:
            scenario = min(
                waiting, key=lambda s: (months_done[s], wait_since[s], s)
            )
            group = free.pop(0)
            month = months_done[scenario]
            end = now + group_times[group]
            heapq.heappush(running, (end, group, scenario))
            waiting.remove(scenario)
            unstarted -= 1
            if record_trace:
                records.append(
                    TaskRecord(
                        "main",
                        scenario,
                        month,
                        now,
                        end,
                        group,
                        ranges[group].start,
                        ranges[group].stop,
                    )
                )
        idle_groups.extend(free)

    # Kick-off: all groups free, all scenarios waiting, time 0.
    initial, idle_groups = idle_groups, []
    match(0.0, initial)

    while running:
        now, group, scenario = heapq.heappop(running)
        month = months_done[scenario]
        months_done[scenario] += 1
        group_last_end[group] = now
        post_ready.append((now, scenario, month, now))
        if months_done[scenario] < nm:
            waiting.add(scenario)
            wait_since[scenario] = now
        free, idle_groups[:] = [*idle_groups, group], []
        match(now, free)

    if unstarted != 0 or waiting:
        raise SimulationError(
            f"main phase ended with {unstarted} unstarted tasks and "
            f"{len(waiting)} waiting scenarios — engine invariant broken"
        )
    return records, post_ready, group_last_end


def _run_post_phase(
    grouping: Grouping,
    post_ready: list[tuple[float, int, int, float]],
    group_last_end: list[float],
    ranges: list[range],
    tp: float,
    record_trace: bool,
) -> tuple[list[TaskRecord], float]:
    """Schedule every post task; return (records, post-phase makespan)."""
    # Processor pool: (available_from, proc_id).
    pool: list[tuple[float, int]] = []
    for proc in post_pool_range(grouping):
        pool.append((0.0, proc))
    for group, rng in enumerate(ranges):
        for proc in rng:
            pool.append((group_last_end[group], proc))
    heapq.heapify(pool)

    if not pool:
        if post_ready:
            raise SimulationError(
                "no processor ever becomes available for post-processing "
                "tasks — grouping has no post pool and no groups?"
            )
        return [], 0.0

    records: list[TaskRecord] = []
    makespan = 0.0
    # Ready order with deterministic tie-breaks (time, scenario, month).
    for ready, scenario, month, _main_end in sorted(
        post_ready, key=lambda e: (e[0], e[1], e[2])
    ):
        free_at, proc = heapq.heappop(pool)
        start = max(free_at, ready)
        end = start + tp
        heapq.heappush(pool, (end, proc))
        if end > makespan:
            makespan = end
        if record_trace:
            records.append(
                TaskRecord("post", scenario, month, start, end, -1, proc, proc + 1)
            )
    return records, makespan
