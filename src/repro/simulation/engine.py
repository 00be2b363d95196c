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

How it runs
    The main phase is one heap loop (:func:`_replay`: heaps of waiting
    scenarios, free groups and running tasks), preceded, when there are
    no more groups than scenarios, by a no-idle fast-forward
    (:func:`_fast_forward`).  Until the first scenario finishes, every
    freed group is dispatched again at once, so group ``g``'s completions
    are the sequential running sums of ``T[g]``; ``np.cumsum`` adds
    float64 in the same order as ``now + gt`` and so reproduces them bit
    for bit, and a stable sort of those sums yields the heap loop's
    ``(end, group)`` pop order.  Only the scenario choice — one
    ``heappushpop`` per completion — stays sequential.  The heap loop
    then replays the tail from the reconstructed state, or the whole
    phase when groups outnumber scenarios or ``NS·NM`` is below the
    measured crossover where numpy set-up costs more than it saves.

    The post phase is a heap-free two-pointer merge of the sorted initial
    processor pool and a FIFO of post ends.  Ready times arrive sorted
    and each post takes the pool's minimum free time, so post ends never
    decrease and the FIFO needs no heap.  Both rewrites make the same
    float operations on the same operands as a plain heap replay;
    ``docs/PERFORMANCE.md`` has the measurements.

Decision stream
    There is one engine, and it runs whether or not anyone is watching.
    When ``record_trace`` is set or :mod:`repro.obs` is enabled, the main
    phase also appends one ``(start, end, group, scenario)`` tuple per
    dispatch to a plain list; everything observable is derived from that
    list after the run.  Task records number each scenario's dispatches
    to get the month and replay the post list, in ``(ready, scenario,
    month)`` order, on a ``(available_from, proc_id)`` heap to get
    processor ids; the metrics read task counts per group off the same
    list.  Observability only decides whether the list is built — never
    which loop runs.

    The makespan always comes from the float-only post merge.  Processor
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
import math
from collections import deque
from typing import TYPE_CHECKING

import numpy as np

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

#: Below this many main tasks (``NS·NM``) the numpy set-up of
#: :func:`_fast_forward` costs more than it saves, and the heap loop
#: runs the whole main phase.  Measured crossover: 44–60 tasks at
#: NS = 4, 6 and 10 on fig7 ``sagittaire`` groupings (2-vCPU VM,
#: Python 3.11.7; see docs/PERFORMANCE.md).
_FAST_FORWARD_MIN_TASKS = 56


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
    proc_id)`` heap — the float-only post merge takes the same free
    times, so start and end times match the makespan it reported.
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
    (keys are frozen while a scenario waits, so entries never go stale),
    the free groups a heap of ``(T[g], g)`` and the running tasks a heap
    of ``(end, group, scenario)``.  With no more groups than scenarios,
    :func:`_fast_forward` first plays the stretch where no group idles;
    :func:`_replay` then runs the rest of the schedule (all of it when
    there are more groups than scenarios).  Ready times come back in
    completion order — nondecreasing, so the last entry is the
    main-phase makespan.  When ``stream`` is a list, every dispatch is
    appended to it as ``(start, end, group, scenario)``.
    """
    ns, nm = spec.scenarios, spec.months
    months_done = [0] * ns
    # Both comprehensions produce ascending sequences — already valid heaps.
    waiting: list[tuple[int, float, int]] = [(0, 0.0, s) for s in range(ns)]
    idle: list[tuple[float, int]] = sorted(
        (gt, g) for g, gt in enumerate(group_times)
    )
    running: list[tuple[float, int, int]] = []
    group_last_end = [0.0] * len(group_times)
    ready_times: list[float] = []
    unstarted = ns * nm
    # The fast-forward needs every group busy from t=0 and running sums
    # that grow (a positive fastest time sizes its horizon).
    if (
        ns * nm >= _FAST_FORWARD_MIN_TASKS
        and len(group_times) <= ns
        and idle[0][0] > 0.0
    ):
        unstarted -= _fast_forward(
            nm, group_times, months_done, waiting, idle, running,
            ready_times, stream,
        )
    _replay(
        nm, group_times, months_done, waiting, idle, running, unstarted,
        group_last_end, ready_times, stream,
    )
    return ready_times, group_last_end


def _fast_forward(
    nm: int,
    group_times: list[float],
    months_done: list[int],
    waiting: list[tuple[int, float, int]],
    idle: list[tuple[float, int]],
    running: list[tuple[float, int, int]],
    ready_times: list[float],
    stream: list[_Dispatch] | None,
) -> int:
    """Play the main phase up to the first finish; return the dispatches made.

    With ``k <= NS`` groups all ``k`` start at time 0.  Until a scenario
    runs its last month, each completion puts its scenario back among
    the waiting, so the freed group — the only free one — is dispatched
    again at once.  Group ``g``'s tasks therefore end at the running sums
    of ``T[g]``, which ``np.cumsum`` reproduces bit for bit (it adds
    float64 in order, as ``now + gt`` does), and completions arrive in
    ``(end, group)`` order: a stable argsort of the group-major sums, the
    heap loop's own pop order.  Only the scenario choice stays
    sequential — one ``heappushpop`` on the waiting heap per completion.

    Only completions ending before every group's last generated sum are
    merged; no group has an ungenerated completion before that cutoff,
    so the merge is exact wherever it stops.  Play stops at the first
    finish (left unprocessed) or at the cutoff, with the state as the
    heap loop would have it after the same completions — every group
    running, ``idle`` empty — for :func:`_replay` to continue from.
    """
    k, ns = len(group_times), len(months_done)
    # Initial wave: the i-th fastest group takes scenario i.
    current = [0] * k
    gt_min = idle[0][0]
    for scenario in range(k):
        gt, group = heapq.heappop(idle)
        heapq.heappop(waiting)
        current[group] = scenario
        if stream is not None:
            stream.append((0.0, gt, group, scenario))

    # At most NS·(NM-1) + 1 completions precede the first finish.  The
    # fastest group's ``steps`` sums end at a cutoff before which the k
    # groups complete at least that many tasks (each group's count below
    # the cutoff is short of ``cutoff / T[g]`` by less than one, hence the
    # ``+ k``); the slower groups' sums past the cutoff go unused.
    need = ns * (nm - 1) + 1 + k
    steps = int(need / sum(gt_min / gt for gt in group_times)) + 2
    # Row g is group g's running sum; flat index = g * steps + task.
    column = np.asarray(group_times)[:, None]
    sums = np.full((k, steps), column).cumsum(axis=1)
    ends = sums.ravel()
    order = np.argsort(ends, kind="stable")
    order = order[: np.count_nonzero(ends < sums[:, -1].min())]
    times = ends[order].tolist()
    groups = (order // steps).tolist()

    # ``now + T[g]`` is the group's next sum: the same float addition.
    append = stream.append if stream is not None else None
    pushpop = heapq.heappushpop
    for group, now in zip(groups, times):
        scenario = current[group]
        done = months_done[scenario] + 1
        if done == nm:
            break
        months_done[scenario] = done
        scenario = pushpop(waiting, (done, now, scenario))[2]
        current[group] = scenario
        if append is not None:
            append((now, now + group_times[group], group, scenario))

    played = sum(months_done)
    del times[played:]
    ready_times.extend(times)
    # Every group is running; its next end follows the sums it used.
    taken = np.bincount(order[:played] // steps, minlength=k).tolist()
    running.extend(
        (float(sums[group, n]), group, current[group])
        for group, n in enumerate(taken)
    )
    heapq.heapify(running)
    return k + played


def _replay(
    nm: int,
    group_times: list[float],
    months_done: list[int],
    waiting: list[tuple[int, float, int]],
    idle: list[tuple[float, int]],
    running: list[tuple[float, int, int]],
    unstarted: int,
    group_last_end: list[float],
    ready_times: list[float],
    stream: list[_Dispatch] | None,
) -> None:
    """The event loop, continued from the given state to the end.

    Each completion event pairs the least advanced waiting scenario with
    the fastest free group until one side runs out.
    """
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


def _run_post_phase(
    grouping: Grouping,
    ready_times: list[float],
    group_last_end: list[float],
    tp: float,
) -> float:
    """The post phase as a heap-free merge; returns its makespan.

    Each post takes the earliest free processor.  Processor identity
    never affects timing, so only free times are kept: the sorted
    initial pool (the post pool at 0, each group's processors from its
    last main end) and a FIFO of the ends of posts already placed.  Post
    ends never decrease — ready times arrive sorted (main-phase
    completion order) and each post starts no earlier than the free
    time it took, which is itself the minimum of a pool that only grows
    upward — so the FIFO stays sorted, the earliest free time is the
    smaller of the two heads, and the last end is the makespan.  Posts
    of equal ready time are interchangeable: whatever order they claim
    the two earliest processors in, the resulting free-time and end-time
    multisets are identical, hence the same makespan as the proc-id
    replay.
    """
    pool: list[float] = [0.0] * grouping.post_pool
    for group, size in enumerate(grouping.group_sizes):
        pool.extend([group_last_end[group]] * size)

    if not pool:
        if ready_times:
            raise SimulationError(
                "no processor ever becomes available for post-processing "
                "tasks — grouping has no post pool and no groups?"
            )
        return 0.0

    pool.sort()
    pool.append(math.inf)
    # The FIFO holds as many ends as pool entries claimed, so it is
    # never empty once the first post has taken ``pool[0]``.
    ends: deque[float] = deque()
    append, popleft = ends.append, ends.popleft
    i = 0
    end = 0.0
    for ready in ready_times:
        free_at = pool[i]
        if i and ends[0] < free_at:
            free_at = popleft()
        else:
            i += 1
        end = (free_at if free_at > ready else ready) + tp
        append(end)
    return end
