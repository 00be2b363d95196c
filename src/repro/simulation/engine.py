"""The discrete-event makespan simulator (Section 4.3).

Main-task phase
    Groups are matched to scenarios greedily at every completion event:
    the *least advanced* waiting scenario (fewest finished months; ties
    broken by longest wait, then scenario id) is placed on the *fastest*
    free group (smallest ``T[g]``; ties broken by group index).  This is
    the paper's policy — "when a group becomes ready, the month of the
    less advanced simulation waiting is scheduled on this group" —
    extended deterministically to the heterogeneous group sizes produced
    by Improvements 1 and 3.  A scenario leaves the waiting set once it
    has run its month count; the ensemble is rectangular when every
    count is ``NM``, and recovery planning schedules the unequal
    remaining chains of interrupted scenarios the same way
    (:func:`_chain_schedule`).

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
    phase when groups outnumber scenarios or the task count is below the
    measured crossover where numpy set-up costs more than it saves.

    The post phase is a heap-free two-pointer merge of the sorted initial
    processor pool and a FIFO of post ends.  Ready times arrive sorted
    and each post takes the pool's minimum free time, so post ends never
    decrease and the FIFO needs no heap.  Both rewrites make the same
    float operations on the same operands as a plain heap replay;
    ``docs/PERFORMANCE.md`` has the measurements.

Decision stream
    There is one engine, and it runs whether or not anyone is watching.
    When ``record_trace`` is set, a live fault hook is passed or
    :mod:`repro.obs` is enabled, the main phase also appends one
    ``(start, end, group, scenario)`` tuple per dispatch to a plain list;
    everything observable is derived from that list after the run.  The
    metrics read task counts per group off it.  Traces and faults read
    it as numpy columns ``start, end, scenario, n_procs`` (:func:`_columns`):
    mains in dispatch order, then posts in ``(ready, scenario, month)``
    order, whose ends are the post merge's own and whose starts follow
    from those ends with one sort.  A live hook warps the columns in one
    kernel (:meth:`repro.faults.hooks.FaultHook.warp_schedule`) —
    bit-for-bit a record-by-record warp — and task records are built,
    from the warped or plain columns, only when ``record_trace`` asks for
    them: a scenario's dispatches counted in order give the months, and
    a ``(available_from, proc_id)`` heap replay of the post ends gives
    processor ids.  Observability only decides whether the list is
    built — never which loop runs.

    The makespan always comes from the float-only post merge.  Processor
    identity never changes timing, and carrying ``(time, proc)`` tuples
    through the hot loop made an NS=10, NM=1800 simulation 45–60% slower
    (2-vCPU VM), so proc ids are reconstructed only when records are
    asked for.  The original
    linear-scan loops live on in ``tests/simulation/reference_engine.py``
    as the differential oracle: the property suite pins makespans and
    the full records tuple bit for bit against them, and pins the
    fault warp against the record-by-record warp of
    ``tests/faults/reference_warp.py``.
"""

from __future__ import annotations

import heapq
import math
from itertools import chain
from typing import TYPE_CHECKING, NamedTuple

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
    from repro.faults.hooks import FaultHook, FaultOutcome

__all__ = ["simulate", "simulate_on_cluster"]

#: One main dispatch: ``(start, end, group, scenario)``.
_Dispatch = tuple[float, float, int, int]

#: Below this many main tasks (``Σ months``, ``NS·NM`` when rectangular)
#: the numpy set-up of :func:`_fast_forward` costs more than it saves,
#: and the heap loop runs the whole main phase.  Measured crossover:
#: 44–60 tasks at NS = 4, 6 and 10 on fig7 ``sagittaire`` groupings
#: (2-vCPU VM, Python 3.11.7; see docs/PERFORMANCE.md).
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
        results stay bit-for-bit identical.  A live hook warps the
        fault-free schedule and returns it crash-truncated; use
        :func:`repro.faults.hooks.simulate_with_faults` when the
        checkpoint-level :class:`~repro.faults.hooks.FaultOutcome` is
        needed too.
    """
    result, _outcome = _simulate(
        grouping,
        spec,
        timing,
        None if faults is None or faults.is_noop else faults,
        cluster_name=cluster_name,
        record_trace=record_trace,
        enforce_cardinality=enforce_cardinality,
    )
    return result


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


def _simulate(
    grouping: Grouping,
    spec: EnsembleSpec,
    timing: TimingModel,
    faults: "FaultHook | None",
    *,
    cluster_name: str = "cluster",
    record_trace: bool = False,
    enforce_cardinality: bool = True,
) -> "tuple[SimulationResult, FaultOutcome | None]":
    """Run the engine; ``faults`` is a live hook or ``None``.

    Returns the result and, under a live hook, its
    :class:`~repro.faults.hooks.FaultOutcome` (``None`` otherwise).
    Callers drop no-op hooks before they get here.
    """
    if enforce_cardinality:
        grouping.validate_against(timing, spec.scenarios)
    else:
        for g in grouping.group_sizes:
            timing.validate_group(g)

    group_times = [timing.main_time(g) for g in grouping.group_sizes]
    tp = timing.post_time()

    observed = obs.enabled()
    columns = record_trace or faults is not None
    stream: list[_Dispatch] | None = [] if columns or observed else None
    ready_times, group_last_end = _run_main_phase(
        [spec.months] * spec.scenarios, group_times, stream
    )
    post_ends = _run_post_phase(grouping, ready_times, group_last_end, tp)
    main_makespan = ready_times[-1] if ready_times else 0.0
    makespan = max(main_makespan, post_ends[-1] if post_ends else 0.0)

    records: tuple[TaskRecord, ...] = ()
    outcome: FaultOutcome | None = None
    if stream is not None:
        if observed:
            _publish_stats(
                stream, cluster_name, group_times, group_last_end,
                makespan, main_makespan,
            )
        if columns:
            cols = _columns(grouping, stream, post_ends, group_last_end)
            start, end = cols.start, cols.end
            alive: np.ndarray | None = None
            if faults is not None:
                warp, outcome = faults.warp_schedule(
                    cols.start, cols.end, cols.n_procs, cols.scenario,
                    len(stream), spec, cluster_name,
                )
                makespan, main_makespan = warp.makespan, warp.main_makespan
                start, end, alive = warp.start, warp.end, warp.alive
            if record_trace:
                records = _records(
                    grouping, spec, stream, cols.post_of, post_ends,
                    group_last_end, start, end, alive,
                )
    result = SimulationResult(
        makespan=makespan,
        main_makespan=main_makespan,
        grouping=grouping,
        spec=spec,
        cluster_name=cluster_name,
        records=records,
    )
    return result, outcome


def _chain_schedule(
    grouping: Grouping,
    timing: TimingModel,
    months: list[int],
    tp: float,
    *,
    columns: bool = False,
) -> "tuple[float, _Columns | None]":
    """Schedule fused chains of unequal length; return the makespan.

    Scenario ``s`` runs ``months[s] >= 1`` months, each a main task then
    a ``tp``-long post — the rectangular ensemble when every count is
    equal.  The policy is the same: the least advanced waiting chain
    goes to the fastest free group.  With ``columns`` the schedule's
    :func:`_columns` come back too (``None`` otherwise).  Nothing is
    observed or recorded: this is the recovery planner's evaluator.
    """
    if not months or min(months) < 1:
        raise SimulationError(f"every chain needs a month, got {months!r}")
    grouping.validate_against(timing, len(months))
    group_times = [timing.main_time(g) for g in grouping.group_sizes]
    stream: list[_Dispatch] | None = [] if columns else None
    ready_times, group_last_end = _run_main_phase(months, group_times, stream)
    post_ends = _run_post_phase(grouping, ready_times, group_last_end, tp)
    makespan = max(ready_times[-1], post_ends[-1])
    if stream is None:
        return makespan, None
    return makespan, _columns(grouping, stream, post_ends, group_last_end)


class _Columns(NamedTuple):
    """The schedule as columns: mains in dispatch order, then posts."""

    start: np.ndarray
    end: np.ndarray
    scenario: np.ndarray
    n_procs: np.ndarray
    #: Dispatch index of each post's main task, in post order.
    post_of: np.ndarray


def _columns(
    grouping: Grouping,
    stream: list[_Dispatch],
    post_ends: list[float],
    group_last_end: list[float],
) -> _Columns:
    """Turn the decision stream and the post merge into task columns.

    Posts run in ``(ready, scenario, month)`` order: a stable sort of the
    dispatches by ``(end, scenario)`` — a scenario's months are
    dispatched in order — whose ends are the merge's ready times, sorted.
    """
    mains = np.fromiter(
        chain.from_iterable(stream), dtype=float, count=4 * len(stream)
    ).reshape(-1, 4)
    main_end = mains[:, 1]
    group = mains[:, 2].astype(np.intp)
    scenario = mains[:, 3].astype(np.intp)
    post_of = np.lexsort((scenario, main_end))
    ends = np.array(post_ends)
    post_start = _post_starts(grouping, main_end[post_of], ends, group_last_end)
    sizes = np.array(grouping.group_sizes, dtype=np.intp)
    return _Columns(
        start=np.concatenate((mains[:, 0], post_start)),
        end=np.concatenate((main_end, ends)),
        scenario=np.concatenate((scenario, scenario[post_of])),
        n_procs=np.concatenate((sizes[group], np.ones(len(ends), np.intp))),
        post_of=post_of,
    )


def _post_starts(
    grouping: Grouping,
    ready: np.ndarray,
    ends: np.ndarray,
    group_last_end: list[float],
) -> np.ndarray:
    """The start of every post of :func:`_run_post_phase`, in its order.

    The merge keeps only ends; a post starts at ``max(free, ready)``,
    ``free`` being the processor time it took.  Posts take free times in
    nondecreasing order and every end is at least the free time it
    followed, so the free times taken are the ``n`` smallest of the
    initial pool and the ``n`` post ends together — a sort away, float
    for float the proc-id heap replay's.
    """
    pool = np.repeat(
        [0.0, *group_last_end], [grouping.post_pool, *grouping.group_sizes]
    )
    free = np.sort(np.concatenate((pool, ends)))[: len(ends)]
    return np.maximum(free, ready)


def _records(
    grouping: Grouping,
    spec: EnsembleSpec,
    stream: list[_Dispatch],
    post_of: np.ndarray,
    post_ends: list[float],
    group_last_end: list[float],
    start: np.ndarray,
    end: np.ndarray,
    alive: np.ndarray | None,
) -> tuple[TaskRecord, ...]:
    """Build the task records of the (possibly warped) columns.

    ``start``, ``end`` and ``alive`` (``None``: every task) follow
    :func:`_columns`' row order.  A scenario's months are its dispatches
    counted in order, because a scenario is only dispatched once its
    previous month has finished.  Processor ids replay the fault-free
    post ends, in post order, on a ``(available_from, proc_id)`` heap:
    each post takes the earliest free processor, the lowest id on ties.
    """
    ranges = proc_ranges(grouping)
    n = len(stream)
    starts, ends = start.tolist(), end.tolist()
    kept = [True] * len(ends) if alive is None else alive.tolist()
    months = [0] * spec.scenarios
    month_of: list[int] = []
    main: list[TaskRecord] = []
    for i, (_start, _end, group, scenario) in enumerate(stream):
        month = months[scenario]
        months[scenario] = month + 1
        month_of.append(month)
        if kept[i]:
            rng = ranges[group]
            main.append(
                TaskRecord(
                    "main", scenario, month, starts[i], ends[i],
                    group, rng.start, rng.stop,
                )
            )

    pool = [(0.0, proc) for proc in post_pool_range(grouping)]
    for group, rng in enumerate(ranges):
        pool.extend((group_last_end[group], proc) for proc in rng)
    heapq.heapify(pool)
    posts: list[TaskRecord] = []
    for row, (m, free_end) in enumerate(
        zip(post_of.tolist(), post_ends), start=n
    ):
        proc = pool[0][1]
        heapq.heapreplace(pool, (free_end, proc))
        if kept[row]:
            posts.append(
                TaskRecord(
                    "post", stream[m][3], month_of[m], starts[row], ends[row],
                    -1, proc, proc + 1,
                )
            )
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
    months: list[int],
    group_times: list[float],
    stream: list[_Dispatch] | None,
) -> tuple[list[float], list[float]]:
    """Schedule every main task; return ``(ready_times, group_last_end)``.

    Scenario ``s`` runs ``months[s]`` months and leaves the waiting set
    once that many are done.

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
    ns, total = len(months), sum(months)
    months_done = [0] * ns
    # Both comprehensions produce ascending sequences — already valid heaps.
    waiting: list[tuple[int, float, int]] = [(0, 0.0, s) for s in range(ns)]
    idle: list[tuple[float, int]] = sorted(
        (gt, g) for g, gt in enumerate(group_times)
    )
    running: list[tuple[float, int, int]] = []
    group_last_end = [0.0] * len(group_times)
    ready_times: list[float] = []
    unstarted = total
    # The fast-forward needs every group busy from t=0 and running sums
    # that grow (a positive fastest time sizes its horizon).
    if (
        total >= _FAST_FORWARD_MIN_TASKS
        and len(group_times) <= ns
        and idle[0][0] > 0.0
    ):
        unstarted -= _fast_forward(
            months, group_times, months_done, waiting, idle, running,
            ready_times, stream,
        )
    _replay(
        months, group_times, months_done, waiting, idle, running, unstarted,
        group_last_end, ready_times, stream,
    )
    return ready_times, group_last_end


def _fast_forward(
    months: list[int],
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

    # At most Σ(months[s] - 1) + 1 completions precede the first finish.
    # The fastest group's ``steps`` sums end at a cutoff before which the
    # k groups complete at least that many tasks (each group's count
    # below the cutoff is short of ``cutoff / T[g]`` by less than one,
    # hence the ``+ k``); the slower groups' sums past the cutoff go
    # unused.
    need = sum(months) - ns + 1 + k
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
        if done == months[scenario]:
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
    months: list[int],
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
        if done < months[scenario]:
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
) -> list[float]:
    """The post phase as a heap-free merge; returns the post ends.

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
    multisets are identical, hence the same ends, in the same order, as
    the proc-id replay.  The FIFO is the returned list itself, read from
    a head index.
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
        return []

    pool.sort()
    pool.append(math.inf)
    # The FIFO holds as many ends as pool entries claimed, so it is
    # never empty once the first post has taken ``pool[0]``.
    ends: list[float] = []
    append = ends.append
    i = head = 0
    for ready in ready_times:
        free_at = pool[i]
        if i and ends[head] < free_at:
            free_at = ends[head]
            head += 1
        else:
            i += 1
        append((free_at if free_at > ready else ready) + tp)
    return ends
