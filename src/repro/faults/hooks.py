"""Engine-level fault injection — the hook the simulators accept.

A :class:`FaultHook` compiles one cluster's sub-trace into two things
the engines can consume:

* a **time warp** — a piecewise-linear monotone map between *fault-free
  simulation time* and *wall-clock time*.  Outages contribute flat
  segments (the whole cluster is stopped) and slowdowns stretched ones
  (every processor runs ``factor`` times slower).  Because cluster-level
  faults hit every processor identically, warping the fault-free
  schedule is *exact*: the engine's greedy decisions depend only on the
  order of completion events, and a monotone warp preserves that order;
* a **crash instant** — the wall-clock time after which nothing more
  runs.

Checkpoint semantics follow the paper's monthly restart files: a month
whose coupled run finished (warped end ≤ crash) wrote its restart data
to shared storage and is *safe*; the month in flight at the crash is
lost, as is every post task still pending.  :class:`FaultOutcome`
reports exactly that split, so the middleware replanner can resume each
scenario from its last completed month.

An empty hook is guaranteed free: :func:`repro.simulation.engine.simulate`
treats it as ``faults=None``, so results are bit-for-bit those of the
fault-free engine.  A live hook warps the schedule that same engine
produces — there is no separate fault path — and warps it as numpy
columns, not record by record.  The engine hands
:meth:`FaultHook.warp_schedule` its tasks' ``start``, ``end``,
``scenario`` and ``n_procs`` columns (mains in dispatch order, then
posts in ``(ready, scenario, month)`` order); :meth:`FaultHook.warp`, the
one kernel the engine and :meth:`FaultHook.apply_dag` share, maps them
through :meth:`FaultHook.wallclocks`, masks out the tasks that end after
the crash and sums the work lost by the few that straddle it, in record
order.  ``wallclocks`` makes the float operations of the scalar
:meth:`FaultHook.wallclock` element by element (``np.searchsorted`` with
``side="right"`` for ``bisect_right``, and the same rate-0 branch), so
every warped time, makespan and loss is bit-for-bit that of a
record-by-record warp; that warp lives on in
``tests/faults/reference_warp.py`` as the differential oracle.  Task
records are built, from the warped columns, only when a trace is asked
for.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro import obs
from repro.exceptions import SimulationError
from repro.faults.trace import FaultEvent, FaultKind, FaultTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workflow.ocean_atmosphere import EnsembleSpec

__all__ = ["FaultHook", "FaultOutcome", "simulate_with_faults"]

_log = obs.get_logger(__name__)


@dataclass(frozen=True)
class _Window:
    """One wall-clock interval with a uniform compute rate.

    ``rate`` is progress per wall-clock second: ``0`` during an outage,
    ``1/factor`` during a slowdown.
    """

    start: float
    end: float
    rate: float


@dataclass(frozen=True)
class FaultOutcome:
    """What a fault trace did to one simulated schedule."""

    cluster_name: str
    #: wall-clock crash instant, or ``None`` when the schedule completed.
    crash_at: float | None
    #: months whose coupled run finished before the crash, per scenario.
    completed_months: dict[int, int]
    #: post tasks of completed months still pending at the crash.
    pending_posts: dict[int, int]
    #: coupled-run months destroyed (in flight or never started).
    months_lost: int
    #: processor-seconds of in-flight work destroyed (wall-clock).
    lost_work_seconds: float
    #: wall-clock makespan of the surviving schedule prefix.
    makespan: float

    @property
    def crashed(self) -> bool:
        """Whether the schedule was cut short."""
        return self.crash_at is not None


class Warp(NamedTuple):
    """A schedule's columns after :meth:`FaultHook.warp`."""

    #: wall-clock start and end of every task, in record order.
    start: np.ndarray
    end: np.ndarray
    #: whether each task finished by the crash.
    alive: np.ndarray
    #: processor-seconds of in-flight work destroyed (wall-clock).
    lost_work_seconds: float
    #: wall-clock makespans of the surviving tasks (all, and mains only).
    makespan: float
    main_makespan: float


class FaultHook:
    """A compiled, single-cluster fault injector (see module docstring)."""

    def __init__(
        self,
        windows: tuple[_Window, ...] = (),
        crash_at: float | None = None,
    ) -> None:
        self.windows = windows
        self.crash_at = crash_at
        # Prefix sums: progress accumulated at each window start, and the
        # wall-clock position reached for each accumulated progress.
        self._wall_starts = [w.start for w in windows]
        self._progress_at_start: list[float] = []
        acc = 0.0
        prev_end = 0.0
        for w in windows:
            acc += w.start - prev_end  # rate-1 gap before the window
            self._progress_at_start.append(acc)
            acc += (w.end - w.start) * w.rate
            prev_end = w.end
        # The same per-window operands as arrays, for :meth:`wallclocks`.
        rates = [w.rate for w in windows]
        self._progress_array = np.array(self._progress_at_start)
        self._window_columns = (
            np.array(self._wall_starts),
            np.array([w.end for w in windows]),
            np.array(rates),
            # Rate-0 windows take the ``start`` branch; 1.0 only keeps
            # the discarded quotient finite.
            np.array([r if r else 1.0 for r in rates]),
            np.array([(w.end - w.start) * w.rate for w in windows]),
        )

    # -- construction ------------------------------------------------------

    @classmethod
    def from_trace(cls, trace: FaultTrace, cluster: str) -> "FaultHook":
        """Compile one cluster's events into a hook.

        The first crash wins; outage/slowdown windows after it are
        unreachable and dropped.  Overlapping windows take the *slowest*
        rate on the overlap (a stopped cluster cannot be merely slow).
        """
        events = [e for e in trace if e.cluster == cluster]
        return cls.from_events(events, cluster=cluster)

    @classmethod
    def from_events(
        cls, events: list[FaultEvent], *, cluster: str | None = None
    ) -> "FaultHook":
        """Compile a list of events (all for one cluster) into a hook."""
        crash_at: float | None = None
        raw: list[tuple[float, float, float]] = []
        for event in sorted(events, key=FaultEvent.sort_key):
            if cluster is not None and event.cluster != cluster:
                raise SimulationError(
                    f"fault hook for {cluster!r} got an event for "
                    f"{event.cluster!r}"
                )
            if event.kind is FaultKind.CRASH:
                if crash_at is None or event.at_time < crash_at:
                    crash_at = event.at_time
            elif event.kind is FaultKind.OUTAGE:
                raw.append((event.at_time, event.end_time, 0.0))
            elif event.kind is FaultKind.SLOWDOWN:
                raw.append((event.at_time, event.end_time, 1.0 / event.factor))
            # REJOIN is a campaign-level concept: a single-cluster
            # schedule cannot absorb a revived cluster, so it is ignored.
        if crash_at is not None:
            raw = [
                (s, min(e, crash_at), r)
                for s, e, r in raw
                if s < crash_at
            ]
        return cls(_normalize(raw), crash_at)

    # -- the warp ----------------------------------------------------------

    @property
    def is_noop(self) -> bool:
        """Whether this hook changes nothing (empty sub-trace)."""
        return not self.windows and self.crash_at is None

    def wallclock(self, p: float) -> float:
        """Earliest wall-clock time at which fault-free progress ``p`` is reached."""
        if not self.windows or p <= self._progress_at_start[0]:
            return p
        i = bisect.bisect_right(self._progress_at_start, p) - 1
        w = self.windows[i]
        done_at_start = self._progress_at_start[i]
        in_window = (w.end - w.start) * w.rate
        if p <= done_at_start + in_window:
            if w.rate == 0.0:
                # Progress p is reached exactly at the window start (the
                # flat segment adds nothing) — p == done_at_start here.
                return w.start
            return w.start + (p - done_at_start) / w.rate
        # Past this window: the remainder accrues at rate 1 after it.
        return w.end + (p - done_at_start - in_window)

    def wallclocks(self, p: np.ndarray) -> np.ndarray:
        """:meth:`wallclock` of every element of ``p``, bit for bit.

        Each element takes the scalar method's branch and float
        operations: ``np.searchsorted(side="right")`` finds the window
        as ``bisect_right`` does.
        """
        if not self.windows:
            return p
        done_at = self._progress_array
        # Before the first window i is -1 and indexes the last window;
        # the final ``where`` returns those elements unchanged.
        i = np.searchsorted(done_at, p, side="right") - 1
        starts, ends, rates, divisors, in_windows = self._window_columns
        start, done, in_window = starts[i], done_at[i], in_windows[i]
        wall = np.where(
            p <= done + in_window,
            np.where(
                rates[i] == 0.0, start, start + (p - done) / divisors[i]
            ),
            ends[i] + (p - done - in_window),
        )
        return np.where(p <= done_at[0], p, wall)

    def progress(self, t: float) -> float:
        """Fault-free progress accumulated by wall-clock time ``t``."""
        if not self.windows or t <= self.windows[0].start:
            return t
        i = bisect.bisect_right(self._wall_starts, t) - 1
        w = self.windows[i]
        done_at_start = self._progress_at_start[i]
        if t <= w.end:
            return done_at_start + (t - w.start) * w.rate
        return done_at_start + (w.end - w.start) * w.rate + (t - w.end)

    def crash_progress(self) -> float | None:
        """Fault-free time at which the crash lands (``None`` if no crash)."""
        if self.crash_at is None:
            return None
        return self.progress(self.crash_at)

    # -- application -------------------------------------------------------

    def warp(
        self,
        start: np.ndarray,
        end: np.ndarray,
        n_procs: np.ndarray,
        main: np.ndarray,
    ) -> Warp:
        """Warp a schedule held as columns — the one fault-warp kernel.

        ``start`` and ``end`` are fault-free task times, ``n_procs`` the
        processors each task holds and ``main`` flags the coupled runs,
        all in record order.  A task survives when its warped end is no
        later than the crash; the work destroyed by the tasks that
        straddle the crash is summed in record order, so the total
        rounds exactly as a record-by-record warp does.
        """
        n = len(start)
        walls = self.wallclocks(np.concatenate((start, end)))
        start, end = walls[:n], walls[n:]
        crash = self.crash_at
        lost_work = 0.0
        if crash is None:
            alive = np.ones(len(end), dtype=bool)
        else:
            alive = end <= crash
            cut = np.flatnonzero(~alive & (start < crash))
            for began, procs in zip(
                start[cut].tolist(), n_procs[cut].tolist(), strict=True
            ):
                lost_work += (crash - began) * procs
        ends = end[alive]
        main_ends = end[alive & main]
        return Warp(
            start=start,
            end=end,
            alive=alive,
            lost_work_seconds=lost_work,
            makespan=float(ends.max()) if len(ends) else 0.0,
            main_makespan=float(main_ends.max()) if len(main_ends) else 0.0,
        )

    def warp_schedule(
        self,
        start: np.ndarray,
        end: np.ndarray,
        n_procs: np.ndarray,
        scenario: np.ndarray,
        n_main: int,
        spec: EnsembleSpec,
        cluster_name: str,
    ) -> tuple[Warp, FaultOutcome]:
        """Warp an engine schedule's columns; return ``(warp, outcome)``.

        The first ``n_main`` rows are the main tasks, the rest their
        posts; ``scenario`` gives each row's scenario.  A scenario's
        completed months are its surviving mains, and its pending posts
        those completed months whose post did not survive.
        """
        main = np.zeros(len(end), dtype=bool)
        main[:n_main] = True
        warp = self.warp(start, end, n_procs, main)
        ns = spec.scenarios
        done = np.bincount(
            scenario[:n_main][warp.alive[:n_main]], minlength=ns
        )
        posts = np.bincount(
            scenario[n_main:][warp.alive[n_main:]], minlength=ns
        )
        months_lost = (
            ns * spec.months - int(done.sum())
            if self.crash_at is not None
            else 0
        )
        outcome = FaultOutcome(
            cluster_name=cluster_name,
            crash_at=self.crash_at,
            completed_months=dict(enumerate(done.tolist())),
            pending_posts=dict(
                enumerate((done - np.minimum(posts, done)).tolist())
            ),
            months_lost=months_lost,
            lost_work_seconds=warp.lost_work_seconds,
            makespan=warp.makespan,
        )
        _count_injection(cluster_name, months_lost)
        return warp, outcome

    def apply_dag(self, result, dag=None, *, keep_records: bool = True):
        """Warp a traced :class:`~repro.simulation.dag_engine.DagSimulationResult`.

        Returns ``(warped_result, outcome)``.  DAG records carry task
        ids rather than ``(scenario, month)``; when ``dag`` is given its
        tasks provide the scenario mapping for the outcome's
        per-scenario accounting (otherwise ``completed_months`` and
        ``pending_posts`` stay empty).  A completed sequential task
        counts as a finished post; a sequential task whose predecessors
        all survived but which did not finish counts as pending.  The
        records go through :meth:`warp` as columns.
        """
        if self.is_noop:
            empty = {}
            if dag is not None:
                scenarios = sorted({t.scenario for t in dag.tasks()})
                mains = {s: 0 for s in scenarios}
                for tid in dag.task_ids():
                    task = dag.task(tid)
                    if task.kind.value == "main":
                        mains[task.scenario] += 1
                completed, pending = mains, {s: 0 for s in scenarios}
            else:
                completed, pending = empty, empty
            outcome = FaultOutcome(
                cluster_name="dag",
                crash_at=None,
                completed_months=completed,
                pending_posts=pending,
                months_lost=0,
                lost_work_seconds=0.0,
                makespan=result.makespan,
            )
            if not keep_records:
                result = replace(result, records=())
            return result, outcome
        records = result.records
        if not records:
            raise SimulationError(
                "fault hooks need a traced simulation (record_trace=True)"
            )
        n = len(records)
        main = np.fromiter((r.kind == "main" for r in records), bool, n)
        warp = self.warp(
            np.fromiter((r.start for r in records), float, n),
            np.fromiter((r.end for r in records), float, n),
            np.fromiter(
                (r.procs_stop - r.procs_start for r in records), np.intp, n
            ),
            main,
        )
        kept = [r for r, ok in zip(records, warp.alive.tolist()) if ok]
        finished_ids = {r.task_id for r in kept}
        completed: dict[int, int] = {}
        pending: dict[int, int] = {}
        if dag is not None:
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
        months_lost = int(np.count_nonzero(main & ~warp.alive))
        survivors: tuple = ()
        if keep_records:
            alive = warp.alive
            survivors = tuple(
                replace(r, start=s, end=e)
                for r, s, e in zip(
                    kept,
                    warp.start[alive].tolist(),
                    warp.end[alive].tolist(),
                    strict=True,
                )
            )
        warped = replace(
            result,
            makespan=warp.makespan,
            main_makespan=warp.main_makespan,
            records=survivors,
        )
        outcome = FaultOutcome(
            cluster_name="dag",
            crash_at=self.crash_at,
            completed_months=completed,
            pending_posts=pending,
            months_lost=months_lost,
            lost_work_seconds=warp.lost_work_seconds,
            makespan=warp.makespan,
        )
        _count_injection("dag", months_lost)
        return warped, outcome


def _count_injection(cluster: str, months_lost: int) -> None:
    """Count one live-hook warp (and the months it destroyed)."""
    if obs.enabled():
        obs.inc("faults.engine_injections", cluster=cluster)
        if months_lost:
            obs.inc("faults.months_lost", months_lost, cluster=cluster)


def _normalize(raw: list[tuple[float, float, float]]) -> tuple[_Window, ...]:
    """Resolve overlaps into disjoint windows, slowest rate winning."""
    raw = [(s, e, r) for s, e, r in raw if e > s]
    if not raw:
        return ()
    bounds = sorted({b for s, e, _ in raw for b in (s, e)})
    windows: list[_Window] = []
    for left, right in zip(bounds, bounds[1:], strict=False):
        rates = [r for s, e, r in raw if s <= left and right <= e]
        if not rates:
            continue
        rate = min(rates)
        if windows and windows[-1].end == left and windows[-1].rate == rate:
            windows[-1] = _Window(windows[-1].start, right, rate)
        else:
            windows.append(_Window(left, right, rate))
    return tuple(windows)


def _completed_outcome(result) -> FaultOutcome:
    """The trivial outcome of an untouched schedule."""
    return FaultOutcome(
        cluster_name=result.cluster_name,
        crash_at=None,
        completed_months={
            s: result.spec.months for s in range(result.spec.scenarios)
        },
        pending_posts={s: 0 for s in range(result.spec.scenarios)},
        months_lost=0,
        lost_work_seconds=0.0,
        makespan=result.makespan,
    )


def simulate_with_faults(
    grouping,
    spec,
    timing,
    faults: FaultHook | FaultTrace,
    *,
    cluster_name: str = "cluster",
    record_trace: bool = False,
):
    """Simulate one cluster under faults; return ``(result, outcome)``.

    ``faults`` may be a pre-compiled :class:`FaultHook` or a full
    :class:`~repro.faults.trace.FaultTrace` (compiled against
    ``cluster_name``).  The convenience over the engine's ``faults``
    keyword is the returned :class:`FaultOutcome` — the checkpoint-level
    account the middleware replanner consumes.
    """
    from repro.simulation.engine import _simulate, simulate

    if isinstance(faults, FaultTrace):
        faults = FaultHook.from_trace(faults, cluster_name)
    if faults.is_noop:
        result = simulate(
            grouping, spec, timing,
            cluster_name=cluster_name, record_trace=record_trace,
        )
        return result, _completed_outcome(result)
    return _simulate(
        grouping, spec, timing, faults,
        cluster_name=cluster_name, record_trace=record_trace,
    )
