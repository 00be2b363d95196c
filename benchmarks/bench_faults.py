"""Benchmark of the fault-injection subsystem's hot paths.

Three promises are enforced:

* **zero-cost when off** — passing an empty (noop) :class:`FaultHook`
  to :func:`repro.simulation.engine.simulate` must stay within 5% of
  a plain untraced call, because the noop hook short-circuits to
  ``faults=None`` before any records are asked for;
* **a cheap live warp** — a live hook (outage, slowdown and crash)
  through :func:`repro.faults.hooks.simulate_with_faults` costs at most
  ``LIVE_WARP_CEILING`` plain untraced simulations of the same schedule,
  timed in the same process.  The ratio travels across machines; it
  guards the column warp against sliding back to one Python object per
  task (the record-by-record warp it replaced measured about 20x here);
* **replanning throughput** — the multi-failure replanner
  (:func:`repro.middleware.recovery.run_campaign_with_faults`) chews
  through a 100-outage trace at a usable rate: every applied event
  replays the victim's schedule and re-runs the greedy reassignment,
  so this is the cost ceiling for resilience sweeps
  (:mod:`repro.experiments.resilience`).

Run with::

    pytest benchmarks/bench_faults.py -s
"""

from __future__ import annotations

import time

from repro.faults.hooks import FaultHook, simulate_with_faults
from repro.faults.trace import FaultEvent, FaultKind, FaultTrace
from repro.middleware.recovery import run_campaign_with_faults
from repro.platform.benchmarks import benchmark_cluster, benchmark_grid
from repro.simulation.engine import simulate
from repro.workflow.ocean_atmosphere import EnsembleSpec
from repro.core.heuristics import plan_grouping, HeuristicName

#: Relative overhead allowed for the noop-hook path vs a plain call.
OVERHEAD_CEILING = 0.05

#: A live-hook simulation may cost at most this many plain ones.
LIVE_WARP_CEILING = 5.0

#: Outage events replayed by the throughput leg.
N_FAILURES = 100

#: Replanning throughput floor (applied events per second).  The bar is
#: deliberately loose — it guards against a quadratic regression, not
#: machine speed.
THROUGHPUT_FLOOR = 1.0


def _time_pair(first, second, repeats: int) -> tuple[float, float]:
    """Best-of-``repeats`` seconds of two arms, timed rep by rep in turn.

    Alternating the arms exposes both to the same drift in machine
    speed; timing one arm's block after the other's lets a slow spell
    land on one arm only and read as overhead.
    """
    best = [float("inf"), float("inf")]
    for _ in range(repeats):
        for arm, fn in enumerate((first, second)):
            started = time.perf_counter()
            fn()
            best[arm] = min(best[arm], time.perf_counter() - started)
    return best[0], best[1]


def test_noop_hook_overhead_under_five_percent() -> None:
    cluster = benchmark_cluster("sagittaire", 53)
    spec = EnsembleSpec(10, 120)
    grouping = plan_grouping(cluster, spec, HeuristicName.KNAPSACK)
    noop = FaultHook()

    def fast() -> None:
        for _ in range(40):
            simulate(grouping, spec, cluster.timing)

    def hooked() -> None:
        for _ in range(40):
            simulate(grouping, spec, cluster.timing, faults=noop)

    fast()  # warm any lazy state before timing
    fast_s, hooked_s = _time_pair(fast, hooked, repeats=5)
    overhead = (hooked_s - fast_s) / fast_s
    print(
        f"\nnoop-hook overhead: fast={fast_s * 1e3:.2f} ms "
        f"hooked={hooked_s * 1e3:.2f} ms ({overhead * 100:+.2f}%)"
    )
    assert overhead < OVERHEAD_CEILING


def test_live_warp_within_five_plain_simulations() -> None:
    cluster = benchmark_cluster("sagittaire", 53)
    spec = EnsembleSpec(10, 120)
    grouping = plan_grouping(cluster, spec, HeuristicName.KNAPSACK)
    makespan = simulate(grouping, spec, cluster.timing).makespan
    hook = FaultHook.from_events(
        [
            FaultEvent(
                FaultKind.OUTAGE, cluster.name, 0.2 * makespan,
                duration=0.05 * makespan,
            ),
            FaultEvent(
                FaultKind.SLOWDOWN, cluster.name, 0.4 * makespan,
                duration=0.1 * makespan, factor=2.0,
            ),
            FaultEvent(FaultKind.CRASH, cluster.name, 0.8 * makespan),
        ],
        cluster=cluster.name,
    )
    _, outcome = simulate_with_faults(
        grouping, spec, cluster.timing, hook, cluster_name=cluster.name
    )
    assert outcome.crashed and outcome.months_lost > 0

    def plain() -> None:
        for _ in range(20):
            simulate(grouping, spec, cluster.timing)

    def live() -> None:
        for _ in range(20):
            simulate_with_faults(
                grouping, spec, cluster.timing, hook,
                cluster_name=cluster.name,
            )

    plain()  # warm any lazy state before timing
    plain_s, live_s = _time_pair(plain, live, repeats=5)
    ratio = live_s / plain_s
    print(
        f"\nlive warp: plain={plain_s * 1e3:.2f} ms "
        f"live={live_s * 1e3:.2f} ms ({ratio:.2f}x)"
    )
    assert ratio <= LIVE_WARP_CEILING


def test_replanning_throughput_on_100_failures() -> None:
    grid = benchmark_grid(3, 30)
    scenarios, months = 6, 12
    baseline = run_campaign_with_faults(
        grid, scenarios, months, FaultTrace()
    )
    # Outages striped across the grid, evenly spaced through the
    # campaign; short enough that the victim rejoins well before the
    # next event, so every event finds live candidates.
    step = baseline.original_makespan / (N_FAILURES + 1)
    events = [
        FaultEvent(
            FaultKind.OUTAGE,
            grid.names[i % len(grid.names)],
            (i + 1) * step,
            duration=step / 2,
        )
        for i in range(N_FAILURES)
    ]
    trace = FaultTrace.of(events)

    started = time.perf_counter()
    report = run_campaign_with_faults(grid, scenarios, months, trace)
    elapsed = time.perf_counter() - started

    rate = len(trace) / elapsed
    print(
        f"\nreplanning: {len(trace)} events ({report.replans} replans) "
        f"in {elapsed:.2f} s -> {rate:.1f} events/s; "
        f"makespan {baseline.original_makespan / 3600:.2f} h -> "
        f"{report.makespan / 3600:.2f} h"
    )
    assert report.replans > 0
    assert rate >= THROUGHPUT_FLOOR
