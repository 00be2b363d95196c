"""The column fault warp against the record-by-record oracle, bit for bit.

:func:`tests.faults.reference_warp.reference_apply` warps a schedule of
the linear-scan reference engine one record at a time with the scalar
:meth:`~repro.faults.hooks.FaultHook.wallclock`.  The engine warps its
own schedule as numpy columns.  Both must agree exactly: the
:class:`~repro.faults.hooks.FaultOutcome`, both makespans and, when a
trace is asked for, the full warped records tuple.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grouping import Grouping
from repro.faults.hooks import FaultHook, simulate_with_faults
from repro.faults.trace import FaultEvent, FaultKind
from repro.simulation.dag_engine import simulate_dag
from repro.simulation.engine import _simulate, simulate
from repro.workflow.ocean_atmosphere import EnsembleSpec, fused_ensemble_dag
from tests.faults.reference_warp import reference_apply, reference_apply_dag
from tests.faults.test_hooks import _flat, _outage, _slowdown
from tests.property.test_differential_oracle import (
    engine_instances,
    long_horizon_instances,
)
from tests.property.test_fault_properties import fault_windows
from tests.simulation.reference_engine import reference_simulate


def _crash(at: float) -> FaultEvent:
    return FaultEvent(FaultKind.CRASH, "c", at)


def _assert_matches_oracle(grouping, spec, timing, hook, enforce=True):
    """Every live-hook entry point equals the oracle; returns the outcome."""
    base = reference_simulate(
        grouping, spec, timing, cluster_name="c", enforce_cardinality=enforce
    )
    expected, expected_outcome = reference_apply(hook, base)

    traced, outcome = _simulate(
        grouping, spec, timing, hook,
        cluster_name="c", record_trace=True, enforce_cardinality=enforce,
    )
    assert outcome == expected_outcome
    assert outcome.lost_work_seconds.hex() == (
        expected_outcome.lost_work_seconds.hex()
    )
    assert traced.makespan.hex() == expected.makespan.hex()
    assert traced.main_makespan.hex() == expected.main_makespan.hex()
    assert traced.records == expected.records

    untraced = simulate(
        grouping, spec, timing,
        cluster_name="c", enforce_cardinality=enforce, faults=hook,
    )
    assert untraced.records == ()
    assert untraced.makespan == expected.makespan
    assert untraced.main_makespan == expected.main_makespan
    if enforce:
        result, public = simulate_with_faults(
            grouping, spec, timing, hook, cluster_name="c"
        )
        assert public == expected_outcome
        assert result.makespan == expected.makespan
    return outcome


class TestCrashEdges:
    def test_crash_exactly_at_a_task_end(self) -> None:
        # One group, months of 100 s: month 1 ends at 200 s exactly and
        # is safe (warped end <= crash); month 2 is in flight.
        outcome = _assert_matches_oracle(
            Grouping((4,), 1, 5), EnsembleSpec(1, 3), _flat(),
            FaultHook.from_events([_crash(200.0)]),
        )
        assert outcome.completed_months == {0: 2}
        assert outcome.months_lost == 1

    def test_crash_before_the_first_end(self) -> None:
        outcome = _assert_matches_oracle(
            Grouping((4, 4), 1, 9), EnsembleSpec(3, 2), _flat(),
            FaultHook.from_events([_crash(50.0)]),
        )
        assert outcome.completed_months == {0: 0, 1: 0, 2: 0}
        assert outcome.makespan == 0.0
        assert outcome.lost_work_seconds == 2 * 50.0 * 4

    def test_crash_at_zero(self) -> None:
        _assert_matches_oracle(
            Grouping((4, 4), 0, 8), EnsembleSpec(2, 3), _flat(),
            FaultHook.from_events([_crash(0.0)]),
        )


class TestWindowEdges:
    def test_outage_at_time_zero(self) -> None:
        _assert_matches_oracle(
            Grouping((4, 5), 2, 11), EnsembleSpec(3, 4), _flat(97.3, 13.1),
            FaultHook.from_events([_outage(0.0, 30.0)]),
        )

    def test_overlapping_outage_and_slowdown(self) -> None:
        hook = FaultHook.from_events(
            [_slowdown(50.0, 200.0, 2.5), _outage(120.0, 40.0), _crash(900.0)]
        )
        assert len(hook.windows) == 3
        _assert_matches_oracle(
            Grouping((4, 6), 1, 11), EnsembleSpec(4, 5), _flat(101.7, 9.3),
            hook,
        )

    def test_single_scenario(self) -> None:
        _assert_matches_oracle(
            Grouping((7,), 2, 9), EnsembleSpec(1, 9), _flat(88.8, 12.2),
            FaultHook.from_events(
                [_slowdown(30.0, 100.0, 3.0), _crash(640.0)]
            ),
        )

    def test_more_groups_than_scenarios(self) -> None:
        # k > NS: with cardinality off, some groups never run a task.
        _assert_matches_oracle(
            Grouping((4, 5, 6, 7), 1, 23), EnsembleSpec(2, 4), _flat(),
            FaultHook.from_events([_outage(90.0, 25.0), _crash(333.0)]),
            enforce=False,
        )


@st.composite
def live_events(draw, horizon: float, ends: list[float]):
    """Outages, slowdowns and maybe a crash over a schedule's horizon.

    The crash lands anywhere up to past the end, or exactly on one of
    the fault-free task ends.
    """
    events = []
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.floats(min_value=0.0, max_value=horizon))
        duration = draw(st.floats(min_value=0.5, max_value=horizon / 4 + 1.0))
        if draw(st.booleans()):
            events.append(_outage(at, duration))
        else:
            factor = draw(st.floats(min_value=1.1, max_value=8.0))
            events.append(_slowdown(at, duration, factor))
    crash = draw(st.sampled_from(["none", "anywhere", "at_end"]))
    if crash == "anywhere":
        events.append(
            _crash(draw(st.floats(min_value=0.0, max_value=horizon * 1.3)))
        )
    elif crash == "at_end" and ends:
        events.append(_crash(draw(st.sampled_from(ends))))
    if not events:
        events.append(_crash(horizon / 2))
    return events


class TestOracleProperties:
    @given(instance=engine_instances(), data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_column_warp_matches_record_warp(self, instance, data) -> None:
        grouping, spec, timing, enforce = instance
        base = reference_simulate(
            grouping, spec, timing, enforce_cardinality=enforce
        )
        events = data.draw(
            live_events(base.makespan, [r.end for r in base.records])
        )
        _assert_matches_oracle(
            grouping, spec, timing, FaultHook.from_events(events), enforce
        )

    @given(instance=long_horizon_instances(), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_long_horizon_warp_matches_record_warp(self, instance, data) -> None:
        grouping, spec, timing, enforce = instance
        base = reference_simulate(
            grouping, spec, timing, enforce_cardinality=enforce
        )
        events = data.draw(
            live_events(base.makespan, [r.end for r in base.records])
        )
        _assert_matches_oracle(
            grouping, spec, timing, FaultHook.from_events(events), enforce
        )

    @given(
        scenarios=st.integers(1, 3),
        months=st.integers(1, 6),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_dag_warp_matches_record_warp(self, scenarios, months, data) -> None:
        dag = fused_ensemble_dag(EnsembleSpec(scenarios, months))
        grouping = Grouping((4,) * scenarios, 0, 4 * scenarios)
        timing = _flat(100.0, 30.0)
        base = simulate_dag(dag, grouping, timing, record_trace=True)
        events = data.draw(
            live_events(base.makespan, [r.end for r in base.records])
        )
        hook = FaultHook.from_events(events)
        warped, outcome = hook.apply_dag(base, dag)
        expected, expected_outcome = reference_apply_dag(hook, base, dag)
        assert outcome == expected_outcome
        assert warped.makespan == expected.makespan
        assert warped.main_makespan == expected.main_makespan
        assert warped.records == expected.records


class TestVectorWallclock:
    @given(events=fault_windows(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_wallclocks_equal_scalar_wallclock(self, events, data) -> None:
        hook = FaultHook.from_events(events)
        # Random points plus every window boundary in progress time.
        points = data.draw(
            st.lists(st.floats(min_value=0.0, max_value=5e3), max_size=40)
        )
        points += hook._progress_at_start
        points += [w.start for w in hook.windows]
        points += [w.end for w in hook.windows]
        vector = hook.wallclocks(np.array(points, dtype=float)).tolist()
        assert [v.hex() for v in vector] == [
            hook.wallclock(p).hex() for p in points
        ]

    def test_no_window_hook_is_identity(self) -> None:
        hook = FaultHook.from_events([_crash(10.0)])
        points = np.array([0.0, 5.0, 20.0])
        assert hook.wallclocks(points).tolist() == [0.0, 5.0, 20.0]

