"""Engine-level fault hooks: the time warp, crashes, and the noop path."""

from __future__ import annotations

import pytest

from repro.core.grouping import Grouping
from repro.exceptions import SimulationError
from repro.faults.hooks import FaultHook, simulate_with_faults
from repro.faults.trace import FaultEvent, FaultKind, FaultTrace
from repro.platform.timing import TableTimingModel
from repro.simulation.engine import simulate
from repro.workflow.ocean_atmosphere import EnsembleSpec
from tests.faults.reference_warp import reference_apply


def _flat(tg: float = 100.0, tp: float = 10.0) -> TableTimingModel:
    return TableTimingModel({g: tg for g in range(4, 12)}, post_seconds=tp)


def _outage(at: float, duration: float, cluster: str = "c") -> FaultEvent:
    return FaultEvent(FaultKind.OUTAGE, cluster, at, duration=duration)


def _slowdown(
    at: float, duration: float, factor: float, cluster: str = "c"
) -> FaultEvent:
    return FaultEvent(
        FaultKind.SLOWDOWN, cluster, at, duration=duration, factor=factor
    )


class TestWarp:
    def test_empty_hook_is_identity(self) -> None:
        hook = FaultHook()
        assert hook.is_noop
        for t in (0.0, 1.0, 123.4):
            assert hook.wallclock(t) == t
            assert hook.progress(t) == t

    def test_outage_inserts_a_flat_segment(self) -> None:
        hook = FaultHook.from_events([_outage(100.0, 50.0)])
        assert hook.wallclock(99.0) == 99.0
        # Progress 100 is reached exactly at the outage start; progress
        # beyond it is pushed out by the full outage.
        assert hook.wallclock(100.0) == 100.0
        assert hook.wallclock(101.0) == pytest.approx(151.0)
        assert hook.progress(125.0) == pytest.approx(100.0)
        assert hook.progress(160.0) == pytest.approx(110.0)

    def test_slowdown_stretches_time(self) -> None:
        hook = FaultHook.from_events([_slowdown(100.0, 60.0, 2.0)])
        # 60 wall-clock seconds at rate 1/2 yield 30 units of progress.
        assert hook.progress(160.0) == pytest.approx(130.0)
        assert hook.wallclock(130.0) == pytest.approx(160.0)
        assert hook.wallclock(140.0) == pytest.approx(170.0)

    def test_warp_roundtrip_is_monotone(self) -> None:
        hook = FaultHook.from_events(
            [_outage(50.0, 25.0), _slowdown(100.0, 40.0, 4.0)]
        )
        points = [0.0, 10.0, 49.9, 50.0, 60.0, 99.0, 105.0, 200.0]
        walls = [hook.wallclock(p) for p in points]
        assert walls == sorted(walls)
        for p, w in zip(points, walls):
            assert hook.progress(w) == pytest.approx(p)

    def test_overlap_takes_slowest_rate(self) -> None:
        # Outage inside a slowdown: the stopped interval wins.
        hook = FaultHook.from_events(
            [_slowdown(0.0, 100.0, 2.0), _outage(40.0, 20.0)]
        )
        rates = [(w.start, w.end, w.rate) for w in hook.windows]
        assert (40.0, 60.0, 0.0) in rates

    def test_crash_truncates_windows(self) -> None:
        hook = FaultHook.from_events(
            [
                _outage(10.0, 5.0),
                FaultEvent(FaultKind.CRASH, "c", 20.0),
                _outage(30.0, 5.0),  # unreachable
            ]
        )
        assert hook.crash_at == 20.0
        assert all(w.end <= 20.0 for w in hook.windows)
        assert hook.crash_progress() == pytest.approx(15.0)


class TestEngineIntegration:
    def test_noop_hook_is_bit_for_bit_fault_free(self) -> None:
        timing = _flat()
        grouping = Grouping((4, 4), 0, 8)
        spec = EnsembleSpec(3, 4)
        plain = simulate(grouping, spec, timing, record_trace=True)
        hooked = simulate(
            grouping, spec, timing, record_trace=True, faults=FaultHook()
        )
        assert hooked.makespan == plain.makespan
        assert hooked.main_makespan == plain.main_makespan
        assert hooked.records == plain.records

    def test_outage_delays_the_makespan_exactly(self) -> None:
        timing = _flat()
        grouping = Grouping((4,), 0, 4)
        spec = EnsembleSpec(1, 3)
        plain = simulate(grouping, spec, timing)
        hook = FaultHook.from_events([_outage(150.0, 60.0)])
        warped = simulate(grouping, spec, timing, faults=hook)
        assert warped.makespan == pytest.approx(plain.makespan + 60.0)

    def test_apply_requires_records(self) -> None:
        # A record-level warp needs the tasks: the record-by-record
        # oracle and the DAG warp both refuse an untraced result.
        from repro.simulation.dag_engine import simulate_dag
        from repro.workflow.ocean_atmosphere import fused_scenario_dag

        result = simulate(
            Grouping((4,), 0, 4), EnsembleSpec(1, 2), _flat(),
            record_trace=False,
        )
        hook = FaultHook.from_events([_outage(10.0, 5.0)])
        with pytest.raises(SimulationError):
            reference_apply(hook, result)
        dag = fused_scenario_dag(2)
        untraced = simulate_dag(dag, Grouping((4,), 0, 4), _flat())
        with pytest.raises(SimulationError):
            hook.apply_dag(untraced, dag)


class TestCrashOutcome:
    def test_crash_splits_safe_and_lost_months(self) -> None:
        # One group, 3 months of 100 s each: a crash at 250 s leaves
        # months 0-1 safe and destroys the in-flight month 2.
        timing = _flat()
        grouping = Grouping((4,), 0, 4)
        spec = EnsembleSpec(1, 3)
        hook = FaultHook.from_events([FaultEvent(FaultKind.CRASH, "c", 250.0)])
        warped, outcome = simulate_with_faults(
            grouping, spec, timing, hook, record_trace=True
        )
        assert outcome.crashed
        assert outcome.completed_months == {0: 2}
        assert outcome.months_lost == 1
        assert outcome.lost_work_seconds == pytest.approx(50.0 * 4)
        assert warped.makespan <= 250.0
        assert all(r.end <= 250.0 for r in warped.records)

    def test_crash_at_zero_loses_everything(self) -> None:
        spec = EnsembleSpec(2, 3)
        hook = FaultHook.from_events([FaultEvent(FaultKind.CRASH, "c", 0.0)])
        warped, outcome = simulate_with_faults(
            Grouping((4, 4), 0, 8), spec, _flat(), hook
        )
        assert outcome.completed_months == {0: 0, 1: 0}
        assert outcome.months_lost == spec.scenarios * spec.months
        assert warped.makespan == 0.0

    def test_no_fault_outcome_reports_completion(self) -> None:
        spec = EnsembleSpec(2, 3)
        result, outcome = simulate_with_faults(
            Grouping((4, 4), 0, 8), spec, _flat(), FaultTrace(),
        )
        assert not outcome.crashed
        assert outcome.completed_months == {0: 3, 1: 3}
        assert outcome.pending_posts == {0: 0, 1: 0}
        assert outcome.makespan == result.makespan

    def test_dag_engine_accepts_hooks(self) -> None:
        from repro.simulation.dag_engine import simulate_dag
        from repro.workflow.ocean_atmosphere import fused_scenario_dag

        dag = fused_scenario_dag(3)
        timing = _flat()
        grouping = Grouping((4,), 0, 4)
        plain = simulate_dag(dag, grouping, timing, record_trace=True)
        noop = simulate_dag(
            dag, grouping, timing, record_trace=True, faults=FaultHook()
        )
        assert noop.makespan == plain.makespan
        assert noop.records == plain.records
        hook = FaultHook.from_events([_outage(150.0, 60.0)])
        warped = simulate_dag(dag, grouping, timing, faults=hook)
        assert warped.makespan == pytest.approx(plain.makespan + 60.0)
        crash = FaultHook.from_events(
            [FaultEvent(FaultKind.CRASH, "c", 250.0)]
        )
        cut = simulate_dag(
            dag, grouping, timing, record_trace=True, faults=crash
        )
        assert all(r.end <= 250.0 for r in cut.records)

    def test_apply_dag_reports_scenario_split(self) -> None:
        from repro.simulation.dag_engine import simulate_dag
        from repro.workflow.ocean_atmosphere import fused_scenario_dag

        dag = fused_scenario_dag(3)
        base = simulate_dag(
            dag, Grouping((4,), 0, 4), _flat(), record_trace=True
        )
        crash = FaultHook.from_events(
            [FaultEvent(FaultKind.CRASH, "c", 250.0)]
        )
        _warped, outcome = crash.apply_dag(base, dag)
        assert outcome.crashed
        assert outcome.completed_months == {0: 2}
        assert outcome.months_lost == 1

    def test_trace_compiles_against_cluster_name(self) -> None:
        trace = FaultTrace.of(
            [FaultEvent(FaultKind.CRASH, "other", 100.0)]
        )
        # Events for a different cluster never touch this schedule.
        result, outcome = simulate_with_faults(
            Grouping((4,), 0, 4), EnsembleSpec(1, 2), _flat(), trace,
            cluster_name="mine",
        )
        assert not outcome.crashed
        assert result.makespan > 0
