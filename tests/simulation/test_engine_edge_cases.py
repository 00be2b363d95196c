"""Edge-case tests for the engines beyond the main suites."""

from __future__ import annotations

import pytest

from repro.core.grouping import Grouping
from repro.platform.benchmarks import benchmark_timing
from repro.platform.timing import AmdahlTimingModel, TableTimingModel
from repro.simulation.engine import simulate
from repro.simulation.online import simulate_online
from repro.simulation.validate import validate_schedule
from repro.workflow.ocean_atmosphere import EnsembleSpec
from tests.simulation.reference_engine import reference_simulate


def _flat(tg: float = 100.0, tp: float = 10.0) -> TableTimingModel:
    return TableTimingModel({g: tg for g in range(4, 12)}, post_seconds=tp)


class TestIdleProcessors:
    def test_declared_idle_procs_stay_idle(self) -> None:
        # Grouping covers 4 + 1 of 8 processors; 3 are idle by fiat.
        timing = _flat()
        grouping = Grouping((4,), 1, 8)
        assert grouping.idle_resources == 3
        result = simulate(grouping, EnsembleSpec(1, 4), timing, record_trace=True)
        validate_schedule(result, timing)
        used = {p for rec in result.records for p in rec.procs}
        assert used <= set(range(5))

    def test_idle_procs_do_not_change_makespan(self) -> None:
        timing = _flat()
        small = simulate(Grouping((4,), 1, 5), EnsembleSpec(1, 4), timing)
        padded = simulate(Grouping((4,), 1, 50), EnsembleSpec(1, 4), timing)
        assert small.makespan == pytest.approx(padded.makespan)


class TestSingleMonth:
    def test_one_month_one_scenario(self) -> None:
        timing = _flat(100.0, 10.0)
        result = simulate(Grouping((4,), 1, 5), EnsembleSpec(1, 1), timing)
        assert result.main_makespan == pytest.approx(100.0)
        assert result.makespan == pytest.approx(110.0)

    def test_many_scenarios_one_month(self) -> None:
        # Pure bag-of-tasks: 6 scenarios, 1 month, 2 groups -> 3 waves.
        timing = _flat(100.0, 10.0)
        result = simulate(
            Grouping((4, 4), 1, 9), EnsembleSpec(6, 1), timing
        )
        assert result.main_makespan == pytest.approx(300.0)


class TestPostsLongerThanMains:
    def test_pathological_ratio_still_valid(self) -> None:
        # TP > TG: the backlog never drains during the run.
        timing = TableTimingModel(
            {g: 50.0 for g in range(4, 12)}, post_seconds=200.0
        )
        grouping = Grouping((4, 4), 1, 9)
        spec = EnsembleSpec(4, 3)
        result = simulate(grouping, spec, timing, record_trace=True)
        validate_schedule(result, timing)
        # 12 posts x 200 s on 9 processors after ~300 s of mains.
        assert result.makespan > result.main_makespan + 200.0

    def test_online_engine_same_pathology(self) -> None:
        timing = TableTimingModel(
            {g: 50.0 for g in range(4, 12)}, post_seconds=200.0
        )
        result = simulate_online(EnsembleSpec(4, 3), timing, 9)
        assert result.makespan > result.main_makespan


class TestNarrowMoldability:
    def test_single_width_range(self) -> None:
        # A degenerate moldability window: only width 6 exists.
        timing = TableTimingModel({6: 120.0}, post_seconds=30.0)
        grouping = Grouping((6, 6), 0, 12)
        result = simulate(grouping, EnsembleSpec(2, 5), timing, record_trace=True)
        validate_schedule(result, timing)
        assert result.main_makespan == pytest.approx(5 * 120.0)

    def test_amdahl_custom_components(self) -> None:
        # 1 sequential component, atmosphere capped at 3: widths 2..4.
        timing = AmdahlTimingModel(
            10.0, 90.0, pre_seconds=0.0, post_seconds=5.0,
            sequential_components=1, max_parallel=3,
        )
        assert timing.group_sizes == (2, 3, 4)
        grouping = Grouping((4, 2), 1, 7)
        result = simulate(grouping, EnsembleSpec(2, 3), timing, record_trace=True)
        validate_schedule(result, timing)


def _assert_matches_reference(grouping, spec, timing) -> None:
    reference = reference_simulate(grouping, spec, timing)
    traced = simulate(grouping, spec, timing, record_trace=True)
    plain = simulate(grouping, spec, timing)
    assert traced.makespan == reference.makespan
    assert traced.main_makespan == reference.main_makespan
    assert traced.records == reference.records
    assert plain.makespan == reference.makespan
    assert plain.main_makespan == reference.main_makespan


class TestPaperScale:
    """fig7 ``sagittaire`` groupings at the paper's NS=10, NM=1800.

    One grouping per structure class the fig7 sweep produces: uniform or
    heterogeneous group times, fewer groups than scenarios or exactly as
    many.  Heterogeneous float times with ``k < NS`` are the class whose
    completion order never repeats.
    """

    @pytest.mark.parametrize(
        ("sizes", "post_pool", "uniform", "k_eq_ns"),
        [
            ((9, 9, 9, 9, 9), 2, True, False),
            ((9,) * 10, 3, True, True),
            ((8, 8, 8, 7, 7, 7, 7), 1, False, False),
            ((8, 8, 8, 8, 8, 8, 7, 7, 7, 7), 0, False, True),
        ],
        ids=["uniform-k<NS", "uniform-k=NS", "hetero-k<NS", "hetero-k=NS"],
    )
    def test_matches_reference(self, sizes, post_pool, uniform, k_eq_ns) -> None:
        timing = benchmark_timing("sagittaire")
        spec = EnsembleSpec(10, 1800)
        grouping = Grouping.from_sizes(
            list(sizes), sum(sizes) + post_pool, post_pool=post_pool
        )
        times = {timing.main_time(g) for g in grouping.group_sizes}
        assert (len(times) == 1) is uniform
        assert (grouping.n_groups == spec.scenarios) is k_eq_ns
        _assert_matches_reference(grouping, spec, timing)


class TestFirstFinishTie:
    """The first scenario to finish ends at the same float time as other
    groups' completions — the point where the main phase stops being
    idle-free.  Dyadic times keep the tie exact."""

    @pytest.mark.parametrize(
        ("sizes", "scenarios", "months", "t4", "t5"),
        [
            ((5, 5, 4), 4, 20, 2.0, 3.0),  # finishing group pops last
            ((5, 4, 4), 4, 20, 3.0, 2.0),  # finishing group pops first
            ((5, 4), 2, 30, 2.0, 3.0),  # k == NS
        ],
    )
    def test_matches_reference(self, sizes, scenarios, months, t4, t5) -> None:
        timing = TableTimingModel(
            {g: t4 if g == 4 else t5 for g in range(4, 12)}, post_seconds=1.0
        )
        grouping = Grouping.from_sizes(list(sizes), sum(sizes) + 1, post_pool=1)
        spec = EnsembleSpec(scenarios, months)
        reference = reference_simulate(grouping, spec, timing)
        mains = [r for r in reference.records if r.kind == "main"]
        first_finish = min(r.end for r in mains if r.month == months - 1)
        assert sum(r.end == first_finish for r in mains) > 1
        _assert_matches_reference(grouping, spec, timing)
