"""Differential oracle: Equations 1–5, the simulator, and the caches.

Three independent implementations of the same quantity cross-check each
other here:

* the analytic formulas of :mod:`repro.core.makespan` (Eqs 1–5),
* the heap engine of :mod:`repro.simulation.engine` and the memoized
  kernels,
* the linear-scan reference loops of
  :mod:`tests.simulation.reference_engine`.

The analytic formulas are *estimates* of the simulated schedule, so the
oracle asserts the exact structural relations rather than blanket
equality: the main phase agrees to the last bit for every ``G`` in the
paper's [4, 11] range, the eq2 case (``R2 = 0``, ``nbused = 0``) agrees
on the *total* makespan, and in every one of the four cases the
simulator never exceeds the analytic value (the formulas over-provision
trailing posts; the simulator places them optimally).  The memoized
kernels and the reference loops, by contrast, are exact
reimplementations — those must match bit-for-bit (makespans and every
task record), with the cache both enabled and disabled.

Analytic-vs-simulator tests draw *dyadic* task times (quarters of a
second) so repeated float addition inside the simulator is exact and
``waves × TG`` style products compare without tolerance.  The engine
vs reference tests draw unrestricted floats — identical scheduling
decisions imply identical float operations, so equality must survive
arbitrary rounding.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.grouping import Grouping
from repro.core.makespan import (
    analytic_breakdown,
    cached_analytic_breakdown,
    cached_analytic_makespan,
    cached_simulated_makespan,
    clear_makespan_cache,
    makespan_cache_stats,
    set_makespan_cache_enabled,
)
from repro.exceptions import SchedulingError
from repro.platform.timing import TableTimingModel
from repro.simulation import engine
from repro.simulation.engine import simulate
from repro.simulation.groups import proc_ranges
from repro.workflow.ocean_atmosphere import EnsembleSpec
from tests.simulation import reference_engine
from tests.simulation.reference_engine import reference_simulate

GROUP_SIZES = range(4, 12)


def _dyadic_table(draw) -> TableTimingModel:
    """A timing model whose times are exact binary fractions (quarters)."""
    decrements = [draw(st.integers(0, 800)) / 4.0 for _ in GROUP_SIZES]
    base = draw(st.integers(800, 12_000)) / 4.0
    table: dict[int, float] = {}
    current = base + sum(decrements)
    for g, dec in zip(GROUP_SIZES, decrements):
        table[g] = current
        current -= dec
    tp = draw(st.integers(160, 2_000)) / 4.0
    return TableTimingModel(table, post_seconds=tp)


@st.composite
def oracle_instances(draw):
    """(resources, scenarios, months, timing) with dyadic times."""
    timing = _dyadic_table(draw)
    resources = draw(st.integers(4, 140))
    scenarios = draw(st.integers(1, 12))
    months = draw(st.integers(1, 24))
    return resources, scenarios, months, timing


@st.composite
def engine_instances(draw):
    """(grouping, spec, timing, enforce_cardinality) with unrestricted floats.

    One draw in four lets the grouping have more groups than scenarios
    (``enforce_cardinality=False``), so some groups sit idle at times.
    """
    base = draw(st.floats(min_value=200.0, max_value=3000.0))
    decrements = draw(
        st.lists(st.floats(min_value=0.0, max_value=200.0), min_size=8, max_size=8)
    )
    table: dict[int, float] = {}
    current = base + sum(decrements)
    for g, dec in zip(GROUP_SIZES, decrements):
        table[g] = current
        current -= dec
    timing = TableTimingModel(
        table, post_seconds=draw(st.floats(min_value=20.0, max_value=400.0))
    )
    scenarios = draw(st.integers(min_value=1, max_value=8))
    months = draw(st.integers(min_value=1, max_value=10))
    enforce_cardinality = draw(st.integers(0, 3)) > 0
    max_groups = scenarios if enforce_cardinality else scenarios + 4
    n_groups = draw(st.integers(min_value=1, max_value=max_groups))
    sizes = draw(
        st.lists(
            st.integers(min_value=4, max_value=11),
            min_size=n_groups,
            max_size=n_groups,
        )
    )
    post_pool = draw(st.integers(min_value=0, max_value=6))
    grouping = Grouping.from_sizes(
        sizes, sum(sizes) + post_pool, post_pool=post_pool
    )
    return grouping, EnsembleSpec(scenarios, months), timing, enforce_cardinality


@st.composite
def long_horizon_instances(draw):
    """Engine instances at horizons up to NM=300, one structure per draw.

    ``engine_instances`` stops at NS·NM = 80, short of where the main
    phase runs long without idle groups.  Here NM spans both sides of
    the engine's fast-forward threshold, and each draw takes one shape:
    every group size at the same time (all completions tie), ``k == NS``,
    ``NS == 1``, ``k > NS`` (``enforce_cardinality=False``, groups idle
    from the start), or free heterogeneous times with ``k <= NS``.
    """
    shape = draw(st.sampled_from(["ties", "k_eq_ns", "ns_one", "k_gt_ns", "free"]))
    scenarios = 1 if shape == "ns_one" else draw(st.integers(2, 10))
    months = draw(st.one_of(st.integers(1, 12), st.integers(13, 300)))
    if shape in ("k_eq_ns", "ns_one"):
        n_groups = scenarios
    elif shape == "k_gt_ns":
        n_groups = draw(st.integers(scenarios + 1, scenarios + 4))
    else:
        n_groups = draw(st.integers(1, scenarios))
    if shape == "ties":
        tg = draw(st.floats(min_value=0.1, max_value=3000.0))
        table = {g: tg for g in GROUP_SIZES}
    else:
        # Few distinct times, so equal ends across groups stay common.
        times = draw(
            st.lists(st.floats(min_value=0.1, max_value=3000.0), min_size=1, max_size=3)
        )
        table = {g: draw(st.sampled_from(times)) for g in GROUP_SIZES}
    timing = TableTimingModel(
        table, post_seconds=draw(st.floats(min_value=0.05, max_value=400.0))
    )
    sizes = draw(
        st.lists(
            st.integers(min_value=4, max_value=11),
            min_size=n_groups,
            max_size=n_groups,
        )
    )
    post_pool = draw(st.integers(min_value=0, max_value=6))
    grouping = Grouping.from_sizes(
        sizes, sum(sizes) + post_pool, post_pool=post_pool
    )
    enforce = shape != "k_gt_ns"
    return grouping, EnsembleSpec(scenarios, months), timing, enforce


def _basic_grouping(g: int, resources: int, scenarios: int) -> Grouping:
    """The basic schedule's partition for one candidate ``G``."""
    nbmax = min(scenarios, resources // g)
    return Grouping.uniform(g, nbmax, resources)


@given(oracle_instances())
@settings(max_examples=80, deadline=None)
def test_analytic_vs_simulator_for_every_group_size(instance) -> None:
    """Eqs 1–5 vs the event replay, for every ``G`` in the paper's range.

    Main phase: exact.  Total: an upper bound, tight in eq2.  Group
    sizes that do not fit must raise on both sides.
    """
    resources, scenarios, months, timing = instance
    spec = EnsembleSpec(scenarios, months)
    tp = timing.post_time()
    for g in GROUP_SIZES:
        tg = timing.main_time(g)
        if resources // g < 1:
            with pytest.raises(SchedulingError):
                analytic_breakdown(resources, g, scenarios, months, tg, tp)
            continue
        breakdown = analytic_breakdown(resources, g, scenarios, months, tg, tp)
        sim = simulate(_basic_grouping(g, resources, scenarios), spec, timing)
        assert sim.main_makespan == breakdown.main_makespan
        assert sim.makespan <= breakdown.makespan
        if breakdown.case == "eq2":
            assert sim.makespan == breakdown.makespan


@given(
    g=st.integers(min_value=4, max_value=11),
    groups=st.integers(min_value=1, max_value=6),
    months=st.integers(min_value=1, max_value=10),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_eq2_total_makespan_is_exact(g, groups, months, data) -> None:
    """Constructed eq2 instances (R2=0, nbused=0): total equality, exactly."""
    timing = _dyadic_table(data.draw)
    resources = groups * g  # R2 = 0
    scenarios = groups  # nbmax = groups, so nbtasks % nbmax = 0
    breakdown = analytic_breakdown(
        resources, g, scenarios, months, timing.main_time(g), timing.post_time()
    )
    assert breakdown.case == "eq2"
    sim = simulate(
        _basic_grouping(g, resources, scenarios),
        EnsembleSpec(scenarios, months),
        timing,
    )
    assert sim.makespan == breakdown.makespan
    assert sim.main_makespan == breakdown.main_makespan


def test_all_four_cases_covered_and_bounded() -> None:
    """A deterministic grid hits eq2/eq3/eq4/eq5; the bound holds in each."""
    table = {g: 1600.0 - 100.0 * (g - 4) for g in GROUP_SIZES}
    timing = TableTimingModel(table, post_seconds=180.0)
    seen: set[str] = set()
    for resources in range(8, 97, 4):
        for scenarios in (3, 5, 10):
            for months in (4, 6, 12):
                spec = EnsembleSpec(scenarios, months)
                for g in GROUP_SIZES:
                    if resources // g < 1:
                        continue
                    breakdown = analytic_breakdown(
                        resources, g, scenarios, months,
                        timing.main_time(g), timing.post_time(),
                    )
                    sim = simulate(
                        _basic_grouping(g, resources, scenarios), spec, timing
                    )
                    seen.add(breakdown.case)
                    assert sim.main_makespan == breakdown.main_makespan
                    assert sim.makespan <= breakdown.makespan
    assert seen == {"eq2", "eq3", "eq4", "eq5"}


@pytest.mark.parametrize("cache_enabled", [True, False])
@given(instance=oracle_instances())
@settings(max_examples=40, deadline=None)
def test_memoized_kernels_match_uncached_bit_for_bit(
    cache_enabled, instance
) -> None:
    """Cache hit, cache miss, and cache-off all return the same bits."""
    resources, scenarios, months, timing = instance
    spec = EnsembleSpec(scenarios, months)
    tp = timing.post_time()
    previous = set_makespan_cache_enabled(cache_enabled)
    try:
        clear_makespan_cache()
        for g in GROUP_SIZES:
            if resources // g < 1:
                continue
            tg = timing.main_time(g)
            direct = analytic_breakdown(resources, g, scenarios, months, tg, tp)
            first = cached_analytic_breakdown(
                resources, g, scenarios, months, tg, tp
            )
            second = cached_analytic_breakdown(
                resources, g, scenarios, months, tg, tp
            )
            assert first == direct
            assert second == direct
            assert (
                cached_analytic_makespan(resources, g, scenarios, months, tg, tp)
                == direct.makespan
            )
            grouping = _basic_grouping(g, resources, scenarios)
            reference = simulate(grouping, spec, timing).makespan
            assert cached_simulated_makespan(grouping, spec, timing) == reference
            assert cached_simulated_makespan(grouping, spec, timing) == reference
    finally:
        set_makespan_cache_enabled(previous)
        clear_makespan_cache()


@given(engine_instances())
@settings(max_examples=150, deadline=None)
def test_fast_path_matches_reference_bit_for_bit(instance) -> None:
    """The engine's traced run equals the reference loops to the last bit.

    Makespans, main makespans and the full records tuple — every start,
    end, month and processor range — and the untraced run's makespans.
    """
    grouping, spec, timing, enforce = instance
    reference = reference_simulate(
        grouping, spec, timing, enforce_cardinality=enforce
    )
    traced = simulate(
        grouping, spec, timing, record_trace=True, enforce_cardinality=enforce
    )
    plain = simulate(grouping, spec, timing, enforce_cardinality=enforce)
    assert traced.makespan == reference.makespan
    assert traced.main_makespan == reference.main_makespan
    assert traced.records == reference.records
    assert plain.makespan == reference.makespan
    assert plain.main_makespan == reference.main_makespan


@given(
    sizes=st.lists(st.integers(4, 11), min_size=1, max_size=4),
    post_pool=st.integers(0, 3),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_post_merge_matches_reference_heap(sizes, post_pool, data) -> None:
    """The heap-free post merge against the oracle's proc-id heap.

    Group release times and ready times are drawn independently of any
    main phase — releases before, among and after the ready times, with
    repeats — so the merge meets pools no simulation would build.
    """
    grouping = Grouping.from_sizes(
        sizes, sum(sizes) + post_pool, post_pool=post_pool
    )
    stamps = data.draw(
        st.lists(st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=5)
    )
    group_last_end = [data.draw(st.sampled_from(stamps)) for _ in sizes]
    ready = sorted(data.draw(st.lists(st.sampled_from(stamps), max_size=120)))
    tp = data.draw(st.sampled_from([0.5, 3.0, 50.0, 400.0]))
    _records, expected = reference_engine._run_post_phase(
        grouping,
        [(r, i, 0, r) for i, r in enumerate(ready)],
        group_last_end,
        proc_ranges(grouping),
        tp,
        False,
    )
    assert engine._run_post_phase(grouping, ready, group_last_end, tp) == expected


def _records_digest(records) -> str:
    text = repr([
        (r.kind, r.scenario, r.month, r.start.hex(), r.end.hex(), r.group,
         r.procs_start, r.procs_stop)
        for r in records
    ])
    return hashlib.sha256(text.encode()).hexdigest()


@given(engine_instances())
@settings(max_examples=40, deadline=None)
def test_fast_path_matches_instrumented_reference(instance) -> None:
    """Metrics on or off, the engine produces the same schedule."""
    grouping, spec, timing, enforce = instance
    quiet = simulate(
        grouping, spec, timing, record_trace=True, enforce_cardinality=enforce
    )
    with obs.session():
        observed = simulate(
            grouping, spec, timing, record_trace=True, enforce_cardinality=enforce
        )
        observed_plain = simulate(grouping, spec, timing, enforce_cardinality=enforce)
    assert observed.makespan == quiet.makespan
    assert observed.main_makespan == quiet.main_makespan
    assert observed_plain.makespan == quiet.makespan
    assert _records_digest(observed.records) == _records_digest(quiet.records)


def _assert_metrics_match_reference(grouping, spec, timing, enforce) -> None:
    """The engine's metrics equal the values the oracle's records imply."""
    reference = reference_simulate(
        grouping, spec, timing, enforce_cardinality=enforce
    )
    mains = [r for r in reference.records if r.kind == "main"]
    posts = [r for r in reference.records if r.kind == "post"]
    per_group = [[r for r in mains if r.group == g] for g in range(grouping.n_groups)]
    idle = sum(
        max((r.end for r in tasks), default=0.0)
        - len(tasks) * timing.main_time(size)
        for tasks, size in zip(per_group, grouping.group_sizes, strict=True)
    )
    with obs.session() as (registry, _tracer):
        simulate(grouping, spec, timing, enforce_cardinality=enforce)
        dump = registry.as_dict()

    def value(section: str, name: str, **labels: str) -> float:
        (entry,) = [
            e for e in dump[section][name]
            if all(e["labels"].get(k) == v for k, v in labels.items())
        ]
        return entry["value"]

    assert value("gauges", "engine.waves") == max(len(t) for t in per_group)
    assert value("gauges", "engine.idle_seconds") == idle
    assert value("counters", "engine.events_dispatched") == len(mains)
    assert value("counters", "simulation.tasks", kind="main") == len(mains)
    assert value("counters", "simulation.tasks", kind="post") == len(posts)
    assert value("gauges", "simulation.makespan_seconds") == reference.makespan


@given(engine_instances())
@settings(max_examples=40, deadline=None)
def test_engine_metrics_match_reference_records(instance) -> None:
    """The engine's metrics equal the values the oracle's records imply."""
    _assert_metrics_match_reference(*instance)


@given(long_horizon_instances())
@settings(max_examples=80, deadline=None)
def test_long_horizon_matches_reference_bit_for_bit(instance) -> None:
    """Long horizons, ties, ``k == NS``, ``NS == 1`` and ``k > NS``.

    Makespans and the full records tuple bit for bit, untraced makespans,
    and the obs metrics (waves, idle seconds, events dispatched) against
    the oracle's records.
    """
    grouping, spec, timing, enforce = instance
    reference = reference_simulate(
        grouping, spec, timing, enforce_cardinality=enforce
    )
    traced = simulate(
        grouping, spec, timing, record_trace=True, enforce_cardinality=enforce
    )
    plain = simulate(grouping, spec, timing, enforce_cardinality=enforce)
    assert traced.makespan == reference.makespan
    assert traced.main_makespan == reference.main_makespan
    assert traced.records == reference.records
    assert plain.makespan == reference.makespan
    assert plain.main_makespan == reference.main_makespan
    _assert_metrics_match_reference(grouping, spec, timing, enforce)


def test_cache_counters_and_metrics_export() -> None:
    """Hit/miss counters track lookups and mirror into the obs registry."""
    previous = set_makespan_cache_enabled(True)
    try:
        clear_makespan_cache()
        args = (40, 5, 10, 12, 1200.0, 180.0)
        with obs.session() as (registry, _tracer):
            cached_analytic_makespan(*args)
            cached_analytic_makespan(*args)
            dump = registry.as_dict()
        stats = makespan_cache_stats()
        assert stats["analytic"]["misses"] == 1
        assert stats["analytic"]["hits"] == 1
        assert stats["analytic"]["size"] == 1
        outcomes = {
            entry["labels"]["outcome"]: entry["value"]
            for entry in dump["counters"]["makespan.cache"]
        }
        assert outcomes == {"miss": 1.0, "hit": 1.0}
    finally:
        set_makespan_cache_enabled(previous)
        clear_makespan_cache()
