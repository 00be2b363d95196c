"""The compute workloads: two sweeps, an arena race, a fault-replay campaign.

Each workload builds its inputs from the seed in ``__init__`` (that is
set-up, timed as ``setup_s``) and then runs *passes*.  A pass is one
wait a user has — a whole sweep, a whole race, or a replay of the
whole fixed trace set — timed around the program calls only.  With a
:class:`~spans.SpanTracer` the same pass runs with spans around each
layer's public entry points (see :mod:`spans`); the inputs and the
outputs are the same either way.

The service workload lives in :mod:`service_loop`.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from checks import digest, finite_at_least
from spans import SpanTracer, interpose


@dataclass
class PassResult:
    """One pass: its wall time, operations, per-wait times and outputs."""

    wall_s: float
    ops: int
    failed: int
    waits_s: list[float]
    digest: str
    #: reference seconds per second of this pass (see :mod:`hostspeed`);
    #: 1.0 where the host's speed is not measured.
    scale: float = 1.0
    #: per-layer measurements; filled on traced passes only.
    layers: dict[str, float] = field(default_factory=dict)
    #: per-layer counts, which must repeat exactly from pass to pass.
    counts: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Sweeps: sweep_paper and sweep_observed.
# ---------------------------------------------------------------------------

#: Resource axis, scenarios and horizon per workload and size.
SWEEP_SIZES = {
    "sweep_paper": {
        "full": {"r_min": 11, "r_max": 120, "step": 1, "ns": 10, "nm": 1800},
        "tiny": {"r_min": 11, "r_max": 23, "step": 4, "ns": 4, "nm": 24},
    },
    "sweep_observed": {
        "full": {"r_min": 11, "r_max": 120, "step": 4, "ns": 10, "nm": 1800},
        "tiny": {"r_min": 11, "r_max": 23, "step": 4, "ns": 4, "nm": 24},
    },
}


class SweepWorkload:
    """A fig7-shaped grid on ``sagittaire``, all four heuristics.

    The seed permutes the resource axis: the chunks the sweep plans and
    simulates together change, the set of points does not.  Rows are
    compared in grid-key order, so the pinned digest holds on every
    seed.  ``sweep_observed`` runs inside ``obs.session()`` and exports
    the metrics and Chrome trace as ``--metrics-out``/``--trace-out``
    do.
    """

    prefix = "sweep"
    seed_independent_outputs = True

    def __init__(self, name: str, seed: int, size: str, workdir: Path) -> None:
        from repro.core.bounds import lower_bounds
        from repro.experiments.runner import ALL_HEURISTICS, resource_sweep
        from repro.experiments.sweep import SweepGrid
        from repro.platform.benchmarks import benchmark_timing
        from repro.workflow.ocean_atmosphere import EnsembleSpec

        p = SWEEP_SIZES[name][size]
        resources = resource_sweep(p["r_min"], p["r_max"], p["step"])
        random.Random(f"{name}:{seed}").shuffle(resources)
        self.observed = name == "sweep_observed"
        self.tasks_per_run = 2 * p["ns"] * p["nm"]
        self.grid = SweepGrid(
            clusters=("sagittaire",),
            resources=tuple(resources),
            scenarios=(p["ns"],),
            months=(p["nm"],),
            heuristics=tuple(h.value for h in ALL_HEURISTICS),
        )
        timing = benchmark_timing("sagittaire")
        spec = EnsembleSpec(p["ns"], p["nm"])
        self.bounds = {
            r: lower_bounds(r, spec, timing).combined for r in resources
        }
        self.journal = workdir / f"{name}.ndjson"
        self.metrics_out = workdir / f"{name}.metrics.json"
        self.trace_out = workdir / f"{name}.trace.json"
        self.inputs_digest = digest(self.grid.as_dict())

    def _sweep(self, tracer: SpanTracer | None):
        """The program calls of one pass, as ``repro-oa sweep --out`` makes them."""
        from repro import obs
        from repro.experiments.sweep import run_sweep

        span = tracer.span if tracer is not None else (lambda _name: nullcontext())
        scope = obs.session() if self.observed else nullcontext()
        exported = (0, 0)
        with scope:
            with obs.span("sweep.cli", points=self.grid.size):
                with span("sweep.run"):
                    result = run_sweep(self.grid, journal_path=self.journal)
            if self.observed:
                with span("sweep.obs_export"):
                    exported = self._export()
        return result, exported

    def _export(self) -> tuple[int, int]:
        """Write the metrics and Chrome trace as ``finalize_obs`` does."""
        from repro import obs

        tracer = obs.tracer()
        self.trace_out.write_text(tracer.to_chrome_json() + "\n", encoding="utf-8")
        registry = obs.registry()
        self.metrics_out.write_text(registry.to_json() + "\n", encoding="utf-8")
        return len(tracer.spans), len(registry)

    def run_pass(self, tracer: SpanTracer | None) -> PassResult:
        import repro.core.batch as batch
        import repro.experiments.sweep as sweep
        from repro.core.makespan import clear_makespan_cache, makespan_cache_stats

        clear_makespan_cache()  # a cold cache, as a fresh `repro-oa sweep` has
        self.journal.unlink(missing_ok=True)
        targets = []
        if tracer is not None:
            targets = [
                (batch, "batch_plan_groupings", tracer.timed("sweep.plan")),
                (sweep, "plan_grouping", tracer.timed("sweep.plan")),
                (sweep, "cached_simulated_makespan", tracer.timed("sweep.simulate")),
                (sweep, "dump_result", tracer.timed("sweep.journal_encode")),
            ]
        with interpose(targets):
            started = time.perf_counter()
            result, (obs_spans, obs_series) = self._sweep(tracer)
            wall = time.perf_counter() - started

        failed = self.grid.size - len(result.rows)
        for row in result.rows:
            if row.makespan is not None and not finite_at_least(
                row.makespan, self.bounds[row.point.resources]
            ):
                failed += 1
        rows = sorted((row.as_dict() for row in result.rows), key=_row_key)
        outcome = PassResult(wall, self.grid.size, failed, [wall], digest(rows))
        if tracer is not None:
            own = tracer.self_times()
            stats = makespan_cache_stats()["simulated"]
            lookups = stats["hits"] + stats["misses"]
            outcome.layers = {
                "sweep.plan_s": own.get("sweep.plan", 0.0),
                "sweep.simulate_s": own.get("sweep.simulate", 0.0),
                "sweep.journal_encode_s": own.get("sweep.journal_encode", 0.0),
                "sweep.driver_self_s": own.get("sweep.run", 0.0),
                "sweep.obs_export_s": own.get("sweep.obs_export", 0.0),
                "sweep.simulate_share": own.get("sweep.simulate", 0.0) / wall,
                "sweep.plan_share": own.get("sweep.plan", 0.0) / wall,
            }
            outcome.counts = {
                "sweep.simulate_calls": tracer.calls("sweep.simulate"),
                "sweep.tasks_simulated": stats["misses"] * self.tasks_per_run,
                "sweep.cache_hit_ratio": stats["hits"] / lookups if lookups else 0.0,
                "sweep.obs_spans": obs_spans,
                "sweep.obs_series": obs_series,
            }
        return outcome

    def close(self) -> None:
        for path in (self.journal, self.metrics_out, self.trace_out):
            path.unlink(missing_ok=True)


def _row_key(row: dict[str, Any]) -> tuple:
    return (row["cluster"], row["resources"], row["scenarios"], row["months"],
            row["heuristic"])


# ---------------------------------------------------------------------------
# arena_faults.
# ---------------------------------------------------------------------------

#: Range overrides of the ``fig8`` preset per size (full = the preset).
ARENA_SIZES = {
    "full": {},
    "tiny": {"r_min": 11, "r_max": 19, "step": 8, "months": 6},
}


class _TimedScheduler:
    """A scheduler whose ``decide`` calls are recorded as spans."""

    def __init__(self, inner: Any, tracer: SpanTracer) -> None:
        self._inner = inner
        self.decide = tracer.wrap(inner.decide, f"arena.decide.{inner.name}")

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._inner, attr)


#: The three seeded fault labels every run races over.
ARENA_FAULT_SEEDS = (212563, 217177, 457477)


class ArenaWorkload:
    """The ``fig8`` arena preset: fault-free plus three seeded fault labels.

    The fault labels are a fixed set, for the reason the campaign's
    traces are (one label can cost a fifth more than another); the seed
    seeds the schedulers that search.  Every pass starts from a cold
    makespan cache.
    """

    prefix = "arena"
    observed = False
    seed_independent_outputs = False

    def __init__(self, name: str, seed: int, size: str, workdir: Path) -> None:
        from repro.core.bounds import lower_bounds
        from repro.platform.benchmarks import benchmark_timing
        from repro.schedulers.arena import ArenaGrid
        from repro.workflow.ocean_atmosphere import EnsembleSpec

        self.grid = ArenaGrid.from_preset(
            "fig8", fault_seeds=ARENA_FAULT_SEEDS, seed=seed, **ARENA_SIZES[size]
        )
        spec = EnsembleSpec(self.grid.scenarios[0], self.grid.months[0])
        self.bounds = {
            (cluster, r): lower_bounds(r, spec, benchmark_timing(cluster)).combined
            for cluster in self.grid.clusters
            for r in self.grid.resources
        }
        self.inputs_digest = digest(self.grid.as_dict())

    def run_pass(self, tracer: SpanTracer | None) -> PassResult:
        import repro.faults.hooks as hooks
        import repro.schedulers.arena as arena
        from repro.core.makespan import clear_makespan_cache

        clear_makespan_cache()
        sink: dict[str, list[float]] = {}
        targets = []
        if tracer is not None:
            targets = [
                (arena, "get_scheduler",
                 lambda get: lambda name, **kw: _TimedScheduler(get(name, **kw), tracer)),
                (hooks, "simulate_with_faults", tracer.timed("arena.fault_sim")),
                (arena, "cached_simulated_makespan", tracer.timed("arena.clean_sim")),
                (arena, "generate_trace", tracer.timed("arena.trace_gen", count=len)),
            ]
        span = tracer.span("arena.run") if tracer is not None else nullcontext()
        with interpose(targets):
            started = time.perf_counter()
            with span:
                result = arena.run_arena(self.grid, latency_sink=sink)
            wall = time.perf_counter() - started

        failed = self.grid.size - len(result.rows)
        for row in result.rows:
            if row.makespan is None:
                continue
            bound = self.bounds[(row.point.cluster, row.point.resources)]
            if not finite_at_least(row.makespan, bound if row.completed else 0.0):
                failed += 1
        rows = [row.as_dict() for row in result.rows]
        outcome = PassResult(wall, self.grid.size, failed, [wall], digest(rows))
        if tracer is not None:
            own = tracer.self_times()
            decide = {
                name: tracer.total(f"arena.decide.{name}")
                for name in self.grid.schedulers
            }
            outcome.layers = {
                **{f"arena.decide_s.{name}": s for name, s in decide.items()},
                "arena.decide_share": sum(decide.values()) / wall,
                "arena.fault_sim_s": own.get("arena.fault_sim", 0.0),
                "arena.clean_sim_s": own.get("arena.clean_sim", 0.0),
                "arena.trace_gen_s": own.get("arena.trace_gen", 0.0),
                "arena.driver_self_s": own.get("arena.run", 0.0),
            }
            outcome.counts = {
                "arena.fault_events": tracer.counts["arena.trace_gen"],
                "arena.infeasible_points": sum(
                    1 for row in result.rows if row.makespan is None
                ),
            }
        return outcome

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# campaign_faults.
# ---------------------------------------------------------------------------

#: Grid, ensemble and the fixed trace set per size.
CAMPAIGN_SIZES = {
    "full": {"clusters": 5, "resources": 40, "ns": 10, "nm": 480,
             "trace_seeds": (0, 1, 2)},
    "tiny": {"clusters": 3, "resources": 30, "ns": 4, "nm": 12,
             "trace_seeds": (0, 1)},
}


class CampaignWorkload:
    """``run_campaign_with_faults`` replayed over a fixed set of traces.

    Traces come from ``generate_trace`` with fixed seeds, an MTBF of a
    quarter of the fault-free makespan and the default fault mix; the
    seed sets the replay order.  The set is fixed so that every run does
    the same work: replay cost varies about threefold between traces,
    and a seed-drawn set would measure the draw, not the code.
    """

    prefix = "faults"
    observed = False
    seed_independent_outputs = True

    def __init__(self, name: str, seed: int, size: str, workdir: Path) -> None:
        from repro.core.bounds import lower_bounds
        from repro.faults.trace import FaultProfile, FaultTrace, generate_trace
        from repro.middleware.recovery import run_campaign_with_faults
        from repro.platform.benchmarks import benchmark_grid
        from repro.workflow.ocean_atmosphere import EnsembleSpec

        p = CAMPAIGN_SIZES[size]
        self.grid = benchmark_grid(p["clusters"], p["resources"])
        self.ns, self.nm = p["ns"], p["nm"]
        horizon = run_campaign_with_faults(
            self.grid, self.ns, self.nm, FaultTrace()
        ).original_makespan
        profile = FaultProfile(mtbf_seconds=horizon / 4)
        started = time.perf_counter()
        self.traces = [
            generate_trace({c: profile for c in self.grid.names}, horizon, s)
            for s in p["trace_seeds"]
        ]
        self.trace_gen_s = time.perf_counter() - started
        self.order = list(range(len(self.traces)))
        random.Random(f"{name}:{seed}").shuffle(self.order)
        spec = EnsembleSpec(self.ns, self.nm)
        self.bound = min(
            lower_bounds(c.resources, spec, c.timing).chain for c in self.grid
        )
        self.inputs_digest = digest(
            [self.grid.names, self.ns, self.nm, self.order,
             [trace.to_dicts() for trace in self.traces]]
        )

    def run_pass(self, tracer: SpanTracer | None) -> PassResult:
        import repro.middleware.recovery as recovery

        targets = []
        if tracer is not None:
            targets = [
                (recovery, "performance_vector", tracer.timed("faults.vectors")),
                (recovery, "repartition_dags", tracer.timed("faults.repartition")),
                (recovery, "simulate", tracer.timed("faults.replay_sim")),
                (recovery, "simulate_dag", tracer.timed("faults.dag_sim")),
                (recovery, "fused_scenario_dag", tracer.timed("faults.dag_build")),
            ]
        reports: dict[int, Any] = {}
        with interpose(targets):
            started = time.perf_counter()
            for index in self.order:
                span = tracer.span("faults.replay") if tracer is not None else nullcontext()
                with span:
                    reports[index] = recovery.run_campaign_with_faults(
                        self.grid, self.ns, self.nm, self.traces[index]
                    )
            wall = time.perf_counter() - started

        failed = 0
        summaries = []
        for index, trace in enumerate(self.traces):
            report = reports[index]
            if not (
                len(report.events) == len(trace)
                and finite_at_least(report.makespan, self.bound)
                and finite_at_least(report.original_makespan, self.bound)
            ):
                failed += 1
            summaries.append(_report_fields(report))
        outcome = PassResult(
            wall, len(self.traces), failed, [wall], digest(summaries)
        )
        if tracer is not None:
            own = tracer.self_times()
            all_reports = list(reports.values())
            outcome.layers = {
                "faults.vectors_s": own.get("faults.vectors", 0.0),
                "faults.repartition_s": own.get("faults.repartition", 0.0),
                "faults.replay_sim_s": own.get("faults.replay_sim", 0.0),
                "faults.dag_sim_s": own.get("faults.dag_sim", 0.0),
                "faults.dag_build_s": own.get("faults.dag_build", 0.0),
                "faults.replan_s": own.get("faults.replay", 0.0),
                "faults.trace_gen_s": self.trace_gen_s,
            }
            outcome.counts = {
                "faults.events": sum(len(r.events) for r in all_reports),
                "faults.events_applied": sum(
                    sum(1 for e in r.events if e.applied) for r in all_reports
                ),
                "faults.replans": sum(r.replans for r in all_reports),
                "faults.months_lost": sum(r.months_lost for r in all_reports),
            }
        return outcome

    def close(self) -> None:
        pass


def _report_fields(report: Any) -> dict[str, Any]:
    """The deterministic fields of a ``CampaignFaultReport``."""
    return {
        "original_makespan": report.original_makespan,
        "original_counts": list(report.original_repartition.counts),
        "makespan": report.makespan,
        "months_lost": report.months_lost,
        "lost_work_seconds": report.lost_work_seconds,
        "replans": report.replans,
        "reassignment": sorted(report.reassignment.items()),
        "cluster_finish": sorted(report.cluster_finish.items()),
        "events": [
            [
                e.applied, e.reason, list(e.interrupted),
                sorted(e.reassignment.items()), sorted(e.completed_months.items()),
                sorted(e.pending_posts.items()), e.months_lost,
                e.lost_work_seconds, e.makespan_after,
            ]
            for e in report.events
        ],
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]
