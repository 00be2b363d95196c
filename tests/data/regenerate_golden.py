"""Regenerate the golden fixtures in this directory.

The figure goldens pin the summary outputs of the fig7/fig8/fig10
pipelines at reduced parameters (small NM and coarse resource axes, so a
full regeneration stays under ~15 s) and are compared exactly by
``tests/experiments/test_golden_figures.py``.  The recovery golden pins
every field of the fault-replay campaign reports and single-crash
recovery plans, compared exactly by
``tests/faults/test_recovery_golden.py``.  They are *regression*
fixtures, not paper numbers: if an intentional change to the heuristics
or the engine shifts them, rerun this script and review the diff —

    PYTHONPATH=src python tests/data/regenerate_golden.py

and commit the updated ``*_golden.json`` files alongside the change
that moved them.
"""

from __future__ import annotations

import json
import pathlib

from typing import Any

from repro.experiments import fig7, fig8, fig10
from repro.experiments.results_io import dump_result
from repro.faults.trace import FaultProfile, FaultTrace, generate_trace
from repro.middleware.recovery import (
    ClusterFailure,
    CampaignFaultReport,
    RecoveryPlan,
    run_campaign_with_failure,
    run_campaign_with_faults,
)
from repro.platform.benchmarks import benchmark_grid

HERE = pathlib.Path(__file__).resolve().parent

#: Reduced parameter sets, shared with the golden test so the comparison
#: reruns exactly what was pinned.
GOLDEN_PARAMS = {
    "fig7": dict(scenarios=10, months=12, r_min=11, r_max=60, step=1),
    "fig8": dict(scenarios=10, months=12, r_min=11, r_max=43, step=4),
    "fig10": dict(
        scenarios=10, months=12, cluster_counts=(2, 3), r_min=11, r_max=43, step=8
    ),
}

#: The fault-replay campaign: a grid, an ensemble and the trace seeds of
#: ``generate_trace`` (MTBF a quarter of the fault-free makespan).
RECOVERY_CAMPAIGN = dict(clusters=5, resources=40, scenarios=10, months=60)
RECOVERY_TRACE_SEEDS = (0, 1, 2)
#: Single crashes of ``chti`` on ``benchmark_grid(3, 30)``, NS=9, NM=24.
RECOVERY_CRASH_HOURS = (2.0, 5.0, 9.0)

RECOVERY_GOLDEN = HERE / "recovery_golden.json"


def campaign_report_fields(report: CampaignFaultReport) -> dict[str, Any]:
    """Every deterministic field of a campaign report, JSON-shaped."""
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
                sorted(e.reassignment.items()),
                sorted(e.completed_months.items()),
                sorted(e.pending_posts.items()), e.months_lost,
                e.lost_work_seconds, e.makespan_after,
            ]
            for e in report.events
        ],
    }


def recovery_plan_fields(plan: RecoveryPlan) -> dict[str, Any]:
    """Every deterministic field of a single-failure recovery plan."""
    return {
        "failure": [plan.failure.cluster_name, plan.failure.at_time],
        "original_makespan": plan.original_makespan,
        "original_counts": list(plan.original_repartition.counts),
        "completed_months": sorted(plan.completed_months.items()),
        "pending_posts": sorted(plan.pending_posts.items()),
        "reassignment": sorted(plan.reassignment.items()),
        "cluster_finish": sorted(plan.cluster_finish.items()),
        "makespan": plan.makespan,
        "lost_work_seconds": plan.lost_work_seconds,
    }


def recovery_traces() -> list[FaultTrace]:
    """The seeded traces of the pinned fault-replay campaign."""
    p = RECOVERY_CAMPAIGN
    grid = benchmark_grid(p["clusters"], p["resources"])
    horizon = run_campaign_with_faults(
        grid, p["scenarios"], p["months"], FaultTrace()
    ).original_makespan
    profile = FaultProfile(mtbf_seconds=horizon / 4)
    return [
        generate_trace({c: profile for c in grid.names}, horizon, seed)
        for seed in RECOVERY_TRACE_SEEDS
    ]


def _jsonable(fields: dict[str, Any]) -> Any:
    """Tuples become lists, as a JSON round trip would make them."""
    return json.loads(json.dumps(fields))


def recovery_outputs(traces: list[FaultTrace]) -> dict[str, Any]:
    """The campaign reports over ``traces`` and the single-crash plans."""
    p = RECOVERY_CAMPAIGN
    grid = benchmark_grid(p["clusters"], p["resources"])
    reports = [
        campaign_report_fields(
            run_campaign_with_faults(grid, p["scenarios"], p["months"], trace)
        )
        for trace in traces
    ]
    small = benchmark_grid(3, 30)
    plans = [
        recovery_plan_fields(
            run_campaign_with_failure(
                small, 9, 24, ClusterFailure("chti", hours * 3600.0)
            )
        )
        for hours in RECOVERY_CRASH_HOURS
    ]
    return _jsonable({"campaign_reports": reports, "crash_plans": plans})


def regenerate_recovery() -> None:
    """Recompute the recovery outputs and rewrite their fixture."""
    traces = recovery_traces()
    golden = {
        "params": RECOVERY_CAMPAIGN,
        "traces": [trace.to_dicts() for trace in traces],
        **recovery_outputs(traces),
    }
    RECOVERY_GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {RECOVERY_GOLDEN}")


def regenerate() -> None:
    """Recompute every golden and rewrite the fixture files."""
    for name, module in (("fig7", fig7), ("fig8", fig8), ("fig10", fig10)):
        result = module.run(**GOLDEN_PARAMS[name])
        envelope = json.loads(dump_result(result))
        path = HERE / f"{name}_golden.json"
        path.write_text(json.dumps(envelope, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    regenerate_recovery()


if __name__ == "__main__":
    regenerate()
