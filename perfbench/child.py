"""One measured (or set-up-only) run of a workload, in a fresh interpreter.

Started by ``run.py`` with ``PYTHONPATH=src``.  Builds the workload's
inputs from the seed, prints ``READY`` (the parent times set-up up to
that line), then — unless ``--setup-only`` — measures for the given
seconds and prints one JSON object as its last line.

Untraced (``--trace 0``): passes back to back, no spans.  Traced
(``--trace 1``): untraced and traced passes alternate, so the tracing
overhead is measured on the same inputs in the same process; the
per-layer numbers come from the traced passes.  In the compute
workloads a burst of the host-speed kernel follows every pass, and the
end-to-end figures are in reference seconds (see :mod:`hostspeed`).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

from checks import PINNED_PATH, pinned_digest
from hostspeed import MIN_BURST_S, REFERENCE_SPEED, burst_after, host_speed
from spans import SpanTracer
from workloads import (
    ArenaWorkload,
    CampaignWorkload,
    PassResult,
    SweepWorkload,
    percentile,
)

#: Layer self times plus driver self time must cover the traced wall
#: time to within this share; the remainder is reported as unattributed.
ATTRIBUTION_SLACK = 0.05
#: Same for a service job's latency, split across the service layers.
SERVICE_ATTRIBUTION_SLACK = 0.10


def build(name: str, seed: int, size: str, workdir: Path) -> Any:
    if name in ("sweep_paper", "sweep_observed"):
        return SweepWorkload(name, seed, size, workdir)
    if name == "arena_faults":
        return ArenaWorkload(name, seed, size, workdir)
    if name == "campaign_faults":
        return CampaignWorkload(name, seed, size, workdir)
    if name == "service_jobs":
        from service_loop import ServiceWorkload

        return ServiceWorkload(name, seed, size, workdir)
    raise SystemExit(f"unknown workload {name!r}")


def _obs_guard(workload: Any) -> None:
    """Fail if observability is left on for a workload that runs with it off."""
    from repro import obs

    if obs.enabled() and not workload.observed:
        raise RuntimeError(
            "observability was switched on during a workload that runs with "
            "it off; the measured program would not be the production path"
        )


def run_compute(workload: Any, seconds: float, trace: bool, run_id: str):
    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    tracers: list[SpanTracer] = []
    started = time.perf_counter()
    speed = host_speed(MIN_BURST_S)

    def measured(tracer: SpanTracer | None) -> PassResult:
        nonlocal speed
        _obs_guard(workload)
        result = workload.run_pass(tracer)
        _obs_guard(workload)
        after = burst_after(result.wall_s)
        result.scale = (speed + after) / 2 / REFERENCE_SPEED
        speed = after
        return result

    while True:
        untraced.append(measured(None))
        if trace:
            tracer = SpanTracer(f"{run_id}-pass{len(traced)}")
            traced.append(measured(tracer))
            tracers.append(tracer)
        # Start another round only if it ends nearer `seconds` than this one.
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(untraced) / 2 >= seconds:
            return untraced, traced, tracers


def summarize(
    workload: Any, args: argparse.Namespace, untraced: list[PassResult],
    traced: list[PassResult], tracers: list[SpanTracer],
) -> dict[str, Any]:
    """Fold the passes into the run's metrics and correctness verdict."""
    passes = untraced + traced
    problems: list[str] = []
    reference = pinned_digest(
        Path(args.pinned), args.workload, args.size, args.seed,
        any_seed=workload.seed_independent_outputs,
    ) or passes[0].digest
    failed = 0
    for result in passes:
        if result.digest != reference:
            failed += result.ops
            problems.append(f"output digest {result.digest} != {reference}")
        else:
            failed += result.failed
    attempted = sum(result.ops for result in passes)
    metrics: dict[str, float] = {}
    prefix = workload.prefix
    if not args.trace:
        waits = [w * r.scale for r in untraced for w in r.waits_s]
        metrics["ops_per_s"] = (
            sum(r.ops for r in untraced) / sum(r.wall_s * r.scale for r in untraced)
        )
        metrics["latency_p50_ms"] = percentile(waits, 50) * 1000
        if prefix == "service":
            metrics["peak_rss_mb"] = workload.peak_rss_kb() / 1024
        else:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = rss / 1024
    else:
        for name in traced[0].layers:
            metrics[name] = statistics.median(r.layers[name] for r in traced)
        metrics.update(traced[0].counts)
        if any(r.counts != traced[0].counts for r in traced):
            problems.append(
                f"per-layer counts differ between passes: "
                f"{[r.counts for r in traced]}"
            )
        metrics["trace_overhead_pct"] = (
            _seconds_per_op(traced) / _seconds_per_op(untraced) - 1
        ) * 100
        if prefix == "service":
            # Job latency p90, from the loop that ran with tracing off.
            metrics["service.latency_p90_ms"] = (
                percentile(untraced[0].waits_s, 90) * 1000
            )
            latency = percentile(traced[0].waits_s, 50) * 1000
            remainder = metrics["service.unattributed_ms_p50"]
            if abs(remainder) > SERVICE_ATTRIBUTION_SLACK * latency:
                problems.append(
                    f"service layers leave {remainder:.3f} ms of a "
                    f"{latency:.3f} ms job unattributed"
                )
        else:
            remainders = []
            for result, tracer in zip(traced, tracers):
                covered = sum(s.duration for s in tracer.spans if s.parent is None)
                remainders.append(result.wall_s - covered)
                if abs(result.wall_s - covered) > ATTRIBUTION_SLACK * result.wall_s:
                    problems.append(
                        f"spans cover {covered:.4f} s of a {result.wall_s:.4f} s "
                        f"traced pass"
                    )
            metrics[f"{prefix}.unattributed_s"] = statistics.median(remainders)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "report": {
            "inputs_digest": workload.inputs_digest,
            "output_digests": [r.digest for r in passes],
            "reference_digest": reference,
            "problems": problems,
            "untraced_walls_s": [r.wall_s for r in untraced],
            "traced_walls_s": [r.wall_s for r in traced],
            "untraced_scales": [r.scale for r in untraced],
        },
    }


def _seconds_per_op(passes: list[PassResult]) -> float:
    return statistics.median(r.wall_s * r.scale / r.ops for r in passes)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--pinned", default=str(PINNED_PATH))
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workdir = Path(args.workdir)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = build(args.workload, args.seed, args.size, workdir)
    try:
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if workload.prefix == "service":
            if args.trace:
                untraced = [workload.run_loop(args.seconds / 2, traced=False)]
                traced = [workload.run_loop(args.seconds / 2, traced=True)]
            else:
                untraced, traced = [workload.run_loop(args.seconds, False)], []
            tracers: list[SpanTracer] = []
        else:
            untraced, traced, tracers = run_compute(
                workload, args.seconds, bool(args.trace), run_id
            )
        summary = summarize(workload, args, untraced, traced, tracers)
    finally:
        workload.close()
    if tracers:
        (workdir / "spans.json").write_text(
            json.dumps([tracer.as_dict() for tracer in tracers])
        )
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
