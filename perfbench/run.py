"""Paper-horizon benchmark: five user waits, each split by layer.

Run from the repository root::

    python3 perfbench/run.py --workload sweep_paper --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Workloads, metrics and units are declared in ``BENCHMARK.json`` at the
root.  ``--trace 0`` prints the end-to-end metrics, measured with the
program's tracing off; ``--trace 1`` prints the per-layer metrics of a
separate traced run; ``--workload all`` runs every workload both ways.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Set-up is timed in fresh interpreters: ``SETUP_SAMPLES`` times from
process start to the moment the workload's inputs are built (and, for
``service_jobs``, its server is listening); ``setup_s`` is their median,
in reference seconds on the compute workloads (see ``hostspeed.py``).
The measured run happens in the last of those interpreters.

Everything the benchmark writes goes under ``.perfbench_out/`` in the
working directory: a report, and the spans of traced runs.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from hostspeed import MIN_BURST_S, REFERENCE_SPEED, WALL_CLOCK_WORKLOADS, host_speed

BENCH_DIR = Path(__file__).resolve().parent
#: Set-up samples per run (the measured child is the last one).
SETUP_SAMPLES = 3
#: Every child must be done this many seconds after the run starts.
RUN_BUDGET_S = 170.0


class ChildFailed(RuntimeError):
    pass


def _child(args: argparse.Namespace, workdir: Path, deadline: float,
           setup_only: bool) -> tuple[float, str]:
    """Start a child interpreter; return (set-up seconds, its last line)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path.cwd() / "src"), env.get("PYTHONPATH")])
    )
    command = [
        sys.executable, str(BENCH_DIR / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, "--workdir", str(workdir),
    ]
    if args.pinned:
        command += ["--pinned", args.pinned]
    if setup_only:
        command.append("--setup-only")
    started = time.perf_counter()
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=env,
        start_new_session=True,  # one group: the child, its server, its pool
    )
    watchdog = threading.Timer(
        max(1.0, deadline - time.monotonic()), _kill_group, args=(proc,)
    )
    watchdog.start()
    try:
        assert proc.stdout is not None
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        lines = [line for line in proc.stdout.read().splitlines() if line.strip()]
        code = proc.wait()
    finally:
        watchdog.cancel()
        _kill_group(proc)  # reap anything the child left behind
    if ready.strip() != "READY" or code != 0:
        raise ChildFailed(
            f"{args.workload} child exited with code {code} "
            f"({'set-up' if ready.strip() != 'READY' else 'measurement'} failed)"
        )
    return setup_s, lines[-1] if lines else ""


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()


def run_workload(args: argparse.Namespace, spec: dict, root: Path) -> dict | None:
    """One run of one workload; its result line, or ``None`` if it failed."""
    deadline = time.monotonic() + RUN_BUDGET_S
    workdir = root / ".perfbench_out" / (
        f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    )
    workdir.mkdir(parents=True, exist_ok=True)
    scaled = args.workload not in WALL_CLOCK_WORKLOADS
    setups: list[float] = []
    speeds: list[float] = []
    try:
        for sample in range(SETUP_SAMPLES):
            if scaled:
                speeds.append(host_speed(MIN_BURST_S))
            setup_only = sample < SETUP_SAMPLES - 1
            setup_s, line = _child(args, workdir, deadline, setup_only)
            setups.append(setup_s)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return None
    scales = [1.0] * len(setups)
    if scaled:
        # The measured child runs on past its set-up, so the burst before
        # it is the only one around its set-up.
        speeds.append(speeds[-1])
        scales = [
            (before + after) / 2 / REFERENCE_SPEED
            for before, after in zip(speeds, speeds[1:])
        ]
    result = json.loads(line)
    measured = result["metrics"]
    if not args.trace:
        measured["setup_s"] = statistics.median(
            setup * scale for setup, scale in zip(setups, scales)
        )

    metrics = {}
    for metric in spec["per_layer"] if args.trace else spec["end_to_end"]:
        name = metric["name"]
        if name in measured:
            value = measured.pop(name)
        elif args.trace:
            value = 0  # a layer this workload does not run
        else:
            print(f"perfbench: end-to-end metric {name} not measured",
                  file=sys.stderr)
            return None
        metrics[name] = {"value": value, "unit": metric["unit"]}
    if measured:
        print(f"perfbench: undeclared metrics {sorted(measured)}", file=sys.stderr)
        return None

    report = dict(
        result["report"], setups_s=setups, setup_scales=scales, metrics=metrics
    )
    (workdir / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    for problem in report["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(f"{args.workload} (--trace {args.trace}):", file=sys.stderr)
    for name, entry in metrics.items():
        if entry["value"]:
            print(f"  {name:36s} {entry['value']:>14.6g} {entry['unit']}",
                  file=sys.stderr)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True,
        help="a workload of BENCHMARK.json, or 'all' for each one in both modes",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny inputs for the benchmark's self-test",
    )
    parser.add_argument(
        "--pinned", default=None,
        help="digest table to check outputs against (default: digests.json)",
    )
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro here; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_workload(args, spec, root)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0

    # Every workload, untraced then traced; metric names get the workload
    # as a prefix so the combined line keeps the same shape.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in (0, 1):
            result = run_workload(
                argparse.Namespace(**dict(vars(args), workload=name, trace=trace)),
                spec, root,
            )
            if result is None:
                return 1
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
