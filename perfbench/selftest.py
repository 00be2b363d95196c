"""Self-test of the benchmark at tiny sizes.

Run from the repository root::

    python3 perfbench/selftest.py

It checks, for every workload, that

* the untraced and the traced run both finish, report correct outputs,
  and print every metric ``BENCHMARK.json`` declares, each with its unit;
* the traced and the untraced run consume identical generated inputs;
* a perturbed pinned output digest is reported as a failure.

Exits 0 when all checks pass, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SEED = 0
SECONDS = "1"


def run(workload: str, trace: int, pinned: Path | None = None) -> tuple[dict, dict]:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace),
        "--size", "tiny",
    ]
    if pinned is not None:
        command += ["--pinned", str(pinned)]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=170, check=True
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    report_path = Path(
        f".perfbench_out/{workload}-tiny-seed{SEED}-trace{trace}/report.json"
    )
    return result, json.loads(report_path.read_text())


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    pinned = json.loads(Path("perfbench/digests.json").read_text())
    perturbed = {
        name: {size: digest[:-1] + ("0" if digest[-1] != "0" else "1")
               for size, digest in sizes.items()}
        for name, sizes in pinned.items()
    }
    perturbed_path = Path(".perfbench_out/perturbed-digests.json")
    perturbed_path.parent.mkdir(exist_ok=True)
    perturbed_path.write_text(json.dumps(perturbed))

    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        known = len(failures)
        inputs = set()
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, report = run(workload, trace)
            inputs.add(report["inputs_digest"])
            if not result["correct"] or result["failed"]:
                failures.append(f"{workload} trace={trace}: not correct: {report['problems']}")
            expected = {m["name"]: m["unit"] for m in declared}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != expected:
                failures.append(f"{workload} trace={trace}: metrics/units differ")
        if len(inputs) != 1:
            failures.append(f"{workload}: traced and untraced inputs differ")
        result, _ = run(workload, 0, pinned=perturbed_path)
        if result["correct"] or result["failed"] != result["attempted"]:
            failures.append(f"{workload}: perturbed digest not reported as failure")
        print(f"{workload}: {'ok' if len(failures) == known else 'FAILED'}",
              flush=True)

    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
