"""Output checks: digests pinned at the default seed, and bound checks.

Every operation's answer is checked on every seed (answered, finite,
not below :func:`repro.core.bounds.lower_bounds`).  At the default seed
the digest of a pass's deterministic outputs must also equal the one
pinned in ``digests.json``; a mismatch marks every operation of the
pass as wrong, because a digest cannot say which one changed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any

#: The seed whose output digests are pinned.
DEFAULT_SEED = 0

PINNED_PATH = Path(__file__).resolve().parent / "digests.json"


def digest(value: Any) -> str:
    """SHA-256 of the canonical JSON form (floats keep every bit via repr)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pinned_digest(
    path: Path, workload: str, size: str, seed: int, *, any_seed: bool = False
) -> str | None:
    """The digest pinned for this workload and size, if it applies.

    Pins are taken at the default seed.  ``any_seed`` is for workloads
    whose seed only reorders the work, so their outputs, compared in
    canonical order, are the same on every seed.
    """
    if (seed != DEFAULT_SEED and not any_seed) or not path.exists():
        return None
    table = json.loads(path.read_text())
    return table.get(workload, {}).get(size)


#: Seconds a makespan may sit below a lower bound it attains, from float
#: summation order (the repository's bound property tests allow the same).
BOUND_SLACK = 1e-6


def finite_at_least(value: Any, bound: float) -> bool:
    """Whether ``value`` is a finite float no smaller than ``bound``."""
    return (
        isinstance(value, float)
        and math.isfinite(value)
        and value >= bound - BOUND_SLACK
    )
