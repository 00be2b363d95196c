"""Host speed, so that compute passes can be timed in reference seconds.

The benchmark runs on a few cores of a shared host whose speed drifts
with its neighbours' load: a fixed pure-Python loop runs 1.5–1.7x
faster in some minutes than in others, and CPU time drifts with wall
time, so timing CPU time does not help.  Runs that land in different
minutes then disagree by more than any gain worth claiming.

So the compute workloads bracket every pass, and every set-up, with
short runs of a fixed kernel that does not touch the program, and scale
the wall time by the kernel's speed around it relative to
``REFERENCE_SPEED``.  A pass that takes 5 s while the kernel runs at
half the reference speed counts as 2.5 reference seconds.  A change to the program moves
the scaled figures as it moves wall time; a change in the host's speed
moves the kernel too, and mostly cancels out.
"""

from __future__ import annotations

import time

#: Workloads timed in wall-clock seconds: a ``service_jobs`` job mostly
#: waits on the client's poll, which does not run slower on a slow host.
WALL_CLOCK_WORKLOADS = frozenset({"service_jobs"})
#: Kernel runs per second that define one reference second (about the
#: median of a 2-vCPU Xeon VM under Python 3.11; it only sets the scale).
REFERENCE_SPEED = 650.0
#: Each kernel burst lasts this share of the pass before it ...
BURST_SHARE = 0.2
#: ... and at least this long.
MIN_BURST_S = 0.3


def _kernel() -> int:
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return total


def host_speed(seconds: float) -> float:
    """Kernel runs per second, measured over about ``seconds``."""
    started = time.perf_counter()
    runs = 0
    while True:
        _kernel()
        runs += 1
        elapsed = time.perf_counter() - started
        if elapsed >= seconds:
            return runs / elapsed


def burst_after(pass_wall_s: float) -> float:
    """Host speed over a burst sized to the pass that just ended."""
    return host_speed(max(MIN_BURST_S, BURST_SHARE * pass_wall_s))
