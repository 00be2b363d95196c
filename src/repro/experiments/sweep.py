"""Declarative, resumable parameter sweeps over the benchmark clusters.

The paper's figures are all sweeps over ``R × NS × heuristic``; this
module generalizes them into one engine: a :class:`SweepGrid` names the
axes declaratively, :func:`run_sweep` chunks the cartesian product
deterministically across a :class:`~concurrent.futures.ProcessPoolExecutor`,
and every completed chunk is appended to an NDJSON journal via the
:mod:`~repro.experiments.results_io` envelope — so an interrupted sweep
resumes exactly where it stopped, and an interrupted-then-resumed sweep
equals a single uninterrupted one row for row (tested).

Each chunk is planned through the vectorized kernels of
:mod:`repro.core.batch` — one array evaluation per ``(cluster, NS, NM,
heuristic)`` group per chunk — and each point is simulated through the
memoized kernels of :mod:`repro.core.makespan` and the single engine of
:mod:`repro.simulation.engine`.  That is the only path: turning
observability on adds metrics and spans but never swaps the planner or
the engine.  The heuristic axis iterates innermost so the points
sharing a ``(cluster, R, NS, NM)`` kernel land in the same chunk — and
therefore the same worker-process cache.

Journal format (one envelope per line)::

    {"figure": "generic", ..., "data": {"kind": "sweep-grid", "data": {...}}}
    {"figure": "generic", ..., "data": {"kind": "sweep-rows", "data": {...}}}
    ...

The first line pins the grid; resuming against a journal written for a
different grid is a :class:`~repro.exceptions.ConfigurationError`.  A
torn final line (the process died mid-write) is discarded on resume.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from repro import obs
from repro.core.heuristics import HeuristicName, plan_grouping
from repro.core.makespan import (
    cached_simulated_makespan,
    makespan_cache_stats,
    set_makespan_cache_enabled,
)
from repro.exceptions import ConfigurationError, SchedulingError
from repro.experiments.results_io import (
    GenericResult,
    dump_result,
    load_result,
    register_codec,
)
from repro.experiments.runner import ALL_HEURISTICS, resource_sweep
from repro.workflow.ocean_atmosphere import EnsembleSpec

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "SweepGrid",
    "SweepPoint",
    "SweepResult",
    "SweepRow",
    "run_sweep",
]

#: Points per chunk when the caller does not choose.  A multiple of the
#: heuristic-axis length keeps every ``(cluster, R, NS, NM)`` kernel's
#: heuristics inside one chunk (one worker cache), and 32 points is a
#: few hundred milliseconds of work — fine-grained enough to journal and
#: to keep an 8-worker pool busy on figure-scale grids.
DEFAULT_CHUNK_SIZE = 32

_HEURISTIC_NAMES = tuple(h.value for h in ALL_HEURISTICS)


@dataclass(frozen=True)
class SweepPoint:
    """One cell of a sweep grid: a cluster/ensemble/heuristic combination."""

    cluster: str
    resources: int
    scenarios: int
    months: int
    heuristic: str

    def key(self) -> tuple[str, int, int, int, str]:
        """The point's identity — what journals and resume match on."""
        return (
            self.cluster,
            self.resources,
            self.scenarios,
            self.months,
            self.heuristic,
        )


@dataclass(frozen=True)
class SweepGrid:
    """A declarative parameter grid: the cartesian product of five axes.

    Axes are tuples so grids hash and compare structurally; use
    :meth:`from_ranges` for the common ``r_min..r_max`` form.  Points
    enumerate in axis order with ``heuristic`` innermost.
    """

    clusters: tuple[str, ...]
    resources: tuple[int, ...]
    scenarios: tuple[int, ...]
    months: tuple[int, ...]
    heuristics: tuple[str, ...]

    def __post_init__(self) -> None:
        for axis in ("clusters", "resources", "scenarios", "months", "heuristics"):
            if not getattr(self, axis):
                raise ConfigurationError(f"sweep grid axis {axis!r} is empty")
        for axis in ("resources", "scenarios", "months"):
            for value in getattr(self, axis):
                if not isinstance(value, int) or value < 1:
                    raise ConfigurationError(
                        f"sweep grid axis {axis!r} needs integers >= 1, "
                        f"got {value!r}"
                    )
        for name in self.heuristics:
            try:
                HeuristicName(name)
            except ValueError:
                raise ConfigurationError(
                    f"unknown heuristic {name!r}; expected one of "
                    f"{_HEURISTIC_NAMES}"
                ) from None

    @classmethod
    def from_ranges(
        cls,
        *,
        clusters: Sequence[str] = ("sagittaire",),
        r_min: int = 11,
        r_max: int = 120,
        step: int = 1,
        scenarios: Sequence[int] = (10,),
        months: Sequence[int] = (12,),
        heuristics: Sequence[str] | None = None,
    ) -> "SweepGrid":
        """Build a grid from a figure-style resource range."""
        return cls(
            clusters=tuple(clusters),
            resources=tuple(resource_sweep(r_min, r_max, step)),
            scenarios=tuple(int(s) for s in scenarios),
            months=tuple(int(m) for m in months),
            heuristics=(
                _HEURISTIC_NAMES if heuristics is None else tuple(heuristics)
            ),
        )

    @property
    def size(self) -> int:
        """Total number of points in the grid."""
        return (
            len(self.clusters)
            * len(self.resources)
            * len(self.scenarios)
            * len(self.months)
            * len(self.heuristics)
        )

    def points(self) -> list[SweepPoint]:
        """Every point, in deterministic order (heuristic innermost)."""
        return [
            SweepPoint(cluster, r, ns, nm, heuristic)
            for cluster in self.clusters
            for r in self.resources
            for ns in self.scenarios
            for nm in self.months
            for heuristic in self.heuristics
        ]

    def as_dict(self) -> dict[str, Any]:
        """JSON form — also the journal's grid-identity line."""
        return {
            "clusters": list(self.clusters),
            "resources": list(self.resources),
            "scenarios": list(self.scenarios),
            "months": list(self.months),
            "heuristics": list(self.heuristics),
        }

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "SweepGrid":
        """Inverse of :meth:`as_dict`."""
        return cls(
            clusters=tuple(str(c) for c in raw["clusters"]),
            resources=tuple(int(r) for r in raw["resources"]),
            scenarios=tuple(int(s) for s in raw["scenarios"]),
            months=tuple(int(m) for m in raw["months"]),
            heuristics=tuple(str(h) for h in raw["heuristics"]),
        )


@dataclass(frozen=True)
class SweepRow:
    """One evaluated point: its simulated makespan and chosen grouping.

    ``makespan is None`` marks an infeasible point — the heuristic could
    not produce a grouping there (e.g. knapsack on too few processors);
    recording the miss keeps resumes from retrying it forever.
    """

    point: SweepPoint
    makespan: float | None
    grouping: str

    def as_dict(self) -> dict[str, Any]:
        """JSON form used by the journal and the ``sweep`` codec."""
        return {
            "cluster": self.point.cluster,
            "resources": self.point.resources,
            "scenarios": self.point.scenarios,
            "months": self.point.months,
            "heuristic": self.point.heuristic,
            "makespan": self.makespan,
            "grouping": self.grouping,
        }

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "SweepRow":
        """Inverse of :meth:`as_dict`."""
        makespan = raw["makespan"]
        return cls(
            point=SweepPoint(
                cluster=str(raw["cluster"]),
                resources=int(raw["resources"]),
                scenarios=int(raw["scenarios"]),
                months=int(raw["months"]),
                heuristic=str(raw["heuristic"]),
            ),
            makespan=None if makespan is None else float(makespan),
            grouping=str(raw["grouping"]),
        )


@dataclass(frozen=True)
class SweepResult:
    """A sweep's evaluated rows, in grid order.

    Carries no timings or environment details on purpose: a resumed
    sweep must compare equal to an uninterrupted one.
    """

    grid: SweepGrid
    rows: tuple[SweepRow, ...]

    @property
    def complete(self) -> bool:
        """Whether every grid point has a row."""
        return len(self.rows) == self.grid.size

    def makespan_of(self, point: SweepPoint) -> float | None:
        """The makespan recorded for one point (KeyError if absent)."""
        for row in self.rows:
            if row.point == point:
                return row.makespan
        raise KeyError(point)

    def summary(self) -> dict[str, Any]:
        """Aggregate counts plus per-heuristic wins (JSON-friendly).

        A heuristic *wins* a ``(cluster, R, NS, NM)`` cell when it has
        the strictly smallest makespan there; exact ties award every
        tied heuristic.
        """
        evaluated = [row for row in self.rows if row.makespan is not None]
        wins: dict[str, int] = {h: 0 for h in self.grid.heuristics}
        cells: dict[tuple, list[SweepRow]] = {}
        for row in evaluated:
            cell = row.point.key()[:4]
            cells.setdefault(cell, []).append(row)
        for cell_rows in cells.values():
            best = min(row.makespan for row in cell_rows)
            for row in cell_rows:
                if row.makespan == best:
                    wins[row.point.heuristic] += 1
        return {
            "points": self.grid.size,
            "evaluated": len(self.rows),
            "feasible": len(evaluated),
            "infeasible": len(self.rows) - len(evaluated),
            "wins": wins,
        }


def _sweep_payload(result: SweepResult) -> dict[str, Any]:
    return {
        "grid": result.grid.as_dict(),
        "rows": [row.as_dict() for row in result.rows],
    }


def _sweep_restore(raw: dict[str, Any]) -> SweepResult:
    return SweepResult(
        grid=SweepGrid.from_dict(raw["grid"]),
        rows=tuple(SweepRow.from_dict(row) for row in raw["rows"]),
    )


register_codec("sweep", SweepResult, _sweep_payload, _sweep_restore)


# ---------------------------------------------------------------------------
# Evaluation (module-level: these run in worker processes).
# ---------------------------------------------------------------------------


def _eval_point(point: SweepPoint) -> SweepRow:
    """Plan and simulate one grid point through the scalar kernels.

    Sweeps never call this; it is the per-point oracle that the batched
    chunk evaluation must reproduce row for row (the golden-parity suite
    asserts this).
    """
    from repro.platform.benchmarks import benchmark_cluster

    cluster = benchmark_cluster(point.cluster, point.resources)
    spec = EnsembleSpec(point.scenarios, point.months)
    try:
        grouping = plan_grouping(cluster, spec, point.heuristic)
    except SchedulingError:
        return SweepRow(point, None, "")
    makespan = cached_simulated_makespan(grouping, spec, cluster.timing)
    return SweepRow(point, makespan, grouping.describe())


def _eval_chunk(
    chunk: tuple[SweepPoint, ...], use_cache: bool = True
) -> tuple[SweepRow, ...]:
    """Evaluate one chunk (the unit shipped to worker processes).

    Points are grouped by their shared ``(cluster, NS, NM, heuristic)``
    kernel and planned together over the resource axis via
    :func:`repro.core.batch.batch_plan_groupings`; simulation runs
    through the scalar cached kernel, so every row is bit-identical to
    :func:`_eval_point`'s (the golden-parity suite asserts this).
    """
    from repro.core.batch import batch_plan_groupings
    from repro.platform.benchmarks import benchmark_timing

    by_kernel: dict[tuple[str, int, int, str], list[int]] = {}
    for position, point in enumerate(chunk):
        key = (point.cluster, point.scenarios, point.months, point.heuristic)
        by_kernel.setdefault(key, []).append(position)

    rows: list[SweepRow | None] = [None] * len(chunk)
    previous = set_makespan_cache_enabled(use_cache)
    try:
        for (cluster_name, ns, nm, heuristic), positions in by_kernel.items():
            timing = benchmark_timing(cluster_name)
            spec = EnsembleSpec(ns, nm)
            groupings = batch_plan_groupings(
                timing, [chunk[p].resources for p in positions], spec, heuristic
            )
            for position, grouping in zip(positions, groupings, strict=True):
                point = chunk[position]
                if grouping is None:
                    rows[position] = SweepRow(point, None, "")
                else:
                    makespan = cached_simulated_makespan(grouping, spec, timing)
                    rows[position] = SweepRow(point, makespan, grouping.describe())
    finally:
        set_makespan_cache_enabled(previous)
    return tuple(row for row in rows if row is not None)


def _evaluate(
    chunks: list[tuple[SweepPoint, ...]],
    workers: int | None,
    use_cache: bool,
) -> Iterator[tuple[SweepRow, ...]]:
    """Yield chunk results in order, serially or across a process pool.

    Mirrors :func:`repro.experiments.runner.parallel_map`'s contract —
    ``workers in (None, 0, 1)`` is serial, order is preserved, parallel
    output is bit-identical to serial — but yields incrementally so the
    caller can journal each chunk the moment it completes.
    """
    if workers is not None and workers < 0:
        raise ConfigurationError(f"workers must be >= 0, got {workers!r}")
    if workers in (None, 0, 1) or len(chunks) <= 1:
        for chunk in chunks:
            yield _eval_chunk(chunk, use_cache)
        return
    from concurrent.futures import ProcessPoolExecutor
    from functools import partial

    with ProcessPoolExecutor(max_workers=workers) as executor:
        yield from executor.map(
            partial(_eval_chunk, use_cache=use_cache), chunks
        )


# ---------------------------------------------------------------------------
# Journal.
# ---------------------------------------------------------------------------


def _grid_line(grid: SweepGrid) -> str:
    return dump_result(GenericResult(kind="sweep-grid", data={"grid": grid.as_dict()}))


def _rows_line(rows: Iterable[SweepRow]) -> str:
    return dump_result(
        GenericResult(
            kind="sweep-rows", data={"rows": [row.as_dict() for row in rows]}
        )
    )


def _load_journal(path: Path, grid: SweepGrid) -> dict[tuple, SweepRow] | None:
    """Rows already journaled for ``grid``, keyed by point identity.

    Returns ``None`` when the journal holds nothing usable (empty file,
    or a torn first line from a sweep killed mid-write) — the caller
    starts fresh.  A journal written for a *different* grid, or corrupt
    anywhere before its final line, raises
    :class:`~repro.exceptions.ConfigurationError`; only the final line
    may be torn, because every earlier line was flushed whole.
    """
    lines = path.read_text().splitlines()
    done: dict[tuple, SweepRow] = {}
    grid_seen = False
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        last = index == len(lines) - 1
        try:
            envelope = load_result(line)
        except ConfigurationError:
            if last:
                break  # torn trailing write — discard and re-evaluate
            raise ConfigurationError(
                f"corrupt sweep journal {path} at line {index + 1}"
            ) from None
        if not isinstance(envelope, GenericResult):
            raise ConfigurationError(
                f"sweep journal {path} line {index + 1} holds "
                f"{type(envelope).__name__}, not a sweep envelope"
            )
        if not grid_seen:
            if envelope.kind != "sweep-grid":
                raise ConfigurationError(
                    f"sweep journal {path} does not start with a grid line"
                )
            if envelope.data.get("grid") != grid.as_dict():
                raise ConfigurationError(
                    f"sweep journal {path} was written for a different grid; "
                    f"pass resume=False (or a fresh path) to overwrite it"
                )
            grid_seen = True
            continue
        if envelope.kind != "sweep-rows":
            raise ConfigurationError(
                f"sweep journal {path} line {index + 1} has unexpected "
                f"kind {envelope.kind!r}"
            )
        for raw in envelope.data.get("rows", ()):
            try:
                row = SweepRow.from_dict(raw)
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"sweep journal {path} line {index + 1} holds a "
                    f"malformed row: {exc}"
                ) from exc
            done[row.point.key()] = row
    return done if grid_seen else None


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------


def run_sweep(
    grid: SweepGrid,
    *,
    workers: int | None = None,
    chunk_size: int | None = None,
    journal_path: str | Path | None = None,
    resume: bool = True,
    max_chunks: int | None = None,
    use_cache: bool = True,
) -> SweepResult:
    """Evaluate a grid, journaling each chunk so the sweep is resumable.

    Parameters
    ----------
    workers:
        ``None``/``0``/``1`` evaluates serially; larger values fan the
        chunks out over a process pool.  Parallel results are
        bit-identical to serial ones.
    chunk_size:
        Points per chunk (default :data:`DEFAULT_CHUNK_SIZE`).  The
        journal advances one chunk at a time, so smaller chunks lose
        less work to an interruption.
    journal_path:
        NDJSON file to append completed chunks to.  When it already
        holds rows for this grid and ``resume`` is true, those points
        are skipped; set ``resume=False`` to overwrite.  ``None``
        disables journaling.
    max_chunks:
        Stop after this many chunks — a work budget.  The returned
        result is then partial (``result.complete`` is false) and a
        later call with the same journal finishes the remainder.
    use_cache:
        Route evaluation through the memoized kernels of
        :mod:`repro.core.makespan` (on by default; off recomputes every
        point, which the benchmarks use as the baseline).

    Returns the rows evaluated so far — journaled history plus this
    call's work — ordered by grid position.
    """
    points = grid.points()
    journal = Path(journal_path) if journal_path is not None else None
    done: dict[tuple, SweepRow] = {}
    fresh_journal = journal is not None
    if journal is not None and resume and journal.exists():
        loaded = _load_journal(journal, grid)
        if loaded is not None:
            done = loaded
            fresh_journal = False

    pending = [point for point in points if point.key() not in done]
    if chunk_size is None:
        chunk_size = DEFAULT_CHUNK_SIZE
    elif chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size!r}")
    chunks = [
        tuple(pending[i : i + chunk_size])
        for i in range(0, len(pending), chunk_size)
    ]
    if max_chunks is not None:
        if max_chunks < 0:
            raise ConfigurationError(f"max_chunks must be >= 0, got {max_chunks!r}")
        chunks = chunks[:max_chunks]

    handle = None
    if journal is not None:
        handle = journal.open("w" if fresh_journal else "a")
        if fresh_journal:
            handle.write(_grid_line(grid) + "\n")
            handle.flush()

    started = time.perf_counter()
    evaluated = 0
    try:
        with obs.span(
            "sweep.run", points=grid.size, pending=len(pending), chunks=len(chunks)
        ):
            for rows in _evaluate(chunks, workers, use_cache):
                for row in rows:
                    done[row.point.key()] = row
                evaluated += len(rows)
                if handle is not None:
                    handle.write(_rows_line(rows) + "\n")
                    handle.flush()
                obs.inc("sweep.points", len(rows))
                obs.inc("sweep.chunks")
    finally:
        if handle is not None:
            handle.close()

    if obs.enabled():
        obs.observe("sweep.seconds", time.perf_counter() - started)
        obs.inc("sweep.runs")
        stats = makespan_cache_stats()
        for kind, counters in stats.items():
            obs.set_gauge(
                "makespan.cache_size", counters["size"], kind=kind
            )
        obs.set_gauge("sweep.resumed_points", len(done) - evaluated)

    rows = tuple(done[point.key()] for point in points if point.key() in done)
    return SweepResult(grid=grid, rows=rows)
