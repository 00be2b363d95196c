"""Property: the event engine on unequal chains matches the DAG oracle.

Recovery schedules the remaining months of interrupted scenarios as
fused chains of unequal length, through the event engine run with one
month count per chain (``engine._chain_schedule``).  ``simulate_dag``
walks the same chains as :class:`~repro.workflow.dag.DAG` objects under
the same policy, so the two must agree to the last float: makespans,
every task's times, and the progress recovery reads at a failure instant
(``recovery._chains_at``: months and posts done, lost work, in-flight
months).

Two conventions make the comparison exact:

* the post length is ``POST_SECONDS * seq_scale``, as ``simulate_dag``
  computes it from a post task's nominal seconds — not the cluster's
  ``post_time()``, which can round differently in the last bit;
* posts whose mains end at the same instant run in scenario order in
  the engine, but in task-id string order in ``simulate_dag``, so
  ``post[s10,...]`` runs before ``post[s2,...]``.  The two orders agree
  only below 11 chains, so at most 10 are drawn.  Timing is unaffected
  either way; only which scenario's post gets which slot differs.

Ties are drawn on purpose: equal group sizes (equal main times), equal
chain lengths, and failure instants exactly at task ends.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import constants
from repro.core.grouping import Grouping
from repro.middleware.recovery import _chains_at
from repro.platform.timing import TableTimingModel
from repro.simulation.dag_engine import simulate_dag
from repro.simulation.engine import _chain_schedule
from repro.workflow.dag import DAG
from repro.workflow.ocean_atmosphere import fused_scenario_dag


@st.composite
def chain_instances(draw):
    """(grouping, timing, months, seq_scale) with ties likely."""
    decrements = draw(
        st.lists(st.sampled_from([0.0, 0.0, 37.5, 120.25]), min_size=4, max_size=4)
    )
    table = {}
    current = draw(st.floats(min_value=300.0, max_value=3000.0)) + sum(decrements)
    for g, dec in zip(range(4, 8), decrements, strict=True):
        table[g] = current
        current -= dec
    post_seconds = draw(
        st.sampled_from([constants.POST_SECONDS, 97.3, 211.7, 1000.0 / 3.0])
    )
    timing = TableTimingModel(table, post_seconds=post_seconds)

    n_chains = draw(st.integers(min_value=1, max_value=10))
    lengths = draw(st.sampled_from([(3,), (1, 4), (2, 7, 7), (5, 12, 20)]))
    months = draw(
        st.lists(st.sampled_from(lengths), min_size=n_chains, max_size=n_chains)
    )
    n_groups = draw(st.integers(min_value=1, max_value=n_chains))
    sizes = draw(
        st.lists(
            st.sampled_from([4, 4, 5, 7]), min_size=n_groups, max_size=n_groups
        )
    )
    post_pool = draw(st.integers(min_value=0, max_value=3))
    grouping = Grouping.from_sizes(
        sizes, sum(sizes) + post_pool, post_pool=post_pool
    )
    return grouping, timing, months, timing.post_time() / constants.POST_SECONDS


def _oracle(grouping, timing, months, seq_scale):
    dag = DAG()
    for scenario, length in enumerate(months):
        dag.merge(fused_scenario_dag(length, scenario=scenario))
    result = simulate_dag(
        dag, grouping, timing, seq_scale=seq_scale, record_trace=True
    )
    return dag, result


def _oracle_progress(dag, result, n_chains, offset, at_time):
    """Recovery's former record walk over ``simulate_dag``'s trace."""
    done = [0] * n_chains
    posts = [0] * n_chains
    lost = 0.0
    in_flight = 0
    for record in result.records:
        scenario = dag.task(record.task_id).scenario
        start = offset + record.start
        end = offset + record.end
        if end <= at_time:
            if record.kind == "main":
                done[scenario] += 1
            else:
                posts[scenario] += 1
        elif start < at_time:
            lost += (at_time - start) * (record.procs_stop - record.procs_start)
            if record.kind == "main":
                in_flight += 1
    return done, [d - p for d, p in zip(done, posts, strict=True)], lost, in_flight


@given(chain_instances())
@settings(max_examples=150, deadline=None)
def test_chain_schedule_matches_simulate_dag(instance) -> None:
    grouping, timing, months, seq_scale = instance
    dag, oracle = _oracle(grouping, timing, months, seq_scale)
    tp = constants.POST_SECONDS * seq_scale

    makespan, none = _chain_schedule(grouping, timing, months, tp)
    assert none is None
    assert makespan == oracle.makespan

    again, cols = _chain_schedule(grouping, timing, months, tp, columns=True)
    assert again == makespan
    n = sum(months)
    assert len(cols.start) == 2 * n
    assert float(cols.end[:n].max()) == oracle.main_makespan
    mine = sorted(
        ("main" if row < n else "seq", s, b, e, p)
        for row, (s, b, e, p) in enumerate(
            zip(
                cols.scenario.tolist(), cols.start.tolist(),
                cols.end.tolist(), cols.n_procs.tolist(),
                strict=True,
            )
        )
    )
    theirs = sorted(
        (
            r.kind, dag.task(r.task_id).scenario, r.start, r.end,
            r.procs_stop - r.procs_start,
        )
        for r in oracle.records
    )
    assert mine == theirs


@given(
    chain_instances(),
    st.floats(min_value=0.0, max_value=1.05),
    st.sampled_from([0.0, 1234.5, 86_400.0 / 7.0]),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_progress_at_matches_record_walk(instance, fraction, offset, on_edge) -> None:
    grouping, timing, months, seq_scale = instance
    dag, oracle = _oracle(grouping, timing, months, seq_scale)
    if on_edge:
        # A failure exactly at some task's end: ``end <= t`` must count it.
        ends = sorted(offset + r.end for r in oracle.records)
        at_time = ends[min(len(ends) - 1, int(fraction * len(ends)))]
    else:
        at_time = offset + fraction * oracle.makespan
    got = _chains_at(
        timing, grouping, months, constants.POST_SECONDS * seq_scale,
        offset, at_time,
    )
    assert got == _oracle_progress(dag, oracle, len(months), offset, at_time)
