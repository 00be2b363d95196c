"""Golden regression test for fault-replay recovery.

Replays the pinned campaign traces through
:func:`~repro.middleware.recovery.run_campaign_with_faults` and the
three single crashes through
:func:`~repro.middleware.recovery.run_campaign_with_failure`, and
compares every report field *exactly* (floats bit for bit) against
``tests/data/recovery_golden.json``.  The traces are read from the
fixture, so the test pins the replanner, not the trace generator.

Regenerate (and review the diff) with::

    PYTHONPATH=src python tests/data/regenerate_golden.py
"""

from __future__ import annotations

import json

import pytest

from repro.faults.trace import FaultTrace
from tests.data.regenerate_golden import (
    RECOVERY_CAMPAIGN,
    RECOVERY_GOLDEN,
    recovery_outputs,
)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(RECOVERY_GOLDEN.read_text())


@pytest.fixture(scope="module")
def fresh(golden) -> dict:
    traces = [FaultTrace.from_dicts(raw) for raw in golden["traces"]]
    return recovery_outputs(traces)


def test_golden_parameters_are_current(golden) -> None:
    assert golden["params"] == RECOVERY_CAMPAIGN


@pytest.mark.parametrize("index", range(3))
def test_campaign_report_matches_golden(golden, fresh, index) -> None:
    assert fresh["campaign_reports"][index] == golden["campaign_reports"][index]


@pytest.mark.parametrize("index", range(3))
def test_single_crash_plan_matches_golden(golden, fresh, index) -> None:
    assert fresh["crash_plans"][index] == golden["crash_plans"][index]
