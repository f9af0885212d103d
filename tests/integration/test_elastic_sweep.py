"""Elastic preset end-to-end: membership churn is invisible except in
cost — and the failure detector's false positives are survivable."""

import json

import pytest

from repro.harness.scenario import PRESETS, run_case
from tests.integration.golden import run_golden


@pytest.mark.smoke
@pytest.mark.parametrize("app,opt,schedule", [
    ("jacobi", "aggr", "drain-master"),   # seat + manager handoff
    ("is", "aggr", "drain-mid"),          # lock-token custody
    ("jacobi", "base", "join-early"),     # lazy catch-up re-entry
    ("shallow", "merge", "drain-mid"),    # merge-level sync traffic
])
def test_membership_change_is_bit_identical(app, opt, schedule):
    case = run_case("elastic", app, opt, schedule)
    assert case.ok, case.as_dict()
    assert case.identical
    assert case.realized                # the event actually fired
    assert case.violations == []        # inspector reconciles exactly
    assert case.findings == []          # sanitizer stays clean
    if schedule.startswith("drain"):
        assert case.costs["handoff_messages"] > 0
        assert case.costs["handoff_bytes"] > 0


@pytest.mark.smoke
def test_false_positive_suspicion_is_survived():
    """A silence between the suspicion and eviction thresholds: the
    detector wrongly suspects a live node, re-admits it on the next
    beat, and the answer is still bit-identical."""
    case = run_case("elastic", "jacobi", "aggr", "suspect-then-recover")
    costs = case.costs
    assert case.ok, case.as_dict()
    assert "suspected" in case.observed
    assert "admitted" in case.observed
    assert "evicted" not in case.observed
    assert costs["suspicions"] >= 1 and costs["admissions"] >= 1
    assert costs["detect_us"] > 0       # detection latency was measured


def test_eviction_is_survived_too():
    """A long silence crosses the eviction threshold: the node is
    declared evicted, keeps computing, and is re-admitted when its
    NIC returns — results still bit-identical."""
    case = run_case("elastic", "jacobi", "aggr", "evict-at-barrier")
    assert case.ok, case.as_dict()
    assert {"suspected", "evicted", "admitted"} <= case.observed
    assert case.costs["evictions"] >= 1


def test_schedule_mining_produces_all_families():
    from repro.harness.spec import RunSpec, run
    base = run(RunSpec(app="jacobi", mode="dsm", dataset="tiny",
                       nprocs=4, opt="aggr", page_size=1024),
               telemetry=True)
    elastic = PRESETS["elastic"]
    scenarios = elastic.scenarios(base, 4, None, 0)
    assert [s.name for s in scenarios] == list(elastic.choices)
    hb = scenarios[0].plan.membership.heartbeat
    assert hb.suspect_after_us < hb.evict_after_us


@pytest.mark.smoke
def test_elastic_cli_end_to_end(capsys, tmp_path, monkeypatch):
    rc, out, data = run_golden(
        "elastic_cli", ["elastic", "--apps", "jacobi", "--opts", "aggr",
                        "--schedules", "drain-master"],
        tmp_path, monkeypatch, capsys)
    assert rc == 0
    assert "ELASTIC OK" in out
    assert data["schema"].startswith("repro-elastic/")
    assert data["cases"] and all(c["ok"] for c in data["cases"])
    assert data["cases"][0]["realized"]
    assert data["cases"][0]["handoff_messages"] > 0


def test_elastic_cli_with_declarative_plan(capsys, tmp_path,
                                           monkeypatch):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"membership": {
        "drains": [{"pid": 1, "t": 4000.0, "away_us": 2500.0}]}}))
    rc, out, data = run_golden(
        "elastic_plan", ["elastic", "--apps", "jacobi", "--opts", "aggr",
                         "--plan", str(plan_path)],
        tmp_path, monkeypatch, capsys)
    assert rc == 0
    assert "ELASTIC OK" in out and "plan" in out
    assert [c["schedule"] for c in data["cases"]] == ["plan"]
