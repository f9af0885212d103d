"""Chaos preset end-to-end: faulted runs are invisible except in cost."""

import pytest

from repro.harness.scenario import run_case
from tests.integration.golden import run_golden


@pytest.mark.smoke
@pytest.mark.parametrize("app,opt", [("jacobi", "base"), ("is", "aggr")])
def test_heavy_chaos_case_is_bit_identical(app, opt):
    case = run_case("chaos", app, opt, "heavy", seed=1)
    costs = case.costs
    assert case.ok, case.as_dict()
    assert case.identical
    assert case.violations == []
    assert costs["faults_injected"] > 0      # the plan actually fired
    assert costs["acks"] > 0
    assert case.added_time > 0
    if app == "jacobi":
        # Barrier-only app: the protocol sends exactly the same data
        # messages, so the entire overhead is retransmits + acks.  (A
        # lock-based app like 'is' may legally reshape its lock-forward
        # chains under fault-induced timing shifts.)
        assert costs["extra_messages"] == \
            costs["retransmits"] + costs["acks"]


def test_case_seed_reproducibility():
    a = run_case("chaos", "jacobi", "aggr", "moderate", seed=9,
                 inspect=False)
    b = run_case("chaos", "jacobi", "aggr", "moderate", seed=9,
                 inspect=False)
    assert a.as_dict() == b.as_dict()


@pytest.mark.smoke
def test_chaos_cli_end_to_end(capsys, tmp_path, monkeypatch):
    rc, out, data = run_golden(
        "chaos_cli", ["chaos", "--apps", "jacobi", "--opts", "base",
                      "--intensity", "heavy", "--seed", "3"],
        tmp_path, monkeypatch, capsys)
    assert rc == 0
    assert "CHAOS OK" in out
    assert data["seed"] == 3
    assert data["cases"][0]["ok"] is True
    assert data["cases"][0]["intensity"] == "heavy"
