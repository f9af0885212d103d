"""Recover preset end-to-end: crashes are invisible except in cost."""

import json

import pytest

from repro.harness.scenario import PRESETS, run_case
from tests.integration.golden import run_golden


@pytest.mark.smoke
@pytest.mark.parametrize("app,opt,schedule", [
    ("jacobi", "base", "manager"),       # barrier master crashes
    ("jacobi", "aggr+cons", "early"),    # consistency elimination
    ("is", "aggr", "lock"),              # crash with the token held
    ("shallow", "merge", "barrier"),     # crash during a barrier wait
])
def test_crash_case_is_bit_identical(app, opt, schedule):
    case = run_case("recover", app, opt, schedule)
    assert case.ok, case.as_dict()
    assert case.identical
    assert case.realized            # the crash actually fired
    assert case.violations == []    # inspector reconciles exactly
    assert case.findings == []      # sanitizer stays clean
    assert case.costs["log_bytes"] > 0    # the victim logged to its backup
    assert case.costs["state_bytes"] > 0  # survivors shipped state back


def test_schedule_mining_covers_lock_apps_only():
    from repro.harness.spec import RunSpec, run
    base = run(RunSpec(app="jacobi", mode="dsm", dataset="tiny",
                       nprocs=4, opt="base"), telemetry=True)
    names = [s.name
             for s in PRESETS["recover"].scenarios(base, 4, None, 0)]
    assert "lock" not in names      # barrier-only app
    assert {"early", "mid", "manager"} <= set(names)
    with pytest.raises(Exception):
        run_case("recover", "jacobi", "base", "lock", base=base)


@pytest.mark.smoke
def test_recover_cli_end_to_end(capsys, tmp_path, monkeypatch):
    rc, out, data = run_golden(
        "recover_cli", ["recover", "--apps", "jacobi", "--opts", "base",
                        "--schedules", "early"],
        tmp_path, monkeypatch, capsys)
    assert rc == 0
    assert "RECOVER OK" in out
    assert data["cases"] and all(c["ok"] for c in data["cases"])
    assert data["cases"][0]["realized"]


def test_recover_cli_with_declarative_plan(capsys, tmp_path,
                                           monkeypatch):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(
        {"crashes": [{"pid": 2, "t": 5000.0, "reboot_us": 2000.0}]}))
    rc, out, data = run_golden(
        "recover_plan", ["recover", "--apps", "jacobi", "--opts", "aggr",
                         "--plan", str(plan_path)],
        tmp_path, monkeypatch, capsys)
    assert rc == 0
    assert "RECOVER OK" in out
    assert [c["schedule"] for c in data["cases"]] == ["plan"]


def test_chaos_cli_with_declarative_plan(capsys, tmp_path, monkeypatch):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(
        {"seed": 11, "links": {"0->1": {"drop": 0.15}}}))
    rc, out, data = run_golden(
        "chaos_plan", ["chaos", "--apps", "jacobi", "--opts", "base",
                       "--plan", str(plan_path)],
        tmp_path, monkeypatch, capsys)
    assert rc == 0
    assert "CHAOS OK" in out and "plan" in out
    assert [c["intensity"] for c in data["cases"]] == ["plan"]
