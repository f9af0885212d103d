"""The shared fault-scenario runner, once per preset, plus the backend
support rule that decides which presets a protocol may run."""

import json

import pytest

from repro.errors import ReproError
from repro.faults import FaultPlan, NodeCrash
from repro.harness import RunSpec, run, scenario
from repro.harness.scenario import PRESETS, Case, render, sweep
from repro.membership import MembershipPlan, NodeDrain

#: preset -> (failing case name, label fields).
LABELS = {
    "chaos": ("light", {"intensity": "light", "seed": 0}),
    "recover": ("early", {"schedule": "early", "pid": 0, "t_us": 0.0}),
    "elastic": ("drain-mid", {"schedule": "drain-mid"}),
}


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_render_reports_failures(preset):
    p = PRESETS[preset]
    name, labels = LABELS[preset]
    bad = Case(p, "x", "base", name, dict(labels), identical=False)
    text = render(preset, [bad])
    assert "DIVERGED" in text and f"{p.word} FAIL" in text
    good = Case(p, "x", "base", name, dict(labels), identical=True,
                realized=True)
    assert f"{p.word} OK" in render(preset, [good])


#: preset -> (sweep filters, expected case count).  'push' does not
#: apply to is, so asking for it must yield no is/push cases.
REDUCED = {
    "chaos": (dict(apps=["is"], opts=["push"], names=["light"]), 0),
    "recover": (dict(apps=["is"], opts=["aggr", "push"],
                     names=["manager", "lock"]), 2),
    "elastic": (dict(apps=["jacobi"], opts=["aggr"],
                     names=["drain-mid", "join-early"]), 2),
}


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_sweep_reduced_matrix(preset):
    filters, count = REDUCED[preset]
    cases = sweep(preset, inspect=False, **filters)
    assert len(cases) == count
    assert all(c.opt != "push" for c in cases)
    assert all(c.identical for c in cases), [c.as_dict() for c in cases]


CRASH = {"crashes": [{"pid": 1, "t": 5000.0}]}


@pytest.mark.parametrize("kind,protocol,data_plane", [
    ("crash", "hlrc", None),
    ("crash", "adaptive", None),
    ("membership", "hlrc", None),
    ("membership", "adaptive", None),
    ("crash", None, "onesided"),
])
def test_support_rule_rejects_before_running(kind, protocol, data_plane,
                                             tmp_path, monkeypatch):
    match = "data plane" if data_plane else "mw-lrc"
    plan = FaultPlan(crashes=(NodeCrash(pid=1, t=5000.0),)) \
        if kind == "crash" else FaultPlan(membership=MembershipPlan(
            drains=(NodeDrain(1, 5000.0, 1000.0),)))
    with pytest.raises(ReproError, match=match):
        run(RunSpec(app="jacobi", mode="dsm", dataset="tiny", nprocs=4,
                    opt="aggr", protocol=protocol, data_plane=data_plane,
                    faults=plan))

    def no_run(*args, **kwargs):
        raise AssertionError("a sweep ran before the support check")

    monkeypatch.setattr(scenario, "run", no_run)
    if data_plane:
        plan_path = tmp_path / "crash.json"
        plan_path.write_text(json.dumps(CRASH))
        argv = ["chaos", "--data-plane", data_plane,
                "--plan", str(plan_path)]
    else:
        argv = ["recover" if kind == "crash" else "elastic",
                "--protocol", protocol]
    from repro.__main__ import main
    with pytest.raises(ReproError, match=match):
        main(argv + ["--apps", "jacobi"])
