"""Self-tests of the benchmark: tracing arithmetic, determinism, checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import sys
import threading
from contextlib import redirect_stdout

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import child  # noqa: E402
import run as bench  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

#: Small stand-ins for the real workloads (same code paths, seconds).
SMALL = {
    "tmk-fft3d": dict(dataset="tiny", nprocs=4),
    "opt-fft3d": dict(dataset="tiny", nprocs=4),
    "locks-is": dict(params={"N": 2 ** 10, "Bmax": 2 ** 7, "iters": 3},
                     nprocs=4),
    "verify-jacobi": dict(dataset="tiny", nprocs=4),
}


def small(name: str) -> wl.Workload:
    return dataclasses.replace(wl.WORKLOADS[name], **SMALL[name])


# ----------------------------------------------------------------------
# Self-time arithmetic on a scripted two-worker schedule.
# ----------------------------------------------------------------------


class Baton:
    """Runs scripted steps on several threads, one thread at a time."""

    def __init__(self) -> None:
        self.now = 0.0
        self.turn = {}

    def clock(self) -> float:
        return self.now

    def event(self, name: str) -> threading.Event:
        return self.turn.setdefault(name, threading.Event())

    def pass_to(self, me: str, other: str) -> None:
        """Hand the baton to ``other`` and park until it comes back."""
        self.event(me).clear()
        self.event(other).set()
        if not self.event(me).wait(timeout=10):
            raise TimeoutError(f"{me} never got the baton back")

    def finish(self, me: str, other: str) -> None:
        self.event(other).set()


def test_self_times_tile_wall_time_across_threads():
    """Engine thread plus two process threads, one blocking.

    Time line (fake clock): main enters sim.run at 0 and hands over at
    1.  W1 runs interp 1..19 with a tm.access child 2..5 and blocks
    6..15.  Meanwhile main emits 7..8, W2 runs interp 8..12, main idles
    12..15.  W1 ends at 19, main leaves sim.run at 20.
    """
    b = Baton()
    t = tr.Tracer(clock=b.clock)

    def at(x):
        b.now = float(x)

    def access():
        at(5)

    def emit():
        at(8)

    def blocking():
        b.pass_to("w1", "main")      # main runs while W1 is parked
        at(15)

    t_access = t.wrap("tm.access", access)
    t_emit = t.wrap("telemetry.emit", emit)
    t_block = t.wrap_blocking("sim.wait", blocking)

    def w1_interp():
        at(2)
        t_access()
        at(6)
        t_block()
        at(19)

    def w2_interp():
        at(12)

    def w1():
        b.event("w1").wait(timeout=10)
        at(1)
        t.wrap("interp", w1_interp)()
        b.finish("w1", "main")

    def w2():
        b.event("w2").wait(timeout=10)
        t.wrap("interp", w2_interp)()
        b.finish("w2", "main")

    def engine_run():
        at(1)
        b.pass_to("main", "w1")      # W1 runs until it blocks at 6
        at(7)
        t_emit()
        t.actions += 1               # the engine dispatched something
        b.pass_to("main", "w2")      # W2 runs 8..12
        at(15)
        b.pass_to("main", "w1")      # W1 resumes 15..19
        at(20)

    threads = [threading.Thread(target=w1), threading.Thread(target=w2)]
    for th in threads:
        th.start()
    t.wrap("sim.run", engine_run)()
    for th in threads:
        th.join(timeout=10)
        assert not th.is_alive()

    merged = t.merged()
    assert merged["interp"] == [2, 22.0, 10.0]      # W1 18-3-9, W2 4
    assert merged["tm.access"] == [1, 3.0, 3.0]
    assert merged[tr.BLOCKED] == [1, 9.0, 9.0]
    assert merged["sim.run"] == [1, 20.0, 19.0]     # minus emit only
    assert t.worker_active_s() == 13.0               # (18-9) + 4
    selfs = t.self_times(waiter="sim.run")
    assert selfs["sim.run"] == 6.0                   # 0..1 6..7 12..15 19..20
    assert tr.BLOCKED not in selfs
    assert sum(selfs.values()) == 20.0               # every second once
    assert t.counts == {"sim.wait.blocked": 1}


def test_unblocked_call_is_a_busy_span():
    b = Baton()
    t = tr.Tracer(clock=b.clock)

    def fast():
        b.now += 2.0

    t.wrap_blocking("sim.advance", fast)()
    assert t.merged() == {"sim.advance": [1, 2.0, 2.0]}
    assert t.counts == {"sim.advance.fast": 1}


def test_install_restores_and_reports_missing():
    from repro.sim.engine import Engine, Process
    from repro.tm import diffs, node

    before = (Engine.__dict__["run"], Process.__dict__["advance"],
              diffs.make_diff, node.make_diff)
    t = tr.Tracer()
    inst = tr.install(t, child.ENTRY_POINTS
                      + (("x", "repro.sim.engine:Engine.no_such"),),
                      child.BLOCKING)
    assert inst.missing == ["repro.sim.engine:Engine.no_such"]
    assert node.make_diff is diffs.make_diff is not before[2]
    inst.restore()
    after = (Engine.__dict__["run"], Process.__dict__["advance"],
             diffs.make_diff, node.make_diff)
    assert after == before


# ----------------------------------------------------------------------
# Determinism and the seed.
# ----------------------------------------------------------------------


def traced_execute(w, seed):
    t = tr.Tracer()
    inst = tr.install(t, child.ENTRY_POINTS, child.BLOCKING)
    try:
        prof = child.counting_profiler(t)
        ex = wl.execute(w, seed, profile=prof,
                        span=lambda name, fn, *a: t.wrap(name, fn)(*a))
    finally:
        inst.restore()
    return t, prof, ex


@pytest.mark.parametrize("name", sorted(SMALL))
def test_untraced_run_after_traced_reproduces_counters(name):
    w = small(name)
    t, prof, traced = traced_execute(w, seed=3)
    plain = wl.execute(w, seed=3)
    assert wl.deterministic_counters(traced) == \
        wl.deterministic_counters(plain)
    assert not wl.reference_mismatches(w, traced)
    assert not wl.reference_mismatches(w, plain)
    layers = child.layer_metrics(t, prof, traced, wall_s=100.0,
                                 import_s=0.0)
    assert layers["sim.events"] == prof.n_events > 0
    assert layers["tm.accesses"] > 0
    assert layers["interp.stmts"] > 0


def test_seed_changes_only_the_verify_fault_schedule():
    for name, w in wl.WORKLOADS.items():
        if not w.verify:
            assert w.fault_plan(1) is None and w.fault_plan(2) is None
    w = small("verify-jacobi")
    p1, p2 = w.fault_plan(1), w.fault_plan(2)
    assert p1 != p2 and dataclasses.replace(p1, seed=2) == p2
    c1 = wl.deterministic_counters(wl.execute(w, seed=1))
    c2 = wl.deterministic_counters(wl.execute(w, seed=2))
    assert c1["net.faults_injected"] != c2["net.faults_injected"] or \
        c1["net.retransmits"] != c2["net.retransmits"]
    plain = small("tmk-fft3d")
    assert wl.deterministic_counters(wl.execute(plain, seed=1)) == \
        wl.deterministic_counters(wl.execute(plain, seed=2))


# ----------------------------------------------------------------------
# Failed checks are counted, never raised.
# ----------------------------------------------------------------------


def test_corrupted_array_fails_reference_and_is_counted(monkeypatch,
                                                        tmp_path):
    w = small("tmk-fft3d")
    monkeypatch.setitem(wl.WORKLOADS, "tiny-fft3d", w)
    real = wl.execute

    def corrupted(*a, **kw):
        ex = real(*a, **kw)
        arr = ex.outcome.arrays["x"]
        arr.flat[0] += 1.0
        return ex

    monkeypatch.setattr(wl, "execute", corrupted)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = child.main(["--workload", "tiny-fft3d", "--seed", "1"])
    assert code == 0
    rep = json.loads(buf.getvalue().splitlines()[-1])
    assert rep["ok"] is False
    assert any("reference mismatch in x" in e for e in rep["errors"])

    # run.py folds it into failed/attempted instead of raising.
    reps = iter([rep] + [dict(rep, ok=True, errors=[])] * bench.MIN_REPS)
    monkeypatch.setattr(bench, "run_rep", lambda *a, **kw: next(reps))
    monkeypatch.setattr(bench, "STATE_DIR", str(tmp_path))
    monkeypatch.setattr(bench, "SETUP_REPS", 0)
    res = bench.measure("tmk-fft3d", 1, seconds=0.0,
                        t_start=bench.time.monotonic(), speed=None,
                        out=lambda s: None)
    assert (res["attempted"], res["failed"]) == (bench.MIN_REPS, 1)


def test_ledger_flags_counter_drift(tmp_path):
    led = bench.Ledger(str(tmp_path / "c.json"), "abc/w")
    assert led.check({"messages": 10, "sim_time_us": 1.5}) == []
    assert led.check({"messages": 10, "sim_time_us": 1.5}) == []
    assert led.check({"messages": 11}) == ["messages: 10 != 11"]
    led.save()
    again = bench.Ledger(str(tmp_path / "c.json"), "abc/w")
    assert again.check({"messages": 11}) == ["messages: 10 != 11"]


def test_corrupted_array_detected_by_reference_check():
    w = small("opt-fft3d")
    ex = wl.execute(w, seed=1)
    assert wl.reference_mismatches(w, ex) == []
    ex.outcome.arrays["x"] = np.zeros_like(ex.outcome.arrays["x"])
    assert wl.reference_mismatches(w, ex) == ["x"]


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(bench.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == \
        [w.why for w in wl.WORKLOADS.values()]


def test_speedometer_scales_by_kernel_time_in_the_window():
    import speedometer as sm

    sp = sm.Speedometer()
    for name, _, nominal in sm.KERNELS:
        # Nominal speed before t=10, half speed from t=10 on.
        sp.samples[name] = [(t * 0.1, nominal * (1 if t < 100 else 2))
                            for t in range(200)]
    assert sp.scale(0.0, 9.9) == pytest.approx(1.0)
    assert sp.scale(10.0, 19.9) == pytest.approx(0.5)
    # Too few samples in a short window: the nearest ones stand in.
    assert sp.scale(15.01, 15.02) == pytest.approx(0.5)
