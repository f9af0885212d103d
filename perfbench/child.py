"""One repetition of one workload, in a fresh process.

``run.py`` starts this script once per measured repetition, already
bound to a single CPU, and reads the JSON object it prints as its last
line of standard output.  With ``--trace 1`` the program's public entry
points are wrapped (see ``tracer.py``) and the run is wall-clock
profiled; with ``--trace 0`` nothing is wrapped except ``Engine.run``,
whose entry time marks the end of set-up.

    python3 perfbench/child.py --workload tmk-fft3d --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

#: Public entry points wrapped on traced runs: (span name, target).
ENTRY_POINTS = (
    ("sim.run", "repro.sim.engine:Engine.run"),
    ("compiler.transform", "repro.compiler.transform:transform"),
    ("interp", "repro.interp.interp:Interpreter.run"),
    ("rt.validate", "repro.interp.runtime:DsmRuntime.validate"),
    ("rt.push", "repro.interp.runtime:DsmRuntime.push"),
    ("rt.barrier", "repro.interp.runtime:DsmRuntime.barrier"),
    ("rt.acquire", "repro.interp.runtime:DsmRuntime.acquire"),
    ("rt.release", "repro.interp.runtime:DsmRuntime.release"),
    ("tm.access", "repro.tm.sharedarray:SharedArray.read"),
    ("tm.access", "repro.tm.sharedarray:SharedArray.write"),
    ("tm.access", "repro.tm.sharedarray:SharedArray.write_view"),
    ("tm.access", "repro.tm.sharedarray:SharedArray.rmw"),
    ("memory.pages_of", "repro.memory.layout:SharedLayout.pages_of"),
    ("memory.byte_ranges", "repro.memory.layout:SharedLayout.byte_ranges"),
    ("memory.section_view", "repro.memory.layout:MemoryImage.section_view"),
    ("tm.diff_encode", "repro.tm.diffs:make_diff"),
    ("tm.diff_apply", "repro.tm.diffs:apply_diff"),
    ("net.rdma", "repro.net.onesided:OneSidedPlane.post"),
    ("telemetry.emit", "repro.telemetry.events:EventBus.emit"),
    ("sanitizer.feed", "repro.sanitizer:Sanitizer.feed"),
    ("inspect.build", "repro.inspect.report:InspectReport.build"),
    ("inspect.reconcile", "repro.inspect.report:InspectReport.reconcile"),
    ("inspect.critpath",
     "repro.inspect.critpath:CriticalPath.from_telemetry"),
)
#: Calls that may hand the CPU to another simulated processor.
BLOCKING = (
    ("sim.advance", "repro.sim.engine:Process.advance"),
    ("sim.wait", "repro.sim.engine:Process.wait"),
)


def counting_profiler(tracer: tr.Tracer):
    """A ``WallProfiler`` that also tells the tracer about each action."""
    from repro.observe import WallProfiler

    class CountingProfiler(WallProfiler):
        def account(self, action, dt: float) -> None:
            tracer.actions += 1
            WallProfiler.account(self, action, dt)

    return CountingProfiler()


class EngineProbe:
    """Records when ``Engine.run`` is entered, and the engine itself."""

    def __init__(self, on_enter=None) -> None:
        from repro.sim.engine import Engine
        self.t_enter = None
        self.engine = None
        self.on_enter = on_enter
        self._orig = Engine.__dict__["run"]
        probe = self

        @functools.wraps(self._orig)
        def run(engine):
            if probe.t_enter is None:
                probe.t_enter = time.monotonic()
                probe.engine = engine
                if probe.on_enter is not None:
                    probe.on_enter(probe.t_enter)
            return probe._orig(engine)

        Engine.run = run

    def restore(self) -> None:
        from repro.sim.engine import Engine
        Engine.run = self._orig


#: Span-derived metrics and the spans they read; a metric whose span's
#: entry point is missing from the program is reported as absent.
SPAN_METRICS = {
    "sim.switches": ("sim.advance", "sim.wait"),
    "sim.advance_fastpath_ratio": ("sim.advance",),
    "sim.switch_s": ("sim.advance", "sim.wait", "interp"),
    "sim.engine_s": ("sim.run", "interp"),
    "interp.self_s": ("interp",),
    "memory.section_calls": ("memory.pages_of", "memory.byte_ranges",
                             "memory.section_view"),
    "memory.section_s": ("memory.pages_of", "memory.byte_ranges",
                         "memory.section_view"),
    "rt.validate_calls": ("rt.validate",),
    "rt.push_calls": ("rt.push",),
    "rt.self_s": ("rt.validate", "rt.push", "rt.barrier", "rt.acquire",
                  "rt.release"),
    "tm.accesses": ("tm.access",),
    "tm.access_s": ("tm.access",),
    "tm.diff_encode_s": ("tm.diff_encode",),
    "tm.diff_apply_s": ("tm.diff_apply",),
    "net.rdma_s": ("net.rdma",),
    "compiler.transform_s": ("compiler.transform",),
    "telemetry.emit_s": ("telemetry.emit",),
    "sanitizer.feed_s": ("sanitizer.feed",),
    "inspect.build_s": ("inspect.build",),
    "inspect.critpath_s": ("inspect.critpath",),
    "inspect.reconcile_s": ("inspect.reconcile",),
}


#: Counts only a traced run can see; they too must repeat exactly.
TRACED_COUNTS = ("sim.events", "sim.switches", "interp.stmts",
                 "memory.section_calls", "rt.validate_calls",
                 "rt.push_calls", "tm.accesses")


def layer_metrics(tracer: tr.Tracer, prof, ex: wl.Executed,
                  wall_s: float, import_s: float,
                  absent=frozenset()) -> dict:
    """Per-layer numbers from the spans, the profiler and the books.

    ``absent`` holds span names whose entry point was not found; the
    metrics that read them are left out.
    """
    spans = tracer.merged()
    self_s = tracer.self_times(waiter="sim.run")

    def n(name):
        return int(spans.get(name, (0, 0.0, 0.0))[0])

    def s(*names):
        return sum(self_s.get(x, 0.0) for x in names)

    att = prof.attribution()
    diff_on_workers = sum(
        rec.totals.get(x, (0, 0.0, 0.0))[2]
        for rec in tracer.threads if not rec.main
        for x in ("tm.diff_encode", "tm.diff_apply"))
    # The engine saw process slices take compute + the profiler's own
    # process-side leaves; the processes saw themselves run for
    # worker_active_s.  The rest is the thread handoff.
    switch_s = (att.get("compute", 0.0) + att.get("tm.access", 0.0)
                + diff_on_workers - tracer.worker_active_s())
    adv_fast = tracer.counts.get("sim.advance.fast", 0)
    adv_all = adv_fast + tracer.counts.get("sim.advance.blocked", 0)
    st = ex.outcome.stats
    attempts = st.onesided_lock_fast + st.onesided_lock_retries
    attributed = import_s + sum(self_s.values())
    m = {
        "sim.events": prof.n_events,
        "sim.switches": tracer.counts.get("sim.advance.blocked", 0)
        + tracer.counts.get("sim.wait.blocked", 0),
        "sim.advance_fastpath_ratio": adv_fast / adv_all if adv_all else 0.0,
        "sim.dispatch_s": att.get("engine", 0.0),
        "sim.switch_s": max(0.0, switch_s),
        "sim.engine_s": s("sim.run"),
        "interp.stmts": prof.n_stmts,
        "interp.self_s": s("interp"),
        "memory.section_calls": n("memory.pages_of")
        + n("memory.byte_ranges") + n("memory.section_view"),
        "memory.section_s": s("memory.pages_of", "memory.byte_ranges",
                              "memory.section_view"),
        "rt.validate_calls": n("rt.validate"),
        "rt.push_calls": n("rt.push"),
        "rt.self_s": s("rt.validate", "rt.push", "rt.barrier",
                       "rt.acquire", "rt.release"),
        "tm.accesses": n("tm.access"),
        "tm.access_s": s("tm.access"),
        "tm.diff_encode_s": s("tm.diff_encode"),
        "tm.diff_apply_s": s("tm.diff_apply"),
        "tm.serve_s": att.get("tm.serve", 0.0),
        "tm.onesided_lock_fast_ratio":
            st.onesided_lock_fast / attempts if attempts else 0.0,
        "net.deliver_s": att.get("net", 0.0),
        "net.rdma_s": s("net.rdma"),
        "compiler.transform_s": s("compiler.transform"),
        "apps.build_s": s("apps.build"),
        "setup.import_s": import_s,
        "telemetry.emit_s": s("telemetry.emit"),
        "sanitizer.feed_s": s("sanitizer.feed"),
        "inspect.build_s": s("inspect.build"),
        "inspect.critpath_s": s("inspect.critpath"),
        "inspect.reconcile_s": s("inspect.reconcile"),
        "unattributed_s": wall_s - attributed,
    }
    for metric, deps in SPAN_METRICS.items():
        if absent.intersection(deps):
            del m[metric]
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t-spawn", type=float, default=None,
                    help="time.monotonic() when the parent started us")
    ap.add_argument("--spans-out", default=None,
                    help="write the merged span table here (traced runs)")
    ap.add_argument("--setup-only", action="store_true",
                    help="report set-up time and exit at the first engine "
                         "dispatch")
    args = ap.parse_args(argv)
    t_spawn = args.t_spawn if args.t_spawn is not None else time.monotonic()
    w = wl.WORKLOADS[args.workload]

    # Import every module the wrappers patch before installing them, so
    # that each module's bound copy of a wrapped function is replaced.
    t0 = time.monotonic()
    import numpy  # noqa: F401
    import repro.harness.spec  # noqa: F401
    import repro.observe  # noqa: F401
    import repro.sanitizer  # noqa: F401
    import repro.inspect  # noqa: F401
    import repro.net.onesided  # noqa: F401
    import_s = time.monotonic() - t0

    tracer = installed = prof = None
    span = None
    if args.trace:
        tracer = tr.Tracer()
        installed = tr.install(tracer, ENTRY_POINTS, BLOCKING)
        prof = counting_profiler(tracer)

        def span(name, fn, *a):
            return tracer.wrap(name, fn)(*a)

    def setup_done(t_enter: float) -> None:
        # The processes' threads exist by now and would keep the
        # interpreter alive, so leave without unwinding them.
        print(json.dumps({"workload": w.name, "seed": args.seed,
                          "ok": True, "errors": [],
                          "setup_s": t_enter - t_spawn,
                          "t_enter": t_enter}), flush=True)
        os._exit(0)

    probe = EngineProbe(setup_done if args.setup_only else None)
    result = {"workload": w.name, "seed": args.seed, "trace": args.trace,
              "ok": False, "errors": []}
    try:
        ex = wl.execute(w, args.seed, profile=prof, span=span)
        t_end = time.monotonic()
    except Exception:
        result["errors"].append(traceback.format_exc(limit=8))
        print(json.dumps(result))
        return 0
    finally:
        probe.restore()
        if installed is not None:
            installed.restore()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result["setup_s"] = probe.t_enter - t_spawn
    result["wall_s"] = t_end - probe.t_enter
    result["peak_rss_mb"] = rss_mb
    result["t_enter"] = probe.t_enter
    result["t_end"] = t_end
    counters = wl.deterministic_counters(ex)
    # The engine numbers every event it schedules, and a finished run has
    # dispatched them all; traced runs cross-check this with the profiler.
    if hasattr(probe.engine, "_seq"):
        counters["sim.events"] = probe.engine._seq
    result["counters"] = counters
    errors = result["errors"]
    bad = wl.reference_mismatches(w, ex)
    if bad:
        errors.append(f"reference mismatch in {', '.join(bad)}")
    errors.extend(f"sanitizer: {f}" for f in ex.findings)
    errors.extend(f"inspector: {v}" for v in ex.violations)
    if args.trace:
        absent = {name for name, target in ENTRY_POINTS + BLOCKING
                  if target in installed.missing}
        layers = layer_metrics(tracer, prof, ex, t_end - t_spawn, import_s,
                               absent)
        result["traced_counters"] = {k: layers[k] for k in TRACED_COUNTS
                                     if k in layers}
        result["layers"] = layers
        result["missing_entry_points"] = installed.missing
        if args.spans_out:
            table = {name: {"count": int(c), "total_s": tot, "self_s": slf}
                     for name, (c, tot, slf) in sorted(
                         tracer.merged().items())}
            with open(args.spans_out, "w") as fh:
                json.dump({"workload": w.name, "seed": args.seed,
                           "spans": table,
                           "profiler": prof.as_dict()}, fh, indent=1)
    result["ok"] = not errors
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
