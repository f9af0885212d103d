"""The benchmark's four workloads and how one repetition of each runs.

Every workload is the paper's Tmk or Opt-Tmk configuration of one app
(8 simulated processors, 1 KiB pages, the ``DEFAULT_PAGE`` of the
paper's experiments).  App inputs come from the apps' fixed
generators; the workload seed feeds only verify-jacobi's fault plan.
The reasons for each choice and the layer each should move are in
``rationale.json`` beside this file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

#: Reference-check tolerance, the same as the repository's tier-1 tests.
RTOL = 1e-9
ATOL = 1e-12

#: Simulated time of the fault-free jacobi bench/8 base run on 1 KiB
#: pages (microseconds), recorded once; verify-jacobi crashes processor
#: 1 at half of it.
JACOBI_FAULT_FREE_US = 4123000.5974284736


@dataclass(frozen=True)
class Workload:
    """One pinned configuration of one app."""

    name: str
    why: str
    app: str
    #: Dataset name, or explicit parameters when ``params`` is set.
    dataset: str = "bench"
    params: Optional[Dict[str, int]] = None
    opt: Optional[str] = None
    nprocs: int = 8
    page_size: int = 1024
    protocol: Optional[str] = None
    data_plane: Optional[str] = None
    #: Run under the seeded fault plan + crash, with access telemetry,
    #: the online sanitizer and the inspector.
    verify: bool = False
    #: Link-fault mix of the verify run.
    faults: Dict[str, float] = field(default_factory=dict)

    def resolve_params(self) -> Dict[str, int]:
        from repro.apps import get_app
        if self.params is not None:
            return dict(self.params)
        return dict(get_app(self.app).dataset(self.dataset).params)

    def fault_plan(self, seed: int):
        """The seeded fault plan (verify workloads only), else None."""
        if not self.verify:
            return None
        from repro.faults import FaultPlan, NodeCrash
        return FaultPlan.uniform(
            seed=seed, **self.faults,
            crashes=(NodeCrash(pid=1, t=JACOBI_FAULT_FREE_US / 2),))


def rep_seed(seed: int, rep: int) -> int:
    """Input seed of repetition ``rep`` of a run with workload seed ``seed``.

    Each repetition of verify-jacobi meets its own fault schedule, so a
    run's median spans several schedules and depends less on how costly
    one schedule happens to be to inspect.
    """
    return seed * 1000 + rep


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="tmk-fft3d",
        why="Protocol-bound base TreadMarks (Tmk): 174k events, 43k "
            "messages, 4.6k diffs; diff encode/apply and thread "
            "handoff dominate host time.",
        app="fft3d", dataset="bench"),
    Workload(
        name="opt-fft3d",
        why="Compiler-optimized run-time (Opt-Tmk, push level): hints "
            "bypass the diff path, so host time sits in the "
            "interpreter, section math and switches.",
        app="fft3d", dataset="small", opt="push"),
    Workload(
        name="locks-is",
        why="Lock-protected migratory buckets on the adaptive backend "
            "and the one-sided plane: CAS lock grants, home fetches "
            "and home migration.",
        app="is",
        params={"N": 2 ** 17, "Bmax": 2 ** 14, "iters": 10,
                "cost_scale": 64},
        protocol="adaptive", data_plane="onesided"),
    Workload(
        name="verify-jacobi",
        why="The verification stack at paper scale: seeded link faults "
            "and a crash, access telemetry, online sanitizer and "
            "inspector reconciliation.",
        app="jacobi", dataset="bench", verify=True,
        faults={"drop": 0.05, "dup": 0.05, "reorder": 0.05,
                "delay": 0.02}),
)}


@dataclass
class Executed:
    """Everything one repetition produced, before checking."""

    outcome: object
    params: Dict[str, int]
    findings: List[str] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    telemetry_events: int = 0
    sanitizer_bytes: int = 0
    recovery: Dict[str, float] = field(default_factory=dict)


def execute(w: Workload, seed: int, profile=None,
            span: Optional[Callable] = None) -> Executed:
    """Run one repetition of ``w``.

    ``span(name, fn, *args)`` calls ``fn`` inside a traced span (the
    caller passes one only on traced runs); ``profile`` is handed to
    ``RunSpec(profile=...)``.
    """
    from repro.apps import get_app
    from repro.harness.spec import RunSpec, run

    def call(name, fn, *args):
        return fn(*args) if span is None else span(name, fn, *args)

    app = get_app(w.app)
    params = w.resolve_params()
    program = call("apps.build", app.build_program, params, w.nprocs)
    spec = RunSpec(app=program, params=params, mode="dsm",
                   nprocs=w.nprocs, opt=w.opt, page_size=w.page_size,
                   protocol=w.protocol, data_plane=w.data_plane,
                   profile=profile if profile is not None else False)
    if not w.verify:
        return Executed(outcome=run(spec), params=params)

    from repro.harness.runner import layout_for
    from repro.inspect import InspectReport
    from repro.sanitizer import Sanitizer
    from repro.telemetry import Telemetry

    tel = Telemetry(access_events=True)
    san = Sanitizer(layout_for(program, w.page_size), w.nprocs,
                    opt=spec.resolve_opt())
    san.attach(tel.bus)
    out = run(spec, faults=w.fault_plan(seed), telemetry=tel)
    rep = san.finish()
    findings = [f"[{f.category}:{f.kind}] {f.detail}"
                for f in rep.findings] + list(rep.reconcile(out))
    irep = InspectReport.build(out, title=f"perfbench/{w.name}")
    violations = list(irep.reconcile())
    recovery: Dict[str, float] = {}
    for ev in tel.bus.events:
        if ev.kind == "rec.recover":
            a = ev.args or {}
            recovery = {"log_messages": a.get("log_messages", 0),
                        "log_bytes": a.get("log_bytes", 0),
                        "sim_us": a.get("dur_us", 0.0)}
    return Executed(outcome=out, params=params, findings=findings,
                    violations=violations,
                    telemetry_events=len(tel.bus.events),
                    sanitizer_bytes=san.shadow.bytes_checked,
                    recovery=recovery)


def reference_mismatches(w: Workload, ex: Executed) -> List[str]:
    """Checked arrays that differ from the app's numpy reference."""
    import numpy as np
    from repro.apps import get_app

    app = get_app(w.app)
    ref = app.reference(ex.params)
    bad = []
    for name in app.check_arrays:
        got = ex.outcome.arrays.get(name)
        if got is None or got.shape != ref[name].shape or \
                not np.allclose(got, ref[name], rtol=RTOL, atol=ATOL):
            bad.append(name)
    return bad


def deterministic_counters(ex: Executed) -> Dict[str, float]:
    """Counters that must read identically on every run of one commit.

    They come from the run's own books (TmStats, NetStats, telemetry,
    sanitizer), so traced and untraced runs both report them.
    """
    out = ex.outcome
    st = out.stats
    net = out.net
    c: Dict[str, float] = {
        "sim_time_us": out.time,
        "messages": out.messages,
        "data_bytes": out.data_bytes,
        "tm.read_faults": st.read_faults,
        "tm.write_faults": st.write_faults,
        "tm.twins": st.twins_created,
        "tm.diffs_created": st.diffs_created,
        "tm.diffs_applied": st.diffs_applied,
        "tm.diff_bytes": st.diff_bytes_applied,
        "tm.page_fetches": st.page_fetches,
        "tm.home_migrations": st.home_migrations,
        "tm.lock_acquires": st.lock_acquires,
        "tm.onesided_lock_fast": st.onesided_lock_fast,
        "tm.onesided_lock_retries": st.onesided_lock_retries,
        "tm.onesided_fallbacks": st.onesided_fallbacks,
        "tm.barrier_wait_us": st.t_barrier_wait,
        "tm.lock_wait_us": st.t_lock_wait,
        "tm.fetch_wait_us": st.t_fetch_wait,
        "net.onesided_ops": net.onesided_ops,
        "net.onesided_batches": net.onesided_batches,
        "net.cas_failures": net.onesided_cas_failures,
        "net.retransmits": net.retransmits,
        "net.acks": net.acks,
        "net.dup_frames_discarded": net.dup_frames_discarded,
        "net.faults_injected": net.faults_injected,
        "telemetry.events": ex.telemetry_events,
        "sanitizer.bytes_checked": ex.sanitizer_bytes,
        "sanitizer.findings": len(ex.findings),
        "inspect.violations": len(ex.violations),
        "recovery.log_messages": ex.recovery.get("log_messages", 0),
        "recovery.log_bytes": ex.recovery.get("log_bytes", 0),
        "recovery.sim_us": ex.recovery.get("sim_us", 0.0),
    }
    return c
