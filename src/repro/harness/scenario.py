"""One fault-scenario runner: a perturbed run must compute what a base run
computes.

For every case (app x opt level x scenario) the runner runs the
application twice — once fault-free, once under the scenario's
:class:`~repro.faults.FaultPlan` — and requires the results to be
*bit-identical*.  The faulted run is traced and fed through the
protocol inspector, whose invariants (timeline legality, stat
reconstruction, critical-path tiling) must still reconcile exactly;
presets that ask for it also attach the DSM sanitizer, which must
report zero races and zero hint violations.  What a fault *may* change
is cost, and each preset reports its own.

Three presets share the runner (``python -m repro chaos|recover|
elastic`` and the matching CI smoke jobs):

``chaos``
    Seeded link faults (drop, duplicate, reorder, delay) at a named
    intensity, under the reliable transport.  Costs: faults injected,
    retransmits, acks, duplicate frames, extra messages.
``recover``
    A fail-stop node crash placed from the fault-free trace.  Costs:
    log traffic to the backup, state transfer, recovery duration.
``elastic``
    A membership change (join, drain, heartbeat silence) placed from
    the fault-free trace.  Costs: handoff traffic, heartbeats,
    detection latency.

A :class:`Preset` supplies only what differs between them: its
scenario miner (or intensity table), the costs it extracts from the
events and ``NetStats``, its table columns and verdict words, and
whether the sanitizer is attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.apps import all_apps, get_app
from repro.errors import ReproError
from repro.faults import FaultPlan, NodeCrash
from repro.harness import report
from repro.harness.modes import applicable_levels
from repro.harness.spec import RunSpec, run
from repro.membership import (HeartbeatConfig, MembershipPlan, NodeDrain,
                              NodeJoin, NodeSilence)
from repro.net.stats import NetStats


@dataclass
class Scenario:
    """One labelled fault schedule for a given app/opt pair."""

    name: str
    plan: FaultPlan
    #: Label fields exported with every case of this scenario, in order.
    labels: Dict[str, object] = field(default_factory=dict)
    #: Detector verdicts this scenario must provoke (and survive).
    expect: frozenset = frozenset()


@dataclass
class Case:
    """Outcome of one fault-free/faulted run pair."""

    preset: "Preset"
    app: str
    opt: Optional[str]
    name: str
    labels: Dict[str, object] = field(default_factory=dict)
    identical: bool = False      # arrays bit-identical to fault-free run
    realized: bool = False       # the scheduled node event fired
    expected: frozenset = frozenset()
    observed: frozenset = frozenset()
    violations: List[str] = field(default_factory=list)  # inspector
    findings: List[str] = field(default_factory=list)    # sanitizer
    error: Optional[str] = None
    base_time: float = 0.0
    time: float = 0.0
    #: The preset's cost fields, in export order (zero until extracted).
    costs: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.costs = {**self.preset.costs, **self.costs}

    @property
    def verdicts_met(self) -> bool:
        """The event fired and provoked every expected verdict."""
        return self.realized and self.expected <= self.observed

    @property
    def ok(self) -> bool:
        return (self.identical and not self.violations
                and not self.findings and self.error is None
                and (self.verdicts_met or not self.preset.must_realize)
                and ("evicted" in self.expected
                     or "evicted" not in self.observed))

    @property
    def added_time(self) -> float:
        return self.time - self.base_time

    def as_dict(self) -> dict:
        status = {"ok": self.ok, "identical": self.identical,
                  "realized": self.realized,
                  "expected": sorted(self.expected),
                  "observed": sorted(self.observed),
                  "violations": list(self.violations),
                  "findings": list(self.findings), "error": self.error}
        keep = ("ok", "identical", "violations", "error") \
            + tuple(self.preset.status)
        return {"app": self.app, "opt": self.opt, **self.labels,
                **{k: v for k, v in status.items() if k in keep},
                "base_time_us": self.base_time, "time_us": self.time,
                "added_time_us": self.added_time, **self.costs}


def _arrays_identical(base: Dict[str, np.ndarray],
                      faulted: Dict[str, np.ndarray]) -> bool:
    if set(base) != set(faulted):
        return False
    return all(np.array_equal(base[name], faulted[name])
               for name in base)


class Preset:
    """What one fault family contributes to the shared runner."""

    name = "?"
    #: Scenario names the CLI offers, in its ``choices`` order.
    choices: Sequence[str] = ()
    #: Verdict word and what an all-ok sweep "did" bit-identically.
    word = "?"
    survived = "cases survived"
    title = ""
    columns: Sequence[str] = ()
    note = ""
    #: Attach the DSM sanitizer to the faulted run (zero findings).
    sanitize = False
    #: Optional status keys exported besides ok/identical/violations/
    #: error, in :meth:`Case.as_dict` order.
    status: Sequence[str] = ()
    #: A case is only ok if its event fired with the expected verdicts.
    must_realize = False
    #: Fault kinds every scenario schedules (the backend support check).
    crashes = False
    membership = False
    #: Cost fields with their zero values, in export order.
    costs: Dict[str, object] = {}

    def scenarios(self, base, nprocs: int,
                  names: Optional[Sequence[str]],
                  seed: int) -> List[Scenario]:
        """The named scenarios for one fault-free traced run."""
        raise NotImplementedError

    def from_plan(self, name: str, plan: FaultPlan,
                  seed: int) -> Scenario:
        """Label an explicit declarative plan as scenario ``name``."""
        return Scenario(name, plan, {"schedule": name})

    def extract(self, case: Case, base, out) -> None:
        """Fill ``case``'s costs (and realization) from the faulted run;
        ``out`` is None when that run raised."""

    def cells(self, case: Case, status: str) -> list:
        """Table cells between the scenario name and ``+time``."""
        raise NotImplementedError


#: Named fault intensities: per-message probabilities applied uniformly
#: to every link.  "heavy" matches the acceptance bar (10% drop + 10%
#: duplicate + 10% reorder) and still must yield bit-identical results.
INTENSITIES: Dict[str, Dict[str, float]] = {
    "light": dict(drop=0.01, dup=0.01, reorder=0.01, delay=0.01),
    "moderate": dict(drop=0.05, dup=0.05, reorder=0.05, delay=0.02),
    "heavy": dict(drop=0.10, dup=0.10, reorder=0.10, delay=0.02),
}


class Chaos(Preset):
    """Seeded uniform link faults under the reliable transport: its
    exactly-once, in-order delivery must hide them from the protocol."""

    name = "chaos"
    choices = sorted(INTENSITIES)
    word = "CHAOS"
    title = "Chaos sweep: faulted vs fault-free (bit-identical required)"
    columns = ("app", "opt", "intensity", "status", "faults", "retx",
               "acks", "+msgs", "+time")
    note = ("status 'ok' = results bit-identical, zero inspector "
            "violations; +msgs counts retransmits and acks.")
    costs = {"base_messages": 0, "messages": 0, "extra_messages": 0,
             "retransmits": 0, "acks": 0, "dup_frames_discarded": 0,
             "faults_injected": 0}

    def scenarios(self, base, nprocs, names, seed):
        out = []
        for name in (sorted(names) if names else INTENSITIES):
            if name not in INTENSITIES:
                raise ReproError(
                    f"unknown intensity {name!r}; expected one of "
                    f"{sorted(INTENSITIES)}")
            out.append(self.from_plan(
                name, FaultPlan.uniform(seed=seed, **INTENSITIES[name]),
                seed))
        return out

    def from_plan(self, name, plan, seed):
        return Scenario(name, plan, {"intensity": name, "seed": seed})

    def extract(self, case, base, out):
        net = out.net if out is not None else NetStats()
        case.costs.update(
            base_messages=base.net.messages, messages=net.messages,
            extra_messages=net.messages - base.net.messages,
            retransmits=net.retransmits, acks=net.acks,
            dup_frames_discarded=net.dup_frames_discarded,
            faults_injected=net.faults_injected)

    def cells(self, case, status):
        c = case.costs
        return [status, c["faults_injected"], c["retransmits"], c["acks"],
                c["extra_messages"]]


def _longest_barrier_wait(base):
    """The longest ``wait.barrier`` span of a traced run, or None."""
    tel = base.telemetry
    waits = [s for s in tel.spans.spans if s.name == "wait.barrier"] \
        if tel is not None else []
    return max(waits, key=lambda s: s.t1 - s.t0) if waits else None


class Recover(Preset):
    """A fail-stop crash that checkpointing, interval re-replication and
    manager failover (``repro.recovery``) must make invisible.

    Crash placements are mined from the fault-free trace, so each
    exercises a distinct protocol situation:

    ``early`` / ``mid``
        The last (resp. second) processor crashes at 25% (resp. 50%) of
        the fault-free run time.
    ``manager``
        Processor 0 — barrier master and static manager of the lowest
        locks — crashes at 35%: manager failover.
    ``barrier``
        While some processor sits in its longest barrier wait, the
        processor it is waiting for crashes.
    ``lock``
        A processor crashes between a lock acquire and its release
        (lock-using apps only): token placement and queued-request
        reconstruction.
    """

    name = "recover"
    choices = ("early", "mid", "manager", "barrier", "lock")
    word = "RECOVER"
    survived = "crashes recovered"
    title = ("Recovery sweep: crashed vs fault-free "
             "(bit-identical required)")
    columns = ("app", "opt", "schedule", "victim", "status", "log msgs",
               "log B", "state B", "recovery", "+time")
    note = ("status 'ok' = results bit-identical, zero inspector "
            "violations, zero sanitizer findings; log counts what the "
            "victim shipped to its backup before the crash.")
    sanitize = True
    status = ("realized", "findings")
    crashes = True
    costs = {"log_messages": 0, "log_bytes": 0, "state_bytes": 0,
             "recovery_us": 0.0, "records": 0, "diffs": 0}

    @staticmethod
    def _crash(name, pid, t):
        return Scenario(name, FaultPlan(crashes=(NodeCrash(pid=pid, t=t),)),
                        {"schedule": name, "pid": pid, "t_us": t})

    def scenarios(self, base, nprocs, names, seed):
        wanted = set(names if names is not None else self.choices)
        total = base.time
        out = []
        if "early" in wanted:
            out.append(self._crash("early", nprocs - 1, total * 0.25))
        if "mid" in wanted and nprocs > 1:
            out.append(self._crash("mid", 1, total * 0.50))
        if "manager" in wanted:
            out.append(self._crash("manager", 0, total * 0.35))
        s = _longest_barrier_wait(base) if "barrier" in wanted else None
        if s is not None:
            out.append(self._crash("barrier", (s.pid + 1) % nprocs,
                                   (s.t0 + s.t1) / 2))
        tel = base.telemetry
        if tel is not None and "lock" in wanted:
            held: Dict[int, float] = {}
            best = None
            for ev in tel.bus.events:
                if ev.kind == "tm.lock_acquire":
                    held[ev.pid] = ev.ts
                elif ev.kind == "tm.lock_release" and ev.pid in held:
                    t0 = held.pop(ev.pid)
                    if best is None or ev.ts - t0 > best[2] - best[1]:
                        best = (ev.pid, t0, ev.ts)
            if best is not None:
                pid, t0, t1 = best
                out.append(self._crash("lock", pid, (t0 + t1) / 2))
        return out

    def from_plan(self, name, plan, seed):
        crash = plan.crashes[0] if getattr(plan, "crashes", ()) else None
        return Scenario(name, plan, {
            "schedule": name, "pid": crash.pid if crash else -1,
            "t_us": crash.t if crash else 0.0})

    def extract(self, case, base, out):
        if out is None:
            return
        for ev in out.telemetry.bus.events:
            if ev.kind == "rec.crash":
                case.realized = True
            elif ev.kind == "rec.recover":
                a = ev.args or {}
                case.costs.update(
                    log_messages=a.get("log_messages", 0),
                    log_bytes=a.get("log_bytes", 0),
                    state_bytes=a.get("state_bytes", 0),
                    recovery_us=a.get("dur_us", 0.0),
                    records=a.get("records", 0),
                    diffs=a.get("diffs", 0))

    def cells(self, case, status):
        c = case.costs
        return [f"P{case.labels['pid']}", status, c["log_messages"],
                c["log_bytes"], c["state_bytes"],
                f"{c['recovery_us']:.0f}us"]


class Elastic(Preset):
    """A membership change that join catch-up, drain handoff, seat
    migration, lock-token custody and detector re-admission
    (``repro.membership``) must make invisible.

    Schedules are mined from the fault-free trace:

    ``join-early``
        The last processor joins late, at 15% of the run, and catches
        up through the lazy all-pages-invalid re-entry path.
    ``drain-mid``
        Processor 1 leaves at 50% for a fifth of the run, handing its
        records, diffs and lock state to its steward.
    ``drain-master``
        Processor 0 — barrier seat and manager of the lowest locks —
        drains at 40%: seat migration, mid-episode barrier handoff and
        lock-token custody in one schedule.
    ``evict-at-barrier``
        The processor a barrier waiter waits for goes NIC-silent far
        past the eviction threshold: evicted, keeps computing, and is
        re-admitted by its first beat after the window.
    ``suspect-then-recover``
        A silence between the suspicion and eviction thresholds: the
        detector wrongly suspects a live node and must survive its own
        false positive.
    """

    name = "elastic"
    choices = ("join-early", "drain-mid", "drain-master",
               "evict-at-barrier", "suspect-then-recover")
    word = "ELASTIC"
    survived = "membership changes absorbed"
    title = ("Elastic sweep: membership churn vs static cluster "
             "(bit-identical required)")
    columns = ("app", "opt", "schedule", "status", "handoff",
               "handoff B", "beats", "detect", "+time")
    note = ("status 'ok' = results bit-identical, the scheduled "
            "join/drain/suspicion realized (and any eviction was "
            "survived), zero inspector violations, zero sanitizer "
            "findings.")
    sanitize = True
    status = ("realized", "expected", "observed", "findings")
    must_realize = True
    membership = True
    costs = {"handoff_messages": 0, "handoff_bytes": 0, "beats": 0,
             "detect_us": 0.0, "suspicions": 0, "evictions": 0,
             "admissions": 0}

    hb = HeartbeatConfig()

    def _member(self, name, expect=(), **events):
        plan = MembershipPlan(heartbeat=self.hb, **events)
        return Scenario(name, FaultPlan(membership=plan),
                        {"schedule": name}, frozenset(expect))

    def scenarios(self, base, nprocs, names, seed):
        wanted = set(names if names is not None else self.choices)
        hb = self.hb
        total = base.time
        out = []
        if "join-early" in wanted:
            out.append(self._member("join-early", joins=(
                NodeJoin(nprocs - 1, total * 0.15),)))
        if "drain-mid" in wanted and nprocs > 2:
            out.append(self._member("drain-mid", drains=(
                NodeDrain(1, total * 0.50, total * 0.20),)))
        if "drain-master" in wanted:
            out.append(self._member("drain-master", drains=(
                NodeDrain(0, total * 0.40, total * 0.20),)))
        s = _longest_barrier_wait(base) \
            if "evict-at-barrier" in wanted else None
        if s is not None:
            down = max(hb.evict_after_us * 2.5, 12000.0)
            out.append(self._member(
                "evict-at-barrier",
                ("suspected", "evicted", "admitted"), silences=(
                    NodeSilence((s.pid + 1) % nprocs,
                                (s.t0 + s.t1) / 2, down),)))
        if "suspect-then-recover" in wanted:
            down = (hb.suspect_after_us + hb.evict_after_us) / 2
            out.append(self._member(
                "suspect-then-recover", ("suspected", "admitted"),
                silences=(NodeSilence(nprocs - 2, total * 0.30, down),)))
        return out

    def from_plan(self, name, plan, seed):
        if getattr(plan, "membership", None) is None:
            raise ReproError(
                "elastic scenarios need a fault plan with a "
                "'membership' block")
        return super().from_plan(name, plan, seed)

    def extract(self, case, base, out):
        if out is None:
            return
        c = case.costs
        observed = set()
        for ev in out.telemetry.bus.events:
            a = ev.args or {}
            if ev.kind == "mem.join":
                case.realized = True
                observed.add("joined" if a.get("how") == "join"
                             else "drained")
                c["handoff_messages"] = max(c["handoff_messages"],
                                            a.get("handoff_messages", 0))
                c["handoff_bytes"] = max(c["handoff_bytes"],
                                         a.get("handoff_bytes", 0))
            elif ev.kind == "mem.leave":
                case.realized = True
            elif ev.kind == "mem.suspect":
                case.realized = True
                observed.add("suspected")
                c["suspicions"] += 1
                c["detect_us"] = max(c["detect_us"],
                                     a.get("quiet_us", 0.0))
            elif ev.kind == "mem.evict":
                observed.add("evicted")
                c["evictions"] += 1
            elif ev.kind == "mem.admit":
                observed.add("admitted")
                c["admissions"] += 1
        case.observed = frozenset(observed)
        c["beats"] = out.net.by_kind.get("hb.beat", 0)

    def cells(self, case, status):
        c = case.costs
        return [status, c["handoff_messages"], c["handoff_bytes"],
                c["beats"],
                f"{c['detect_us']:.0f}us" if c["detect_us"] else "-"]


PRESETS: Dict[str, Preset] = {p.name: p
                              for p in (Chaos(), Recover(), Elastic())}


def check_support(preset: str, protocol: Optional[str],
                  data_plane: Optional[str] = None,
                  plan: Optional[FaultPlan] = None) -> None:
    """Reject a backend/data plane that cannot survive the preset's
    (or ``plan``'s) faults — before anything runs."""
    from repro.tm.coherence import get_backend
    p = PRESETS[preset]
    get_backend(protocol).check_faults(
        crashes=p.crashes or bool(getattr(plan, "crashes", ())),
        membership=p.membership
        or getattr(plan, "membership", None) is not None,
        data_plane=data_plane)


def _cell(p: Preset, spec: RunSpec, base, names, plan, seed: int,
          inspect: bool) -> List[Case]:
    """Every scenario of one app/opt pair against one fault-free run."""
    from repro.sanitizer.replay import sanitize_run

    if base is None:
        base = run(spec, telemetry=True)
    scenarios = [p.from_plan("plan", plan, seed)] if plan is not None \
        else p.scenarios(base, spec.nprocs, names, seed)
    cases = []
    for s in scenarios:
        case = Case(p, spec.app, spec.opt, s.name, dict(s.labels),
                    expected=s.expect, base_time=base.time)
        cases.append(case)
        out = rep = None
        try:
            if p.sanitize:
                out, rep = sanitize_run(
                    spec.app, spec.opt, dataset=spec.dataset,
                    nprocs=spec.nprocs, page_size=spec.page_size,
                    protocol=spec.protocol, data_plane=spec.data_plane,
                    faults=s.plan)
            else:
                out = run(spec, faults=s.plan, telemetry=True)
        except Exception as exc:
            case.error = f"{type(exc).__name__}: {exc}"
        p.extract(case, base, out)
        if out is None:
            continue
        case.time = out.time
        case.identical = _arrays_identical(base.arrays, out.arrays)
        if rep is not None:
            case.findings = [f"[{f.category}:{f.kind}] {f.detail}"
                             for f in rep.findings] + list(rep.problems)
        if inspect:
            from repro.inspect import InspectReport
            case.violations = InspectReport.build(
                out, title=f"{spec.app}/dsm/{spec.opt}/{s.name}") \
                .reconcile()
    return cases


def _spec(app, opt, dataset, nprocs, page_size, protocol,
          data_plane) -> RunSpec:
    return RunSpec(app=app, mode="dsm", dataset=dataset, nprocs=nprocs,
                   opt=opt, page_size=page_size, protocol=protocol,
                   data_plane=data_plane)


def run_case(preset: str, app: str, opt: Optional[str], name: str,
             base=None, seed: int = 0, dataset: str = "tiny",
             nprocs: int = 4, page_size: int = 1024,
             inspect: bool = True, protocol: Optional[str] = None,
             data_plane: Optional[str] = None) -> Case:
    """Run scenario ``name`` of one app/opt pair; ``base`` reuses a
    fault-free traced run of the same pair."""
    check_support(preset, protocol, data_plane)
    spec = _spec(app, opt, dataset, nprocs, page_size, protocol,
                 data_plane)
    cases = _cell(PRESETS[preset], spec, base, (name,), None, seed,
                  inspect)
    if not cases:
        raise ReproError(
            f"schedule {name!r} does not apply to {app} "
            f"(no such wait in the fault-free trace)")
    return cases[0]


def sweep(preset: str,
          apps: Optional[Sequence[str]] = None,
          opts: Optional[Sequence[str]] = None,
          names: Optional[Sequence[str]] = None,
          plan: Optional[FaultPlan] = None, seed: int = 0,
          dataset: str = "tiny", nprocs: int = 4, page_size: int = 1024,
          inspect: bool = True, protocol: Optional[str] = None,
          data_plane: Optional[str] = None) -> List[Case]:
    """The preset's matrix: apps x applicable opt levels x scenarios.

    With an explicit ``plan``, each app/opt pair runs that one plan
    (labelled "plan") instead of the preset's named scenarios.
    """
    check_support(preset, protocol, data_plane, plan)
    cases: List[Case] = []
    for app in (sorted(apps) if apps else sorted(all_apps())):
        app_opts = sorted(applicable_levels(get_app(app)))
        for opt in (opts if opts is not None else app_opts):
            if opt not in app_opts:
                continue        # e.g. 'push' asked for an app without it
            spec = _spec(app, opt, dataset, nprocs, page_size, protocol,
                         data_plane)
            cases += _cell(PRESETS[preset], spec, None, names, plan,
                           seed, inspect)
    return cases


def render(preset: str, cases: Sequence[Case]) -> str:
    """Human-readable sweep table plus a one-line verdict."""
    p = PRESETS[preset]
    rows = []
    for c in cases:
        if c.error is not None:
            status = "ERROR"
        elif not c.identical:
            status = "DIVERGED"
        elif p.must_realize and not c.verdicts_met:
            status = "UNREALIZED"
        elif c.violations or c.findings:
            status = "INVARIANT"
        else:
            status = "ok"
        rows.append([c.app, c.opt or "-", c.name, *p.cells(c, status),
                     f"{c.added_time:+.0f}us"])
    table = report.render_table(p.title, list(p.columns), rows,
                                note=p.note)
    bad = [c for c in cases if not c.ok]
    verdict = (f"{p.word} OK: {len(cases)} {p.survived} bit-identically"
               if not bad else
               f"{p.word} FAIL: {len(bad)} of {len(cases)} cases "
               f"diverged")
    lines = [table, verdict]
    for c in bad:
        if c.error:
            detail = c.error
        elif not c.identical:
            detail = "result diverged"
        elif p.must_realize and not c.verdicts_met:
            detail = (f"expected {sorted(c.expected)} but observed "
                      f"{sorted(c.observed)}")
        else:
            detail = "; ".join(c.violations + c.findings)
        lines.append(f"  ! {c.app}/{c.opt}/{c.name}: {detail}")
    return "\n".join(lines)
