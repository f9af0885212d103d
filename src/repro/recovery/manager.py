"""Fail-stop crash recovery for the TreadMarks-style DSM.

A :class:`~repro.faults.NodeCrash` wipes one processor's entire DSM
runtime state (page validity, twins, diffs, write notices, the interval
log, lock tokens, queued lock requests, barrier arrival state) at a
scheduled simulated time.  This module restores that state from the
survivors, bit-identically to a fault-free run, through three
mechanisms:

A crash is the departure of the role-handoff core
(:mod:`repro.recovery.handoff`) whose victim cannot cooperate: this
module adds what that costs.

**Lightweight logging.**  While a crash is pending for a processor, it
diffs eagerly at every interval end and ships the interval record, its
fresh diffs and the delta of its applied-diff watermarks to its
*backup* (the core's steward).  A manager that is crash-planned
likewise replicates every lock-routing decision.  Because the reliable
transport delivers in order per channel, the final pre-crash log entry
is always at the backup before the victim's post-reboot ``rec.fetch``
arrives — no separate synchronous-log round-trip is needed.

**On-demand re-replication.**  After the reboot window the victim runs
the core's re-entry exchange (``rec.fetch`` / ``rec.state``) with every
survivor; beyond records and clock each reports its lock
token/tail/pending state, whether it is blocked on a lock or barrier,
its in-flight lock traffic, and (from the backup) the victim's own
logged records, diffs and routing decisions.  The victim re-enters with
every page invalid, replays the union of write notices and restocks its
own diffs and applied watermarks from the backup log.

**Lock and barrier rebuild.**  Lock tokens are reconstructed from the
survivors' evidence: a token is placed wherever a survivor explicitly
holds it or an in-flight grant is headed; otherwise it is parked at the
victim iff the routing chain (or the static assignment) ends there.
Requests that were queued at the victim are rebuilt, in routing order,
from the survivors' "blocked on lock" reports minus the requests still
covered by in-flight forwards or grants.  A crashed barrier master
rebuilds its arrival box from the survivors' "blocked in barrier"
reports.

Survivors' logs are bounded by a configurable GC watermark
(``log_limit`` newest intervals per victim); the protocol's own
barrier-time garbage collection clears them entirely, which is safe
because after a GC round no pre-GC diff can ever be requested again.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.errors import FaultPlanError
from repro.tm.diffs import diff_payload_bytes
from repro.tm.meta import (IntervalRecord, interval_wire_bytes,
                           VC_ENTRY_BYTES)

#: Wire size of one (writer, interval, page) applied-watermark entry.
APPLIED_ENTRY_BYTES = 12


class _BackupLog:
    """One victim's replicated state, held at its backup processor."""

    def __init__(self) -> None:
        #: Victim interval index -> record.
        self.records: Dict[int, IntervalRecord] = {}
        #: (victim, index, page) -> the victim's diff for it.
        self.diffs: Dict[Tuple[int, int, int], object] = {}
        #: lid -> ordered (requester, rvc, sreq, routed_to) chain for
        #: locks the victim manages.
        self.routes: Dict[int, List[tuple]] = {}
        #: (writer, interval, page) triples the victim had applied, as
        #: of its last log point.  Survives watermark trims (triples
        #: are cheap); re-applying a diff applied *after* the last log
        #: point is value-idempotent, so the set only needs to be
        #: current to the previous sync operation.
        self.applied: Set[Tuple[int, int, int]] = set()
        #: Lowest interval index still retained (GC watermark).
        self.trimmed_below: int = 0


class RecoveryManager:
    """What a crash adds to the role-handoff lifecycle: the backup log,
    the wipe and the survivor-evidence rebuild."""

    name = "recovery"
    #: Requests parked while a victim rebuilds (beyond the core's).
    parks = ()

    def __init__(self, core, crashes, log_limit: Optional[int] = None) \
            -> None:
        self.core = core
        self.sys = core.sys
        nprocs = core.n
        if nprocs < 2:
            raise FaultPlanError(
                "NodeCrash recovery needs at least 2 processors "
                "(a lone processor has no survivors to recover from)")
        for c in crashes:
            if not 0 <= c.pid < nprocs:
                raise FaultPlanError(
                    f"NodeCrash pid {c.pid} out of range for "
                    f"nprocs={nprocs}")
            core.schedule(self, c)
        #: victim -> replicated log (written only by the backup's
        #: ``rec.log`` handler; reading it anywhere else would cheat).
        self._logs: Dict[int, _BackupLog] = {
            c.pid: _BackupLog() for c in crashes}
        #: manager pid -> lid -> ordered routing chain (live copy every
        #: manager keeps of its own decisions; costs nothing on the
        #: wire, mirrors state a real manager has in memory anyway).
        self._routes: Dict[int, Dict[int, List[tuple]]] = {}
        self.log_limit = log_limit
        #: Watermark actually used during a victim's rebuild, if the
        #: backup log had been trimmed (for diff-miss diagnostics).
        self._trimmed: Dict[int, int] = {}
        #: pid -> applied triples already shipped to its backup (the
        #: sender's own bookkeeping, so each log entry carries a delta).
        self._applied_sent: Dict[int, Set[Tuple[int, int, int]]] = {}
        #: Recovery cost (the core's summary; ``rec.recover`` carries
        #: the cumulative counters).
        self.cost = {"log_messages": 0, "log_bytes": 0, "state_bytes": 0,
                     "t_recovery_us": 0.0}
        self.realized: Dict[int, float] = {}   # victim -> wipe time

    # ------------------------------------------------------------------
    # Wiring.
    # ------------------------------------------------------------------

    def attach(self, node) -> None:
        """Register the recovery message handlers on one node."""
        node.ep.on("rec.log",
                   lambda msg, node=node: self._h_log(node, msg))
        node.ep.on("rec.fetch",
                   lambda msg, node=node: self._h_fetch(node, msg))

    def eager_pid(self, pid: int) -> bool:
        """Should ``pid`` diff eagerly and log its intervals?"""
        return pid in self._logs and self.core.status[pid] != "done"

    # ------------------------------------------------------------------
    # Logging (victim side, pre-crash).
    # ------------------------------------------------------------------

    def log_interval(self, node, rec: IntervalRecord) -> None:
        """Ship one closed interval (record + fresh diffs) to the backup.

        Called by ``end_interval`` after its atomic section — sending
        mid-atomic could let an interrupt handler observe a bumped
        vector clock without its interval record.

        The entry also carries the delta of the node's *applied* set
        since the previous log point.  The rebuild restores it so the
        victim never re-applies a diff that predates bytes it has since
        overwritten: an own write always closes an interval at the next
        sync operation (the crash-cut one included), so every apply
        that precedes an own write is on the backup before the crash.
        Applies after the last log point replay idempotently.
        """
        if not self.eager_pid(node.pid):
            return
        diffs = tuple(
            node.diff_store[(node.pid, rec.index, p)]
            for p in rec.pages
            if (node.pid, rec.index, p) in node.diff_store)
        seen = self._applied_sent.setdefault(node.pid, set())
        delta = tuple(sorted(node.applied - seen))
        seen.update(delta)
        self._ship(node, ("interval", node.pid, rec, diffs, delta),
                   interval_wire_bytes([rec]) + diff_payload_bytes(diffs)
                   + APPLIED_ENTRY_BYTES * len(delta) + 8)

    def note_route(self, node, lid: int, requester: int,
                   rvc: Tuple[int, ...], sreq, tail: int) -> None:
        """A manager routed a lock request; remember (and replicate) it."""
        entry = (requester, rvc, sreq, tail)
        self._routes.setdefault(node.pid, {}) \
            .setdefault(lid, []).append(entry)
        if node.pid in self._logs \
                and self.core.status[node.pid] == "pending":
            self._ship(node, ("route", node.pid, lid, entry),
                       12 + VC_ENTRY_BYTES * node.nprocs
                       + (sreq.wire_bytes() if sreq is not None else 0))

    def _ship(self, node, entry: tuple, size: int) -> None:
        """Send one ``rec.log`` entry to the backup."""
        node.ep.send(self.core.steward[node.pid], "rec.log",
                     payload=entry, size=size)
        self.cost["log_messages"] += 1
        self.cost["log_bytes"] += size

    def _h_log(self, node, msg) -> None:
        """Backup side: fold one log entry into the victim's log."""
        node._charge(node.cfg.request_service)
        what, victim = msg.payload[0], msg.payload[1]
        log = self._logs[victim]
        if what == "interval":
            rec, diffs, delta = msg.payload[2:5]
            log.records[rec.index] = rec
            for d in diffs:
                log.diffs[(victim, rec.index, d.page)] = d
            log.applied.update(delta)
            if self.log_limit is not None:
                while len(log.records) > self.log_limit:
                    low = min(log.records)
                    dropped = log.records.pop(low)
                    for p in dropped.pages:
                        log.diffs.pop((victim, low, p), None)
                    log.trimmed_below = low + 1
        else:   # "route"
            lid, entry = msg.payload[2], msg.payload[3]
            log.routes.setdefault(lid, []).append(entry)

    # ------------------------------------------------------------------
    # Crash realization (victim's process context).
    # ------------------------------------------------------------------

    def depart(self, node, c) -> None:
        """Realize crash ``c`` (the core's syncpoint found it due)."""
        core = self.core
        # Requests park from here on: the quiesce may yield, and a
        # request served mid-crash would read state about to be wiped.
        core.status[node.pid] = "away"
        # The eager-diff hook has already logged every earlier
        # interval; end_interval logs the crash-cut one.
        core.quiesce(node, cut=True)
        # Reboot: the NIC is dark for [t, t + reboot_us) (the injector
        # drops frames in that window); the processor itself is busy
        # "rebooting" until the window ends.
        core.go_dark(node, c.t1)
        self.realized[node.pid] = self.sys.engine.now
        if node.tel is not None:
            node.tel.event(node.pid, "rec.crash", t_sched=c.t,
                           reboot_us=c.reboot_us)
        self._wipe(node)
        self._recover(node)

    def _wipe(self, node) -> None:
        """Lose everything the DSM runtime kept in (volatile) memory.

        The program's own state — including its memory image, the locks
        it believes it holds, and its queued compiler hints — survives
        as the checkpoint the node reboots from; see docs/robustness.md
        for why the recovery protocol only needs the *protocol* state
        rebuilt.
        """
        n = node.nprocs
        node.vc = [0] * n
        node.intervals.clear()
        node._by_writer = [[] for _ in range(n)]
        node.page_notices.clear()
        node.applied.clear()
        node.diff_store.clear()
        node.dirty.clear()
        node.lock_token.clear()
        node.lock_pending.clear()
        node.lock_tail.clear()
        node.master_seen_vc = [0] * n
        node._barrier_box.clear()
        self._routes[node.pid] = {}
        for meta in node.pages:
            meta.valid = False
            meta.write_enabled = False
            meta.twin = None
            meta.dirty = False
            meta.overwrite = False
            meta.undiffed = None

    # ------------------------------------------------------------------
    # State transfer.
    # ------------------------------------------------------------------

    def _recover(self, node) -> None:
        pid = node.pid
        t0 = self.sys.engine.now
        survivors = [q for q in range(node.nprocs) if q != pid]
        reports = {}
        for q, msg in self.core.reenter(node, survivors, "rec.fetch",
                                        "rec.state"):
            reports[q] = msg.payload
            node._charge(node.cfg.request_service)
        self._rebuild(node, reports)
        self.core.status[pid] = "done"
        self.core.replay(pid)
        self.cost["t_recovery_us"] += self.sys.engine.now - t0
        if node.tel is not None:
            # Cumulative cost counters ride along so a harness that only
            # sees the telemetry stream can report recovery cost.
            node.tel.event(pid, "rec.recover",
                           records=len(node.intervals),
                           diffs=len(node.diff_store),
                           locks=len(node.lock_token),
                           dur_us=self.sys.engine.now - t0,
                           log_messages=self.cost["log_messages"],
                           log_bytes=self.cost["log_bytes"],
                           state_bytes=self.cost["state_bytes"])

    def _h_fetch(self, node, msg) -> None:
        """Survivor side: snapshot my state for the recovering victim."""
        node._charge(node.cfg.request_service)
        victim = msg.src
        grants, fwds = self._inflight(node, victim)
        report = {
            "tokens": dict(node.lock_token),
            "held": tuple(sorted(node.lock_held)),
            "tails": dict(node.lock_tail),
            "pending": {lid: tuple(v)
                        for lid, v in node.lock_pending.items() if v},
            "waiting": self._lock_wait_of(node),
            "barrier": self._barrier_wait_of(node),
            "routes": {lid: tuple(v) for lid, v in
                       self._routes.get(node.pid, {}).items()},
            "grants": grants,
            "fwds": fwds,
            "log": None,
        }
        size = 16 * (len(report["tokens"]) + len(report["tails"]))
        if self.core.steward[victim] == node.pid:
            log = self._logs[victim]
            report["log"] = (tuple(log.records.values()),
                             tuple(log.diffs.items()),
                             {lid: tuple(v)
                              for lid, v in log.routes.items()},
                             log.trimmed_below,
                             tuple(sorted(log.applied)))
            size += (interval_wire_bytes(log.records.values())
                     + diff_payload_bytes(log.diffs.values())
                     + APPLIED_ENTRY_BYTES * len(log.applied))
        self.cost["state_bytes"] += self.core.serve_state(
            node, msg, "rec.state", report, size)

    @staticmethod
    def _lock_wait_of(node):
        """The (lid, rvc, sreq) request ``node`` is blocked on, if any.

        A grant already sitting in the mailbox means the node is about
        to resume — reporting it as waiting would make the victim queue
        (and eventually grant) the request a second time.
        """
        aw = node._awaiting_lock
        if aw is None:
            return None
        if any(m.kind == "lock_grant" and m.tag == aw[0]
               for m in node.ep.mailbox):
            return None
        return aw

    @staticmethod
    def _barrier_wait_of(node):
        bw = node._barrier_wait
        if bw is None:
            return None
        if any(m.kind == "barrier_depart" for m in node.ep.mailbox):
            return None
        return bw

    @staticmethod
    def _inflight(node, victim: int):
        """Unacked lock traffic this node has on the wire.

        Grants evidence the token's position; forwards addressed to the
        victim will still be delivered by the transport's retries, so
        the victim must *not* also rebuild them as queued requests.
        """
        tp = node.sys.net.transport
        grants: List[Tuple[int, int]] = []       # (lid, dst)
        fwds: List[Tuple[int, int]] = []         # (lid, requester)
        if tp is None:
            return (), ()
        for (src, dst), entries in tp._unacked.items():
            if src != node.pid:
                continue
            for inf in entries.values():
                m = inf.msg
                if m.kind == "lock_grant":
                    grants.append((m.tag, m.dst))
                elif m.kind == "lock_fwd" and m.dst == victim:
                    fwds.append((m.payload[0], m.payload[1]))
        return tuple(grants), tuple(fwds)

    # ------------------------------------------------------------------
    # Reconstruction (victim's process context, post-transfer).
    # ------------------------------------------------------------------

    def _rebuild(self, node, replies: Dict[int, tuple]) -> None:
        pid = node.pid
        reports = {q: rep for q, (_, _, rep) in replies.items()}
        all_recs: Dict[Tuple[int, int], IntervalRecord] = {}
        for q in sorted(replies):
            for rec in replies[q][0]:
                all_recs.setdefault(rec.key, rec)
        log = next((rep["log"] for rep in reports.values()
                    if rep["log"] is not None), None)
        routes_replica: Dict[int, tuple] = {}
        log_applied: tuple = ()
        if log is not None:
            lrecs, ldiffs, routes_replica, trimmed_below, log_applied \
                = log
            for rec in lrecs:
                all_recs.setdefault(rec.key, rec)
            node.diff_store.update(dict(ldiffs))
            if trimmed_below:
                self._trimmed[pid] = trimmed_below
        # Replay the union of write notices.  Every page is invalid, so
        # this merges clocks and rebuilds page_notices without emitting
        # a single invalidation — the timeline and stats stay exact.
        node.apply_notices(sorted(all_recs.values(),
                                  key=IntervalRecord.order_key))
        for q in sorted(replies):
            node._merge_vc(replies[q][1])
        # Restore the applied watermarks from the backup log: the
        # checkpointed image already holds every byte those diffs
        # wrote, and marking them applied is what stops an *older*
        # diff from replaying on top of *newer* own bytes.  Diffs
        # applied after the last log point are missing from the set
        # and simply replay — value-idempotent, since the records they
        # could clobber are ordered and replay after them.
        node.applied.update(log_applied)
        self._routes[pid] = {lid: list(v)
                             for lid, v in routes_replica.items()}
        self._rebuild_locks(node, reports, routes_replica)
        if pid == node.master_pid:
            for q in sorted(reports):
                bw = reports[q]["barrier"]
                if bw is not None and q not in node._barrier_box:
                    # Empty record tuple: the state transfer already
                    # delivered every interval record the arrival
                    # carried, and apply_notices is idempotent.  No
                    # backend extra either (recovery is mw-lrc-only,
                    # whose extras are always None).
                    node._barrier_box[q] = (tuple(bw[0]), (), bw[1],
                                            None)
    def _rebuild_locks(self, node, reports, routes_replica) -> None:
        pid, n = node.pid, node.nprocs
        lids = set(node.lock_held) | set(routes_replica)
        grants: List[Tuple[int, int]] = []
        waiting: Dict[int, tuple] = {}
        fwds_to_me: List[Tuple[int, int]] = []
        for q, rep in reports.items():
            lids |= (set(rep["tokens"]) | set(rep["tails"])
                     | set(rep["pending"]) | set(rep["held"])
                     | set(rep["routes"]))
            if rep["waiting"] is not None:
                waiting[q] = rep["waiting"]
                lids.add(rep["waiting"][0])
            grants.extend(rep["grants"])
            fwds_to_me.extend(rep["fwds"])
        my_grants, _ = self._inflight(node, pid)
        grants.extend(my_grants)
        lids |= {g[0] for g in grants} | {f[0] for f in fwds_to_me}

        for lid in sorted(lids):
            manager = lid % n
            if manager == pid:
                chain = list(routes_replica.get(lid, ()))
            else:
                chain = list(reports[manager]["routes"].get(lid, ()))
            # --- token reconstruction -----------------------------------
            held_elsewhere = any(
                lid in rep["held"] or rep["tokens"].get(lid)
                for rep in reports.values())
            granted = any(g[0] == lid for g in grants)
            if lid in node.lock_held:
                tok = True
            elif held_elsewhere or granted:
                tok = False
            elif not chain:
                tok = (manager == pid)   # never moved: static default
            else:
                # The chain moved the token, no survivor has it and
                # none is in flight: its journey ended at the victim.
                tok = True
            node.lock_token[lid] = tok
            # --- manager-side chain tail --------------------------------
            if manager == pid and chain:
                node.lock_tail[lid] = chain[-1][0]
            # --- requests that were queued here and died ----------------
            seen = set()
            for (requester, _rvc, _sreq, routed_to) in chain:
                if routed_to != pid or requester == pid:
                    continue
                if requester in seen:
                    continue
                aw = waiting.get(requester)
                if aw is None or aw[0] != lid:
                    continue   # not (or no longer) blocked on this lock
                if (lid, requester) in fwds_to_me:
                    continue   # the forward will still be delivered
                if any(g == (lid, requester) for g in grants):
                    continue   # a grant is already on its way
                seen.add(requester)
                node.lock_pending.setdefault(lid, []).append(
                    (requester, tuple(aw[1]), aw[2]))
        # Hand the token on where the victim parked it with waiters.
        for lid in sorted(node.lock_pending):
            pending = node.lock_pending[lid]
            if pending and node._has_token(lid) \
                    and lid not in node.lock_held:
                requester, rvc, sreq = pending.pop(0)
                node._grant_lock(lid, requester, rvc, sreq)

    # ------------------------------------------------------------------
    # Interplay with the protocol's own GC, and diagnostics.
    # ------------------------------------------------------------------

    def on_gc_discard(self, pid: int) -> None:
        """Barrier-time GC on ``pid``: drop the recovery logs it holds."""
        self._routes.pop(pid, None)
        self._applied_sent.pop(pid, None)
        for victim in self._logs:
            if self.core.steward[victim] == pid:
                self._logs[victim] = _BackupLog()

    def explain_missing_diff(self, writer: int,
                             interval: int) -> Optional[str]:
        """Why a diff of ``writer`` can be legitimately gone: the log
        GC watermark trimmed it before the writer's crash."""
        below = self._trimmed.get(writer)
        if below is not None and interval < below:
            return (f"P{writer} recovered from a backup log trimmed to "
                    f"the last {self.log_limit} intervals (watermark "
                    f"{below}); its diff for interval {interval} is "
                    f"gone — raise the recovery log_limit")
        return None

    def debug_lines(self) -> List[str]:
        """Backup-log holdings for the deadlock dump."""
        return [f"backup P{self.core.steward[pid]} holds P{pid}'s "
                f"{len(log.records)} intervals / {len(log.diffs)} diffs "
                f"(watermark {log.trimmed_below})"
                for pid, log in self._logs.items()
                if log.records or log.trimmed_below]
