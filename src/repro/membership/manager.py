"""Elastic cluster membership for the TreadMarks-style DSM.

The :class:`MembershipManager` lets the processor set change while a
computation runs.  It drives the departure lifecycle of the role-handoff
core (:mod:`repro.recovery.handoff`) through three gentler transitions
than a crash:

**Join.**  A planned late joiner is dark until its join time, announces
itself (``mem.join``) and re-enters from every peer (``mem.sync`` /
``mem.records``).

**Drain (graceful leave).**  Realized like a crash, but only with no
locks held: the node materializes every diff of its own retained
intervals and ships one ``mem.handoff`` to its steward — records, its
own diffs, its lock tokens, the routing tails of the locks it manages,
and (if it holds it) the barrier seat with the raw arrival box.  A
``mem.leave`` broadcast re-shards every peer's view: requests for the
victim's locks route to the steward (which can *claim* a parked token
out of custody, once per lock), diff requests at or below the drain
watermark go to the steward's custody copy, and the barrier seat moves
— permanently, so in-flight arrivals can never race a reverting seat.
On return the victim re-enters from its steward alone
(``mem.rejoin`` / ``mem.state``), which hands back unclaimed tokens and
the routing chains it accumulated while acting.

**Eviction (failure detection).**  Every member beats (``hb.beat``,
cheap unreliable datagrams, NIC-offloaded so a CPU deep in a compute
phase still beats on schedule) to its ring successor; the successor
suspects it after ``suspect_after_us`` of silence and declares an
eviction after ``evict_after_us``.  Eviction is deliberately
*bookkeeping plus re-admission*, not state surgery: a silenced node
keeps computing, survivors' reliable traffic to it simply stalls and
retries, and the first beat after the silence re-admits it
(``mem.admit``) — so a false positive costs time, never correctness.

Everything stays bit-identical to the static fault-free run because no
membership transition ever discards work: absence only shifts *when*
messages are delivered, and the reliable transport's retry budget
(~5 simulated seconds) dwarfs any plausible absence window.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.errors import MembershipError
from repro.faults.plan import NodeOutage
from repro.membership.plan import MembershipPlan
from repro.tm.diffs import diff_payload_bytes
from repro.tm.meta import interval_wire_bytes, VC_ENTRY_BYTES


class _Custody:
    """A drained victim's handed-off protocol state, at its steward."""

    __slots__ = ("tokens", "claimed", "diffs", "active")

    def __init__(self, tokens) -> None:
        #: The victim's explicit lock-token map at drain time.
        self.tokens: Dict[int, bool] = dict(tokens)
        #: Tokens the steward claimed out of custody (stay with the
        #: cluster; everything else returns at handback).
        self.claimed: Set[int] = set()
        #: (victim, interval, page) -> diff, serving stale-view
        #: requesters until the protocol's own GC clears them.
        self.diffs: Dict[Tuple[int, int, int], object] = {}
        #: False once the handback completed: no further claims.
        self.active = True


class MembershipManager:
    """What drains and joins add to the role-handoff lifecycle: the
    handoff, custody, token claims and the failure detector."""

    name = "membership"
    #: Requests parked while a drained node's state is in custody
    #: (beyond the core's).
    parks = ("mem.diff_req", "mem.sync")

    def __init__(self, core, plan: MembershipPlan, crashes=()) -> None:
        self.core = core
        self.sys = system = core.sys
        self.plan = plan
        self.hb = plan.heartbeat
        n = self.n = core.n
        plan.validate_for(n, crashes)
        inj = system.net.injector
        if inj is None:
            raise MembershipError(
                "membership needs the fault injector (pass the plan "
                "via FaultPlan.membership so the network builds one)")
        for d in plan.drains:
            core.schedule(self, d)
        # Static NIC-dark windows: a joiner is dark from t=0 until it
        # joins, a silenced node for its silence window.  Drain windows
        # open at realization time.
        for j in plan.joins:
            if j.t > 0:
                core.schedule(self, j, "away")
                inj.dynamic.append(NodeOutage(j.pid, 0.0, j.t))
        for s in plan.silences:
            inj.dynamic.append(NodeOutage(s.pid, s.t, s.t1))
        #: Per node: planned joiners it has not heard announce yet.
        self._prejoin: List[Set[int]] = [
            {j.pid for j in plan.joins} for _ in range(n)]
        self._custody: Dict[int, _Custody] = {}
        # --- failure detector ------------------------------------------
        # Beat phases are seeded from the fault plan so same-seed runs
        # replay identical heartbeat schedules.
        import random
        self._rng = random.Random(inj.plan.seed ^ 0x6D656D)
        #: monitor pid -> monitoree pid -> last beat (or benefit of the
        #: doubt) time.
        self._last_heard: List[Dict[int, float]] = [
            {(m - 1) % n: 0.0} for m in range(n)]
        #: Global detector verdict per pid ("member" / "suspected" /
        #: "evicted"), written only by the designated ring monitor.
        self._verdict: Dict[int, str] = {p: "member" for p in range(n)}
        #: Churn cost (the core's summary; ``mem.join`` carries the
        #: cumulative handoff counters).  ``detect_us`` is the worst
        #: detection latency.
        self.cost = dict.fromkeys(
            ("handoff_messages", "handoff_bytes", "beats_sent",
             "suspicions", "evictions", "admissions", "tokens_claimed",
             "joins", "drains"), 0)
        self.cost["detect_us"] = 0.0

    # ------------------------------------------------------------------
    # Wiring.
    # ------------------------------------------------------------------

    def attach(self, node) -> None:
        """Register the membership handlers on one node."""
        ep = node.ep
        ep.on("hb.beat",
              lambda msg, node=node: self._h_beat(node, msg),
              interrupt=False)
        for kind, handler in (("mem.handoff", self._h_handoff),
                              ("mem.leave", self._h_leave),
                              ("mem.join", self._h_join),
                              ("mem.rejoin", self._h_rejoin),
                              ("mem.sync", self._h_sync),
                              ("mem.diff_req", self._h_diff_req),
                              ("mem.evict", self._h_evict),
                              ("mem.admit", self._h_admit)):
            ep.on(kind, lambda msg, node=node, h=handler: h(node, msg))
        # The barrier seat can move, so every node must be able to
        # receive (and relay) arrivals, not just the static master.
        if node.pid != node.master_pid:
            ep.on("barrier_arrive", node._h_barrier_arrive,
                  interrupt=False)

    def start(self) -> None:
        """Arm the per-node heartbeat timers (after nodes exist)."""
        for node in self.sys.nodes:
            phase = self._rng.uniform(0.0, self.hb.period_us)
            self.sys.engine.call_at(
                phase, lambda n=node: self._tick(n))

    # ------------------------------------------------------------------
    # Heartbeats and the failure detector.
    # ------------------------------------------------------------------

    def _tick(self, node) -> None:
        engine = self.sys.engine
        if not engine.any_alive or engine.now >= self.hb.max_lifetime_us:
            return      # run is over (or hung): stop rescheduling
        pid = node.pid
        inj = self.sys.net.injector
        dark = inj.outage_at(pid, engine.now) is not None
        if not dark and self.n > 1:
            succ = (pid + 1) % self.n
            node.ep.send(succ, "hb.beat", payload=pid,
                         size=self.hb.beat_bytes,
                         send_cost=self.hb.beat_send_cost_us,
                         unreliable=True, offload=True)
            self.cost["beats_sent"] += 1
        self._check(node, dark)
        engine.call_after(self.hb.period_us, lambda: self._tick(node))

    def _check(self, node, dark: bool) -> None:
        """Detector duty: judge my ring predecessor's silence."""
        m = node.pid
        p = (m - 1) % self.n
        if p == m:
            return
        now = self.sys.engine.now
        if dark or p in self._prejoin[m] or p in self.core.away[m]:
            # I cannot hear anyone / the silence is expected: hold the
            # timer instead of accusing.
            self._last_heard[m][p] = now
            return
        quiet = now - self._last_heard[m].get(p, 0.0)
        verdict = self._verdict[p]
        if quiet > self.hb.evict_after_us and verdict != "evicted":
            self._verdict[p] = "evicted"
            self.cost["evictions"] += 1
            if node.tel is not None:
                node.tel.event(m, "mem.evict", target=p,
                               quiet_us=quiet)
            node.ep.broadcast("mem.evict", payload=p, size=8)
        elif quiet > self.hb.suspect_after_us and verdict == "member":
            self._verdict[p] = "suspected"
            self.cost["suspicions"] += 1
            self.cost["detect_us"] = max(self.cost["detect_us"],
                                         quiet - self.hb.period_us)
            if node.tel is not None:
                node.tel.event(m, "mem.suspect", target=p,
                               quiet_us=quiet)

    def _h_beat(self, node, msg) -> None:
        node.ep.charge(self.hb.beat_handler_cost_us)
        src = msg.payload
        self._last_heard[node.pid][src] = self.sys.engine.now
        if (src + 1) % self.n == node.pid \
                and self._verdict.get(src) in ("suspected", "evicted"):
            # The "dead" member speaks: re-admit it.  A false positive
            # ends here, with the run intact.
            was = self._verdict[src]
            self._verdict[src] = "member"
            self.cost["admissions"] += 1
            if node.tel is not None:
                node.tel.event(node.pid, "mem.admit", target=src,
                               was=was)
            if was == "evicted":
                node.ep.broadcast("mem.admit", payload=src, size=8)

    @staticmethod
    def _h_evict(node, msg) -> None:
        node._charge(node.cfg.request_service)

    def _h_admit(self, node, msg) -> None:
        node._charge(node.cfg.request_service)
        self._last_heard[node.pid][msg.payload] = self.sys.engine.now

    # ------------------------------------------------------------------
    # Join (dormant start; lazy all-pages-invalid re-entry).
    # ------------------------------------------------------------------

    def enter(self, node, j) -> None:
        """Process context, before ``main``: realize join ``j``."""
        self.core.go_dark(node, j.t)
        node.ep.broadcast("mem.join", payload=node.pid, size=8)
        peers = [q for q in range(self.n) if q != node.pid]
        replies = self.core.reenter(node, peers, "mem.sync", "mem.records")
        self.cost["handoff_messages"] += 2 * len(peers)
        t0 = self.sys.engine.now
        for _, msg in replies:
            recs, vc, _ = msg.payload
            self.cost["handoff_bytes"] += msg.size
            # Replaying everyone's notices invalidates exactly the pages
            # written while this node was not yet a member.
            node.apply_notices(recs, vc)
        self.core.status[node.pid] = "done"
        self.cost["joins"] += 1
        if node.tel is not None:
            node.tel.event(node.pid, "mem.join", t_sched=j.t,
                           how="join",
                           dur_us=self.sys.engine.now - t0,
                           handoff_messages=self.cost["handoff_messages"],
                           handoff_bytes=self.cost["handoff_bytes"])

    def _h_sync(self, node, msg) -> None:
        """A joiner asks for my retained records."""
        node._charge(node.cfg.request_service)
        self.core.serve_state(node, msg, "mem.records")

    def _h_join(self, node, msg) -> None:
        """A member (re)announced itself: it is reachable again."""
        node._charge(node.cfg.request_service)
        joiner = msg.payload
        self._prejoin[node.pid].discard(joiner)
        self.core.away[node.pid].pop(joiner, None)
        self._last_heard[node.pid][joiner] = self.sys.engine.now

    # ------------------------------------------------------------------
    # Drain (graceful leave with deterministic re-sharding).
    # ------------------------------------------------------------------

    def depart(self, node, d) -> None:
        """Realize drain ``d`` (the core's syncpoint found it due)."""
        if node.lock_held or any(node.lock_pending.values()):
            return      # leave only between critical sections
        core = self.core
        victim, n = node.pid, self.n
        steward = core.steward[victim]
        engine = self.sys.engine
        core.quiesce(node)
        # Materialize every diff of my own retained intervals: custody
        # must be able to serve them while I am unreachable.
        own = sorted((rec for rec in node.intervals.values()
                      if rec.writer == victim),
                     key=lambda r: r.index)
        for rec in own:
            for p in rec.pages:
                key = (victim, rec.index, p)
                if key not in node.diff_store:
                    node.diff_store[key] = \
                        node._get_or_make_diff(p, rec.index)
        watermark = node.vc[victim]
        records = tuple(node.intervals.values())
        diffs = tuple((k, dd) for k, dd in node.diff_store.items()
                      if k[0] == victim)
        tokens = dict(node.lock_token)
        tails = {lid: t for lid, t in node.lock_tail.items()
                 if lid % n == victim}
        was_seat = core.seat[victim] == victim
        box = dict(node._barrier_box) if was_seat else {}
        core.status[victim] = "away"
        if was_seat:
            core.seat[victim] = steward
        size = (interval_wire_bytes(records)
                + diff_payload_bytes(d for _, d in diffs)
                + 16 * (len(tokens) + len(tails))
                + VC_ENTRY_BYTES * n + 16)
        node.ep.send(steward, "mem.handoff",
                     payload=(victim, records, diffs, tokens, tails,
                              node._vc_tuple(), box, was_seat,
                              watermark),
                     size=size)
        node.ep.broadcast("mem.leave",
                          payload=(victim, steward, watermark), size=12)
        self.cost["handoff_messages"] += n   # 1 handoff + (n-1) leaves
        self.cost["handoff_bytes"] += size + 12 * (n - 1)
        if node.tel is not None:
            node.tel.event(victim, "mem.leave", t_sched=d.t,
                           away_us=d.away_us, steward=steward,
                           watermark=watermark, handoff_bytes=size)
        # Dark window: strictly after the handoff frames depart, so the
        # injector does not eat our own goodbye.
        t_dark = max(engine.now, node.proc.busy_until) + 1e-6
        core.go_dark(node, t_dark + d.away_us, t0=t_dark)
        self._rejoin(node, steward)

    def _rejoin(self, node, steward: int) -> None:
        victim = node.pid
        t0 = self.sys.engine.now
        (_, msg), = self.core.reenter(node, [steward], "mem.rejoin",
                                      "mem.state")
        recs, svc, (tokens_back, tails_back) = msg.payload
        self.cost["handoff_messages"] += 2
        self.cost["handoff_bytes"] += msg.size + 8
        # Catch up on the world: apply everything the steward knows,
        # invalidating the pages written while I was away.
        node.apply_notices(recs, svc)
        node.lock_token.update(tokens_back)
        node.lock_tail.update(tails_back)
        self.core.status[victim] = "done"
        self.cost["drains"] += 1
        node.ep.broadcast("mem.join", payload=victim, size=8)
        self.cost["handoff_messages"] += self.n - 1
        if node.tel is not None:
            node.tel.event(victim, "mem.join", how="rejoin",
                           dur_us=self.sys.engine.now - t0,
                           handoff_messages=self.cost["handoff_messages"],
                           handoff_bytes=self.cost["handoff_bytes"])
        self.core.replay(victim)

    def _h_handoff(self, node, msg) -> None:
        """Steward side: take custody of a drained victim's state."""
        node._charge(node.cfg.request_service)
        (victim, records, diffs, tokens, tails, vvc, box, was_seat,
         watermark) = msg.payload
        cust = _Custody(tokens)
        cust.diffs = dict(diffs)
        self._custody[victim] = cust
        plane = getattr(self.sys.net, "onesided", None)
        if plane is not None:
            # One-sided mode: re-register the inherited diffs as this
            # steward's custody windows, so below-watermark fetches for
            # the drained writer stay one-sided reads.
            for (w, i, p), dd in cust.diffs.items():
                plane.register(node.pid, ("cdiff", w, i, p), value=dd,
                               nbytes=dd.wire_bytes)
        # Conservative install: apply_notices merges the clock and
        # invalidates through the normal event stream, so the inspector
        # sees ordinary tm.invalidate traffic, not magic.
        node.apply_notices(records, vvc)
        node.lock_tail.update(tails)
        self.core.away[node.pid][victim] = watermark
        if was_seat:
            self.core.seat[node.pid] = node.pid
            for pid, entry in box.items():
                node._barrier_box.setdefault(pid, entry)
            if len(node._barrier_box) == node.nprocs:
                node.proc.wake()

    def _h_leave(self, node, msg) -> None:
        victim, steward, watermark = msg.payload
        node._charge(node.cfg.request_service)
        self.core.away[node.pid][victim] = watermark
        if self.core.seat[node.pid] == victim:
            self.core.seat[node.pid] = steward
        # A graceful goodbye is not a failure: hold the detector.
        self._last_heard[node.pid][victim] = self.sys.engine.now

    def _h_rejoin(self, node, msg) -> None:
        """Steward side: hand the custody state back to the victim."""
        node._charge(node.cfg.request_service)
        victim = msg.src
        cust = self._custody[victim]
        cust.active = False
        tokens_back = {lid: False for lid in cust.claimed}
        for lid, val in cust.tokens.items():
            if lid not in cust.claimed:
                tokens_back[lid] = val
        tails_back = {lid: t for lid, t in node.lock_tail.items()
                      if lid % self.n == victim}
        # Mark the victim present BEFORE replying: any request this
        # steward re-forwards to it afterwards follows the mem.state
        # frame on the same FIFO channel, so it lands on installed
        # state.
        self.core.away[node.pid].pop(victim, None)
        self._last_heard[node.pid][victim] = self.sys.engine.now
        self.core.serve_state(node, msg, "mem.state",
                              (tokens_back, tails_back),
                              16 * (len(tokens_back) + len(tails_back)))

    # ------------------------------------------------------------------
    # Custody services (lock tokens, diffs) while the victim is away.
    # ------------------------------------------------------------------

    def claim_token(self, node, lid: int) -> bool:
        """Give ``node`` a token parked in a custody it stewards.

        One-shot per lock: after the claim the token lives with the
        cluster (normal tail routing takes over) and the handback
        returns ``False`` for it.  The default rule mirrors
        ``TmNode._has_token``: an untouched lock's token sits with its
        static manager.
        """
        for victim, cust in self._custody.items():
            if not cust.active or self.core.steward[victim] != node.pid:
                continue
            if lid in cust.claimed:
                continue
            if cust.tokens.get(lid, lid % self.n == victim):
                cust.claimed.add(lid)
                node.lock_token[lid] = True
                self.cost["tokens_claimed"] += 1
                return True
        return False

    def _h_diff_req(self, node, msg) -> None:
        """Serve a victim's diffs out of custody (below the watermark)."""
        node._charge(node.cfg.request_service)
        victim, entries, tag = msg.payload
        cust = self._custody.get(victim)
        diffs = []
        for (p, i) in entries:
            d = None if cust is None else cust.diffs.get((victim, i, p))
            if d is None:
                raise MembershipError(
                    f"steward P{node.pid} has no custody diff for "
                    f"writer P{victim} interval={i} page={p} "
                    f"(custody {'gone' if cust is None else 'trimmed'})")
            diffs.append(d)
        node.ep.send(msg.src, "diff_resp", payload=tuple(diffs),
                     size=diff_payload_bytes(diffs), tag=tag)

    def on_gc_discard(self, pid: int) -> None:
        """Barrier-time GC on ``pid``: its custody diffs are dead weight
        (after the GC rendezvous nothing pre-GC is ever requested)."""
        trimmed = False
        for victim, cust in self._custody.items():
            if self.core.steward[victim] == pid:
                cust.diffs = {}
                trimmed = True
        plane = getattr(self.sys.net, "onesided", None)
        if trimmed and plane is not None:
            plane.deregister_where(pid, lambda k: k[0] == "cdiff")

    # ------------------------------------------------------------------
    # Diagnostics and reporting.
    # ------------------------------------------------------------------

    def debug_lines(self) -> List[str]:
        """Membership state for the engine's deadlock dump."""
        out: List[str] = []
        for victim, cust in sorted(self._custody.items()):
            out.append(
                f"custody of P{victim} at P{self.core.steward[victim]}: "
                f"{'active' if cust.active else 'returned'}, "
                f"{len(cust.diffs)} diffs, "
                f"{len(cust.claimed)} tokens claimed")
        bad = {p: v for p, v in self._verdict.items() if v != "member"}
        if bad:
            out.append("detector verdicts: "
                       + ", ".join(f"P{p}={v}"
                                   for p, v in sorted(bad.items())))
        return out
