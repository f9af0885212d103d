"""The role-handoff core shared by crash recovery and elastic membership.

In the paper's TreadMarks run-time the lock managers and the barrier
master are fixed by pid.  When a node leaves — it crashes
(:class:`~repro.recovery.RecoveryManager`) or drains out for a while
(:class:`~repro.membership.MembershipManager`) — its roles must be
covered and, when it returns, its protocol state brought up to date.  A
crash is a drain whose victim cannot cooperate, so both managers drive
one per-pid lifecycle (docs/robustness.md):

* ``pending`` — scheduled; realizes at a sync-operation entry;
* ``away`` — quiesced and dark; requests that read its state park
  (a planned late joiner starts here);
* ``reentering`` — pulls peers' retained records and vector clocks and
  replays them through ``TmNode.apply_notices``;
* ``done`` — parked requests are served in arrival order.

Roles move to a deterministic steward (:func:`elect_backup`); only a
drain moves them — a crashed node's roles are rebuilt in place from
survivor evidence.  The backup log, the wipe and the lock rebuild stay
with the crash manager; custody, token claims and the heartbeat detector
with the membership manager.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.faults.plan import NodeOutage
from repro.tm.meta import interval_wire_bytes, VC_ENTRY_BYTES


def elect_backup(victim: int, nprocs: int) -> int:
    """Deterministic steward rule: the next processor in pid order —
    computable by every node without communication, the same rule a
    real system would use to re-elect a pid-keyed lock or barrier
    manager."""
    return (victim + 1) % nprocs


class RoleHandoff:
    """Departures and re-entries of one DSM run: the nodes' one hook."""

    def __init__(self, system, crashes=(), membership=None,
                 log_limit: Optional[int] = None) -> None:
        self.sys = system
        n = self.n = system.nprocs
        #: pid -> (manager, event) for every scheduled departure or join.
        self.plans: Dict[int, tuple] = {}
        #: Lifecycle state per planned pid (see the module docstring).
        self.status: Dict[int, str] = {}
        #: Planned pid -> the steward covering its roles.
        self.steward: Dict[int, int] = {}
        #: Per viewer: drained-away member -> its drain watermark (its
        #: own highest interval index, which custody covers).
        self.away: List[Dict[int, int]] = [{} for _ in range(n)]
        #: Per viewer: the barrier seat (moves to the steward when the
        #: seat drains; monotonic — it never moves back).
        self.seat: List[int] = [0] * n
        #: pid -> peers whose re-entry reply is still outstanding.
        self._awaiting: Dict[int, List[int]] = {}
        #: pid -> (handler, message) requests parked while it is away.
        self._parked: Dict[int, List[tuple]] = {}
        self.recovery = self.membership = None
        if crashes:
            from repro.recovery.manager import RecoveryManager
            self.recovery = RecoveryManager(self, crashes, log_limit)
        if membership is not None:
            from repro.membership.manager import MembershipManager
            self.membership = MembershipManager(self, membership,
                                                tuple(crashes))
        self.managers = [m for m in (self.recovery, self.membership)
                         if m is not None]
        system.engine.add_debug_source(self.debug_lines)

    def schedule(self, manager, event, state: str = "pending") -> None:
        """Enter ``event`` (a crash, drain or join) into the lifecycle."""
        self.plans[event.pid] = (manager, event)
        self.status[event.pid] = state
        self.steward[event.pid] = elect_backup(event.pid, self.n)

    # ------------------------------------------------------------------
    # Wiring (driven by TmSystem).
    # ------------------------------------------------------------------

    def attach(self, node) -> None:
        for m in self.managers:
            m.attach(node)
        if self.status.get(node.pid) == "pending":
            self._park(node, self.plans[node.pid][0].parks)

    def start(self) -> None:
        if self.membership is not None:
            self.membership.start()

    def startup(self, node) -> None:
        """Process start, before ``main``: a planned joiner enters."""
        if self.status.get(node.pid) == "away":
            manager, event = self.plans[node.pid]
            manager.enter(node, event)

    def _park(self, node, kinds: Sequence[str]) -> None:
        """Route a departing node's handlers for requests that read its
        protocol state (diffs, lock routing, plus its manager's
        ``kinds``) through the park: while it is away or re-entering
        that state is mid-reconstruction, and a request delivered then
        (a retried frame landing as the node returns) would read it."""
        for kind in ("diff_req", "lock_req", "lock_fwd") + kinds:
            entry = node.ep.handlers.get(kind)
            if entry is None:
                continue
            handler, interrupt = entry

            def parked(msg, handler=handler, pid=node.pid):
                if self.status[pid] in ("away", "reentering"):
                    self._parked.setdefault(pid, []).append((handler, msg))
                else:
                    handler(msg)

            node.ep.on(kind, parked, interrupt=interrupt)

    def replay(self, pid: int) -> None:
        """Serve ``pid``'s parked requests in arrival order."""
        for handler, msg in self._parked.pop(pid, ()):
            handler(msg)

    # ------------------------------------------------------------------
    # The lifecycle steps.
    # ------------------------------------------------------------------

    def syncpoint(self, node) -> None:
        """Sync-operation entry: realize a due departure.

        Only lock acquire/release, barrier and push entries qualify:
        there every validated region has fully run its kernels, so the
        cut interval's WRITE_ALL claims are sound.  Never inside an
        atomic protocol section or a nested protocol operation.
        """
        if self.status.get(node.pid) != "pending":
            return
        manager, event = self.plans[node.pid]
        if self.sys.engine.now < event.t:
            return
        if node._atomic_depth > 0 or node._op_active:
            return
        manager.depart(node, event)

    @staticmethod
    def quiesce(node, cut: bool = False) -> None:
        """Complete outstanding asynchronous fetches/pushes (their
        responses answer pre-departure tags), then close the open
        interval; ``cut`` flags a crash-cut one on ``tm.interval``."""
        node._drain_async_plans()
        node.end_interval(crash=cut)

    def go_dark(self, node, t1: float, t0: Optional[float] = None) -> None:
        """Keep ``node``'s processor busy until ``t1``; with ``t0``,
        register the NIC-dark window ``[t0, t1)`` now (crash and join
        windows are already in the plan)."""
        if t0 is not None:
            self.sys.net.injector.dynamic.append(
                NodeOutage(node.pid, t0, t1))
        now = self.sys.engine.now
        if now < t1:
            node.proc.advance(t1 - now)

    def reenter(self, node, peers: Sequence[int], kind: str,
                reply_kind: str):
        """Requester side of the re-entry exchange: send one ``kind``
        request to every peer now; return an iterator over ``(peer,
        reply)`` in peer order, each payload ``(records, vc, extra)``."""
        self.status[node.pid] = "reentering"
        node._req_seq += 1
        tag = node._req_seq
        for q in peers:
            node.ep.send(q, kind, payload=node.pid, size=8, tag=tag)
        return self._replies(node, list(peers), reply_kind, tag)

    def _replies(self, node, peers, reply_kind, tag):
        self._awaiting[node.pid] = peers
        for q in tuple(peers):
            msg = node.ep.recv(kind=reply_kind, src=q, tag=tag)
            peers.remove(q)
            yield q, msg
        del self._awaiting[node.pid]

    @staticmethod
    def serve_state(node, msg, reply_kind: str, extra=None,
                    extra_bytes: int = 0) -> int:
        """Peer side: reply with my retained interval records and vector
        clock, plus the fault kind's ``extra``; returns the size."""
        recs = tuple(node.intervals.values())
        size = (VC_ENTRY_BYTES * node.nprocs + interval_wire_bytes(recs)
                + extra_bytes)
        node.ep.send(msg.src, reply_kind,
                     payload=(recs, node._vc_tuple(), extra), size=size,
                     tag=msg.tag)
        return size

    # ------------------------------------------------------------------
    # Role routing (every query is from one viewer's perspective).
    # ------------------------------------------------------------------

    def route(self, viewer: int, target: int) -> int:
        """Where ``viewer`` sends traffic meant for ``target``."""
        if target in self.away[viewer]:
            return self.steward[target]
        return target

    def custody_split(self, viewer: int, w: int, entries):
        """``(steward, custody, rest)`` of writer ``w``'s ``(page,
        interval)`` diff requests: while ``w`` is drained away its
        steward serves the ones at or below the drain watermark."""
        watermark = self.away[viewer].get(w)
        if watermark is None:
            return None, [], entries
        return (self.steward[w], [e for e in entries if e[1] <= watermark],
                [e for e in entries if e[1] > watermark])

    # ------------------------------------------------------------------
    # What one fault kind adds to the node's hooks.
    # ------------------------------------------------------------------

    def eager(self, pid: int) -> bool:
        return self.recovery is not None and self.recovery.eager_pid(pid)

    def interval_closed(self, node, rec) -> None:
        if self.recovery is not None:
            self.recovery.log_interval(node, rec)

    def routed(self, node, lid: int, requester: int, rvc, sreq,
               tail: int) -> None:
        if self.recovery is not None:
            self.recovery.note_route(node, lid, requester, rvc, sreq, tail)

    def explain_missing_diff(self, writer: int,
                             interval: int) -> Optional[str]:
        return (self.recovery
                and self.recovery.explain_missing_diff(writer, interval))

    def claim_token(self, node, lid: int) -> bool:
        return (self.membership is not None
                and self.membership.claim_token(node, lid))

    def on_gc_discard(self, pid: int) -> None:
        """Barrier-time GC on ``pid``: what it holds for departed nodes
        is dead weight (after the GC rendezvous nothing pre-GC is ever
        requested again, even by a node that departs later)."""
        for m in self.managers:
            m.on_gc_discard(pid)

    # ------------------------------------------------------------------
    # Diagnostics and reporting.
    # ------------------------------------------------------------------

    def debug_lines(self) -> List[str]:
        """Lifecycle state for the engine's deadlock dump."""
        out: List[str] = []
        for pid in sorted(self.status):
            manager, event = self.plans[pid]
            parts = [f"{manager.name} P{pid}: {self.status[pid]} "
                     f"(t={event.t:g})"]
            if pid in self._awaiting:
                parts.append("awaiting re-entry state from " + ",".join(
                    f"P{q}" for q in self._awaiting[pid]))
            if self._parked.get(pid):
                parts.append(f"{len(self._parked[pid])} parked requests")
            out.append("; ".join(parts))
        for m in self.managers:
            out.extend(m.debug_lines())
        return out

    def summary(self) -> dict:
        """Cost counters of every fault kind in the run."""
        return {k: v for m in self.managers for k, v in m.cost.items()}
