"""Unit tests for the role-handoff core (repro.recovery.handoff): the
one departure lifecycle that crash recovery and elastic membership
both drive."""

from types import SimpleNamespace

from repro.faults import FaultPlan, NodeCrash
from repro.membership import MembershipPlan, NodeDrain, NodeJoin
from repro.memory import SharedLayout
from repro.tm.system import TmSystem


def _system(faults, nprocs=4):
    layout = SharedLayout(page_size=256)
    layout.add_array("x", (64,))
    layout.add_array("c", (32,))
    return TmSystem(nprocs=nprocs, layout=layout, faults=faults)


def _bands(node):
    x, c = node.array("x"), node.array("c")
    for it in range(4):
        lo = node.pid * 16
        x[lo:lo + 16] = x[lo:lo + 16] + float(node.pid + it)
        node.lock_acquire(0)
        c[0] = c[0] + 1.0
        node.lock_release(0)
        node.barrier()
    return float(x[:].sum() + c[0])


def test_no_departures_means_no_hook():
    system = _system(None)
    system.run(_bands)
    assert system.handoff is None
    assert all(node.handoff is None for node in system.nodes)


def test_every_fault_kind_drives_one_lifecycle_to_done():
    base = _system(None).run(_bands)
    plan = FaultPlan(
        crashes=(NodeCrash(pid=3, t=2500.0, reboot_us=800.0),),
        membership=MembershipPlan(drains=(NodeDrain(1, 600.0, 700.0),),
                                  joins=(NodeJoin(2, 300.0),)))
    system = _system(plan)
    res = system.run(_bands)
    assert res.returns == base.returns
    core = system.handoff
    assert core.status == {3: "done", 1: "done", 2: "done"}
    assert core.steward == {3: 0, 1: 2, 2: 3}
    # One object is every node's hook; both managers hang off it.
    assert all(node.handoff is core for node in system.nodes)
    assert [m.name for m in core.managers] == ["recovery", "membership"]
    summary = core.summary()
    assert summary["log_messages"] > 0 and summary["handoff_bytes"] > 0
    assert summary["drains"] == summary["joins"] == 1
    lines = core.debug_lines()
    for text in ("recovery P3: done", "membership P1: done",
                 "membership P2: done"):
        assert any(text in ln for ln in lines), (text, lines)


def test_join_at_time_zero_is_a_member_from_the_start():
    core = _system(FaultPlan(membership=MembershipPlan(
        joins=(NodeJoin(3, 0.0),)))).handoff
    assert 3 not in core.status


def test_route_follows_each_viewers_own_view():
    core = _system(FaultPlan(membership=MembershipPlan(
        drains=(NodeDrain(1, 5000.0, 1000.0),)))).handoff
    assert core.route(0, 1) == 1
    # P0 heard P1 leave (watermark 5); P3 has not yet.
    core.away[0][1] = 5
    assert core.route(0, 1) == 2 and core.route(3, 1) == 1
    entries = [(7, 4), (8, 5), (9, 6)]
    assert core.custody_split(0, 1, entries) \
        == (2, [(7, 4), (8, 5)], [(9, 6)])
    assert core.custody_split(3, 1, entries) == (None, [], entries)


class _Endpoint:
    def __init__(self):
        self.handlers = {}

    def on(self, kind, handler, interrupt=True):
        self.handlers[kind] = (handler, interrupt)


def test_requests_park_while_away_and_replay_in_order():
    core = _system(FaultPlan(crashes=(NodeCrash(pid=1, t=10.0),))).handoff
    seen = []
    node = SimpleNamespace(pid=1, ep=_Endpoint())
    for kind in ("diff_req", "lock_req", "lock_fwd", "other"):
        node.ep.on(kind, lambda msg, kind=kind: seen.append((kind, msg)))
    core.attach(node)                          # P1's crash is pending
    handler = {k: node.ep.handlers[k][0] for k in node.ep.handlers}
    handler["diff_req"]("a")                   # pending: served
    core.status[1] = "away"
    handler["lock_req"]("b")
    core.status[1] = "reentering"
    handler["diff_req"]("c")
    handler["other"]("d")                      # not a parked kind
    assert seen == [("diff_req", "a"), ("other", "d")]
    core.status[1] = "done"
    core.replay(1)
    assert seen[2:] == [("lock_req", "b"), ("diff_req", "c")]
    core.replay(1)                             # replays exactly once
    assert len(seen) == 4
