"""Span tracing from outside the program, valid on a threaded engine.

The simulator runs every simulated processor on its own OS thread and
hands the CPU between them (and the engine thread) one at a time.  The
tracer therefore keeps one span stack per OS thread.  A span's *self*
time is its duration minus the durations of its direct children on the
same thread.  When a process blocks inside ``Process.advance`` or
``Process.wait``, the blocked interval is recorded as a ``sim.blocked``
child: other threads ran then, so it is excluded from the enclosing
span's self time and from every layer's time.

Spans are aggregated in memory per thread (count, total, self) and only
merged and written out when the run ends.  :func:`install` wraps public
entry points of the program in place and returns a handle whose
``restore()`` puts every original back; an entry point that no longer
exists is reported in ``missing`` and skipped.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Name of the child span that covers a process's blocked interval.
BLOCKED = "sim.blocked"


class ThreadRecord:
    """Per-thread aggregates: only the owning thread writes them."""

    __slots__ = ("main", "stack", "totals", "root_s", "blocked_s")

    def __init__(self, main: bool) -> None:
        self.main = main
        #: Open spans, each ``[name, child_seconds]``.
        self.stack: List[list] = []
        #: name -> [count, total_seconds, self_seconds]
        self.totals: Dict[str, List[float]] = {}
        #: Wall seconds covered by this thread's root spans.
        self.root_s = 0.0
        #: Wall seconds this thread spent blocked (subset of root_s
        #: when the blocks happen inside a span).
        self.blocked_s = 0.0

    @property
    def active_s(self) -> float:
        """Seconds this thread ran inside spans, blocked time excluded."""
        return self.root_s - self.blocked_s


class Tracer:
    """Collects spans and counts; one instance per traced run.

    The engine lets one simulated thread run at a time and hands over
    through locks, so the shared counters below are never updated
    concurrently and need no lock of their own.
    """

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self._local = threading.local()
        self.threads: List[ThreadRecord] = []
        #: Free-form counters bumped by wrappers (advance fast/blocked).
        self.counts: Dict[str, int] = {}
        #: Engine actions dispatched so far; a process call during which
        #: this moved handed the CPU to the engine (see install()).
        self.actions = 0

    # ------------------------------------------------------------------

    def _record(self) -> ThreadRecord:
        rec = getattr(self._local, "rec", None)
        if rec is None:
            rec = ThreadRecord(
                threading.current_thread() is threading.main_thread())
            self._local.rec = rec
            self.threads.append(rec)
        return rec

    def _close(self, rec: ThreadRecord, name: str, dur: float,
               child: float) -> None:
        tot = rec.totals.get(name)
        if tot is None:
            tot = rec.totals[name] = [0, 0.0, 0.0]
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - child
        if rec.stack:
            rec.stack[-1][1] += dur
        else:
            rec.root_s += dur

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        clock = self.clock
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._record()
            frame = [name, 0.0]
            rec.stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                rec.stack.pop()
                tracer._close(rec, name, dur, frame[1])

        return traced

    def wrap_blocking(self, name: str, fn: Callable) -> Callable:
        """Wrap a call that may hand the CPU to other threads.

        ``self.actions`` moves only while the engine dispatches, and the
        engine dispatches only while this thread is parked, so a moved
        counter means the call blocked: it is recorded as a
        :data:`BLOCKED` child.  Otherwise it is a busy ``name`` span.
        """
        clock = self.clock
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n0 = tracer.actions
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                blocked = tracer.actions != n0
                tracer.bump(f"{name}.{'blocked' if blocked else 'fast'}")
                rec = tracer._record()
                if blocked:
                    rec.blocked_s += dur
                tracer._close(rec, BLOCKED if blocked else name, dur, 0.0)

        return traced

    def bump(self, key: str) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1

    # ------------------------------------------------------------------

    def merged(self) -> Dict[str, List[float]]:
        """name -> [count, total_s, self_s] over every thread."""
        out: Dict[str, List[float]] = {}
        for rec in self.threads:
            for name, (n, tot, slf) in rec.totals.items():
                acc = out.setdefault(name, [0, 0.0, 0.0])
                acc[0] += n
                acc[1] += tot
                acc[2] += slf
        return out

    def worker_active_s(self) -> float:
        """Seconds non-main threads ran inside spans (blocks excluded).

        Only one simulated thread runs at a time, so this is also how
        long the main thread sat waiting inside ``Engine.run``.
        """
        return sum(rec.active_s for rec in self.threads if not rec.main)

    def self_times(self, waiter: Optional[str] = None) -> Dict[str, float]:
        """Exclusive seconds per span name, blocked spans left out.

        ``waiter`` names the main-thread span that waits while worker
        threads run (``Engine.run``); the workers' active time is taken
        out of its self time so that no second is counted twice.
        """
        out = {name: slf for name, (_, _, slf) in self.merged().items()
               if name != BLOCKED}
        if waiter is not None and waiter in out:
            out[waiter] -= self.worker_active_s()
        return out


# ----------------------------------------------------------------------
# Installing wrappers around the program's public entry points.
# ----------------------------------------------------------------------


class Installed:
    """Handle for installed wrappers; ``restore()`` undoes them."""

    def __init__(self) -> None:
        self.missing: List[str] = []
        self._undo: List[Callable[[], None]] = []

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def _resolve(target: str):
    """``"pkg.mod:Class.attr"`` -> (owner, attr name, raw value)."""
    modname, _, path = target.partition(":")
    owner = importlib.import_module(modname)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    raw = owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)
    return owner, attr, raw


def _patch_function(inst: Installed, owner, attr: str, fn, wrapped) -> None:
    """Replace a module-level function in every module that bound it."""
    patched: List[Tuple[object, str]] = []
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "") or ""
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is fn:
                setattr(mod, key, wrapped)
                patched.append((mod, key))

    def undo() -> None:
        for mod, key in patched:
            setattr(mod, key, fn)
    inst._undo.append(undo)


def install(tracer: Tracer, entry_points, blocking=()) -> Installed:
    """Wrap each ``(span name, "module:Qual.name")`` entry point.

    ``blocking`` entries are wrapped with :meth:`Tracer.wrap_blocking`.
    Functions are replaced in every ``repro`` module that imported them;
    methods, classmethods and staticmethods are replaced on their class.
    """
    inst = Installed()
    for (name, target), is_blocking in (
            [(e, False) for e in entry_points]
            + [(e, True) for e in blocking]):
        try:
            owner, attr, raw = _resolve(target)
        except (ImportError, AttributeError, KeyError):
            inst.missing.append(target)
            continue
        make = tracer.wrap_blocking if is_blocking else tracer.wrap
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(make(name, raw.__func__))
        else:
            wrapped = make(name, raw)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            inst._undo.append(
                lambda o=owner, a=attr, r=raw: setattr(o, a, r))
        else:
            _patch_function(inst, owner, attr, raw, wrapped)
    return inst
