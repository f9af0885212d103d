"""Perf history store and the baseline regression gate.

Two artifacts live under ``benchmarks/perf/``:

* ``history.jsonl`` — append-only log, one JSON record per recorded
  ``python -m repro perf`` run (the full payload).  Local tooling can
  plot trends from it; it is never used for gating.
* ``BENCH_pr7.json`` — the committed baseline payload the CI gate
  compares against.

Comparison policy (documented in ``docs/observability.md``):

* **Deterministic counts** — ``sim_time_us``, ``events``, ``accesses``,
  ``messages``, ``stmts`` — must match the baseline *exactly*.  They are
  functions of the simulation alone; any drift is a behavior change,
  not noise.
* **Wall-clock rates** — ``events_per_sec``, ``accesses_per_sec`` — get
  a generous noise band: a run fails only when a rate falls below
  ``(1 - tolerance)`` of the baseline (default tolerance
  :data:`DEFAULT_TOLERANCE`, i.e. a >60% drop).  The band is wide on
  purpose: shared CI runners jitter by integer factors, and the gate
  exists to catch order-of-magnitude regressions (an accidentally
  quadratic loop, a hot path growing an allocation), not single-digit
  percent drift.  Improvements never fail.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.harness.schema import check_schema

#: Allowed fractional drop in wall-clock rates before the gate fails.
DEFAULT_TOLERANCE = 0.6

#: Per-app fields that are functions of the simulation alone.
EXACT_FIELDS = ("sim_time_us", "events", "accesses", "messages", "stmts")

#: Per-app wall-clock rates, gated with the noise band.
RATE_FIELDS = ("events_per_sec", "accesses_per_sec")


def append_history(payload: dict, path: str) -> None:
    """Append one perf payload as a single JSONL record."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "a") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")


def load_history(path: str) -> List[dict]:
    """All recorded perf payloads, oldest first."""
    out: List[dict] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


def write_baseline(payload: dict, path: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_baseline(path: str) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    check_schema(payload, "perf")
    return payload


@dataclass
class CompareResult:
    """Outcome of gating one perf payload against a baseline."""

    tolerance: float
    #: Hard failures: deterministic drift or a rate below the band.
    regressions: List[str] = field(default_factory=list)
    #: Informational: rates meaningfully above baseline.
    improvements: List[str] = field(default_factory=list)
    checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        lines = [f"perf gate: {self.checked} apps checked, "
                 f"tolerance {self.tolerance:.0%} "
                 f"({'OK' if self.ok else 'REGRESSED'})"]
        lines.extend(f"  REGRESSION {r}" for r in self.regressions)
        lines.extend(f"  improved   {i}" for i in self.improvements)
        return "\n".join(lines)


def compare(current: dict, baseline: dict,
            tolerance: float = DEFAULT_TOLERANCE,
            apps: Optional[Sequence[str]] = None) -> CompareResult:
    """Gate ``current`` against ``baseline`` per the policy above.

    ``apps`` restricts the gate to the selected baseline apps (a
    ``perf --apps`` subset run); by default every baseline app must be
    present in ``current``.
    """
    if not 0.0 < tolerance < 1.0:
        raise ReproError(
            f"tolerance must be a fraction in (0, 1), got {tolerance}")
    check_schema(current, "perf")
    check_schema(baseline, "perf")
    res = CompareResult(tolerance=tolerance)
    for key in ("dataset", "nprocs", "page_size"):
        if current.get(key) != baseline.get(key):
            res.regressions.append(
                f"config {key}: current={current.get(key)!r} "
                f"baseline={baseline.get(key)!r} (not comparable)")
    if res.regressions:
        return res
    base_apps: Dict[str, dict] = baseline.get("apps", {})
    cur_apps: Dict[str, dict] = current.get("apps", {})
    for name in sorted(base_apps):
        if apps and name not in apps:
            continue
        base = base_apps[name]
        cur = cur_apps.get(name)
        if cur is None:
            res.regressions.append(f"{name}: missing from current run")
            continue
        res.checked += 1
        for fld in EXACT_FIELDS:
            if cur.get(fld) != base.get(fld):
                res.regressions.append(
                    f"{name}.{fld}: {cur.get(fld)} != baseline "
                    f"{base.get(fld)} (deterministic field; exact "
                    f"match required)")
        for fld in RATE_FIELDS:
            b = base.get(fld)
            c = cur.get(fld)
            if not b or c is None:
                continue
            floor = b * (1.0 - tolerance)
            if c < floor:
                res.regressions.append(
                    f"{name}.{fld}: {c:,.0f}/s is below "
                    f"{floor:,.0f}/s (baseline {b:,.0f}/s - "
                    f"{tolerance:.0%} band)")
            elif c > b * (1.0 + tolerance):
                res.improvements.append(
                    f"{name}.{fld}: {c:,.0f}/s vs baseline {b:,.0f}/s")
    return res


__all__ = ["DEFAULT_TOLERANCE", "EXACT_FIELDS", "RATE_FIELDS",
           "CompareResult", "append_history", "load_history",
           "write_baseline", "load_baseline", "compare"]
