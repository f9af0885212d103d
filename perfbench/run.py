"""The repository benchmark: four pinned workloads, end to end and per layer.

Every measured repetition is a fresh child process (``child.py``) bound
to one CPU, because the simulator hands the CPU between one OS thread
per simulated processor and that handoff swings widely when the threads
may migrate between CPUs.  Children run one at a time.  Their host
seconds are scaled to a nominal host by the speed that a
``speedometer.Speedometer`` measures on the same CPU meanwhile.

    python3 perfbench/run.py                        # all workloads, a table
    python3 perfbench/run.py --workload tmk-fft3d --seed 1 --seconds 20
    python3 perfbench/run.py --workload locks-is --seed 1 --trace 1

``--trace 0`` starts ``SETUP_REPS`` set-up-only children, then repeats
the workload untraced (at least ``MIN_REPS`` times, then while another
repetition still fits into ``--seconds``) and reports the end-to-end
metrics: timings as medians over the repetitions.
``--trace 1`` runs it once traced and once untraced and reports the
per-layer metrics.  Every repetition is checked against the app's numpy
reference, and its deterministic counters must equal those of every
other run of the same code; a failed check is counted, not raised.  The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from math import nan
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from speedometer import Speedometer  # noqa: E402

#: Minimum measured repetitions per run, whatever ``--seconds`` says.
#: Cheaper workloads fit more repetitions into ``--seconds``.
MIN_REPS = 2
#: Set-up-only children started before the measured repetitions; they
#: add to the repetitions' set-up samples and warm the file cache.
SETUP_REPS = 5
#: A run must finish inside this many seconds, set-up included.
DEADLINE_S = 170.0
#: Where runs keep their state (counter ledger, span tables).
STATE_DIR = os.path.join(ROOT, ".perfbench")

#: (name, unit) of the end-to-end metrics, reported with --trace 0.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_time_us", "sim_us"),
    ("messages", "count"),
    ("data_bytes", "bytes"),
)

#: End-to-end metrics measured per repetition and reported as medians;
#: the others are deterministic counters.
TIMED = ("wall_s", "setup_s", "peak_rss_mb")

#: (name, unit) of the per-layer metrics, reported with --trace 1.
PER_LAYER = (
    ("sim.events", "count"), ("sim.switches", "count"),
    ("sim.advance_fastpath_ratio", "ratio"), ("sim.dispatch_s", "s"),
    ("sim.switch_s", "s"), ("sim.engine_s", "s"), ("sim.handoff_us", "us"),
    ("interp.stmts", "count"), ("interp.self_s", "s"),
    ("memory.section_calls", "count"), ("memory.section_s", "s"),
    ("rt.validate_calls", "count"), ("rt.push_calls", "count"),
    ("rt.self_s", "s"),
    ("tm.accesses", "count"), ("tm.read_faults", "count"),
    ("tm.write_faults", "count"), ("tm.twins", "count"),
    ("tm.diffs_created", "count"), ("tm.diffs_applied", "count"),
    ("tm.diff_bytes", "bytes"), ("tm.page_fetches", "count"),
    ("tm.home_migrations", "count"), ("tm.lock_acquires", "count"),
    ("tm.access_s", "s"), ("tm.diff_encode_s", "s"),
    ("tm.diff_apply_s", "s"), ("tm.serve_s", "s"),
    ("tm.barrier_wait_us", "sim_us"), ("tm.lock_wait_us", "sim_us"),
    ("tm.fetch_wait_us", "sim_us"),
    ("tm.diff_encode_us_per_page", "us"), ("tm.diff_apply_us_per_page", "us"),
    ("tm.onesided_lock_fast_ratio", "ratio"),
    ("tm.onesided_fallbacks", "count"),
    ("net.deliver_s", "s"), ("net.rdma_s", "s"),
    ("net.onesided_ops", "count"), ("net.onesided_batches", "count"),
    ("net.cas_failures", "count"), ("net.retransmits", "count"),
    ("net.acks", "count"), ("net.dup_frames_discarded", "count"),
    ("net.faults_injected", "count"),
    ("compiler.transform_s", "s"), ("apps.build_s", "s"),
    ("setup.import_s", "s"),
    ("telemetry.events", "count"), ("telemetry.emit_s", "s"),
    ("telemetry.trace_overhead_pct", "%"),
    ("sanitizer.feed_s", "s"), ("sanitizer.bytes_checked", "bytes"),
    ("sanitizer.findings", "count"),
    ("inspect.build_s", "s"), ("inspect.critpath_s", "s"),
    ("inspect.reconcile_s", "s"), ("inspect.violations", "count"),
    ("recovery.log_messages", "count"), ("recovery.log_bytes", "bytes"),
    ("recovery.sim_us", "sim_us"),
    ("unattributed_s", "s"),
    ("host.wall_s", "s"), ("host.setup_s", "s"), ("host.speed_scale", "ratio"),
)


# ----------------------------------------------------------------------
# Child processes.
# ----------------------------------------------------------------------


def pin_to_one_cpu() -> int:
    """Bind this process (and so every child) to one allowed CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_child(argv: List[str], timeout: float) -> Tuple[Optional[dict], str]:
    """Run a child script; return (its last-line JSON, error text)."""
    try:
        proc = subprocess.run([sys.executable] + argv, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, (f"exit code {proc.returncode}: "
                      f"{proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(lines[-1]), ""
    except json.JSONDecodeError:
        return None, f"unparsable output: {lines[-1][:200]}"


def run_rep(workload: str, seed: int, trace: int, timeout: float,
            speed: Speedometer, spans_out: Optional[str] = None,
            setup_only: bool = False) -> dict:
    """One repetition in a fresh child; failures come back as data.

    ``wall_s`` and ``setup_s`` come back scaled to the nominal host by
    the speedometer's samples in their own windows; the child's raw
    figures are kept as ``host_wall_s`` and ``host_setup_s``.
    """
    t_spawn = time.monotonic()
    argv = [os.path.join(HERE, "child.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace),
            "--t-spawn", repr(t_spawn)]
    if spans_out:
        argv += ["--spans-out", spans_out]
    if setup_only:
        argv.append("--setup-only")
    res, err = run_child(argv, timeout)
    if res is None:
        return {"ok": False, "errors": [err]}
    if "t_enter" in res:
        res["host_setup_s"] = res["setup_s"]
        res["setup_s"] *= speed.scale(t_spawn, res["t_enter"])
    if "t_end" in res:
        res["host_wall_s"] = res["wall_s"]
        res["speed_scale"] = speed.scale(res["t_enter"], res["t_end"])
        res["wall_s"] *= res["speed_scale"]
    return res


# ----------------------------------------------------------------------
# Determinism ledger: counters must repeat exactly across runs of a commit.
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def code_hash() -> str:
    """Content hash of the program and the benchmark (one per commit)."""
    h = hashlib.sha256()
    for base in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, files in sorted(os.walk(base)):
            dirnames.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


class Ledger:
    """First-seen counters per (commit, workload[, seed]), kept on disk."""

    def __init__(self, path: str, key: str) -> None:
        self.path = path
        self.key = key
        try:
            with open(path) as fh:
                self.data = json.load(fh)
        except (OSError, ValueError):
            self.data = {}

    def check(self, counters: Dict[str, float],
              key: Optional[str] = None) -> List[str]:
        """Differences from the counters recorded under ``key`` (default:
        the ledger's own); records new ones."""
        known = self.data.setdefault(key or self.key, {})
        drift = [f"{k}: {known[k]!r} != {v!r}"
                 for k, v in sorted(counters.items())
                 if k in known and known[k] != v]
        for k, v in counters.items():
            known.setdefault(k, v)
        return drift

    def save(self) -> None:
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.data, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


def ledger_key(workload: str, seed: int) -> str:
    key = f"{code_hash()}/{workload}"
    if wl.WORKLOADS[workload].verify:
        key += f"/seed={seed}"     # the seed drives the fault schedule
    return key


def ledger_for(workload: str, seed: int) -> Ledger:
    return Ledger(os.path.join(STATE_DIR, "counters.json"),
                  ledger_key(workload, seed))


def check_rep(rep: dict, ledger: Ledger, key: Optional[str] = None) -> None:
    """Fold counter drift into the repetition's errors."""
    if "counters" not in rep:
        return
    counters = dict(rep.get("counters", {}))
    counters.update(rep.get("traced_counters", {}))
    drift = ledger.check(counters, key)
    if drift:
        rep["ok"] = False
        rep.setdefault("errors", []).append(
            "counter drift: " + "; ".join(drift[:5]))


# ----------------------------------------------------------------------
# One workload.
# ----------------------------------------------------------------------


def status(rep: dict) -> str:
    if rep.get("ok"):
        return "ok"
    return "FAILED " + " | ".join(rep.get("errors", []))[:400]


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(workload: str, seed: int, seconds: float, t_start: float,
            speed: Speedometer, out=print) -> dict:
    """--trace 0: repeat untraced; medians of the end-to-end metrics."""
    ledger = ledger_for(workload, seed)
    setups = []
    for _ in range(SETUP_REPS):
        rep = run_rep(workload, seed, 0,
                      DEADLINE_S - (time.monotonic() - t_start), speed,
                      setup_only=True)
        setups.append(rep)
        out(f"  set-up: setup_s={rep.get('setup_s', nan):.4f} "
            f"(host {rep.get('host_setup_s', nan):.4f} s) {status(rep)}")
    reps: List[dict] = []
    durations: List[float] = []
    while True:
        elapsed = time.monotonic() - t_start
        # Start another repetition only if a typical one still ends
        # inside --seconds, so that a run lasts --seconds, not up to one
        # repetition more.
        if len(reps) >= MIN_REPS and elapsed + median(durations) > seconds:
            break
        if durations and elapsed + 1.5 * max(durations) > DEADLINE_S:
            break
        t0 = time.monotonic()
        rep_seed = wl.rep_seed(seed, len(reps))
        rep = run_rep(workload, rep_seed, 0, DEADLINE_S - elapsed, speed)
        durations.append(time.monotonic() - t0)
        check_rep(rep, ledger, ledger_key(workload, rep_seed))
        reps.append(rep)
        out(f"  rep {len(reps)}: wall_s={rep.get('wall_s', nan):.4f} "
            f"setup_s={rep.get('setup_s', nan):.4f} "
            f"(host {rep.get('host_wall_s', nan):.4f} / "
            f"{rep.get('host_setup_s', nan):.4f} s, "
            f"scale {rep.get('speed_scale', nan):.4f}) {status(rep)}")
    ledger.save()
    good = [r for r in reps if r.get("ok")] or \
        [r for r in reps if "wall_s" in r]
    good_setups = [r for r in setups if r.get("ok")] + good
    metrics = {}
    for name, unit in END_TO_END:
        if name == "setup_s":
            metrics[name] = {"value": median([r[name] for r in good_setups]),
                             "unit": unit}
        elif name in TIMED:
            metrics[name] = {"value": median([r[name] for r in good]),
                             "unit": unit}
        elif good:
            # Deterministic per input: every good repetition reads the
            # same, except where the repetitions' fault schedules differ.
            metrics[name] = {"value": median([r["counters"][name]
                                              for r in good]),
                             "unit": unit}
    failed = sum(1 for r in setups + reps if not r.get("ok"))
    return {"reps": reps, "setups": setups, "metrics": metrics,
            "attempted": len(setups) + len(reps), "failed": failed}


def trace(workload: str, seed: int, t_start: float, host: dict,
          speed: Speedometer, out=print) -> dict:
    """--trace 1: one traced and one untraced run; per-layer metrics."""
    seed = wl.rep_seed(seed, 0)
    ledger = ledger_for(workload, seed)
    os.makedirs(STATE_DIR, exist_ok=True)
    spans_out = os.path.join(STATE_DIR, f"spans-{workload}-{seed}.json")
    traced = run_rep(workload, seed, 1,
                     DEADLINE_S - (time.monotonic() - t_start), speed,
                     spans_out=spans_out)
    check_rep(traced, ledger)
    plain = run_rep(workload, seed, 0,
                    DEADLINE_S - (time.monotonic() - t_start), speed)
    check_rep(plain, ledger)
    ledger.save()
    reps = [traced, plain]
    out(f"  traced: {status(traced)}")
    out(f"  untraced: {status(plain)}")
    layers = dict(traced.get("counters", {}))
    layers.update(traced.get("layers", {}))
    for k, v in host.items():
        if k != "host":
            layers[k] = v
    for k in ("host_wall_s", "host_setup_s", "speed_scale"):
        if k in plain:
            layers["host." + k.replace("host_", "")] = plain[k]
    if "wall_s" in traced and plain.get("wall_s"):
        layers["telemetry.trace_overhead_pct"] = \
            100.0 * (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"]
    if traced.get("missing_entry_points"):
        out("  entry points not found (metrics absent): "
            + ", ".join(traced["missing_entry_points"]))
    metrics = {name: {"value": layers[name], "unit": unit}
               for name, unit in PER_LAYER if name in layers}
    failed = sum(1 for r in reps if not r.get("ok"))
    return {"reps": reps, "metrics": metrics, "attempted": len(reps),
            "failed": failed}


def fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def run_workload(workload: str, seed: int, seconds: float, trace_on: int,
                 out=print) -> dict:
    t_start = time.monotonic()
    cpu = pin_to_one_cpu()
    host, err = run_child([os.path.join(HERE, "kernels.py")], 60.0)
    host = host or {}
    out(f"perfbench {workload} seed={seed} trace={trace_on} cpu={cpu}")
    if err:
        out(f"  host kernels failed: {err}")
    facts = host.get("host", {})
    out("  host: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    out("  reference kernels: " + ", ".join(
        f"{k}={fmt(v)}" for k, v in host.items() if k != "host"))
    with Speedometer() as speed:
        if trace_on:
            res = trace(workload, seed, t_start, host, speed, out)
        else:
            res = measure(workload, seed, seconds, t_start, speed, out)
    n = res["attempted"]
    good = [r for r in res["reps"] if r.get("ok")]
    for name, m in res["metrics"].items():
        spread = ""
        if not trace_on and name in TIMED:
            vals = [r[name] for r in good + res.get("setups", [])
                    if r.get("ok") and name in r]
            if vals:
                spread = (f"  median of {len(vals)} runs, "
                          f"{fmt(min(vals))}..{fmt(max(vals))}")
        out(f"  {name:<32} {fmt(m['value']):>14} {m['unit']}{spread}")
    out(f"  {'error_rate':<32} {fmt(res['failed'] / n):>14} "
        f"({res['failed']}/{n} runs failed)")
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Run the repository benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS),
                    help="one workload; default: all, one after another")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Exit through SystemExit on SIGTERM, so that the running child is
    # killed and waited for (subprocess.run does both on any exception).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {ROOT}/src/repro is "
              "missing", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(wl.WORKLOADS)
    results = {name: run_workload(name, args.seed, args.seconds,
                                  args.trace) for name in names}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.workload:
        metrics = results[args.workload]["metrics"]
    else:
        metrics = {f"{name}/{k}": m for name, r in results.items()
                   for k, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
