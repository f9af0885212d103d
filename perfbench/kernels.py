"""Host reference kernels: how fast this host runs the simulator's basics.

Each benchmark run records these next to its results so that a reader
can tell a host change from a code change.  They are context, not gated
metrics.  Run standalone (it prints one JSON object)::

    python3 perfbench/kernels.py
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

#: Blocked advances per process in the handoff ping-pong.
HANDOFF_ROUNDS = 4000
#: Pages in the fixed diff set, and how many times the set is encoded.
DIFF_PAGES = 256
DIFF_PASSES = 5
PAGE_BYTES = 1024
#: Fixed seed of the diff page set (independent of the workload seed).
DIFF_SEED = 20240


def handoff_us(rounds: int = HANDOFF_ROUNDS) -> float:
    """Host microseconds per blocked ``Process.advance`` on a fresh engine.

    Two processes advance in lock-step, offset by one time unit, so that
    every advance after the first finds the other's wake-up queued
    first and must hand the CPU over through the engine.
    """
    from repro.sim.engine import Engine

    eng = Engine()

    def main(proc):
        if proc.pid == 1:
            proc.advance(1.0)
        for _ in range(rounds):
            proc.advance(2.0)

    for pid in range(2):
        eng.add_process(f"P{pid}", main)
    t0 = time.perf_counter()
    eng.run()
    return (time.perf_counter() - t0) * 1e6 / (2 * rounds)


def diff_pages(seed: int = DIFF_SEED):
    """A fixed set of (twin, current) 1 KiB pages with scattered runs."""
    import numpy as np

    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(DIFF_PAGES):
        twin = rng.integers(0, 256, PAGE_BYTES, dtype=np.uint8)
        cur = twin.copy()
        for _ in range(int(rng.integers(1, 9))):
            lo = int(rng.integers(0, PAGE_BYTES - 64))
            n = int(rng.integers(8, 64))
            cur[lo:lo + n] = rng.integers(0, 256, n, dtype=np.uint8)
        pairs.append((twin, cur))
    return pairs


def diff_us_per_page():
    """Median (encode, apply) host microseconds per page over passes."""
    from repro.tm.diffs import apply_diff, make_diff

    pairs = diff_pages()
    enc, app = [], []
    for _ in range(DIFF_PASSES):
        t0 = time.perf_counter()
        diffs = [make_diff(i, 0, 1, twin, cur)
                 for i, (twin, cur) in enumerate(pairs)]
        t1 = time.perf_counter()
        targets = [twin.copy() for twin, _ in pairs]
        t1b = time.perf_counter()
        for d, target in zip(diffs, targets):
            apply_diff(d, target)
        t2 = time.perf_counter()
        for target, (_, cur) in zip(targets, pairs):
            if not (target == cur).all():
                raise AssertionError("apply_diff did not reproduce a page")
        enc.append((t1 - t0) * 1e6 / len(pairs))
        app.append((t2 - t1b) * 1e6 / len(pairs))
    return statistics.median(enc), statistics.median(app)


def host_facts() -> dict:
    import numpy

    model = platform.processor() or "?"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu_model": model, "nproc": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__}


def main() -> int:
    enc, app = diff_us_per_page()
    out = {"sim.handoff_us": handoff_us(),
           "tm.diff_encode_us_per_page": enc,
           "tm.diff_apply_us_per_page": app,
           "host": host_facts()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
