"""Host speed, sampled on the benchmark's own CPU while a repetition runs.

On a shared virtual machine the host's speed drifts by a third and more
over seconds, for identical work and in CPU time as well as wall time,
so raw host seconds of two runs of the same code differ by more than any
useful bound.  A ``Speedometer`` thread in the benchmark's parent
process, bound to the same single CPU as the child it times, runs short
fixed reference kernels in turn every ``INTERVAL_S`` seconds and records
how long each took.  Two kernels stand for the two kinds of host work
the simulator does:

- ``interp``: pure-Python dict, list, attribute and call work;
- ``numpy``: small-array copies, compares and reductions, as in diffing.

Each is single-threaded and short, so it runs as soon as it wakes and
is not interleaved with the child's threads.

``scale(a, b)`` is the mean, over the kernels, of the nominal kernel
time over its mean measured time in the window ``[a, b]``.  Multiplying
a host time measured in that window by it gives the time the same work
would take on the nominal host.  The kernels do not use the program
under test, so a change to the program moves a scaled time exactly as
much as the raw one.  The samples take about 5% of the CPU, alike on
every run.

    python3 perfbench/speedometer.py        # kernel times on this host
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

#: Seconds between the end of one kernel sample and the start of the next.
INTERVAL_S = 0.01
#: Fewest samples of a kernel a window is averaged over; a shorter window
#: is widened to the samples nearest its middle.
MIN_SAMPLES = 5


class _Obj:
    __slots__ = ("x",)

    def __init__(self, x: int) -> None:
        self.x = x

    def step(self, y: int) -> int:
        return (self.x * y + 1) & 0xFFFF


def interp_kernel(trips: int = 1500) -> int:
    d = {}
    objs = [_Obj(i) for i in range(16)]
    acc = 0
    for i in range(trips):
        k = i & 63
        d[k] = d.get(k, 0) + objs[i & 15].step(i)
        acc ^= d[k]
    return acc


_PAGE = np.arange(256, dtype=np.uint8)


def numpy_kernel(trips: int = 60) -> int:
    acc = 0
    for i in range(trips):
        x = _PAGE.copy()
        x[i:i + 8] = 7
        acc += int(np.flatnonzero(x != _PAGE).size) + int(x[:32].sum())
    return acc


#: (name, kernel, its seconds on the nominal host).  The nominal times
#: are medians measured on a 2-vCPU Intel Xeon VM; they fix the scale of
#: every scaled time and must not change between commits.
KERNELS: Tuple[Tuple[str, Callable[[], object], float], ...] = (
    ("interp", interp_kernel, 0.0005),
    ("numpy", numpy_kernel, 0.00045),
)


class Speedometer:
    """Samples the ``KERNELS`` in turn on a daemon thread of this process."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[Tuple[float, float]]] = {
            name: [] for name, _, _ in KERNELS}      # (start, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop,
                                        name="speedometer", daemon=True)

    def __enter__(self) -> "Speedometer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        i = 0
        while not self._stop.wait(INTERVAL_S):
            name, fn, _ = KERNELS[i % len(KERNELS)]
            i += 1
            t0 = time.monotonic()
            fn()
            self.samples[name].append((t0, time.monotonic() - t0))

    def kernel_s(self, name: str, a: float, b: float) -> float:
        """Mean seconds of kernel ``name`` over its samples in [a, b]."""
        samples = list(self.samples[name])
        inside = [dt for t, dt in samples if a <= t <= b]
        if len(inside) < MIN_SAMPLES:
            mid = (a + b) / 2
            near = sorted(samples, key=lambda s: abs(s[0] - mid))
            inside = [dt for _, dt in near[:MIN_SAMPLES]]
        return statistics.fmean(inside) if inside else float("nan")

    def scale(self, a: float, b: float) -> float:
        """Factor taking host seconds in [a, b] to nominal-host seconds."""
        return statistics.fmean(nominal / self.kernel_s(name, a, b)
                                for name, _, nominal in KERNELS)


def main() -> int:
    out = {}
    for name, fn, nominal in KERNELS:
        times = []
        for _ in range(100):
            t0 = time.monotonic()
            fn()
            times.append(time.monotonic() - t0)
        out[name] = {"median_s": statistics.median(times),
                     "nominal_s": nominal}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
