"""Host-speed calibration: a fixed pure-Python kernel timed beside the program.

The benchmark runs on shared machines whose speed drifts, by up to 1.7x
over minutes on a 2-vCPU VM.  :func:`kernel` does a fixed amount of
interpreter work of the kinds the program does -- building tuples, hashing
them into dicts and sets, sorting -- and imports nothing from the program,
so its time follows the host's speed and no change to ``src/`` can move it.

A session times the kernel right after every op.  Each wall-clock figure
is divided by the kernel time measured around it and multiplied by
:data:`REFERENCE_S`, the kernel's time on the reference host, so it reads
as seconds on that host: the program's own wall clock with the host's
drift taken out.
"""

from __future__ import annotations

import gc
import statistics
import time

#: Rows the kernel builds; about 0.3 ms of work on the reference host.
SIZE = 400

#: The kernel's median time on the reference host (2-vCPU Intel Xeon VM,
#: CPython 3.11.7).  A constant, so calibrated figures compare across runs.
REFERENCE_S = 0.000280

#: Ops on each side of an op whose kernel times give its host speed.
WINDOW = 8


def kernel(size: int = SIZE) -> int:
    """Fixed work: group, sort and probe ``size`` synthetic rows."""
    rows = [(i, i * 7 % 101, f"k{i % 53}") for i in range(size)]
    index: dict[int, list[tuple]] = {}
    for row in rows:
        index.setdefault(row[1], []).append(row)
    total = 0
    for group in index.values():
        group.sort(key=lambda r: (r[2], -r[0]))
        total += len({r[2] for r in group})
    seen = set(rows[::3])
    return total + sum(1 for row in rows if row in seen)


#: The kernel's answer; checked on every timing so no run skips the work.
EXPECTED = kernel()


def timed() -> float:
    """Seconds one kernel run takes now.

    A first, untimed run brings the kernel's code and data back into the
    CPU caches the program's last op filled, so the time follows the host
    rather than how much memory the op touched.  The garbage collector is off meanwhile: a collection the kernel's
    allocations set off would scan the program's heap and charge its size
    to the host.  The kernel frees all it allocates, so it leaves the
    collector's counts as it found them.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel()
        start = time.perf_counter()
        total = kernel()
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if total != EXPECTED:
        raise AssertionError(f"calibration kernel returned {total}, not {EXPECTED}")
    return elapsed


def slowdowns(kernel_s: list[float], window: int = WINDOW) -> list[float]:
    """Per op, how much slower than the reference host the host ran.

    Op ``i``'s slowdown is the mean kernel time over ops ``i - window`` to
    ``i + window`` of its session, over :data:`REFERENCE_S`.  The window
    follows drift over seconds, and the mean keeps the stalls a busy host
    deals out, which lengthen kernel runs and ops alike.
    """
    last = len(kernel_s) - 1
    return [
        statistics.fmean(kernel_s[max(0, i - window) : min(last, i + window) + 1]) / REFERENCE_S
        for i in range(len(kernel_s))
    ]
