"""A fixed kernel that tracks the speed of the machine the benchmark runs on.

The machine gives the benchmark a few vCPUs of a shared host, and their
speed changes by up to half within seconds.  ``probe_s`` times a kernel of
the benchmark's own, the mix the stages run: small numpy calls in a Python
loop, vector passes over a cache-sized array and plain interpreter work.
It is timed just before and just after each measured interval, and
``scaled`` turns the interval's wall time into seconds at the reference
speed, at which the kernel takes ``PROBE_REF_S``.  The program never runs
this code, so a change to the program moves the scaled times by its full
effect.
"""

from __future__ import annotations

import time

PROBE_REF_S = 0.1  # about probe_s() on the reference machine when it runs fast


def probe_s() -> float:
    import numpy as np

    small = np.arange(512, dtype=float)
    wide = np.arange(100_000, dtype=float)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(15_000):
        acc += float(np.sqrt(small * 0.5 + i)[i % 512])
    for _ in range(10):
        acc += float(np.sin(wide).sum())
    n = 0
    for i in range(500_000):
        n += i * i % 7
    return time.perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` of wall time, bracketed by the probe times ``before`` and
    ``after``, in seconds at the reference speed."""
    return seconds * PROBE_REF_S / ((before + after) / 2.0)
