"""Machine-speed calibration: the benchmark's timings in reference seconds.

The box the benchmark runs on is shared: the same code on the same input
runs up to 40% faster or slower from one few-second stretch to the next,
and the whole box drifts by 15-25% over half an hour. A run of a minute
cannot average that out, so wall time alone cannot tell two commits apart
by less than about 25%.

The gauge runs a fixed kernel next to every timed operation. The kernel is
the benchmark's own and uses numpy only, so no change to the program can
change its cost. It does the same kind of work as hse: a GRU cell on 16-
and 32-wide vectors, one numpy call per primitive, a Python object per
value and a closure per step, replayed backwards. It runs with the garbage
collector off, so that a collection of hse's garbage never lands in it.

An operation's wall time is scaled by the kernel's time around it:

    reference time = wall time * REFERENCE_KERNEL_MS / kernel time

REFERENCE_KERNEL_MS is the kernel's time on the 2-core x86_64 VM where the
benchmark was defined when that box runs fast; it only sets the scale, so
that reference times read close to fast wall times there. The raw wall
times are printed too.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

REFERENCE_KERNEL_MS = 6.0
STEPS = 200  # GRU steps per kernel call
WARMUP_CALLS = 3


class _Value:
    __slots__ = ("values", "grad")

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None


def _weights(seed: int = 0):
    rng = np.random.default_rng(seed)
    w = [_Value(rng.normal(0.0, 0.3, (32, 16))) for _ in range(3)]
    u = [_Value(rng.normal(0.0, 0.3, (32, 32))) for _ in range(3)]
    return w, u, rng.normal(0.0, 1.0, (STEPS, 16))


def kernel(w, u, xs) -> float:
    """A GRU forward pass over xs with a record per step, then the records
    replayed in reverse. Returns a checksum so that nothing is skipped."""
    h = _Value(np.zeros(32))
    records = []
    for x in xs:
        a = [w[i].values @ x + u[i].values @ h.values for i in range(3)]
        z = _Value(1.0 / (1.0 + np.exp(-a[0])))
        r = _Value(1.0 / (1.0 + np.exp(-a[1])))
        c = _Value(np.tanh(a[2] * r.values))
        out = _Value((1.0 - z.values) * h.values + z.values * c.values)
        records.append((out, lambda g, z=z, h=h: (g * (1.0 - z.values), np.outer(g, h.values))))
        h = out
    g = np.ones(32)
    total = 0.0
    for _, back in reversed(records):
        g, dw = back(g)
        total += float(dw.sum())
    return total


class SpeedGauge:
    """Kernel timings taken next to the timed operations."""

    def __init__(self):
        self._inputs = _weights()
        self.samples: list[float] = []  # seconds of each kernel call
        self.spent = 0.0  # their sum
        for _ in range(WARMUP_CALLS):
            kernel(*self._inputs)

    def sample(self) -> float:
        """Run the kernel once with the collector off; its seconds."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            kernel(*self._inputs)
            seconds = time.perf_counter() - started
        finally:
            if enabled:
                gc.enable()
        self.samples.append(seconds)
        self.spent += seconds
        return seconds

    def median_since(self, first: int) -> float:
        """Median kernel seconds of the samples from index first on."""
        return statistics.median(self.samples[first:])

    def to_reference(self, seconds: float, kernel_seconds: float) -> float:
        """Wall seconds at the reference speed, given the kernel's seconds
        at the time."""
        return seconds * (REFERENCE_KERNEL_MS / 1000.0) / kernel_seconds
