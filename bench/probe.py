"""Host-speed probe: a fixed piece of work, timed again and again during a run.

The shared machine the benchmark runs on changes speed by a fifth or more
over seconds to minutes, and CPU time drifts with it, so raw times of the
same op list from runs a few minutes apart differ by more than a regression
bound.  The probe measures that speed: `reference_work` uses only the
standard library (rational, big-integer and text arithmetic, the kinds of
work the package does), so no change to the package can change its cost.

The worker takes one sample after every op of bound-sweep and cli-requests,
outside the op's timing, and a burst of samples right after set-up.  run.py
scales each op of those workloads by `REFERENCE_MS / median` of the samples
taken around it (`scale_ops`), and every workload's set-up time by the
median of its burst: the time the work would have taken on a machine where
the probe takes `REFERENCE_MS`.  The raw times are printed and
kept beside the scaled ones.  verify-standard's times are not scaled: the
suite is one call with no op boundaries inside its 20-second scan, and its
big-integer work drifts less than the probe does (see NOTES.md).
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from fractions import Fraction

# About the probe's median on the 2-core container the baseline was measured
# on; scaled times read as seconds on a machine of that speed.
REFERENCE_MS = 1.2
# Samples taken right after set-up, which set-up time is scaled by.
SETUP_SAMPLES = 25
# An op is scaled by the samples of the ops up to this many places either
# side of it: about a second, so drift within a run is followed too.
WINDOW = 10
_MODULUS = (1 << 3200) - 189


def reference_work() -> int:
    """About 1.2 ms of fixed work; the result only keeps it from being skipped."""
    total = Fraction(0)
    for i in range(1, 90):
        total += Fraction((-1) ** i, i * i + 1)
    x = 3**2000 + 1
    for _ in range(25):
        x = x * x % _MODULUS
    text = json.dumps({"digits": str(total.denominator), "tail": [str(i) for i in range(60)]})
    return x.bit_length() + len(text) + len(sorted(text))


class Probe:
    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        # With the collector on, the sample would collect the garbage the
        # previous op left and be charged for it.
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_work()
        self.samples.append(time.perf_counter() - t0)
        if collecting:
            gc.enable()

    def median_ms(self) -> float:
        return statistics.median(self.samples) * 1000


def scale_ops(op_s: list[float], samples: list[float]) -> list[float]:
    """Op times at the reference speed; `samples[i]` was taken after op i."""
    reference_s = REFERENCE_MS / 1000
    return [
        seconds * reference_s / statistics.median(samples[max(0, i - WINDOW) : i + WINDOW + 1])
        for i, seconds in enumerate(op_s)
    ]


def setup_speed_ms() -> float:
    """Median of a burst of samples, the first two discarded as warm-up."""
    probe = Probe()
    for _ in range(SETUP_SAMPLES + 2):
        probe.sample()
    del probe.samples[:2]
    return probe.median_ms()
