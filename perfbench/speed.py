"""Machine-speed probe: the correction that keeps library timings comparable.

The reference machine is a 2-vCPU slice of a shared host whose speed drifts
by up to 1.8x over seconds to minutes (a pure-Python loop drifts the same
way), so raw compile throughput of one run differs from the next by more than
any bound worth keeping, however long the run.  The benchmark therefore times
a fixed probe, owned by the benchmark and never calling the program, right
before and right after every timed call, and reports CPU-bound figures at the
reference speed::

    corrected seconds = measured seconds / slowdown

where ``slowdown`` is the probes' time over their reference time, each probe
pair weighted by the duration of the call between them.  A change to the
program moves the measured seconds and not the probe, so the corrected figure
moves by the same ratio as the raw one; the raw figures are printed next to
it.

The probe has two parts, combined as a geometric mean: interpreter-bound work
(GF(2) row elimination on Python ints, dict and set updates, small numpy ops)
and passes over an array larger than a core's L2 cache, since the shared host
slows both but not equally.  Which part tracks a compile best differs between
workloads, so neither is favoured.  See README.md for the measurements.
"""

from __future__ import annotations

import gc
import math
import random
import time

import numpy as np

#: Reference seconds of the two probe parts: about their medians on the
#: reference machine (2-vCPU Intel Xeon at 2.1 GHz, 2 MiB L2 per core,
#: Python 3.11, numpy 2.4), so a slowdown of 1 is that machine in a usual
#: state.
REFERENCE_INTERPRETER_S = 0.0060
REFERENCE_MEMORY_S = 0.0044
INTERPRETER_ROUNDS = 4
MEMORY_PASSES = 16
#: 6 MiB, three times a core's L2 cache.
_ARRAY = np.ones(6 << 20, dtype=np.uint8).view(np.uint64)


def _interpreter_round() -> int:
    rng = random.Random(7)
    rows = [rng.getrandbits(64) for _ in range(64)]
    weights = {}
    for r in range(64):
        pivot = rows[r]
        low = pivot & -pivot
        for j in range(r + 1, 64):
            if rows[j] & low:
                rows[j] ^= pivot
        weights[r] = bin(rows[r]).count("1")
    seen = set()
    for i in range(3000):
        seen.add((i * 7919) % 1009)
        if i % 3 == 0:
            seen.discard((i * 31) % 1009)
    array = np.arange(64, dtype=np.uint64)
    for _ in range(150):
        array = (array * 3 + 1) & 0xFFFF
    return len(weights) + len(seen) + int(array.sum())


def probe() -> float:
    """The machine's slowdown now against the reference (1 = reference
    speed, 1.3 = 30% slower)."""
    interpreter, memory = probe_parts()
    return math.sqrt(interpreter * memory)


def probe_parts() -> tuple[float, float]:
    """The slowdown of each probe part.  Garbage collection is off while
    they run, so the program's heap does not enter the figures."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(INTERPRETER_ROUNDS):
            _interpreter_round()
        middle = time.perf_counter()
        for _ in range(MEMORY_PASSES):
            np.bitwise_xor.reduce(_ARRAY)
        end = time.perf_counter()
    finally:
        if enabled:
            gc.enable()
    return (middle - start) / REFERENCE_INTERPRETER_S, (end - middle) / REFERENCE_MEMORY_S


class SpeedLog:
    """Probe pairs around timed calls, weighted by the calls' durations.

    A long call gets longer probes (about ``PROBE_SHARE`` of its last
    duration on each side, in whole probes), so the few probes around a
    multi-second call are not dominated by the probe's own jitter.
    """

    PROBE_SHARE = 0.015

    def __init__(self) -> None:
        self.weighted = [0.0, 0.0]
        self.weight = 0.0
        self.probes = 0
        self.last: dict[object, float] = {}

    def probe(self, key) -> tuple[float, float]:
        """The slowdown of each part now, probed as long as call ``key`` warrants."""
        repeats = max(1, round(self.last.get(key, 0.0) * self.PROBE_SHARE
                               / (REFERENCE_INTERPRETER_S + REFERENCE_MEMORY_S)))
        parts = [probe_parts() for _ in range(repeats)]
        return (sum(p[0] for p in parts) / repeats, sum(p[1] for p in parts) / repeats)

    def add(self, key, before, after, elapsed: float) -> None:
        """Record the probes taken just before and just after timed call ``key``."""
        self.probes += 2
        for part in (0, 1):
            self.weighted[part] += elapsed * (before[part] + after[part]) / 2.0
        self.weight += elapsed
        self.last[key] = elapsed

    def parts(self) -> tuple[float, float]:
        """Duration-weighted mean slowdown of each probe part."""
        if self.weight <= 0:
            raise ValueError("no timed call was probed")
        return (self.weighted[0] / self.weight, self.weighted[1] / self.weight)

    def slowdown(self) -> float:
        """Above 1 when the machine ran slower than the reference."""
        interpreter, memory = self.parts()
        return math.sqrt(interpreter * memory)
