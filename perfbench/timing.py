"""Timing adjusted for the host's speed at the moment of measurement.

On the shared 2-vCPU host this benchmark was written on, the speed of a
fixed pure-Python loop changes by 1.4-1.7x from one tenth of a second to
the next, and over phases of seconds to minutes: the same 0.1 s or 1 s of
tokenizing, repeated back to back for a minute, spread by 20-30% (IQR over
median) in raw wall time. So every timed step also times :func:`probe`, a
fixed routine that is the benchmark's own code and touches nothing of the
program, just before and just after the step, and is reported as

    adjusted = (wall - cpu) + cpu * REFERENCE_PROBE_S / probe

where ``cpu`` is the process CPU time the step used and ``probe`` the mean
of the two probes around it. Waiting (the stub's injected latency, disk) is
kept as measured; the CPU part is rescaled to a host on which the probe
takes ``REFERENCE_PROBE_S``. On that host, adjusting each step by its own
probes halved the spread of the repeated tokenizing above (to 12-14%),
where one probe median for a whole run left it unchanged. Raw wall times
are reported alongside.
"""

import gc
import time
from dataclasses import dataclass

REFERENCE_PROBE_S = 0.010
_PROBE_WORDS = [f"w{i % 997}x{i % 13}" for i in range(6500)]
_PROBE_ITEMS = 15000


def probe() -> float:
    """Seconds one fixed pass of string work and of object allocation takes.

    The first half splits, counts and sorts strings, the second builds and
    sorts small lists. Tokenizing and evaluating tracked the first kind of
    work on the host above, loading an index the second; their sum tracked
    all three about as well as either kind alone tracked its best match.
    The cycle collector is off meanwhile: the lists would trigger
    collections whose cost grows with the program's heap, not the host.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        counts = {}
        for word in " ".join(_PROBE_WORDS).split():
            counts[word] = counts.get(word, 0) + 1
        sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        sorted(([i, str(i)] for i in range(_PROBE_ITEMS)), key=lambda pair: pair[1])
        return time.perf_counter() - start
    finally:
        gc.enable()


@dataclass(frozen=True)
class Timing:
    wall: float
    cpu: float
    probe: float

    def adjusted(self) -> float:
        return self.wall - self.cpu + self.cpu * REFERENCE_PROBE_S / self.probe


def timed(thunk):
    """``(result, Timing)`` of ``thunk()``; garbage is collected beforehand.

    Collecting first means each step starts from a clean heap, as a fresh
    process would, and does not pay for the garbage of the step before.
    """
    gc.collect()
    before = probe()
    cpu, start = time.process_time(), time.perf_counter()
    result = thunk()
    wall = time.perf_counter() - start
    cpu = min(wall, time.process_time() - cpu)
    return result, Timing(wall, cpu, (before + probe()) / 2)
