"""How fast the machine ran, from a fixed reference loop.

The baselines come from a 2-core virtual machine shared with other tenants.
Its speed changes in CPU time as much as in wall time, in spells of a
fraction of a second and in phases of minutes in which the loop runs
about twice as fast or as slow, so no amount of repetition inside one run
averages it out. Timings are therefore divided by how much slower than
usual the machine ran while they were taken. The loop uses only the
standard library and does the kind of work the package does (small dicts,
sets and tuples, method calls), so a change to the package cannot move it.

``Probe`` runs a short cut of the loop in a process of its own every
``PROBE_PERIOD_S`` for the whole run, beside the work being timed, and
keeps each cut's wall time: how fast the machine served one more runnable
process at that moment, slow spells, time taken by other tenants and the
wait for a core included. A stretch of work is scaled by the median cut
in it. ``reference_seconds`` times the whole loop in CPU time, for work too
short to hold several cuts.

Run as a script, this module is that probe process: it times the loop
until its standard input closes, then prints its samples as JSON.
"""

from __future__ import annotations

import json
import select
import subprocess
import sys
from statistics import median
from time import perf_counter, process_time

REFERENCE_S = 0.0125
REFERENCE_LOOP = 48_000
PROBE_LOOP = 4_000  # one cut of the reference loop: 1.2 to 2.5 ms on the baseline machine
PROBE_PERIOD_S = 0.05  # the probe takes about 3% of one core
PROBE_REF_S = 0.00226  # median cut while the live cluster works, on the baseline machine


class _Slot:
    __slots__ = ("key", "hits")

    def __init__(self, key):
        self.key = key
        self.hits = 0

    def bump(self, n: int) -> int:
        self.hits += n
        return self.hits


def reference(n: int = REFERENCE_LOOP) -> int:
    slots = {}
    seen: frozenset = frozenset()
    total = 0
    for i in range(n):
        key = (i % 61, i % 7)
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = _Slot(key)
        total += slot.bump(i & 3)
        if i % 50 == 0:
            seen = seen | {i % 997}
    return total + len(seen)


def reference_seconds() -> float:
    """CPU seconds of one run of :func:`reference`."""
    t0 = process_time()
    reference()
    return process_time() - t0



class Probe:
    """The probe process, as a context manager that always stops it and waits for it.

    ``samples`` holds ``(start, wall seconds)`` of every cut once the probe
    has stopped; starts are ``perf_counter`` readings, which on Linux share
    one clock across processes.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE)
        if self._proc.stdout.readline() != b"ready\n":  # so the first window has cuts
            self._proc.kill()
            self._proc.wait()
            raise RuntimeError("the probe process did not start")

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc) -> None:
        try:
            out, _ = self._proc.communicate(timeout=10)  # closes stdin: the probe stops
            self.samples = [tuple(s) for s in json.loads(out)]
        finally:
            if self._proc.poll() is None:
                self._proc.kill()
            self._proc.wait()

    def slowdown(self, start: float, end: float, exponent: float = 1.0) -> float:
        """How much slower than ``PROBE_REF_S`` the cuts that started between ``start`` and ``end`` ran.

        The median cut over ``PROBE_REF_S``, to the power ``exponent``.
        """
        cuts = [w for t, w in self.samples if start <= t < end]
        return (median(cuts) / PROBE_REF_S) ** exponent


def _probe_main() -> None:
    samples = []
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], PROBE_PERIOD_S)[0]:
        t0 = perf_counter()
        reference(PROBE_LOOP)
        samples.append((t0, perf_counter() - t0))
    json.dump(samples, sys.stdout)


if __name__ == "__main__":
    _probe_main()
