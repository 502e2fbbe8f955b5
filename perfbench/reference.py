"""A fixed pure-Python loop that gauges how fast the machine runs right now.

The benchmark runs on a shared host whose speed drifts by up to 2× within
minutes and differs between its cores. ``launch.py`` times this loop in
each CLI process: ``PRE_LOOPS`` times right after ``rfim1d.cli`` is
imported, and then once every ``PERIOD_S`` seconds from a sampler thread
while ``main`` runs, on the same core and at the same moments as the work.
``run.py`` scales each measured time by ``speed_factor``: a time in
seconds at the speed at which one loop takes ``REFERENCE_S``. The loop is
the benchmark's own code and never calls rfim1d.
"""

import gc
import statistics
import threading
import time
from typing import List

REFERENCE_S = 0.002  # nominal time of one loop; it took 1.0-2.3 ms on a 2.1 GHz Xeon
PRE_LOOPS = 20  # loops timed after the import, for the set-up time
PERIOD_S = 0.1  # interval of the loops timed while main runs
TRIM = 0.1  # share of the slowest loops dropped: those a collection or a GIL hand-over hit


def _loop() -> float:
    """Dict, set, tuple, sort and float work, like the contour code's."""
    acc = 0.0
    counts = {}
    kept = set()
    for a, b in sorted(((i * 7919) % 2003, i % 17) for i in range(1500)):
        key = (a >> 2, b)
        counts[key] = counts.get(key, 0) + 1
        if a & 3:
            kept.add(key)
        acc += a * 0.5 - b
    return acc + len(frozenset(kept) & set(counts))


def time_loop() -> float:
    t = time.perf_counter()
    _loop()
    return time.perf_counter() - t


def measure(loops: int = PRE_LOOPS) -> List[float]:
    """Times of ``loops`` loops, with the garbage collector off so that
    the program's heap does not add collections to the loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return [time_loop() for _ in range(loops)]
    finally:
        if enabled:
            gc.enable()


class Sampler(threading.Thread):
    """Times one loop every ``PERIOD_S`` seconds until ``stop`` is called.
    Each loop holds the interpreter lock for about 2 ms, so the program
    runs about 2% slower, the same on every commit."""

    def __init__(self):
        super().__init__(daemon=True)
        self.times: List[float] = []
        self._halt = threading.Event()

    def run(self):
        while not self._halt.wait(PERIOD_S):
            self.times.append(time_loop())

    def stop(self) -> List[float]:
        self._halt.set()
        self.join()
        return self.times


def speed_factor(times: List[float]) -> float:
    """Factor that scales a time measured alongside ``times`` to the nominal
    speed: ``REFERENCE_S`` times the mean speed (1/time) of the loops, after
    dropping the slowest ``TRIM`` of them."""
    kept = sorted(times)[:len(times) - int(TRIM * len(times))]
    return REFERENCE_S * statistics.fmean(1.0 / t for t in kept)
