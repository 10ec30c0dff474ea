"""The host's current speed, sampled beside and inside every timed item.

On a shared virtual machine the CPU's speed can drift by up to 1.5x from one
minute to the next (measured on a 2-core Xeon VM), and raw timings drift
with it.  So every item's time is also reported in "ref": multiples of the
time a fixed reference loop takes while that item runs.  The loop uses none of the package, so a change to the
package moves only the numerator.
"""
from __future__ import annotations

import gc
import signal
import statistics
import time
from contextlib import contextmanager

# While an item runs, the reference loop runs on a timer signal this often;
# at ~8 ms a sample that costs about 4% of the item's time, which the
# probe subtracts from it.
TICK_S = 0.2


def reference_work() -> int:
    """A fixed pure-Python join: tuples, a dict index and nested loops."""
    rows = [(i % 97, i % 89, i) for i in range(6000)]
    index: dict[tuple[int, int], list[int]] = {}
    for a, b, c in rows:
        index.setdefault((a, b % 7), []).append(c)
    hits = 0
    for a, b, c in rows:
        for other in index.get((b % 97, a % 7), ()):
            if (other ^ c) & 3 == 0:
                hits += 1
    return hits


class SpeedProbe:
    """Times the reference loop once before and once after each item and,
    with `ticking`, on a timer signal while the item runs."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, *_signal_args) -> None:
        # The collector is off so the loop never pays for scanning the
        # objects the workload keeps alive.
        gc.disable()
        try:
            start = time.perf_counter()
            reference_work()
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
        self.samples.append(elapsed)
        self.spent += elapsed

    @contextmanager
    def item(self, ticking: bool):
        """Yield a dict that gets the item's `seconds` (probe time removed)
        and `ref_s`, the mean reference time from just before to just after."""
        if not self.samples:
            self.sample()
        first, spent = len(self.samples) - 1, self.spent
        timing: dict[str, float] = {}
        if ticking:
            previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        start = time.perf_counter()
        try:
            yield timing
        finally:
            if ticking:
                # Disarm before reading the clock, so no tick lands between.
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            elapsed = time.perf_counter() - start
            timing["seconds"] = elapsed - (self.spent - spent)
            self.sample()
            timing["ref_s"] = statistics.mean(self.samples[first:])
