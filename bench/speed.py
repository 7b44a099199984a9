"""Machine-speed samples taken while the benchmark runs.

On a shared machine the speed of this process switches between a fast and
a slow state, about 1.9 times slower, within milliseconds, and the share of
slow time changes from second to second and from minute to minute.  A step
timed in CPU time therefore reads up to ~25 % slower in one run than in
the next, whatever the program does.

While a `Sampler` is running, a wall-clock timer signal every INTERVAL_S
runs a fixed piece of reference work (`reference_work`, the benchmark's own
code, not bicaut's) twice and records the CPU time of the second run.  The
first run brings the reference's code and data back into the caches, which
the program has evicted; timed cold, the reference slowed down more than
the program when other tenants were busy, and scaled times read up to a
fifth too fast in such a run.  The samples
fall evenly over the stretch they cover, so their mean slows down by about
the same share of slow time as the program timed over that stretch.
`factor()` is REF_NS over that mean: multiplying a step's CPU time by it
gives the step's time at a fixed reference speed, the speed at which one
sample takes REF_NS.  The time the handler spends is taken out of
`clock()`, so the samples do not count as program time.
"""
from __future__ import annotations

import gc
import random
import signal
import statistics
import time

# Wall-clock seconds between samples, and the nominal CPU time of one
# sample: about the mean of the samples on the shared 2-core x86-64 test
# machine (Python 3.11.7), so that scaled times read close to raw ones.
INTERVAL_S = 0.005
REF_NS = 57_000
# The fewest samples a factor is taken over, half a second's worth.
WINDOW = 100

_rng = random.Random(20210406)
# Parent array of a fixed random recursive tree with 28 vertices.
_TREES = [[_rng.randrange(v) if v else -1 for v in range(28)]]


def reference_work() -> int:
    """Canonical codes of a small rooted tree, AHU-style: lists,
    dicts, string joins and sorts, the same kind of work as bicaut's tree
    codes.  Fixed input, so its cost changes only with the machine."""
    total = 0
    for parent in _TREES:
        children: list[list[int]] = [[] for _ in parent]
        for v in range(1, len(parent)):
            children[parent[v]].append(v)
        code: dict[int, str] = {}
        for v in range(len(parent) - 1, -1, -1):
            code[v] = "(" + "".join(sorted(code[c] for c in children[v])) + ")"
        classes: dict[str, int] = {}
        for c in code.values():
            classes[c] = classes.get(c, 0) + 1
        total += len(classes)
    return total


class Sampler:
    """Takes reference samples between `start()` and `stop()`."""

    def __init__(self) -> None:
        self.samples: list[int] = []
        self.spent_ns = 0  # CPU time spent in the handler
        self._previous = None

    def _handler(self, signum, frame) -> None:
        t0 = time.process_time_ns()
        collecting = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not reference work
        reference_work()
        t1 = time.process_time_ns()
        reference_work()
        t2 = time.process_time_ns()
        if collecting:
            gc.enable()
        self.samples.append(t2 - t1)
        self.spent_ns += time.process_time_ns() - t0

    def clock(self) -> float:
        """CPU seconds of this process, less the time spent sampling."""
        return (time.process_time_ns() - self.spent_ns) / 1e9

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, since: int) -> float:
        """REF_NS over the mean of the samples taken since mark `since`,
        widened back to the last WINDOW samples if fewer were taken."""
        return REF_NS / statistics.fmean(self.samples[min(since, len(self.samples) - WINDOW):])
