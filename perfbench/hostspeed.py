"""The host's speed, sampled from inside the measured thread.

On a shared virtual machine the same code runs at speeds up to 1.7x apart,
switching every second or so, and process CPU time slows down with wall
time, so neither separates a slower program from a slower host. While a
``HostSpeed`` is entered, a timer signal runs a short fixed computation,
``kernel()``, every ``INTERVAL_S`` seconds in the measured thread itself,
so it runs at whatever speed the measured code runs at that moment. Each
timed region is then reported scaled to a nominal host speed::

    scaled seconds = measured seconds * REF_S / mean kernel seconds in the region

Every region is read on ``clock()``, which leaves out the time spent in
the kernel, so sampling adds nothing to what is measured. The kernel mixes
the kinds of work the package does (number parsing and formatting, a
loop over floats, sorting and searching) and never calls the
package, so a change to the package cannot move it.
"""

from __future__ import annotations

import bisect
import itertools
import signal
import statistics
import time

# Mean kernel seconds in a region on the 2-vCPU Xeon VM the baseline was
# taken on, so that scaled seconds read close to seconds there.
REF_S = 0.0027
INTERVAL_S = 0.05

_VALUES = [(i * 2654435761 % 2**32) / 2**32 for i in range(4_000)]
_TEXT = [repr(v) for v in _VALUES[:2_000]]


def kernel() -> None:
    """The fixed reference computation, about 2-3 ms; pure Python, so that
    sampling can start before numpy is imported."""
    parsed = [float(t) for t in _TEXT]
    sums: dict[int, float] = {}
    for i, v in enumerate(parsed):
        sums[i & 255] = sums.get(i & 255, 0.0) + v
    text = ",".join(f"{v:.6f}" for v in parsed[:700])
    cumulative = list(itertools.accumulate(sorted(_VALUES)))
    edges = [bisect.bisect_left(cumulative, x) for x in range(0, 2_000, 10)]
    if len(sums) != 256 or not text or edges[-1] <= 0:
        raise AssertionError("reference computation went wrong")


class HostSpeed:
    """Kernel timings taken every ``interval`` seconds while entered.

    Time a region as::

        mark = speed.mark()
        start = speed.clock()
        ...
        seconds = speed.clock() - start
        scaled = seconds * speed.scale(mark)
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self.sampling_s = 0.0
        self._busy = False
        self._previous = None

    def clock(self) -> float:
        """``perf_counter`` less the time spent in the kernel so far."""
        return time.perf_counter() - self.sampling_s

    def sample(self) -> None:
        if self._busy:  # a timer signal arrived during an explicit sample
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        self.sampling_s += seconds
        self._busy = False

    def mark(self) -> int:
        """Sample once and return where the next region's samples start."""
        self.sample()
        return len(self.samples) - 1

    def scale(self, mark: int) -> float:
        """Sample once more; ``REF_S`` over the mean kernel time since ``mark``."""
        self.sample()
        return REF_S / statistics.fmean(self.samples[mark:])

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
