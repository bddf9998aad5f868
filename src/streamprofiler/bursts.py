"""Burst segmentation and rule-based burst classification for one flow.

Packets whose inter-arrival gap stays below a threshold belong to the same
burst. Per-burst size, duration, and rate feed a static rule set: long
bursts at near-reference rate indicate buffer filling, short ones the
paced steady-state request pattern, everything else is unclassified.
A run of consecutive steady bursts of minimum length confirms a
steady-state phase candidate.

Bursts are held as a list of ``Burst`` records ``(t_start, t_end, size,
klass)`` of Python floats and ints, in time order; a burst's number is its
position plus one. ``segment`` builds them once from arrays; ``burst_rate``
is the only code that computes a burst's rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby, repeat
from typing import NamedTuple

import numpy as np

from .trace import FILLING, STEADY, check_int, check_positive, check_times

KLASS_FILLING = 1
KLASS_STEADY = -1
KLASS_NONE = 0
KLASS_UNSET = 2  # set by ``segment``, replaced by ``classify``


@dataclass(frozen=True)
class BurstParams:
    """Burst-method thresholds.

    h_t: inter-arrival gap that separates bursts (seconds).
    h_d: duration at or above which a burst looks like buffer filling (seconds).
    h_r: fraction of the first burst's rate a burst must reach to be classified.
    h_s: minimum payload of a retained burst (bytes).
    h_n: consecutive steady bursts required to confirm a steady-state phase.
    rate_duration_floor: floor on the duration used for a burst's rate, keeps
        single-packet bursts finite; tie it to the rate-method bin width.
    """

    h_t: float = 1.5
    h_d: float = 5.0
    h_r: float = 0.3
    h_s: float = 20_000.0
    h_n: int = 3
    rate_duration_floor: float = 0.1

    def __post_init__(self):
        for name in ("h_t", "h_d", "h_r", "h_s", "rate_duration_floor"):
            check_positive(name, getattr(self, name))
        if not self.h_r < 1:
            raise ValueError(f"h_r must be < 1, got {self.h_r}")
        check_int("h_n", self.h_n, 1)


@dataclass(frozen=True)
class PhaseCandidate:
    """A phase interval proposed by the burst method."""

    kind: str  # FILLING or STEADY
    t_start: float
    t_end: float


class Burst(NamedTuple):
    """One burst: first and last packet times, payload bytes and class."""

    t_start: float
    t_end: float
    size: int
    klass: int


def burst_rate(burst: Burst, params: BurstParams) -> float:
    """Bytes per second over ``t_end - t_start``, floored at ``rate_duration_floor``."""
    return burst.size / max(burst.t_end - burst.t_start, params.rate_duration_floor)


def segment(times: np.ndarray, sizes: np.ndarray, params: BurstParams) -> list[Burst]:
    """Split a flow into maximal bursts at inter-arrival gaps >= ``h_t``.

    ``times`` (any real array-like, finite, non-decreasing) and ``sizes`` (one
    per time) are the flow's packet arrival times and payload bytes. Every
    packet belongs to exactly one burst. Burst boundaries are the first and
    last packet arrival times; the gap is measured last-packet-to-first-packet.
    A burst's size is its summed payload as an int64, so a float sum is
    truncated. Every burst comes out with class ``KLASS_UNSET``.
    """
    times = check_times(times, sizes)
    n = len(times)
    if n == 0:
        return []
    first = np.empty(n, dtype=bool)  # whether a packet starts a burst
    first[0] = True
    np.greater_equal(times[1:] - times[:-1], params.h_t, out=first[1:])
    starts = np.flatnonzero(first)
    t_start = times[starts]
    t_end = np.empty(len(starts))
    t_end[:-1] = times[starts[1:] - 1]
    t_end[-1] = times[-1]
    size = np.add.reduceat(sizes, starts).astype(np.int64, copy=False)
    return list(map(Burst, t_start.tolist(), t_end.tolist(), size.tolist(), repeat(KLASS_UNSET)))


def filter_small(bursts: list[Burst], params: BurstParams) -> list[Burst]:
    """Drop bursts below ``h_s`` bytes."""
    return [b for b in bursts if b.size >= params.h_s]


def classify(bursts: list[Burst], params: BurstParams) -> list[Burst]:
    """Return the retained bursts with each burst's class set.

    With r1 the first retained burst's ``burst_rate``: a burst at rate >= h_r * r1
    is filling (+1) when its duration reaches h_d and steady (-1) otherwise;
    bursts below the rate bar stay unclassified (0). r1 is fixed for the whole
    session, so a throttled stretch falls to class 0 on the rate criterion.
    The first burst trivially passes the rate bar and is classed by duration
    alone, which is intended: the initial filling burst is long.
    """
    if not bursts:
        return []
    bar, h_d = params.h_r * burst_rate(bursts[0], params), params.h_d
    return [Burst(b.t_start, b.t_end, b.size,
                  (KLASS_FILLING if b.t_end - b.t_start >= h_d else KLASS_STEADY)
                  if burst_rate(b, params) >= bar else KLASS_NONE)
            for b in bursts]


def confirm_steady(bursts: list[Burst], params: BurstParams) -> list[PhaseCandidate]:
    """Turn classified bursts into phase candidates.

    Adjacent filling bursts merge into one filling candidate. A steady
    candidate needs a maximal run of at least ``h_n`` consecutive steady
    bursts; shorter runs and unclassified bursts yield nothing. Candidate
    intervals run from the first burst's start to the last burst's end.
    """
    klass = [b.klass for b in bursts]
    if KLASS_UNSET in klass:
        raise ValueError("bursts must be classified before confirmation")
    runs, first = [], 0
    for k, run in groupby(klass):
        n = len(list(run))
        if k == KLASS_FILLING or (k == KLASS_STEADY and n >= params.h_n):
            runs.append((FILLING if k == KLASS_FILLING else STEADY, first, first + n - 1))
        first += n
    return [PhaseCandidate(kind, bursts[i].t_start, bursts[j].t_end) for kind, i, j in runs]
