"""Burst segmentation and rule-based burst classification for one flow.

Packets whose inter-arrival gap stays below a threshold belong to the same
burst. Per-burst size, duration, and rate feed a static rule set: long
bursts at near-reference rate indicate buffer filling, short ones the
paced steady-state request pattern, everything else is unclassified.
A run of consecutive steady bursts of minimum length confirms a
steady-state phase candidate.

Bursts are held as one structured array of ``BURST_DTYPE``, one row per
burst in time order; a burst's number is its position plus one. Index the
size column as ``bursts["size"]``: ``ndarray.size`` is the element count.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path

import numpy as np

from .trace import FILLING, STEADY, Trace

KLASS_FILLING = 1
KLASS_STEADY = -1
KLASS_NONE = 0
KLASS_UNSET = 2  # set by ``segment``, replaced by ``classify``

BURST_DTYPE = np.dtype([("t_start", np.float64), ("t_end", np.float64), ("size", np.int64),
                        ("duration", np.float64), ("rate", np.float64), ("klass", np.int8)])


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
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not self.h_r < 1:
            raise ValueError(f"h_r must be < 1, got {self.h_r}")
        if not (isinstance(self.h_n, int) and self.h_n >= 1):
            raise ValueError(f"h_n must be a positive integer, got {self.h_n}")


@dataclass(frozen=True)
class PhaseCandidate:
    """A phase interval proposed by the burst method."""

    kind: str  # FILLING or STEADY
    t_start: float
    t_end: float


def segment(trace: Trace, params: BurstParams) -> np.ndarray:
    """Split a flow into maximal bursts at inter-arrival gaps >= ``h_t``.

    Every packet belongs to exactly one burst. Burst boundaries are the first
    and last packet arrival times; the gap is measured last-packet-to-first-packet.
    Every burst comes out with class ``KLASS_UNSET``.
    """
    if len(trace.flows) > 1:
        raise ValueError("burst segmentation expects a single-flow trace; demux first")
    if not trace.is_time_sorted:
        raise ValueError("trace is not time-sorted; normalize first")
    n = len(trace)
    if n == 0:
        return np.zeros(0, dtype=BURST_DTYPE)
    breaks = np.flatnonzero(np.diff(trace.times) >= params.h_t) + 1
    starts = np.concatenate([[0], breaks])
    bursts = np.empty(len(starts), dtype=BURST_DTYPE)
    bursts["t_start"] = trace.times[starts]
    bursts["t_end"] = trace.times[np.append(breaks, n) - 1]
    bursts["size"] = np.add.reduceat(trace.sizes, starts)
    bursts["klass"] = KLASS_UNSET
    return set_rates(bursts, params)


def set_rates(bursts: np.ndarray, params: BurstParams) -> np.ndarray:
    """Fill in each burst's duration and rate from its bounds and size."""
    bursts["duration"] = bursts["t_end"] - bursts["t_start"]
    bursts["rate"] = bursts["size"] / np.maximum(bursts["duration"], params.rate_duration_floor)
    return bursts


def filter_small(bursts: np.ndarray, params: BurstParams) -> np.ndarray:
    """Drop bursts below ``h_s`` bytes."""
    return bursts[bursts["size"] >= params.h_s]


def classify(bursts: np.ndarray, params: BurstParams) -> np.ndarray:
    """Return a copy of the retained bursts with each burst's class set.

    With r1 the rate of the first retained burst: a burst at rate >= h_r * r1
    is filling (+1) when its duration reaches h_d and steady (-1) otherwise;
    bursts below the rate bar stay unclassified (0). r1 is fixed for the whole
    session, so a throttled stretch falls to class 0 on the rate criterion.
    The first burst trivially passes the rate bar and is classed by duration
    alone, which is intended: the initial filling burst is long.
    """
    out = bursts.copy()
    if len(out):
        rate, duration = out["rate"], out["duration"]
        out["klass"] = np.where(rate >= params.h_r * rate[0],
                                np.where(duration >= params.h_d, KLASS_FILLING, KLASS_STEADY),
                                KLASS_NONE)
    return out


def confirm_steady(bursts: np.ndarray, params: BurstParams) -> list[PhaseCandidate]:
    """Turn classified bursts into phase candidates.

    Adjacent filling bursts merge into one filling candidate. A steady
    candidate needs a maximal run of at least ``h_n`` consecutive steady
    bursts; shorter runs and unclassified bursts yield nothing. Candidate
    intervals run from the first burst's start to the last burst's end.
    """
    klass = bursts["klass"].tolist()
    if KLASS_UNSET in klass:
        raise ValueError("bursts must be classified before confirmation")
    runs, first = [], 0
    for k, run in groupby(klass):
        n = len(list(run))
        if k == KLASS_FILLING or (k == KLASS_STEADY and n >= params.h_n):
            runs.append((FILLING if k == KLASS_FILLING else STEADY, first, first + n - 1))
        first += n
    starts, ends = bursts["t_start"].tolist(), bursts["t_end"].tolist()
    return [PhaseCandidate(kind, starts[i], ends[j]) for kind, i, j in runs]


def write_bursts_csv(bursts: np.ndarray, path: str | Path) -> None:
    """Debug dump of retained bursts for plotting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "t_start", "t_end", "size", "duration", "rate", "klass"])
        for n, (t_start, t_end, size, duration, rate, klass) in enumerate(bursts.tolist(), 1):
            writer.writerow([n, repr(t_start), repr(t_end), size, repr(duration), repr(rate),
                             "" if klass == KLASS_UNSET else klass])
