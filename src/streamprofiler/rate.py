"""Streaming-rate analysis for a single flow.

Three stages: aggregate payload bytes into fixed-width time bins to get a
rate series, smooth it with a first-order regressive low-pass filter, and
flag significant rate changes by comparing the smoothed rate against its
running maximum. A flag flip from low to high marks a rate increase (the
onset of a buffer-filling burst); the inverse flip marks a decrease
(settling into paced steady-state transfers).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

from .trace import Trace

INCREASE = "increase"
DECREASE = "decrease"


@dataclass(frozen=True)
class RateParams:
    """Rate-method knobs: bin width, filter attenuation, change threshold."""

    delta_t: float = 0.1
    a: float = 0.02
    c: float = 0.6

    def __post_init__(self):
        if not self.delta_t > 0:
            raise ValueError(f"delta_t must be > 0, got {self.delta_t}")
        if not 0 < self.a <= 1:
            raise ValueError(f"a must be in (0, 1], got {self.a}")
        # c <= 0.5 would let the increase and decrease conditions hold at once
        if not 0.5 < self.c < 1:
            raise ValueError(f"c must be in (0.5, 1), got {self.c}")


@dataclass(frozen=True)
class RateChange:
    """A detected rate change: 1-based bin index, direction, bin start time."""

    bin_index: int
    direction: str
    time: float


@dataclass(eq=False)
class RateSeries:
    """Per-bin rate series for one flow, bins aligned to the flow's first packet.

    Holds arrays, so ``==`` is identity.
    """

    t0: float
    delta_t: float
    rho: np.ndarray
    r_smooth: np.ndarray
    r_smooth_max: np.ndarray
    flags: np.ndarray
    events: list[RateChange]

    def __len__(self) -> int:
        return len(self.rho)


def _single_flow_arrays(trace: Trace) -> tuple[np.ndarray, np.ndarray]:
    if len(trace.flows) > 1:
        raise ValueError("rate analysis expects a single-flow trace; demux first")
    if not trace.is_time_sorted:
        raise ValueError("trace is not time-sorted; normalize first")
    return trace.times, trace.sizes


def aggregate(trace: Trace, params: RateParams, tail: float = 0.0,
              t0: float | None = None) -> np.ndarray:
    """Aggregate payload bytes into contiguous bins of width ``delta_t``.

    Bin ``t`` (1-based) covers ``[(t-1)*delta_t, t*delta_t)`` relative to the
    flow's first packet; its value is the summed payload divided by the bin
    width, so empty bins read 0 and ``sum(rho) * delta_t`` equals the flow's
    total payload bytes. ``tail`` extends the series with empty bins past the
    last packet so that end-of-flow rate decay stays visible downstream.
    When ``trace`` holds only the later packets of a flow, ``t0`` gives the
    flow's first arrival; the series then starts at the bin of the trace's
    first packet, which must hold all of that bin's packets.
    """
    times, sizes = _single_flow_arrays(trace)
    if len(times) == 0:
        return np.zeros(0)
    rel = times - (times[0] if t0 is None else t0)
    idx = np.floor(rel / params.delta_t).astype(np.int64)
    n_bins = int(idx[-1]) + 1
    if tail > 0:
        n_bins = max(n_bins, math.ceil((rel[-1] + tail) / params.delta_t))
    first = int(idx[0])
    return np.bincount(idx - first, weights=sizes, minlength=n_bins - first) / params.delta_t


def smooth(rho: np.ndarray, params: RateParams, seed: float | None = None) -> np.ndarray:
    """Regressive low-pass filter: r[t] = (1-a)*r[t-1] + a*rho[t].

    By default the filter is seeded with the first observation (r[1] = rho[1]),
    which keeps the initial filling burst detectable instead of ramping up from
    zero over ~1/a bins. Pass ``seed`` to set an explicit r[0] instead.
    """
    rho = np.asarray(rho, dtype=np.float64)
    if rho.size == 0:
        return np.zeros(0)
    a = params.a
    prev = rho[0] if seed is None else seed
    zi = np.array([(1.0 - a) * prev])
    out, _ = lfilter([a], [1.0, -(1.0 - a)], rho, zi=zi)
    return out


def detect_changes(r_smooth: np.ndarray, params: RateParams,
                   running_max: np.ndarray | None = None, flag: int = -1
                   ) -> tuple[np.ndarray, list[tuple[int, str]]]:
    """Flag rate changes against the running maximum of the smoothed rate.

    The flag starts low (-1). It flips high at bin t when
    ``r[t] > c * max(r[1..t])`` and flips low when ``r[t] < (1-c) * max(r[1..t])``;
    otherwise it carries over. Returns the per-bin flags and the change events
    as (1-based bin index, direction). Events strictly alternate and the first
    is always an increase. ``running_max`` may pass in ``max(r[1..t])`` when
    the caller already has it. To resume a series, pass the running maximum
    over the whole series and ``flag``, the flag of the bin before ``r_smooth``.
    """
    r = np.asarray(r_smooth, dtype=np.float64)
    if running_max is None:
        running_max = np.maximum.accumulate(r)
    c = params.c
    # Since c > 0.5 and r[t] <= max(r[1..t]), at most one trigger holds per
    # bin, so the flag is the direction of the last trigger so far.
    up = r > c * running_max
    triggered = up | (r < (1.0 - c) * running_max)
    last = np.maximum.accumulate(np.where(triggered, np.arange(r.size), -1))
    flags = np.where(last >= 0, np.where(up[last], 1, -1), flag).astype(np.int8)
    changed = np.flatnonzero(np.diff(flags, prepend=np.int8(flag)))
    events = [(t + 1, INCREASE if flags[t] == 1 else DECREASE) for t in changed.tolist()]
    return flags, events


def write_rate_csv(series: RateSeries, path: str | Path) -> None:
    """Debug dump of the rate series for plotting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin", "rho", "r_smooth", "r_smooth_max", "flag"])
        for i in range(len(series)):
            writer.writerow([i + 1, repr(float(series.rho[i])),
                             repr(float(series.r_smooth[i])),
                             repr(float(series.r_smooth_max[i])),
                             int(series.flags[i])])
