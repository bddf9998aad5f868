"""Streaming-rate analysis for a single flow.

Three stages: aggregate payload bytes into fixed-width time bins to get a
rate series, smooth it with a first-order regressive low-pass filter, and
flag significant rate changes by comparing the smoothed rate against its
running maximum. A flag flip from low to high marks a rate increase (the
onset of a buffer-filling burst); the inverse flip marks a decrease
(settling into paced steady-state transfers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .trace import check_positive, check_real, check_times

INCREASE = "increase"
DECREASE = "decrease"


@dataclass(frozen=True)
class RateParams:
    """Rate-method knobs: bin width, filter attenuation, change threshold."""

    delta_t: float = 0.1
    a: float = 0.02
    c: float = 0.6

    def __post_init__(self):
        check_positive("delta_t", self.delta_t)
        check_real("a", self.a)
        check_real("c", self.c)
        if not 0 < self.a <= 1:
            raise ValueError(f"a must be in (0, 1], got {self.a}")
        # c <= 0.5 would let the increase and decrease conditions hold at once
        if not 0.5 < self.c < 1:
            raise ValueError(f"c must be in (0.5, 1), got {self.c}")
        for name in ("delta_t", "a", "c"):  # a Fraction would reach numpy's in-place ops
            object.__setattr__(self, name, float(getattr(self, name)))


@dataclass(frozen=True)
class RateChange:
    """A detected rate change: its direction and the start time of the bin it flags."""

    direction: str
    time: float


@dataclass(eq=False)
class RateSeries:
    """Per-bin rate series for one flow, bins aligned to the flow's first packet.

    Holds arrays, so ``==`` is identity.
    """

    rho: np.ndarray
    r_smooth: np.ndarray
    flags: np.ndarray
    events: list[RateChange]

    def __len__(self) -> int:
        return len(self.rho)


def aggregate(times: np.ndarray, sizes: np.ndarray, params: RateParams,
              tail: float = 0.0) -> np.ndarray:
    """Aggregate one flow's payload bytes into contiguous bins of width ``delta_t``.

    ``times`` (any real array-like, finite, non-decreasing) and ``sizes`` (one
    per time) are the flow's packet arrival times and payload bytes. Bin ``t``
    (1-based) covers ``[(t-1)*delta_t, t*delta_t)`` relative to the flow's
    first packet; its value is the summed payload divided by the bin width, so
    empty bins read 0 and ``sum(rho) * delta_t`` equals the flow's total bytes.
    ``tail`` (finite, >= 0) extends the series with empty bins past the last
    packet so that end-of-flow rate decay stays visible downstream. A bin
    count ``(span + tail) / delta_t`` of 2**63 or more raises ``ValueError``.
    """
    check_real("tail", tail)
    if tail < 0:
        raise ValueError(f"tail must be finite and >= 0, got {tail}")
    times = check_times(times, sizes)
    if len(times) == 0:
        return np.zeros(0)
    rel = times - times[0]
    span = float(rel[-1])
    if (count := (span + tail) / params.delta_t) >= 2**63:  # int64 bin indices
        raise ValueError(f"delta_t {params.delta_t} and tail {tail} give {count:.3g} rate bins "
                         f"over a {span} s span; the count must be below 2**63")
    rel /= params.delta_t
    idx = np.floor(rel, out=rel).astype(np.int64)
    n_bins = int(idx[-1]) + 1
    if tail > 0:
        n_bins = max(n_bins, math.ceil((span + tail) / params.delta_t))
    rho = np.bincount(idx, weights=sizes, minlength=n_bins)
    rho /= params.delta_t
    return rho


def smooth(rho: np.ndarray, params: RateParams) -> np.ndarray:
    """Regressive low-pass filter: r[t] = (1-a)*r[t-1] + a*rho[t].

    The filter is seeded with the first observation (r[0] = rho[1]), which
    keeps the initial filling burst detectable instead of ramping up from
    zero over ~1/a bins.

    Operation order: with c = 1 - a, each bin computes ``c*r[t-1]``, then
    adds ``a*rho[t]``, each rounded on its own (so r[1] = c*rho[1] + a*rho[1],
    not exactly rho[1]). This is the order of
    ``scipy.signal.lfilter([a], [1, -c], rho, zi=[c*rho[1]])``, so on finite
    rates of either sign the result is bit-identical to it.
    """
    rho = np.asarray(rho, dtype=np.float64)
    out = np.empty(rho.size)
    if rho.size == 0:
        return out
    c = 1.0 - params.a
    r = float(rho[0])
    out[:] = [(r := c * r + x) for x in (params.a * rho).tolist()]
    return out


def detect_changes(r_smooth: np.ndarray,
                   params: RateParams) -> tuple[np.ndarray, list[tuple[int, str]]]:
    """Flag rate changes against the running maximum of the smoothed rate.

    The flag starts low (-1). It flips high at bin t when
    ``r[t] > c * max(r[1..t])`` and flips low when ``r[t] < (1-c) * max(r[1..t])``;
    otherwise it carries over. Returns the per-bin flags and the change events
    as (1-based bin index, direction). Events strictly alternate and the first
    is always an increase.
    """
    r = np.asarray(r_smooth, dtype=np.float64)
    running_max = np.maximum.accumulate(r)
    c = params.c
    # Since c > 0.5 and r[t] <= max(r[1..t]), at most one trigger holds per
    # bin, so the flag is the direction of the last trigger so far.
    up = r > c * running_max
    triggered = up | (r < (1.0 - c) * running_max)
    last = np.maximum.accumulate(np.where(triggered, np.arange(r.size), -1))
    flags = np.where((last >= 0) & up[last], 1, -1).astype(np.int8)
    changed = np.flatnonzero(np.diff(flags, prepend=np.int8(-1)))
    events = [(t + 1, INCREASE if flags[t] == 1 else DECREASE) for t in changed.tolist()]
    return flags, events


def analyze(times: np.ndarray, sizes: np.ndarray, params: RateParams,
            tail: float = 0.0) -> RateSeries:
    """Run the three stages on one flow: ``aggregate`` (with ``tail``),
    ``smooth`` and ``detect_changes``, with each event timed at its bin's start."""
    rho = aggregate(times, sizes, params, tail=tail)
    r_smooth = smooth(rho, params)
    flags, raw = detect_changes(r_smooth, params)
    t0, dt = (float(times[0]) if len(times) else 0.0), params.delta_t
    return RateSeries(rho, r_smooth, flags, [RateChange(d, t0 + (b - 1) * dt) for b, d in raw])
