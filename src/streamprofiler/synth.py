"""Synthetic adaptive-streaming traces with exact ground-truth phase labels.

Models a segment-requesting video client behind a fast bottleneck: an
initial back-to-back fill at line rate until the play-back buffer reaches
its byte target, then one media-segment download per segment duration,
which matches the average streaming rate to the encoding rate (throttling
factor 1) and produces the characteristic on-off burst pattern. A quality
switch discards the buffer and triggers a fresh fill at the new rate. A
throughput cap below the encoding rate degrades the client to capped
low-quality segments until the cap lifts, after which the buffer deficit
is refilled at line rate.

All client decisions happen at request instants, so every phase boundary
is known exactly and the emitted labels are authoritative ground truth.
Packet inter-arrival times carry a seeded +-10% jitter to avoid degenerate
exact ties while keeping label boundaries exact.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .trace import FILLING, OTHER, STEADY, FlowKey, PhaseSpan, Trace

_BPS_PER_KBPS = 1000.0 / 8.0  # bytes/s per kbit/s

# Scenario-analog constants: 480p/720p-class encoding rates, a cap well
# below the lower rate, and a mid-session window for quality changes.
MEDIUM_RATE = 646 * _BPS_PER_KBPS   # 80750 B/s
HIGH_RATE = 1346 * _BPS_PER_KBPS    # 168250 B/s
THROTTLE_CAP = 320 * _BPS_PER_KBPS  # 40000 B/s
CHANGE_WINDOW = (120.0, 240.0)
THROTTLE_DURATION = 90.0

SCENARIOS = ("MQ", "HQ", "QC", "AQ")

_SYNTH_FLOW = FlowKey("203.0.113.10", "192.0.2.1", 443)


class GenerationError(ValueError):
    """The scenario cannot be realized; the message names the constraint."""


@dataclass(frozen=True)
class GeneratorDefaults:
    """Session-model defaults shared by the scenario presets."""

    segment_duration: float = 5.0
    buffer_target: float = 18e6
    fill_factor: float = 10.0       # fill_throughput = fill_factor * max encode rate
    packet_size: int = 1400
    # long enough that a capped stretch ending at the latest possible epoch
    # still leaves room for a full refill and a second steady stretch
    video_duration: float = 700.0
    throttle_quality_fraction: float = 0.5
    throttling_factor: float = 1.0


def _check_whole(value, name: str) -> None:
    """Reject a boolean or a number that is not a whole number (``1400.5``)."""
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer())
    if isinstance(value, bool) or not whole:
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    """Complete description of one synthetic session.

    ``encode_rates`` lists (activation time, bytes/s) pairs, first at t=0;
    later entries are quality changes that discard and refill the buffer.
    ``throttle_windows`` lists (t_start, t_end, cap bytes/s) intervals during
    which the wire is capped; a cap below the active encoding rate degrades
    the client to segments of ``throttle_quality_fraction * cap``.
    ``name`` labels the spec only; the generated trace does not depend on it.
    """

    encode_rates: tuple[tuple[float, float], ...]
    segment_duration: float
    buffer_target: float
    fill_throughput: float
    video_duration: float
    packet_size: int
    rng_seed: int
    throttle_windows: tuple[tuple[float, float, float], ...] = ()
    throttle_quality_fraction: float = GeneratorDefaults.throttle_quality_fraction
    throttling_factor: float = GeneratorDefaults.throttling_factor
    name: str = ""

    def __post_init__(self):
        if not self.encode_rates:
            raise ValueError("encode_rates must not be empty")
        if self.encode_rates[0][0] != 0.0:
            raise ValueError("the first encode rate must activate at t=0")
        starts = [t for t, _ in self.encode_rates]
        if sorted(starts) != starts:
            raise ValueError("encode rate activation times must be sorted")
        for t, r in self.encode_rates:
            if r <= 0 or t < 0:
                raise ValueError(f"encode rates must be positive at non-negative times, got ({t}, {r})")
        for value, name in ((self.segment_duration, "segment_duration"),
                            (self.buffer_target, "buffer_target"),
                            (self.fill_throughput, "fill_throughput"),
                            (self.video_duration, "video_duration"),
                            (self.throttling_factor, "throttling_factor")):
            if value <= 0:
                raise ValueError(f"{name} must be > 0, got {value}")
            if not math.isfinite(value):  # an infinite or NaN video never ends
                raise ValueError(f"{name} must be finite, got {value}")
        _check_whole(self.packet_size, "packet_size")
        _check_whole(self.rng_seed, "rng_seed")
        if self.packet_size < 1:
            raise ValueError(f"packet_size must be >= 1, got {self.packet_size}")
        if not 0 < self.throttle_quality_fraction <= 1:
            raise ValueError("throttle_quality_fraction must be in (0, 1]")
        prev_end = 0.0
        for w in self.throttle_windows:
            if len(w) != 3:
                raise ValueError(f"throttle window must be (t_start, t_end, cap), got {w}")
            t0, t1, cap = w
            if not (0 <= t0 < t1):
                raise ValueError(f"throttle window must satisfy 0 <= t_start < t_end, got {w}")
            if t0 < prev_end:
                raise ValueError("throttle windows must be sorted and non-overlapping")
            if cap <= 0:
                raise ValueError(f"throttle cap must be > 0, got {cap}")
            prev_end = t1

    def rate_at(self, t: float) -> float:
        """Encoding rate active at wall time ``t``."""
        current = self.encode_rates[0][1]
        for start, r in self.encode_rates:
            if start <= t:
                current = r
            else:
                break
        return current


@dataclass
class LabeledTrace:
    """A generated trace plus its exact phase labels (tiling the trace span)."""

    trace: Trace
    labels: list[PhaseSpan]


def scenario_spec(name: str, seed: int = 0,
                  defaults: GeneratorDefaults = GeneratorDefaults()) -> ScenarioSpec:
    """Build the named preset scenario, drawing its random epoch from ``seed``.

    MQ / HQ: one quality for the whole video. QC: high-to-medium quality
    change at a random time in the change window. AQ: a 90 s throughput cap
    far below the encoding rate at a random time, forcing a degraded stretch
    and a refill. Deterministic in (name, seed).
    """
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; presets are {', '.join(SCENARIOS)}")
    rng = np.random.default_rng([seed, 0xA5])
    epoch = float(rng.uniform(*CHANGE_WINDOW))
    rates: tuple[tuple[float, float], ...]
    windows: tuple[tuple[float, float, float], ...] = ()
    if name == "MQ":
        rates = ((0.0, MEDIUM_RATE),)
    elif name == "HQ":
        rates = ((0.0, HIGH_RATE),)
    elif name == "QC":
        rates = ((0.0, HIGH_RATE), (epoch, MEDIUM_RATE))
    else:  # AQ
        rates = ((0.0, MEDIUM_RATE),)
        windows = ((epoch, epoch + THROTTLE_DURATION, THROTTLE_CAP),)
    peak = max(r for _, r in rates)
    return ScenarioSpec(
        encode_rates=rates,
        segment_duration=defaults.segment_duration,
        buffer_target=defaults.buffer_target,
        fill_throughput=defaults.fill_factor * peak,
        video_duration=defaults.video_duration,
        packet_size=defaults.packet_size,
        rng_seed=seed,
        throttle_windows=windows,
        throttle_quality_fraction=defaults.throttle_quality_fraction,
        throttling_factor=defaults.throttling_factor,
        name=name,
    )


class _Emitter:
    """Accumulates packet bursts with jittered inter-arrival times."""

    def __init__(self, packet_size: int, rng: np.random.Generator):
        self.ps = int(packet_size)
        self.rng = rng
        self.times: list[np.ndarray] = []
        self.sizes: list[np.ndarray] = []

    def burst(self, start: float, nbytes: int, tx_rate: float) -> float:
        """Emit ``nbytes`` from ``start`` at ``tx_rate``; returns the last arrival."""
        nbytes = int(nbytes)
        if nbytes < 1:
            raise ValueError("burst needs at least one byte")
        n_full, rem = divmod(nbytes, self.ps)
        sizes = np.full(n_full + (1 if rem else 0), self.ps, dtype=np.int64)
        if rem:
            sizes[-1] = rem
        iat = sizes[1:] / tx_rate * self.rng.uniform(0.9, 1.1, size=len(sizes) - 1)
        times = start + np.concatenate([[0.0], np.cumsum(iat)])
        self.times.append(times)
        self.sizes.append(sizes)
        return float(times[-1])

    def last_time(self) -> float:
        return float(self.times[-1][-1]) if self.times else 0.0

    def build(self) -> Trace:
        if not self.times:
            return Trace.empty()
        return Trace.single_flow(np.concatenate(self.times), np.concatenate(self.sizes),
                                 _SYNTH_FLOW)


def _spans_from_marks(marks: list[tuple[float, str]], t_last: float) -> list[PhaseSpan]:
    spans: list[PhaseSpan] = []
    for i, (t, phase) in enumerate(marks):
        t_next = marks[i + 1][0] if i + 1 < len(marks) else t_last
        if t_next - t > 1e-12:
            if spans and spans[-1].phase == phase:
                spans[-1] = PhaseSpan(spans[-1].t_start, t_next, phase)
            else:
                spans.append(PhaseSpan(t, t_next, phase))
    return spans


def _window_at(windows: Sequence[tuple[float, float, float]], t: float):
    """The throttle window covering wall time ``t``, or None."""
    for w in windows:
        if w[0] <= t < w[1]:
            return w
    return None


def generate(spec: ScenarioSpec) -> LabeledTrace:
    """Generate one labeled session trace from a scenario description.

    One fill rule covers the session start, a quality switch and the end of
    a biting cap: a fill is then due at the next request instant, and it
    transfers back to back at line rate until the buffer reaches its target.

    Raises ``GenerationError`` when the scenario is infeasible: the fill
    throughput does not exceed an encoding rate (the buffer would never
    fill), a throttle window overlaps a filling period, or the play-back
    buffer underruns during a capped stretch.
    """
    for _, r in spec.encode_rates:
        if spec.fill_throughput <= r:
            raise GenerationError(
                f"fill_throughput ({spec.fill_throughput:.0f} B/s) must exceed the encoding "
                f"rate ({r:.0f} B/s) or the buffer never fills")

    rng = np.random.default_rng(int(spec.rng_seed))
    em = _Emitter(spec.packet_size, rng)
    marks: list[tuple[float, str]] = []

    fill = spec.fill_throughput
    seg_d = spec.segment_duration
    request_gap = seg_d / spec.throttling_factor
    duration = spec.video_duration
    pending_changes = list(spec.encode_rates[1:])
    windows = spec.throttle_windows

    q = spec.encode_rates[0][1]
    media = buf = 0.0  # media seconds delivered; true buffer level in bytes
    capped = False     # degraded by a cap below the encoding rate
    fill_due = True
    next_req = 0.0
    while True:
        if fill_due:
            # back-to-back transfer until the buffer reaches its target;
            # play-out drains while filling
            need = (spec.buffer_target - buf) * fill / (fill - q)
            nbytes = int(round(min(need, (duration - media) * q)))
            end = next_req
            if nbytes >= 1:
                w = _window_at(windows, next_req)
                if w is not None and w[2] < fill:
                    raise GenerationError(f"throttle window {w} overlaps a filling period "
                                          f"at t={next_req:.2f}; unsupported")
                marks.append((next_req, FILLING))
                end = em.burst(next_req, nbytes, fill)
                buf += nbytes - q * (end - next_req)
                media += nbytes / q
            fill_due = capped = False
            if media < duration - 1e-9:
                marks.append((end, STEADY))
            next_req = end + request_gap
        if media >= duration - 1e-9 or (duration - media) * q < 1.0:
            break
        # quality switch: discard the buffer and refill at the new rate
        if pending_changes and pending_changes[0][0] <= next_req:
            _, q = pending_changes.pop(0)
            buf = 0.0
            media = min(media, next_req)  # replay from the play head
            fill_due = True
            continue

        w = _window_at(windows, next_req)
        seg_media = min(seg_d, duration - media)
        if w is not None and w[2] < q:
            # cap below the encoding rate: degraded segments at adapted quality
            if not capped:
                marks.append((next_req, OTHER))
                capped = True
            nbytes = max(1, int(round(spec.throttle_quality_fraction * w[2] * seg_media)))
            tx = w[2]
        elif capped:
            # cap lifted: refill the deficit at line rate
            fill_due = True
            continue
        else:
            # plain steady-state segment; a non-degrading window still caps the wire
            nbytes = max(1, int(round(q * seg_media)))
            tx = min(fill, w[2]) if w is not None else fill
        em.burst(next_req, nbytes, tx)
        media += seg_media
        buf += nbytes - q * request_gap
        if capped and buf <= 0:
            raise GenerationError(
                f"play-back buffer underrun at t={next_req:.2f}: cap {tx:.0f} B/s is "
                f"below the encoding rate {q:.0f} B/s for too long")
        next_req += request_gap

    t_last = em.last_time()
    labels = _spans_from_marks(marks, t_last)
    return LabeledTrace(trace=em.build(), labels=labels)


def generate_bulk(duration: float = 60.0, rate: float = 1e6,
                  packet_size: int = GeneratorDefaults.packet_size,
                  seed: int = 0) -> LabeledTrace:
    """Continuous non-bursty transfer: the negative control for stream detection.

    The whole trace is one uninterrupted packet train (no inter-arrival gap
    remotely near a burst threshold) labeled ``other``. The defaults are
    the ``bulk`` preset: 60 s at 1 MB/s.
    """
    _check_whole(packet_size, "packet_size")
    _check_whole(seed, "seed")
    if duration < 0 or rate <= 0 or packet_size < 1:
        raise ValueError("duration must be >= 0, rate > 0, packet_size >= 1")
    nbytes = int(round(duration * rate))
    if nbytes < 1:
        return LabeledTrace(trace=Trace.empty(), labels=[])
    rng = np.random.default_rng(int(seed))
    em = _Emitter(packet_size, rng)
    em.burst(0.0, nbytes, rate)
    t_last = em.last_time()
    labels = [PhaseSpan(0.0, t_last, OTHER)] if t_last > 0 else []
    return LabeledTrace(trace=em.build(), labels=labels)
