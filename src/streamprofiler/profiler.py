"""Fusion of the rate and burst methods into labeled streaming phases.

The two detection methods run independently per flow. Where a burst-method
phase candidate and a rate-method change event agree in kind and in timing
(within a tolerance of a few seconds), a filling or steady-state segment is
emitted with the burst method's packet-exact boundaries; everything else is
labeled ``other``. From the fused segments the profiler derives a stream
verdict (filling followed by steady state identifies a video stream), the
video encoding-rate estimate (average streaming rate over steady state), and
a play-back buffer trajectory (cumulative arrivals minus modeled play-out).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import bursts as bursts_mod
from . import rate as rate_mod
from .bursts import BurstParams, PhaseCandidate
from .rate import DECREASE, INCREASE, RateChange, RateParams, RateSeries
from .trace import _INT64_MAX, FILLING, OTHER, STEADY, FlowKey, Trace

_EPS = 1e-9
_INITIAL_CAPACITY = 1024  # packets a StreamProfiler holds before its first growth

BYTES_PER_SEC_TO_KBPS = 8.0 / 1000.0
UNIT_NOTE = "rates in bytes per second unless a field is suffixed _kbps"

# the text ``json.dumps(indent=2)`` writes around the [time, level] buffer samples
_SAMPLES_MARK = '"samples": []'
_SAMPLES_OPEN = '"samples": [\n      [\n        '
_SAMPLE_ITEM_SEP = ",\n        "
_SAMPLE_SEP = "\n      ],\n      [\n        "
_SAMPLES_CLOSE = "\n      ]\n    ]"


def to_kbps(bytes_per_sec: float) -> float:
    return bytes_per_sec * BYTES_PER_SEC_TO_KBPS


@dataclass(frozen=True)
class FusionParams:
    """Fusion knob.

    match_tolerance: allowed gap between the two methods' change times (s).
    """

    match_tolerance: float = 5.0

    def __post_init__(self):
        if not self.match_tolerance > 0:
            raise ValueError(f"match_tolerance must be > 0, got {self.match_tolerance}")


@dataclass(frozen=True)
class PhaseSegment:
    """A final labeled interval with its traffic statistics."""

    phase: str
    t_start: float
    t_end: float
    volume: int
    duration: float
    mean_rate: float

    def to_dict(self) -> dict:
        return {
            "phase": self.phase,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "volume_bytes": self.volume,
            "duration_s": self.duration,
            "mean_rate_Bps": self.mean_rate,
            "mean_rate_kbps": to_kbps(self.mean_rate),
        }


@dataclass(frozen=True)
class StreamVerdict:
    """Whether the flow looks like a video stream (filling then steady state)."""

    is_video_stream: bool
    first_filling: int | None = None  # index into the segment list
    first_steady: int | None = None

    def to_dict(self) -> dict:
        return {
            "is_video_stream": self.is_video_stream,
            "first_filling_segment": self.first_filling,
            "first_steady_segment": self.first_steady,
        }


@dataclass(frozen=True)
class RateEstimate:
    """Encoding-rate estimate: per steady segment and duration-weighted session value."""

    per_steady: tuple[tuple[int, float], ...]  # (segment index, bytes/s)
    session: float | None

    def to_dict(self) -> dict:
        return {
            "session_Bps": self.session,
            "session_kbps": None if self.session is None else to_kbps(self.session),
            "per_steady_segment": [
                {"segment": i, "rate_Bps": r, "rate_kbps": to_kbps(r)}
                for i, r in self.per_steady
            ],
        }


@dataclass(eq=False)
class BufferTrajectory:
    """Estimated play-back buffer level over time. Holds arrays, so ``==`` is identity."""

    times: np.ndarray
    levels: np.ndarray  # bytes, clamped at 0
    playout_start: float
    encode_rate_used: float

    def samples(self) -> Iterable[tuple[float, float]]:
        return zip(self.times.tolist(), self.levels.tolist())


@dataclass(eq=False)
class ProfileReport:
    """Everything the profiler can say about one flow.

    ``==`` is identity, since the buffer and debug fields hold arrays;
    compare two reports through ``to_json()``.
    """

    flow: FlowKey | None
    n_packets: int
    total_bytes: int
    t_start: float
    t_end: float
    segments: list[PhaseSegment]
    verdict: StreamVerdict
    rate_estimate: RateEstimate
    buffer: BufferTrajectory | None
    rate_series: RateSeries | None = field(default=None, repr=False)
    bursts: np.ndarray | None = field(default=None, repr=False)  # bursts.BURST_DTYPE rows

    def to_dict(self, include_buffer_samples: bool = True) -> dict:
        flow = None
        if self.flow is not None:
            flow = {"src": self.flow.src, "dst": self.flow.dst, "dst_port": self.flow.dst_port}
        buffer = None
        if self.buffer is not None:
            buffer = {"playout_start": self.buffer.playout_start,
                      "encode_rate_used_Bps": self.buffer.encode_rate_used}
            if include_buffer_samples:
                buffer["samples"] = [[t, b] for t, b in self.buffer.samples()]
        return {
            "unit_note": UNIT_NOTE,
            "flow": flow,
            "n_packets": self.n_packets,
            "total_bytes": self.total_bytes,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "segments": [s.to_dict() for s in self.segments],
            "verdict": self.verdict.to_dict(),
            "rate_estimate": self.rate_estimate.to_dict(),
            "buffer": buffer,
        }

    def to_json(self, include_buffer_samples: bool = True) -> str:
        """``json.dumps(self.to_dict(...), indent=2, sort_keys=True)``, byte for byte.

        The indenting encoder is pure Python and the buffer samples are most
        of a report, so the samples are written here from their ``repr``
        (as ``json`` writes a finite float) and spliced in for an empty list.
        """
        data = self.to_dict(include_buffer_samples=False)
        if not include_buffer_samples or self.buffer is None:
            return json.dumps(data, indent=2, sort_keys=True)
        data["buffer"]["samples"] = []
        text = json.dumps(data, indent=2, sort_keys=True)
        if not len(self.buffer.times):
            return text
        # "buffer" sorts first and holds no string, so the first mark is its own
        head, _, tail = text.partition(_SAMPLES_MARK)
        pairs = map(_SAMPLE_ITEM_SEP.join, zip(map(repr, self.buffer.times.tolist()),
                                               map(repr, self.buffer.levels.tolist())))
        return "".join((head, _SAMPLES_OPEN, _SAMPLE_SEP.join(pairs), _SAMPLES_CLOSE, tail))


# -- fusion -----------------------------------------------------------------


def _bytes_up_to(times: np.ndarray, cum: np.ndarray, t: float, side: str = "right") -> int:
    idx = int(np.searchsorted(times, t, side=side))
    return int(cum[idx - 1]) if idx > 0 else 0


def fuse(trace: Trace, rate_events: list[RateChange], candidates: list[PhaseCandidate],
         params: FusionParams) -> list[PhaseSegment]:
    """Cross-check the two methods and tile the flow span with segments.

    A filling candidate is confirmed by a rate increase, a steady candidate by
    a rate decrease, when the event time lies within ``match_tolerance`` of the
    candidate start. Confirmed candidates become segments with the burst
    method's boundaries (packet-exact, unlike the filter-lagged rate method);
    uncovered time becomes ``other``. Segment volumes partition the flow's
    payload exactly; candidate boundaries fall on their own burst's packets,
    so a packet sitting exactly on a boundary is attributed to the candidate
    segment, not the surrounding ``other`` gap. A candidate spanning no time
    (a single-packet steady run when ``h_n`` is 1) is never confirmed; its
    bytes fall into the surrounding ``other``.
    """
    if len(trace) == 0:
        return []
    confirmed: list[PhaseCandidate] = []
    for cand in candidates:
        if cand.t_end - cand.t_start <= _EPS:
            continue
        wanted = INCREASE if cand.kind == FILLING else DECREASE
        if any(ev.direction == wanted and abs(ev.time - cand.t_start) <= params.match_tolerance
               for ev in rate_events):
            confirmed.append(cand)
    confirmed.sort(key=lambda c: c.t_start)

    t0, t1 = trace.t_start, trace.t_end
    pieces: list[tuple[str, float, float]] = []
    cursor = t0
    for cand in confirmed:
        if cand.t_start - cursor > _EPS:
            pieces.append((OTHER, cursor, cand.t_start))
        pieces.append((cand.kind, cand.t_start, cand.t_end))
        cursor = cand.t_end
    if t1 - cursor > _EPS:
        pieces.append((OTHER, cursor, t1))

    times, cum = trace.times, trace.cum_bytes
    segments: list[PhaseSegment] = []
    prev_bytes = 0
    for k, (phase, a, b) in enumerate(pieces):
        final = k == len(pieces) - 1
        # an `other` piece ends where the next candidate's first packet sits
        side = "left" if (phase == OTHER and not final) else "right"
        upto = _bytes_up_to(times, cum, b, side=side)
        volume = upto - prev_bytes
        prev_bytes = upto
        duration = b - a
        segments.append(PhaseSegment(phase=phase, t_start=a, t_end=b, volume=volume,
                                     duration=duration, mean_rate=volume / duration))
    return segments


def detect_stream(segments: list[PhaseSegment]) -> StreamVerdict:
    """A video stream shows a filling segment followed, not necessarily
    adjacently, by a steady-state segment."""
    first_filling = next((i for i, s in enumerate(segments) if s.phase == FILLING), None)
    first_steady = None
    if first_filling is not None:
        first_steady = next((i for i, s in enumerate(segments)
                             if i > first_filling and s.phase == STEADY), None)
    return StreamVerdict(is_video_stream=first_steady is not None,
                         first_filling=first_filling, first_steady=first_steady)


def estimate_rate(segments: list[PhaseSegment]) -> RateEstimate:
    """Average streaming rate over identified steady-state segments.

    In steady state the client paces its requests to match the encoding rate,
    so the per-segment mean arrival rate estimates the encoding rate. Segment
    volumes already partition the flow's payload exactly, so the estimate is
    ``volume / duration`` per steady segment and the duration-weighted mean
    across them for the session. With no steady segment the estimate is
    absent rather than guessed.
    """
    per: list[tuple[int, float]] = []
    total_bytes = 0.0
    total_dur = 0.0
    for i, seg in enumerate(segments):
        if seg.phase != STEADY:
            continue
        per.append((i, seg.volume / seg.duration))
        total_bytes += seg.volume
        total_dur += seg.duration
    session = (total_bytes / total_dur) if total_dur > 0 else None
    return RateEstimate(per_steady=tuple(per), session=session)


def _sample_times(trace: Trace, sample_dt: float, start: int = 0) -> np.ndarray:
    """Buffer sample times ``t_start + sample_dt * i``, from ``i = start`` to one
    sample past the last packet."""
    n = int(np.floor((trace.t_end - trace.t_start) / sample_dt)) + 1
    return trace.t_start + sample_dt * np.arange(start, n + 1)


def estimate_buffer(trace: Trace, encode_rate: float, playout_start: float,
                    sample_dt: float, arrived: np.ndarray | None = None) -> BufferTrajectory:
    """Play-back buffer level: cumulative arrivals minus modeled play-out.

    Play-out is linear at ``encode_rate`` from ``playout_start`` onward; the
    level is clamped at zero (stalls absorb the deficit). Sampled on the rate
    bin grid from the flow's first packet. ``arrived`` may pass in the payload
    bytes arrived by each sample time when the caller already has them.
    """
    if encode_rate <= 0:
        raise ValueError(f"encode_rate must be > 0, got {encode_rate}")
    if len(trace) == 0:
        return BufferTrajectory(np.zeros(0), np.zeros(0), playout_start, encode_rate)
    ts = _sample_times(trace, sample_dt)
    if arrived is None:
        arrived = trace.cum_bytes[np.searchsorted(trace.times, ts, side="right") - 1]
    played = encode_rate * np.clip(ts - playout_start, 0.0, None)
    levels = np.clip(arrived - played, 0.0, None)
    return BufferTrajectory(times=ts, levels=levels, playout_start=playout_start,
                            encode_rate_used=encode_rate)


def _from(trace: Trace, k: int) -> Trace:
    """The packets of ``trace`` from the ``k``-th on, sorted if ``trace`` is."""
    part = Trace(trace.times[k:], trace.sizes[k:], trace.flow_ids[k:], trace.flows) if k else trace
    part.is_time_sorted = trace.is_time_sorted
    return part


def profile(trace: Trace, rate_params: RateParams | None = None,
            burst_params: BurstParams | None = None,
            fusion_params: FusionParams | None = None,
            include_debug: bool = False) -> ProfileReport:
    """Run both methods on one flow and fuse them into a profile report.

    Deterministic: identical trace and parameters give an identical report.
    Degenerate traces (empty, single packet) yield empty or absent fields,
    never an error. This is a ``StreamProfiler`` query that sees the whole
    flow at once.
    """
    return StreamProfiler(rate_params, burst_params, fusion_params)._report(trace, include_debug)


class StreamProfiler:
    """Incremental per-flow profiler: feed packets, query the current profile.

    Packets must arrive in non-decreasing time order. ``feed`` only stores
    them, in arrays that double when full and are never written again, so
    ``trace()`` views and earlier reports stay as they were. A query resumes
    each stage of ``profile`` on the packets fed since the last one, keeping
    what is final (rate bins before the last packet's bin, bursts closed by a
    gap of at least ``h_t``, buffer arrivals before the last packet), so its
    cost follows the new packets, bursts, events and buffer samples, not the
    packets held. Its report equals ``profile()`` of the packets so far.
    """

    def __init__(self, rate_params: RateParams | None = None,
                 burst_params: BurstParams | None = None,
                 fusion_params: FusionParams | None = None,
                 flow: FlowKey | None = None):
        self.rate_params = rate_params or RateParams()
        self.burst_params = burst_params or BurstParams()
        self.fusion_params = fusion_params or FusionParams()
        self.flow = flow or FlowKey("0.0.0.0", "0.0.0.0")
        self._times = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._sizes = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._cum = np.empty(_INITIAL_CAPACITY, dtype=np.int64)  # filled up to ``_k``
        self._n = 0
        self._last_t = 0.0
        # stage state, for the first ``_k`` packets
        self._k = 0
        self._bin_k = 0  # first packet of the first bin not yet final
        self._series: tuple[np.ndarray, ...] = ()  # rho, r_smooth, r_smooth_max, flags
        self._events: list[RateChange] = []
        self._bursts = np.zeros(0, dtype=bursts_mod.BURST_DTYPE)  # of >= h_s bytes, classified
        self._open = self._bursts  # the last packet's burst, of any size
        self._open_kept = 0  # 1 when the open burst ends ``_bursts``
        self._candidates: list[PhaseCandidate] = []
        self._arrived = np.zeros(0, dtype=np.int64)  # bytes arrived by each final sample
        self._arrived_k = 0  # packets seen when final samples were last added

    def feed(self, t_arrival: float, payload_size: int) -> None:
        """Add one packet; a rejected packet raises ``ValueError`` and is not stored."""
        t = float(t_arrival)
        if not 0.0 <= t < math.inf:
            raise ValueError(f"t_arrival must be finite and >= 0, got {t_arrival!r}")
        if t < self._last_t:
            raise ValueError(f"packet at t={t_arrival} arrived out of order "
                             f"(last was {self._last_t})")
        if not (1 <= payload_size <= _INT64_MAX and (type(payload_size) is int or (
                payload_size == int(payload_size)
                and not isinstance(payload_size, (bool, np.bool_))))):
            raise ValueError(f"payload_size must be an integer in [1, {_INT64_MAX}], "
                             f"got {payload_size!r}")
        n = self._n
        if n == len(self._times):
            self._times, self._sizes, self._cum = (np.concatenate([a, np.empty_like(a)])
                                                   for a in (self._times, self._sizes, self._cum))
        self._times[n] = t
        self._sizes[n] = int(payload_size)
        self._n = n + 1
        self._last_t = t

    @property
    def n_packets(self) -> int:
        return self._n

    def trace(self) -> Trace:
        times, sizes = self._times[:self._n], self._sizes[:self._n]
        times.flags.writeable = sizes.flags.writeable = False
        trace = Trace.single_flow(times, sizes, self.flow)
        trace.is_time_sorted = True  # feed keeps arrivals in order
        return trace

    def report(self, include_debug: bool = False) -> ProfileReport:
        trace, k, n = self.trace(), self._k, self._n
        self._cum[k:n] = np.cumsum(self._sizes[k:n]) + (self._cum[k - 1] if k else 0)
        trace.cum_bytes = self._cum[:n]
        trace.cum_bytes.flags.writeable = False
        return self._report(trace, include_debug)

    def _report(self, trace: Trace, include_debug: bool) -> ProfileReport:
        """Profile ``trace``, which extends the packets of the previous query."""
        if len(trace) > self._k:
            self._advance(trace)
        segments = fuse(trace, self._events, self._candidates, self.fusion_params)
        rate_estimate = estimate_rate(segments)
        buffer = series = None
        if rate_estimate.session is not None:
            dt = self.rate_params.delta_t
            buffer = estimate_buffer(trace, rate_estimate.session, trace.t_start + dt, dt,
                                     arrived=self._arrivals(trace))
        if include_debug and len(trace):
            series = RateSeries(trace.t_start, self.rate_params.delta_t, *self._series,
                                self._events)
        return ProfileReport(
            flow=trace.flows[0] if trace.flows else None,
            n_packets=len(trace),
            total_bytes=trace.total_bytes,
            t_start=trace.t_start,
            t_end=trace.t_end,
            segments=segments,
            verdict=detect_stream(segments),
            rate_estimate=rate_estimate,
            buffer=buffer,
            rate_series=series,
            bursts=self._bursts if include_debug else None,
        )

    def _advance(self, trace: Trace) -> None:
        """Resume every stage on the packets of ``trace`` after the first ``_k``."""
        rp, bp, k = self.rate_params, self.burst_params, self._k
        t0, dt = trace.t_start, rp.delta_t
        b0 = 0  # bins before the last seen packet's bin are final
        if k:
            bins = np.floor((trace.times[self._bin_k:k] - t0) / dt)
            self._bin_k += int(np.searchsorted(bins, bins[-1]))  # first packet of bin b0
            b0 = int(bins[-1])
        chunk = _from(trace, self._bin_k)
        final = [a[:b0] for a in self._series]
        rho = rate_mod.aggregate(chunk, rp, tail=bp.h_t, t0=t0)
        r_s = rate_mod.smooth(rho, rp, seed=final[1][-1] if b0 else None)
        r_max = np.maximum.accumulate(r_s)
        if b0:
            np.maximum(r_max, final[2][-1], out=r_max)
        flags, raw = rate_mod.detect_changes(r_s, rp, running_max=r_max,
                                             flag=int(final[3][-1]) if b0 else -1)
        self._series = (tuple(map(np.concatenate, zip(final, (rho, r_s, r_max, flags))))
                        if b0 else (rho, r_s, r_max, flags))
        self._events = ([ev for ev in self._events if ev.bin_index <= b0]
                        + [RateChange(b0 + b, d, t0 + (b0 + b - 1) * dt) for b, d in raw])

        rows = bursts_mod.segment(_from(trace, k), bp)
        if len(self._open):
            if trace.times[k] - self._open["t_end"][0] >= bp.h_t:
                rows = np.concatenate([self._open, rows])
            else:  # the first new packet continues the open burst
                rows["t_start"][0] = self._open["t_start"][0]
                rows["size"][:1] += self._open["size"]
                bursts_mod.set_rates(rows[:1], bp)
        closed = self._bursts[:len(self._bursts) - self._open_kept]
        kept = bursts_mod.filter_small(rows, bp)
        self._open = rows[-1:]
        self._open_kept = len(bursts_mod.filter_small(self._open, bp))
        self._bursts = bursts_mod.classify(np.concatenate([closed, kept]) if len(closed)
                                           else kept, bp)
        self._candidates = bursts_mod.confirm_steady(self._bursts, bp)
        self._k = len(trace)

    def _arrivals(self, trace: Trace) -> np.ndarray:
        """Payload bytes arrived by each buffer sample time."""
        k, times = self._arrived_k, trace.times
        ts = _sample_times(trace, self.rate_params.delta_t, start=len(self._arrived))
        arrived = trace.cum_bytes[k - 1 + np.searchsorted(times[k:], ts, side="right")]
        n_final = int(np.searchsorted(ts, times[-1]))  # later packets arrive after these
        self._arrived = np.concatenate([self._arrived, arrived[:n_final]])
        self._arrived_k = len(trace)
        return np.concatenate([self._arrived, arrived[n_final:]])
