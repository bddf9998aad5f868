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
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import Callable, Iterable, NamedTuple

import numpy as np

from . import bursts as bursts_mod
from . import rate as rate_mod
from .bursts import KLASS_UNSET, Burst, BurstParams, PhaseCandidate
from .rate import DECREASE, INCREASE, RateChange, RateParams
from .trace import (_INT64_MAX, FILLING, OTHER, STEADY, FlowKey, Trace, check_1d, check_int,
                    check_positive, check_real)

_EPS = 1e-9
_INITIAL_CAPACITY = 1024  # packets a StreamProfiler makes room for at its first feed

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
        check_positive("match_tolerance", self.match_tolerance)


@dataclass(frozen=True)
class PhaseSegment:
    """A final labeled interval with its traffic statistics."""

    phase: str
    t_start: float
    t_end: float
    volume: int

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def mean_rate(self) -> float:
        return self.volume / self.duration

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

    first_filling: int | None = None  # index into the segment list
    first_steady: int | None = None

    @property
    def is_video_stream(self) -> bool:
        return self.first_steady is not None

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


class BufferTrajectory:
    """Estimated play-back buffer level over time. Holds arrays, so ``==`` is identity.

    A live report's trajectory is deferred: it holds ``playout_start``,
    ``encode_rate_used`` and a function that returns the built trajectory,
    which the first read of ``times``, ``levels`` or ``samples()`` calls; the
    arrays are kept after that. A build that raises is tried again on the
    next read.
    """

    __slots__ = ("_arrays", "_build", "playout_start", "encode_rate_used")

    def __init__(self, times: np.ndarray, levels: np.ndarray, playout_start: float,
                 encode_rate_used: float):
        self._arrays, self._build = (times, levels), None
        self.playout_start = playout_start
        self.encode_rate_used = encode_rate_used

    @classmethod
    def _deferred(cls, build: Callable[[], BufferTrajectory], playout_start: float,
                  encode_rate_used: float) -> BufferTrajectory:
        trajectory = cls.__new__(cls)
        trajectory._arrays, trajectory._build = None, build
        trajectory.playout_start = playout_start
        trajectory.encode_rate_used = encode_rate_used
        return trajectory

    def _built(self) -> tuple[np.ndarray, np.ndarray]:
        """``(times, levels)``, built by the first call of a deferred trajectory."""
        if self._build is not None:
            self._arrays, self._build = self._build()._arrays, None
        return self._arrays

    @property
    def times(self) -> np.ndarray:
        return self._built()[0]

    @property
    def levels(self) -> np.ndarray:
        """Bytes, clamped at 0."""
        return self._built()[1]

    def samples(self) -> Iterable[tuple[float, float]]:
        times, levels = self._built()
        return zip(times.tolist(), levels.tolist())


@dataclass(eq=False)
class ProfileReport:
    """Everything the profiler can say about one flow.

    ``==`` is identity, since the buffer holds arrays; compare two reports
    through ``to_json()``.
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

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2, sort_keys=True)``, byte for byte.

        The indenting encoder is pure Python and the buffer samples are most
        of a report, so the samples are written here from their ``repr``
        (as ``json`` writes a finite float) and spliced in for an empty list.
        """
        data = self.to_dict(include_buffer_samples=False)
        if self.buffer is None:
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


def _checked_cum(times, cum) -> tuple[np.ndarray, np.ndarray]:
    """``times`` and ``cum`` as arrays, if both are 1-d and ``cum`` holds one value per packet."""
    times, cum = np.asarray(times), np.asarray(cum)
    check_1d("times", times)
    check_1d("cum", cum)
    if len(cum) != len(times):
        raise ValueError(f"cum must match times in length, got {len(cum)} and {len(times)}")
    return times, cum


def _bytes_up_to(times: np.ndarray, cum: np.ndarray, t: float, side: str = "right") -> int:
    idx = int(times.searchsorted(t, side=side))
    return int(cum[idx - 1]) if idx > 0 else 0


class Decision(NamedTuple):
    """How the rate method judged one burst-method candidate.

    ``event`` is the nearest rate event of the direction that would confirm
    the candidate (the earlier of two equally near, None when there is
    none), ``distance`` its time minus the candidate start. ``settled``
    means that no later packet can change ``confirmed``.
    """

    candidate: PhaseCandidate
    event: RateChange | None
    distance: float | None
    confirmed: bool
    settled: bool


def decide(candidates: list[PhaseCandidate], rate_events: list[RateChange],
           params: FusionParams, horizon: float = math.inf) -> list[Decision]:
    """Match each candidate with its nearest rate event of the wanted direction.

    A filling candidate wants a rate increase, a steady candidate a decrease.
    Its event is the one of that direction nearest its start by
    ``|time - t_start|``; of two equally near, the earlier, and of two at the
    same time, the first in ``rate_events`` (a list in any order, scanned
    once per candidate, so a call costs O(candidates × events)). The
    candidate is confirmed when that event lies within ``match_tolerance``
    of the candidate start. A candidate spanning no time (a single-packet
    steady run when ``h_n`` is 1) is never confirmed. ``horizon`` is the time from which
    events may still change or appear: the start of the first rate bin that
    is not final. A decision is settled when an event before the horizon
    confirms it, when the horizon lies more than ``match_tolerance`` past the
    candidate start (so no event from it on can confirm it), or when the
    candidate spans no time. ``StreamProfiler`` passes the start of the last
    packet's rate bin, or, when it stops the rate stages at a cut before the
    last packet, the cut minus one bin. With the default horizon every
    decision is settled. A refill reads filling to both methods only if the smoothed rate
    flags it before the burst lasts ``h_d``: ``(delta_t / a) * ln(1 / (1 - c))
    <= h_d``, 4.58 s against 5 s at the defaults. Nothing checks this.
    """
    tol = params.match_tolerance
    decisions = []
    for cand in candidates:
        s = cand.t_start
        wanted = INCREASE if cand.kind == FILLING else DECREASE
        event = min((ev for ev in rate_events if ev.direction == wanted),
                    key=lambda ev: (abs(ev.time - s), ev.time), default=None)
        distance = None if event is None else event.time - s
        spans = cand.t_end - s > _EPS
        confirmed = spans and distance is not None and abs(distance) <= tol
        # the same subtraction as ``distance``: an event at or after the
        # horizon lies at least ``horizon - s`` past s
        settled = (confirmed and event.time < horizon) or horizon - s > tol or not spans
        decisions.append(Decision(cand, event, distance, confirmed, settled))
    return decisions


def fuse(times: np.ndarray, cum: np.ndarray, decisions: list[Decision]) -> list[PhaseSegment]:
    """Tile the span of one flow's packet ``times`` with the candidates ``decisions`` confirm.

    The confirmed candidates become segments with the burst method's
    boundaries (packet-exact, unlike the filter-lagged rate method); uncovered
    time becomes ``other``, and so do the bytes of an unconfirmed candidate.
    Segment volumes partition the flow's payload exactly: a segment takes the
    bytes up to and including its last packet, except a gap before a
    candidate, which stops short of the candidate's first packet. ``cum`` is
    the cumulative payload bytes per packet.
    """
    times, cum = _checked_cum(times, cum)
    if len(times) == 0:
        return []
    segments: list[PhaseSegment] = []
    cursor, done = float(times[0]), 0  # where and after how many bytes the next segment starts
    for cand in sorted((d.candidate for d in decisions if d.confirmed), key=attrgetter("t_start")):
        if cand.t_start - cursor > _EPS:
            upto = _bytes_up_to(times, cum, cand.t_start, side="left")
            segments.append(PhaseSegment(OTHER, cursor, cand.t_start, upto - done))
            done = upto
        upto = _bytes_up_to(times, cum, cand.t_end)
        segments.append(PhaseSegment(cand.kind, cand.t_start, cand.t_end, upto - done))
        cursor, done = cand.t_end, upto
    t1 = float(times[-1])
    if t1 - cursor > _EPS:
        segments.append(PhaseSegment(OTHER, cursor, t1, int(cum[-1]) - done))
    return segments


def detect_stream(segments: list[PhaseSegment]) -> StreamVerdict:
    """A video stream shows a filling segment followed, not necessarily
    adjacently, by a steady-state segment."""
    first_filling = next((i for i, s in enumerate(segments) if s.phase == FILLING), None)
    first_steady = None
    if first_filling is not None:
        first_steady = next((i for i, s in enumerate(segments)
                             if i > first_filling and s.phase == STEADY), None)
    return StreamVerdict(first_filling, first_steady)


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
        per.append((i, seg.mean_rate))
        total_bytes += seg.volume
        total_dur += seg.duration
    session = (total_bytes / total_dur) if total_dur > 0 else None
    return RateEstimate(per_steady=tuple(per), session=session)


def _sample_count(times: np.ndarray, sample_dt: float) -> int:
    """How many buffer samples, one every ``sample_dt`` from the first packet of
    ``times``, reach one sample past the last; ``ValueError`` for 2**63 or more."""
    span = float(times[-1]) - float(times[0])
    if (steps := span / sample_dt) >= 2**63 - 2:  # int64 sample indices
        raise ValueError(f"sample_dt {sample_dt} gives {steps + 2:.3g} buffer samples over a "
                         f"{span} s span; the count must be below 2**63")
    return math.floor(steps) + 2


def _sample_times(times: np.ndarray, sample_dt: float, count: int) -> np.ndarray:
    """The first ``count`` buffer sample times ``times[0] + sample_dt * i``."""
    return float(times[0]) + sample_dt * np.arange(count)


def estimate_buffer(times: np.ndarray, cum: np.ndarray, encode_rate: float, playout_start: float,
                    sample_dt: float, samples: tuple[np.ndarray, np.ndarray] | None = None
                    ) -> BufferTrajectory:
    """Play-back buffer level: cumulative arrivals minus modeled play-out.

    Play-out is linear at ``encode_rate`` (finite, > 0) from ``playout_start``
    (finite) onward; the level is clamped at zero (stalls absorb the deficit).
    Sampled every ``sample_dt`` (finite, > 0) from the flow's first packet of
    ``times``, with ``cum`` bytes by each packet, to one sample past the last;
    a sample count of 2**63 or more raises ``ValueError``. ``samples`` may
    pass in the sample times with the payload bytes arrived by each,
    ``(sample_times, arrived)``, when the caller already has them; the
    trajectory keeps that ``sample_times`` array as its ``times``. Always
    built at once, in O(samples); a ``StreamProfiler`` report defers its call
    to the first read of the samples.
    """
    times, cum = _checked_cum(times, cum)
    check_positive("encode_rate", encode_rate)
    check_positive("sample_dt", sample_dt)
    check_real("playout_start", playout_start)
    # as floats: a Fraction would make object arrays of the samples
    encode_rate, playout_start, sample_dt = map(float, (encode_rate, playout_start, sample_dt))
    if len(times) == 0:
        return BufferTrajectory(np.zeros(0), np.zeros(0), playout_start, encode_rate)
    if samples is None:
        ts = _sample_times(times, sample_dt, _sample_count(times, sample_dt))
        arrived = cum[times.searchsorted(ts, side="right") - 1]
    else:
        ts, arrived = samples
        ts, arrived = np.asarray(ts), np.asarray(arrived)
        if not (ts.ndim == arrived.ndim == 1 and len(ts) == len(arrived)):
            raise ValueError(f"samples must be two 1-d arrays of equal length, got shapes "
                             f"{ts.shape} and {arrived.shape}")
    # arrived - encode_rate * max(ts - playout_start, 0), clamped at 0, in one array
    levels = ts - playout_start
    np.maximum(levels, 0.0, out=levels)
    levels *= encode_rate
    np.subtract(arrived, levels, out=levels)
    np.maximum(levels, 0.0, out=levels)
    return BufferTrajectory(times=ts, levels=levels, playout_start=playout_start,
                            encode_rate_used=encode_rate)


def profile(trace: Trace, rate_params: RateParams | None = None,
            burst_params: BurstParams | None = None,
            fusion_params: FusionParams | None = None) -> ProfileReport:
    """Run both methods on one flow and fuse them into a profile report.

    Deterministic: identical trace and parameters give an identical report.
    Degenerate traces (empty, single packet) yield empty or absent fields,
    never an error; a flow whose payload totals more than 2**63 - 1 bytes
    raises ``ValueError``. This is a ``StreamProfiler`` query that sees the whole
    flow at once, so the rate method runs only if the burst method proposes
    a candidate for it to confirm, and then bins only the packets before the
    cut: the first rate-bin boundary at least one bin past the latest
    candidate start plus ``match_tolerance``, or every packet, with ``h_t`` of
    empty bins, when the cut lies past the last one. The stage outputs
    themselves come from ``rate.analyze`` and the ``bursts`` stage functions.
    The buffer trajectory is built before it returns, as the first read of a
    live report's samples builds it, since the caller may write to its
    trace's arrays after; so a buffer sample count of 2**63 or more raises
    ``ValueError`` here.
    """
    if len(trace) and len(trace.flows) > 1:
        raise ValueError("rate analysis expects a single-flow trace; demux first")
    prof = StreamProfiler(rate_params, burst_params, fusion_params)
    if len(trace):
        prof._advance(trace.times, trace.sizes)
    # the cumulative bytes come after the stages: allocated before their
    # temporaries, they left malloc faulting fresh pages in on every call
    cum = np.cumsum(trace.sizes)
    _check_total(cum)
    report = prof._report(trace.times, cum, trace.flows[0] if trace.flows else None)
    if report.buffer is not None:
        report.buffer._built()  # now: the caller may write to its trace's arrays after
    return report


def _check_total(cum: np.ndarray) -> None:
    """Raise ``ValueError`` if the int64 byte sums ``cum`` passed 2**63 - 1. ``Trace``
    and ``feed`` keep each size in [1, 2**63 - 1], so the first sum past it wraps negative."""
    if len(cum) and cum.min() < 0:
        raise ValueError(f"a flow's payload must total <= {_INT64_MAX} bytes")


def _checked_time(t_arrival, last_t: float) -> float:
    """``t_arrival`` (or the scalar of a 0-d array) as a float, if a finite real
    number, >= 0 and not before ``last_t``."""
    t_arrival = _scalar(t_arrival)
    check_real("t_arrival", t_arrival)
    t = float(t_arrival)
    if t < 0.0:
        raise ValueError(f"t_arrival must be finite and >= 0, got {t_arrival!r}")
    if t < last_t:
        raise ValueError(f"packet at t={t_arrival} arrived out of order (last was {last_t})")
    return t


def _scalar(value):
    """The scalar of a 0-d array, else ``value``."""
    return value[()] if isinstance(value, np.ndarray) and value.ndim == 0 else value


class StreamProfiler:
    """Incremental per-flow profiler: feed packets, query the current profile.

    Packets must arrive in non-decreasing time order; ``feed`` raises
    ``ValueError`` for a packet it rejects, a non-number included. ``feed``
    only stores packets, in arrays that double when full and are never
    written again, so ``trace()`` views and earlier reports stay as they
    were; a ``float`` time and an ``int`` size take a fast path of one check
    each into the same arrays. A query resumes the burst stages on the
    packets fed since the last one, keeping what is final: bursts closed by
    a gap of at least ``h_t``.
    Once the first retained burst has closed, its ``burst_rate`` (the
    classification reference) is final, so closed bursts keep their classes
    and a query classifies only the bursts new since the last one. The rate
    method only confirms burst candidates, so its stages run only while some
    candidate's confirmation is not settled (see ``decide``), then decide
    again. They bin the packets before the cut, a bin past the latest
    unsettled candidate start plus ``match_tolerance``, and the rate horizon
    becomes the cut minus a bin; when the cut lies past the last packet they
    bin every packet held, with ``h_t`` of empty bins, and the horizon is the
    last packet's bin start (see ``_advance``). If they raise (``aggregate``:
    2**63 bins or more), the next query reruns them. Any other query costs what
    the new packets and bursts cost, plus the candidates (``confirm_steady``
    over every burst held), one ``decide`` (O(candidates × events): at most
    2 × 2 on the benchmark's HQ session, 4 × 4 on its scenario batch) and
    ``fuse`` of its decisions, not the packets held or the buffer samples.

    A report's buffer trajectory is built when its samples are first read
    (``buffer.times``, ``buffer.levels``, ``samples()``, ``to_json()``), from
    views of the packet times and cumulative bytes it was queried on, which
    are never written again; ``buffer is None``, ``playout_start``,
    ``encode_rate_used`` and ``to_dict(include_buffer_samples=False)`` build
    nothing. Until then the report holds the profiler and those views, so
    they keep the packet arrays of its time alive. The read costs O(samples
    of the report): the levels cannot be kept, as the session rate behind
    the modelled play-out changes with every steady burst. Reports may be
    read in any order, after any later feed or query. The first read of a
    report whose sample count is 2**63 or more raises ``ValueError``. On
    the HQ preset queried every 2 s, the
    median query that computes a report takes ~60 us, and ~85 us with its
    samples read, as before the deferral (raw, 2-vCPU host). Every report
    equals ``profile()`` of the packets so far; once they total more than
    2**63 - 1 bytes, every query raises ``ValueError``, as ``profile()``
    does. A query with no packet fed since the last one returns that report
    object again, so treat reports as read-only.

    Besides the stage outputs (the retained ``Burst`` records ``(t_start,
    t_end, size, klass)``, a list a query extends in place, rate events, the
    decisions on the current candidates), the profiler holds the packets,
    the burst resume point (``_k``, ``_open``), the rate ``_horizon``, the
    buffer sample ``_grid`` ``t0 + delta_t * i``, the bytes ``_arrived`` by
    each sample (the first ``_final`` final: those before the last packet of
    the longest report read) and the last report. The grid is built whole, at
    double its size or at once to the samples a read needs, and never written
    after, so every report's ``buffer.times`` is a read-only view of it that
    keeps its values; only the levels are new per report.
    """

    def __init__(self, rate_params: RateParams | None = None,
                 burst_params: BurstParams | None = None,
                 fusion_params: FusionParams | None = None,
                 flow: FlowKey | None = None):
        self.rate_params = rate_params or RateParams()
        self.burst_params = burst_params or BurstParams()
        self.fusion_params = fusion_params or FusionParams()
        self.flow = flow or FlowKey("0.0.0.0", "0.0.0.0")
        # grown by the first ``feed``; ``profile()`` never feeds, so never grows them
        self._times = np.empty(0, dtype=np.float64)
        self._sizes = np.empty(0, dtype=np.int64)
        # ``feed`` stores through these: a memoryview item store costs less than numpy's
        self._tv, self._sv = memoryview(self._times), memoryview(self._sizes)
        self._cum = np.empty(0, dtype=np.int64)  # filled up to ``_k``
        self._n = 0
        self._last_t = 0.0
        # rate stage state, from the last run of the rate stages
        self._horizon = -math.inf  # start of the first bin not yet final
        self._events: list[RateChange] = []
        # burst stage state, for the first ``_k`` packets
        self._k = 0
        self._bursts: list[Burst] = []  # of >= h_s bytes, classified
        self._open: Burst | None = None  # the last packet's, of any size; ends ``_bursts`` if kept
        self._decisions: list[Decision] = []  # of the current candidates against ``_events``
        # buffer sample times from the first packet, whose views are every
        # report's ``buffer.times``, and the bytes arrived by each, as float64,
        # filled by reads; the first ``_final`` are final, the rest is room to
        # grow into
        self._grid = self._arrived = np.empty(0)
        self._final = 0
        self._last_report: tuple[int, ProfileReport | None] = (-1, None)  # n_packets, report

    def feed(self, t_arrival: float, payload_size: int) -> None:
        """Add one packet; a rejected packet raises ``ValueError`` and is not stored.

        A ``float`` time and an ``int`` size pass one check each; anything
        else (numpy scalars, integer-valued float sizes) takes the full one.
        """
        t, size = t_arrival, payload_size
        # _last_t starts at 0.0, so the chain also fails for negative and NaN times
        if not (type(t) is float and self._last_t <= t < math.inf):
            t = _checked_time(t, self._last_t)
        if not (type(size) is int and 1 <= size <= _INT64_MAX):
            size = check_int("payload_size", _scalar(size), 1, _INT64_MAX)
        n = self._n
        if n == len(self._tv):
            # ``len(a)``, not ``n``: a generator reading ``n`` would make ``n`` a
            # closure cell, which every call of ``feed`` pays for
            self._times, self._sizes, self._cum = (
                np.concatenate([a, np.empty(len(a) or _INITIAL_CAPACITY, a.dtype)])
                for a in (self._times, self._sizes, self._cum))
            self._tv, self._sv = memoryview(self._times), memoryview(self._sizes)
        self._tv[n] = t
        self._sv[n] = size
        self._n = n + 1
        self._last_t = t

    @property
    def n_packets(self) -> int:
        return self._n

    def trace(self) -> Trace:
        times, sizes = self._times[:self._n], self._sizes[:self._n]
        times.flags.writeable = sizes.flags.writeable = False
        return Trace.single_flow(times, sizes, self.flow)

    def report(self) -> ProfileReport:
        k, n = self._k, self._n
        if self._last_report[0] == n:
            return self._last_report[1]
        # before the stages, which move ``_k`` to n even when the rate stages raise
        cum = np.cumsum(self._sizes[k:n], out=self._cum[k:n])
        if k:
            cum += self._cum[k - 1]
        _check_total(cum)
        if n:
            self._advance(self._times[:n], self._sizes[:n])
        report = self._report(self._times[:n], self._cum[:n], self.flow)
        self._last_report = (n, report)
        return report

    def _report(self, times: np.ndarray, cum: np.ndarray, flow: FlowKey | None) -> ProfileReport:
        """Fuse the stage results on packets ``times``, with ``cum`` bytes by each."""
        n = len(times)
        segments = fuse(times, cum, self._decisions)
        rate_estimate = estimate_rate(segments)
        buffer = None
        t_start, t_end = (float(times[0]), float(times[-1])) if n else (0.0, 0.0)
        if (session := rate_estimate.session) is not None:
            playout_start = float(t_start + self.rate_params.delta_t)
            buffer = BufferTrajectory._deferred(
                partial(self._buffer, times, cum, session, playout_start), playout_start, session)
        return ProfileReport(
            flow=flow,
            n_packets=n,
            total_bytes=int(cum[-1]) if n else 0,
            t_start=t_start,
            t_end=t_end,
            segments=segments,
            verdict=detect_stream(segments),
            rate_estimate=rate_estimate,
            buffer=buffer,
        )

    def _buffer(self, times: np.ndarray, cum: np.ndarray, encode_rate: float,
                playout_start: float) -> BufferTrajectory:
        """``estimate_buffer`` of packets ``times``, any prefix of those held, with
        the samples from ``_arrivals``."""
        return estimate_buffer(times, cum, encode_rate, playout_start, self.rate_params.delta_t,
                               samples=self._arrivals(times, cum))

    def _advance(self, times: np.ndarray, sizes: np.ndarray) -> None:
        """Bring the burst stages up to ``times``; if a candidate's confirmation
        is unsettled, run the rate stages up to the cut and decide again.

        Binning, the filter and the flags are causal, and an event confirms a
        candidate only within ``match_tolerance`` (tol) of its start. So the
        cut is the first boundary of ``aggregate``'s bins at least one bin past
        the latest unsettled candidate start plus tol, and the stages bin the
        packets before it, with a tail that ends the series there. The bins
        before the last are final, so every event still to come lies at or
        after ``_horizon``, the cut minus a bin, and every candidate is
        settled. An unsettled candidate starts at most tol before the old
        horizon, so the new one lies past it and every event that settled a
        decision is kept. When the cut lies past the last packet, the stages
        bin every packet with ``h_t`` of empty bins, and the horizon is the
        last packet's bin start.
        """
        if len(times) > self._k:
            self._decisions = decide(self._advance_bursts(times, sizes), self._events,
                                     self.fusion_params, self._horizon)
        if not all(d.settled for d in self._decisions):
            need = max(d.candidate.t_start for d in self._decisions if not d.settled)
            t0, dt = float(times[0]), self.rate_params.delta_t
            # np.floor: a quotient past the float range makes the cut infinite, not an error
            cut = t0 + (np.floor((need + self.fusion_params.match_tolerance - t0) / dt) + 2) * dt
            m = int(times.searchsorted(cut))
            tail = self.burst_params.h_t if m == len(times) else float(cut - times[m - 1])
            self._events = rate_mod.analyze(times[:m], sizes[:m], self.rate_params, tail).events
            self._horizon = (t0 + math.floor((times[-1] - t0) / dt) * dt if m == len(times)
                             else float(cut - dt))
            self._decisions = decide([d.candidate for d in self._decisions], self._events,
                                     self.fusion_params, self._horizon)

    def _advance_bursts(self, times: np.ndarray, sizes: np.ndarray) -> list[PhaseCandidate]:
        """Resume the burst stages on the packets after the first ``_k``; return
        the phase candidates of every burst held."""
        bp, open_, bursts = self.burst_params, self._open, self._bursts
        rows = bursts_mod.segment(times[self._k:], sizes[self._k:], bp)
        if open_ is not None and rows[0].t_start - open_.t_end < bp.h_t:
            # the first new packet continues the open burst: it is classified anew
            if open_.size >= bp.h_s:  # it ends ``_bursts``
                bursts.pop()
            rows[0] = Burst(open_.t_start, rows[0].t_end, open_.size + rows[0].size, KLASS_UNSET)
        self._open = rows[-1]
        # once the reference burst has closed, the closed bursts keep their
        # classes and only the new rows are classified, after the reference
        ref = bursts[:1]
        bursts += bursts_mod.classify(ref + bursts_mod.filter_small(rows, bp), bp)[len(ref):]
        self._k = len(times)
        return bursts_mod.confirm_steady(bursts, bp)

    def _arrivals(self, times: np.ndarray, cum: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The buffer sample times of packets ``times``, a read-only view of
        ``_grid``, and the payload bytes arrived by each, as float64.

        ``times`` may be any prefix of the packets held, read in any order.
        Only the samples before its last packet count as stored in
        ``_arrived``: later packets arrive after them, so those values are
        final and nothing writes them again. The samples at or after the last
        packet take ``cum[-1]``, written past ``_final`` or, when a longer
        prefix was read first, into a copy; so the bytes returned hold only
        until the next call.
        """
        dt, start = self.rate_params.delta_t, self._final
        end = _sample_count(times, dt)
        if end > len(self._grid):
            # both grow by doubling; the grid is built whole and never written
            # after, so the views earlier reports hold keep their values
            size = max(end, 2 * len(self._grid))
            self._grid = _sample_times(times, dt, size)
            self._grid.flags.writeable = False
            grown = np.empty(size)
            grown[:start] = self._arrived[:start]
            self._arrived = grown
        ts = self._grid[:end]
        final = int(ts.searchsorted(times[-1]))
        if final < start:  # a longer prefix was read first
            arrived = self._arrived[:end].copy()
            arrived[final:] = cum[-1]
            return ts, arrived
        # the slots from ``start`` on are free: they hold the last read's samples
        # at or after its last packet, which that read has used
        self._arrived[start:end] = cum[times.searchsorted(ts[start:], side="right") - 1]
        self._final = final
        return ts, self._arrived[:end]
