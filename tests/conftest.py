import csv
import math

import numpy as np
import pytest

from streamprofiler import BurstParams, FlowKey, FusionParams, RateParams, Trace
from streamprofiler.bursts import KLASS_UNSET
from streamprofiler.profiler import to_kbps

TEST_FLOW = FlowKey("10.0.0.1", "192.168.1.5", 443)


def flow_trace(times, sizes=None, flow=TEST_FLOW) -> Trace:
    """Single-flow trace from plain lists; sizes default to 1000 B."""
    times = np.asarray(times, dtype=np.float64)
    if sizes is None:
        sizes = np.full(len(times), 1000, dtype=np.int64)
    return Trace.single_flow(times, sizes, flow)


# packet times that the stages reject, with the message each gets
UNUSABLE_TIMES = [([1.0, 0.5], "sorted"), ([0.0, 1.0, 0.5], "sorted"), ([0.0, math.nan], "sorted"),
                  ([math.nan], "finite"), ([0.0, math.inf], "finite"),
                  ([math.inf, math.inf], "finite"), ([-math.inf, 0.0], "finite")]


def columns(times, sizes=None):
    """The (times, sizes) arrays of ``flow_trace(times, sizes)``."""
    trace = flow_trace(times, sizes)
    return trace.times, trace.sizes


def flow_arrays(trace: Trace):
    """The (times, cumulative bytes) arrays that ``fuse`` and ``estimate_buffer`` take."""
    return trace.times, np.cumsum(trace.sizes)


@pytest.fixture
def rate_params() -> RateParams:
    return RateParams()


@pytest.fixture
def burst_params() -> BurstParams:
    return BurstParams()


@pytest.fixture
def fusion_params() -> FusionParams:
    return FusionParams()


def single_packet_steady_trace() -> Trace:
    """A 10 s filling burst, then one 66 kB packet that alone forms a steady
    burst, then a small trailing packet that keeps the rate series running.
    With ``h_n=1`` the lone packet is a zero-span steady candidate that a rate
    decrease confirms within the match tolerance."""
    times = np.concatenate([np.arange(100) * 0.1, [11.9, 30.0]])
    return flow_trace(times, sizes=[1000] * 100 + [66_000, 100])


def assert_tiles_and_partitions(segments, t_start, t_end, total_bytes):
    """Segments (objects or report dicts) tile [t_start, t_end] with positive
    durations and their volumes sum to the flow's payload."""
    def get(s, name):
        return s[name] if isinstance(s, dict) else getattr(s, name)
    assert get(segments[0], "t_start") == t_start
    assert get(segments[-1], "t_end") == t_end
    for a, b in zip(segments, segments[1:]):
        assert get(a, "t_end") == get(b, "t_start")
    assert all(get(s, "t_end") > get(s, "t_start") for s in segments)
    assert sum(get(s, "volume_bytes" if isinstance(s, dict) else "volume")
               for s in segments) == total_bytes


def random_trace(seed: int, duration: float = 10.0, mean_rate: float = 5e5,
                 packet_size: int = 1200) -> Trace:
    """Poisson-ish packet arrivals for property tests."""
    rng = np.random.default_rng(seed)
    n = max(1, int(duration * mean_rate / packet_size))
    gaps = rng.exponential(duration / n, size=n)
    times = np.cumsum(gaps)
    times = times / times[-1] * duration
    sizes = rng.integers(100, packet_size + 1, size=n)
    return Trace.single_flow(times, sizes, TEST_FLOW)


# -- reference: ``rate.aggregate`` before it binned in place -------------------


def reference_aggregate(times, sizes, params, tail=0.0):
    if len(times) == 0:
        return np.zeros(0)
    if not (np.diff(times) >= 0.0).all():
        raise ValueError("trace is not time-sorted; normalize first")
    rel = times - times[0]
    idx = np.floor(rel / params.delta_t).astype(np.int64)
    n_bins = int(idx[-1]) + 1
    if tail > 0:
        n_bins = max(n_bins, math.ceil((rel[-1] + tail) / params.delta_t))
    return np.bincount(idx, weights=sizes, minlength=n_bins) / params.delta_t


# -- reference: the per-dump CSV writers that ``cli._write_csv`` replaces ----


def reference_write_rate_csv(series, path):
    """The rate dump of ``series``, keeping the running maximum of ``r_smooth`` by hand."""
    r_max = -math.inf
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin", "rho", "r_smooth", "r_smooth_max", "flag"])
        for i in range(len(series)):
            r_max = max(r_max, float(series.r_smooth[i]))
            writer.writerow([i + 1, repr(float(series.rho[i])),
                             repr(float(series.r_smooth[i])), repr(r_max),
                             int(series.flags[i])])


def reference_write_bursts_csv(bursts, params, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "t_start", "t_end", "size", "duration", "rate", "klass"])
        for n, (t_start, t_end, size, klass) in enumerate(bursts, 1):
            duration = t_end - t_start
            rate = size / max(duration, params.rate_duration_floor)
            writer.writerow([n, repr(t_start), repr(t_end), size, repr(duration), repr(rate),
                             "" if klass == KLASS_UNSET else klass])


def reference_write_segments_csv(report, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["phase", "t_start", "t_end", "volume_bytes", "duration_s",
                         "mean_rate_Bps", "mean_rate_kbps"])
        for seg in report.segments:
            writer.writerow([seg.phase, repr(seg.t_start), repr(seg.t_end), seg.volume,
                             repr(seg.duration), repr(seg.mean_rate), repr(to_kbps(seg.mean_rate))])


def reference_write_buffer_csv(report, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "buffered_bytes"])
        if report.buffer is not None:
            for t, level in report.buffer.samples():
                writer.writerow([repr(t), repr(level)])


def reference_write_cdf_csvs(report, out_dir):
    scenario = report["scenario"]
    for ordinal, cdf in report.get("rate_cdf", {}).items():
        path = out_dir / f"cdf_{scenario}_steady{ordinal}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["estimated_Bps", "true_Bps", "quantile"])
            for est, true, q in zip(cdf["estimated_Bps"], cdf["true_Bps"], cdf["quantile"]):
                writer.writerow([repr(est), repr(true), repr(q)])
