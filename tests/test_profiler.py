import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamprofiler import (
    BurstParams,
    FusionParams,
    PhaseSegment,
    RateParams,
    StreamProfiler,
    Trace,
    detect_stream,
    estimate_buffer,
    estimate_rate,
    fuse,
    generate,
    generate_bulk,
    profile,
    scenario_spec,
)
from streamprofiler.bursts import PhaseCandidate, confirm_steady, write_bursts_csv
from streamprofiler.profiler import _INITIAL_CAPACITY, BufferTrajectory
from streamprofiler.rate import DECREASE, RateChange
from streamprofiler.trace import FILLING, OTHER, STEADY, FlowKey
from conftest import TEST_FLOW, assert_tiles_and_partitions, flow_trace, single_packet_steady_trace


def seg(phase, t0, t1, volume=0):
    return PhaseSegment(phase=phase, t_start=t0, t_end=t1, volume=volume,
                        duration=t1 - t0, mean_rate=volume / (t1 - t0))


class TestFuse:
    def test_agreeing_methods_tile_the_span(self, fusion_params):
        trace = flow_trace([0.0, 10.0, 41.0, 44.0, 100.0, 560.0])
        events = [RateChange(4, "increase", 0.3), RateChange(431, "decrease", 43.0)]
        candidates = [PhaseCandidate(FILLING, 0.0, 41.0),
                      PhaseCandidate(STEADY, 44.0, 560.0)]
        segments = fuse(trace, events, candidates, fusion_params)
        assert [(s.phase, s.t_start, s.t_end) for s in segments] == [
            (FILLING, 0.0, 41.0), (OTHER, 41.0, 44.0), (STEADY, 44.0, 560.0)]

    def test_candidate_without_matching_event_becomes_other(self, fusion_params):
        trace = flow_trace([0.0, 44.0, 560.0])
        candidates = [PhaseCandidate(STEADY, 44.0, 560.0)]
        segments = fuse(trace, [], candidates, fusion_params)
        assert [s.phase for s in segments] == [OTHER]
        assert segments[0].t_start == 0.0 and segments[0].t_end == 560.0

    def test_event_outside_tolerance_is_no_match(self, fusion_params):
        trace = flow_trace([0.0, 44.0, 560.0])
        events = [RateChange(1, "decrease", 44.0 + fusion_params.match_tolerance + 0.5)]
        candidates = [PhaseCandidate(STEADY, 44.0, 560.0)]
        assert [s.phase for s in fuse(trace, events, candidates, fusion_params)] == [OTHER]

    def test_wrong_event_type_is_no_match(self, fusion_params):
        trace = flow_trace([0.0, 44.0, 560.0])
        events = [RateChange(1, "increase", 44.0)]
        candidates = [PhaseCandidate(STEADY, 44.0, 560.0)]
        assert [s.phase for s in fuse(trace, events, candidates, fusion_params)] == [OTHER]

    def test_empty_trace_yields_no_segments(self, fusion_params):
        assert fuse(Trace.empty(), [], [], fusion_params) == []

    def test_volumes_partition_payload(self, fusion_params):
        trace = flow_trace([0.0, 10.0, 41.0, 44.0, 100.0, 560.0], sizes=[10] * 6)
        events = [RateChange(1, "increase", 0.0), RateChange(431, "decrease", 43.0)]
        candidates = [PhaseCandidate(FILLING, 0.0, 41.0),
                      PhaseCandidate(STEADY, 44.0, 560.0)]
        segments = fuse(trace, events, candidates, fusion_params)
        assert sum(s.volume for s in segments) == trace.total_bytes
        # boundary packets at 41.0 and 44.0 belong to the candidates, not the gap
        assert segments[0].volume == 30
        assert segments[1].volume == 0
        assert segments[2].volume == 30

    def test_zero_span_candidate_is_not_confirmed(self, fusion_params):
        trace = flow_trace([0.0, 11.9, 30.0], sizes=[10, 20, 30])
        events = [RateChange(120, "decrease", 11.9)]
        candidates = [PhaseCandidate(STEADY, 11.9, 11.9)]
        segments = fuse(trace, events, candidates, fusion_params)
        assert [s.phase for s in segments] == [OTHER]
        assert_tiles_and_partitions(segments, 0.0, 30.0, 60)


class TestDetectStream:
    def test_filling_then_steady(self):
        verdict = detect_stream([seg(FILLING, 0, 10), seg(STEADY, 10, 20)])
        assert verdict.is_video_stream
        assert verdict.first_filling == 0 and verdict.first_steady == 1

    def test_filling_then_other_is_not_video(self):
        assert not detect_stream([seg(FILLING, 0, 10), seg(OTHER, 10, 20)]).is_video_stream

    def test_nonadjacent_pair_allowed(self):
        verdict = detect_stream([seg(OTHER, 0, 1), seg(FILLING, 1, 10),
                                 seg(OTHER, 10, 12), seg(STEADY, 12, 20)])
        assert verdict.is_video_stream
        assert verdict.first_filling == 1 and verdict.first_steady == 3

    def test_steady_before_filling_does_not_count(self):
        assert not detect_stream([seg(STEADY, 0, 10), seg(FILLING, 10, 20)]).is_video_stream


class TestEstimateRate:
    def test_exact_rate_on_constructed_segment(self):
        estimate = estimate_rate([seg(STEADY, 10.0, 20.0, volume=123_456 * 10)])
        assert estimate.session == pytest.approx(123_456.0)
        assert estimate.per_steady[0] == (0, pytest.approx(123_456.0))

    def test_absent_without_steady_segment(self):
        estimate = estimate_rate([seg(FILLING, 0.0, 10.0, volume=100)])
        assert estimate.session is None
        assert estimate.per_steady == ()

    def test_duration_weighted_session_mean(self):
        estimate = estimate_rate([seg(STEADY, 0.0, 10.0, volume=1000),
                                  seg(STEADY, 20.0, 50.0, volume=6000)])
        assert estimate.session == pytest.approx(7000 / 40.0)

    def test_matches_brute_force_on_generated_trace(self):
        labeled = generate(scenario_spec("MQ", seed=5))
        report = profile(labeled.trace)
        times, sizes = labeled.trace.times, labeled.trace.sizes
        for idx, est in report.rate_estimate.per_steady:
            s = report.segments[idx]
            brute = int(sizes[(times >= s.t_start) & (times <= s.t_end)].sum())
            assert s.volume == brute
            assert est == brute / s.duration


class TestEstimateBuffer:
    def test_before_playout_equals_cumulative(self):
        trace = flow_trace([0.0, 1.0, 2.0], sizes=[100, 200, 300])
        traj = estimate_buffer(trace, encode_rate=50.0, playout_start=10.0, sample_dt=1.0)
        assert traj.levels[0] == 100.0
        assert traj.levels[2] == 600.0

    def test_constant_arrival_at_encode_rate_is_flat(self):
        times = np.arange(0.0, 50.0, 0.5)
        trace = flow_trace(times, sizes=[500] * len(times))  # 1000 B/s
        traj = estimate_buffer(trace, encode_rate=1000.0, playout_start=0.0, sample_dt=1.0)
        levels = traj.levels[5:]
        assert np.max(levels) - np.min(levels) <= 1000.0

    def test_clamped_at_zero(self):
        trace = flow_trace([0.0, 100.0], sizes=[10, 10])
        traj = estimate_buffer(trace, encode_rate=1e6, playout_start=0.0, sample_dt=10.0)
        assert np.min(traj.levels) == 0.0

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            estimate_buffer(flow_trace([0.0]), encode_rate=0.0, playout_start=0.0, sample_dt=1.0)


@pytest.fixture(scope="module")
def mq():
    labeled = generate(scenario_spec("MQ", seed=2))
    return labeled, profile(labeled.trace)


class TestProfile:

    def test_segments_tile_and_are_disjoint(self, mq):
        labeled, report = mq
        segments = report.segments
        assert segments[0].t_start == labeled.trace.t_start
        assert segments[-1].t_end == labeled.trace.t_end
        for a, b in zip(segments, segments[1:]):
            assert a.t_end == b.t_start
            assert a.t_end > a.t_start

    def test_mq_structure(self, mq):
        _, report = mq
        phases = [s.phase for s in report.segments]
        assert phases.count(FILLING) == 1
        assert phases.count(STEADY) == 1
        assert report.verdict.is_video_stream

    def test_deterministic_report(self, mq):
        labeled, report = mq
        again = profile(labeled.trace)
        assert again.to_json() == report.to_json()

    def test_time_shift_invariance(self, mq):
        labeled, report = mq
        offset = 4096.25
        shifted_report = profile(labeled.trace.shifted(offset))
        assert len(shifted_report.segments) == len(report.segments)
        for a, b in zip(report.segments, shifted_report.segments):
            assert b.phase == a.phase
            assert b.t_start == a.t_start + offset
            assert b.t_end == a.t_end + offset
            assert b.volume == a.volume

    def test_payload_scale_covariance(self, mq):
        labeled, report = mq
        scale = 3
        scaled = Trace.single_flow(labeled.trace.times, labeled.trace.sizes * scale,
                                   labeled.trace.flows[0])
        params = BurstParams(h_s=BurstParams().h_s * scale)
        scaled_report = profile(scaled, burst_params=params)
        assert [s.phase for s in scaled_report.segments] == [s.phase for s in report.segments]
        for a, b in zip(report.segments, scaled_report.segments):
            assert b.t_start == a.t_start and b.t_end == a.t_end
            assert b.volume == scale * a.volume
        assert scaled_report.rate_estimate.session == pytest.approx(
            scale * report.rate_estimate.session)

    def test_empty_trace_does_not_fail(self):
        report = profile(Trace.empty())
        assert report.segments == []
        assert not report.verdict.is_video_stream
        assert report.rate_estimate.session is None
        assert report.buffer is None

    def test_single_packet_trace(self):
        report = profile(flow_trace([1.0], sizes=[500]))
        assert report.segments == []
        assert not report.verdict.is_video_stream

    def test_single_packet_steady_run_with_h_n_1(self):
        trace = single_packet_steady_trace()
        params = BurstParams(h_n=1)
        # the lone packet is a zero-span steady candidate with a decrease nearby
        debug = profile(trace, burst_params=params, include_debug=True)
        lone = [c for c in confirm_steady(debug.bursts, params) if c.t_start == c.t_end]
        assert [(c.kind, c.t_start) for c in lone] == [(STEADY, 11.9)]
        events = debug.rate_series.events
        assert any(ev.direction == DECREASE
                   and abs(ev.time - 11.9) <= FusionParams().match_tolerance for ev in events)
        report = profile(trace, burst_params=params)
        assert_tiles_and_partitions(report.segments, trace.t_start, trace.t_end,
                                    trace.total_bytes)
        json.dumps(report.to_dict(), allow_nan=False)

    def test_multi_flow_rejected(self):
        flows = [FlowKey("10.0.0.1", "10.0.0.2", 1), FlowKey("10.0.0.3", "10.0.0.2", 1)]
        with pytest.raises(ValueError, match="demux"):
            profile(Trace([0.0, 0.1], [10, 10], [0, 1], flows))

    def test_buffer_uses_session_estimate(self, mq):
        _, report = mq
        assert report.buffer is not None
        assert report.buffer.encode_rate_used == report.rate_estimate.session
        assert report.buffer.playout_start == pytest.approx(RateParams().delta_t)

    def test_debug_payload_optional(self, mq):
        labeled, _ = mq
        report = profile(labeled.trace, include_debug=True)
        assert report.rate_series is not None
        assert report.bursts is not None
        series = report.rate_series
        assert [a.dtype for a in (series.rho, series.r_smooth, series.r_smooth_max,
                                  series.flags)] == [np.float64] * 3 + [np.int8]

    def test_reports_compare_by_identity(self, mq):
        labeled, report = mq
        again = profile(labeled.trace, include_debug=True)
        assert report == report and again.rate_series == again.rate_series
        assert report != again and report.buffer != again.buffer
        assert report.to_json() == again.to_json()


GAPS = [0.0, 0.0005, 0.01, 0.1, 0.5, 1.49, 1.5, 2.0, 5.0, 20.0]


class TestArbitraryFlows:
    @settings(max_examples=200, deadline=None)
    @given(packets=st.lists(st.tuples(st.sampled_from(GAPS), st.integers(1, 70_000)),
                            min_size=1, max_size=150),
           offset=st.sampled_from([0.0, 3.25, 1.7e9]),
           h_n=st.integers(1, 4))
    @example(packets=[(0.0, 500)], offset=0.0, h_n=1)  # one packet
    @example(packets=[(0.0, 30_000)] * 6, offset=1.7e9, h_n=1)  # zero span
    def test_profile_never_fails_and_keeps_invariants(self, packets, offset, h_n):
        gaps, sizes = zip(*packets)
        trace = flow_trace(offset + np.cumsum((0.0,) + gaps[1:]), sizes=sizes)
        report = profile(trace, burst_params=BurstParams(h_n=h_n))
        json.dumps(report.to_dict(), allow_nan=False)
        assert report.to_json() == slow_json(report)
        if trace.span > 1e-9:
            assert_tiles_and_partitions(report.segments, trace.t_start, trace.t_end,
                                        trace.total_bytes)
        else:
            assert report.segments == []


class TestIncremental:
    def test_matches_batch_profile(self):
        labeled = generate(scenario_spec("MQ", seed=6))
        trace = labeled.trace
        prof = StreamProfiler(flow=trace.flows[0])
        half = len(trace) // 2
        for t, s in zip(trace.times[:half], trace.sizes[:half]):
            prof.feed(float(t), int(s))
        mid = prof.report()  # query must not disturb later results
        assert mid.n_packets == half
        for t, s in zip(trace.times[half:], trace.sizes[half:]):
            prof.feed(float(t), int(s))
        assert prof.report().to_json() == profile(trace).to_json()

    def test_rejects_out_of_order(self):
        prof = StreamProfiler()
        prof.feed(1.0, 10)
        with pytest.raises(ValueError, match="order"):
            prof.feed(0.5, 10)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf"), -0.5])
    def test_rejects_bad_arrival_time(self, t):
        prof = StreamProfiler()
        prof.feed(1.0, 10)
        with pytest.raises(ValueError, match="finite"):
            prof.feed(t, 10)
        assert prof.n_packets == 1
        prof.feed(2.0, 10)
        assert prof.report().n_packets == 2

    def test_rejected_size_stores_nothing(self):
        prof = StreamProfiler()
        for size in (0, float("nan"), float("inf"), 2**63, 2.5, True, np.True_):
            with pytest.raises(ValueError):
                prof.feed(1.0, size)
        assert prof.n_packets == 0 and len(prof.trace()) == 0


def slow_json(report, **kwargs) -> str:
    """The report's JSON through the standard encoder alone."""
    return json.dumps(report.to_dict(**kwargs), indent=2, sort_keys=True)


def bursts_csv(bursts) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bursts.csv"
        write_bursts_csv(bursts, path)
        return path.read_bytes()


def debug_dump(report) -> list:
    """Everything a debug report holds, bit for bit: its JSON (with the buffer
    samples as array bytes), the bursts, and the rate series (the bytes of the
    four arrays ``write_rate_csv`` prints, and the events)."""
    buffer, series = report.buffer, report.rate_series
    samples = None if buffer is None else [buffer.times.tobytes(), buffer.levels.tobytes()]
    rate = None if series is None else [
        *(getattr(series, name).tobytes() for name in ("rho", "r_smooth", "r_smooth_max", "flags")),
        series.flags.dtype, series.t0, series.delta_t, series.events]
    return [report.to_json(include_buffer_samples=False), samples,
            report.bursts.tobytes(), rate]


def assert_queries_match_prefixes(times, sizes, cuts=None, **params):
    """Feed the packets one by one, query after each cut (by default after
    every packet) and compare with ``profile()`` of the prefix."""
    prof, fed_so_far = StreamProfiler(flow=TEST_FLOW, **params), 0
    for cut in range(len(times) + 1) if cuts is None else cuts:
        for k in range(fed_so_far, cut):
            prof.feed(float(times[k]), int(sizes[k]))
        fed_so_far = cut
        live = prof.report(include_debug=True)
        batch = profile(flow_trace(times[:cut], sizes=sizes[:cut]), include_debug=True, **params)
        assert debug_dump(live) == debug_dump(batch), f"query after {cut} packets"


def fed(packets, flow=TEST_FLOW) -> StreamProfiler:
    prof = StreamProfiler(flow=flow)
    for t, s in packets:
        prof.feed(t, s)
    return prof


def packet_train(n: int, start: float = 0.0):
    """``n`` packets, 10 ms apart, of varying size."""
    return [(start + 0.01 * i, 500 + i % 7) for i in range(n)]


class TestLiveStorage:
    """Packets live in two arrays that double when full; traces are views."""

    def test_trace_views_are_read_only(self):
        trace = fed(packet_train(5)).trace()
        for column in (trace.times, trace.sizes):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 1

    @pytest.mark.parametrize("n_before", [3, _INITIAL_CAPACITY - 1, _INITIAL_CAPACITY])
    def test_earlier_trace_and_report_survive_later_feeds(self, n_before):
        packets = packet_train(2 * _INITIAL_CAPACITY + 3)
        prof = fed(packets[:n_before])
        before = prof.trace()
        times, sizes = before.times.copy(), before.sizes.copy()
        report = prof.report(include_debug=True)
        text, csv_bytes = report.to_json(), bursts_csv(report.bursts)
        for t, s in packets[n_before:]:
            prof.feed(t, s)
        assert np.array_equal(before.times, times) and np.array_equal(before.sizes, sizes)
        assert report.to_json() == text and bursts_csv(report.bursts) == csv_bytes
        assert prof.n_packets == len(packets)
        assert np.array_equal(prof.trace().times, [t for t, _ in packets])
        assert np.array_equal(prof.trace().sizes, [s for _, s in packets])

    @pytest.mark.parametrize("t, size", [(0.0, 100), (float("nan"), 100), (50.0, 0),
                                         (50.0, 2**63), (50.0, float("nan")), (50.0, 2.5),
                                         (50.0, True)])
    def test_rejected_feed_at_capacity_changes_nothing(self, t, size):
        prof = fed(packet_train(_INITIAL_CAPACITY, start=1.0))
        before = prof.report().to_json()
        with pytest.raises(ValueError):
            prof.feed(t, size)
        assert prof.n_packets == _INITIAL_CAPACITY
        assert prof.report().to_json() == before
        prof.feed(50.0, 100)
        assert prof.n_packets == _INITIAL_CAPACITY + 1
        assert prof.trace().times[-1] == 50.0 and prof.trace().sizes[-1] == 100

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(),
           n=st.one_of(st.integers(1, 80),
                       st.sampled_from([_INITIAL_CAPACITY - 1, _INITIAL_CAPACITY,
                                        _INITIAL_CAPACITY + 1, 2 * _INITIAL_CAPACITY + 1])),
           offset=st.sampled_from([0.0, 3.25, 1.7e9]),
           seed=st.integers(0, 2**32 - 1))
    @example(data=None, n=_INITIAL_CAPACITY + 1, offset=1.7e9, seed=0)
    def test_report_at_any_cut_equals_profile_of_prefix(self, data, n, offset, seed):
        rng = np.random.default_rng(seed)
        times = offset + np.cumsum(np.concatenate([[0.0], rng.choice(GAPS, n - 1)]))
        sizes = rng.integers(1, 70_001, n)
        if data is None:
            cuts = [0, 1, _INITIAL_CAPACITY, n]
        else:
            cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=3))) + [n]
        assert_queries_match_prefixes(times, sizes, cuts)

    @settings(max_examples=60, deadline=None)
    @given(packets=st.lists(st.tuples(st.sampled_from(GAPS), st.integers(1, 70_000)),
                            min_size=1, max_size=40),
           offset=st.sampled_from([0.0, 3.25, 1.7e9]),
           h_n=st.integers(1, 4),
           delta_t=st.sampled_from([0.01, 0.1, 1.0]),
           a=st.sampled_from([0.02, 1.0]),
           h_t=st.sampled_from([0.05, 1.5]))
    def test_query_after_every_packet_of_a_short_flow(self, packets, offset, h_n, delta_t, a,
                                                      h_t):
        gaps, sizes = zip(*packets)
        times = offset + np.cumsum((0.0,) + gaps[1:])
        assert_queries_match_prefixes(times, sizes, rate_params=RateParams(delta_t=delta_t, a=a),
                                      burst_params=BurstParams(h_n=h_n, h_t=h_t))


def _targeted_flows():
    """(id, times, sizes, params) of flows whose queries hit one resumption edge each."""
    train = 0.05 * np.arange(160)  # an 8 s burst at 100 kB/s
    steady = np.concatenate([train, *(10.0 + 3.0 * i + 0.1 * np.arange(10) for i in range(4))])
    burst = 0.1 * np.arange(11)
    # arrivals on the 0.1 s buffer sample grid, the last steady burst's doubled
    on_grid = 0.1 * np.concatenate([np.arange(80), *(120 + 30 * i + np.arange(10)
                                                     for i in range(4)),
                                    np.repeat(240 + np.arange(10), 2)])
    single = single_packet_steady_trace()
    return [
        ("ties on the last packet", [0.0, 0.02, 0.02, 0.02, 1.0, 1.0, 1.0], [30_000] * 7, {}),
        ("every packet in the first bin", 0.01 * np.arange(10), [25_000] * 10, {}),
        ("packets reopen the burst within h_t",
         np.concatenate([burst, 1.0 + np.cumsum([1.49, 1.5, 1.49, 1.4999])]), [30_000] * 15, {}),
        ("first retained burst still open", steady, [5_000] * len(steady), {}),
        ("events only in the tail bins", np.concatenate([burst, [3.0, 3.05, 6.0]]),
         [50_000] * 14, {"rate_params": RateParams(a=0.5)}),
        ("h_n = 1", single.times, single.sizes, {"burst_params": BurstParams(h_n=1)}),
        ("1.7e9 offset", 1.7e9 + steady, [5_000] * len(steady), {}),
        ("ties on a buffer sample time", on_grid, [5_000] * len(on_grid), {}),
    ]


class TestLiveTargeted:
    """A query after every packet of flows built to hit one edge of the resumed stages."""

    @pytest.mark.parametrize("times, sizes, params",
                             [case[1:] for case in _targeted_flows()],
                             ids=[case[0] for case in _targeted_flows()])
    def test_query_after_every_packet(self, times, sizes, params):
        assert_queries_match_prefixes(np.asarray(times, dtype=np.float64), sizes, **params)

    def test_tail_bins_hold_events_of_their_own(self):
        times, sizes, params = _targeted_flows()[4][1:]
        report = profile(flow_trace(times[:11], sizes=sizes[:11]), include_debug=True, **params)
        last_bin = int(np.floor((times[10] - times[0]) / RateParams().delta_t)) + 1
        assert any(ev.bin_index > last_bin for ev in report.rate_series.events)

    @pytest.mark.parametrize("preset", ["MQ", "QC", "AQ", "bulk"])
    def test_preset_queried_every_2s_matches_profile(self, preset):
        if preset == "bulk":
            trace = generate_bulk(60.0, 1e6, seed=1).trace
        else:
            trace = generate(scenario_spec(preset, seed=4)).trace
        cuts = np.searchsorted(trace.times, np.arange(trace.t_start + 2.0, trace.t_end, 2.0))
        assert_queries_match_prefixes(trace.times, trace.sizes, [*cuts.tolist(), len(trace)])


class TestToJson:
    """``to_json`` splices the buffer samples into the standard encoder's text."""

    @pytest.mark.parametrize("preset", ["MQ", "HQ", "QC", "AQ", "bulk"])
    def test_presets_match_standard_encoder(self, preset):
        if preset == "bulk":
            trace = generate_bulk(60.0, 1e6, seed=1).trace
        else:
            trace = generate(scenario_spec(preset, seed=4)).trace
        report = profile(trace)
        assert (report.buffer is None) == (preset == "bulk")
        for include in (True, False):
            assert (report.to_json(include_buffer_samples=include)
                    == slow_json(report, include_buffer_samples=include))

    @pytest.mark.parametrize("n_samples", [0, 1, 2])
    def test_short_buffers(self, mq, n_samples):
        _, report = mq
        buffer = BufferTrajectory(np.arange(n_samples) + 0.5, np.arange(n_samples) * 1e3,
                                  playout_start=0.1, encode_rate_used=2.5e5)
        short = dataclasses.replace(report, buffer=buffer)
        assert short.to_json() == slow_json(short)
        assert short.to_json(include_buffer_samples=False) == slow_json(
            short, include_buffer_samples=False)

    def test_no_buffer(self):
        report = profile(flow_trace([1.0], sizes=[500]))
        assert report.buffer is None
        assert report.to_json() == slow_json(report)

    def test_flow_text_cannot_capture_the_splice(self):
        flow = FlowKey('"samples": []', 'a"b\\"samples": [', 80)
        labeled = generate(scenario_spec("MQ", seed=1))
        prof = fed(zip(labeled.trace.times.tolist(), labeled.trace.sizes.tolist()), flow=flow)
        report = prof.report()
        assert report.buffer is not None and report.flow == flow
        assert report.to_json() == slow_json(report)
        assert json.loads(report.to_json())["flow"]["src"] == '"samples": []'
