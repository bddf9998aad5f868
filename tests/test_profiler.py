import dataclasses
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamprofiler import (
    BurstParams,
    Decision,
    FusionParams,
    PhaseSegment,
    RateParams,
    StreamProfiler,
    Trace,
    decide,
    detect_stream,
    estimate_buffer,
    estimate_rate,
    fuse,
    generate,
    generate_bulk,
    profile,
    scenario_spec,
)
from streamprofiler.bursts import PhaseCandidate, classify, confirm_steady, filter_small, segment
from streamprofiler.cli import main as cli_main
from streamprofiler.profiler import _INITIAL_CAPACITY, BufferTrajectory
from streamprofiler import bursts as bursts_mod
from streamprofiler import profiler as profiler_mod
from streamprofiler import rate as rate_mod
from streamprofiler.rate import DECREASE, INCREASE, RateChange
from streamprofiler.trace import FILLING, OTHER, STEADY, FlowKey, write_trace
from conftest import (TEST_FLOW, assert_tiles_and_partitions, flow_arrays, flow_trace,
                      single_packet_steady_trace)


def seg(phase, t0, t1, volume=0):
    return PhaseSegment(phase=phase, t_start=t0, t_end=t1, volume=volume)


class TestPhaseSegment:
    def test_duration_and_mean_rate_derive_from_the_stored_fields(self):
        s = PhaseSegment(STEADY, 1.0, 3.0, 10)
        assert [f.name for f in dataclasses.fields(s)] == ["phase", "t_start", "t_end", "volume"]
        assert (s.duration, s.mean_rate) == (2.0, 5.0)
        assert list(s.to_dict().items()) == [
            ("phase", STEADY), ("t_start", 1.0), ("t_end", 3.0), ("volume_bytes", 10),
            ("duration_s", 2.0), ("mean_rate_Bps", 5.0), ("mean_rate_kbps", 0.04)]


class TestFuse:
    def test_agreeing_methods_tile_the_span(self, fusion_params):
        trace = flow_trace([0.0, 10.0, 41.0, 44.0, 100.0, 560.0])
        events = [RateChange("increase", 0.3), RateChange("decrease", 43.0)]
        candidates = [PhaseCandidate(FILLING, 0.0, 41.0),
                      PhaseCandidate(STEADY, 44.0, 560.0)]
        segments = fuse(*flow_arrays(trace), decide(candidates, events, fusion_params))
        assert [(s.phase, s.t_start, s.t_end) for s in segments] == [
            (FILLING, 0.0, 41.0), (OTHER, 41.0, 44.0), (STEADY, 44.0, 560.0)]

    def test_candidate_without_matching_event_becomes_other(self, fusion_params):
        trace = flow_trace([0.0, 44.0, 560.0])
        candidates = [PhaseCandidate(STEADY, 44.0, 560.0)]
        segments = fuse(*flow_arrays(trace), decide(candidates, [], fusion_params))
        assert [s.phase for s in segments] == [OTHER]
        assert segments[0].t_start == 0.0 and segments[0].t_end == 560.0

    def test_event_outside_tolerance_is_no_match(self, fusion_params):
        trace = flow_trace([0.0, 44.0, 560.0])
        events = [RateChange("decrease", 44.0 + fusion_params.match_tolerance + 0.5)]
        candidates = [PhaseCandidate(STEADY, 44.0, 560.0)]
        segments = fuse(*flow_arrays(trace), decide(candidates, events, fusion_params))
        assert [s.phase for s in segments] == [OTHER]

    def test_wrong_event_type_is_no_match(self, fusion_params):
        trace = flow_trace([0.0, 44.0, 560.0])
        events = [RateChange("increase", 44.0)]
        candidates = [PhaseCandidate(STEADY, 44.0, 560.0)]
        segments = fuse(*flow_arrays(trace), decide(candidates, events, fusion_params))
        assert [s.phase for s in segments] == [OTHER]

    def test_empty_trace_yields_no_segments(self):
        assert fuse(np.zeros(0), np.zeros(0, dtype=np.int64), []) == []

    def test_volumes_partition_payload(self, fusion_params):
        trace = flow_trace([0.0, 10.0, 41.0, 44.0, 100.0, 560.0], sizes=[10] * 6)
        events = [RateChange("increase", 0.0), RateChange("decrease", 43.0)]
        candidates = [PhaseCandidate(FILLING, 0.0, 41.0),
                      PhaseCandidate(STEADY, 44.0, 560.0)]
        segments = fuse(*flow_arrays(trace), decide(candidates, events, fusion_params))
        assert sum(s.volume for s in segments) == trace.total_bytes
        # boundary packets at 41.0 and 44.0 belong to the candidates, not the gap
        assert segments[0].volume == 30
        assert segments[1].volume == 0
        assert segments[2].volume == 30

    def test_zero_span_candidate_is_not_confirmed(self, fusion_params):
        trace = flow_trace([0.0, 11.9, 30.0], sizes=[10, 20, 30])
        events = [RateChange("decrease", 11.9)]
        candidates = [PhaseCandidate(STEADY, 11.9, 11.9)]
        segments = fuse(*flow_arrays(trace), decide(candidates, events, fusion_params))
        assert [s.phase for s in segments] == [OTHER]
        assert_tiles_and_partitions(segments, 0.0, 30.0, 60)

    def test_tile_takes_the_confirmed_candidates_in_any_order(self):
        times, cum = flow_arrays(flow_trace([0.0, 10.0, 41.0, 44.0, 100.0, 560.0],
                                            sizes=[10] * 6))
        decisions = [Decision(cand, None, None, True, True)
                     for cand in (PhaseCandidate(STEADY, 44.0, 560.0),
                                  PhaseCandidate(FILLING, 0.0, 41.0))]
        segments = fuse(times, cum, decisions)
        assert [(s.phase, s.t_start, s.t_end, s.volume) for s in segments] == [
            (FILLING, 0.0, 41.0, 30), (OTHER, 41.0, 44.0, 0), (STEADY, 44.0, 560.0, 30)]
        for unconfirmed in ([], [d._replace(confirmed=False) for d in decisions]):
            assert [(s.phase, s.volume) for s in fuse(times, cum, unconfirmed)] == [(OTHER, 60)]


def scan_confirms(cand, events, tolerance) -> bool:
    """The confirmation rule as a scan over every event."""
    wanted = INCREASE if cand.kind == FILLING else DECREASE
    return cand.t_end - cand.t_start > 1e-9 and any(
        ev.direction == wanted and abs(ev.time - cand.t_start) <= tolerance for ev in events)


# candidate starts and event times, with exact match-tolerance distances among them
DECISION_TIMES = st.one_of(st.floats(0.0, 60.0), st.sampled_from([0.0, 5.0, 10.0, 15.0]))


class TestDecide:
    @settings(max_examples=300, deadline=None)
    @given(candidates=st.lists(st.tuples(st.sampled_from([FILLING, STEADY]), DECISION_TIMES,
                                         st.sampled_from([0.0, 1e-10, 2.0])), max_size=6),
           events=st.lists(st.tuples(st.sampled_from([INCREASE, DECREASE]), DECISION_TIMES),
                           max_size=12),
           offset=st.sampled_from([0.0, 1.7e9]))
    def test_matches_a_scan_of_every_event(self, candidates, events, offset):
        cands = [PhaseCandidate(kind, offset + t, offset + t + span)
                 for kind, t, span in candidates]
        evs = [RateChange(d, offset + t) for d, t in events]  # any order
        params = FusionParams()
        decisions = decide(cands, evs, params)
        assert [d.candidate for d in decisions] == cands
        for d in decisions:
            start = d.candidate.t_start
            wanted = INCREASE if d.candidate.kind == FILLING else DECREASE
            gaps = [ev.time - start for ev in evs if ev.direction == wanted]
            assert d.confirmed == scan_confirms(d.candidate, evs, params.match_tolerance)
            assert d.settled
            if gaps:
                assert d.event in evs and d.event.direction == wanted
                assert d.distance == d.event.time - start
                assert abs(d.distance) == min(map(abs, gaps))
            else:
                assert d.event is None and d.distance is None

    def test_tie_goes_to_the_earlier_event(self):
        cand = PhaseCandidate(STEADY, 10.0, 20.0)
        events = [RateChange(DECREASE, 12.0), RateChange(DECREASE, 8.0)]
        (d,) = decide([cand], events, FusionParams(), horizon=11.0)
        assert d.event == events[1] and d.distance == -2.0 and d.confirmed and d.settled

    @pytest.mark.parametrize("t", [8.0, 12.0])
    def test_events_at_the_same_time_go_to_the_first_in_the_list(self, t):
        cand = PhaseCandidate(FILLING, 10.0, 20.0)
        events = [RateChange(INCREASE, t), RateChange(INCREASE, t)]
        (d,) = decide([cand], events, FusionParams())
        assert d.event is events[0] and d.distance == t - 10.0 and d.confirmed

    def test_settled_once_no_later_event_can_change_it(self):
        params = FusionParams()  # match_tolerance 5 s
        steady, lone = PhaseCandidate(STEADY, 10.0, 20.0), PhaseCandidate(STEADY, 12.0, 12.0)
        final, pending = RateChange(DECREASE, 8.9), RateChange(DECREASE, 11.9)

        def settled(events, horizon):
            return [d.settled for d in decide([steady, lone], events, params, horizon)]

        assert settled([], -math.inf) == [False, True]  # the rate method has not run
        assert settled([final], 9.0) == [True, True]  # a final event confirms it
        assert settled([pending], 11.9) == [False, True]  # its event may still move
        assert settled([], 15.0) == [False, True]  # an event at 15.0 would confirm it
        assert settled([], 15.5) == [True, True]
        assert settled([pending], math.inf) == [True, True]


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
        traj = estimate_buffer(*flow_arrays(trace), encode_rate=50.0, playout_start=10.0,
                               sample_dt=1.0)
        assert traj.levels[0] == 100.0
        assert traj.levels[2] == 600.0

    def test_constant_arrival_at_encode_rate_is_flat(self):
        times = np.arange(0.0, 50.0, 0.5)
        trace = flow_trace(times, sizes=[500] * len(times))  # 1000 B/s
        traj = estimate_buffer(*flow_arrays(trace), encode_rate=1000.0, playout_start=0.0,
                               sample_dt=1.0)
        levels = traj.levels[5:]
        assert np.max(levels) - np.min(levels) <= 1000.0

    def test_clamped_at_zero(self):
        trace = flow_trace([0.0, 100.0], sizes=[10, 10])
        traj = estimate_buffer(*flow_arrays(trace), encode_rate=1e6, playout_start=0.0,
                               sample_dt=10.0)
        assert np.min(traj.levels) == 0.0

    @pytest.mark.parametrize("name, value, message", [
        *(pytest.param(name, value, "must be finite", id=f"{name}-{value}") for name, value in [
            ("sample_dt", 0.0), ("sample_dt", -0.1), ("sample_dt", math.inf),
            ("sample_dt", math.nan), ("encode_rate", -1.0), ("encode_rate", math.inf),
            ("encode_rate", math.nan), ("playout_start", math.nan), ("playout_start", math.inf),
            ("playout_start", -math.inf)]),
        *(pytest.param(name, value, message, id=f"{name}-{value_id}")
          for name in ("encode_rate", "playout_start", "sample_dt")
          for value_id, value, message in [("True", True, "takes numbers, not True"),
                                           ("'x'", "x", "takes numbers, not 'x'"),
                                           ("10**400", 10**400, "must be finite")])])
    def test_rejects_bad_float_argument(self, name, value, message):
        kwargs = {"encode_rate": 50.0, "playout_start": 0.0, "sample_dt": 1.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} {message}"):
            estimate_buffer(*flow_arrays(flow_trace([0.0, 1.0])), **kwargs)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            estimate_buffer(*flow_arrays(flow_trace([0.0])), encode_rate=0.0, playout_start=0.0,
                            sample_dt=1.0)

    def test_fractions_give_float64_arrays(self):
        arrays = flow_arrays(generate(scenario_spec("MQ", seed=0)).trace)
        as_fractions = estimate_buffer(*arrays, encode_rate=Fraction(80750),
                                       playout_start=Fraction(5, 2), sample_dt=Fraction(1, 2))
        as_floats = estimate_buffer(*arrays, encode_rate=80750.0, playout_start=2.5, sample_dt=0.5)
        for got, want in ((as_fractions.times, as_floats.times),
                          (as_fractions.levels, as_floats.levels)):
            assert got.dtype == np.float64 and np.array_equal(got, want)

    @pytest.mark.parametrize("ts, arrived", [
        (0.1 * np.arange(4), np.array([7.0])), (0.1 * np.arange(4), np.zeros(3)),
        (0.1 * np.arange(4), np.zeros(5)), (0.1 * np.arange(4), np.zeros((4, 1))),
        (0.1 * np.arange(4).reshape(4, 1), np.zeros(4)), (np.float64(0.0), np.float64(7.0)),
    ], ids=["one-value", "short", "long", "2-d-arrived", "2-d-times", "0-d"])
    def test_samples_pair_each_time_with_its_bytes(self, ts, arrived):
        # a one-value ``arrived`` would broadcast over every sample time
        times, cum = flow_arrays(flow_trace([0.0, 0.3], sizes=[7, 5]))
        with pytest.raises(ValueError, match="^samples must be two 1-d arrays of equal length"):
            estimate_buffer(times, cum, 50.0, 0.0, 0.1, samples=(ts, arrived))

    def test_samples_take_lists(self):
        times, cum = flow_arrays(flow_trace([0.0, 0.3], sizes=[7, 5]))
        want = estimate_buffer(times, cum, 50.0, 0.0, 0.1)
        samples = (want.times.tolist(), [7, 7, 7, 12])
        got = estimate_buffer(times, cum, 50.0, 0.0, 0.1, samples=samples)
        assert np.array_equal(got.times, want.times) and np.array_equal(got.levels, want.levels)

    @staticmethod
    def assert_samples_give_the_plain_trajectory(times, sizes, encode_rate, playout_start,
                                                 sample_dt):
        times, cum = flow_arrays(flow_trace(times, sizes=sizes))
        plain = estimate_buffer(times, cum, encode_rate, playout_start, sample_dt)
        ts = times[0] + sample_dt * np.arange(len(plain.times))
        # the bytes of the packets at or before each sample time, summed one by one
        arrived = np.array([float(sum(int(s) for t, s in zip(times, sizes) if t <= sample))
                            for sample in ts.tolist()])
        given = estimate_buffer(times, cum, encode_rate, playout_start, sample_dt,
                                samples=(ts, arrived))
        assert given.times is ts
        assert plain.times.tobytes() == ts.tobytes()
        assert plain.levels.tobytes() == given.levels.tobytes()

    def test_samples_on_the_packet_ties_give_the_plain_trajectory(self):
        # packets on the 0.1 s sample grid, two at each of the last ten samples
        times = 0.1 * np.concatenate([np.arange(80), np.repeat(240 + np.arange(10), 2)])
        self.assert_samples_give_the_plain_trajectory(times, [5_000] * len(times), 80750.0,
                                                      0.1, 0.1)

    @settings(max_examples=100, deadline=None)
    @given(packets=st.lists(st.tuples(st.sampled_from([0.0, 0.05, 0.1, 0.37, 2.0]),
                                      st.integers(1, 70_000)), min_size=1, max_size=40),
           offset=st.sampled_from([0.0, 3.25, 1.7e9]),
           encode_rate=st.floats(1.0, 1e6),
           playout_delay=st.floats(-5.0, 5.0),
           sample_dt=st.sampled_from([0.05, 0.1, 1.0]))
    def test_samples_give_the_plain_trajectory(self, packets, offset, encode_rate,
                                               playout_delay, sample_dt):
        gaps, sizes = zip(*packets)
        times = offset + np.cumsum((0.0,) + gaps[1:])
        self.assert_samples_give_the_plain_trajectory(times, sizes, encode_rate,
                                                      offset + playout_delay, sample_dt)


# the stages that take cumulative bytes, each reduced to a comparable result
CUM_STAGES = {
    "fuse": lambda t, cum: fuse(t, cum, []),
    "estimate_buffer": lambda t, cum: estimate_buffer(t, cum, 0.5, 0.0, 1.0).levels.tolist(),
}


@pytest.mark.parametrize("stage", CUM_STAGES)
def test_cum_must_hold_one_value_per_packet(stage):
    call, times = CUM_STAGES[stage], [0.0, 1.0, 5.0]
    assert call(times, [1, 3, 6]) == call(np.array(times), np.array([1, 3, 6]))
    for cum in ([1, 3, 6, 10], [1, 3], []):
        with pytest.raises(ValueError, match="cum must match times in length"):
            call(times, cum)
    with pytest.raises(ValueError, match="cum must match times in length"):
        call([], [1])


@pytest.fixture(scope="module")
def mq():
    labeled = generate(scenario_spec("MQ", seed=2))
    return labeled, profile(labeled.trace)


class TestProfile:

    def test_fraction_rate_params_give_the_float_report(self, mq):
        labeled, report = mq
        params = RateParams(delta_t=Fraction(1, 10), a=Fraction(1, 50), c=Fraction(3, 5))
        assert params == RateParams()
        assert profile(labeled.trace, rate_params=params).to_json() == report.to_json()

    def test_h_t_tail_confirms_a_short_steady_run(self):
        # 6 s of fill, then one steady burst 3 s later (h_n = 1): the only rate
        # decrease falls in the h_t of empty bins that aggregate appends past
        # the last packet, 2.35 s after the steady burst starts; without those
        # bins the steady candidate is not confirmed and the flow reads
        # filling, other
        times = np.concatenate([np.arange(120) * 0.05, 5.95 + 3.0 + np.arange(10) * 0.1])
        report = profile(flow_trace(times, sizes=np.full(130, 5000)),
                         burst_params=BurstParams(h_n=1))
        assert [s.phase for s in report.segments] == [FILLING, OTHER, STEADY]
        assert report.segments[-1].t_start == 8.95

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
        shifted_report = profile(flow_trace(labeled.trace.times + offset,
                                            sizes=labeled.trace.sizes))
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
        lone = [c for c in confirm_steady(retained_bursts(trace.times, trace.sizes, params),
                                          params) if c.t_start == c.t_end]
        assert [(c.kind, c.t_start) for c in lone] == [(STEADY, 11.9)]
        events = rate_events(trace.times, trace.sizes, RateParams(), params)
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

    def test_non_finite_time_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            profile(flow_trace([0.0, 1.0, float("inf")]))

    @pytest.mark.parametrize("tolerance", [0.0, float("inf"), float("nan"), True, "0.1", None,
                                           pytest.param(10**400, id="10**400")])
    def test_invalid_match_tolerance(self, tolerance):
        with pytest.raises(ValueError, match="match_tolerance"):
            FusionParams(match_tolerance=tolerance)

    def test_empty_multi_flow_profiles(self):
        flows = [FlowKey("10.0.0.1", "10.0.0.2", 1), FlowKey("10.0.0.3", "10.0.0.2", 1)]
        report = profile(Trace([], [], [], flows))
        assert report.n_packets == 0 and report.segments == []

    def test_buffer_uses_session_estimate(self, mq):
        _, report = mq
        assert report.buffer is not None
        assert report.buffer.encode_rate_used == report.rate_estimate.session
        assert report.buffer.playout_start == pytest.approx(RateParams().delta_t)

    def test_reports_compare_by_identity(self, mq):
        labeled, report = mq
        again = profile(labeled.trace)
        assert report == report
        assert report != again and report.buffer != again.buffer
        assert report.to_json() == again.to_json()


GAPS = [0.0, 0.0005, 0.01, 0.1, 0.5, 1.49, 1.5, 2.0, 5.0, 20.0]
# (gap to the previous packet, payload bytes) per packet
PACKETS = st.lists(st.tuples(st.sampled_from(GAPS), st.integers(1, 70_000)),
                   min_size=1, max_size=150)
OFFSETS = st.sampled_from([0.0, 3.25, 1.7e9])


# 6 s of fill, then 10 packets of one steady burst 3 s later: with h_n 1 the
# steady candidate's only rate decrease lies in the h_t tail past the last packet
TAIL_CONFIRMED = [(0.0, 5000)] + [(0.05, 5000)] * 119 + [(3.0, 5000)] + [(0.1, 5000)] * 9
# a lone packet, then a steady burst from 7.6 s to 8.09 s: at a = 1 its rate
# decrease is timed 8.1 s, tol 0.5 past its start, but (7.6 + 0.5) / 0.1 floors
# to 80, a bin before the decrease's; the cut's second bin past it keeps that one
CUT_EDGE = [(0.0, 1), (7.6, 2000)] + [(0.01, 2000)] * 49 + [(3.0, 1)]


def packets_trace(packets, offset, scale=1):
    gaps, sizes = zip(*packets)
    return flow_trace(offset + np.cumsum((0.0,) + gaps[1:]), sizes=np.multiply(sizes, scale))


class TestArbitraryFlows:
    @settings(max_examples=200, deadline=None)
    @given(packets=PACKETS, offset=OFFSETS, h_n=st.integers(1, 4))
    @example(packets=[(0.0, 500)], offset=0.0, h_n=1)  # one packet
    @example(packets=[(0.0, 30_000)] * 6, offset=1.7e9, h_n=1)  # zero span
    def test_profile_never_fails_and_keeps_invariants(self, packets, offset, h_n):
        trace = packets_trace(packets, offset)
        report = profile(trace, burst_params=BurstParams(h_n=h_n))
        json.dumps(report.to_dict(), allow_nan=False)
        assert report.to_json() == slow_json(report)
        if trace.t_end - trace.t_start > 1e-9:
            assert_tiles_and_partitions(report.segments, trace.t_start, trace.t_end,
                                        trace.total_bytes)
        else:
            assert report.segments == []

    @settings(max_examples=200, deadline=None)
    @given(packets=PACKETS, offset=OFFSETS, h_n=st.integers(1, 4))
    def test_doubling_sizes_doubles_volumes_rates_and_buffer_exactly(self, packets, offset, h_n):
        # every byte count and rate doubles exactly in binary floating point,
        # so every comparison against a threshold comes out the same
        params = BurstParams(h_n=h_n)
        report = profile(packets_trace(packets, offset), burst_params=params)
        doubled = profile(packets_trace(packets, offset, scale=2),
                          burst_params=dataclasses.replace(params, h_s=2 * params.h_s))
        assert ([(s.phase, s.t_start, s.t_end) for s in doubled.segments]
                == [(s.phase, s.t_start, s.t_end) for s in report.segments])
        assert [s.volume for s in doubled.segments] == [2 * s.volume for s in report.segments]
        assert doubled.rate_estimate.per_steady == tuple(
            (i, 2 * r) for i, r in report.rate_estimate.per_steady)
        assert (doubled.buffer is None) == (report.buffer is None)
        if report.buffer is not None:
            assert doubled.buffer.times.tobytes() == report.buffer.times.tobytes()
            assert doubled.buffer.levels.tobytes() == (2 * report.buffer.levels).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(packets=PACKETS, offset=OFFSETS, h_n=st.integers(1, 4))
    def test_doubling_times_keeps_volumes_and_halves_rates_exactly(self, packets, offset, h_n):
        # every time, duration and time threshold doubles exactly in binary
        # floating point and every rate halves, so every comparison comes out the same
        rp, bp, fp = RateParams(), BurstParams(h_n=h_n), FusionParams()
        trace = packets_trace(packets, offset)
        report = profile(trace, rp, bp, fp)
        slow = profile(flow_trace(2 * trace.times, sizes=trace.sizes),
                       RateParams(delta_t=2 * rp.delta_t),
                       dataclasses.replace(bp, h_t=2 * bp.h_t, h_d=2 * bp.h_d,
                                           rate_duration_floor=2 * bp.rate_duration_floor),
                       FusionParams(match_tolerance=2 * fp.match_tolerance))
        assert ([(s.phase, s.t_start, s.t_end, s.volume) for s in slow.segments]
                == [(s.phase, 2 * s.t_start, 2 * s.t_end, s.volume) for s in report.segments])
        assert slow.rate_estimate.per_steady == tuple(
            (i, r / 2) for i, r in report.rate_estimate.per_steady)
        assert (slow.buffer is None) == (report.buffer is None)
        if report.buffer is not None:
            assert slow.buffer.times.tobytes() == (2 * report.buffer.times).tobytes()
            assert slow.buffer.levels.tobytes() == report.buffer.levels.tobytes()


# what ``feed`` rejects as not a number, for either argument
NON_NUMBERS = {"str": "10", "bytes": b"10", "None": None, "complex": 10j, "list": [10],
               "1-d array": np.array([10])}


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

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf"), -0.5,
                                   pytest.param(10**400, id="int beyond float range")])
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
        before = prof.report().to_json()
        for size in (0, float("nan"), float("inf"), 2**63, 2.5, True, np.True_,
                     *NON_NUMBERS.values()):
            with pytest.raises(ValueError, match="payload_size"):
                prof.feed(1.0, size)
        assert prof.n_packets == 0 and len(prof.trace()) == 0
        assert prof.report().to_json() == before

    @pytest.mark.parametrize("t", [*NON_NUMBERS.values(), True, np.True_],
                             ids=[*NON_NUMBERS.keys(), "True", "np.True_"])
    def test_non_number_time_stores_nothing(self, t):
        prof = StreamProfiler()
        prof.feed(1.0, 10)
        before = prof.report().to_json()
        with pytest.raises(ValueError, match="^t_arrival takes numbers, not "):
            prof.feed(t, 10)
        assert prof.n_packets == 1 and prof.report().to_json() == before

    @settings(max_examples=40, deadline=None)
    @given(packets=st.lists(st.tuples(st.sampled_from([0, 0, 1, 2, 5]), st.integers(1, 70_000)),
                            min_size=1, max_size=80)
           | st.sampled_from([_INITIAL_CAPACITY - 1, _INITIAL_CAPACITY, _INITIAL_CAPACITY + 1])
           .map(lambda n: [(i % 3 // 2, 500 + i % 7) for i in range(n)]),
           offset=st.sampled_from([0, 3, 1_700_000_000]))
    def test_fast_and_slow_checks_store_the_same(self, packets, offset):
        """Packets fed as (float, int) take the fast checks; numpy scalars, 0-d
        arrays and an int time with an integer-valued float size take the full ones."""
        gaps, sizes = zip(*packets)
        times = (offset + np.cumsum(gaps)).tolist()  # Python ints
        forms = [(float, int), (np.float64, np.int64), (int, float), (np.array, np.array)]
        stored = []
        for time_type, size_type in forms:
            prof = fed([(time_type(t), size_type(s)) for t, s in zip(times, sizes)])
            trace = prof.trace()
            stored.append((trace.times.tobytes(), trace.sizes.tobytes(), prof.report().to_json()))
        assert stored[1:] == [stored[0]] * 3


def slow_json(report, **kwargs) -> str:
    """The report's JSON through the standard encoder alone."""
    return json.dumps(report.to_dict(**kwargs), indent=2, sort_keys=True)


def retained_bursts(times, sizes, params: BurstParams) -> list:
    """The bursts ``profile()`` fuses, from the burst stage functions."""
    times, sizes = np.asarray(times, dtype=np.float64), np.asarray(sizes, dtype=np.int64)
    return classify(filter_small(segment(times, sizes, params), params), params)


def exact(bursts) -> list:
    """Each burst's fields, bit for bit: a float as its ``float.hex()``, an int with its type."""
    return [tuple(v.hex() if type(v) is float else (type(v), v) for v in b) for b in bursts]


def rate_events(times, sizes, rate_params: RateParams, burst_params: BurstParams) -> list:
    """The rate events ``profile()`` fuses when it runs the rate stages."""
    return rate_mod.analyze(times, sizes, rate_params, burst_params.h_t).events


def rate_cut(times, need: float, rate_params: RateParams = RateParams(),
             fusion_params: FusionParams = FusionParams()) -> float:
    """Where the rate stages stop for the latest unsettled candidate start
    ``need``: the first boundary of the rate bins from ``times[0]`` at least
    one bin past ``need + match_tolerance``."""
    t0, dt = float(times[0]), rate_params.delta_t
    return t0 + (math.floor((need + fusion_params.match_tolerance - t0) / dt) + 2) * dt


def assert_queries_match_prefixes(times, sizes, cuts=None, **params):
    """Feed the packets one by one, query after each cut (by default after
    every packet) and compare the report's JSON with ``profile()`` of the
    prefix, and the profiler's retained bursts with the burst stages run on
    the prefix. A query with nothing fed since the last one must return that
    same report."""
    cuts = range(len(times) + 1) if cuts is None else cuts
    prof, fed_so_far, last = StreamProfiler(flow=TEST_FLOW, **params), 0, (None, None)
    for cut in cuts:
        for k in range(fed_so_far, cut):
            prof.feed(float(times[k]), int(sizes[k]))
        fed_so_far = cut
        live = prof.report()
        if last[0] == cut:
            assert live is last[1], f"repeated query after {cut} packets"
            continue
        last = cut, live
        prefix = flow_trace(times[:cut], sizes=sizes[:cut])
        assert live.to_json() == profile(prefix, **params).to_json(), f"query after {cut} packets"
        assert exact(prof._bursts) == exact(retained_bursts(
            prefix.times, prefix.sizes, prof.burst_params)), f"bursts after {cut} packets"


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

    def test_storage_is_allocated_at_the_first_feed(self):
        prof = StreamProfiler(flow=TEST_FLOW)
        assert len(prof._times) == len(prof._sizes) == len(prof._cum) == 0
        assert prof.report().n_packets == 0 and len(prof.trace()) == 0
        prof.feed(1.0, 100)
        assert len(prof._times) == len(prof._sizes) == len(prof._cum) == _INITIAL_CAPACITY
        assert prof.report().to_json() == profile(flow_trace([1.0], sizes=[100])).to_json()

    @pytest.mark.parametrize("n_before", [3, _INITIAL_CAPACITY - 1, _INITIAL_CAPACITY])
    def test_earlier_trace_and_report_survive_later_feeds(self, n_before):
        packets = packet_train(2 * _INITIAL_CAPACITY + 3)
        prof = fed(packets[:n_before])
        before = prof.trace()
        times, sizes = before.times.copy(), before.sizes.copy()
        report = prof.report()
        text = report.to_json()
        for t, s in packets[n_before:]:
            prof.feed(t, s)
        assert np.array_equal(before.times, times) and np.array_equal(before.sizes, sizes)
        assert report.to_json() == text
        assert prof.n_packets == len(packets)
        assert np.array_equal(prof.trace().times, [t for t, _ in packets])
        assert np.array_equal(prof.trace().sizes, [s for _, s in packets])

    @pytest.mark.parametrize("t, size", [(0.0, 100), (float("nan"), 100), (50.0, 0),
                                         (50.0, 2**63), (50.0, float("nan")), (50.0, 2.5),
                                         (50.0, True),
                                         *(pytest.param(50.0, v, id=f"size {k}")
                                           for k, v in NON_NUMBERS.items()),
                                         *(pytest.param(v, 100, id=f"time {k}")
                                           for k, v in NON_NUMBERS.items())])
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

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), packets=PACKETS, offset=OFFSETS, h_n=st.integers(1, 4),
           a=st.sampled_from([0.02, 1.0]))
    def test_repeated_queries_equal_profile_of_prefix(self, data, packets, offset, h_n, a):
        gaps, sizes = zip(*packets)
        times = offset + np.cumsum((0.0,) + gaps[1:])
        # repeated cuts query again with no packet fed in between
        cuts = sorted(data.draw(st.lists(st.integers(0, len(times)), max_size=12))) + [len(times)]
        assert_queries_match_prefixes(times, sizes, cuts, rate_params=RateParams(a=a),
                                      burst_params=BurstParams(h_n=h_n))


def buffered_reports(trace, step: float, on_report=None,
                     phase: float = 0.0) -> tuple[StreamProfiler, list]:
    """The profiler fed ``trace`` and the reports with a buffer that it gave,
    queried as ``_cuts_every(trace, step, phase)``; ``on_report`` sees each new one."""
    prof, done, reports = StreamProfiler(flow=TEST_FLOW), 0, []
    for cut in _cuts_every(trace, step, phase):
        for k in range(done, cut):
            prof.feed(float(trace.times[k]), int(trace.sizes[k]))
        done = cut
        report = prof.report()
        if report.buffer is not None and (not reports or report is not reports[-1]):
            reports.append(report)
            if on_report is not None:
                on_report(report)
    return prof, reports


class TestSampleGrid:
    """Live reports' buffer sample times are read-only views of one grid that
    is built anew, at double the size, when a query needs more samples."""

    @pytest.fixture(scope="class")
    def mq_150s(self):
        trace = generate(scenario_spec("MQ", seed=0)).trace
        keep = trace.times < 150.0
        return flow_trace(trace.times[keep], sizes=trace.sizes[keep])

    def test_live_sample_times_are_read_only_views_of_one_grid(self, mq_150s):
        prof, reports = buffered_reports(mq_150s, 2.0)
        assert len(reports) > 20
        for report in reports:
            assert not report.buffer.times.flags.writeable
            with pytest.raises(ValueError):
                report.buffer.times[0] = 1.0
        # one grid per doubling, and the reports between two growths share it
        grids = [r.buffer.times.base for r in reports]
        assert len({id(g) for g in grids}) <= math.ceil(math.log2(len(prof._grid))) + 1
        for (a, grid_a), (b, grid_b) in zip(zip(reports, grids), zip(reports[1:], grids[1:])):
            assert np.shares_memory(a.buffer.times, b.buffer.times) == (grid_a is grid_b)
        assert np.shares_memory(reports[-2].buffer.times, reports[-1].buffer.times)
        assert np.shares_memory(reports[-1].buffer.times, prof._grid)

    def test_earlier_buffer_survives_the_grid_growing(self, mq_150s):
        snapshots = []
        prof, reports = buffered_reports(mq_150s, 2.0, lambda r: snapshots.append(
            (r.buffer.times.tobytes(), r.buffer.levels.tobytes())))
        # the grid grows past 1,024 samples (102.4 s) after the first buffered report
        assert len(reports[0].buffer.times) < 1024 < len(reports[-1].buffer.times)
        for report, (times, levels) in zip(reports, snapshots):
            assert report.buffer.times.tobytes() == times
            assert report.buffer.levels.tobytes() == levels
        n = reports[0].n_packets
        first = profile(flow_trace(mq_150s.times[:n], sizes=mq_150s.sizes[:n])).buffer
        assert (first.times.tobytes(), first.levels.tobytes()) == snapshots[0]


class TestDeferredBuffer:
    """A live report's buffer trajectory is built from the packets it was
    queried on when its samples are first read, whatever was fed or read since."""

    # queries halfway between two buffer samples, so that packets arrive
    # between a report's last packet and its next sample
    PHASE = RateParams().delta_t / 2

    @pytest.fixture(scope="class", params=["MQ", "QC", "AQ"])
    def session(self, request):
        """A preset's seed-0 session and ``profile()``'s JSON of each prefix a
        query every 2 s sees, by packet count."""
        trace = generate(scenario_spec(request.param, seed=0)).trace
        return trace, {n: profile(flow_trace(trace.times[:n], sizes=trace.sizes[:n])).to_json()
                       for n in set(_cuts_every(trace, 2.0, self.PHASE))}

    @pytest.mark.parametrize("order", ["reverse", "shuffled"])
    def test_reads_after_the_last_feed_equal_profile_of_each_prefix(self, session, order):
        trace, want = session
        prof, reports = buffered_reports(trace, 2.0, phase=self.PHASE)
        assert len(reports) > 100
        if order == "reverse":
            reports.reverse()
        else:
            np.random.default_rng(0).shuffle(reports)
        stored = []  # the final arrivals after each read
        for report in reports:
            assert report.to_json() == want[report.n_packets], f"{report.n_packets} packets"
            stored.append(prof._arrived[:prof._final].tobytes())
        for values in stored:
            assert prof._arrived[:len(values) // 8].tobytes() == values

    def test_estimate_buffer_runs_once_per_report_on_its_first_read(self, monkeypatch):
        calls = count_packets(monkeypatch, profiler_mod, "estimate_buffer")
        trace = generate(scenario_spec("MQ", seed=0)).trace
        n = int(trace.times.searchsorted(150.0))
        report = fed(zip(trace.times[:n].tolist(), trace.sizes[:n].tolist())).report()
        assert report.buffer is not None and calls == []
        data = report.to_dict(include_buffer_samples=False)
        assert "samples" not in data["buffer"] and calls == []
        assert data["buffer"]["playout_start"] == trace.times[0] + RateParams().delta_t
        assert len(report.buffer.times) > 0 and calls == [n]
        report.buffer.levels, report.buffer.samples(), report.to_json()
        assert calls == [n]
        profile(flow_trace(trace.times[:n], sizes=trace.sizes[:n]))
        assert calls == [n, n]


class TestSampleCount:
    """A buffer sample count of 2**63 or more raises ``ValueError``, not numpy's error."""

    # profile() and a live query sample the buffer every delta_t, 0.1 s by default
    MESSAGE = r"^sample_dt 0.1 gives 1e\+21 buffer samples over a 1e\+20 s span; the count must"

    def test_count_below_2_63(self):
        # no float lies between 2**63 - 1024 and 2**63
        assert profiler_mod._sample_count(np.array([0.0, 2.0**63 - 1024]), 1.0) == 2**63 - 1022
        for times, dt, count in (([0.0, 2.0**63], 1.0, "9.22e+18"), ([0.0, 1e300], 1e-300, "inf")):
            with pytest.raises(ValueError, match=rf"^sample_dt {dt} gives {re.escape(count)} "):
                profiler_mod._sample_count(np.array(times), dt)

    @pytest.fixture(scope="class")
    def gap(self):
        """The MQ seed-1 session and one more packet 1e20 s after its last."""
        trace = generate(scenario_spec("MQ", seed=1)).trace
        return flow_trace(np.append(trace.times, trace.times[-1] + 1e20),
                          sizes=np.append(trace.sizes, 1400))

    def test_profile_raises(self, gap):
        with pytest.raises(ValueError, match=self.MESSAGE):
            profile(gap)
        with pytest.raises(ValueError, match=self.MESSAGE):
            estimate_buffer(*flow_arrays(gap), 1e5, 0.0, 0.1)

    def test_live_query_returns_and_a_sample_read_raises(self, gap):
        report = fed(zip(gap.times.tolist(), gap.sizes.tolist())).report()
        assert report.n_packets == len(gap) and report.verdict.is_video_stream
        assert report.to_dict(include_buffer_samples=False)["buffer"]["encode_rate_used_Bps"] > 0
        for read in (lambda: report.buffer.times, lambda: report.buffer.levels,
                     report.buffer.samples, report.to_json, report.to_dict):
            with pytest.raises(ValueError, match=self.MESSAGE):
                read()


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
    # 25 kB steady bursts 1.8 s apart: the third makes a steady candidate
    # while the rate decrease that confirms it still sits in the tail bins
    pending = np.concatenate([train, *(9.6 + 1.8 * i + 0.05 * np.arange(5) for i in range(5))])
    # 40 kB steady bursts 2 s apart: the decrease in the tail bins that confirms
    # the steady candidate moves out of reach while the third burst goes on
    receding = np.concatenate([train, *(9.55 + 2.0 * i + 0.05 * np.arange(8) for i in range(5))])
    # with a = 1: a filling burst, an unclassified one, then a second filling
    # burst whose rate increase arrives in the bin its candidate appears in
    last_bin = np.concatenate([0.025 + 0.05 * np.arange(160), 12.0 + 0.4 * np.arange(4),
                               20.05 + 0.1 * np.arange(51), 25.05 + 0.01 * np.arange(1, 5),
                               [26.0]])
    last_bin_sizes = [5_000] * 164 + [3_500] * 51 + [12_000] * 4 + [100]
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
        ("steady candidate before its decrease is final", pending, [5_000] * len(pending), {}),
        ("confirming decrease moves out of reach", receding, [5_000] * len(receding), {}),
        ("confirming event in the last packet's bin", last_bin, last_bin_sizes,
         {"rate_params": RateParams(a=1.0)}),
    ]


def _cuts_every(trace, step, phase: float = 0.0):
    """The packets fed before each query of a monitor that queries every
    ``step`` s of trace time, ``phase`` s late, and once after the last packet."""
    cuts = np.searchsorted(trace.times, np.arange(trace.t_start + step + phase, trace.t_end, step))
    return [*cuts.tolist(), len(trace)]


class TestLiveTargeted:
    """A query after every packet of flows built to hit one edge of the resumed
    burst stages, the cached buffer arrivals or the deferred rate stages."""

    @pytest.mark.parametrize("times, sizes, params",
                             [case[1:] for case in _targeted_flows()],
                             ids=[case[0] for case in _targeted_flows()])
    def test_query_after_every_packet(self, times, sizes, params):
        assert_queries_match_prefixes(np.asarray(times, dtype=np.float64), sizes, **params)

    def test_steady_candidate_appears_before_its_decrease_is_final(self):
        times, sizes, _ = next(case[1:] for case in _targeted_flows()
                               if case[0] == "steady candidate before its decrease is final")
        dt, tolerance = RateParams().delta_t, FusionParams().match_tolerance
        bp = BurstParams()
        for n in range(1, len(times) + 1):
            steady = [c for c in confirm_steady(retained_bursts(times[:n], sizes[:n], bp), bp)
                      if c.kind == STEADY]
            if steady:
                break
        horizon = times[0] + np.floor((times[n - 1] - times[0]) / dt) * dt
        events = rate_events(times[:n], sizes[:n], RateParams(), bp)
        confirming = [ev for ev in events if ev.direction == DECREASE
                      and abs(ev.time - steady[0].t_start) <= tolerance]
        assert confirming and all(ev.time >= horizon for ev in confirming)
        whole = profile(flow_trace(times, sizes=sizes))
        assert [(s.phase, s.t_start) for s in whole.segments if s.phase == STEADY] == [
            (STEADY, steady[0].t_start)]

    def test_byte_total_past_int64_max_raises(self):
        # the first two packets, one burst, total 2**63 - 1 bytes; the third passes that
        times = [0.0, 1.0, 1.2, 2.0, 4.0]
        sizes = [2**62, 2**62 - 1, 1, 2**62, 5]
        assert_queries_match_prefixes(np.asarray(times[:2]), sizes[:2])
        prof, message = StreamProfiler(flow=TEST_FLOW), f"must total <= {2**63 - 1} bytes"
        for n, (t, s) in enumerate(zip(times, sizes), start=1):
            prof.feed(t, s)
            if n < 3:
                assert prof.report().total_bytes == sum(sizes[:n])
                continue
            with pytest.raises(ValueError, match=message):
                profile(flow_trace(times[:n], sizes=sizes[:n]))
            for _ in range(2):  # the same query again raises again
                with pytest.raises(ValueError, match=message):
                    prof.report()

    def test_tail_bins_hold_events_of_their_own(self):
        times, sizes, params = _targeted_flows()[4][1:]
        events = rate_events(times[:11], sizes[:11], params["rate_params"], BurstParams())
        dt = RateParams().delta_t
        last_bin_start = times[0] + np.floor((times[10] - times[0]) / dt) * dt
        assert any(ev.time > last_bin_start for ev in events)

    @pytest.mark.parametrize("preset", ["MQ", "QC", "AQ", "bulk"])
    def test_preset_queried_every_2s_matches_profile(self, preset):
        if preset == "bulk":
            trace = generate_bulk(60.0, 1e6, seed=1).trace
        else:
            trace = generate(scenario_spec(preset, seed=4)).trace
        assert_queries_match_prefixes(trace.times, trace.sizes, _cuts_every(trace, 2.0))


def count_packets(monkeypatch, module, name: str) -> list:
    """Patch the stage ``module.name`` to log the packet count of every call."""
    calls, stage = [], getattr(module, name)

    def counted(times, *args, **kwargs):
        calls.append(len(times))
        return stage(times, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _query_every_2s(trace) -> int:
    """Feed ``trace`` to a ``StreamProfiler`` queried every 2 s of trace time and
    after the last packet; return the number of queries."""
    cuts = _cuts_every(trace, 2.0)
    prof, fed_so_far = StreamProfiler(flow=TEST_FLOW), 0
    for cut in cuts:
        for t, s in zip(trace.times[fed_so_far:cut].tolist(),
                        trace.sizes[fed_so_far:cut].tolist()):
            prof.feed(t, s)
        fed_so_far = cut
        prof.report()
    return len(cuts)


class TestResumedBursts:
    """A query passes the burst stages only the packets fed since the last one,
    and classifies only the bursts that are new since then."""

    @pytest.mark.parametrize("source", ["HQ", "bulk"])
    def test_segment_sees_each_packet_once(self, monkeypatch, source):
        trace = (generate(scenario_spec("HQ", seed=0)) if source == "HQ"
                 else generate_bulk(60.0, 1e6, seed=1)).trace
        calls = count_packets(monkeypatch, bursts_mod, "segment")
        _query_every_2s(trace)
        assert sum(calls) == len(trace)

    @pytest.mark.parametrize("preset", ["HQ", "AQ"])
    def test_classify_sees_only_new_bursts(self, monkeypatch, preset):
        trace = generate(scenario_spec(preset, seed=0)).trace
        params = BurstParams()
        retained = len(filter_small(segment(trace.times, trace.sizes, params), params))
        rows = count_packets(monkeypatch, bursts_mod, "classify")
        queries = _query_every_2s(trace)
        # besides its new rows, a query passes the reference burst, and the open
        # burst again when its packets continue it; a query with no new packet passes none
        assert sum(rows) <= retained + queries

    def test_closed_bursts_stay_the_same_records(self):
        """A query extends the burst list in place: the bursts that were closed
        at the last query come back as the same objects, not as a copy."""
        trace = generate(scenario_spec("HQ", seed=0)).trace
        cuts = _cuts_every(trace, 2.0)
        prof, fed_so_far, seen, grew = StreamProfiler(flow=TEST_FLOW), 0, [], 0
        for cut in cuts:
            for t, s in zip(trace.times[fed_so_far:cut].tolist(),
                            trace.sizes[fed_so_far:cut].tolist()):
                prof.feed(t, s)
            fed_so_far = cut
            bursts = prof._bursts
            prof.report()
            assert prof._bursts is bursts
            # all but the last can no longer be continued by a later packet
            closed = seen[:-1]
            assert len(prof._bursts) >= len(closed)
            assert all(a is b for a, b in zip(closed, prof._bursts)), f"query after {cut} packets"
            grew += len(prof._bursts) > len(seen)
            seen = list(prof._bursts)
        assert grew > 50


class TestDeferredRate:
    """The rate method runs only while a candidate's confirmation is open."""

    @pytest.mark.parametrize("preset", ["HQ", "QC", "AQ"])
    def test_preset_queried_every_2s_bins_in_few_queries(self, monkeypatch, preset):
        trace = generate(scenario_spec(preset, seed=0)).trace
        cuts = _cuts_every(trace, 2.0)
        if preset == "HQ":
            assert len(cuts) == 299
        calls = count_packets(monkeypatch, rate_mod, "aggregate")
        prof, fed_so_far, binned, previous = StreamProfiler(flow=TEST_FLOW), 0, 0, None
        for cut in cuts:
            idle = cut == fed_so_far
            for t, s in zip(trace.times[fed_so_far:cut].tolist(),
                            trace.sizes[fed_so_far:cut].tolist()):
                prof.feed(t, s)
            fed_so_far, before = cut, len(calls)
            events, horizon = prof._events, prof._horizon
            report = prof.report()
            binned += len(calls) > before
            # a query that runs the rate stages bins exactly the packets before
            # its cut, which the candidates left unsettled by the last run place
            candidates = [d.candidate for d in prof._decisions]
            open_ = [d.candidate.t_start
                     for d in decide(candidates, events, FusionParams(), horizon) if not d.settled]
            fed_times = trace.times[:cut]
            assert calls[before:] == ([] if idle or not open_ else
                                      [int(fed_times.searchsorted(rate_cut(fed_times,
                                                                           max(open_))))])
            if idle:
                assert report is previous, f"repeated query after {cut} packets"
            else:
                batch = profile(flow_trace(trace.times[:cut], sizes=trace.sizes[:cut]))
                assert report.to_json() == batch.to_json(), f"query after {cut} packets"
            previous = report
        assert 1 <= binned <= 10

    def test_query_decides_once_unless_the_rate_stages_run(self, monkeypatch):
        trace = generate(scenario_spec("HQ", seed=0)).trace
        decided = count_packets(monkeypatch, profiler_mod, "decide")
        binned = count_packets(monkeypatch, rate_mod, "aggregate")
        _query_every_2s(trace)
        # a query computes a report unless no packet came since the last one
        computing = len(set(_cuts_every(trace, 2.0)))
        assert 1 <= len(binned) < computing
        assert len(decided) == computing + len(binned)

    def test_rate_stage_error_repeats_at_the_next_query(self):
        trace = generate(scenario_spec("MQ", seed=0)).trace
        prof = StreamProfiler(RateParams(delta_t=1e-300), flow=TEST_FLOW)
        for t, s in zip(trace.times[:5000].tolist(), trace.sizes[:5000].tolist()):
            prof.feed(t, s)
        for _ in range(2):  # the second query runs the rate stages on the same candidates
            with pytest.raises(ValueError, match=r"^delta_t 1e-300 and tail \S+ give"):
                prof.report()

    def test_query_after_a_rate_stage_error_matches_profile(self, monkeypatch):
        trace = generate(scenario_spec("MQ", seed=0)).trace
        times, sizes = trace.times[:6000], trace.sizes[:6000]
        prof, analyze = StreamProfiler(flow=TEST_FLOW), rate_mod.analyze

        def fails_once(*args, **kwargs):
            monkeypatch.setattr(rate_mod, "analyze", analyze)
            raise MemoryError

        monkeypatch.setattr(rate_mod, "analyze", fails_once)
        for t, s in zip(times[:3000].tolist(), sizes[:3000].tolist()):
            prof.feed(t, s)
        with pytest.raises(MemoryError):
            prof.report()
        for t, s in zip(times[3000:].tolist(), sizes[3000:].tolist()):
            prof.feed(t, s)
        assert prof.report().to_json() == profile(flow_trace(times, sizes=sizes)).to_json()

    def test_profile_bins_a_flow_without_candidates_only_for_debug(self, monkeypatch,
                                                                      tmp_path):
        trace = flow_trace([0.0, 0.5, 3.0, 9.0, 9.2], sizes=[1500] * 5)
        assert confirm_steady(retained_bursts(trace.times, trace.sizes, BurstParams()),
                              BurstParams()) == []
        calls = count_packets(monkeypatch, rate_mod, "aggregate")
        report = profile(trace)
        assert calls == []
        # the rate dump of ``analyze --debug`` bins it
        write_trace(trace, tmp_path / "flow.csv")
        assert cli_main(["analyze", str(tmp_path / "flow.csv"), "--out", str(tmp_path / "out"),
                         "--debug"]) == 0
        assert calls == [5]

    @settings(max_examples=60, deadline=None)
    @given(packets=st.lists(st.tuples(st.sampled_from(GAPS), st.integers(1, 70_000)),
                            min_size=1, max_size=40),
           h_n=st.integers(1, 4), a=st.sampled_from([0.02, 1.0]))
    def test_settled_decisions_hold_at_every_later_query(self, packets, h_n, a):
        gaps, sizes = zip(*packets)
        times = np.cumsum((0.0,) + gaps[1:])
        params = {"rate_params": RateParams(a=a), "burst_params": BurstParams(h_n=h_n)}
        prof, settled = StreamProfiler(flow=TEST_FLOW, **params), {}
        for n, (t, s) in enumerate(zip(times.tolist(), sizes), 1):
            prof.feed(t, s)
            prof.report()
            for d in prof._decisions:  # decided against the events and horizon held
                if d.settled:
                    settled.setdefault(d.candidate, d.confirmed)
            bp = params["burst_params"]
            for d in decide(confirm_steady(retained_bursts(times[:n], sizes[:n], bp), bp),
                            rate_events(times[:n], sizes[:n], params["rate_params"], bp),
                            FusionParams()):
                assert settled.get(d.candidate, d.confirmed) == d.confirmed


class TestRateCut:
    """The rate stages bin only the packets before the cut, a bin past the
    latest unsettled candidate start plus ``match_tolerance``."""

    def test_profile_bins_only_the_packets_before_the_cut(self, monkeypatch):
        trace = generate(scenario_spec("HQ", seed=0)).trace
        bp = BurstParams()
        candidates = confirm_steady(retained_bursts(trace.times, trace.sizes, bp), bp)
        # with no rate event yet, every candidate that spans time is unsettled
        need = max(c.t_start for c in candidates if c.t_end > c.t_start)
        binned = int(trace.times.searchsorted(rate_cut(trace.times, need)))
        calls = count_packets(monkeypatch, rate_mod, "aggregate")
        profile(trace)
        assert calls == [binned] and binned < len(trace)

    def test_cut_past_the_float_range_bins_every_packet_and_raises(self):
        # (need + tol - t0) / 5e-324 overflows: the cut is infinite, and
        # ``aggregate`` names the infinite bin count of the whole flow
        trace = generate(scenario_spec("MQ", seed=0)).trace
        with pytest.raises(ValueError, match=r"^delta_t 5e-324 and tail 1\.5 give inf rate bins"):
            profile(trace, RateParams(delta_t=5e-324))

    @settings(max_examples=300, deadline=None)
    @given(packets=st.lists(st.tuples(st.sampled_from(GAPS), st.integers(1, 70_000)),
                            min_size=1, max_size=60),
           offset=OFFSETS, h_n=st.integers(1, 4), a=st.sampled_from([0.02, 0.5, 1.0]),
           delta_t=st.sampled_from([0.01, 0.1, 1.0]), tol=st.sampled_from([0.5, 2.0, 5.0, 10.0]))
    # the only confirming decrease lies in the h_t of empty bins past the last packet
    @example(packets=TAIL_CONFIRMED, offset=0.0, h_n=1, a=0.02, delta_t=0.1, tol=5.0)
    @example(packets=TAIL_CONFIRMED, offset=1.7e9, h_n=1, a=0.02, delta_t=0.1, tol=2.0)
    @example(packets=CUT_EDGE, offset=0.0, h_n=1, a=1.0, delta_t=0.1, tol=0.5)
    def test_profile_matches_the_whole_flow_reference(self, packets, offset, h_n, a, delta_t,
                                                      tol):
        trace = packets_trace(packets, offset)
        times, sizes = trace.times, trace.sizes
        rp, bp, fp = RateParams(delta_t, a), BurstParams(h_n=h_n), FusionParams(tol)
        decisions = decide(confirm_steady(retained_bursts(times, sizes, bp), bp),
                           rate_events(times, sizes, rp, bp), fp)
        expected = fuse(times, np.cumsum(sizes), decisions)
        assert profile(trace, rp, bp, fp).segments == expected


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
        assert report.to_json() == slow_json(report)

    @pytest.mark.parametrize("n_samples", [0, 1, 2])
    def test_short_buffers(self, mq, n_samples):
        _, report = mq
        buffer = BufferTrajectory(np.arange(n_samples) + 0.5, np.arange(n_samples) * 1e3,
                                  playout_start=0.1, encode_rate_used=2.5e5)
        short = dataclasses.replace(report, buffer=buffer)
        assert short.to_json() == slow_json(short)

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
