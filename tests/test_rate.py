import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from streamprofiler import RateParams, aggregate, detect_changes, profile, smooth
from streamprofiler.rate import DECREASE, INCREASE
from conftest import flow_trace, random_trace

rates = st.floats(min_value=0, max_value=1e7, allow_nan=False, allow_infinity=False)
# (value, run length) pairs: zero runs and plateaus of equal values
value_runs = st.lists(st.tuples(st.one_of(st.just(0.0), rates), st.integers(1, 6)), max_size=40)


def reference_detect_changes(r_smooth, params):
    """The per-bin hysteresis loop that ``detect_changes`` vectorizes."""
    r = np.asarray(r_smooth, dtype=np.float64)
    n = r.size
    flags = np.empty(n, dtype=np.int8)
    events = []
    running_max = np.maximum.accumulate(r) if n else r
    f = -1
    c = params.c
    for t in range(n):
        m = running_max[t]
        if f == -1 and r[t] > c * m:
            f = 1
            events.append((t + 1, INCREASE))
        elif f == 1 and r[t] < (1.0 - c) * m:
            f = -1
            events.append((t + 1, DECREASE))
        flags[t] = f
    return flags, events


class TestParams:
    @pytest.mark.parametrize("kwargs", [
        {"delta_t": 0.0}, {"delta_t": -1.0},
        {"a": 0.0}, {"a": 1.5},
        {"c": 0.5}, {"c": 0.4}, {"c": 1.0},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            RateParams(**kwargs)

    def test_defaults_valid(self):
        RateParams()


class TestAggregate:
    def test_two_packets_one_bin(self, rate_params):
        trace = flow_trace([0.02, 0.05], sizes=[1200, 1400])
        rho = aggregate(trace, rate_params)
        assert rho.tolist() == [26000.0]

    def test_empty_bins_are_zero(self, rate_params):
        trace = flow_trace([0.0, 0.25], sizes=[100, 300])
        rho = aggregate(trace, rate_params)
        assert rho.tolist() == [1000.0, 0.0, 3000.0]

    def test_empty_trace(self, rate_params):
        from streamprofiler import Trace
        assert len(aggregate(Trace.empty(), rate_params)) == 0

    def test_conservation_random_trace(self, rate_params):
        # independent oracle: direct sum over all records
        trace = random_trace(seed=7, duration=10.0)
        rho = aggregate(trace, rate_params)
        total = float(np.sum(rho) * rate_params.delta_t)
        assert total == pytest.approx(trace.total_bytes, rel=1e-6)

    def test_bins_aligned_to_flow_origin(self, rate_params):
        shifted = flow_trace([100.02, 100.05], sizes=[1200, 1400])
        assert aggregate(shifted, rate_params).tolist() == [26000.0]

    def test_tail_extends_with_empty_bins(self, rate_params):
        trace = flow_trace([0.0, 0.05], sizes=[100, 100])
        rho = aggregate(trace, rate_params, tail=1.0)
        assert len(rho) == 11  # ceil((0.05 + 1.0) / 0.1) with data in bin 1
        assert np.all(rho[1:] == 0.0)

    def test_unsorted_rejected(self, rate_params):
        trace = flow_trace([1.0, 0.5])
        with pytest.raises(ValueError, match="sorted"):
            aggregate(trace, rate_params)

    @pytest.mark.parametrize("offset", [0.0, 1.7e9])
    def test_later_part_starts_at_its_first_bin(self, rate_params, offset):
        trace = random_trace(seed=5, duration=4.0).shifted(offset)
        whole = aggregate(trace, rate_params, tail=1.5)
        for k in (1, 17, len(trace) // 2, len(trace) - 1):
            first = int(np.floor((trace.times[k] - trace.t_start) / rate_params.delta_t))
            k0 = int(np.searchsorted(np.floor((trace.times - trace.t_start)
                                              / rate_params.delta_t), first))
            part = flow_trace(trace.times[k0:], sizes=trace.sizes[k0:])
            got = aggregate(part, rate_params, tail=1.5, t0=trace.t_start)
            assert got.tobytes() == whole[first:].tobytes()


class TestSmooth:
    def test_one_step(self):
        params = RateParams(a=0.02)
        out = smooth(np.array([1000.0, 2000.0]), params)
        assert out[0] == 1000.0
        assert out[1] == pytest.approx(1020.0)

    def test_constant_input_is_fixed_point(self):
        params = RateParams()
        rho = np.full(500, 4321.0)
        out = smooth(rho, params)
        assert out == pytest.approx(rho, rel=1e-12)

    def test_step_response_closed_form(self):
        # with an explicit zero seed, the response to a constant level x is
        # x * (1 - (1-a)^n); cross-check against a hand-unrolled recursion
        params = RateParams(a=0.02)
        x = 5.0e5
        n = 200
        out = smooth(np.full(n, x), params, seed=0.0)
        closed = x * (1.0 - (1.0 - params.a) ** np.arange(1, n + 1))
        assert out == pytest.approx(closed, rel=1e-9)
        prev = 0.0
        for value in out:
            prev = (1 - params.a) * prev + params.a * x
            assert value == pytest.approx(prev, rel=1e-12)

    def test_explicit_seed_first_step(self):
        params = RateParams(a=0.1)
        out = smooth(np.array([100.0]), params, seed=50.0)
        assert out[0] == pytest.approx(0.9 * 50.0 + 0.1 * 100.0)

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, st.integers(1, 80), elements=rates))
    def test_contraction(self, rho):
        out = smooth(rho, RateParams())
        assert np.max(np.abs(out)) <= max(rho[0], np.max(rho)) + 1e-9


    @settings(max_examples=100, deadline=None)
    @given(rho=arrays(np.float64, st.integers(1, 200), elements=rates),
           cuts=st.lists(st.integers(0, 200), max_size=6),
           a=st.sampled_from([0.02, 0.3, 1.0]))
    def test_resumed_from_last_value_is_bit_exact(self, rho, cuts, a):
        params = RateParams(a=a)
        pieces, start, seed = [], 0, None
        for cut in sorted(c for c in cuts if c < len(rho)) + [len(rho)]:
            out = smooth(rho[start:cut], params, seed=seed)
            if len(out):
                pieces.append(out)
                seed, start = out[-1], cut
        assert np.concatenate(pieces).tobytes() == smooth(rho, params).tobytes()


class TestDetectChanges:
    def test_increase_branch(self):
        # prior flag low, smoothed rate above c * running max
        params = RateParams(c=0.6)
        flags, events = detect_changes(np.array([1000.0, 700.0]), params)
        assert events[0] == (1, INCREASE)  # 1000 > 0.6 * 1000 flips at bin 1
        assert flags.tolist() == [1, 1]  # 700 in (400, 600*...): no change

    def test_decrease_branch(self):
        params = RateParams(c=0.6)
        flags, events = detect_changes(np.array([1000.0, 350.0]), params)
        assert events == [(1, INCREASE), (2, DECREASE)]  # 350 < 0.4 * 1000
        assert flags.tolist() == [1, -1]

    def test_hold_branch(self):
        params = RateParams(c=0.6)
        flags, events = detect_changes(np.array([1000.0, 700.0, 500.0]), params)
        assert len(events) == 1  # 700 and 500 sit between the two thresholds
        assert flags.tolist() == [1, 1, 1]

    def test_reincrease_after_decrease(self):
        params = RateParams(c=0.6)
        _, events = detect_changes(np.array([1000.0, 100.0, 700.0]), params)
        assert events == [(1, INCREASE), (2, DECREASE), (3, INCREASE)]

    def test_flag_starts_low_and_first_event_is_increase(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            series = rng.uniform(0, 1e6, size=rng.integers(1, 300))
            _, events = detect_changes(series, RateParams())
            if events:
                assert events[0][1] == INCREASE

    def test_events_strictly_alternate(self):
        rng = np.random.default_rng(11)
        series = np.abs(np.cumsum(rng.normal(0, 1e4, size=3000)))
        _, events = detect_changes(series, RateParams())
        directions = [d for _, d in events]
        assert all(a != b for a, b in zip(directions, directions[1:]))

    def test_at_most_one_branch_can_fire(self):
        # c > 0.5 makes the increase and decrease conditions exclusive
        params = RateParams(c=0.51)
        rng = np.random.default_rng(5)
        series = rng.uniform(0, 1e6, size=2000)
        running_max = np.maximum.accumulate(series)
        both = (series > params.c * running_max) & (series < (1 - params.c) * running_max)
        assert not both.any()

    def test_flag_changes_only_at_events(self):
        series = np.abs(np.cumsum(np.random.default_rng(9).normal(0, 1e4, size=1000)))
        flags, events = detect_changes(series, RateParams())
        change_bins = {b for b, _ in events}
        prev = -1
        for i, f in enumerate(flags):
            if f != prev:
                assert (i + 1) in change_bins
            prev = f


    @settings(max_examples=300, deadline=None)
    @given(value_runs, st.floats(min_value=0.5, max_value=1.0, exclude_min=True, exclude_max=True),
           st.booleans())
    @example([], 0.6, False)
    @example([(0.0, 1)], 0.6, False)
    @example([(5.0, 1)], 0.6, False)
    @example([(0.0, 3), (10.0, 2), (0.0, 4), (10.0, 1)], 0.6, True)
    def test_matches_per_bin_loop(self, runs, c, smoothed):
        series = np.repeat([v for v, _ in runs], [k for _, k in runs]).astype(np.float64)
        params = RateParams(c=c)
        if smoothed:
            series = smooth(series, params)
        flags, events = detect_changes(series, params)
        ref_flags, ref_events = reference_detect_changes(series, params)
        assert flags.dtype == np.int8
        assert flags.tolist() == ref_flags.tolist()
        assert events == ref_events
        assert all(type(b) is int for b, _ in events)


    @settings(max_examples=100, deadline=None)
    @given(runs=value_runs.filter(len), cuts=st.lists(st.integers(1, 240), max_size=6))
    def test_resumed_with_running_max_and_flag(self, runs, cuts):
        params = RateParams()
        series = smooth(np.concatenate([np.full(n, v) for v, n in runs]), params)
        running_max = np.maximum.accumulate(series)
        want_flags, want_events = detect_changes(series, params)
        flags, events, start, flag = [], [], 0, -1
        for cut in sorted(c for c in cuts if c < len(series)) + [len(series)]:
            f, ev = detect_changes(series[start:cut], params,
                                   running_max=running_max[start:cut], flag=flag)
            flags.append(f)
            events += [(start + b, d) for b, d in ev]
            start, flag = cut, int(f[-1]) if len(f) else flag
        assert np.concatenate(flags).tolist() == want_flags.tolist()
        assert events == want_events


class TestAnalyze:
    def test_running_max_matches_brute_force(self, rate_params):
        trace = random_trace(seed=21, duration=8.0)
        series = profile(trace, rate_params=rate_params, include_debug=True).rate_series
        brute = np.array([series.r_smooth[: i + 1].max() for i in range(len(series))])
        assert np.array_equal(series.r_smooth_max, brute)
        assert np.all(np.diff(series.r_smooth_max) >= 0)

    def test_event_times_are_bin_starts(self, rate_params):
        trace = flow_trace([10.0, 10.01, 10.02], sizes=[1000, 1000, 1000])
        series = profile(trace, rate_params=rate_params, include_debug=True).rate_series
        assert series.events[0].bin_index == 1
        assert series.events[0].time == 10.0
        assert series.t0 + (3 - 1) * series.delta_t == pytest.approx(10.2)
