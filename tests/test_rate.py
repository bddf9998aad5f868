import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import streamprofiler
from streamprofiler import RateParams, aggregate, detect_changes, profile, smooth
from streamprofiler.cli import Config, _write_debug_csvs
from streamprofiler.rate import analyze
from streamprofiler.rate import DECREASE, INCREASE
from conftest import UNUSABLE_TIMES, columns, flow_trace, random_trace, reference_aggregate

rates = st.floats(min_value=0, max_value=1e7, allow_nan=False, allow_infinity=False)
# (value, run length) pairs: zero runs and plateaus of equal values
value_runs = st.lists(st.tuples(st.one_of(st.just(0.0), rates), st.integers(1, 6)), max_size=40)
attenuations = st.one_of(st.just(RateParams().a), st.just(1.0),
                         st.floats(min_value=0.0, max_value=1.0, exclude_min=True))


def runs_of(pairs):
    """The series of (value, run length) pairs, each value repeated for its run."""
    return np.array([v for v, n in pairs for _ in range(n)], dtype=np.float64)


# non-negative rates in runs: empty runs up to a few hundred bins, as between the
# bursts of a steady phase, and plateaus of one rate
rate_runs = st.lists(st.one_of(st.tuples(st.just(0.0), st.integers(1, 400)),
                               st.tuples(rates, st.integers(1, 6))), max_size=30).map(runs_of)
finite = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False)
signed_runs = st.lists(st.tuples(st.one_of(st.just(0.0), st.just(-0.0), finite),
                                 st.integers(1, 60)), max_size=30).map(runs_of)


def lfilter_smooth(rho, a):
    """The filter as ``scipy.signal.lfilter``, seeded with ``(1-a)*rho[0]``: the
    oracle ``smooth`` reproduces."""
    lfilter = pytest.importorskip("scipy.signal").lfilter
    if rho.size == 0:
        return np.zeros(0)
    return lfilter([a], [1.0, -(1.0 - a)], rho, zi=np.array([(1.0 - a) * rho[0]]))[0]


def plain_smooth(rho, params) -> list:
    """``smooth`` as a plain loop, one bin at a time in the filter's operation order."""
    prev, out = (1.0 - params.a) * rho[0], []
    for x in rho.tolist():
        prev = prev + params.a * x
        out.append(prev)
        prev = (1.0 - params.a) * prev
    return out


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
        {"delta_t": float("inf")}, {"delta_t": float("nan")},
        {"delta_t": True}, {"delta_t": "0.1"}, {"delta_t": None}, {"a": True}, {"c": None},
        {"delta_t": 10**400}, {"a": 10**400}, {"c": -10**400},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            RateParams(**kwargs)

    def test_defaults_valid(self):
        RateParams()


class TestAggregate:
    def test_two_packets_one_bin(self, rate_params):
        rho = aggregate(*columns([0.02, 0.05], sizes=[1200, 1400]), rate_params)
        assert rho.tolist() == [26000.0]

    def test_empty_bins_are_zero(self, rate_params):
        rho = aggregate(*columns([0.0, 0.25], sizes=[100, 300]), rate_params)
        assert rho.tolist() == [1000.0, 0.0, 3000.0]

    def test_empty_trace(self, rate_params):
        assert len(aggregate(*columns([]), rate_params)) == 0

    def test_conservation_random_trace(self, rate_params):
        # independent oracle: direct sum over all records
        trace = random_trace(seed=7, duration=10.0)
        rho = aggregate(trace.times, trace.sizes, rate_params)
        total = float(np.sum(rho) * rate_params.delta_t)
        assert total == pytest.approx(trace.total_bytes, rel=1e-6)

    def test_bins_aligned_to_flow_origin(self, rate_params):
        shifted = columns([100.02, 100.05], sizes=[1200, 1400])
        assert aggregate(*shifted, rate_params).tolist() == [26000.0]

    def test_tail_extends_with_empty_bins(self, rate_params):
        rho = aggregate(*columns([0.0, 0.05], sizes=[100, 100]), rate_params, tail=1.0)
        assert len(rho) == 11  # ceil((0.05 + 1.0) / 0.1) with data in bin 1
        assert np.all(rho[1:] == 0.0)

    @pytest.mark.parametrize("tail, message", [
        (-0.1, "must be finite and >= 0"), (math.inf, "must be finite"),
        (math.nan, "must be finite"), (True, "takes numbers, not True"),
        ("1", "takes numbers, not '1'"),
    ], ids=["-0.1", "inf", "nan", "True", "'1'"])
    def test_rejects_bad_tail(self, rate_params, tail, message):
        with pytest.raises(ValueError, match=f"^tail {message}"):
            aggregate(*columns([0.0, 1.0]), rate_params, tail=tail)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("times, delta_t, tail", [
        ([0.0, 10.0], 1e-300, 0.0), ([0.0, 10.0], 1e-18, 0.0), ([0.0, 1.0], 0.1, 1e300),
        ([0.0], 0.5, 2.0**62), ([0.0, 1e300], 1e-10, 1e300)],
        ids=["delta_t", "just-beyond", "tail", "exactly-2**63", "inf"])
    def test_rejects_bin_count_beyond_int64(self, times, delta_t, tail):
        with pytest.raises(ValueError, match=r"^delta_t .* and tail .* the count must be below"):
            aggregate(*columns(times), RateParams(delta_t=delta_t), tail=tail)

    def test_unsorted_rejected(self, rate_params):
        for times, message in UNUSABLE_TIMES:
            with pytest.raises(ValueError, match=message):
                aggregate(*columns(times), rate_params)


@st.composite
def aggregate_calls(draw):
    """Sorted arrival times with ties (or one pair out of order), an origin
    near zero or at an epoch, a bin width and a tail."""
    gaps = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 0.5), st.floats(0.5, 5.0)),
                         max_size=60))
    times = draw(st.sampled_from([0.0, 3.25, 1.7e9])) + np.cumsum([0.0] + gaps)
    if len(times) > 1 and draw(st.sampled_from([False] * 9 + [True])):
        i = draw(st.integers(0, len(times) - 2))
        times[i], times[i + 1] = times[i + 1] + 0.01, times[i]
    sizes = np.array(draw(st.lists(st.integers(1, 65_535), min_size=len(times),
                                   max_size=len(times))), dtype=np.int64)
    params = RateParams(delta_t=draw(st.sampled_from([0.1, 0.05, 1.0, 0.3, 7.0])))
    tail = draw(st.sampled_from([0.0, 1.5, 0.07, 40.0]))
    return times, sizes, params, tail


def _aggregate_outcome(fn, *args):
    """The series' dtype and bytes, or the error message."""
    try:
        rho = fn(*args)
    except ValueError as exc:
        return str(exc)
    return rho.dtype, rho.tobytes()


class TestAggregateReference:
    """``aggregate`` bins in place and returns the reference's bytes."""

    @settings(max_examples=300, deadline=None)
    @given(aggregate_calls())
    def test_matches_reference(self, call):
        times, sizes, params, tail = call
        before = times.tobytes(), sizes.tobytes()
        for args in ((times, sizes, params), (times, sizes, params, tail)):
            assert _aggregate_outcome(aggregate, *args) == \
                _aggregate_outcome(reference_aggregate, *args)
        assert (times.tobytes(), sizes.tobytes()) == before


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
        # after a leading zero bin, the response to a constant level x is
        # x * (1 - (1-a)^n); cross-check against a hand-unrolled recursion
        params = RateParams(a=0.02)
        x = 5.0e5
        n = 200
        out = smooth(np.concatenate([[0.0], np.full(n, x)]), params)[1:]
        closed = x * (1.0 - (1.0 - params.a) ** np.arange(1, n + 1))
        assert out == pytest.approx(closed, rel=1e-9)
        prev = 0.0
        for value in out:
            prev = (1 - params.a) * prev + params.a * x
            assert value == pytest.approx(prev, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(rate_runs, attenuations)
    @example(np.zeros(0), 0.02)
    @example(np.array([0.0]), 0.02)
    @example(np.array([7.0, 0.0]), 0.02)
    @example(np.array([0.0, 3.0, 0.0]), 0.02)
    @example(np.array([5e-324, 0.0, 1e7]), 0.02)
    @example(runs_of([(0.0, 50), (1.4e4, 3), (0.0, 5000), (2.0, 1), (0.0, 1), (9.9, 2), (0.0, 15)]), 0.02)
    def test_matches_lfilter_bit_for_bit(self, rho, a):
        # lengths 0-3, a zero first bin, long empty runs and a trailing one
        out = smooth(rho, RateParams(a=a))
        assert out.view(np.int64).tolist() == lfilter_smooth(rho, a).view(np.int64).tolist()

    @settings(max_examples=200, deadline=None)
    @given(signed_runs, attenuations)
    @example(np.array([-1e-300, 0.0, 0.0]), 0.5)
    def test_matches_lfilter_bit_for_bit_on_any_finite_input(self, rho, a):
        out = smooth(rho, RateParams(a=a))
        assert out.view(np.int64).tolist() == lfilter_smooth(rho, a).view(np.int64).tolist()

    @pytest.mark.parametrize("rho", [
        runs_of([(1.0, 1), *[(0.0, 1), (2.0, 1)] * 300, (0.0, 20000), (3.0, 2), (0.0, 9000)]),
        runs_of([(1.0, 1), *[(0.0, 1), (2.0, 1)] * 2000, *[(0.0, 200), (4.0, 1)] * 7,
                 (0.0, 20000), (3.0, 1)]),
    ], ids=["one-long-run-among-short-ones", "runs-of-many-lengths"])
    def test_long_empty_runs_match_the_plain_loop(self, rho):
        # empty runs of thousands of bins, as a whole-flow series with an idle tail
        # has, are longer than rate_runs draws; plain_smooth checks them without scipy
        assert smooth(rho, RateParams()).tolist() == plain_smooth(rho, RateParams())

    def test_import_leaves_scipy_unloaded(self):
        code = ("import sys, streamprofiler, streamprofiler.cli, streamprofiler.evaluate; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        src = str(Path(streamprofiler.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.strip() == "[]"

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, st.integers(1, 80), elements=rates))
    def test_contraction(self, rho):
        out = smooth(rho, RateParams())
        assert np.max(np.abs(out)) <= max(rho[0], np.max(rho)) + 1e-9


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


class TestAnalyze:
    def test_running_max_matches_brute_force(self, rate_params, tmp_path):
        # the debug rate dump's r_smooth_max column, which ``analyze`` leaves to its writer
        trace = random_trace(seed=21, duration=8.0)
        cfg = Config(rate=rate_params)
        series = analyze(trace.times, trace.sizes, rate_params, tail=cfg.burst.h_t)
        _write_debug_csvs(profile(trace, rate_params), trace, series, cfg, tmp_path / "flow")
        with open(tmp_path / "flow_rate.csv", encoding="utf-8", newline="") as fh:
            r_max = np.array([float(row["r_smooth_max"]) for row in csv.DictReader(fh)])
        brute = np.array([series.r_smooth[: i + 1].max() for i in range(len(series))])
        assert np.array_equal(r_max, brute)
        assert np.all(np.diff(r_max) >= 0)

    def test_event_times_are_bin_starts(self, rate_params):
        # one busy bin, then empty ones: the filter decays by 1 - a = 0.98 a bin and
        # falls below 1 - c = 0.4 of its peak 46 bins after the first (0.98**46 < 0.4)
        trace = flow_trace([10.0, 10.01, 10.02], sizes=[1000, 1000, 1000])
        series = analyze(trace.times, trace.sizes, rate_params, tail=10.0)
        assert [ev.direction for ev in series.events] == [INCREASE, DECREASE]
        assert series.events[0].time == 10.0
        assert series.events[1].time == 10.0 + 46 * rate_params.delta_t

    def test_runs_the_three_stages(self, rate_params):
        trace = random_trace(seed=5, duration=4.0)
        series = analyze(trace.times, trace.sizes, rate_params, tail=1.5)
        rho = aggregate(trace.times, trace.sizes, rate_params, tail=1.5)
        flags, events = detect_changes(smooth(rho, rate_params), rate_params)
        assert series.rho.tobytes() == rho.tobytes()
        assert series.r_smooth.tobytes() == smooth(rho, rate_params).tobytes()
        assert series.flags.tobytes() == flags.tobytes()
        assert [(ev.direction, ev.time) for ev in series.events] == [
            (d, trace.t_start + (b - 1) * rate_params.delta_t) for b, d in events]

    def test_empty_flow(self, rate_params):
        series = analyze([], [], rate_params, tail=1.5)
        assert len(series) == 0 and series.events == [] and series.flags.size == 0
