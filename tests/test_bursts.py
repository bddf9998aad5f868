import csv
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamprofiler import (
    BurstParams,
    StreamProfiler,
    classify,
    confirm_steady,
    filter_small,
    generate,
    scenario_spec,
    segment,
)
from streamprofiler.bursts import (
    KLASS_FILLING,
    KLASS_NONE,
    KLASS_STEADY,
    KLASS_UNSET,
    Burst,
    burst_rate,
)
from streamprofiler.trace import FILLING, STEADY
from conftest import (UNUSABLE_TIMES, columns, flow_trace, random_trace,
                      reference_write_bursts_csv)


def burst(duration, rate, size=None, t_start=0.0, klass=KLASS_UNSET):
    """One burst's fields in ``Burst`` field order: ``size`` bytes, or by
    default the bytes that give ``rate`` over ``duration``."""
    if size is None:
        size = round(rate * duration)
        assert burst_rate(Burst(0.0, duration, size, klass), BurstParams()) == rate
    return (t_start, t_start + duration, size, klass)


def as_bursts(*rows):
    return [Burst(*row) for row in rows]


def field(bursts, name):
    """One field of every burst, in order."""
    return [getattr(b, name) for b in bursts]


# -- reference: the list-of-dataclasses burst method the stages reproduce ----


@dataclass(frozen=True)
class RefBurst:
    index: int
    t_start: float
    t_end: float
    size: int
    duration: float
    rate: float
    klass: int | None = None


def ref_segment(trace, params):
    n = len(trace)
    if n == 0:
        return []
    gaps = np.diff(trace.times)
    breaks = np.flatnonzero(gaps >= params.h_t) + 1
    starts = np.concatenate([[0], breaks]).astype(np.int64)
    ends = np.concatenate([breaks, [n]]).astype(np.int64)
    sums = np.add.reduceat(trace.sizes, starts)
    bursts = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        t0 = float(trace.times[s])
        t1 = float(trace.times[e - 1])
        size = int(sums[i])
        duration = t1 - t0
        rate = size / max(duration, params.rate_duration_floor)
        bursts.append(RefBurst(i + 1, t0, t1, size, duration, rate))
    return bursts


def ref_filter_small(bursts, params):
    retained = [b for b in bursts if b.size >= params.h_s]
    return [replace(b, index=i + 1) for i, b in enumerate(retained)]


def ref_classify(bursts, params):
    if not bursts:
        return []
    r1 = bursts[0].rate
    out = []
    for b in bursts:
        if b.rate >= params.h_r * r1:
            klass = KLASS_FILLING if b.duration >= params.h_d else KLASS_STEADY
        else:
            klass = KLASS_NONE
        out.append(replace(b, klass=klass))
    return out


def ref_confirm_steady(bursts, params):
    """Candidates as (kind, t_start, t_end, first burst number, last burst number)."""
    candidates = []
    i = 0
    n = len(bursts)
    while i < n:
        klass = bursts[i].klass
        if klass == KLASS_NONE:
            i += 1
            continue
        j = i
        while j + 1 < n and bursts[j + 1].klass == klass:
            j += 1
        if klass == KLASS_FILLING or j - i + 1 >= params.h_n:
            kind = FILLING if klass == KLASS_FILLING else STEADY
            candidates.append((kind, bursts[i].t_start, bursts[j].t_end,
                               bursts[i].index, bursts[j].index))
        i = j + 1
    return candidates


def ref_write_bursts_csv(bursts, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "t_start", "t_end", "size", "duration", "rate", "klass"])
        for b in bursts:
            writer.writerow([b.index, repr(b.t_start), repr(b.t_end), b.size,
                             repr(b.duration), repr(b.rate),
                             "" if b.klass is None else b.klass])


def rows_of(bursts, params):
    """Exact (bit-level) burst fields, duration and rate, ignoring the class."""
    return [(b.t_start, b.t_end, b.size, b.t_end - b.t_start, burst_rate(b, params))
            for b in bursts]


def ref_rows_of(bursts):
    return [(b.t_start, b.t_end, b.size, b.duration, b.rate) for b in bursts]


class TestParams:
    @pytest.mark.parametrize("kwargs", [
        {"h_t": 0.0}, {"h_d": -1.0}, {"h_r": 0.0}, {"h_r": 1.0},
        {"h_s": 0.0}, {"h_n": 0}, {"h_n": 2.5}, {"rate_duration_floor": 0.0},
        {"h_t": float("inf")}, {"h_d": float("inf")}, {"h_s": float("inf")},
        {"h_s": float("nan")}, {"rate_duration_floor": float("inf")},
        {"h_n": True}, {"h_n": np.True_},
        {"h_t": True}, {"h_d": "0.1"}, {"h_s": None}, {"h_r": False},
        {"rate_duration_floor": "0.1"},
        {"h_t": 10**400}, {"h_s": 10**400}, {"rate_duration_floor": 10**400},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            BurstParams(**kwargs)

    def test_numpy_integer_h_n_valid(self):
        assert BurstParams(h_n=np.int64(3)) == BurstParams()


class TestSegment:
    def test_gap_splits(self, burst_params):
        bursts = segment(*columns([0.0, 0.5, 1.0, 3.0]), burst_params)
        assert list(zip(field(bursts, "t_start"), field(bursts, "t_end"))) == [
            (0.0, 1.0), (3.0, 3.0)]

    def test_all_gaps_below_threshold_one_burst(self, burst_params):
        bursts = segment(*columns([0.0, 1.4, 2.8]), burst_params)
        assert len(bursts) == 1
        assert bursts[0].t_end == 2.8

    def test_gap_exactly_h_t_splits(self, burst_params):
        bursts = segment(*columns([0.0, 1.5]), burst_params)
        assert len(bursts) == 2

    def test_partition_of_random_trace(self, burst_params):
        # brute-force oracle: walk the packets and count boundary gaps
        trace = random_trace(seed=13, duration=5.0, mean_rate=2e4, packet_size=800)
        bursts = segment(trace.times, trace.sizes, burst_params)
        gaps = np.diff(trace.times)
        expected_bursts = 1 + int(np.sum(gaps >= burst_params.h_t))
        assert len(bursts) == expected_bursts
        assert sum(field(bursts, "size")) == trace.total_bytes
        # reconstruct membership: burst spans are disjoint and ordered
        assert all(b.t_start - a.t_end >= burst_params.h_t for a, b in zip(bursts, bursts[1:]))

    def test_sizes_and_rates(self, burst_params):
        bursts = segment(*columns([0.0, 1.0], sizes=[600, 400]), burst_params)
        assert [type(v) for v in bursts[0]] == [float, float, int, int]
        assert bursts[0].size == 1000
        assert bursts[0].t_end - bursts[0].t_start == 1.0
        assert burst_rate(bursts[0], burst_params) == 1000.0

    def test_float_sizes_sum_and_truncate_per_burst(self, burst_params):
        # each burst's summed payload is truncated to an integer, as an int64 cast does
        bursts = segment([0.0, 0.5, 3.0], np.array([100.7, 200.6, 50.9]), burst_params)
        assert rows_of(bursts, burst_params) == [
            (0.0, 0.5, 301, 0.5, 602.0), (3.0, 3.0, 50, 0.0, 50 / burst_params.rate_duration_floor)]

    def test_single_packet_burst_uses_duration_floor(self, burst_params):
        bursts = segment(*columns([0.0], sizes=[500]), burst_params)
        assert bursts[0].t_end - bursts[0].t_start == 0.0
        assert burst_rate(bursts[0], burst_params) == 500 / burst_params.rate_duration_floor

    def test_bursts_start_unclassified(self, burst_params):
        bursts = segment(*columns([0.0, 0.5, 3.0]), burst_params)
        assert [type(b) for b in bursts] == [Burst, Burst]
        assert field(bursts, "klass") == [KLASS_UNSET, KLASS_UNSET]

    def test_empty_trace(self, burst_params):
        bursts = segment(*columns([]), burst_params)
        assert bursts == []

    def test_unsorted_rejected(self, burst_params):
        for times, message in UNUSABLE_TIMES:
            with pytest.raises(ValueError, match=message):
                segment(*columns(times), burst_params)


class TestBurstRate:
    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(st.tuples(
            st.one_of(st.integers(1, 2**53), st.integers(2**53, 2**63 - 1)),
            st.sampled_from([0.0, 1.7e9]) | st.floats(0.0, 2e9),
            st.sampled_from([0.0, 0.1]) | st.floats(0.0, 1.0) | st.floats(0.0, 1e3)),
            min_size=1, max_size=30),
        floor=st.sampled_from([0.1, 1e-3]) | st.floats(1e-9, 10.0),
    )
    def test_equals_numpy_rate_bit_for_bit(self, rows, floor):
        # the rate segment once computed for all bursts at once, from int64 sizes
        params = BurstParams(rate_duration_floor=floor)
        size = np.array([s for s, _, _ in rows], dtype=np.int64)
        t_start = np.array([t for _, t, _ in rows])
        t_end = t_start + np.array([d for _, _, d in rows])
        want = size / np.maximum(t_end - t_start, floor)
        got = [burst_rate(Burst(t0, t1, s, KLASS_UNSET), params)
               for t0, t1, s in zip(t_start.tolist(), t_end.tolist(), size.tolist())]
        assert [r.hex() for r in got] == [r.hex() for r in want.tolist()]


class TestFilterSmall:
    def test_drops_and_reindexes(self, burst_params):
        bursts = as_bursts(burst(1.0, 1e6, size=25_000), burst(1.0, 1e6, size=4_000),
                           burst(1.0, 1e6, size=100_000))
        retained = filter_small(bursts, burst_params)
        assert field(retained, "size") == [25_000, 100_000]

    def test_all_small(self, burst_params):
        assert len(filter_small(as_bursts(burst(1.0, 1e6, size=10)), burst_params)) == 0

    def test_none_small_is_identity(self, burst_params):
        bursts = as_bursts(burst(1.0, 1e6, size=30_000))
        assert filter_small(bursts, burst_params) == bursts

    def test_monotone_in_h_s(self):
        rng = np.random.default_rng(2)
        bursts = as_bursts(*(burst(1.0, 1e6, size=int(rng.integers(1, 60_000)))
                             for _ in range(40)))
        counts = [len(filter_small(bursts, BurstParams(h_s=h)))
                  for h in (1.0, 10_000.0, 20_000.0, 50_000.0, 70_000.0)]
        assert counts == sorted(counts, reverse=True)


class TestClassify:
    def test_rule_table(self, burst_params):
        # reference burst at 4 MB/s; thresholds h_d=5 s, h_r=0.3
        bursts = as_bursts(burst(6.0, 4e6), burst(6.0, 2e6), burst(2.0, 2e6),
                           burst(2.0, 0.3e6), burst(2.0, burst_params.h_r * 4e6))
        out = classify(bursts, burst_params)
        assert field(out, "klass") == [KLASS_FILLING, KLASS_FILLING,
                                       KLASS_STEADY, KLASS_NONE, KLASS_STEADY]

    def test_returns_a_copy(self, burst_params):
        bursts = as_bursts(burst(6.0, 4e6))
        classify(bursts, burst_params)
        assert field(bursts, "klass") == [KLASS_UNSET]

    def test_first_burst_classified_by_duration_alone(self, burst_params):
        assert classify(as_bursts(burst(10.0, 7e5)), burst_params)[0].klass == KLASS_FILLING
        assert classify(as_bursts(burst(1.0, 7e5)), burst_params)[0].klass == KLASS_STEADY

    def test_reference_rate_is_sessionwide(self, burst_params):
        # a throttled stretch later in the session fails the rate criterion
        out = classify(as_bursts(burst(10.0, 1e6), burst(8.0, 0.1e6)), burst_params)
        assert out[1].klass == KLASS_NONE

    def test_empty(self, burst_params):
        assert len(classify(as_bursts(), burst_params)) == 0

    def test_prefix_independent_of_later_bursts(self, burst_params):
        a = [burst(6.0, 4e6), burst(2.0, 2e6)]
        b = a + [burst(9.0, 0.1e6)]
        assert classify(as_bursts(*b), burst_params)[:2] == classify(as_bursts(*a), burst_params)


class TestConfirmSteady:
    def _classified(self, klasses):
        return as_bursts(*(burst(1.0, 1e6, t_start=10.0 * i, klass=k)
                           for i, k in enumerate(klasses)))

    def test_filling_plus_steady_run(self, burst_params):
        cands = confirm_steady(self._classified([1, -1, -1, -1]), burst_params)
        assert [c.kind for c in cands] == [FILLING, STEADY]
        assert cands[1].t_start == 10.0 and cands[1].t_end == 31.0

    def test_broken_run_yields_no_steady(self, burst_params):
        cands = confirm_steady(self._classified([1, -1, -1, 0, -1]), burst_params)
        assert [c.kind for c in cands] == [FILLING]

    def test_adjacent_filling_bursts_merge(self, burst_params):
        cands = confirm_steady(self._classified([1, 1, -1, -1, -1]), burst_params)
        assert [c.kind for c in cands] == [FILLING, STEADY]
        assert cands[0].t_end == 11.0

    def test_short_run_not_confirmed(self, burst_params):
        assert confirm_steady(self._classified([-1, -1]), burst_params) == []

    def test_unclassified_only(self, burst_params):
        assert confirm_steady(self._classified([0, 0, 0]), burst_params) == []

    def test_empty(self, burst_params):
        assert confirm_steady(as_bursts(), burst_params) == []

    def test_requires_classification(self, burst_params):
        with pytest.raises(ValueError, match="classified"):
            confirm_steady(as_bursts(burst(1.0, 1e6)), burst_params)

    def test_monotone_in_h_n(self):
        rng = np.random.default_rng(8)
        klasses = rng.choice([-1, 0, 1], size=200).tolist()
        bursts = self._classified(klasses)
        counts = []
        for h_n in (1, 2, 3, 5, 8):
            cands = confirm_steady(bursts, BurstParams(h_n=h_n))
            counts.append(sum(1 for c in cands if c.kind == STEADY))
        assert counts == sorted(counts, reverse=True)


class TestDetectPipeline:
    @pytest.mark.parametrize("stage", ["segment", "classify"])
    def test_csv_dump_matches_list_reference(self, tmp_path, burst_params, stage):
        trace, bp = generate(scenario_spec("MQ", seed=2)).trace, burst_params
        if stage == "segment":
            got, want = segment(trace.times, trace.sizes, bp), ref_segment(trace, bp)
        else:
            got = classify(filter_small(segment(trace.times, trace.sizes, bp), bp), bp)
            want = ref_classify(ref_filter_small(ref_segment(trace, bp), bp), bp)
        assert len(want) > 3
        reference_write_bursts_csv(got, bp, tmp_path / "got.csv")
        ref_write_bursts_csv(want, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_retained_bursts_respect_thresholds(self, burst_params):
        trace = random_trace(seed=4, duration=20.0, mean_rate=3e4, packet_size=1500)
        bursts = filter_small(segment(trace.times, trace.sizes, burst_params), burst_params)
        assert all(size >= burst_params.h_s for size in field(bursts, "size"))
        assert all(b.t_start - a.t_end >= burst_params.h_t for a, b in zip(bursts, bursts[1:]))

    @settings(max_examples=300, deadline=None)
    @given(
        gaps=st.lists(st.sampled_from([0.0, 0.001, 0.05, 0.5, 1.49, 1.5, 1.51, 3.0, 6.0, 20.0]),
                      max_size=120),
        data=st.data(),
        offset=st.sampled_from([0.0, 1.7e9]),
        h_n=st.integers(1, 5),
        h_s=st.sampled_from([1.0, 5_000.0, 20_000.0, 60_000.0]),
        h_d=st.sampled_from([0.5, 2.0, 5.0]),
    )
    def test_matches_list_reference(self, gaps, data, offset, h_n, h_s, h_d):
        sizes = data.draw(st.lists(st.integers(1, 70_000), min_size=len(gaps) + 1,
                                   max_size=len(gaps) + 1))
        trace = flow_trace(offset + np.concatenate([[0.0], np.cumsum(gaps)]), sizes=sizes)
        params = BurstParams(h_n=h_n, h_s=h_s, h_d=h_d)

        raw, ref_raw = segment(trace.times, trace.sizes, params), ref_segment(trace, params)
        assert rows_of(raw, params) == ref_rows_of(ref_raw)
        retained, ref_retained = filter_small(raw, params), ref_filter_small(ref_raw, params)
        assert rows_of(retained, params) == ref_rows_of(ref_retained)
        classified, ref_classified = classify(retained, params), ref_classify(ref_retained, params)
        assert rows_of(classified, params) == ref_rows_of(ref_classified)
        assert field(classified, "klass") == [b.klass for b in ref_classified]

        ref_cands = ref_confirm_steady(ref_classified, params)
        cands = confirm_steady(classified, params)
        assert [(c.kind, c.t_start, c.t_end) for c in cands] == [c[:3] for c in ref_cands]
        # a burst's number is its position plus one
        for _, t0, t1, first, last in ref_cands:
            assert classified[first - 1].t_start == t0
            assert classified[last - 1].t_end == t1
        # the profiler's retained bursts, resumed at every packet
        prof = StreamProfiler(burst_params=params)
        for t, s in zip(trace.times.tolist(), trace.sizes.tolist()):
            prof.feed(t, s)
            prof.report()
        assert prof._bursts == classified
