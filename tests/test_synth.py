import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamprofiler import (
    GenerationError,
    ScenarioSpec,
    generate,
    generate_bulk,
    scenario_spec,
)
from streamprofiler.synth import (
    HIGH_RATE,
    MEDIUM_RATE,
    SCENARIOS,
    THROTTLE_CAP,
    LabeledTrace,
    _Emitter,
    _spans_from_marks,
)
from streamprofiler.trace import FILLING, OTHER, STEADY


def reference_generate(spec):
    """The generator ``generate`` replaced (a ``state`` dict and two closures),
    kept verbatim: ``generate`` must write the same bytes, labels and errors."""
    for _, r in spec.encode_rates:
        if spec.fill_throughput <= r:
            raise GenerationError(
                f"fill_throughput ({spec.fill_throughput:.0f} B/s) must exceed the encoding "
                f"rate ({r:.0f} B/s) or the buffer never fills")

    rng = np.random.default_rng(spec.rng_seed)
    em = _Emitter(spec.packet_size, rng)
    marks: list[tuple[float, str]] = []

    fill = spec.fill_throughput
    seg_d = spec.segment_duration
    request_gap = seg_d / spec.throttling_factor
    duration = spec.video_duration
    pending_changes = list(spec.encode_rates[1:])
    windows = list(spec.throttle_windows)

    state = {"media": 0.0, "buf": 0.0, "quality": spec.encode_rates[0][1]}

    def active_window(t: float):
        for w in windows:
            if w[0] <= t < w[1]:
                return w
        return None

    def do_fill(at: float) -> float:
        """Back-to-back transfer until the buffer reaches its target."""
        q = state["quality"]
        deficit = spec.buffer_target - state["buf"]
        need = deficit * fill / (fill - q)  # play-out drains while filling
        room = (duration - state["media"]) * q
        nbytes = int(round(min(need, room)))
        if nbytes < 1:
            return at
        w = active_window(at)
        if w is not None and w[2] < fill:
            raise GenerationError(
                f"throttle window {w} overlaps a filling period at t={at:.2f}; unsupported")
        marks.append((at, FILLING))
        end = em.burst(at, nbytes, fill)
        state["buf"] += nbytes - q * (end - at)
        state["media"] += nbytes / q
        return end

    # initial fill, then request-paced operation
    t = do_fill(0.0)
    mode = STEADY
    if state["media"] < duration - 1e-9:
        marks.append((t, STEADY))
    next_req = t + request_gap

    while state["media"] < duration - 1e-9:
        q = state["quality"]
        if (duration - state["media"]) * q < 1.0:
            break
        # quality switch: discard the buffer and refill at the new rate
        if pending_changes and pending_changes[0][0] <= next_req:
            _, new_rate = pending_changes.pop(0)
            state["quality"] = new_rate
            state["buf"] = 0.0
            state["media"] = min(state["media"], next_req)  # replay from the play head
            end = do_fill(next_req)
            if state["media"] >= duration - 1e-9:
                break
            marks.append((end, STEADY))
            mode = STEADY
            next_req = end + request_gap
            continue

        w = active_window(next_req)
        if w is not None and w[2] < q:
            # cap below the encoding rate: degraded segments at adapted quality
            if mode != OTHER:
                marks.append((next_req, OTHER))
                mode = OTHER
            q_adapted = spec.throttle_quality_fraction * w[2]
            seg_media = min(seg_d, duration - state["media"])
            nbytes = max(1, int(round(q_adapted * seg_media)))
            em.burst(next_req, nbytes, w[2])
            state["media"] += seg_media
            state["buf"] += nbytes - q * request_gap
            if state["buf"] <= 0:
                raise GenerationError(
                    f"play-back buffer underrun at t={next_req:.2f}: cap {w[2]:.0f} B/s is "
                    f"below the encoding rate {q:.0f} B/s for too long")
            next_req += request_gap
            continue

        if mode == OTHER:
            # cap lifted: refill the deficit at line rate
            end = do_fill(next_req)
            mode = STEADY
            if state["media"] >= duration - 1e-9:
                break
            marks.append((end, STEADY))
            next_req = end + request_gap
            continue

        # plain steady-state segment; a non-degrading window still caps the wire
        seg_media = min(seg_d, duration - state["media"])
        nbytes = max(1, int(round(q * seg_media)))
        tx = min(fill, w[2]) if w is not None else fill
        em.burst(next_req, nbytes, tx)
        state["media"] += seg_media
        state["buf"] += nbytes - q * request_gap
        next_req += request_gap

    t_last = em.last_time()
    labels = _spans_from_marks(marks, t_last)
    return LabeledTrace(trace=em.build(), labels=labels)


class TestSpecValidation:
    def test_presets_construct(self):
        for name in ("MQ", "HQ", "QC", "AQ"):
            spec = scenario_spec(name, seed=1)
            assert spec.name == name

    def test_unknown_scenario_lists_presets(self):
        with pytest.raises(ValueError, match="MQ, HQ, QC, AQ"):
            scenario_spec("XX")

    def test_first_rate_must_start_at_zero(self):
        with pytest.raises(ValueError, match="t=0"):
            ScenarioSpec(encode_rates=((1.0, 1e5),), segment_duration=5, buffer_target=1e6,
                         fill_throughput=1e6, video_duration=60, packet_size=1400, rng_seed=0)

    def test_overlapping_windows_rejected(self):
        with pytest.raises(ValueError, match="non-overlapping"):
            ScenarioSpec(encode_rates=((0.0, 1e5),), segment_duration=5, buffer_target=1e6,
                         fill_throughput=1e6, video_duration=60, packet_size=1400, rng_seed=0,
                         throttle_windows=((10, 30, 1e4), (20, 40, 1e4)))

    def test_rate_lookup_is_piecewise(self):
        spec = scenario_spec("QC", seed=9)
        t_change = spec.encode_rates[1][0]
        assert spec.rate_at(0.0) == HIGH_RATE
        assert spec.rate_at(t_change - 1.0) == HIGH_RATE
        assert spec.rate_at(t_change + 1.0) == MEDIUM_RATE

    def test_change_epoch_inside_window(self):
        for seed in range(20):
            t_change = scenario_spec("QC", seed=seed).encode_rates[1][0]
            assert 120.0 <= t_change <= 240.0


class TestGenerate:
    def test_deterministic_bit_exact(self):
        a = generate(scenario_spec("QC", seed=3))
        b = generate(scenario_spec("QC", seed=3))
        assert np.array_equal(a.trace.times, b.trace.times)
        assert np.array_equal(a.trace.sizes, b.trace.sizes)
        assert a.labels == b.labels

    def test_different_seeds_differ(self):
        a = generate(scenario_spec("MQ", seed=1))
        b = generate(scenario_spec("MQ", seed=2))
        assert not np.array_equal(a.trace.times, b.trace.times)

    def test_labels_tile_trace_span(self):
        for name in ("MQ", "HQ", "QC", "AQ"):
            labeled = generate(scenario_spec(name, seed=4))
            labels = labeled.labels
            assert labels[0].t_start == 0.0
            assert labels[-1].t_end == labeled.trace.t_end
            for a, b in zip(labels, labels[1:]):
                assert a.t_end == b.t_start

    def test_mq_label_structure(self):
        labeled = generate(scenario_spec("MQ", seed=1))
        assert [s.phase for s in labeled.labels] == [FILLING, STEADY]

    def test_qc_label_structure(self):
        labeled = generate(scenario_spec("QC", seed=1))
        phases = [s.phase for s in labeled.labels]
        assert phases.count(FILLING) == 2
        assert phases.count(STEADY) == 2

    def test_aq_label_structure(self):
        labeled = generate(scenario_spec("AQ", seed=1))
        phases = [s.phase for s in labeled.labels]
        assert phases.count(OTHER) == 1
        assert phases.count(FILLING) == 2
        window = next(s for s in labeled.labels if s.phase == OTHER)
        assert window.duration >= 90.0  # capped stretch plus the wait for the refill request

    def test_payload_conservation_uninterrupted(self):
        # a session without quality changes or caps delivers exactly
        # video_duration * encode_rate bytes, up to per-burst rounding
        for name, rate in (("MQ", MEDIUM_RATE), ("HQ", HIGH_RATE)):
            spec = scenario_spec(name, seed=7)
            labeled = generate(spec)
            expected = spec.video_duration * rate
            assert abs(labeled.trace.total_bytes - expected) <= spec.packet_size

    def test_steady_long_run_average_near_encode_rate(self):
        spec = scenario_spec("MQ", seed=11)
        labeled = generate(spec)
        steady = next(s for s in labeled.labels if s.phase == STEADY)
        times, sizes = labeled.trace.times, labeled.trace.sizes
        # request-aligned windows of 3 segment durations hold whole bursts,
        # so their average pins the encoding rate; unaligned windows need to
        # span many segments before edge-cut bursts stop mattering
        window = 3 * spec.segment_duration
        first_request = steady.t_start + spec.segment_duration
        for start in np.arange(first_request, steady.t_end - window - 10.0,
                               2 * spec.segment_duration):
            got = sizes[(times >= start) & (times < start + window)].sum() / window
            assert got == pytest.approx(MEDIUM_RATE, rel=0.05)
        long_window = 25 * spec.segment_duration
        for start in np.arange(steady.t_start, steady.t_end - long_window - 10.0, 17.3):
            got = sizes[(times >= start) & (times < start + long_window)].sum() / long_window
            assert got == pytest.approx(MEDIUM_RATE, rel=0.05)

    def test_filling_is_one_burst_at_line_rate(self):
        spec = scenario_spec("MQ", seed=3)
        labeled = generate(spec)
        fill = labeled.labels[0]
        times = labeled.trace.times
        in_fill = times[(times >= fill.t_start) & (times <= fill.t_end)]
        assert np.max(np.diff(in_fill)) < 0.01  # back to back at fill throughput

    def test_aq_window_rate_respects_cap(self):
        spec = scenario_spec("AQ", seed=5)
        labeled = generate(spec)
        window = next(s for s in labeled.labels if s.phase == OTHER)
        times, sizes = labeled.trace.times, labeled.trace.sizes
        mask = (times >= window.t_start) & (times <= window.t_end)
        avg = sizes[mask].sum() / window.duration
        assert avg <= THROTTLE_CAP

    def test_infeasible_fill_throughput_names_constraint(self):
        spec = scenario_spec("MQ", seed=0)
        bad = dataclasses.replace(spec, fill_throughput=MEDIUM_RATE * 0.5)
        with pytest.raises(GenerationError, match="fill_throughput"):
            generate(bad)

    def test_window_over_fill_rejected(self):
        spec = scenario_spec("MQ", seed=0)
        bad = dataclasses.replace(spec, throttle_windows=((0.0, 50.0, 1e4),))
        with pytest.raises(GenerationError, match="filling"):
            generate(bad)

    def test_buffer_underrun_names_constraint(self):
        spec = scenario_spec("AQ", seed=0)
        # a cap that lasts far longer than the buffer can bridge
        bad = dataclasses.replace(spec, throttle_windows=((120.0, 690.0, THROTTLE_CAP),))
        with pytest.raises(GenerationError, match="underrun"):
            generate(bad)

    def test_throttling_factor_scales_average_rate(self):
        spec = scenario_spec("MQ", seed=2)
        fast = dataclasses.replace(spec, throttling_factor=1.25)
        labeled = generate(fast)
        steady = next(s for s in labeled.labels if s.phase == STEADY)
        times, sizes = labeled.trace.times, labeled.trace.sizes
        gap = spec.segment_duration / 1.25
        start = steady.t_start + gap  # first request comes one gap into steady state
        window = 15 * gap
        mask = (times >= start) & (times < start + window)
        avg = sizes[mask].sum() / window
        assert avg == pytest.approx(1.25 * MEDIUM_RATE, rel=0.02)

    def test_nonbiting_window_keeps_steady_label(self):
        spec = scenario_spec("MQ", seed=2)
        gentle = dataclasses.replace(spec, throttle_windows=((150.0, 200.0, MEDIUM_RATE * 4),))
        labeled = generate(gentle)
        assert [s.phase for s in labeled.labels] == [FILLING, STEADY]


def _outcome(gen, spec):
    """Times and sizes bytes plus labels, or the ``GenerationError`` message."""
    try:
        labeled = gen(spec)
    except GenerationError as exc:
        return str(exc)
    return labeled.trace.times.tobytes(), labeled.trace.sizes.tobytes(), labeled.labels


@st.composite
def session_specs(draw):
    """Random feasible and infeasible sessions: caps that bite or not, quality
    changes at t=0 and inside caps, short and long videos.

    Discrete choices use ``sampled_from``, which hypothesis draws about
    evenly; small integer ranges come out mostly at their lower bound.
    """
    rates = [draw(st.floats(2e3, 1e5)) for _ in range(draw(st.sampled_from([1, 2, 3])))]
    q0 = rates[0]
    # one spec in ten cannot fill: fill_throughput at or below the peak rate
    feasible = draw(st.sampled_from([True] * 9 + [False]))
    fill = max(rates) * (draw(st.floats(1.5, 20.0)) if feasible else 0.95)
    buffer_s = draw(st.floats(1.0, 120.0))  # seconds of q0 media
    # one video in four ends inside the first fill, the rest reach steady state
    video_duration = (buffer_s + draw(st.floats(20.0, 400.0))
                      if draw(st.sampled_from([True, True, True, False]))
                      else draw(st.floats(0.001, 5.0)))
    # caps start between the end of the initial fill and the last request,
    # about a buffer's worth of media before the end of the video
    t = buffer_s * q0 / max(fill - max(rates), 1.0)
    windows = []
    for _ in range(draw(st.sampled_from([0, 1, 2]))):
        t0 = t + draw(st.floats(0.0, 1.0)) * max(video_duration - buffer_s - t, 0.0)
        t = t0 + draw(st.floats(0.05, 1.5)) * buffer_s  # the longest ones underrun
        windows.append((t0, t, draw(st.floats(0.1, 3.0)) * q0))  # bites below q0
    changes, t = [(0.0, q0)], 0.0
    for r in rates[1:]:
        inside = [st.floats(t0, t1) for t0, t1, _ in windows if t1 > t]
        t = max(t, draw(st.one_of(st.just(t), st.floats(t, t + 300.0), *inside)))
        changes.append((t, r))
    return ScenarioSpec(
        encode_rates=tuple(changes),
        segment_duration=draw(st.floats(0.5, 10.0)),
        buffer_target=buffer_s * q0,
        fill_throughput=fill,
        video_duration=video_duration,
        packet_size=draw(st.integers(500, 3000)),
        rng_seed=draw(st.integers(0, 2**32)),
        throttle_windows=tuple(windows),
        throttle_quality_fraction=draw(st.floats(0.05, 1.0)),
        throttling_factor=draw(st.floats(0.8, 1.5)),
    )


class TestReference:
    """``generate`` writes what the closure-based generator wrote, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(session_specs())
    def test_random_specs_match(self, spec):
        assert _outcome(generate, spec) == _outcome(reference_generate, spec)

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_presets_match(self, name):
        for seed in range(50):
            spec = scenario_spec(name, seed=seed)
            assert _outcome(generate, spec) == _outcome(reference_generate, spec)


class TestSpecInputs:
    SPEC = dict(encode_rates=((0.0, 1e5),), segment_duration=5, buffer_target=1e6,
                fill_throughput=1e6, video_duration=60, packet_size=1400, rng_seed=0)

    @pytest.mark.parametrize("field, value", [
        ("packet_size", True), ("packet_size", 1400.5), ("packet_size", "1400"),
        ("rng_seed", 1.5), ("rng_seed", False), ("rng_seed", None),
    ])
    def test_spec_rejects_non_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ScenarioSpec(**{**self.SPEC, field: value})

    @pytest.mark.parametrize("field", ["segment_duration", "buffer_target", "fill_throughput",
                                       "video_duration", "throttling_factor"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_spec_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ScenarioSpec(**{**self.SPEC, field: value})

    @pytest.mark.parametrize("kwargs", [
        {"packet_size": 1400.5}, {"packet_size": True}, {"seed": 1.5},
    ])
    def test_bulk_rejects_non_integers(self, kwargs):
        with pytest.raises(ValueError, match="must be an integer"):
            generate_bulk(10.0, 5e5, **kwargs)

    def test_whole_floats_generate_as_integers(self):
        as_int = generate(ScenarioSpec(**self.SPEC))
        as_float = generate(ScenarioSpec(**{**self.SPEC, "packet_size": 1400.0,
                                            "rng_seed": np.int64(0)}))
        assert np.array_equal(as_int.trace.times, as_float.trace.times)
        assert np.array_equal(as_int.trace.sizes, as_float.trace.sizes)


class TestBulk:
    def test_defaults_are_the_bulk_preset(self):
        labeled = generate_bulk(seed=1)  # 60 s at 1 MB/s
        assert labeled.trace.total_bytes == 60_000_000
        assert labeled.trace.t_end == pytest.approx(60.0, rel=0.01)

    def test_no_burst_gap_anywhere(self, burst_params):
        labeled = generate_bulk(60.0, 1e6, seed=1)
        assert np.max(np.diff(labeled.trace.times)) < burst_params.h_t

    def test_single_other_label(self):
        labeled = generate_bulk(60.0, 1e6, seed=1)
        assert [s.phase for s in labeled.labels] == [OTHER]
        assert labeled.labels[0].t_end == labeled.trace.t_end

    def test_zero_duration_empty(self):
        labeled = generate_bulk(0.0, 1e6, seed=1)
        assert len(labeled.trace) == 0
        assert labeled.labels == []

    def test_deterministic(self):
        a = generate_bulk(10.0, 5e5, seed=9)
        b = generate_bulk(10.0, 5e5, seed=9)
        assert np.array_equal(a.trace.times, b.trace.times)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_bulk(10.0, -1.0)
