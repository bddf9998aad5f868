import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from streamprofiler import (FusionParams, GeneratorDefaults, PhaseSegment, PhaseSpan, confusion,
                            generate, generate_bulk, nrmse, profile, scenario_spec, score_run)
from streamprofiler.evaluate import (
    _GATES,
    DEFAULT_THRESHOLDS,
    PRESETS,
    SpanMismatchError,
    _intersect,
    build_preset,
    check_report,
    phase_counts,
    quality_change_detected,
    run_scenario,
    throttle_window_detected,
)
from streamprofiler.synth import MEDIUM_RATE
from streamprofiler.trace import FILLING, OTHER, PHASES, STEADY


def seg(phase, t0, t1):
    return PhaseSegment(phase=phase, t_start=t0, t_end=t1, volume=0)


def spans_to_segments(labels):
    return [seg(s.phase, s.t_start, s.t_end) for s in labels]


TRUTH = [PhaseSpan(0.0, 100.0, FILLING), PhaseSpan(100.0, 300.0, STEADY),
         PhaseSpan(300.0, 450.0, OTHER), PhaseSpan(450.0, 600.0, FILLING)]


class TestConfusion:
    def test_identity_is_diagonal(self):
        cm = confusion(spans_to_segments(TRUTH), TRUTH)
        assert np.allclose(cm.seconds, np.diag([250.0, 200.0, 150.0]))
        for phase in PHASES:
            assert cm.diagonal_percent(phase) == pytest.approx(100.0)

    def test_two_second_shift_puts_six_seconds_off_diagonal(self):
        # three internal boundaries each shifted by +2 s on a 600 s span
        shifted = [seg(FILLING, 0.0, 102.0), seg(STEADY, 102.0, 302.0),
                   seg(OTHER, 302.0, 452.0), seg(FILLING, 452.0, 600.0)]
        cm = confusion(shifted, TRUTH)
        off_diagonal = cm.total_seconds - np.trace(cm.seconds)
        assert off_diagonal == pytest.approx(6.0)

    def test_rows_of_percent_form_sum_to_100(self):
        shifted = [seg(FILLING, 0.0, 103.0), seg(STEADY, 103.0, 290.0),
                   seg(OTHER, 290.0, 460.0), seg(FILLING, 460.0, 600.0)]
        pct = confusion(shifted, TRUTH).percent()
        for row in pct:
            assert np.nansum(row) == pytest.approx(100.0, abs=0.01)

    def test_durations_sum_to_span(self):
        cm = confusion(spans_to_segments(TRUTH), TRUTH)
        assert cm.total_seconds == pytest.approx(600.0)

    def test_span_mismatch_rejected(self):
        short = [seg(FILLING, 0.0, 550.0)]
        with pytest.raises(SpanMismatchError):
            confusion(short, TRUTH)

    def test_empty_rejected(self):
        with pytest.raises(SpanMismatchError):
            confusion([], TRUTH)

    def test_absent_phase_row_is_none(self):
        truth = [PhaseSpan(0.0, 10.0, FILLING)]
        cm = confusion([seg(FILLING, 0.0, 10.0)], truth)
        assert cm.diagonal_percent(STEADY) is None


def loop_intersect(predicted, labels):
    """The per-cut loop that ``_intersect`` replaced: its bit-for-bit reference."""
    index = {phase: i for i, phase in enumerate(PHASES)}
    cuts = np.unique(np.concatenate([
        [s.t_start for s in predicted], [s.t_end for s in predicted],
        [s.t_start for s in labels], [s.t_end for s in labels]]))
    pred_starts = np.array([s.t_start for s in predicted])
    true_starts = np.array([s.t_start for s in labels])
    out = np.zeros((3, 3))
    for a, b in zip(cuts[:-1], cuts[1:]):
        mid = (a + b) / 2.0
        pi = min(max(int(np.searchsorted(pred_starts, mid, side="right")) - 1, 0),
                 len(predicted) - 1)
        ti = min(max(int(np.searchsorted(true_starts, mid, side="right")) - 1, 0),
                 len(labels) - 1)
        out[index[labels[ti].phase], index[predicted[pi].phase]] += b - a
    return out


@st.composite
def tilings(draw):
    """A truth tiling and a predicted tiling of the same span. Predicted cuts
    are drawn from the truth's cuts and from anywhere in the span, and either
    end of the prediction may sit one float outside the truth's (within the
    span tolerance). Either list may be a single piece."""
    times = st.floats(-1e3, 1e6, allow_nan=False, allow_infinity=False)
    truth_cuts = sorted(set(draw(st.lists(times, min_size=2, max_size=8))))
    if len(truth_cuts) < 2:
        truth_cuts.append(truth_cuts[0] + 1.0)
    lo, hi = truth_cuts[0], truth_cuts[-1]
    inner = draw(st.lists(st.sampled_from(truth_cuts) | st.floats(lo, hi), max_size=8))
    pred_cuts = sorted({lo, hi, *inner})
    pred_cuts[0] = draw(st.sampled_from([lo, np.nextafter(lo, -np.inf)]))
    pred_cuts[-1] = draw(st.sampled_from([hi, np.nextafter(hi, np.inf)]))
    phases = st.sampled_from(PHASES)
    labels = [PhaseSpan(a, b, draw(phases)) for a, b in zip(truth_cuts, truth_cuts[1:])]
    predicted = [seg(draw(phases), a, b) for a, b in zip(pred_cuts, pred_cuts[1:])]
    return predicted, labels


class TestIntersect:
    @given(tilings())
    @example(([seg(STEADY, 0.0, 600.0)], TRUTH))
    @example((spans_to_segments(TRUTH), [PhaseSpan(0.0, 600.0, OTHER)]))
    @example((spans_to_segments(TRUTH), TRUTH))
    def test_matches_the_per_cut_loop_bit_for_bit(self, tiling):
        got, want = _intersect(*tiling), loop_intersect(*tiling)
        assert got.tobytes() == want.tobytes()

    def test_matches_the_loop_on_a_preset_run(self):
        labeled, _ = build_preset("AQ", 3, GeneratorDefaults())
        segments = profile(labeled.trace).segments
        assert len(segments) > 4
        got = _intersect(segments, labeled.labels)
        assert got.tobytes() == loop_intersect(segments, labeled.labels).tobytes()


class TestNrmse:
    def test_perfect_estimates_give_zero(self):
        assert nrmse([(100.0, 100.0), (250.0, 250.0)]) == 0.0

    def test_single_pair_two_percent(self):
        rate = 80_750.0
        assert nrmse([(1.02 * rate, rate)]) == pytest.approx(0.02)

    def test_scale_invariant(self):
        pairs = [(105.0, 100.0), (96.0, 100.0), (101.0, 99.0)]
        scaled = [(a * 7.5, b * 7.5) for a, b in pairs]
        assert nrmse(scaled) == pytest.approx(nrmse(pairs))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            nrmse([])

    def test_nonpositive_truth_rejected(self):
        with pytest.raises(ValueError):
            nrmse([(1.0, 0.0)])


class TestChecks:
    def test_phase_counts(self):
        segments = [seg(FILLING, 0, 1), seg(OTHER, 1, 2), seg(STEADY, 2, 3),
                    seg(FILLING, 3, 4), seg(STEADY, 4, 5)]
        assert phase_counts(segments) == {FILLING: 2, STEADY: 2, OTHER: 1}
        assert quality_change_detected(segments)
        assert not quality_change_detected(segments[:3])

    def test_throttle_window_detected(self):
        labels = [PhaseSpan(0, 100, FILLING), PhaseSpan(100, 200, STEADY),
                  PhaseSpan(200, 290, OTHER), PhaseSpan(290, 300, FILLING)]
        good = [seg(FILLING, 0, 100), seg(STEADY, 100, 198), seg(OTHER, 198, 290),
                seg(FILLING, 290, 300)]
        assert throttle_window_detected(good, labels, match_tolerance=5.0)
        no_refill = [seg(FILLING, 0, 100), seg(STEADY, 100, 198), seg(OTHER, 198, 300)]
        assert not throttle_window_detected(no_refill, labels, match_tolerance=5.0)
        window_missed = [seg(FILLING, 0, 100), seg(STEADY, 100, 250), seg(OTHER, 250, 290),
                         seg(FILLING, 290, 300)]
        assert not throttle_window_detected(window_missed, labels, match_tolerance=5.0)


class TestTruthAgainstItself:
    def test_diagonal_confusion_and_zero_nrmse(self):
        cm = confusion(spans_to_segments(TRUTH), TRUTH)
        off_diagonal = cm.total_seconds - np.trace(cm.seconds)
        assert off_diagonal == 0.0
        true_rates = [(80_750.0, 80_750.0), (168_250.0, 168_250.0)]
        assert nrmse(true_rates) == 0.0


class TestBatch:
    def test_small_batch_structure(self):
        report = run_scenario("MQ", 2, base_seed=100)
        assert report["runs"] == 2
        assert report["checks"]["video_detected_runs"] == 2
        assert report["nrmse"]["pooled"] is not None
        assert set(report["rate_cdf"]) == {"1"}
        cdf = report["rate_cdf"]["1"]
        assert cdf["quantile"] == [0.5, 1.0]
        assert cdf["estimated_Bps"] == sorted(cdf["estimated_Bps"])

    def test_batch_deterministic(self):
        a = run_scenario("QC", 2, base_seed=5)
        b = run_scenario("QC", 2, base_seed=5)
        for key in ("confusion", "nrmse", "checks", "per_run"):
            assert a[key] == b[key]

    def test_bulk_batch_scores_its_other_time(self):
        report = run_scenario("bulk", 3)
        seconds = np.array(report["confusion"]["seconds"])
        assert seconds[:2].sum() == 0.0  # truth is one ``other`` span per run
        assert seconds.sum() == pytest.approx(3 * 60.0, rel=1e-3)
        diagonal = report["confusion_diagonal_percent"]
        assert diagonal[FILLING] is None and diagonal[STEADY] is None
        assert isinstance(diagonal[OTHER], float)
        assert set(report["checks"].values()) == {0}

    def test_runs_must_be_positive(self):
        for n_runs in (0, -1, True, "2"):
            with pytest.raises(ValueError, match="n_runs"):
                run_scenario("MQ", n_runs)
        assert run_scenario("MQ", 2.0)["runs"] == 2  # a whole float is an integer

    def test_numpy_integer_arguments_give_a_json_report(self):
        report = run_scenario("MQ", np.int64(1), base_seed=np.int64(2))
        plain = run_scenario("MQ", 1, base_seed=2)
        for r in (report, plain):
            del r["elapsed_s"]
        assert json.dumps(report) == json.dumps(plain)

    def test_base_seed_must_be_an_integer(self):
        for base_seed in ("2", None, True):
            with pytest.raises(ValueError, match="base_seed"):
                run_scenario("MQ", 1, base_seed=base_seed)
        assert run_scenario("MQ", 1, base_seed=2.0)["base_seed"] == 2  # a whole float is an integer

    def test_check_report_flags_violations(self):
        report = run_scenario("MQ", 2, base_seed=3)
        assert check_report(report) == []
        strict = {"min_diagonal_percent": 100.0}
        violations = check_report(report, strict)
        assert violations and "steady_state" in violations[0]


# every value a gate reads; each gate below fires on it
GATED = {"scenario": "XX", "runs": 4,
         "confusion_diagonal_percent": {FILLING: 97.5, STEADY: None, OTHER: 12.5},
         "nrmse": {"pooled": None, "per_steady_phase": {}},
         "checks": {"video_detected_runs": 3, "exact_two_filling_two_steady_runs": 1,
                    "throttle_window_and_refill_runs": 2}}
ALL_FIRE = {"max_video_detected_fraction": 0.5, "min_video_detected_fraction": 1.0,
            "min_window_refill_fraction": 0.96, "min_exact_two_two_fraction": 0.5,
            "max_nrmse_first_steady": 0.035, "max_nrmse": 0.02, "min_diagonal_percent": 98}


class TestGates:
    def test_every_gate_fires_with_its_message_in_table_order(self):
        assert check_report(GATED, ALL_FIRE) == [
            "XX: confusion diagonal for filling is 97.50% < 98%",
            "XX: confusion diagonal for other is 12.50% < 98%",
            "XX: NRMSE None > 0.02",
            "XX: first steady phase NRMSE None > 0.035",
            "XX: two filling + two steady segments in 25.00% of runs < 50.00%",
            "XX: throttle window + refill detected in 50.00% of runs < 96.00%",
            "XX: video stream detected in 75.00% of runs",
            "XX: video stream falsely detected in 75.00% of bulk runs",
        ]

    def test_a_value_on_its_bound_passes(self):
        report = {**GATED, "nrmse": {"pooled": 0.02, "per_steady_phase": {"1": 0.035}}}
        on_bound = {"min_diagonal_percent": 12.5, "max_nrmse": 0.02,
                    "max_nrmse_first_steady": 0.035, "min_exact_two_two_fraction": 0.25,
                    "min_window_refill_fraction": 0.5, "min_video_detected_fraction": 0.75,
                    "max_video_detected_fraction": 0.75}
        assert check_report(report, on_bound) == []

    def test_unknown_threshold_raises_naming_it(self):
        report = run_scenario("MQ", 1)
        with pytest.raises(ValueError, match="unknown threshold.* min_diagonal_pct;"):
            check_report(report, {"min_diagonal_pct": 100})

    def test_default_thresholds_cover_each_preset_once_with_known_gates(self):
        assert sorted(DEFAULT_THRESHOLDS) == sorted(PRESETS)
        assert len(DEFAULT_THRESHOLDS) == len(PRESETS)
        for limits in DEFAULT_THRESHOLDS.values():
            assert set(limits) <= set(_GATES)

    def test_every_gate_is_a_lower_or_upper_bound(self):
        assert all(name.startswith(("min_", "max_")) for name in _GATES)
        assert set(ALL_FIRE) == set(_GATES)


class TestBuildPreset:
    def test_unknown_preset_names_all_five(self):
        with pytest.raises(ValueError, match="presets are MQ, HQ, QC, AQ, bulk$"):
            build_preset("ZZ", 0, GeneratorDefaults())

    def test_bulk_has_no_spec(self):
        labeled, spec = build_preset("bulk", 2, GeneratorDefaults(packet_size=1000))
        assert spec is None
        assert labeled.trace == generate_bulk(packet_size=1000, seed=2).trace

    def test_preset_is_its_spec_generated(self):
        defaults = GeneratorDefaults(segment_duration=4.0)
        labeled, spec = build_preset("QC", 3, defaults)
        assert spec == scenario_spec("QC", seed=3, defaults=defaults)
        assert labeled.trace == generate(spec).trace
        assert labeled.labels == generate(spec).labels


def scored(scenario, seed):
    """``score_run``'s record of one seeded run, generated as ``run_scenario`` does."""
    params = FusionParams()
    labeled, spec = build_preset(scenario, seed, GeneratorDefaults())
    return score_run(profile(labeled.trace, fusion_params=params), labeled, spec, params)


class TestScoreRun:
    def test_bulk_record_has_confusion_but_no_checks_or_rates(self):
        record = scored("bulk", 0)
        assert set(record) == {"phase_counts", "is_video_stream", "confusion"}
        assert record["is_video_stream"] is False
        labeled, _ = build_preset("bulk", 0, GeneratorDefaults())
        assert record["confusion"].seconds.tolist() == confusion(
            profile(labeled.trace).segments, labeled.labels).seconds.tolist()
        assert record["confusion"].total_seconds == pytest.approx(labeled.labels[-1].t_end)

    def test_aq_run_passes_both_checks_with_a_pair_per_steady_segment(self):
        record = scored("AQ", 1)
        assert record["quality_change_detected"] is True
        assert record["throttle_window_detected"] is True
        n_steady = record["phase_counts"][STEADY]
        assert [o for o, _, _ in record["rate_pairs_Bps"]] == list(range(n_steady))
        assert all(true == MEDIUM_RATE for _, _, true in record["rate_pairs_Bps"])

    def test_mq_run_has_no_throttle_window(self):
        record = scored("MQ", 1)
        assert record["throttle_window_detected"] is False
        assert record["quality_change_detected"] is False
        assert record["confusion"].diagonal_percent(STEADY) > 90.0

    @pytest.mark.parametrize("scenario", ["MQ", "QC", "AQ", "bulk"])
    def test_run_scenario_folds_the_records(self, scenario):
        report = run_scenario(scenario, 3, base_seed=7)
        records = [scored(scenario, seed) for seed in range(7, 10)]
        assert report["checks"] == {
            "video_detected_runs": sum(r["is_video_stream"] for r in records),
            "exact_two_filling_two_steady_runs":
                sum(r.get("quality_change_detected", False) for r in records),
            "throttle_window_and_refill_runs":
                sum(r.get("throttle_window_detected", False) for r in records),
        }
        kept = ("phase_counts", "is_video_stream", "rate_pairs_Bps")
        assert report["per_run"] == [{"seed": seed, **{k: r[k] for k in kept if k in r}}
                                     for seed, r in zip(range(7, 10), records)]
        summed = sum(r["confusion"].seconds for r in records)
        assert report["confusion"]["seconds"] == summed.tolist()
