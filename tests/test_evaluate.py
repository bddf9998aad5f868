import numpy as np
import pytest

from streamprofiler import PhaseSegment, PhaseSpan, confusion, nrmse
from streamprofiler.evaluate import (
    SpanMismatchError,
    check_report,
    phase_counts,
    quality_change_detected,
    run_scenario,
    throttle_window_detected,
)
from streamprofiler.trace import FILLING, OTHER, PHASES, STEADY


def seg(phase, t0, t1):
    return PhaseSegment(phase=phase, t_start=t0, t_end=t1, volume=0,
                        duration=t1 - t0, mean_rate=0.0)


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

    def test_bulk_batch_has_no_confusion(self):
        report = run_scenario("bulk", 3)
        assert report["confusion"] is None
        assert report["checks"]["video_detected_runs"] == 0

    def test_runs_must_be_positive(self):
        with pytest.raises(ValueError):
            run_scenario("MQ", 0)

    def test_check_report_flags_violations(self):
        report = run_scenario("MQ", 2, base_seed=3)
        assert check_report(report) == []
        strict = {"min_diagonal_percent": 100.0}
        violations = check_report(report, strict)
        assert violations and "steady_state" in violations[0]
