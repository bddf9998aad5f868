"""Scoring of profiler output against ground truth, plus the batch harness.

The confusion matrix is time-weighted: entry (true, identified) accumulates
the seconds during which the true phase was ``true`` and the profiler said
``identified``. Time weighting is the only accounting that stays well
defined when only boundaries shift. Rate accuracy is reported as RMS error
normalized by the mean true rate of the batch (per steady phase ordinal,
since multi-phase scenarios have distinct first and second steady rates).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .bursts import BurstParams
from .profiler import UNIT_NOTE, FusionParams, PhaseSegment, ProfileReport, profile, to_kbps
from .rate import RateParams
from .synth import GeneratorDefaults, LabeledTrace, ScenarioSpec, generate, generate_bulk, scenario_spec
from .trace import FILLING, OTHER, PHASES, STEADY, PhaseSpan

_PHASE_INDEX = {phase: i for i, phase in enumerate(PHASES)}


class SpanMismatchError(ValueError):
    """Predicted segments and truth labels do not cover the same interval."""


@dataclass
class ConfusionMatrix:
    """3x3 seconds matrix, rows true phase, columns identified phase."""

    seconds: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))

    def add(self, predicted: list[PhaseSegment], labels: list[PhaseSpan]) -> None:
        self.seconds += _intersect(predicted, labels)

    @property
    def total_seconds(self) -> float:
        return float(self.seconds.sum())

    def percent(self) -> np.ndarray:
        """Row-normalized percentages; rows with no true time are NaN."""
        rows = self.seconds.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(rows > 0, self.seconds / rows * 100.0, np.nan)

    def diagonal_percent(self, phase: str) -> float | None:
        """Correctly identified share of a true phase, or None if absent."""
        i = _PHASE_INDEX[phase]
        row = self.seconds[i].sum()
        if row <= 0:
            return None
        return float(self.seconds[i, i] / row * 100.0)

    def to_dict(self) -> dict:
        pct = self.percent()
        return {
            "phases": list(PHASES),
            "seconds": self.seconds.tolist(),
            "percent": [[None if np.isnan(v) else float(v) for v in row] for row in pct],
        }


def _intersect(predicted: list[PhaseSegment], labels: list[PhaseSpan]) -> np.ndarray:
    if not predicted or not labels:
        raise SpanMismatchError("cannot score empty segments or labels")
    p_lo, p_hi = predicted[0].t_start, predicted[-1].t_end
    l_lo, l_hi = labels[0].t_start, labels[-1].t_end
    tol = 1e-6 * max(1.0, abs(l_hi - l_lo))
    if abs(p_lo - l_lo) > tol or abs(p_hi - l_hi) > tol:
        raise SpanMismatchError(
            f"predicted span [{p_lo}, {p_hi}] does not match truth span [{l_lo}, {l_hi}]")
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
        out[_PHASE_INDEX[labels[ti].phase], _PHASE_INDEX[predicted[pi].phase]] += b - a
    return out


def confusion(predicted: list[PhaseSegment], labels: list[PhaseSpan]) -> ConfusionMatrix:
    """Time-weighted confusion of one run. Spans must agree."""
    cm = ConfusionMatrix()
    cm.add(predicted, labels)
    return cm


def nrmse(pairs: list[tuple[float, float]]) -> float:
    """RMS of (estimate - truth) normalized by the mean truth. Scale invariant."""
    if not pairs:
        raise ValueError("nrmse needs at least one (estimate, truth) pair")
    est = np.array([p[0] for p in pairs], dtype=np.float64)
    true = np.array([p[1] for p in pairs], dtype=np.float64)
    if np.any(true <= 0):
        raise ValueError("true rates must be positive")
    return float(np.sqrt(np.mean((est - true) ** 2)) / np.mean(true))


# -- per-run scenario checks -------------------------------------------------


def phase_counts(segments: list[PhaseSegment]) -> dict[str, int]:
    counts = {phase: 0 for phase in PHASES}
    for seg in segments:
        counts[seg.phase] += 1
    return counts


def quality_change_detected(segments: list[PhaseSegment]) -> bool:
    """Exactly two filling and two steady-state segments were identified."""
    counts = phase_counts(segments)
    return counts[FILLING] == 2 and counts[STEADY] == 2


def throttle_window_detected(segments: list[PhaseSegment], labels: list[PhaseSpan],
                             match_tolerance: float, min_other_fraction: float = 0.9) -> bool:
    """The capped stretch reads ``other`` and a refill follows it.

    Checks that at least ``min_other_fraction`` of every true ``other`` span
    is identified as ``other``, and that a filling segment starts within the
    match tolerance of the span's end (the refill).
    """
    true_windows = [s for s in labels if s.phase == OTHER]
    if not true_windows:
        return False
    for window in true_windows:
        covered = sum(max(0.0, min(seg.t_end, window.t_end) - max(seg.t_start, window.t_start))
                      for seg in segments if seg.phase == OTHER)
        if covered < min_other_fraction * window.duration:
            return False
        refill = any(seg.phase == FILLING and abs(seg.t_start - window.t_end) <= match_tolerance
                     for seg in segments)
        if not refill:
            return False
    return True


def steady_rate_pairs(report: ProfileReport, spec: ScenarioSpec) -> list[tuple[int, float, float]]:
    """(steady ordinal, estimated rate, true rate) for each identified steady segment."""
    pairs = []
    ordinal = 0
    for idx, est in report.rate_estimate.per_steady:
        seg = report.segments[idx]
        true_rate = spec.rate_at((seg.t_start + seg.t_end) / 2.0)
        pairs.append((ordinal, est, true_rate))
        ordinal += 1
    return pairs


# -- batch harness -----------------------------------------------------------

BULK_SCENARIO = "bulk"


def run_scenario(scenario: str, n_runs: int,
                 rate_params: RateParams | None = None,
                 burst_params: BurstParams | None = None,
                 fusion_params: FusionParams | None = None,
                 gen_defaults: GeneratorDefaults | None = None,
                 base_seed: int = 0) -> dict:
    """Generate, profile, and score ``n_runs`` sessions of one scenario.

    Seeds are ``base_seed + i``, so reports are reproducible bit for bit.
    Returns an aggregate report: time-weighted confusion, NRMSE per steady
    phase ordinal, empirical CDF points of estimated and true rates, and
    per-run detection checks.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    rp = rate_params or RateParams()
    bp = burst_params or BurstParams()
    fp = fusion_params or FusionParams()
    gd = gen_defaults or GeneratorDefaults()

    started = time.perf_counter()
    cm = ConfusionMatrix()
    pairs_by_ordinal: dict[int, list[tuple[float, float]]] = {}
    video_detected = 0
    qc_ok = 0
    aq_ok = 0
    per_run = []

    for i in range(n_runs):
        seed = base_seed + i
        if scenario == BULK_SCENARIO:
            labeled = generate_bulk(packet_size=gd.packet_size, seed=seed)
            spec = None
        else:
            spec = scenario_spec(scenario, seed=seed, defaults=gd)
            labeled = generate(spec)
        report = profile(labeled.trace, rp, bp, fp)

        counts = phase_counts(report.segments)
        run_info = {"seed": seed, "phase_counts": counts,
                    "is_video_stream": report.verdict.is_video_stream}
        if report.verdict.is_video_stream:
            video_detected += 1
        if spec is not None:
            cm.add(report.segments, labeled.labels)
            if quality_change_detected(report.segments):
                qc_ok += 1
            if throttle_window_detected(report.segments, labeled.labels, fp.match_tolerance):
                aq_ok += 1
            run_pairs = steady_rate_pairs(report, spec)
            run_info["rate_pairs_Bps"] = [[o, est, true] for o, est, true in run_pairs]
            for ordinal, est, true in run_pairs:
                pairs_by_ordinal.setdefault(ordinal, []).append((est, true))
        per_run.append(run_info)

    all_pairs = [p for pairs in pairs_by_ordinal.values() for p in pairs]
    nrmse_per_phase = {str(o + 1): nrmse(pairs_by_ordinal[o])
                       for o in sorted(pairs_by_ordinal)}
    report_dict = {
        "scenario": scenario,
        "runs": n_runs,
        "base_seed": base_seed,
        "elapsed_s": time.perf_counter() - started,
        "unit_note": UNIT_NOTE,
        "confusion": cm.to_dict() if scenario != BULK_SCENARIO else None,
        "confusion_diagonal_percent": (
            {phase: cm.diagonal_percent(phase) for phase in PHASES}
            if scenario != BULK_SCENARIO else None),
        "nrmse": {
            "pooled": nrmse(all_pairs) if all_pairs else None,
            "per_steady_phase": nrmse_per_phase,
        },
        "rate_cdf": _cdf_points(pairs_by_ordinal),
        "checks": {
            "video_detected_runs": video_detected,
            "exact_two_filling_two_steady_runs": qc_ok,
            "throttle_window_and_refill_runs": aq_ok,
        },
        "per_run": per_run,
    }
    return report_dict


def _cdf_points(pairs_by_ordinal: dict[int, list[tuple[float, float]]]) -> dict:
    """Empirical CDF points, (sorted value, quantile), per steady phase ordinal."""
    out = {}
    for ordinal in sorted(pairs_by_ordinal):
        pairs = pairs_by_ordinal[ordinal]
        n = len(pairs)
        quantiles = [(k + 1) / n for k in range(n)]
        est = sorted(p[0] for p in pairs)
        true = sorted(p[1] for p in pairs)
        out[str(ordinal + 1)] = {
            "estimated_Bps": est,
            "estimated_kbps": [to_kbps(v) for v in est],
            "true_Bps": true,
            "true_kbps": [to_kbps(v) for v in true],
            "quantile": quantiles,
        }
    return out


# Default gates for CI runs, mirroring the desk-scale accuracy targets:
# near-perfect phase identification on the single-quality scenarios, reliable
# multi-phase structure detection, tight rate estimates, no false stream
# detection on bulk transfers.
DEFAULT_THRESHOLDS: dict[str, dict[str, float]] = {
    "MQ": {"min_diagonal_percent": 98.0, "max_nrmse": 0.02, "min_video_detected_fraction": 1.0},
    "HQ": {"min_diagonal_percent": 98.0, "max_nrmse": 0.02, "min_video_detected_fraction": 1.0},
    "QC": {"min_exact_two_two_fraction": 0.96, "max_nrmse_first_steady": 0.035,
           "min_video_detected_fraction": 1.0},
    "AQ": {"min_window_refill_fraction": 0.96, "min_video_detected_fraction": 1.0},
    BULK_SCENARIO: {"max_video_detected_fraction": 0.0},
}


def check_report(report: dict, thresholds: dict[str, float] | None = None) -> list[str]:
    """Compare an aggregate report against its thresholds; returns violations."""
    scenario = report["scenario"]
    limits = thresholds if thresholds is not None else DEFAULT_THRESHOLDS.get(scenario, {})
    n = report["runs"]
    checks = report["checks"]
    violations: list[str] = []

    if "min_diagonal_percent" in limits:
        for phase in PHASES:
            value = report["confusion_diagonal_percent"][phase]
            if value is not None and value < limits["min_diagonal_percent"]:
                violations.append(
                    f"{scenario}: confusion diagonal for {phase} is {value:.2f}% "
                    f"< {limits['min_diagonal_percent']}%")
    if "max_nrmse" in limits:
        pooled = report["nrmse"]["pooled"]
        if pooled is None or pooled > limits["max_nrmse"]:
            violations.append(f"{scenario}: NRMSE {pooled} > {limits['max_nrmse']}")
    if "max_nrmse_first_steady" in limits:
        first = report["nrmse"]["per_steady_phase"].get("1")
        if first is None or first > limits["max_nrmse_first_steady"]:
            violations.append(
                f"{scenario}: first steady phase NRMSE {first} > {limits['max_nrmse_first_steady']}")
    if "min_exact_two_two_fraction" in limits:
        frac = checks["exact_two_filling_two_steady_runs"] / n
        if frac < limits["min_exact_two_two_fraction"]:
            violations.append(
                f"{scenario}: two filling + two steady segments in {frac:.2%} of runs "
                f"< {limits['min_exact_two_two_fraction']:.2%}")
    if "min_window_refill_fraction" in limits:
        frac = checks["throttle_window_and_refill_runs"] / n
        if frac < limits["min_window_refill_fraction"]:
            violations.append(
                f"{scenario}: throttle window + refill detected in {frac:.2%} of runs "
                f"< {limits['min_window_refill_fraction']:.2%}")
    if "min_video_detected_fraction" in limits:
        frac = checks["video_detected_runs"] / n
        if frac < limits["min_video_detected_fraction"]:
            violations.append(f"{scenario}: video stream detected in {frac:.2%} of runs")
    if "max_video_detected_fraction" in limits:
        frac = checks["video_detected_runs"] / n
        if frac > limits["max_video_detected_fraction"]:
            violations.append(
                f"{scenario}: video stream falsely detected in {frac:.2%} of bulk runs")
    return violations
