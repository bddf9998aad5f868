"""Scoring of profiler output against ground truth, plus the batch harness.

The confusion matrix is time-weighted: entry (true, identified) accumulates
the seconds during which the true phase was ``true`` and the profiler said
``identified``. Time weighting is the only accounting that stays well
defined when only boundaries shift. Rate accuracy is reported as RMS error
normalized by the mean true rate of the batch (per steady phase ordinal,
since multi-phase scenarios have distinct first and second steady rates).
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field

import numpy as np

from .bursts import BurstParams
from .profiler import UNIT_NOTE, FusionParams, PhaseSegment, ProfileReport, profile, to_kbps
from .rate import RateParams
from .synth import (SCENARIOS, GeneratorDefaults, LabeledTrace, ScenarioSpec, generate,
                    generate_bulk, scenario_spec)
from .trace import FILLING, OTHER, PHASES, STEADY, PhaseSpan, check_int

_PHASE_INDEX = {phase: i for i, phase in enumerate(PHASES)}

_MIN_OTHER_FRACTION = 0.9  # share of a true capped span that must read ``other``


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
    mids = (cuts[:-1] + cuts[1:]) / 2.0
    out = np.zeros((3, 3))
    # ``add.at`` adds each cell's widths in cut order, as a loop over the cuts would
    np.add.at(out, (_phase_at(labels, mids), _phase_at(predicted, mids)), cuts[1:] - cuts[:-1])
    return out


def _phase_at(spans: list, times: np.ndarray) -> np.ndarray:
    """Phase index of the last span starting at or before each time, or of the first span."""
    i = np.searchsorted([s.t_start for s in spans], times, side="right") - 1
    return np.array([_PHASE_INDEX[s.phase] for s in spans])[np.maximum(i, 0)]


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
                             match_tolerance: float) -> bool:
    """The capped stretch reads ``other`` and a refill follows it.

    Checks that at least ``_MIN_OTHER_FRACTION`` of every true ``other`` span
    is identified as ``other``, and that a filling segment starts within the
    match tolerance of the span's end (the refill).
    """
    true_windows = [s for s in labels if s.phase == OTHER]
    if not true_windows:
        return False
    for window in true_windows:
        covered = sum(max(0.0, min(seg.t_end, window.t_end) - max(seg.t_start, window.t_start))
                      for seg in segments if seg.phase == OTHER)
        if covered < _MIN_OTHER_FRACTION * window.duration:
            return False
        refill = any(seg.phase == FILLING and abs(seg.t_start - window.t_end) <= match_tolerance
                     for seg in segments)
        if not refill:
            return False
    return True


def steady_rate_pairs(report: ProfileReport, spec: ScenarioSpec) -> list[tuple[int, float, float]]:
    """(steady ordinal, estimated rate, true rate) for each identified steady segment."""
    segments = report.segments
    return [(ordinal, est, spec.rate_at((segments[i].t_start + segments[i].t_end) / 2.0))
            for ordinal, (i, est) in enumerate(report.rate_estimate.per_steady)]


def score_run(report: ProfileReport, labeled: LabeledTrace, spec: ScenarioSpec | None,
              params: FusionParams) -> dict:
    """Score one profiled run against its ground truth.

    Every record holds ``phase_counts``, ``is_video_stream`` and ``confusion``
    against the run's labels. A video run also holds the two multi-phase checks
    and ``rate_pairs_Bps``; ``spec is None`` marks a bulk run, which has neither.
    """
    record = {"phase_counts": phase_counts(report.segments),
              "is_video_stream": report.verdict.is_video_stream,
              "confusion": confusion(report.segments, labeled.labels)}
    if spec is None:
        return record
    return {**record,
            "quality_change_detected": quality_change_detected(report.segments),
            "throttle_window_detected": throttle_window_detected(
                report.segments, labeled.labels, params.match_tolerance),
            "rate_pairs_Bps": [[o, est, true] for o, est, true in steady_rate_pairs(report, spec)]}


# -- batch harness -----------------------------------------------------------

BULK_SCENARIO = "bulk"
PRESETS = (*SCENARIOS, BULK_SCENARIO)


def build_preset(scenario: str, seed: int,
                 defaults: GeneratorDefaults) -> tuple[LabeledTrace, ScenarioSpec | None]:
    """One seeded session of a preset and its spec; the spec is ``None`` for bulk."""
    if scenario not in PRESETS:
        raise ValueError(f"unknown scenario {scenario!r}; presets are {', '.join(PRESETS)}")
    if scenario == BULK_SCENARIO:
        return generate_bulk(packet_size=defaults.packet_size, seed=seed), None
    spec = scenario_spec(scenario, seed, defaults)
    return generate(spec), spec


# ``per_run`` keeps these fields of each run record, and each ``checks`` count
# is the number of records whose field of that name is true
PER_RUN_FIELDS = ("seed", "phase_counts", "is_video_stream", "rate_pairs_Bps")
_CHECK_FIELDS = {"video_detected_runs": "is_video_stream",
                 "exact_two_filling_two_steady_runs": "quality_change_detected",
                 "throttle_window_and_refill_runs": "throttle_window_detected"}


def run_scenario(scenario: str, n_runs: int,
                 rate_params: RateParams | None = None,
                 burst_params: BurstParams | None = None,
                 fusion_params: FusionParams | None = None,
                 gen_defaults: GeneratorDefaults | None = None,
                 base_seed: int = 0) -> dict:
    """Generate, profile and score ``n_runs`` sessions of one scenario.

    Seeds are ``base_seed + i``, so reports are reproducible bit for bit.
    Each run is scored by ``score_run``; this function only aggregates the
    records: time-weighted confusion summed in run order, NRMSE per steady
    phase ordinal, empirical CDF points of estimated and true rates, the
    per-run check counts and each record's ``PER_RUN_FIELDS``.
    """
    n_runs, base_seed = check_int("n_runs", n_runs, 1), check_int("base_seed", base_seed)
    fp = fusion_params or FusionParams()
    gd = gen_defaults or GeneratorDefaults()

    started = time.perf_counter()
    records = []
    for seed in range(base_seed, base_seed + n_runs):
        labeled, spec = build_preset(scenario, seed, gd)
        report = profile(labeled.trace, rate_params, burst_params, fp)
        records.append({"seed": seed, **score_run(report, labeled, spec, fp)})

    cm = ConfusionMatrix(sum((r["confusion"].seconds for r in records), np.zeros((3, 3))))
    pairs_by_ordinal: dict[int, list[tuple[float, float]]] = {}
    for ordinal, est, true in (p for r in records for p in r.get("rate_pairs_Bps", ())):
        pairs_by_ordinal.setdefault(ordinal, []).append((est, true))
    all_pairs = [p for pairs in pairs_by_ordinal.values() for p in pairs]
    nrmse_per_phase = {str(o + 1): nrmse(pairs_by_ordinal[o]) for o in sorted(pairs_by_ordinal)}
    return {
        "scenario": scenario,
        "runs": n_runs,
        "base_seed": base_seed,
        "elapsed_s": time.perf_counter() - started,
        "unit_note": UNIT_NOTE,
        "confusion": cm.to_dict(),
        "confusion_diagonal_percent": {p: cm.diagonal_percent(p) for p in PHASES},
        "nrmse": {
            "pooled": nrmse(all_pairs) if all_pairs else None,
            "per_steady_phase": nrmse_per_phase,
        },
        "rate_cdf": _cdf_points(pairs_by_ordinal),
        "checks": {name: sum(r.get(key, False) for r in records)
                   for name, key in _CHECK_FIELDS.items()},
        "per_run": [{k: r[k] for k in PER_RUN_FIELDS if k in r} for r in records],
    }


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


def _fraction(check: str):
    return lambda r: [(None, r["checks"][check] / r["runs"])]


# threshold -> (its report values as (phase, value) pairs, whether a None value fails,
# message); a ``min_`` threshold bounds its values from below, a ``max_`` one from above
_GATES = {
    "min_diagonal_percent": (lambda r: [(p, r["confusion_diagonal_percent"][p]) for p in PHASES],
                             False, "confusion diagonal for {phase} is {value:.2f}% < {limit}%"),
    "max_nrmse": (lambda r: [(None, r["nrmse"]["pooled"])], True, "NRMSE {value} > {limit}"),
    "max_nrmse_first_steady": (lambda r: [(None, r["nrmse"]["per_steady_phase"].get("1"))], True,
                               "first steady phase NRMSE {value} > {limit}"),
    "min_exact_two_two_fraction": (
        _fraction("exact_two_filling_two_steady_runs"), False,
        "two filling + two steady segments in {value:.2%} of runs < {limit:.2%}"),
    "min_window_refill_fraction": (
        _fraction("throttle_window_and_refill_runs"), False,
        "throttle window + refill detected in {value:.2%} of runs < {limit:.2%}"),
    "min_video_detected_fraction": (_fraction("video_detected_runs"), False,
                                    "video stream detected in {value:.2%} of runs"),
    "max_video_detected_fraction": (_fraction("video_detected_runs"), False,
                                    "video stream falsely detected in {value:.2%} of bulk runs"),
}


def check_report(report: dict, thresholds: dict[str, float] | None = None) -> list[str]:
    """Violated gates of an aggregate report; a threshold not in ``_GATES`` raises ValueError."""
    scenario = report["scenario"]
    limits = thresholds if thresholds is not None else DEFAULT_THRESHOLDS.get(scenario, {})
    if unknown := [name for name in limits if name not in _GATES]:
        raise ValueError(f"unknown threshold(s) {', '.join(unknown)}; known: {', '.join(_GATES)}")
    violations = []
    for name, (values, none_fails, message) in _GATES.items():
        if name in limits:
            limit, fails = limits[name], operator.gt if name.startswith("max_") else operator.lt
            violations += [f"{scenario}: " + message.format(phase=phase, value=value, limit=limit)
                           for phase, value in values(report)
                           if (none_fails if value is None else fails(value, limit))]
    return violations
