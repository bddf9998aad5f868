"""Acceptance gate: batch accuracy targets plus the core property suite.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
on success). Batches are generated once per session and shared.
"""

import time

import numpy as np
import pytest

from streamprofiler import (
    BurstParams,
    RateParams,
    Trace,
    confusion,
    generate,
    nrmse,
    profile,
    scenario_spec,
    smooth,
)
from streamprofiler.bursts import segment as burst_segment
from streamprofiler.evaluate import run_scenario
from streamprofiler.rate import aggregate, detect_changes
from streamprofiler.trace import FILLING, OTHER, PHASES, STEADY
from conftest import flow_trace, random_trace

RUNS = 50
MQ_HQ_TIME_BUDGET_S = 30.0
DIAGONAL_MIN_PCT = 98.0
NRMSE_MAX_SINGLE_QUALITY = 0.02
NRMSE_MAX_QC_FIRST_STEADY = 0.035
MIN_GOOD_RUNS = 48
BUFFER_TARGET_BYTES = 18e6
BUFFER_BAND = 0.10


def _verdict(ok: bool, text: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {text}")
    assert ok, text


@pytest.fixture(scope="session")
def batches():
    out = {}
    started = time.perf_counter()
    out["MQ"] = run_scenario("MQ", RUNS)
    out["HQ"] = run_scenario("HQ", RUNS)
    out["mq_hq_elapsed"] = time.perf_counter() - started
    out["QC"] = run_scenario("QC", RUNS)
    out["AQ"] = run_scenario("AQ", RUNS)
    out["bulk"] = run_scenario("bulk", RUNS)
    return out


class TestPhaseIdentification:
    def test_mq_hq_confusion_diagonal(self, batches):
        for name in ("MQ", "HQ"):
            diag = batches[name]["confusion_diagonal_percent"]
            present = {p: v for p, v in diag.items() if v is not None}
            ok = all(v >= DIAGONAL_MIN_PCT for v in present.values())
            detail = ", ".join(f"{p}={v:.2f}%" for p, v in present.items())
            _verdict(ok, f"{name} phase identification over {RUNS} runs: "
                         f"diagonal >= {DIAGONAL_MIN_PCT}% per phase ({detail})")

    def test_mq_hq_runtime_budget(self, batches):
        elapsed = batches["mq_hq_elapsed"]
        _verdict(elapsed < MQ_HQ_TIME_BUDGET_S,
                 f"MQ+HQ batches completed in {elapsed:.1f} s < {MQ_HQ_TIME_BUDGET_S:.0f} s")

    def test_qc_two_filling_two_steady(self, batches):
        good = batches["QC"]["checks"]["exact_two_filling_two_steady_runs"]
        _verdict(good >= MIN_GOOD_RUNS,
                 f"QC: exactly 2 filling + 2 steady segments in {good}/{RUNS} runs "
                 f"(need >= {MIN_GOOD_RUNS})")

    def test_aq_window_other_and_refill(self, batches):
        good = batches["AQ"]["checks"]["throttle_window_and_refill_runs"]
        _verdict(good >= MIN_GOOD_RUNS,
                 f"AQ: throttled window labeled other with a subsequent filling in "
                 f"{good}/{RUNS} runs (need >= {MIN_GOOD_RUNS})")


class TestRateEstimation:
    def test_nrmse_targets(self, batches):
        mq = batches["MQ"]["nrmse"]["pooled"]
        hq = batches["HQ"]["nrmse"]["pooled"]
        qc1 = batches["QC"]["nrmse"]["per_steady_phase"]["1"]
        _verdict(mq is not None and mq <= NRMSE_MAX_SINGLE_QUALITY,
                 f"MQ rate NRMSE {mq:.4f} <= {NRMSE_MAX_SINGLE_QUALITY}")
        _verdict(hq is not None and hq <= NRMSE_MAX_SINGLE_QUALITY,
                 f"HQ rate NRMSE {hq:.4f} <= {NRMSE_MAX_SINGLE_QUALITY}")
        _verdict(qc1 is not None and qc1 <= NRMSE_MAX_QC_FIRST_STEADY,
                 f"QC first steady phase NRMSE {qc1:.4f} <= {NRMSE_MAX_QC_FIRST_STEADY}")


class TestNegativeControl:
    def test_bulk_never_detected_as_video(self, batches):
        detected = batches["bulk"]["checks"]["video_detected_runs"]
        _verdict(detected == 0,
                 f"bulk downloads: video stream detected in {detected}/{RUNS} runs (need 0)")


class TestBufferTrajectory:
    def test_steady_level_near_target(self):
        worst = 0.0
        for seed in range(5):
            labeled = generate(scenario_spec("MQ", seed=seed))
            report = profile(labeled.trace)
            steady = next(s for s in report.segments if s.phase == STEADY)
            buf = report.buffer
            mask = (buf.times >= steady.t_start) & (buf.times <= steady.t_end)
            dev = float(np.max(np.abs(buf.levels[mask] - BUFFER_TARGET_BYTES)))
            worst = max(worst, dev / BUFFER_TARGET_BYTES)
        _verdict(worst <= BUFFER_BAND,
                 f"MQ steady-phase buffer stays within {BUFFER_BAND:.0%} of 18 MB "
                 f"(worst deviation {worst:.2%})")


class TestPropertySuite:
    """Compact re-assertions of the behavioral invariants (the dedicated test
    modules exercise each in depth)."""

    def test_rate_conservation(self, rate_params):
        trace = random_trace(seed=42, duration=10.0)
        total = float(np.sum(aggregate(trace.times, trace.sizes, rate_params)) * rate_params.delta_t)
        ok = abs(total - trace.total_bytes) <= 1e-6 * trace.total_bytes
        _verdict(ok, f"rate conservation: sum(rho)*dt = {total:.1f} vs {trace.total_bytes} bytes")

    def test_filter_fixed_point_and_step_response(self, rate_params):
        rho = np.full(300, 7e5)
        fixed = np.allclose(smooth(rho, rate_params), rho, rtol=1e-12)
        stepped = smooth(np.concatenate([[0.0], rho]), rate_params)[1:]  # from r[0] = 0
        closed = 7e5 * (1 - (1 - rate_params.a) ** np.arange(1, 301))
        _verdict(fixed and np.allclose(stepped, closed, rtol=1e-9),
                 "smoothing filter: fixed point and closed-form step response")

    def test_flag_alternation_and_exclusive_branches(self, rate_params):
        rng = np.random.default_rng(17)
        series = np.abs(np.cumsum(rng.normal(0, 1e4, size=5000)))
        _, events = detect_changes(series, rate_params)
        directions = [d for _, d in events]
        alternates = all(a != b for a, b in zip(directions, directions[1:]))
        first_up = not directions or directions[0] == "increase"
        running_max = np.maximum.accumulate(series)
        both = ((series > rate_params.c * running_max)
                & (series < (1 - rate_params.c) * running_max))
        _verdict(alternates and first_up and not both.any(),
                 "rate flags: events alternate, start with increase, one branch per bin")

    def test_burst_partition_and_monotonicity(self, burst_params):
        trace = random_trace(seed=23, duration=6.0, mean_rate=4e4, packet_size=900)
        bursts = burst_segment(trace.times, trace.sizes, burst_params)
        partitions = sum(b.size for b in bursts) == trace.total_bytes
        counts = [len([b for b in bursts if b.size >= h]) for h in (1e3, 1e4, 1e5)]
        _verdict(partitions and counts == sorted(counts, reverse=True),
                 "burst segmentation partitions the trace; retention monotone in h_s")

    def test_segment_tiling_and_disjointness(self):
        labeled = generate(scenario_spec("QC", seed=31))
        report = profile(labeled.trace)
        segs = report.segments
        tiles = (segs[0].t_start == labeled.trace.t_start
                 and segs[-1].t_end == labeled.trace.t_end
                 and all(a.t_end == b.t_start for a, b in zip(segs, segs[1:]))
                 and all(s.t_end > s.t_start for s in segs))
        _verdict(tiles, "fused segments tile the session span without overlap")

    def test_determinism_under_fixed_seed(self):
        a = generate(scenario_spec("AQ", seed=12))
        b = generate(scenario_spec("AQ", seed=12))
        same_trace = (np.array_equal(a.trace.times, b.trace.times)
                      and np.array_equal(a.trace.sizes, b.trace.sizes))
        same_report = profile(a.trace).to_json() == profile(b.trace).to_json()
        _verdict(same_trace and same_report, "fixed seed reproduces trace and report bit-exactly")

    def test_time_shift_invariance(self):
        labeled = generate(scenario_spec("MQ", seed=13))
        offset = 1024.5
        base = profile(labeled.trace).segments
        moved = profile(flow_trace(labeled.trace.times + offset,
                                   sizes=labeled.trace.sizes)).segments
        ok = (len(base) == len(moved)
              and all(m.t_start == b.t_start + offset and m.t_end == b.t_end + offset
                      and m.phase == b.phase for b, m in zip(base, moved)))
        _verdict(ok, f"shifting packets by {offset} s shifts segment boundaries exactly")

    def test_nrmse_scale_invariance(self):
        pairs = [(81_000.0, 80_750.0), (80_100.0, 80_750.0)]
        scaled = [(a * 3.0, b * 3.0) for a, b in pairs]
        _verdict(nrmse(pairs) == pytest.approx(nrmse(scaled)), "NRMSE is scale invariant")

    def test_truth_against_itself(self):
        labeled = generate(scenario_spec("AQ", seed=14))
        from streamprofiler import PhaseSegment
        as_segments = [PhaseSegment(phase=s.phase, t_start=s.t_start, t_end=s.t_end, volume=0)
                       for s in labeled.labels]
        cm = confusion(as_segments, labeled.labels)
        off_diag = cm.total_seconds - float(np.trace(cm.seconds))
        _verdict(off_diag == 0.0 and nrmse([(80_750.0, 80_750.0)]) == 0.0,
                 "truth scored against itself: diagonal confusion and zero NRMSE")
