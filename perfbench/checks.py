"""Checks on profiler outputs, and accuracy against the generated ground truth.

Scoring is done here rather than with the package's ``evaluate`` module, so
that a change to the package cannot move the accuracy figures that guard it.
"""

from __future__ import annotations

import hashlib
import json
import math

from inputs import FlowTruth

STEADY = "steady_state"


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in report JSON")


def load_report(text: str | bytes) -> dict:
    """Parse report JSON, refusing NaN and Infinity as ``allow_nan=False`` would."""
    return json.loads(text, parse_constant=_reject_constant)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def profile_problems(report: dict, n_packets: int | None = None) -> list[str]:
    """Invariants of one flow's report (a ``ProfileReport.to_dict`` layout).

    The segments tile ``[t_start, t_end]`` without gaps or overlaps, their
    volumes sum to ``total_bytes``, and, when given, ``n_packets`` matches.
    """
    problems = []
    if n_packets is not None and report["n_packets"] != n_packets:
        problems.append(f"n_packets {report['n_packets']} != {n_packets} generated")
    segments = report["segments"]
    t0, t1 = report["t_start"], report["t_end"]
    if not segments:
        if t1 > t0:
            problems.append("no segments over a non-empty span")
        return problems
    edge = t0
    for i, seg in enumerate(segments):
        if not _close(seg["t_start"], edge):
            problems.append(f"segment {i} starts at {seg['t_start']!r}, expected {edge!r}")
        if not seg["t_end"] > seg["t_start"]:
            problems.append(f"segment {i} is empty or reversed")
        edge = seg["t_end"]
    if not _close(edge, t1):
        problems.append(f"segments end at {edge!r}, flow ends at {t1!r}")
    volume = sum(seg["volume_bytes"] for seg in segments)
    if volume != report["total_bytes"]:
        problems.append(f"segment volumes sum to {volume}, total_bytes is {report['total_bytes']}")
    return problems


def verdict_problems(report: dict, truth: FlowTruth) -> list[str]:
    said = report["verdict"]["is_video_stream"]
    if said != truth.is_video:
        return [f"{truth.kind} flow: is_video_stream={said}, truth {truth.is_video}"]
    return []


def _steady_overlap(report: dict, truth: FlowTruth) -> tuple[float, float]:
    """(true steady seconds, of which identified as steady), in flow time."""
    origin = report["t_start"]
    predicted = [(s["t_start"] - origin, s["t_end"] - origin)
                 for s in report["segments"] if s["phase"] == STEADY]
    total = hit = 0.0
    for a, b, phase in truth.labels:
        if phase != STEADY:
            continue
        total += b - a
        hit += sum(max(0.0, min(b, q) - max(a, p)) for p, q in predicted)
    return total, hit


def accuracy(pairs: list[tuple[dict, FlowTruth]]) -> dict[str, float]:
    """Verdict accuracy over all flows; for the video flows, the time-weighted
    steady-state diagonal and the pooled NRMSE of per-steady-segment rates."""
    correct = sum(report["verdict"]["is_video_stream"] == truth.is_video for report, truth in pairs)
    steady_total = steady_hit = 0.0
    errors, rates = [], []
    for report, truth in pairs:
        if not truth.is_video:
            continue
        total, hit = _steady_overlap(report, truth)
        steady_total += total
        steady_hit += hit
        for entry in report["rate_estimate"]["per_steady_segment"]:
            errors.append(entry["rate_Bps"] - truth.encode_rate)
            rates.append(truth.encode_rate)
    return {
        "verdict_acc_pct": 100.0 * correct / len(pairs),
        "steady_diag_pct": 100.0 * steady_hit / steady_total if steady_total else 0.0,
        # no identified steady segment at all is the worst estimate there is
        "rate_nrmse": (math.sqrt(sum(e * e for e in errors) / len(errors)) / (sum(rates) / len(rates))
                       if errors else 1.0),
    }


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else chunk.encode())
    return h.hexdigest()
