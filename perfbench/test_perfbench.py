"""Tests of the benchmark's own code: seeded inputs, output checks, tracing, metric names."""

from __future__ import annotations

import json
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import streamprofiler as sp  # noqa: E402
import streamprofiler.cli  # noqa: E402,F401  (a tracing target)
import streamprofiler.evaluate  # noqa: E402,F401

import checks  # noqa: E402
import hostspeed  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.mark.parametrize("make", [inputs.hq_session, inputs.flow_mix])
def test_same_seed_gives_identical_inputs(make):
    first, again, other = make(sp, 3), make(sp, 3), make(sp, 4)
    assert first.csv == again.csv
    assert first.sha256 == again.sha256
    assert other.sha256 != first.sha256


def test_flow_mix_parses_into_its_flows():
    mix = inputs.flow_mix(sp, 7)
    flows = sp.demux(sp.normalize(sp.parse_trace(mix.csv)))
    assert len(flows) == len(mix.truth) >= 1000
    for key, sub in flows.items():
        assert len(sub) == mix.truth[key.dst_port].n_packets
    kinds = {t.kind for t in mix.truth.values()}
    assert kinds == {"web", "onoff", "bulk", "video"}


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for group, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[group]} == table
        for name in table:
            assert NAME.fullmatch(name), name
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    traced = set(tracing.LAYER_TIMES) | set(tracing.SELF_TIMES)
    assert traced <= set(run.PER_LAYER)


def _report(seed=1) -> tuple[dict, inputs.FlowTruth]:
    rate = 20e3
    labeled = sp.generate(sp.ScenarioSpec(
        encode_rates=((0.0, rate),), segment_duration=5.0, buffer_target=60 * rate,
        fill_throughput=10 * rate, video_duration=120.0, packet_size=1400, rng_seed=seed))
    text = sp.profile(labeled.trace).to_json()
    truth = inputs.FlowTruth("video", len(labeled.trace), True,
                             tuple((s.t_start, s.t_end, s.phase) for s in labeled.labels), rate)
    return checks.load_report(text), truth


def test_checker_accepts_a_real_report():
    report, truth = _report()
    assert report["verdict"]["is_video_stream"]
    assert checks.profile_problems(report, truth.n_packets) == []
    assert checks.verdict_problems(report, truth) == []
    quality = checks.accuracy([(report, truth)])
    assert quality["verdict_acc_pct"] == 100.0
    assert 50.0 < quality["steady_diag_pct"] <= 100.0
    assert 0.0 < quality["rate_nrmse"] < 0.2


def test_checker_flags_corrupted_reports():
    report, truth = _report()
    bad_volume = json.loads(json.dumps(report))
    bad_volume["segments"][1]["volume_bytes"] += 1
    assert any("volumes sum" in p for p in checks.profile_problems(bad_volume))

    gap = json.loads(json.dumps(report))
    gap["segments"][1]["t_start"] += 0.5
    assert any("starts at" in p for p in checks.profile_problems(gap))

    assert checks.profile_problems(report, truth.n_packets + 1)

    flipped = json.loads(json.dumps(report))
    flipped["verdict"]["is_video_stream"] = False
    assert checks.verdict_problems(flipped, truth)

    with pytest.raises(ValueError):
        checks.load_report('{"rate": NaN}')


def test_tracer_records_nested_spans_and_restores_the_package():
    original = sp.profile
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert sp.profile is not original
        labeled = sp.generate(sp.scenario_spec("MQ", seed=2))
        tracer.active = True
        sp.profile(labeled.trace)
        sp.profile(labeled.trace)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert sp.profile is original
    assert tracer.absent == []
    names = [s[3] for s in tracer.spans]
    for name in ("profiler.profile", "rate.aggregate", "bursts.segment",
                 "profiler.fuse", "profiler.estimate_buffer"):
        assert name in names
    assert names.count("synth.generate") == 0  # generated while inactive
    profiles = [s for s in tracer.spans if s[3] == "profiler.profile"]
    assert profiles[0][1] != profiles[1][1]  # two flows, two request ids
    by_id = {s[0]: s for s in tracer.spans}
    for span in tracer.spans:
        if span[3] == "rate.aggregate":
            assert by_id[span[2]][3] == "profiler.profile"
            assert span[1] == by_id[span[2]][1]
    times = tracing.layer_times(tracer.spans)
    total = sum(s[5] - s[4] for s in profiles)
    assert 0.0 < times["profiler.self_s"] < total
    assert times["rate.aggregate_s"] > 0.0
    assert tracer.counts["bins"] > 0


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.delattr(sp.trace, "normalize")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["trace.normalize"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "long_flow",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_scenario_setup_counts_the_generated_traces_and_restores_evaluate(tmp_path):
    ev = sp.evaluate
    originals = (ev.generate, ev.generate_bulk)
    batch = workloads.ScenarioBatch(sp, 1, tmp_path)
    digest = batch.setup()
    assert (ev.generate, ev.generate_bulk) == originals
    assert batch.packets > 0
    assert digest == workloads.ScenarioBatch(sp, 1, tmp_path).setup()


def test_host_speed_samples_during_a_region_and_leaves_it_out():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed(interval=0.01) as speed:
        mark = speed.mark()
        start_clock, start = speed.clock(), time.perf_counter()
        while time.perf_counter() - start < 0.2:
            sum(range(1000))
        measured = speed.clock() - start_clock
        scale = speed.scale(mark)
    assert signal.getsignal(signal.SIGALRM) == before
    assert len(speed.samples) - mark >= 5  # timer samples, not only the two explicit ones
    assert measured < time.perf_counter() - start - 0.9 * sum(speed.samples[mark + 1:-1])
    assert scale == hostspeed.REF_S / statistics.fmean(speed.samples[mark:])
