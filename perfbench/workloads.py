"""The four benchmark workloads.

Each workload generates its inputs from the seed (``setup``), runs one
closed-loop pass through the package's public API or CLI (``run_pass``,
the only timed call, read on the clock it is given), and checks what the
pass produced (``check``).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs

QUERY_EVERY_S = 2.0       # live_monitor: one report() per 2 s of trace time
SCENARIO_RUNS = 20        # scenario_batch: seeded runs per preset
PRESETS = ("MQ", "HQ", "QC", "AQ", "bulk")


@dataclass
class Pass:
    """One timed pass: its seconds, per-query latencies, and raw outputs."""

    seconds: float
    latencies: list[float]
    outputs: object


@dataclass
class Check:
    attempted: int
    failed: int
    digest: str
    problems: list[str] = field(default_factory=list)
    files_written: int = 0


def warm_up(sp, workdir: Path, seed: int) -> None:
    """Touch every layer once on a small input, so lazy set-up is done before timing.

    A 90 s video session goes through ``analyze``, a ``StreamProfiler`` and
    a one-run scenario batch.
    """
    rate = 20e3
    labeled = sp.generate(sp.ScenarioSpec(
        encode_rates=((0.0, rate),), segment_duration=5.0, buffer_target=60 * rate,
        fill_throughput=10 * rate, video_duration=90.0, packet_size=1400, rng_seed=seed))
    trace = labeled.trace
    flow = trace.flows[0]
    path = workdir / "warm_up.csv"
    path.write_bytes(inputs.csv_bytes(trace.times, trace.sizes, trace.flow_ids,
                                      [f"{flow.src},{flow.dst},{flow.dst_port}"]))
    with contextlib.redirect_stdout(io.StringIO()):
        rc = sp.cli.main(["analyze", str(path), "--out", str(workdir / "warm_up_out")])
    if rc != 0:
        raise RuntimeError(f"warm-up analyze exited with {rc}")
    live = sp.StreamProfiler(flow=flow)
    for i, (t, size) in enumerate(zip(trace.times.tolist(), trace.sizes.tolist())):
        live.feed(t, size)
        if i == len(trace) // 2:
            live.report()
    live.report()
    sp.evaluate.check_report(sp.evaluate.run_scenario("MQ", 1, base_seed=seed))


@contextlib.contextmanager
def _generated(ev):
    """Wrap ``evaluate``'s trace generators for the duration of the block,
    digesting and counting every trace they return."""
    seen = {"sha256": hashlib.sha256(), "packets": 0}

    def counting(fn):
        def wrapper(*args, **kwargs):
            labeled = fn(*args, **kwargs)
            seen["sha256"].update(labeled.trace.times.tobytes())
            seen["sha256"].update(labeled.trace.sizes.tobytes())
            seen["packets"] += len(labeled.trace)
            return labeled
        return wrapper

    originals = {name: getattr(ev, name) for name in ("generate", "generate_bulk")}
    for name, fn in originals.items():
        setattr(ev, name, counting(fn))
    try:
        yield seen
    finally:
        for name, fn in originals.items():
            setattr(ev, name, fn)


class Analyze:
    """``streamprofiler analyze`` on one CSV, run in-process through ``cli.main``."""

    def __init__(self, sp, seed: int, workdir: Path, make_input):
        self.sp, self.seed = sp, seed
        self.make_input = make_input
        self.csv_path = workdir / f"{self.name}.csv"
        self.out_dir = workdir / f"{self.name}_out"
        self.reference: str | None = None
        self.quality: dict[str, float] = {}

    def setup(self) -> dict[str, str]:
        self.input = self.make_input(self.sp, self.seed)
        self.csv_path.write_bytes(self.input.csv)
        self.packets = self.input.n_packets
        return {self.csv_path.name: self.input.sha256}

    def run_pass(self, clock=time.perf_counter) -> Pass:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        gc.collect()
        argv = ["analyze", str(self.csv_path), "--out", str(self.out_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            start = clock()
            rc = self.sp.cli.main(argv)
            seconds = clock() - start
        return Pass(seconds, [seconds], rc)

    def check(self, result: Pass) -> Check:
        files = sorted(self.out_dir.iterdir())
        reports = [p for p in files if p.suffix == ".json"]
        texts = [p.read_bytes() for p in reports]
        out_digest = checks.digest(c for p, t in zip(reports, texts) for c in (p.name, t))
        attempted = len(self.input.truth)
        if result.outputs != 0:
            return Check(attempted, attempted, out_digest,
                         [f"analyze exited with {result.outputs}"], len(files))
        if self.reference is not None:
            # the first pass was checked in full; later passes must repeat it
            if out_digest == self.reference:
                return Check(attempted, 0, out_digest, [], len(files))
            return Check(attempted, attempted, out_digest,
                         ["outputs differ from the first pass"], len(files))
        failed, problems, pairs, rows = 0, [], [], 0
        for path, text in zip(reports, texts):
            try:
                report = checks.load_report(text)
                truth = self.input.truth[report["flow"]["dst_port"]]
            except (ValueError, KeyError, TypeError) as exc:
                failed += 1
                problems.append(f"{path.name}: {exc}")
                continue
            rows += report["n_packets"]
            flow_problems = (checks.profile_problems(report, truth.n_packets)
                             + checks.verdict_problems(report, truth))
            if flow_problems:
                failed += 1
                problems += [f"{path.name}: {p}" for p in flow_problems]
            pairs.append((report, truth))
        ports = {report["flow"]["dst_port"] for report, _ in pairs}
        if len(ports) != attempted:
            failed += attempted - len(ports)
            problems.append(f"{attempted - len(ports)} flow(s) have no report")
        if rows != self.packets:
            failed = max(failed, 1)
            problems.append(f"reports hold {rows} packets, the CSV has {self.packets} rows")
        if pairs:
            self.quality = checks.accuracy(pairs)
        self.reference = out_digest
        return Check(attempted, min(failed, attempted), out_digest, problems, len(files))


class LongFlow(Analyze):
    name = "long_flow"
    why = ("one HQ session of ~84k packets through analyze: CSV parsing and JSON/buffer "
           "output dominate, demux does nothing")

    def __init__(self, sp, seed, workdir):
        super().__init__(sp, seed, workdir, inputs.hq_session)


class ManyFlows(Analyze):
    name = "many_flows"
    why = ("~1,000 mixed flows in one CSV through analyze: demux, per-flow fixed cost "
           "and rate bins of sparse flows")

    def __init__(self, sp, seed, workdir):
        super().__init__(sp, seed, workdir, inputs.flow_mix)


class LiveMonitor:
    """The HQ session fed packet by packet into a ``StreamProfiler``, queried
    every 2 s of trace time and once more after the last packet."""

    name = "live_monitor"
    why = ("the only incremental path: StreamProfiler.feed with report() every 2 s of "
           "trace time; no parse, demux or JSON")

    def __init__(self, sp, seed: int, workdir: Path):
        self.sp, self.seed = sp, seed
        self.reference: str | None = None
        self.quality: dict[str, float] = {}

    def setup(self) -> dict[str, str]:
        self.input = inputs.hq_session(self.sp, self.seed)
        self.truth = next(iter(self.input.truth.values()))
        self.times = self.input.times.tolist()
        self.sizes = self.input.sizes.tolist()
        self.flow = self.sp.FlowKey(*self.input.flows[0])
        self.packets = self.input.n_packets
        return {"live_monitor.csv": self.input.sha256}

    def run_pass(self, clock=time.perf_counter) -> Pass:
        gc.collect()
        answers, latencies = [], []
        start = clock()
        profiler = self.sp.StreamProfiler(flow=self.flow)
        next_query = self.times[0] + QUERY_EVERY_S
        for t, size in zip(self.times, self.sizes):
            while t >= next_query:
                q = clock()
                report = profiler.report()
                latencies.append(clock() - q)
                answers.append((profiler.n_packets, report))
                next_query += QUERY_EVERY_S
            profiler.feed(t, size)
        q = clock()
        report = profiler.report()
        latencies.append(clock() - q)
        answers.append((profiler.n_packets, report))
        return Pass(clock() - start, latencies, answers)

    def check(self, result: Pass) -> Check:
        answers = result.outputs
        summary = [repr((fed, [(s.phase, s.t_start, s.t_end, s.volume) for s in report.segments],
                         report.rate_estimate.session)) for fed, report in answers]
        final = answers[-1][1].to_json()
        out_digest = checks.digest([final, *summary])
        if self.reference is not None:
            # the first pass was checked in full; later passes must repeat it
            if out_digest == self.reference:
                return Check(len(answers), 0, out_digest)
            return Check(len(answers), len(answers), out_digest,
                         ["outputs differ from the first pass"])
        problems, failed = [], 0
        for fed, report in answers:
            query_problems = checks.profile_problems(
                report.to_dict(include_buffer_samples=False), fed)
            if query_problems:
                failed += 1
                problems += [f"query after {fed} packets: {p}" for p in query_problems]
        whole = self.sp.Trace.single_flow(self.input.times, self.input.sizes, self.flow)
        final_problems = []
        if final != self.sp.profile(whole).to_json():
            final_problems.append("final query differs from profile() of the whole flow")
        try:
            final_report = checks.load_report(final)
            final_problems += checks.verdict_problems(final_report, self.truth)
        except ValueError as exc:
            final_problems.append(str(exc))
        if final_problems:
            failed += 1
            problems += final_problems
        else:
            self.quality = checks.accuracy([(final_report, self.truth)])
        self.reference = out_digest
        return Check(len(answers), min(failed, len(answers)), out_digest, problems)


class ScenarioBatch:
    """``evaluate.run_scenario`` for every preset, then ``check_report`` on each."""

    name = "scenario_batch"
    why = ("the only path through synth and evaluate, and the accuracy guard: "
           "20 seeded runs of each preset scored against ground truth")

    def __init__(self, sp, seed: int, workdir: Path):
        self.sp, self.seed = sp, seed
        self.base_seed = seed * SCENARIO_RUNS
        self.reference: str | None = None
        self.quality: dict[str, float] = {}

    def setup(self) -> dict[str, str]:
        """Run one untimed pass, digesting and counting every trace it generates."""
        with _generated(self.sp.evaluate) as seen:
            self.run_pass()
        if not seen["packets"]:
            raise RuntimeError("run_scenario generated no trace through evaluate.generate*")
        self.packets = seen["packets"]
        return {"scenario_traces": seen["sha256"].hexdigest()}

    def run_pass(self, clock=time.perf_counter) -> Pass:
        gc.collect()
        ev = self.sp.evaluate
        start = clock()
        results = []
        for preset in PRESETS:
            report = ev.run_scenario(preset, SCENARIO_RUNS, base_seed=self.base_seed)
            results.append((report, ev.check_report(report)))
        seconds = clock() - start
        return Pass(seconds, [seconds], results)

    def check(self, result: Pass) -> Check:
        problems, failed, attempted, texts = [], 0, 0, []
        correct, diag, nrmse = 0, [], []
        for report, violations in result.outputs:
            preset = report["scenario"]
            want_video = preset != "bulk"
            attempted += report["runs"]
            wrong = sum(run["is_video_stream"] != want_video for run in report["per_run"])
            correct += report["runs"] - wrong
            if wrong:
                problems.append(f"{preset}: {wrong} run(s) with a wrong verdict")
            if violations:
                problems += violations
            failed += report["runs"] if violations else wrong
            stable = {k: v for k, v in report.items() if k != "elapsed_s"}
            try:
                texts.append(json.dumps(stable, sort_keys=True, allow_nan=False))
            except ValueError as exc:
                problems.append(f"{preset}: {exc}")
                failed += report["runs"]
            if want_video:
                steady = report["confusion_diagonal_percent"]["steady_state"]
                pooled = report["nrmse"]["pooled"]
                # no true steady time or no estimate at all scores as the worst value
                diag.append(0.0 if steady is None else steady)
                nrmse.append(1.0 if pooled is None else pooled)
        out_digest = checks.digest(texts)
        if self.reference is None:
            self.reference = out_digest
            self.quality = {"verdict_acc_pct": 100.0 * correct / attempted,
                            "steady_diag_pct": min(diag), "rate_nrmse": max(nrmse)}
        elif out_digest != self.reference:
            problems.append("outputs differ from the first pass")
            failed = attempted
        return Check(attempted, min(failed, attempted), out_digest, problems)


WORKLOADS = {w.name: w for w in (LongFlow, ManyFlows, LiveMonitor, ScenarioBatch)}
