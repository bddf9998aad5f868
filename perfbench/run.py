"""Benchmark of the streamprofiler package: one workload, one seed, one run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload long_flow --seed 1 --seconds 15 --trace 0

The package is imported from ``src/`` of the checkout; nothing is installed
or built. A run generates the workload's inputs from the seed, sets up
``SETUP_REPS`` times, then runs closed-loop passes (each call starts when
the previous one returns, one process, one thread) until ``--seconds`` of
pass time are spent, checking the outputs of every pass. Every time is
scaled to a nominal host speed sampled while it ran (see ``hostspeed``).
The accuracy metrics come from one more checked pass on the inputs of the
fixed seed ``PANEL_SEED``, so that they are exact for a given version of
the package whatever the seed.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` installs span
wrappers around the package's public functions, alternates untraced and
traced passes, and reports the per-layer metrics plus the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record
(environment, input digests, raw samples, output digest, spans) goes to
``.bench_out/results/``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPS = 3        # set-up is repeated and its median reported
MIN_PASSES = 5        # per kind of pass, even when few passes fit in --seconds
MAX_MEASURE_S = 120.0  # stop starting passes after this much wall time
PANEL_SEED = 0        # the accuracy metrics come from this seed's inputs

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "pkts_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_pct": "%",
    "verdict_acc_pct": "%",
    "steady_diag_pct": "%",
    "rate_nrmse": "ratio",
}

# time metrics come from tracing.LAYER_TIMES / SELF_TIMES; the rest are
# per-pass counts and ratios computed here
PER_LAYER = {
    "trace.parse_s": "s", "trace.normalize_s": "s", "trace.demux_s": "s",
    "trace.pkts": "count", "trace.flows": "count",
    "rate.aggregate_s": "s", "rate.smooth_s": "s", "rate.detect_changes_s": "s",
    "rate.bins": "count", "rate.bins_per_pkt": "ratio", "rate.events": "count",
    "bursts.segment_s": "s", "bursts.classify_s": "s", "bursts.confirm_s": "s",
    "bursts.raw": "count", "bursts.retained": "count", "bursts.candidates": "count",
    "profiler.fuse_s": "s", "profiler.estimate_s": "s", "profiler.buffer_s": "s",
    "profiler.to_json_s": "s", "profiler.self_s": "s", "profiler.segments": "count",
    "profiler.buffer_samples": "count", "profiler.json_bytes": "B",
    "profiler.confirm_ratio": "ratio",
    "profiler.live_query_s": "s", "profiler.live_reprocess_ratio": "ratio",
    "synth.generate_s": "s", "synth.pkts": "count",
    "evaluate.score_s": "s", "evaluate.self_s": "s",
    "cli.self_s": "s", "cli.files_written": "count",
    "tracing.overhead_s": "s", "tracing.spans": "count",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0, help="pass time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode())
        src.update(path.read_bytes())
    return {
        "git_sha": _git_sha(ROOT),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "control": "no CPU pinning and no frequency control",
    }


def _p95(samples: list[float]) -> float:
    # "inclusive" interpolates as numpy's percentile does; the default "exclusive"
    # reads almost the slowest of ~20 passes, which one stray pass moves
    return statistics.quantiles(samples, n=20, method="inclusive")[18]


def _per_layer(tracing, warm_up, traced, counts, files_written, untraced_s, packets) -> dict:
    """Times: the traced warm-up plus the mean traced pass, scaled; counts: per-pass means."""
    warm_spans, warm_scale = warm_up
    out = {name: seconds * warm_scale for name, seconds in tracing.layer_times(warm_spans).items()}
    n = len(traced)
    for spans, _, scale in traced:
        for name, seconds in tracing.layer_times(spans).items():
            out[name] += seconds * scale / n
    c = Counter()
    for pass_counts in counts:
        c.update(pass_counts)
    c = Counter({key: total / n for key, total in c.items()})
    out.update({
        "trace.pkts": c["pkts"], "trace.flows": c["flows"],
        "rate.bins": c["bins"],
        "rate.bins_per_pkt": c["bins"] / c["binned_pkts"] if c["binned_pkts"] else 0.0,
        "rate.events": c["events"],
        "bursts.raw": c["bursts_raw"], "bursts.retained": c["bursts_retained"],
        "bursts.candidates": c["candidates"],
        "profiler.segments": c["segments"], "profiler.buffer_samples": c["buffer_samples"],
        "profiler.json_bytes": c["json_bytes"],
        "profiler.confirm_ratio": (c["confirmed"] / c["fused_candidates"]
                                   if c["fused_candidates"] else 0.0),
        "profiler.live_reprocess_ratio": c["live_profiled_pkts"] / packets,
        "synth.pkts": c["synth_pkts"],
        "cli.files_written": sum(files_written) / n,
        "tracing.overhead_s": (statistics.median(s for _, s, _ in traced)
                               - statistics.median(untraced_s)),
        "tracing.spans": sum(len(spans) for spans, _, _ in traced) / n,
    })
    return {name: out[name] for name in PER_LAYER}


def accuracy_panel(sp, workload_cls, workdir: Path):
    """One checked pass of the workload on the fixed ``PANEL_SEED``: its accuracy
    figures and its check."""
    import workloads

    workdir.mkdir(parents=True)
    wl = workload_cls(sp, PANEL_SEED, workdir)
    try:
        wl.setup()
        check = wl.check(wl.run_pass())
    except Exception:  # a panel that raises fails, like a pass that raises
        return {}, workloads.Check(1, 1, "", [traceback.format_exc()])
    return wl.quality, check


def measure(sp, args, workdir: Path, import_s: float, speed) -> dict:
    import hostspeed
    import tracing
    import workloads

    workload_cls = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(clock=speed.clock)
        tracer.install()
        if tracer.absent:
            print(f"absent (not traced): {', '.join(tracer.absent)}", file=sys.stderr)

    setup_raw, setup_scaled, input_digests, warm_up = [], [], [], ([], 1.0)
    for _ in range(1 if tracer else SETUP_REPS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        wl = workload_cls(sp, args.seed, workdir)
        mark = speed.mark()
        start = speed.clock()
        input_digests.append(wl.setup())
        if tracer:  # the warm-up is traced, the generation of inputs is not
            span_mark = len(tracer.spans)
            tracer.active = True
            tracer.start_request()
        try:
            workloads.warm_up(sp, workdir, args.seed)
        finally:
            if tracer:
                tracer.active = False
        seconds = speed.clock() - start
        scale = speed.scale(mark)
        setup_raw.append(seconds)
        setup_scaled.append(seconds * scale)
        if tracer:
            warm_up = (tracer.spans[span_mark:], scale)

    problems = []
    if any(d != input_digests[0] for d in input_digests):
        problems.append("inputs differ between set-ups of the same seed")
    # untraced: (scaled s, raw s, scale, process CPU s); traced: (spans, scaled s, scale)
    untraced, traced, latencies, counts, files_written, digests = [], [], [], [], [], []
    attempted = failed = 0
    spent, started = 0.0, time.perf_counter()
    while (spent < args.seconds or len(untraced) < MIN_PASSES
           or (tracer and len(traced) < MIN_PASSES)) \
            and time.perf_counter() - started < MAX_MEASURE_S:
        traced_pass = tracer is not None and len(untraced) > len(traced)
        if traced_pass:
            span_mark, before = len(tracer.spans), Counter(tracer.counts)
            tracer.active = True
            tracer.start_request()
        mark = speed.mark()
        cpu = time.process_time() - speed.sampling_s
        try:
            result = wl.run_pass(speed.clock)
        except Exception:  # a pass that raises is a failed pass; report it, do not crash
            problems.append(traceback.format_exc())
            attempted += 1
            failed += 1
            break
        finally:
            if tracer:
                tracer.active = False
        cpu = time.process_time() - speed.sampling_s - cpu
        scale = speed.scale(mark)
        check = wl.check(result)
        attempted += check.attempted
        failed += check.failed
        problems += check.problems[:20]
        digests.append(check.digest)
        spent += result.seconds
        if traced_pass:
            traced.append((tracer.spans[span_mark:], result.seconds * scale, scale))
            counts.append(Counter(tracer.counts) - before)
            files_written.append(check.files_written)
        else:
            untraced.append((result.seconds * scale, result.seconds, scale, cpu))
            latencies += [seconds * scale for seconds in result.latencies]

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    quality, panel = wl.quality, None
    if not tracer and untraced and args.seed != PANEL_SEED:
        quality, panel = accuracy_panel(sp, workload_cls, workdir / "panel")
        attempted += panel.attempted
        failed += panel.failed
        problems += [f"panel seed {PANEL_SEED}: {p}" for p in panel.problems[:20]]

    metrics, per_layer = {}, {}
    pass_s = [p[0] for p in untraced]
    if untraced:
        wall = statistics.median(pass_s)
        metrics = {
            "setup_s": import_s + statistics.median(setup_scaled),
            "wall_s": wall,
            "pkts_per_s": wl.packets / wall,
            "query_p50_ms": 1000.0 * statistics.median(latencies),
            "query_p95_ms": 1000.0 * _p95(latencies) if len(latencies) > 1 else 1000.0 * wall,
            "peak_rss_mb": peak_rss_mb,
            "ok_pct": 100.0 * (1.0 - failed / max(attempted, 1)),
            **{k: quality.get(k, 0.0) for k in ("verdict_acc_pct", "steady_diag_pct",
                                                "rate_nrmse")},
        }
    if tracer and traced:
        per_layer = _per_layer(tracing, warm_up, traced, counts, files_written,
                               pass_s, wl.packets)
    return {
        "workload": args.workload,
        "why": workload_cls.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "inputs_sha256": input_digests[0],
        "output_sha256": digests[0] if digests else None,
        "outputs_repeat": len(set(digests)) == 1,
        "panel_output_sha256": panel.digest if panel else None,
        "correct": failed == 0 and not problems and bool(untraced),
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "problems": problems,
        "quality_at_seed": wl.quality,
        "kernel_nominal_s": hostspeed.REF_S,
        "kernel_s": speed.samples,
        "import_scaled_s": import_s,
        "elapsed_raw_s": time.perf_counter() - _T0,
        "setup_raw_s": setup_raw,
        "setup_scaled_s": setup_scaled,
        "untraced_pass_scaled_s": pass_s,
        "untraced_pass_raw_s": [p[1] for p in untraced],
        "untraced_pass_cpu_s": [p[3] for p in untraced],
        "untraced_pass_scale": [p[2] for p in untraced],
        "traced_pass_scaled_s": [s for _, s, _ in traced],
        "query_latencies_scaled_s": latencies,
        "absent": tracer.absent if tracer else [],
        "count_errors": dict(tracer.count_errors) if tracer else {},
        "end_to_end": metrics,
        "per_layer": per_layer,
        "_spans": ([("warm_up", warm_up[0])] + [(f"pass{i}", spans)
                                                for i, (spans, _, _) in enumerate(traced)]
                   if tracer else []),
    }


def write_record(record: dict) -> Path:
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    spans = record.pop("_spans")
    if spans:
        with gzip.open(results / f"{stem}-spans.jsonl.gz", "wt") as fh:
            for phase, items in spans:
                for sid, request, parent, name, start, end in items:
                    fh.write(json.dumps({"phase": phase, "id": sid, "request": request,
                                         "parent": parent, "name": name,
                                         "start": start - _T0, "end": end - _T0}) + "\n")
    path = results / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    package = SRC / "streamprofiler" / "__init__.py"
    if not package.is_file():
        print(f"error: {package} not found; run from the root of a streamprofiler checkout",
              file=sys.stderr)
        return 2
    import hostspeed

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        with hostspeed.HostSpeed() as speed:
            mark = speed.mark()
            start = speed.clock()
            sys.path.insert(0, str(SRC))
            import streamprofiler as sp
            import streamprofiler.cli  # noqa: F401  (makes sp.cli available)
            import streamprofiler.evaluate  # noqa: F401
            import workloads

            import_s = (speed.clock() - start) * speed.scale(mark)
            if Path(sp.__file__).resolve() != package.resolve():
                print(f"error: imported streamprofiler from {sp.__file__}, not {package}",
                      file=sys.stderr)
                return 2
            if args.workload not in workloads.WORKLOADS:
                print(f"error: unknown workload {args.workload!r}; "
                      f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
                return 2
            record = measure(sp, args, workdir, import_s, speed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = write_record(record)

    shown = record["per_layer"] if args.trace else record["end_to_end"]
    units = PER_LAYER if args.trace else END_TO_END
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(record['untraced_pass_scaled_s'])} untraced + "
          f"{len(record['traced_pass_scaled_s'])} traced "
          f"passes, attempted={record['attempted']} failed={record['failed']} "
          f"correct={record['correct']} outputs sha256={record['output_sha256']}")
    for problem in record["problems"][:10]:
        print(f"  problem: {problem.strip()}")
    for name, value in shown.items():
        print(f"  {name:<32} {value:>16.6f} {units[name]}")
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
