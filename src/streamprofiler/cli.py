"""Command-line front end: analyze traces, generate scenarios, run evaluations.

Exit codes: 0 success, 1 evaluation threshold violated, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

from . import evaluate as evaluate_mod
from . import synth as synth_mod
from .bursts import BurstParams, write_bursts_csv
from .profiler import UNIT_NOTE, FusionParams, ProfileReport, profile, to_kbps
from .rate import RateParams, write_rate_csv
from .synth import GeneratorDefaults, ScenarioSpec, SCENARIOS
from .trace import demux, load_trace, normalize, write_labels, write_trace


@dataclasses.dataclass
class Config:
    """Bundled pipeline parameters, JSON-loadable with per-flag overrides."""

    rate: RateParams = dataclasses.field(default_factory=RateParams)
    burst: BurstParams = dataclasses.field(default_factory=BurstParams)
    fusion: FusionParams = dataclasses.field(default_factory=FusionParams)
    generator: GeneratorDefaults = dataclasses.field(default_factory=GeneratorDefaults)

    @classmethod
    def from_dict(cls, data) -> "Config":
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        fields = dataclasses.fields(cls)
        unknown = set(data) - {f.name for f in fields}
        if unknown:
            raise ValueError(f"unknown config sections: {', '.join(sorted(unknown))}")
        sections = {}
        for f in fields:
            values = data.get(f.name, {})
            if not isinstance(values, dict):
                raise ValueError(f"config section {f.name!r} must be a JSON object")
            defaults = f.default_factory()
            for name, value in values.items():
                # JSON true/false would pass as the integers 1/0
                if isinstance(value, bool) and not isinstance(getattr(defaults, name, False), bool):
                    raise ValueError(f"config field {f.name}.{name} must be a number, got {value!r}")
            try:
                sections[f.name] = f.default_factory(**values)  # the section's params class
            except TypeError as exc:
                raise ValueError(f"bad config section {f.name!r}: {exc}") from None
        return cls(**sections)

    @classmethod
    def load(cls, path: str | Path) -> "Config":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


_OVERRIDES = {
    # parameter field (flag --field-name) -> (config section, help)
    "delta_t": ("rate", "rate bin width (s)"),
    "a": ("rate", "smoothing attenuation factor"),
    "c": ("rate", "rate-change threshold factor"),
    "h_t": ("burst", "burst gap threshold (s)"),
    "h_d": ("burst", "burst duration threshold (s)"),
    "h_r": ("burst", "burst rate-ratio threshold"),
    "h_s": ("burst", "minimum burst size (bytes)"),
    "h_n": ("burst", "consecutive steady bursts required"),
    "match_tolerance": ("fusion", "method agreement tolerance (s)"),
}


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="JSON", help="config file with parameter sections")
    group = parser.add_argument_group("parameter overrides")
    defaults = Config()
    for name, (section, help_text) in _OVERRIDES.items():
        group.add_argument("--" + name.replace("_", "-"), help=help_text,
                           type=type(getattr(getattr(defaults, section), name)))


def _build_config(args: argparse.Namespace) -> Config:
    cfg = Config.load(args.config) if getattr(args, "config", None) else Config()
    changes: dict[str, dict] = {}
    for name, (section, _) in _OVERRIDES.items():
        value = getattr(args, name, None)
        if value is not None:
            changes.setdefault(section, {})[name] = value
    return dataclasses.replace(cfg, **{section: dataclasses.replace(getattr(cfg, section), **values)
                                       for section, values in changes.items()})


def _flow_slug(index: int, flow) -> str:
    text = f"flow{index:02d}_{flow.src}_{flow.dst}"
    if flow.dst_port is not None:
        text += f"_{flow.dst_port}"
    return text.replace(":", "-")


def _write_segments_csv(report: ProfileReport, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["phase", "t_start", "t_end", "volume_bytes", "duration_s",
                         "mean_rate_Bps", "mean_rate_kbps"])
        for seg in report.segments:
            writer.writerow([seg.phase, repr(seg.t_start), repr(seg.t_end), seg.volume,
                             repr(seg.duration), repr(seg.mean_rate), repr(to_kbps(seg.mean_rate))])


def _write_buffer_csv(report: ProfileReport, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "buffered_bytes"])
        if report.buffer is not None:
            for t, level in report.buffer.samples():
                writer.writerow([repr(t), repr(level)])


def cmd_analyze(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    trace = load_trace(args.input)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    flows = demux(normalize(trace), merge_ports=args.merge_ports)
    print(f"{len(flows)} flow(s) in {args.input} ({UNIT_NOTE})")
    for i, (key, sub) in enumerate(flows.items()):
        report = profile(sub, cfg.rate, cfg.burst, cfg.fusion, include_debug=args.debug)
        slug = _flow_slug(i, key)
        (out_dir / f"{slug}.json").write_text(report.to_json() + "\n", encoding="utf-8")
        if args.debug:
            if report.rate_series is not None:
                write_rate_csv(report.rate_series, out_dir / f"{slug}_rate.csv")
            if report.bursts is not None:
                write_bursts_csv(report.bursts, out_dir / f"{slug}_bursts.csv")
            _write_segments_csv(report, out_dir / f"{slug}_segments.csv")
            _write_buffer_csv(report, out_dir / f"{slug}_buffer.csv")
        session = report.rate_estimate.session
        rate_text = ("no steady state" if session is None
                     else f"{session:.0f} B/s = {to_kbps(session):.0f} kbps")
        print(f"  {key}: packets={report.n_packets} video_stream="
              f"{report.verdict.is_video_stream} rate=[{rate_text}]")
    return 0


def _spec_from_file(path: str, seed: int | None) -> ScenarioSpec:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"scenario spec must be a JSON object, got {type(data).__name__}")
    if seed is not None:
        data["rng_seed"] = seed
    try:
        data["encode_rates"] = tuple(tuple(pair) for pair in data.get("encode_rates", ()))
        data["throttle_windows"] = tuple(tuple(w) for w in data.get("throttle_windows", ()))
        return ScenarioSpec(**data)
    except TypeError as exc:
        raise ValueError(f"bad scenario spec: {exc}") from None


def cmd_generate(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    if args.spec:
        labeled = synth_mod.generate(_spec_from_file(args.spec, args.seed))
    elif args.scenario == evaluate_mod.BULK_SCENARIO:
        labeled = synth_mod.generate_bulk(packet_size=cfg.generator.packet_size,
                                          seed=args.seed or 0)
    else:
        spec = synth_mod.scenario_spec(args.scenario, seed=args.seed or 0,
                                       defaults=cfg.generator)
        labeled = synth_mod.generate(spec)
    trace_path = Path(f"{args.out}.csv")
    labels_path = Path(f"{args.out}_labels.csv")
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    write_trace(labeled.trace, trace_path)
    write_labels(labeled.labels, labels_path)
    print(f"wrote {trace_path} ({len(labeled.trace)} packets) and "
          f"{labels_path} ({len(labeled.labels)} phases)")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    report = evaluate_mod.run_scenario(args.scenario, args.runs, cfg.rate, cfg.burst,
                                       cfg.fusion, cfg.generator, base_seed=args.seed)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"report_{args.scenario}.json"
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        _write_cdf_csvs(report, out_dir)
        print(f"wrote {path}")
    _print_evaluation(report)
    violations = evaluate_mod.check_report(report)
    for violation in violations:
        print(f"THRESHOLD VIOLATED: {violation}")
    return 1 if violations else 0


def _write_cdf_csvs(report: dict, out_dir: Path) -> None:
    scenario = report["scenario"]
    for ordinal, cdf in report.get("rate_cdf", {}).items():
        path = out_dir / f"cdf_{scenario}_steady{ordinal}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["estimated_Bps", "true_Bps", "quantile"])
            for est, true, q in zip(cdf["estimated_Bps"], cdf["true_Bps"], cdf["quantile"]):
                writer.writerow([repr(est), repr(true), repr(q)])


def _print_evaluation(report: dict) -> None:
    print(f"scenario {report['scenario']}: {report['runs']} runs in "
          f"{report['elapsed_s']:.1f} s ({UNIT_NOTE})")
    diag = report.get("confusion_diagonal_percent")
    if diag:
        parts = [f"{phase}={value:.2f}%" for phase, value in diag.items() if value is not None]
        print(f"  confusion diagonal: {', '.join(parts)}")
    pooled = report["nrmse"]["pooled"]
    if pooled is not None:
        per = ", ".join(f"phase {k}: {v:.4f}" for k, v in report["nrmse"]["per_steady_phase"].items())
        print(f"  NRMSE pooled={pooled:.4f} ({per})")
    checks = report["checks"]
    print(f"  video stream detected in {checks['video_detected_runs']}/{report['runs']} runs")


def cmd_report(args: argparse.Namespace) -> int:
    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        print(f"error: not a JSON report: {exc}", file=sys.stderr)
        return 2
    if "segments" in data:
        _print_profile(data)
    elif "scenario" in data:
        _print_evaluation(data)
    else:
        print("error: unrecognized report layout", file=sys.stderr)
        return 2
    return 0


def _print_profile(data: dict) -> None:
    flow = data.get("flow") or {}
    print(f"flow {flow.get('src')} -> {flow.get('dst')} port {flow.get('dst_port')} "
          f"({UNIT_NOTE})")
    print(f"  packets={data['n_packets']} bytes={data['total_bytes']} "
          f"span=[{data['t_start']:.3f}, {data['t_end']:.3f}]")
    for seg in data["segments"]:
        print(f"  {seg['phase']:<12} [{seg['t_start']:10.3f}, {seg['t_end']:10.3f}] "
              f"{seg['volume_bytes']:>12} B  {seg['mean_rate_Bps']:12.1f} B/s "
              f"= {seg['mean_rate_kbps']:8.1f} kbps")
    verdict = data["verdict"]
    print(f"  video stream: {verdict['is_video_stream']}")
    session = data["rate_estimate"]["session_Bps"]
    if session is not None:
        print(f"  estimated encoding rate: {session:.1f} B/s "
              f"= {data['rate_estimate']['session_kbps']:.1f} kbps")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamprofiler",
        description="Identify adaptive-streaming phases and encoding rate from packet traces.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="profile every flow in a trace CSV")
    p_analyze.add_argument("input", help="trace CSV (t,size,src,dst,dst_port)")
    p_analyze.add_argument("--out", default="profile_out", help="output directory")
    p_analyze.add_argument("--merge-ports", action="store_true",
                           help="scope flows by addresses only, merging destination ports")
    p_analyze.add_argument("--debug", action="store_true",
                           help="also write rate/burst/segment/buffer CSV dumps")
    _add_override_flags(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_generate = sub.add_parser("generate", help="write a synthetic labeled trace")
    p_generate.add_argument("scenario", nargs="?", default=None,
                            help=f"preset name: {', '.join(SCENARIOS)} or bulk")
    p_generate.add_argument("--spec", help="scenario spec JSON instead of a preset")
    p_generate.add_argument("--seed", type=int,
                            help="generator seed (default: 0, or the spec file's rng_seed)")
    p_generate.add_argument("--out", required=True,
                            help="output prefix; writes <out>.csv and <out>_labels.csv")
    _add_override_flags(p_generate)
    p_generate.set_defaults(func=cmd_generate)

    p_evaluate = sub.add_parser("evaluate", help="batch-score a scenario against ground truth")
    p_evaluate.add_argument("scenario",
                            help=f"preset name: {', '.join(SCENARIOS)} or bulk")
    p_evaluate.add_argument("--runs", type=int, default=50, help="number of seeded runs")
    p_evaluate.add_argument("--seed", type=int, default=0, help="base seed")
    p_evaluate.add_argument("--out", help="directory for the JSON report and CDF CSVs")
    _add_override_flags(p_evaluate)
    p_evaluate.set_defaults(func=cmd_evaluate)

    p_report = sub.add_parser("report", help="pretty-print a saved JSON report")
    p_report.add_argument("path")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "generate" and not args.spec and args.scenario is None:
        parser.error("generate needs a scenario name or --spec")
    if args.command == "evaluate" and args.runs < 1:
        parser.error("--runs must be >= 1")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
