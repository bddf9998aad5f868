"""Golden digests: sha256 of the profiler's outputs on fixed seeded inputs.

    python3 tools/golden.py          # list the cases whose digest moved; exit 1 if any
    python3 tools/golden.py --write  # regenerate tests/golden.json

The cases:

- ``profile/<preset>/seed<n>``: ``profile().to_json()`` of each preset
  (MQ, HQ, QC, AQ, bulk), seeds 0-2;
- ``live/<preset>/seed0``: every report of a ``StreamProfiler`` fed the
  seed-0 session of MQ, QC (its quality-switch refill and the reference
  burst's hand-over) or AQ (its capped class-0 stretch), queried every 2 s
  of trace time and after the last packet;
- ``analyze/<file>``: every file ``analyze --debug`` writes for one
  four-flow trace (two video sessions, a bulk transfer, a short web flow);
- ``scenario/<preset>``: ``run_scenario(preset, 10)`` as ``evaluate``
  writes it, without the run-time-dependent ``elapsed_s``;
- ``synth/<preset>/seed0``: the generated session itself, its times and
  sizes as bytes and its labels.

A change that keeps behaviour leaves the manifest as it is; a change that
moves a report on purpose regenerates it and says which cases moved.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "golden.json"
sys.path.insert(0, str(ROOT / "src"))

from streamprofiler import (FlowKey, StreamProfiler, Trace, cli, profile,  # noqa: E402
                            run_scenario, write_trace)
from streamprofiler.evaluate import PRESETS, build_preset  # noqa: E402
from streamprofiler.synth import GeneratorDefaults  # noqa: E402

SEEDS = (0, 1, 2)
LIVE_PRESETS = ("MQ", "QC", "AQ")
QUERY_EVERY_S = 2.0
SCENARIO_RUNS = 10


def _sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def _session(preset: str, seed: int):
    return build_preset(preset, seed, GeneratorDefaults())[0].trace


def synth_cases() -> dict[str, str]:
    cases = {}
    for preset in PRESETS:
        labeled = build_preset(preset, 0, GeneratorDefaults())[0]
        labels = json.dumps([[s.t_start, s.t_end, s.phase] for s in labeled.labels])
        cases[f"synth/{preset}/seed0"] = _sha256(labeled.trace.times.tobytes()
                                                 + labeled.trace.sizes.tobytes()
                                                 + labels.encode("utf-8"))
    return cases


def profile_cases() -> dict[str, str]:
    return {f"profile/{preset}/seed{seed}": _sha256(profile(_session(preset, seed)).to_json())
            for preset in PRESETS for seed in SEEDS}


def live_case(preset: str) -> str:
    trace = _session(preset, 0)
    times, sizes = trace.times.tolist(), trace.sizes.tolist()
    prof, digest = StreamProfiler(flow=trace.flows[0]), hashlib.sha256()
    next_query = times[0] + QUERY_EVERY_S
    for t, size in zip(times, sizes):
        while t >= next_query:
            digest.update(prof.report().to_json().encode("utf-8") + b"\n")
            next_query += QUERY_EVERY_S
        prof.feed(t, size)
    digest.update(prof.report().to_json().encode("utf-8") + b"\n")
    return digest.hexdigest()


def live_cases() -> dict[str, str]:
    return {f"live/{preset}/seed0": live_case(preset) for preset in LIVE_PRESETS}


def multi_flow_trace() -> Trace:
    """MQ seed 1, QC seed 2 from 30 s, bulk seed 3 from 100 s and five web
    packets, each on its own flow key, in time order."""
    sessions = (_session("MQ", 1), _session("QC", 2), _session("bulk", 3))
    columns = [(s.times, s.sizes) for s in sessions]
    columns.append((np.array([0.0, 0.5, 3.0, 9.0, 9.2]), np.full(5, 1500)))
    offsets = (0.0, 30.0, 100.0, 40.0)
    flows = [FlowKey("203.0.113.10", "192.0.2.1", 443), FlowKey("203.0.113.11", "192.0.2.1", 443),
             FlowKey("198.51.100.7", "192.0.2.2", 8080), FlowKey("198.51.100.8", "192.0.2.2", 80)]
    times = np.concatenate([t + offset for (t, _), offset in zip(columns, offsets)])
    sizes = np.concatenate([s for _, s in columns])
    ids = np.concatenate([np.full(len(t), i) for i, (t, _) in enumerate(columns)])
    order = np.argsort(times, kind="stable")
    return Trace(times[order], sizes[order], ids[order], flows)


def analyze_cases() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_trace(multi_flow_trace(), tmp / "mix.csv")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["analyze", str(tmp / "mix.csv"), "--out", str(tmp / "out"),
                             "--debug"])
        if code != 0:
            raise RuntimeError(f"analyze --debug exited {code}")
        return {f"analyze/{p.name}": _sha256(p.read_bytes())
                for p in sorted((tmp / "out").iterdir())}


def scenario_cases() -> dict[str, str]:
    cases = {}
    for preset in PRESETS:
        report = run_scenario(preset, SCENARIO_RUNS)
        del report["elapsed_s"]
        cases[f"scenario/{preset}"] = _sha256(json.dumps(report, indent=2, sort_keys=True))
    return cases


def digests() -> dict[str, str]:
    """Every case's digest, by case name."""
    return {**profile_cases(), **live_cases(), **analyze_cases(), **scenario_cases(),
            **synth_cases()}


def moved(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """The cases whose digest differs, or that only one side has, each with why."""
    lines = []
    for case in sorted(expected.keys() | actual.keys()):
        if case not in actual:
            lines.append(f"{case}: no longer produced")
        elif case not in expected:
            lines.append(f"{case}: not in the manifest")
        elif expected[case] != actual[case]:
            lines.append(f"{case}: digest moved")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help=f"write the current digests to {MANIFEST.relative_to(ROOT)}")
    args = parser.parse_args(argv)
    actual = digests()
    if args.write:
        MANIFEST.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(actual)} digests to {MANIFEST}")
        return 0
    lines = moved(json.loads(MANIFEST.read_text()), actual)
    print("\n".join(lines) if lines else f"all {len(actual)} cases match")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
