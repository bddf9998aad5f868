"""Summarise paired perfbench runs of a parent and a change into one JSON file.

    python3 tools/bench_summary.py PARENT_DIR CHANGE_DIR [--out PATH]

Reads the ``*-trace0.json`` records of ``perfbench/run.py`` and pairs them by
workload and seed. Per workload and ``BENCHMARK.json`` end-to-end metric: each
side's median and quartiles, the pairs the change won (ties count for neither)
and whether it is worse beyond the metric's ``bound``. Traced records
(``*-trace1.json``) of a workload and seed that both sides ran are listed
with their per-layer metrics under ``traced``; they do not enter the
comparison, but ``all_correct`` covers them.
A metric is ``unresolved`` when the parent's interquartile spread exceeds
``bound`` times its median, unless every change run is better than every
parent run: its runs spread too widely to call it unchanged.
Exits 1 on a record not ``correct`` or a metric worse beyond its bound.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: str, trace: int = 0) -> dict:
    """The records in ``directory`` untraced (or traced), by (workload, seed)."""
    records = (json.loads(p.read_text())
               for p in sorted(Path(directory).glob(f"*-trace{trace}.json")))
    return {(r["workload"], r["seed"]): r for r in records}


def quartiles(values: list) -> tuple[float, float, float]:
    """The first quartile, the median and the third quartile of ``values``."""
    return tuple(statistics.quantiles(values, n=4, method="inclusive")) if len(values) > 1 \
        else tuple(values * 3)


def summarise(parent: dict, change: dict, end_to_end: list, traced: tuple) -> dict:
    """The summary of paired records; ``end_to_end`` is ``BENCHMARK.json``'s list
    and ``traced`` the parent's and the change's traced records."""
    pairs = sorted(parent.keys() & change.keys())
    workloads = {}
    for name in sorted({w for w, _ in pairs}):
        both = [(parent[k], change[k]) for k in pairs if k[0] == name]
        metrics = {}
        for m in end_to_end:
            sign = 1.0 if m["better"] == "lower" else -1.0  # so that lower is better for all
            p, c = ([sign * pair[i]["end_to_end"][m["name"]] for pair in both] for i in (0, 1))
            (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
            metrics[m["name"]] = {
                "parent_median": sign * pm, "parent_quartiles": sorted((sign * p1, sign * p3)),
                "change_median": sign * cm, "change_quartiles": sorted((sign * c1, sign * c3)),
                "change_won": sum(b < a for a, b in zip(p, c)),
                "pairs": len(both), "bound": m["bound"],
                "worse_beyond_bound": cm - pm > m["bound"] * abs(pm),
                "unresolved": p3 - p1 > m["bound"] * abs(pm) and not max(c) < min(p)}
        workloads[name] = {
            "seeds": [seed for w, seed in pairs if w == name],
            "output_sha256_equal": all(a["output_sha256"] == b["output_sha256"] for a, b in both),
            "metrics": metrics}
    traced_pairs = sorted(traced[0].keys() & traced[1].keys())
    records = (*parent.values(), *change.values(), *(t[k] for t in traced for k in traced_pairs))
    return {**{side: {key: sorted({str(r["environment"][key]) for r in recs.values()})
                      for key in ("git_sha", "src_sha256")}
               for side, recs in (("parent", parent), ("change", change))},
            "host_control": sorted({r["environment"]["control"] for r in records}),
            "all_correct": all(r["correct"] for r in records), "workloads": workloads,
            "traced": {f"{w}-seed{seed}": {side: {"correct": recs[w, seed]["correct"],
                                                 "per_layer": recs[w, seed]["per_layer"]}
                                          for side, recs in zip(("parent", "change"), traced)}
                       for w, seed in traced_pairs}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--out", help="write the summary here instead of standard output")
    args = parser.parse_args(argv)
    end_to_end = json.loads(BENCHMARK.read_text())["end_to_end"]
    summary = summarise(load(args.parent_dir), load(args.change_dir), end_to_end,
                        (load(args.parent_dir, 1), load(args.change_dir, 1)))
    if not summary["workloads"]:
        parser.error("no workload and seed has a record on both sides")
    text = json.dumps(summary, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    worse = [f"{w}: {m}" for w, s in summary["workloads"].items()
             for m, v in s["metrics"].items() if v["worse_beyond_bound"]]
    for line in worse:
        print(f"{line} is worse than the parent beyond its bound", file=sys.stderr)
    return 0 if summary["all_correct"] and not worse else 1


if __name__ == "__main__":
    sys.exit(main())
