import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_summary",
                                               ROOT / "tools" / "bench_summary.py")
bench_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_summary)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def record(seed, wall_s=1.0, pkts_per_s=1000.0, workload="live_monitor", correct=True,
           output="aa", src="s0"):
    metrics = {m["name"]: 1.0 for m in END_TO_END}
    metrics.update(wall_s=wall_s, pkts_per_s=pkts_per_s)
    return {"workload": workload, "seed": seed, "correct": correct, "output_sha256": output,
            "environment": {"git_sha": None, "src_sha256": src,
                            "control": "no CPU pinning and no frequency control"},
            "end_to_end": metrics}


def write(directory: Path, records, trace=0) -> str:
    directory.mkdir(exist_ok=True)
    for r in records:
        name = f"{r['workload']}-seed{r['seed']}-trace{trace}.json"
        (directory / name).write_text(json.dumps(r))
    return str(directory)


def run(tmp_path, parent, change, capsys):
    code = bench_summary.main([write(tmp_path / "parent", parent),
                               write(tmp_path / "change", change), "--out",
                               str(tmp_path / "summary.json")])
    summary = json.loads((tmp_path / "summary.json").read_text())
    return code, summary, capsys.readouterr().err


def test_pairs_by_workload_and_seed(tmp_path, capsys):
    parent = [record(seed, wall_s=w) for seed, w in enumerate([1.0, 2.0, 3.0, 4.0, 5.0])]
    change = [record(seed, wall_s=w, src="s1") for seed, w in enumerate([0.9, 2.0, 3.3, 3.0])]
    # unpaired: a seed the parent lacks, another workload, and a traced record
    change.append(record(9, wall_s=100.0, src="s1"))
    write(tmp_path / "change", [record(0, wall_s=100.0, workload="long_flow", src="s1")])
    write(tmp_path / "change", [record(1, wall_s=100.0, src="s1")], trace=1)
    code, summary, _ = run(tmp_path, parent, change, capsys)
    assert code == 0 and list(summary["workloads"]) == ["live_monitor"]
    assert summary["parent"]["src_sha256"] == ["s0"] and summary["change"]["src_sha256"] == ["s1"]
    assert summary["host_control"] == ["no CPU pinning and no frequency control"]
    live = summary["workloads"]["live_monitor"]
    assert live["seeds"] == [0, 1, 2, 3] and live["output_sha256_equal"]
    wall = live["metrics"]["wall_s"]
    assert wall["parent_median"] == 2.5 and wall["parent_quartiles"] == [1.75, 3.25]
    assert wall["change_median"] == 2.5 and wall["change_won"] == 2 and wall["pairs"] == 4
    assert wall["change_quartiles"] == pytest.approx([1.725, 3.075])
    assert summary["traced"] == {}
    assert not wall["worse_beyond_bound"]


@pytest.mark.parametrize("metric, value", [("wall_s", 1.3), ("pkts_per_s", 700.0)])
def test_worse_beyond_bound_exits_1(tmp_path, capsys, metric, value):
    parent = [record(seed) for seed in range(3)]
    code, summary, err = run(tmp_path, parent, [record(s, **{metric: value}) for s in range(3)],
                             capsys)
    assert code == 1 and f"live_monitor: {metric} is worse" in err
    assert [m for m, v in summary["workloads"]["live_monitor"]["metrics"].items()
            if v["worse_beyond_bound"]] == [metric]


def test_worse_inside_bound_and_other_digest_exit_0(tmp_path, capsys):
    parent = [record(seed) for seed in range(3)]
    change = [record(s, wall_s=1.2, output="bb") for s in range(3)]
    code, summary, _ = run(tmp_path, parent, change, capsys)
    assert code == 0 and not summary["workloads"]["live_monitor"]["output_sha256_equal"]


@pytest.mark.parametrize("change_wall, unresolved", [([2.0, 1.0, 5.0, 4.0, 3.0], True),
                                                     ([0.9, 0.8, 0.7, 0.6, 0.5], False)])
def test_wide_parent_spread_is_unresolved(tmp_path, capsys, change_wall, unresolved):
    # the parent's quartiles are 2.0 and 4.0, a spread wider than 0.25 x its median 3.0
    parent = [record(seed, wall_s=w) for seed, w in enumerate([1.0, 2.0, 3.0, 4.0, 5.0])]
    change = [record(seed, wall_s=w) for seed, w in enumerate(change_wall)]
    code, summary, _ = run(tmp_path, parent, change, capsys)
    metrics = summary["workloads"]["live_monitor"]["metrics"]
    assert code == 0 and metrics["wall_s"]["unresolved"] is unresolved
    assert not any(v["unresolved"] for m, v in metrics.items() if m != "wall_s")


def test_traced_records_of_both_sides_are_listed(tmp_path, capsys):
    def traced(seed, buffer_s, **kwargs):
        return {**record(seed, **kwargs), "per_layer": {"profiler.buffer_s": buffer_s}}

    write(tmp_path / "parent", [traced(0, 0.5), traced(1, 0.5)], trace=1)
    write(tmp_path / "change", [traced(0, 0.25, correct=False)], trace=1)
    code, summary, _ = run(tmp_path, [record(0)], [record(0)], capsys)
    # the change's traced record is not correct; the parent's unpaired one is not listed
    assert code == 1 and summary["all_correct"] is False
    assert summary["traced"] == {"live_monitor-seed0": {
        "parent": {"correct": True, "per_layer": {"profiler.buffer_s": 0.5}},
        "change": {"correct": False, "per_layer": {"profiler.buffer_s": 0.25}}}}


def test_incorrect_record_exits_1(tmp_path, capsys):
    parent = [record(0), record(1, correct=False)]
    code, summary, _ = run(tmp_path, parent, [record(0), record(1)], capsys)
    assert code == 1 and summary["all_correct"] is False


def test_nothing_paired_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        bench_summary.main([write(tmp_path / "parent", [record(0)]),
                            write(tmp_path / "change", [record(1)])])
    assert exit_info.value.code == 2
