import json

import pytest

from streamprofiler import BurstParams, FusionParams, GeneratorDefaults, RateParams
from streamprofiler.cli import Config, main
from streamprofiler.trace import write_trace
from conftest import assert_tiles_and_partitions, single_packet_steady_trace


def run(argv):
    return main([str(a) for a in argv])


class TestConfig:
    def test_loads_hand_written_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"rate": {"c": 0.7}, "fusion": {"match_tolerance": 3.0}}')
        cfg = Config.load(path)
        assert cfg.rate == RateParams(c=0.7)
        assert cfg.fusion == FusionParams(match_tolerance=3.0)
        assert (cfg.burst, cfg.generator) == (BurstParams(), GeneratorDefaults())

    def test_rejects_unknown_sections(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"rates": {}}))
        with pytest.raises(ValueError, match="unknown config sections"):
            Config.load(path)

    def test_rejects_invalid_values(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"rate": {"c": 0.4}}))
        with pytest.raises(ValueError):
            Config.load(path)

    @pytest.mark.parametrize("data, message", [
        ({"fusion": {"silence_timeout": 30.0}}, "silence_timeout"),  # a removed field
        ([{"rate": {}}], "JSON object"),
        ({"burst": [1, 2]}, "'burst' must be a JSON object"),
        ({"burst": {"h_n": True}}, "burst.h_n must be a number"),  # would pass as 1
        ({"rate": {"a": True}}, "rate.a must be a number"),
        ({"generator": {"packet_size": False}}, "generator.packet_size must be a number"),
    ])
    def test_malformed_config_exits_2(self, tmp_path, capsys, data, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=message):
            Config.load(path)
        assert run(["generate", "MQ", "--config", path, "--out", tmp_path / "x"]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv", [["generate", "bulk"], ["generate", "MQ"],
                                      ["evaluate", "MQ", "--runs", 1]])
    def test_fractional_packet_size_exits_2(self, tmp_path, capsys, argv):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"generator": {"packet_size": 1400.5}}))
        assert run([*argv, "--config", path, "--out", tmp_path / "x"]) == 2
        assert "packet_size must be an integer, got 1400.5" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "none.json"
        assert run(["generate", "MQ", "--config", missing, "--out", tmp_path / "x"]) == 2
        assert str(missing) in capsys.readouterr().err


class TestGenerate:
    def test_writes_trace_and_labels(self, tmp_path):
        out = tmp_path / "mq1"
        assert run(["generate", "MQ", "--seed", 1, "--out", out]) == 0
        assert (tmp_path / "mq1.csv").exists()
        assert (tmp_path / "mq1_labels.csv").exists()

    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["generate", "QC", "--seed", 7, "--out", a])
        run(["generate", "QC", "--seed", 7, "--out", b])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a_labels.csv").read_bytes() == (tmp_path / "b_labels.csv").read_bytes()

    def test_unknown_scenario_exits_2_and_lists_presets(self, tmp_path, capsys):
        assert run(["generate", "ZZ", "--out", tmp_path / "x"]) == 2
        assert "MQ, HQ, QC, AQ" in capsys.readouterr().err

    def test_spec_file(self, tmp_path):
        spec = {
            "encode_rates": [[0.0, 80750.0]],
            "segment_duration": 5.0,
            "buffer_target": 2e6,
            "fill_throughput": 807500.0,
            "video_duration": 60.0,
            "packet_size": 1400,
            "rng_seed": 0,
            "name": "custom",
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert run(["generate", "--spec", spec_path, "--out", tmp_path / "c"]) == 0
        assert (tmp_path / "c.csv").exists()

    def test_spec_seed_used_unless_seed_given(self, tmp_path):
        spec = {"encode_rates": [[0.0, 80750.0]], "segment_duration": 5.0,
                "buffer_target": 2e6, "fill_throughput": 807500.0, "video_duration": 60.0,
                "packet_size": 1400, "rng_seed": 5}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        for out, extra in (("own", []), ("flag", ["--seed", 5]), ("zero", ["--seed", 0])):
            assert run(["generate", "--spec", spec_path, "--out", tmp_path / out, *extra]) == 0
        own = (tmp_path / "own.csv").read_bytes()
        assert own == (tmp_path / "flag.csv").read_bytes()
        assert own != (tmp_path / "zero.csv").read_bytes()

    def test_malformed_spec_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"encode_rates": [[0.0, 80750.0]], "bogus_field": 1}))
        assert run(["generate", "--spec", spec_path, "--out", tmp_path / "c"]) == 2
        assert "bogus_field" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        ("encode_rates", [5], "bad scenario spec"),
        ("throttle_windows", [7], "bad scenario spec"),
        ("packet_size", 1400.5, "packet_size must be an integer"),
        ("packet_size", True, "packet_size must be an integer"),
        ("rng_seed", 1.5, "rng_seed must be an integer"),
        ("video_duration", float("inf"), "video_duration must be finite"),
    ])
    def test_malformed_spec_field_exits_2(self, tmp_path, capsys, field, value, message):
        spec = {"encode_rates": [[0.0, 80750.0]], "segment_duration": 5.0,
                "buffer_target": 2e6, "fill_throughput": 807500.0, "video_duration": 60.0,
                "packet_size": 1400, "rng_seed": 0, field: value}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert run(["generate", "--spec", spec_path, "--out", tmp_path / "c"]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    def test_non_object_spec_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("[]")
        assert run(["generate", "--spec", spec_path, "--out", tmp_path / "c"]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_missing_scenario_and_spec_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["generate", "--out", tmp_path / "x"])
        assert exc.value.code == 2


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traces")
    run(["generate", "MQ", "--seed", 1, "--out", tmp / "mq"])
    return tmp / "mq.csv"


class TestAnalyze:

    def test_detects_video_stream(self, tmp_path, trace_path, capsys):
        out = tmp_path / "out"
        assert run(["analyze", trace_path, "--out", out]) == 0
        reports = list(out.glob("*.json"))
        assert len(reports) == 1
        data = json.loads(reports[0].read_text())
        assert data["verdict"]["is_video_stream"] is True
        assert "bytes per second" in data["unit_note"]
        assert "bytes per second" in capsys.readouterr().out

    def test_bulk_is_not_video(self, tmp_path):
        run(["generate", "bulk", "--out", tmp_path / "bulk"])
        out = tmp_path / "out"
        assert run(["analyze", tmp_path / "bulk.csv", "--out", out]) == 0
        data = json.loads(next(out.glob("*.json")).read_text())
        assert data["verdict"]["is_video_stream"] is False

    def test_missing_file_exits_2_naming_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        assert run(["analyze", missing, "--out", tmp_path / "out"]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_oversized_payload_exits_2_with_line_number(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text("t,size,src,dst,dst_port\n0.1,99999999999999999999,10.0.0.1,10.0.0.2,443\n")
        assert run(["analyze", path, "--out", tmp_path / "out"]) == 2
        assert "line 2: payload size" in capsys.readouterr().err

    def test_directory_input_exits_2(self, tmp_path, capsys):
        assert run(["analyze", tmp_path, "--out", tmp_path / "out"]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_out_naming_a_file_exits_2(self, tmp_path, trace_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert run(["analyze", trace_path, "--out", out]) == 2
        assert str(out) in capsys.readouterr().err

    def test_debug_dumps(self, tmp_path, trace_path):
        out = tmp_path / "dbg"
        assert run(["analyze", trace_path, "--out", out, "--debug"]) == 0
        stems = {p.name.rsplit("_", 1)[-1] for p in out.glob("*.csv")}
        assert stems == {"rate.csv", "bursts.csv", "segments.csv", "buffer.csv"}

    def test_parameter_override_changes_result(self, tmp_path, trace_path):
        out = tmp_path / "strict"
        # an absurd steady-burst requirement suppresses the steady phase
        assert run(["analyze", trace_path, "--out", out, "--h-n", 10_000]) == 0
        data = json.loads(next(out.glob("*.json")).read_text())
        assert data["verdict"]["is_video_stream"] is False

    def test_single_packet_steady_run_with_h_n_1(self, tmp_path):
        path = tmp_path / "lone.csv"
        write_trace(single_packet_steady_trace(), path)
        out = tmp_path / "out"
        assert run(["analyze", path, "--out", out, "--h-n", 1]) == 0
        data = json.loads(next(out.glob("*.json")).read_text())
        assert_tiles_and_partitions(data["segments"], data["t_start"], data["t_end"],
                                    data["total_bytes"])


class TestEvaluate:
    def test_small_run_passes_and_writes_report(self, tmp_path):
        out = tmp_path / "eval"
        assert run(["evaluate", "MQ", "--runs", 3, "--seed", 11, "--out", out]) == 0
        report = json.loads((out / "report_MQ.json").read_text())
        assert report["runs"] == 3
        assert (out / "cdf_MQ_steady1.csv").exists()

    def test_threshold_violation_exits_1(self, tmp_path, capsys):
        # impossible tolerance: no candidate can ever match, so no video stream
        code = run(["evaluate", "MQ", "--runs", 1, "--h-s", 10**12])
        assert code == 1
        assert "THRESHOLD VIOLATED" in capsys.readouterr().out

    def test_zero_runs_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["evaluate", "MQ", "--runs", 0])
        assert exc.value.code == 2


class TestReport:
    def test_pretty_prints_profile(self, tmp_path, capsys):
        run(["generate", "MQ", "--seed", 2, "--out", tmp_path / "mq"])
        out = tmp_path / "out"
        run(["analyze", tmp_path / "mq.csv", "--out", out])
        capsys.readouterr()
        report_path = next(out.glob("*.json"))
        assert run(["report", report_path]) == 0
        text = capsys.readouterr().out
        assert "video stream: True" in text
        assert "kbps" in text

    def test_pretty_prints_evaluation(self, tmp_path, capsys):
        out = tmp_path / "eval"
        run(["evaluate", "HQ", "--runs", 2, "--out", out])
        capsys.readouterr()
        assert run(["report", out / "report_HQ.json"]) == 0
        assert "confusion diagonal" in capsys.readouterr().out

    def test_missing_report_exits_2(self, tmp_path):
        assert run(["report", tmp_path / "none.json"]) == 2

    def test_directory_report_exits_2(self, tmp_path, capsys):
        assert run(["report", tmp_path]) == 2
        assert str(tmp_path) in capsys.readouterr().err
