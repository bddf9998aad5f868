import argparse
import json
from unittest import mock

import pytest

import streamprofiler.trace as trace_mod
from streamprofiler import (BurstParams, FusionParams, GeneratorDefaults, PhaseSegment, RateParams,
                            classify, filter_small, profile, segment)
from streamprofiler.rate import analyze
from streamprofiler.cli import Config, build_parser, main
from streamprofiler.trace import demux, load_trace, normalize, write_trace
from conftest import (
    assert_tiles_and_partitions,
    reference_write_buffer_csv,
    reference_write_bursts_csv,
    reference_write_cdf_csvs,
    reference_write_rate_csv,
    reference_write_segments_csv,
    single_packet_steady_trace,
)


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
        ({"burst": {"h_n": True}}, "h_n must be an integer, got True"),  # would pass as 1
        ({"rate": {"a": True}}, "a takes numbers, not True"),
        ({"generator": {"packet_size": False}}, "packet_size must be an integer, got False"),
        ({"generator": {"throttling_factor": 1.0}}, "throttling_factor"),  # a removed field
    ])
    def test_malformed_config_exits_2(self, tmp_path, capsys, data, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=message):
            Config.load(path)
        assert run(["generate", "MQ", "--config", path, "--out", tmp_path / "x"]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv", [["generate", "MQ"], ["evaluate", "MQ", "--runs", 1]])
    @pytest.mark.parametrize("field, value", [("segment_duration", "5"), ("fill_factor", "x"),
                                              ("video_duration", None)])
    def test_non_number_exits_2(self, tmp_path, capsys, argv, field, value):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"generator": {field: value}}))
        assert run([*argv, "--config", path, "--out", tmp_path / "x"]) == 2
        assert f"error: {field} takes numbers, not {value!r}\n" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("field", ["fill_factor", "segment_duration"])
    def test_generator_section_checked_for_bulk(self, tmp_path, capsys, field):
        path = tmp_path / "config.json"  # bulk uses neither field, but the config is bad
        path.write_text(json.dumps({"generator": {field: -1}}))
        assert run(["generate", "bulk", "--config", path, "--out", tmp_path / "x"]) == 2
        assert f"error: {field} must be finite and > 0, got -1\n" in capsys.readouterr().err
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


class TestFlags:
    @pytest.mark.parametrize("argv, unknown", [
        (["evaluate", "MQ", "--run", 1], "--run 1"),
        (["analyze", "t.csv", "--merge", "--debu"], "--merge --debu"),
        (["generate", "MQ", "--c", 5, "--out", "x"], "--c 5"),  # not --config
    ])
    def test_abbreviated_flag_exits_2(self, tmp_path, monkeypatch, capsys, argv, unknown):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {unknown}\n" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_every_full_flag_parses(self):
        parser = build_parser()
        [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        base = {"analyze": ["t.csv"], "generate": ["MQ", "--out", "x"], "evaluate": ["MQ"],
                "report": ["r.json"]}
        assert set(commands.choices) == set(base)
        seen = 0
        for command, sub in commands.choices.items():
            for action in sub._actions:
                for flag in set(action.option_strings) - {"-h", "--help"}:
                    value = [] if action.nargs == 0 else ["1"]
                    args = parser.parse_args([command, *base[command], flag, *value])
                    want = True if action.nargs == 0 else (action.type or str)("1")
                    assert getattr(args, action.dest) == want, (command, flag)
                    seen += 1
        assert seen == 13 + 4 + 13 + 0  # analyze, generate, evaluate, report


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
        assert "presets are MQ, HQ, QC, AQ, bulk\n" in capsys.readouterr().err

    def test_detector_flags_are_not_options_of_generate(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["generate", "MQ", "--h-t", 2, "--out", tmp_path / "x"])
        assert exc.value.code == 2
        assert not (tmp_path / "x.csv").exists()
        capsys.readouterr()
        for command in ("generate", "analyze", "evaluate"):
            with pytest.raises(SystemExit):
                run([command, "--help"])
            text = capsys.readouterr().out
            flags = [f for f in ("--delta-t", "--a ", "--c ", "--h-t", "--h-d", "--h-r",
                                 "--h-s", "--h-n", "--match-tolerance", "--config")
                     if f in text]
            assert len(flags) == (1 if command == "generate" else 10), (command, flags)

    def test_help_lists_every_preset(self, capsys):
        for command in ("generate", "evaluate"):
            with pytest.raises(SystemExit):
                run([command, "--help"])
            assert "preset name: MQ, HQ, QC, AQ, bulk" in capsys.readouterr().out

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
        ("encode_rates", [[0.0, 80750.0], [0.0, 168250.0]], "must strictly increase"),
        ("encode_rates", [[0.0, 80750.0], [float("nan"), 168250.0]],
         "encode_rates must be finite"),
        ("rng_seed", -3, "rng_seed must be >= 0"),
        ("segment_duration", True, "segment_duration takes numbers, not True"),
        ("encode_rates", [[0.0, True]], "encode_rates takes numbers, not True"),
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

    @pytest.mark.parametrize("source", ["bulk", "MQ", "spec"])
    def test_packet_size_beyond_int64_exits_2(self, tmp_path, capsys, source):
        if source == "spec":
            path = tmp_path / "spec.json"
            path.write_text(json.dumps({
                "encode_rates": [[0.0, 80750.0]], "segment_duration": 5.0, "buffer_target": 2e6,
                "fill_throughput": 807500.0, "video_duration": 60.0, "packet_size": 10**400,
                "rng_seed": 0}))
            argv = ["--spec", path]
        else:
            path = tmp_path / "config.json"
            path.write_text(json.dumps({"generator": {"packet_size": 10**400}}))
            argv = [source, "--config", path]
        assert run(["generate", *argv, "--out", tmp_path / "c"]) == 2
        assert "error: packet_size must be in [1, 9223372036854775807]" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("argv", [["generate", "MQ"], ["evaluate", "MQ", "--runs", 1]])
    def test_negative_seed_exits_2(self, tmp_path, capsys, argv):
        assert run([*argv, "--seed", -1, "--out", tmp_path / "x"]) == 2
        assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

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


@pytest.mark.parametrize("argv, data, field", [
    (["analyze", "TRACE", "--config"], {"burst": {"h_t": 10**400}}, "h_t"),
    (["evaluate", "MQ", "--runs", 1, "--config"],
     {"generator": {"segment_duration": 10**400}}, "segment_duration"),
    (["generate", "--spec"],
     {"encode_rates": [[0.0, 80750.0]], "segment_duration": 5.0, "buffer_target": 2e6,
      "fill_throughput": 807500.0, "video_duration": 10**400, "packet_size": 1400,
      "rng_seed": 0}, "video_duration"),
], ids=["analyze", "evaluate", "generate"])
def test_number_beyond_float_range_exits_2(tmp_path, trace_path, capsys, argv, data, field):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))  # the integer keeps all its 401 digits
    argv = [trace_path if arg == "TRACE" else arg for arg in argv]
    assert run([*argv, path, "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert f"error: {field} must be finite, got 1000" in err and "Traceback" not in err
    assert not (tmp_path / "x").exists() and not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv, content", [
    pytest.param(["generate", "MQ", "--config"], b'{"rate": ', id="config-truncated"),
    pytest.param(["generate", "MQ", "--config"], b"\xff{}", id="config-not-utf8"),
    pytest.param(["generate", "--spec"], b'{"rate": ', id="spec-truncated"),
    pytest.param(["generate", "--spec"], b"\xff{}", id="spec-not-utf8"),
    pytest.param(["report"], b'{"rate": ', id="report-truncated"),
    pytest.param(["report"], b"\xff{}", id="report-not-utf8"),
    pytest.param(["analyze"], b"t,size,src,dst,dst_port\n0.1,100,10.0.0.1,10.0.0.2,443\n\xff\n",
                 id="trace-not-utf8"),
])
def test_unreadable_input_exits_2_naming_the_file(tmp_path, capsys, argv, content):
    path = tmp_path / "input"
    path.write_bytes(content)
    out = [] if argv == ["report"] else ["--out", tmp_path / "x"]
    assert run([*argv, path, *out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and "Traceback" not in err
    assert not (tmp_path / "x").exists() and not (tmp_path / "x.csv").exists()


def test_malformed_trace_exits_2_naming_the_file_and_line(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text('t,size,src,dst,dst_port\n0.1,100,10.0.0.1,10.0.0.2,443\n{"rate": \n')
    assert run(["analyze", path, "--out", tmp_path / "x"]) == 2
    assert capsys.readouterr().err == f"error: trace {path}: line 3: expected 5 fields, got 1\n"
    assert not (tmp_path / "x").exists()


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

    def test_payload_total_past_int64_max_exits_2(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text("t,size,src,dst,dst_port\n"
                        + "".join(f"{t},{2**62},10.0.0.1,10.0.0.2,443\n" for t in (0, 0.1, 0.2)))
        assert run(["analyze", path, "--out", tmp_path / "out"]) == 2
        assert f"must total <= {2**63 - 1} bytes" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_directory_input_exits_2(self, tmp_path, capsys):
        assert run(["analyze", tmp_path, "--out", tmp_path / "out"]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_out_naming_a_file_exits_2(self, tmp_path, trace_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert run(["analyze", trace_path, "--out", out]) == 2
        assert str(out) in capsys.readouterr().err

    def test_debug_dumps(self, tmp_path, trace_path):
        out, plain = tmp_path / "dbg", tmp_path / "plain"
        assert run(["analyze", trace_path, "--out", out, "--debug"]) == 0
        stems = {p.name.rsplit("_", 1)[-1] for p in out.glob("*.csv")}
        assert stems == {"rate.csv", "bursts.csv", "segments.csv", "buffer.csv"}
        # the dumps leave the reports as they are
        assert run(["analyze", trace_path, "--out", plain]) == 0
        assert [p.read_bytes() for p in sorted(plain.iterdir())] == [
            p.read_bytes() for p in sorted(out.glob("*.json"))]

    def test_row_parser_writes_the_same_files(self, tmp_path, trace_path):
        # a quoted size sends the whole trace through the row-by-row parser
        header, first, rest = trace_path.read_text().split("\n", 2)
        t, size, flow = first.split(",", 2)
        quoted = tmp_path / "quoted.csv"
        quoted.write_text(f'{header}\n{t},"{size}",{flow}\n{rest}')
        plain, rows = tmp_path / "plain", tmp_path / "rows"
        assert run(["analyze", trace_path, "--out", plain, "--debug"]) == 0
        with mock.patch.object(trace_mod, "_parse_rows", wraps=trace_mod._parse_rows) as parse:
            assert run(["analyze", quoted, "--out", rows, "--debug"]) == 0
        assert parse.call_count == 1
        names = sorted(p.name for p in plain.iterdir())
        assert len(names) == 5 and names == sorted(p.name for p in rows.iterdir())
        for name in names:
            assert (rows / name).read_bytes() == (plain / name).read_bytes(), name

    def test_parameter_override_changes_result(self, tmp_path, trace_path):
        out = tmp_path / "strict"
        # an absurd steady-burst requirement suppresses the steady phase
        assert run(["analyze", trace_path, "--out", out, "--h-n", 10_000]) == 0
        data = json.loads(next(out.glob("*.json")).read_text())
        assert data["verdict"]["is_video_stream"] is False

    def test_infinite_gap_threshold_exits_2(self, tmp_path, trace_path, capsys):
        out = tmp_path / "out"
        assert run(["analyze", trace_path, "--out", out, "--h-t", "inf"]) == 2
        assert "h_t must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--h-t", "1e300"), ("--delta-t", "1e-300")])
    def test_bin_count_beyond_int64_exits_2(self, tmp_path, trace_path, capsys, flag, value):
        out = tmp_path / "out"
        if flag == "--h-t":
            # the rate stages stop at the cut, so the huge tail never reaches
            # ``aggregate``; the rate dump bins the whole flow with it
            assert run(["analyze", trace_path, "--out", tmp_path / "plain", flag, value]) == 0
            capsys.readouterr()
            assert run(["analyze", trace_path, "--out", out, "--debug", flag, value]) == 2
            err = capsys.readouterr().err
            assert "error: delta_t" in err and "below 2**63" in err and "Traceback" not in err
            # the dump's series is binned before the flow's first file is written
            assert not out.exists()
            return
        assert run(["analyze", trace_path, "--out", out, flag, value]) == 2
        err = capsys.readouterr().err
        assert "error: delta_t" in err and "below 2**63" in err and "Traceback" not in err
        assert not out.exists()

    def test_sample_count_beyond_int64_exits_2(self, tmp_path, trace_path, capsys):
        # the last packet again, 1e20 s later: 1e21 buffer samples at the default delta_t
        text = trace_path.read_text()
        t, rest = text.rstrip("\n").rsplit("\n", 1)[1].split(",", 1)
        gap, out = tmp_path / "gap.csv", tmp_path / "out"
        gap.write_text(f"{text}{float(t) + 1e20!r},{rest}\n")
        assert run(["analyze", gap, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "error: sample_dt 0.1 gives 1e+21 buffer samples" in err and "Traceback" not in err
        assert not out.exists()

    def test_ipv6_flow_text_brackets_the_destination(self, tmp_path, capsys):
        path = tmp_path / "v6.csv"
        path.write_text("t,size,src,dst,dst_port\n"
                        + "".join(f"{t},1400,2001:db8::1,2001:db8::2,443\n" for t in (0.0, 0.1)))
        assert run(["analyze", path, "--out", tmp_path / "out"]) == 0
        assert "\n  2001:db8::1->[2001:db8::2]:443: packets=2 " in capsys.readouterr().out
        assert [p.name for p in (tmp_path / "out").iterdir()] == [
            "flow00_2001-db8--1_2001-db8--2_443.json"]

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

    def test_infinite_gap_threshold_exits_2(self, capsys):
        assert run(["evaluate", "MQ", "--runs", 1, "--h-t", "inf"]) == 2
        err = capsys.readouterr().err
        assert "h_t must be finite" in err and "Traceback" not in err

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

    @pytest.mark.parametrize("data, message", [
        (5, "report must be a JSON object, got a JSON int"),
        ({"segments": []}, "incomplete report: KeyError: 'n_packets'"),
        ({"scenario": "MQ"}, "incomplete report: KeyError: 'runs'"),
        ({"segments": [], "n_packets": 0, "total_bytes": 0, "t_start": None, "t_end": 0.0},
         "incomplete report: TypeError"),
        # the first lines are readable: nothing is printed all the same
        ({"segments": [], "n_packets": 1, "total_bytes": 1, "t_start": 0.0, "t_end": 1.0,
          "verdict": {"is_video_stream": False}}, "incomplete report: KeyError: 'rate_estimate'"),
        ({"scenario": "MQ", "runs": 1, "elapsed_s": 1.0, "nrmse": {"pooled": None}},
         "incomplete report: KeyError: 'checks'"),
    ])
    def test_not_a_report_exits_2(self, tmp_path, capsys, data, message):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(data))
        assert run(["report", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {message}" in captured.err


class TestCsvDumps:
    """Every CSV dump equals what the per-dump writers it replaced wrote."""

    @pytest.mark.parametrize("scenario", ["MQ", "QC", "AQ", "bulk"])
    def test_analyze_debug_matches_reference_writers(self, tmp_path, scenario):
        run(["generate", scenario, "--seed", 1, "--out", tmp_path / "s"])
        out, ref = tmp_path / "out", tmp_path / "ref"
        assert run(["analyze", tmp_path / "s.csv", "--out", out, "--debug"]) == 0
        [flow] = demux(normalize(load_trace(tmp_path / "s.csv"))).values()
        report, bp = profile(flow), BurstParams()
        ref.mkdir()
        reference_write_rate_csv(analyze(flow.times, flow.sizes, RateParams(), tail=bp.h_t),
                                 ref / "rate.csv")
        reference_write_bursts_csv(classify(filter_small(segment(flow.times, flow.sizes, bp), bp),
                                            bp), bp, ref / "bursts.csv")
        reference_write_segments_csv(report, ref / "segments.csv")
        reference_write_buffer_csv(report, ref / "buffer.csv")
        [stem] = [p.stem for p in out.glob("*.json")]
        for name in ("rate", "bursts", "segments", "buffer"):
            assert (out / f"{stem}_{name}.csv").read_bytes() == (ref / f"{name}.csv").read_bytes()
        if scenario == "bulk":  # no steady state, so no buffer: the header alone
            assert (out / f"{stem}_buffer.csv").read_bytes() == b"t,buffered_bytes\r\n"

    def test_segments_dump_binds_columns_by_name(self, tmp_path, monkeypatch):
        run(["generate", "MQ", "--seed", 1, "--out", tmp_path / "s"])
        assert run(["analyze", tmp_path / "s.csv", "--out", tmp_path / "plain", "--debug"]) == 0
        to_dict = PhaseSegment.to_dict
        monkeypatch.setattr(PhaseSegment, "to_dict", lambda s: dict(reversed(to_dict(s).items())))
        assert run(["analyze", tmp_path / "s.csv", "--out", tmp_path / "reversed", "--debug"]) == 0
        [plain] = (tmp_path / "plain").glob("*_segments.csv")
        assert (tmp_path / "reversed" / plain.name).read_bytes() == plain.read_bytes()

    def test_evaluate_cdfs_match_reference_writer(self, tmp_path):
        out, ref = tmp_path / "out", tmp_path / "ref"
        run(["evaluate", "QC", "--runs", 3, "--out", out])
        ref.mkdir()
        reference_write_cdf_csvs(json.loads((out / "report_QC.json").read_text()), ref)
        written = sorted(p.name for p in out.glob("cdf_*.csv"))
        assert written == ["cdf_QC_steady1.csv", "cdf_QC_steady2.csv"]
        assert written == sorted(p.name for p in ref.glob("*.csv"))
        for name in written:
            assert (out / name).read_bytes() == (ref / name).read_bytes()
