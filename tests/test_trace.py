import gc
import io
import json
import math
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import streamprofiler.trace as trace_mod
from streamprofiler import (
    BurstParams,
    FlowKey,
    PhaseSpan,
    RateParams,
    ScenarioSpec,
    StreamProfiler,
    Trace,
    TraceParseError,
    aggregate,
    demux,
    estimate_buffer,
    fuse,
    generate,
    generate_bulk,
    load_trace,
    normalize,
    parse_labels,
    parse_trace,
    profile,
    run_scenario,
    scenario_spec,
    segment,
    serialize_labels,
    serialize_trace,
)
from conftest import TEST_FLOW, flow_trace

HEADER = "t,size,src,dst,dst_port\n"
INT64_MAX = 2**63 - 1


def row_parse(text: str) -> Trace:
    """Reference: the row-by-row parser alone, over the whole input."""
    lines = iter(io.StringIO(text))
    line_no = trace_mod._read_header(lines, trace_mod.TRACE_HEADER)
    table = trace_mod._FlowTable()
    return Trace(*trace_mod._parse_rows(lines, line_no, table), table.flows)


def parse_outcome(parse, text: str):
    try:
        return parse(text)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def assert_same_outcome(got, want):
    if not isinstance(want, Trace):
        assert got == want
        return
    assert isinstance(got, Trace), got
    assert got.times.view(np.int64).tolist() == want.times.view(np.int64).tolist()
    assert got.sizes.dtype == want.sizes.dtype and got.sizes.tolist() == want.sizes.tolist()
    assert got.flow_ids.tolist() == want.flow_ids.tolist()
    assert got.flows == want.flows


@pytest.mark.parametrize("stage, params", [(segment, BurstParams()), (aggregate, RateParams())],
                         ids=["segment", "aggregate"])
@pytest.mark.parametrize("times, sizes", [
    (np.array([0, 1, 5]), np.array([1, 2, 3])),
    ([0.0, 1.0, 5.0], [1, 2, 3]),
    (np.array([0.0, 1.0, 5.0]), np.array([1, 2, 3, 4])),
    (np.array([0.0, 1.0, 5.0]), np.array([1, 2])),
], ids=["int-times", "list-times", "extra-size", "missing-size"])
def test_stages_take_real_times_with_one_size_each(stage, params, times, sizes):
    """``check_times`` turns any real times into float64 and rejects a length mismatch."""
    if len(times) != len(sizes):
        with pytest.raises(ValueError, match="sizes must match times in length"):
            stage(times, sizes, params)
        return
    expected = stage(np.array([0.0, 1.0, 5.0]), np.array([1, 2, 3]), params)
    assert np.array_equal(stage(times, sizes, params), expected)


# each entry point that takes packet columns, with the name of its second column
COLUMN_ENTRY_POINTS = {
    "Trace.single_flow": (lambda t, s: Trace.single_flow(t, s, TEST_FLOW), "sizes"),
    "aggregate": (lambda t, s: aggregate(t, s, RateParams()), "sizes"),
    "segment": (lambda t, s: segment(t, s, BurstParams()), "sizes"),
    "fuse": (lambda t, cum: fuse(t, cum, []), "cum"),
    "estimate_buffer": (lambda t, cum: estimate_buffer(t, cum, 1e5, 0.0, 0.1), "cum"),
}


@pytest.mark.parametrize("entry", COLUMN_ENTRY_POINTS.values(), ids=COLUMN_ENTRY_POINTS)
@pytest.mark.parametrize("times, other, bad, shape", [
    (np.zeros((2, 2)), np.ones((2, 2), np.int64), "times", "(2, 2)"),
    (np.array(1.0), np.array(5), "times", "()"),
    (1.0, 5, "times", "()"),
    (np.zeros(2), np.ones((2, 1), np.int64), "other", "(2, 1)"),
    ([0.0, 1.0], 5, "other", "()"),
], ids=["2-d", "0-d", "scalars", "2-d-other", "scalar-other"])
def test_packet_columns_must_be_1d(entry, times, other, bad, shape):
    call, other_name = entry
    name = other_name if bad == "other" else bad
    message = f"^{name} must be a 1-d array, got shape {re.escape(shape)}$"
    with pytest.raises(ValueError, match=message):
        call(times, other)


@pytest.mark.parametrize("value, message", [
    *(pytest.param(value, f"takes numbers, not {re.escape(repr(value))}", id=repr(value))
      for value in (True, False, np.True_, "0.1", None, np.array(0.5))),
    # math.isfinite raises OverflowError for a number no float can hold
    *(pytest.param(value, f"must be finite, got {re.escape(str(value))}", id=value_id)
      for value_id, value in (("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf),
                              ("10**400", 10**400), ("Fraction(10**400)", Fraction(10**400)))),
])
def test_check_real_names_the_field_of_a_bool_or_non_number(value, message):
    # check_positive runs check_real first: a bool is not taken as 1
    for check in (trace_mod.check_real, trace_mod.check_positive):
        with pytest.raises(ValueError, match=f"^h_s {message}$"):
            check("h_s", 1.0, value)


@pytest.mark.parametrize("value", [10**5000, -10**5000, Fraction(10**5000),
                                   Fraction(-10**5000, 10**5000 + 1)],
                         ids=["10**5000", "-10**5000", "Fraction(10**5000)", "-Fraction(~1)"])
def test_a_number_too_long_to_print_still_names_the_field(value):
    # str() refuses an int of more than sys.get_int_max_str_digits() digits
    with pytest.raises(ValueError, match=r"^x must be finite( and > 0)?, got a number of more "
                                         r"than \d+ digits$"):
        trace_mod.check_positive("x", 1.0, value)


@pytest.mark.parametrize("value", [1, 0.7, np.float64(0.7), np.int64(1), Fraction(7, 10),
                                   0, -0.5], ids=repr)
def test_check_real_passes_real_numbers(value):
    trace_mod.check_real("x", value, value)
    if value > 0:
        trace_mod.check_positive("x", value, value)
    else:
        with pytest.raises(ValueError, match=f"^x must be finite and > 0, got {value}$"):
            trace_mod.check_positive("x", 1.0, value)


@pytest.mark.parametrize("value, args, outcome", [
    # whole numbers of any real type, returned as a Python int
    *(pytest.param(value, (), 2, id=repr(value))
      for value in (2, 2.0, np.int64(2), np.float64(2.0), Fraction(4, 2))),
    pytest.param(Fraction(6, 2), (1,), 3, id="Fraction(6, 2)"),
    pytest.param(10**5000, (1,), 10**5000, id="10**5000 >= 1"),
    pytest.param(1, (1, trace_mod._INT64_MAX), 1, id="minimum"),
    pytest.param(INT64_MAX, (1, trace_mod._INT64_MAX), INT64_MAX, id="maximum"),
    pytest.param(-10**5000, (), -10**5000, id="-10**5000 unbounded"),
    # a bool, a non-number, a fractional value, NaN and the infinities
    *(pytest.param(value, (), f"must be an integer, got {re.escape(repr(value))}", id=repr(value))
      for value in (True, np.True_, 2.5, math.nan, math.inf, -math.inf, "2", None,
                    np.array(2))),
    pytest.param(Fraction(10**5000 + 1, 2), (), r"must be an integer, got a number of more than "
                 r"\d+ digits", id="Fraction(10**5000 + 1, 2)"),
    # out of range
    pytest.param(0, (1,), "must be >= 1, got 0", id="below minimum"),
    pytest.param(-1.0, (0,), "must be >= 0, got -1.0", id="-1.0 below minimum"),
    pytest.param(0, (1, trace_mod._INT64_MAX), re.escape(f"must be in [1, {INT64_MAX}], got 0"),
                 id="0 in range"),
    pytest.param(2**63, (1, trace_mod._INT64_MAX),
                 re.escape(f"must be in [1, {INT64_MAX}], got {2**63}"), id="2**63"),
    *(pytest.param(value, args, r"must be (>= 0|in \[1, \d+\]), got a number of more than "
                                r"\d+ digits", id=value_id)
      for value_id, value, args in (("10**5000 in range", 10**5000, (1, trace_mod._INT64_MAX)),
                                    ("-10**5000 >= 0", -10**5000, (0,)))),
])
def test_check_int(value, args, outcome):
    if isinstance(outcome, str):
        with pytest.raises(ValueError, match=f"^x {outcome}$"):
            trace_mod.check_int("x", value, *args)
    else:
        result = trace_mod.check_int("x", value, *args)
        assert type(result) is int and result == outcome


def _spec(**fields) -> ScenarioSpec:
    return ScenarioSpec(**{**dict(encode_rates=((0.0, 1e5),), segment_duration=5,
                                  buffer_target=1e6, fill_throughput=1e6, video_duration=60,
                                  packet_size=1400, rng_seed=0), **fields})


@pytest.mark.parametrize("field, call", [
    ("packet_size", lambda v: _spec(packet_size=v)),
    ("rng_seed", lambda v: _spec(rng_seed=v)),
    ("seed", lambda v: scenario_spec("MQ", seed=v)),
    ("packet_size", lambda v: generate_bulk(packet_size=v)),
    ("seed", lambda v: generate_bulk(seed=v)),
    ("n_runs", lambda v: run_scenario("MQ", v)),
    # base_seed has no bound of its own: the first run's seed is out of range
    ("seed", lambda v: run_scenario("MQ", 1, base_seed=v)),
    ("h_n", lambda v: BurstParams(h_n=v)),
    ("payload_size", lambda v: StreamProfiler().feed(1.0, v)),
], ids=["ScenarioSpec.packet_size", "ScenarioSpec.rng_seed", "scenario_spec.seed",
        "generate_bulk.packet_size", "generate_bulk.seed", "run_scenario.n_runs",
        "run_scenario.base_seed", "BurstParams.h_n", "StreamProfiler.feed"])
def test_every_integer_field_names_itself_for_a_number_too_long_to_print(field, call):
    with pytest.raises(ValueError, match=rf"^{field} must be .*, got a number of more than "
                                         r"\d+ digits$"):
        call(-10**5000)


def test_integer_fields_take_whole_floats_and_show_strings_quoted():
    with pytest.raises(ValueError, match=r"^h_n must be an integer, got '2'$"):
        BurstParams(h_n="2")
    as_floats, as_ints = run_scenario("MQ", 2.0, base_seed=1.0), run_scenario("MQ", 2, base_seed=1)
    for report in (as_floats, as_ints):
        del report["elapsed_s"]
    assert json.dumps(as_floats) == json.dumps(as_ints)
    mq = generate(scenario_spec("MQ", seed=0)).trace
    assert (profile(mq, burst_params=BurstParams(h_n=3.0)).to_json()
            == profile(mq).to_json())


class TestParse:
    def test_single_row_maps_fields(self):
        trace = parse_trace(HEADER + "0.020,1200,10.0.0.1,192.168.1.5,443\n")
        assert trace.times.tolist() == [0.020]
        assert trace.sizes.tolist() == [1200]
        assert trace.flow_ids.tolist() == [0]
        assert trace.flows == [FlowKey("10.0.0.1", "192.168.1.5", 443)]

    def test_header_only_gives_empty_trace(self):
        trace = parse_trace(HEADER)
        assert len(trace) == 0
        assert trace.flows == []

    def test_zero_size_rejected_with_line_number(self):
        with pytest.raises(TraceParseError, match="line 2"):
            parse_trace(HEADER + "0.1,0,10.0.0.1,10.0.0.2,443\n")

    def test_row_order_preserved(self):
        body = "1.0,10,10.0.0.1,10.0.0.2,1\n0.5,20,10.0.0.1,10.0.0.2,1\n"
        trace = parse_trace(HEADER + body)
        assert trace.times.tolist() == [1.0, 0.5]

    def test_empty_port_means_absent(self):
        trace = parse_trace(HEADER + "0.1,10,10.0.0.1,10.0.0.2,\n")
        assert trace.flows[0].dst_port is None

    @pytest.mark.parametrize("row,match", [
        ("x,10,10.0.0.1,10.0.0.2,1", "timestamp"),
        ("-1,10,10.0.0.1,10.0.0.2,1", "timestamp"),
        ("inf,10,10.0.0.1,10.0.0.2,1", "timestamp"),
        ("0.1,ten,10.0.0.1,10.0.0.2,1", "payload size"),
        ("0.1,10,notanip,10.0.0.2,1", "src"),
        ("0.1,10,10.0.0.1,alsobad,1", "dst"),
        ("0.1,10,10.0.0.1,10.0.0.2,99999", "dst_port"),
        ("0.1,10,10.0.0.1,10.0.0.2,0", "dst_port"),
        ("0.1,10,10.0.0.1", "fields"),
    ])
    def test_malformed_rows(self, row, match):
        with pytest.raises(TraceParseError, match=match):
            parse_trace(HEADER + row + "\n")

    def test_missing_header(self):
        with pytest.raises(TraceParseError, match="header"):
            parse_trace("0.1,10,10.0.0.1,10.0.0.2,1\n")

    def test_bad_header_names_its_own_line(self):
        with pytest.raises(TraceParseError, match="^line 3: expected header "):
            parse_trace("\n\nt,size,src,dst\n")

    def test_rows_are_numbered_by_physical_line(self):
        # the quoted timestamp spans lines 2 and 3, so the bad row is line 4
        text = HEADER + '"0.2\n",1400,10.0.0.1,10.0.0.2,443\n0.3,0,10.0.0.1,10.0.0.2,443\n'
        for parse in (parse_trace, row_parse):
            assert parse_outcome(parse, text) == (
                TraceParseError, "line 4: payload size must be >= 1, got 0")

    @pytest.mark.parametrize("encode", [False, True], ids=["str", "bytes"])
    @pytest.mark.parametrize("text,line", [
        (HEADER + "0.1,10,10.0.0.1,10.0.0.2,1\r0.2,10,10.0.0.1,10.0.0.2,1\n", 2),
        (HEADER + "0.1,10,10.0.0.1,10.0.0.2,1\n0.2,10,10.0.0.1,10.0.0.2,1\r0.3,10\n", 3),
        ("t,size,src,dst,dst_port\r0.1,10,10.0.0.1,10.0.0.2,1\n", 1),
    ], ids=["first_row", "later_row", "header"])
    def test_bare_carriage_return_raises_parse_error(self, encode, text, line):
        # csv refuses a carriage return inside a line; a str or bytes source is
        # split at newlines only, so the line reaches csv whole
        with pytest.raises(TraceParseError,
                           match=f"^line {line}: new-line character seen in unquoted field"):
            parse_trace(text.encode() if encode else text)

    def test_bytes_input(self):
        trace = parse_trace((HEADER + "0.25,99,10.0.0.1,10.0.0.2,80\n").encode())
        assert trace.sizes.tolist() == [99]

    def test_binary_file_stays_open(self):
        source = io.BytesIO((HEADER + "0.25,99,10.0.0.1,10.0.0.2,80\n").encode())
        parse_trace(source)
        labels = io.BytesIO(b"t_start,t_end,phase\n0,1,filling\n")
        parse_labels(labels)
        bad = io.BytesIO(b"t_start,t_end,phase\n0,1,depletion\n")
        with pytest.raises(TraceParseError):
            parse_labels(bad)
        gc.collect()
        assert not (source.closed or labels.closed or bad.closed)


MIXED_BODY = (
    "0.125,1200,10.0.0.1,192.168.1.5,443\n"
    "\n"
    "  0.25 , 64 , 2001:db8::1 , 2001:db8::2 , \r\n"
    "   \n"
    "0.5,1400,10.0.0.1,192.168.1.5,443\r\n"
    "\r\n"
    "0.75,\t900,10.0.0.1,192.168.1.5,\n"
    "1e1,7,10.0.0.2,192.168.1.5, 0443\n"
    "11,8,2001:db8::1,2001:db8::2,\n"
)

_ADDRS = ["10.0.0.1", "10.0.0.2", "2001:db8::7"]


@st.composite
def trace_lines(draw):
    """One CSV line: mostly plain, sometimes formatted as only the row parser reads it."""
    kind = draw(st.sampled_from(["plain"] * 4 + ["blank", "quoted", "python_only", "bad"]))
    if kind == "blank":
        return draw(st.sampled_from(["\n", "  \n", "\r\n", "\t\n"]))
    t = draw(st.floats(min_value=0, max_value=1e7, allow_nan=False, allow_infinity=False))
    fields = [draw(st.sampled_from([repr(t), f"{t:.3f}", f"{t:e}"])),
              str(draw(st.integers(min_value=1, max_value=10**6))),
              draw(st.sampled_from(_ADDRS)), "192.0.2.9",
              draw(st.sampled_from(["", "443", "80", " 8080"]))]
    if kind == "quoted":
        i = draw(st.integers(0, 4))
        fields[i] = f'"{fields[i]}"'
    elif kind == "python_only":
        fields[draw(st.integers(0, 1))] = "1_0"
    elif kind == "bad":
        i, bad = draw(st.sampled_from([(0, "-1"), (0, "nan"), (0, "inf"), (1, "0"), (1, "5.0"),
                                       (1, str(INT64_MAX + 1)), (2, "host"), (4, "70000")]))
        fields[i] = bad
    pad = draw(st.sampled_from(["", " "]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return ",".join(pad + f for f in fields) + end


# the src,dst,dst_port text of a one-flow chunk: valid, portless, a bad address, a bad port
_ONE_FLOW_TAILS = ["10.0.0.1,192.0.2.9,443", "10.0.0.1,192.0.2.9,", "host,192.0.2.9,443",
                   "10.0.0.1,192.0.2.9,70000"]
# one line of such a chunk that the one-flow counts must not let through unread
_MUTATED_LINES = ["\n", "  \t\n", "{t},{s},{src_dst},80\n", "{t},{tail}\n", "{t},{s},7,{tail}\n",
                  "{t}, {s},{tail}\n", "{t},{s},{tail}\r\n", ",{tail}\n", "{t},5.0,{tail}\n"]


@st.composite
def one_flow_lines(draw):
    """Lines of one flow, 0-2 of them mutated, and sometimes no final newline."""
    tail = draw(st.sampled_from(_ONE_FLOW_TAILS))
    n = draw(st.integers(min_value=1, max_value=12))
    times = sorted(draw(st.lists(st.floats(min_value=0, max_value=1e4, allow_nan=False),
                                 min_size=n, max_size=n)))
    sizes = draw(st.lists(st.integers(min_value=1, max_value=1500), min_size=n, max_size=n))
    lines = [f"{t!r},{s},{tail}\n" for t, s in zip(times, sizes)]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        lines[i] = draw(st.sampled_from(_MUTATED_LINES)).format(
            t=repr(times[i]), s=sizes[i], tail=tail, src_dst=tail.rsplit(",", 1)[0])
    if draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\n")
    return lines


class TestColumnarParse:
    def test_plain_input_stays_on_the_columnar_path(self):
        text = HEADER + MIXED_BODY
        want = row_parse(text)
        for chunk_lines in (trace_mod._CHUNK_LINES, 2):
            with mock.patch.object(trace_mod, "_CHUNK_LINES", chunk_lines), \
                    mock.patch.object(trace_mod, "_parse_rows",
                                      side_effect=AssertionError("row parser used")):
                assert_same_outcome(parse_trace(text), want)
        assert len(want) == 6 and len(want.flows) == 4
        assert want.flows[2] == FlowKey("10.0.0.1", "192.168.1.5", None)

    def test_every_source_kind_parses_alike(self, tmp_path):
        text = HEADER + MIXED_BODY
        want = row_parse(text)
        path = tmp_path / "mixed.csv"
        path.write_bytes(text.encode())
        for got in (parse_trace(text.encode()), parse_trace(io.BytesIO(text.encode())),
                    parse_trace(io.StringIO(text)), load_trace(path)):
            assert_same_outcome(got, want)

    def test_quoted_and_python_only_literals_fall_back(self):
        text = HEADER + MIXED_BODY + '12,"9",10.0.0.1,192.168.1.5,443\n1_3,5,10.0.0.3,192.0.2.9,\n'
        got = parse_trace(text)
        assert_same_outcome(got, row_parse(text))
        assert got.times[-1] == 13.0 and got.sizes[-2] == 9

    def test_fallback_keeps_flow_table_and_line_numbers(self):
        # flows appear before and after the chunk that needs the row parser
        rows = [f"{i},{i + 1},10.0.0.{i % 7 + 1},192.0.2.9,{i % 3 or ''}\n" for i in range(40)]
        rows[23] = "2_3,24,10.0.0.99,192.0.2.9,\n"
        text = HEADER + "".join(rows)
        with mock.patch.object(trace_mod, "_CHUNK_LINES", 5):
            got = parse_trace(text)
            assert_same_outcome(got, row_parse(text))
            rows[31] = "31,0,10.0.0.1,192.0.2.9,\n"
            with pytest.raises(TraceParseError) as exc:
                parse_trace(HEADER + "".join(rows))
        assert exc.value.line_no == 33
        assert str(exc.value) == "line 33: payload size must be >= 1, got 0"

    def test_bad_row_past_first_chunk_reports_true_line(self):
        n = trace_mod._CHUNK_LINES + 50
        rows = [f"{i * 0.01!r},1000,10.0.0.1,192.0.2.9,443\n" for i in range(n)]
        rows[trace_mod._CHUNK_LINES + 10] = "1.0,1000,10.0.0.1,192.0.2.9,70000\n"
        # a blank line before the header shifts every later line number by one
        text = "\n" + HEADER + "".join(rows)
        with pytest.raises(TraceParseError) as exc:
            parse_trace(text)
        assert exc.value.line_no == trace_mod._CHUNK_LINES + 13
        assert parse_outcome(row_parse, text) == (TraceParseError, str(exc.value))

    @pytest.mark.parametrize("size_field", [str(INT64_MAX + 1), f'"{INT64_MAX + 1}"',
                                            "99999999999999999999"])
    def test_oversized_payload_rejected_with_line_number(self, size_field):
        # a plain field enters through the columnar path, a quoted one through the row path
        text = HEADER + f"0.1,{size_field},10.0.0.1,10.0.0.2,443\n"
        with pytest.raises(TraceParseError, match="line 2: payload size must be <= "):
            parse_trace(text)
        with pytest.raises(TraceParseError, match="line 2: payload size must be <= "):
            row_parse(text)

    @pytest.mark.parametrize("size_field", [str(INT64_MAX), f'"{INT64_MAX}"'])
    def test_int64_max_payload_accepted(self, size_field):
        trace = parse_trace(HEADER + f"0.1,{size_field},10.0.0.1,10.0.0.2,443\n")
        assert trace.sizes.tolist() == [INT64_MAX]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(trace_lines(), max_size=25), st.integers(min_value=1, max_value=6))
    def test_matches_row_parser(self, lines, chunk_lines):
        text = HEADER + "".join(lines)
        with mock.patch.object(trace_mod, "_CHUNK_LINES", chunk_lines):
            got = parse_outcome(parse_trace, text)
        assert_same_outcome(got, parse_outcome(row_parse, text))

    @settings(max_examples=300, deadline=None)
    @given(one_flow_lines(), st.integers(min_value=1, max_value=6))
    def test_one_flow_chunks_match_row_parser(self, lines, chunk_lines):
        text = HEADER + "".join(lines)
        with mock.patch.object(trace_mod, "_CHUNK_LINES", chunk_lines):
            got = parse_outcome(parse_trace, text)
        assert_same_outcome(got, parse_outcome(row_parse, text))

    @pytest.mark.parametrize("chunk_lines", [1, 7, trace_mod._CHUNK_LINES])
    def test_one_flow_file_takes_the_one_flow_branch(self, tmp_path, chunk_lines):
        rows = [f"{i * 0.01!r},{1000 + i},10.0.0.1,192.0.2.9,443\n" for i in range(40)]
        path = tmp_path / "one.csv"
        path.write_text(HEADER + "".join(rows))
        with mock.patch.object(trace_mod, "_CHUNK_LINES", chunk_lines), \
                mock.patch.object(trace_mod, "_parse_rows",
                                  side_effect=AssertionError("row parser used")), \
                mock.patch.object(trace_mod.np, "full", wraps=np.full) as full:
            got = load_trace(path)
        assert full.call_count == -(-len(rows) // chunk_lines)  # once per chunk
        assert_same_outcome(got, row_parse(HEADER + "".join(rows)))

    @pytest.mark.parametrize("lines, fields", [
        (["0.3,300,7,10.0.0.1,192.0.2.9,443\n"], 6),
        # the pair holds 4 commas a line on average, as one flow's lines do
        (["0.2,10.0.0.1,192.0.2.9,443\n", "0.3,300,7,10.0.0.1,192.0.2.9,443\n"], 4),
    ], ids=["six", "four-and-six"])
    def test_lines_ending_in_the_flow_need_five_fields(self, lines, fields):
        text = HEADER + "".join(["0.1,100,10.0.0.1,192.0.2.9,443\n", *lines])
        with pytest.raises(TraceParseError) as exc:
            parse_trace(text)
        assert str(exc.value) == f"line 3: expected 5 fields, got {fields}"

    def test_bad_address_on_every_line_raises_at_line_2(self):
        text = HEADER + "".join(f"{i},100,host,192.0.2.9,443\n" for i in range(5))
        with pytest.raises(TraceParseError) as exc:
            parse_trace(text)
        assert exc.value.line_no == 2
        assert str(exc.value) == "line 2: src is not an IP address: 'host'"

    def test_load_trace_names_the_file_and_keeps_the_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(HEADER + "0.1,100,10.0.0.1,192.0.2.9,443\n0.2,0,10.0.0.1,192.0.2.9,443\n")
        with pytest.raises(TraceParseError) as exc:
            load_trace(path)
        assert exc.value.line_no == 3
        assert str(exc.value) == f"trace {path}: line 3: payload size must be >= 1, got 0"


class TestTraceSizes:
    @pytest.mark.parametrize("sizes", [
        [-5, 3], [0, 0], [3, 0], [1, INT64_MAX, -(2**63)],
        np.array([3, 0, -2]), np.array([0.0, 5.0]), np.array([5, 0], dtype=object),
    ])
    def test_size_below_1_rejected(self, sizes):
        # one message, naming the smallest size here, whatever the input's type
        message = f"in [1, {INT64_MAX}], got {min(np.asarray(sizes).tolist())}"
        with pytest.raises(ValueError, match=f"^sizes must be {re.escape(message)}$"):
            Trace.single_flow(np.arange(len(sizes), dtype=np.float64), sizes, TEST_FLOW)

    @pytest.mark.parametrize("sizes, message", [
        ([1.9, 2.7], "an integer, got 1.9"),  # was truncated to a total of 3 bytes
        ([1.0, 0.5], "an integer, got 0.5"),  # was truncated to 0
        ([1.0, math.nan], "an integer, got nan"),
        ([2**63, 1 << 63], f"in [1, {INT64_MAX}], got 9223372036854775808"),
        # numpy would take these lists as [1, 2] and as floats [1.0, 9.223372036854776e+18]
        ([True, 2], "an integer, got True"),
        ([1, 2**63], f"in [1, {INT64_MAX}], got 9223372036854775808"),
    ], ids=["fractions", "half", "nan", "2**63", "bool-in-list", "2**63-after-1"])
    def test_size_that_is_no_int64_integer_names_sizes(self, sizes, message):
        with pytest.raises(ValueError, match=f"^sizes must be {re.escape(message)}$"):
            Trace.single_flow([0.0, 1.0], sizes, TEST_FLOW)

    def test_whole_sizes_are_taken_and_int64_ones_kept(self):
        trace = Trace.single_flow([0.0, 1.0, 2.0], [1400.0, Fraction(6, 2), np.float32(7)],
                                  TEST_FLOW)
        assert trace.sizes.dtype == np.int64 and trace.sizes.tolist() == [1400, 3, 7]
        assert profile(Trace.single_flow([0.0, 1.0], np.array([1.0, 2.0]), TEST_FLOW)
                       ).total_bytes == 3
        sizes = np.array([5, 6], dtype=np.int64)
        assert Trace.single_flow([0.0, 1.0], sizes, TEST_FLOW).sizes is sizes

    def test_empty_and_positive_sizes_valid(self):
        assert profile(Trace.single_flow([], [], TEST_FLOW)).total_bytes == 0
        assert profile(Trace.empty()).total_bytes == 0
        trace = Trace.single_flow([0.0, 1.0], [1, INT64_MAX - 1], TEST_FLOW)
        assert profile(trace).total_bytes == INT64_MAX


class TestRoundTrip:
    def test_mixed_flows(self):
        body = ("0.125,1200,10.0.0.1,192.168.1.5,443\n"
                "0.25,64,2001:db8::1,2001:db8::2,\n"
                "0.5,1400,10.0.0.1,192.168.1.5,443\n")
        trace = parse_trace(HEADER + body)
        assert parse_trace(serialize_trace(trace)) == trace

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(
        st.floats(min_value=0, max_value=1e7, allow_nan=False, allow_infinity=False),
        st.integers(min_value=1, max_value=10**9),
        st.sampled_from(["10.0.0.1", "10.0.0.2", "2001:db8::7"]),
        st.one_of(st.none(), st.integers(min_value=1, max_value=65535)),
    ), max_size=30))
    def test_round_trip_is_identity(self, rows):
        keys = [FlowKey(src, "192.0.2.9", port) for _, _, src, port in rows]
        flows = list(dict.fromkeys(keys))  # first-appearance order, as the parser assigns ids
        trace = Trace([t for t, *_ in rows], [s for _, s, *_ in rows],
                      [flows.index(k) for k in keys], flows)
        again = parse_trace(serialize_trace(trace))
        assert again == trace


class TestNormalize:
    def test_sorts_and_shifts_origin(self):
        trace = flow_trace([5.0, 5.2, 5.1])
        out = normalize(trace)
        assert out.times[0] == 0.0
        assert out.times.tolist() == pytest.approx([0.0, 0.1, 0.2])

    def test_stable_on_ties(self):
        trace = flow_trace([1.0, 1.0, 0.5], sizes=[1, 2, 3])
        out = normalize(trace)
        assert out.sizes.tolist() == [3, 1, 2]

    def test_idempotent_bit_exact(self):
        trace = normalize(flow_trace([2.0, 1.0, 3.0], sizes=[5, 6, 7]))
        assert normalize(trace) == trace

    def test_empty(self):
        assert len(normalize(Trace.empty())) == 0


@pytest.mark.parametrize("key, text", [
    (FlowKey("10.0.0.1", "10.0.0.2", 443), "10.0.0.1->10.0.0.2:443"),
    (FlowKey("10.0.0.1", "10.0.0.2"), "10.0.0.1->10.0.0.2"),
    (FlowKey("2001:db8::1", "2001:db8::2", 443), "2001:db8::1->[2001:db8::2]:443"),
    (FlowKey("2001:db8::1", "2001:db8::2"), "2001:db8::1->2001:db8::2"),
    (FlowKey("10.0.0.1", "::ffff:10.0.0.2", 80), "10.0.0.1->[::ffff:10.0.0.2]:80"),
], ids=["ipv4", "ipv4-no-port", "ipv6", "ipv6-no-port", "ipv4-mapped"])
def test_flow_text_brackets_an_ipv6_destination_before_its_port(key, text):
    assert str(key) == text


class TestDemux:
    def test_partition_two_flows(self):
        a = FlowKey("10.0.0.1", "10.0.0.9", 443)
        b = FlowKey("10.0.0.2", "10.0.0.9", 443)
        trace = Trace([0.0, 0.1, 0.2, 0.3, 0.4], [10] * 5, [0, 1, 0, 0, 1], [a, b])
        parts = demux(trace)
        assert set(parts) == {a, b}
        assert len(parts[a]) == 3 and len(parts[b]) == 2
        assert sum(len(p) for p in parts.values()) == len(trace)
        assert parts[a].times.tolist() == [0.0, 0.2, 0.3]

    def test_single_flow_identity(self):
        trace = flow_trace([0.0, 1.0, 2.0])
        parts = demux(trace)
        assert list(parts) == [TEST_FLOW]
        assert np.array_equal(parts[TEST_FLOW].times, trace.times)

    def test_empty(self):
        assert demux(Trace.empty()) == {}

    def test_merge_ports(self):
        a = FlowKey("10.0.0.1", "10.0.0.9", 443)
        b = FlowKey("10.0.0.1", "10.0.0.9", 444)
        trace = Trace([0.0, 0.1], [10, 20], [0, 1], [a, b])
        parts = demux(trace, merge_ports=True)
        key = FlowKey("10.0.0.1", "10.0.0.9", None)
        assert list(parts) == [key]
        assert len(parts[key]) == 2

    def test_port_scoping_distinguishes_flows(self):
        a = FlowKey("10.0.0.1", "10.0.0.9", 443)
        b = FlowKey("10.0.0.1", "10.0.0.9", None)
        assert a != b
        trace = Trace([0.0, 0.1], [10, 20], [0, 1], [a, b])
        assert len(demux(trace)) == 2


    @pytest.mark.parametrize("merge_ports", [False, True])
    def test_interleaved_flows(self, merge_ports):
        flows = [FlowKey("10.0.0.1", "10.0.0.9", 443), FlowKey("10.0.0.1", "10.0.0.9", 444),
                 FlowKey("10.0.0.2", "10.0.0.9", 443), FlowKey("10.0.0.3", "10.0.0.9", None)]
        rng = np.random.default_rng(4)
        ids = rng.integers(0, 3, size=300)  # the last flow in the table sends nothing
        ids[:2] = [2, 1]  # first appearance differs from flow-table order
        times = rng.uniform(0.0, 50.0, size=ids.size)  # demux must not sort by time
        sizes = np.arange(1, ids.size + 1)  # each record is identified by its size
        trace = Trace(times, sizes, ids, flows)
        parts = demux(trace, merge_ports=merge_ports)

        key_of = [f.without_port() if merge_ports else f for f in flows]
        assert list(parts) == list(dict.fromkeys(key_of[i] for i in ids))
        for key, part in parts.items():
            mine = np.array([key_of[i] == key for i in ids])
            assert part.sizes.tolist() == sizes[mine].tolist()
            assert part.times.tolist() == times[mine].tolist()
            assert part.flows == [key] and not part.flow_ids.any()
        merged = np.concatenate([part.sizes for part in parts.values()])
        assert sorted(merged.tolist()) == sizes.tolist()
        assert len(parts) == (2 if merge_ports else 3)


class TestLabels:
    def test_round_trip(self):
        labels = [PhaseSpan(0.0, 24.5, "filling"), PhaseSpan(24.5, 300.0, "steady_state"),
                  PhaseSpan(300.0, 390.25, "other")]
        assert parse_labels(serialize_labels(labels)) == labels

    def test_bad_phase_rejected(self):
        with pytest.raises(TraceParseError, match="line 2"):
            parse_labels("t_start,t_end,phase\n0,1,depletion\n")

    def test_bare_carriage_return_raises_parse_error(self):
        with pytest.raises(TraceParseError, match="^line 3: new-line character seen"):
            parse_labels("t_start,t_end,phase\n0,1,filling\n1,2,other\r2,3,other\n")

    def test_rows_are_numbered_by_physical_line(self):
        with pytest.raises(TraceParseError, match="^line 4: phase must be one of "):
            parse_labels('t_start,t_end,phase\n"0\n",1,filling\n1,2,bogus\n')

    def test_empty_interval_rejected(self):
        with pytest.raises(TraceParseError, match="t_end"):
            parse_labels("t_start,t_end,phase\n1,1,filling\n")

    @pytest.mark.parametrize("t_start, t_end, field", [
        (True, 2.0, "t_start"), ("a", "b", "t_start"), (0.0, math.inf, "t_end"),
        (0.0, math.nan, "t_end"), (-math.inf, 1.0, "t_start"), (0.0, None, "t_end"),
    ])
    def test_span_bounds_are_finite_reals(self, t_start, t_end, field):
        with pytest.raises(ValueError, match=f"^{field} (takes numbers|must be finite)"):
            PhaseSpan(t_start, t_end, "other")

    @pytest.mark.parametrize("bounds", ["0,inf", "-inf,1", "nan,1"])
    def test_non_finite_bounds_rejected(self, bounds):
        with pytest.raises(TraceParseError, match="^line 2: t_(start|end) must be finite, got "):
            parse_labels(f"t_start,t_end,phase\n{bounds},other\n")
