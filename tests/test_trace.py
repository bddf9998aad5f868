import gc
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import streamprofiler.trace as trace_mod
from streamprofiler import (
    FlowKey,
    PhaseSpan,
    Trace,
    TraceParseError,
    demux,
    load_trace,
    normalize,
    parse_labels,
    parse_trace,
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

    def test_empty_interval_rejected(self):
        with pytest.raises(TraceParseError, match="t_end"):
            parse_labels("t_start,t_end,phase\n1,1,filling\n")
