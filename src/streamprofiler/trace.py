"""Packet trace representation, CSV parsing, and per-flow demultiplexing.

A trace is a time-ordered collection of downlink packet observations:
arrival time, transport payload size, and flow addressing. Storage is
columnar (numpy arrays) so that rate binning and burst segmentation stay
cheap on traces with hundreds of thousands of packets.

Canonical trace format is a flat CSV with header ``t,size,src,dst,dst_port``
(decimal seconds, integer payload bytes, addresses, optional port).
Ground-truth phase labels use a second CSV with header
``t_start,t_end,phase``.
"""

from __future__ import annotations

import csv
import io
import ipaddress
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

FILLING = "filling"
STEADY = "steady_state"
OTHER = "other"
PHASES = (FILLING, STEADY, OTHER)

TRACE_HEADER = ("t", "size", "src", "dst", "dst_port")
LABEL_HEADER = ("t_start", "t_end", "phase")


class TraceParseError(ValueError):
    """Malformed trace or label CSV. Carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True, slots=True)
class FlowKey:
    """Flow addressing: source, destination, and optional destination port.

    Equality is componentwise; an absent port only equals an absent port,
    so address-level and address+port flow scoping can coexist.
    """

    src: str
    dst: str
    dst_port: int | None = None

    def without_port(self) -> "FlowKey":
        return FlowKey(self.src, self.dst, None)

    def __str__(self) -> str:
        port = "" if self.dst_port is None else f":{self.dst_port}"
        return f"{self.src}->{self.dst}{port}"


@dataclass(frozen=True, slots=True)
class PhaseSpan:
    """A labeled time interval of a streaming session."""

    t_start: float
    t_end: float
    phase: str

    def __post_init__(self):
        if self.phase not in PHASES:
            raise ValueError(f"phase must be one of {PHASES}, got {self.phase!r}")
        if not self.t_end > self.t_start:
            raise ValueError(f"t_end must exceed t_start, got [{self.t_start}, {self.t_end}]")

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


@dataclass(eq=False)
class Trace:
    """Columnar packet trace: parallel arrays plus a flow table.

    ``flow_ids[i]`` indexes into ``flows`` for packet ``i``. The arrays are
    not modified after construction: ``is_time_sorted`` and ``cum_bytes``
    are computed once per trace.
    """

    times: np.ndarray
    sizes: np.ndarray
    flow_ids: np.ndarray
    flows: list[FlowKey]

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.sizes = np.asarray(self.sizes, dtype=np.int64)
        self.flow_ids = np.asarray(self.flow_ids, dtype=np.int32)
        if not (self.times.shape == self.sizes.shape == self.flow_ids.shape):
            raise ValueError("times, sizes and flow_ids must have equal length")

    # -- construction -----------------------------------------------------

    @classmethod
    def empty(cls) -> "Trace":
        return cls([], [], [], [])

    @classmethod
    def single_flow(cls, times, sizes, flow: FlowKey) -> "Trace":
        return cls(times, sizes, np.broadcast_to(np.int32(0), np.shape(times)), [flow])

    # -- basic views ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.times)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (np.array_equal(self.times, other.times)
                and np.array_equal(self.sizes, other.sizes)
                and np.array_equal(self.flow_ids, other.flow_ids)
                and self.flows == other.flows)

    @property
    def t_start(self) -> float:
        return float(self.times[0]) if len(self) else 0.0

    @property
    def t_end(self) -> float:
        return float(self.times[-1]) if len(self) else 0.0

    @property
    def span(self) -> float:
        return self.t_end - self.t_start

    @property
    def total_bytes(self) -> int:
        return int(self.cum_bytes[-1]) if len(self) else 0

    @cached_property
    def is_time_sorted(self) -> bool:
        return bool(np.all(np.diff(self.times) >= 0.0)) if len(self) > 1 else True

    @cached_property
    def cum_bytes(self) -> np.ndarray:
        """Payload bytes up to and including each packet."""
        return np.cumsum(self.sizes)

    def shifted(self, offset: float) -> "Trace":
        """Same trace with every arrival time moved by ``offset`` seconds."""
        return Trace(self.times + offset, self.sizes.copy(), self.flow_ids.copy(),
                     list(self.flows))


# -- operations -----------------------------------------------------------


def normalize(trace: Trace) -> Trace:
    """Stable-sort records by arrival time and re-origin so the first is at t=0.

    Ties keep input order. Idempotent: a normalized trace maps to itself
    bit-exactly.
    """
    if len(trace) == 0:
        return Trace.empty()
    order = np.argsort(trace.times, kind="stable")
    times = trace.times[order]
    origin = times[0]
    return Trace(times - origin, trace.sizes[order], trace.flow_ids[order], list(trace.flows))


def demux(trace: Trace, merge_ports: bool = False) -> dict[FlowKey, Trace]:
    """Split a trace into per-flow sub-traces, preserving record order.

    The result is a partition: every record lands in exactly one sub-trace.
    With ``merge_ports`` set, flows differing only in destination port are
    grouped under a portless key (address-level flow scoping). Keys follow
    first appearance in the packet stream.
    """
    flow_keys = [f.without_port() for f in trace.flows] if merge_ports else trace.flows
    group_of_key: dict[FlowKey, int] = {}
    group_of_flow = np.array([group_of_key.setdefault(k, len(group_of_key)) for k in flow_keys],
                             dtype=np.intp)
    keys = list(group_of_key)
    groups = group_of_flow[trace.flow_ids]
    # a stable sort keeps record order inside each group, and the first
    # record of each group's run is its first appearance in the stream
    order = np.argsort(groups, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(groups, minlength=len(keys)))))
    present = np.flatnonzero(np.diff(bounds))
    present = present[np.argsort(order[bounds[present]])]
    times, sizes = trace.times[order], trace.sizes[order]
    out: dict[FlowKey, Trace] = {}
    for gid in present.tolist():
        lo, hi = bounds[gid], bounds[gid + 1]
        out[keys[gid]] = Trace(times[lo:hi], sizes[lo:hi], np.zeros(hi - lo, dtype=np.int32),
                               [keys[gid]])
    return out


# -- CSV parsing / serialization ------------------------------------------


@contextmanager
def _text_lines(source) -> Iterator[Iterator[str]]:
    """Lines of text from a str, bytes, text file or binary file.

    A binary file is read through a text wrapper that is detached on exit,
    so the caller's file stays open.
    """
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    if isinstance(source, str):
        yield iter(io.StringIO(source))
    elif isinstance(source, io.TextIOBase):
        yield iter(source)
    else:
        wrapper = io.TextIOWrapper(source, encoding="utf-8")
        try:
            yield wrapper
        finally:
            wrapper.detach()


def _check_header(row: list[str], expected: tuple[str, ...]) -> None:
    got = tuple(f.strip() for f in row)
    if got != expected:
        raise TraceParseError(1, f"expected header {','.join(expected)!r}, got {','.join(got)!r}")


def _is_blank(row: list[str]) -> bool:
    return not row or (len(row) == 1 and not row[0].strip())


def _read_header(lines: Iterator[str], expected: tuple[str, ...]) -> int:
    """Consume rows up to the first non-blank one, check it, return its line number."""
    for line_no, row in enumerate(csv.reader(lines), start=1):
        if not _is_blank(row):
            _check_header(row, expected)
            return line_no
    raise TraceParseError(1, "missing header")


def _parse_addr(text: str, line_no: int, column: str, seen: set[str]) -> str:
    if text in seen:
        return text
    try:
        ipaddress.ip_address(text)
    except ValueError:
        raise TraceParseError(line_no, f"{column} is not an IP address: {text!r}") from None
    seen.add(text)
    return text


_CHUNK_LINES = 16384
_INT64_MAX = int(np.iinfo(np.int64).max)
_NUMERIC = np.dtype([("t", np.float64), ("size", np.int64)])


class _FlowTable:
    """Flow ids in order of first appearance, shared by both parse paths."""

    def __init__(self):
        self.flows: list[FlowKey] = []
        self.index: dict[FlowKey, int] = {}
        self.valid_addrs: set[str] = set()
        # raw "src,dst,dst_port" text of a line -> flow id, for the columnar path
        self.id_of_tail: dict[str, int] = {}

    def flow(self, src: str, dst: str, port_text: str, line_no: int) -> FlowKey:
        src = _parse_addr(src, line_no, "src", self.valid_addrs)
        dst = _parse_addr(dst, line_no, "dst", self.valid_addrs)
        if not port_text:
            return FlowKey(src, dst, None)
        try:
            port = int(port_text)
        except ValueError:
            raise TraceParseError(line_no, f"bad dst_port {port_text!r}") from None
        if not 1 <= port <= 65535:
            raise TraceParseError(line_no, f"dst_port out of range: {port}")
        return FlowKey(src, dst, port)

    def id_of(self, flow: FlowKey) -> int:
        fid = self.index.get(flow)
        if fid is None:
            fid = self.index[flow] = len(self.flows)
            self.flows.append(flow)
        return fid


def _parse_columns(chunk: list[str], table: _FlowTable
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Parse plain data lines column-wise; None if any line needs the row parser.

    Returns ``(times, sizes, flow_ids)``. A chunk that fails a check may
    already have added flows to ``table``, but only in first-appearance
    order, which is the order the row parser assigns them in as well.
    """
    text = "".join(chunk)
    # quoting and bare carriage returns change how csv splits a line into fields
    if '"' in text or ("\r" in text and text.count("\r") != text.count("\r\n")):
        return None
    rows = [line for line in chunk if not line.isspace()]
    if not rows:
        return np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int32)
    try:
        with warnings.catch_warnings():
            # numpy < 2 reads "5.0" as an int with a DeprecationWarning; int() refuses it
            warnings.simplefilter("error", DeprecationWarning)
            numeric = np.loadtxt(rows, dtype=_NUMERIC, delimiter=",", comments=None,
                                 usecols=(0, 1), ndmin=1)
        tails = [line.split(",", 2)[2] for line in rows]
    except (ValueError, DeprecationWarning, IndexError):
        return None
    times, sizes = numeric["t"], numeric["size"]
    if not (np.isfinite(times).all() and (times >= 0.0).all() and (sizes >= 1).all()):
        return None
    id_of_tail = table.id_of_tail
    for tail in dict.fromkeys(tails):
        if tail in id_of_tail:
            continue
        fields = [f.strip() for f in tail.split(",")]
        if len(fields) != 3:
            return None
        try:
            id_of_tail[tail] = table.id_of(table.flow(*fields, line_no=0))
        except TraceParseError:
            return None
    return (np.ascontiguousarray(times), np.ascontiguousarray(sizes),
            np.array([id_of_tail[tail] for tail in tails], dtype=np.int32))


def _parse_rows(lines: Iterable[str], line_no: int,
                table: _FlowTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse data rows one by one; ``line_no`` is the number of the row before them."""
    times: list[float] = []
    sizes: list[int] = []
    ids: list[int] = []
    for line_no, row in enumerate(csv.reader(lines), start=line_no + 1):
        if _is_blank(row):
            continue
        if len(row) != len(TRACE_HEADER):
            raise TraceParseError(line_no, f"expected {len(TRACE_HEADER)} fields, got {len(row)}")
        t_text, size_text, src, dst, port_text = (f.strip() for f in row)
        try:
            t = float(t_text)
        except ValueError:
            raise TraceParseError(line_no, f"bad timestamp {t_text!r}") from None
        if not (np.isfinite(t) and t >= 0.0):
            raise TraceParseError(line_no, f"timestamp must be finite and >= 0, got {t_text!r}")
        try:
            size = int(size_text)
        except ValueError:
            raise TraceParseError(line_no, f"bad payload size {size_text!r}") from None
        if size < 1:
            raise TraceParseError(line_no, f"payload size must be >= 1, got {size}")
        if size > _INT64_MAX:
            raise TraceParseError(line_no, f"payload size must be <= {_INT64_MAX}, got {size}")
        times.append(t)
        sizes.append(size)
        ids.append(table.id_of(table.flow(src, dst, port_text, line_no)))
    return (np.asarray(times, dtype=np.float64), np.asarray(sizes, dtype=np.int64),
            np.asarray(ids, dtype=np.int32))


def parse_trace(source: str | bytes | IO) -> Trace:
    """Parse a packet trace from CSV text, bytes, or a file object.

    Every well-formed row becomes one record, in input order. A header-only
    input yields an empty trace; a malformed row raises ``TraceParseError``
    with its line number.

    Data lines are read in chunks of ``_CHUNK_LINES``, so the input is never
    held whole. A chunk of plain lines is parsed column-wise; from the first
    chunk that is not (quoted fields, literals only Python's ``float`` or
    ``int`` accepts, or a bad row) to the end, rows are parsed one by one.
    """
    with _text_lines(source) as lines:
        line_no = _read_header(lines, TRACE_HEADER)
        table = _FlowTable()
        parts = []
        while chunk := list(islice(lines, _CHUNK_LINES)):
            columns = _parse_columns(chunk, table)
            if columns is None:
                parts.append(_parse_rows(chain(chunk, lines), line_no, table))
                break
            parts.append(columns)
            line_no += len(chunk)
    if not parts:
        return Trace.empty()
    times, sizes, ids = (np.concatenate(column) for column in zip(*parts))
    return Trace(times, sizes, ids, table.flows)


def serialize_trace(trace: Trace) -> str:
    """Render a trace to canonical CSV. Round-trips bit-exactly through parse."""
    out = [",".join(TRACE_HEADER)]
    for t, s, fid in zip(trace.times, trace.sizes, trace.flow_ids):
        flow = trace.flows[fid]
        port = "" if flow.dst_port is None else str(flow.dst_port)
        out.append(f"{float(t)!r},{int(s)},{flow.src},{flow.dst},{port}")
    return "\n".join(out) + "\n"


def load_trace(path: str | Path) -> Trace:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return parse_trace(fh)


def write_trace(trace: Trace, path: str | Path) -> None:
    Path(path).write_text(serialize_trace(trace), encoding="utf-8", newline="\n")


def parse_labels(source: str | bytes | IO) -> list[PhaseSpan]:
    """Parse ground-truth phase labels (CSV ``t_start,t_end,phase``)."""
    with _text_lines(source) as lines:
        line_no = _read_header(lines, LABEL_HEADER)
        spans: list[PhaseSpan] = []
        for line_no, row in enumerate(csv.reader(lines), start=line_no + 1):
            if _is_blank(row):
                continue
            if len(row) != 3:
                raise TraceParseError(line_no, f"expected 3 fields, got {len(row)}")
            a, b, phase = (f.strip() for f in row)
            try:
                t0, t1 = float(a), float(b)
            except ValueError:
                raise TraceParseError(line_no, f"bad interval bounds {a!r},{b!r}") from None
            try:
                spans.append(PhaseSpan(t0, t1, phase))
            except ValueError as exc:
                raise TraceParseError(line_no, str(exc)) from None
    return spans


def serialize_labels(labels: Iterable[PhaseSpan]) -> str:
    out = [",".join(LABEL_HEADER)]
    for span in labels:
        out.append(f"{float(span.t_start)!r},{float(span.t_end)!r},{span.phase}")
    return "\n".join(out) + "\n"


def write_labels(labels: Iterable[PhaseSpan], path: str | Path) -> None:
    Path(path).write_text(serialize_labels(labels), encoding="utf-8", newline="\n")
