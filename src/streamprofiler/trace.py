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
import math
import numbers
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
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
    """Malformed trace or label CSV. Carries the 1-based line number; the text
    also names the file's ``path`` when ``load_trace`` read one."""

    def __init__(self, line_no: int, message: str, path: str | Path | None = None):
        where = f"line {line_no}" if path is None else f"trace {path}: line {line_no}"
        super().__init__(f"{where}: {message}")
        self.line_no, self.message = line_no, message


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
        """``src->dst:port``; an IPv6 destination is bracketed before a port."""
        if self.dst_port is None:
            return f"{self.src}->{self.dst}"
        dst = f"[{self.dst}]" if ":" in self.dst else self.dst
        return f"{self.src}->{dst}:{self.dst_port}"


@dataclass(frozen=True, slots=True)
class PhaseSpan:
    """A labeled time interval of a streaming session."""

    t_start: float
    t_end: float
    phase: str

    def __post_init__(self):
        if self.phase not in PHASES:
            raise ValueError(f"phase must be one of {PHASES}, got {self.phase!r}")
        check_real("t_start", self.t_start)
        check_real("t_end", self.t_end)
        if not self.t_end > self.t_start:
            raise ValueError(f"t_end must exceed t_start, got [{self.t_start}, {self.t_end}]")

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


def check_1d(name: str, column) -> None:
    """Raise ``ValueError`` naming the column ``name`` unless it is one-dimensional."""
    if np.asarray(column).ndim != 1:  # np.ndim costs three times as much on an array
        raise ValueError(f"{name} must be a 1-d array, got shape {np.shape(column)}")


def check_times(times, sizes) -> np.ndarray:
    """Packet ``times`` (any real array-like) as a float64 array, no copy for one.

    Raise ``ValueError`` unless the times and ``sizes`` are 1-d and as many,
    and the times non-decreasing and finite. A sorted array with finite ends is
    finite throughout, and a NaN among two or more times fails the order check,
    so only the ends are tested.
    """
    times = np.asarray(times, dtype=np.float64)
    check_1d("times", times)
    check_1d("sizes", sizes)
    if len(sizes) != len(times):
        raise ValueError(f"sizes must match times in length, got {len(sizes)} and {len(times)}")
    if not (times[1:] >= times[:-1]).all():
        raise ValueError("trace is not time-sorted; normalize first")
    if len(times) and not (math.isfinite(times[0]) and math.isfinite(times[-1])):
        raise ValueError(f"packet times must be finite, got {times[0]} ... {times[-1]}")
    return times


def _shown(value, text=str) -> str:
    """``text(value)`` for a message, or what it is when it has too many digits to print."""
    try:
        return text(value)
    except ValueError:  # beyond the interpreter's int-to-text limit (Python 3.10.7 and later)
        return f"a number of more than {sys.get_int_max_str_digits()} digits"


def check_real(name: str, *values) -> None:
    """Raise ``ValueError`` naming the field ``name`` for a value that is not a finite
    real number: a bool (numeric checks would take it as 1 or 0), a non-number, a NaN,
    an infinity, or a number no float can hold."""
    for value in values:
        if type(value) is float and math.isfinite(value):  # the common case, without the ABC
            continue
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} takes numbers, not {value!r}")
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int or Fraction beyond the float range
            finite = False
        if not finite:
            raise ValueError(f"{name} must be finite, got {_shown(value)}")


def check_positive(name: str, *values) -> None:
    """``check_real``, and raise ``ValueError`` for a value that is not > 0."""
    check_real(name, *values)
    for value in values:
        if not value > 0:
            raise ValueError(f"{name} must be finite and > 0, got {_shown(value)}")


def check_int(name: str, value, minimum: int | None = None, maximum: int | None = None) -> int:
    """``value`` as a Python ``int``: an int, a numpy integer or any real number with
    an integral value (``1400.0``, ``Fraction(6, 2)``), as JSON has one number type.

    Raise ``ValueError`` naming the field ``name`` for a bool, a non-number, a
    fractional value, NaN or an infinity, and for a value below ``minimum`` or
    above ``maximum`` (given with a ``minimum``).
    """
    n = None
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            n = int(value)
        except (ValueError, OverflowError):  # NaN, an infinity
            pass
    if n is None or n != value:
        raise ValueError(f"{name} must be an integer, got {_shown(value, repr)}")
    if minimum is not None and (n < minimum or maximum is not None and n > maximum):
        bound = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise ValueError(f"{name} must be {bound}, got {_shown(value)}")
    return n


def _int64_sizes(sizes) -> np.ndarray:
    """1-d ``sizes`` as an int64 array, no copy for one. Every value must be a whole
    number in [1, 2**63 - 1], by ``check_int``'s rule and message: checked at once
    for integer and float arrays and one by one for anything else.
    A sequence that is no array is checked before numpy converts it, which would
    take ``True`` as 1 and ``[1, 2**63]`` as floats."""
    if not isinstance(sizes, np.ndarray):
        return np.array([check_int("sizes", v, 1, _INT64_MAX) for v in sizes], dtype=np.int64)
    if sizes.dtype.kind in "iu" and np.can_cast(sizes.dtype, np.int64):
        if (low := sizes.min(initial=1)) < 1:
            check_int("sizes", low.item(), 1, _INT64_MAX)
        return sizes.astype(np.int64, copy=False)
    if sizes.dtype.kind == "f":
        # NaN fails every comparison; 2.0**63 is the first float past the int64 range
        bad = ~((sizes >= 1) & (sizes < 2.0**63) & (np.floor(sizes) == sizes))
        if bad.any():
            check_int("sizes", sizes[bad][0].item(), 1, _INT64_MAX)
        return sizes.astype(np.int64)
    return np.array([check_int("sizes", v, 1, _INT64_MAX) for v in sizes.tolist()], dtype=np.int64)


@dataclass(eq=False)
class Trace:
    """Columnar packet trace: parallel arrays plus a flow table.

    ``flow_ids[i]`` indexes into ``flows`` for packet ``i``; every size is an
    integer in [1, 2**63 - 1], by ``check_int``'s rule (``1400.0`` is 1400,
    ``0.5``, NaN and ``2.0**63`` raise ``ValueError``).
    """

    times: np.ndarray
    sizes: np.ndarray
    flow_ids: np.ndarray
    flows: list[FlowKey]

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        check_1d("times", self.times)
        check_1d("sizes", self.sizes)  # before ``_int64_sizes`` iterates them
        self.sizes = _int64_sizes(self.sizes)
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
    def total_bytes(self) -> int:
        return int(self.sizes.sum())


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
        out[keys[gid]] = Trace.single_flow(times[lo:hi], sizes[lo:hi], keys[gid])
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


def _rows(lines: Iterable[str], line_no: int,
          n_fields: int | None) -> Iterator[tuple[int, list[str]]]:
    """The non-blank CSV rows of ``lines`` as (line number, stripped fields).

    A row is numbered by its last physical line, counting on from ``line_no``,
    so a quoted field that spans lines moves every later number on. A row of
    other than ``n_fields`` fields (``None`` takes any), or one ``csv`` cannot
    read (a bare carriage return inside a line of a str), raises ``TraceParseError``.
    """
    reader = csv.reader(lines)
    try:
        for row in reader:
            fields = [f.strip() for f in row]
            if len(fields) <= 1 and not any(fields):
                continue
            if n_fields is not None and len(fields) != n_fields:
                raise TraceParseError(line_no + reader.line_num,
                                      f"expected {n_fields} fields, got {len(fields)}")
            yield line_no + reader.line_num, fields
    except csv.Error as exc:
        raise TraceParseError(line_no + reader.line_num, str(exc)) from None


def _read_header(lines: Iterator[str], expected: tuple[str, ...]) -> int:
    """Consume rows up to the first non-blank one, check it, return its line number."""
    for line_no, got in _rows(lines, 0, None):
        if tuple(got) != expected:
            raise TraceParseError(
                line_no, f"expected header {','.join(expected)!r}, got {','.join(got)!r}")
        return line_no
    raise TraceParseError(1, "missing header")


_CHUNK_LINES = 16384
_INT64_MAX = int(np.iinfo(np.int64).max)
_NUMERIC = np.dtype([("t", np.float64), ("size", np.int64)])


class _FlowTable:
    """Flow ids in order of first appearance, shared by both parse paths."""

    def __init__(self):
        self.index: dict[FlowKey, int] = {}
        self.valid_addrs: set[str] = set()
        # flow text -> flow id: the columnar path keys the raw "src,dst,dst_port"
        # text of a line, the row path the tuple of its stripped fields
        self.id_of_text: dict[str | tuple[str, str, str], int] = {}

    @property
    def flows(self) -> list[FlowKey]:
        return list(self.index)

    def id_of(self, src: str, dst: str, port_text: str, line_no: int) -> int:
        """The id of the flow with these stripped fields, numbering a new flow
        next; raise ``TraceParseError`` at ``line_no`` for a field that is bad."""
        for column, addr in (("src", src), ("dst", dst)):
            if addr not in self.valid_addrs:
                try:
                    ipaddress.ip_address(addr)
                except ValueError:
                    raise TraceParseError(
                        line_no, f"{column} is not an IP address: {addr!r}") from None
                self.valid_addrs.add(addr)
        port = None
        if port_text:
            try:
                port = int(port_text)
            except ValueError:
                raise TraceParseError(line_no, f"bad dst_port {port_text!r}") from None
            if not 1 <= port <= 65535:
                raise TraceParseError(line_no, f"dst_port out of range: {port}")
        return self.index.setdefault(FlowKey(src, dst, port), len(self.index))


def _parse_columns(chunk: list[str], table: _FlowTable
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Parse plain data lines column-wise; None if any line needs the row parser.

    Returns ``(times, sizes, flow_ids)``. A chunk of n lines is one flow
    when its text ends with a newline and holds n matches of ``"," +
    first_tail`` and 4n commas, where ``first_tail`` is the first line's
    ``src,dst,dst_port`` text with its newline. Then no line is split and every id is that
    flow's; any other chunk splits each line for its flow text. Both share
    the ``loadtxt`` call, the array checks and the flow table.

    A chunk that fails a check may already have added flows to ``table``,
    but only in first-appearance order, which is the order the row parser
    assigns them in as well.
    """
    text = "".join(chunk)
    # quoting and bare carriage returns change how csv splits a line into fields
    if '"' in text or ("\r" in text and text.count("\r") != text.count("\r\n")):
        return None
    # A match of "," + first_tail ends at a newline and holds no other, so n
    # matches end the n lines. 4n commas then give every line five fields: a
    # line of four would give loadtxt its src field as the size, and a src
    # that loads as an integer is no IP address, which the flow check refuses.
    n, first_tail = len(chunk), chunk[0].split(",", 2)[-1]
    one_flow = (text.endswith("\n") and text.count("," + first_tail) == n
                and text.count(",") == 4 * n)
    rows = chunk if one_flow else [line for line in chunk if not line.isspace()]
    if not rows:
        return np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int32)
    try:
        with warnings.catch_warnings():
            # numpy < 2 reads "5.0" as an int with a DeprecationWarning; int() refuses it
            warnings.simplefilter("error", DeprecationWarning)
            numeric = np.loadtxt(rows, dtype=_NUMERIC, delimiter=",", comments=None,
                                 usecols=(0, 1), ndmin=1)
        tails = [first_tail] if one_flow else [line.split(",", 2)[2] for line in rows]
    except (ValueError, DeprecationWarning, IndexError):
        return None
    times, sizes = numeric["t"], numeric["size"]
    if not (np.isfinite(times).all() and (times >= 0.0).all() and (sizes >= 1).all()):
        return None
    id_of_text = table.id_of_text
    for tail in dict.fromkeys(tails):
        if tail in id_of_text:
            continue
        fields = [f.strip() for f in tail.split(",")]
        if len(fields) != 3:
            return None
        try:
            id_of_text[tail] = table.id_of(*fields, line_no=0)
        except TraceParseError:
            return None
    ids = (np.full(n, id_of_text[first_tail], np.int32) if one_flow
           else np.array([id_of_text[tail] for tail in tails], dtype=np.int32))
    return np.ascontiguousarray(times), np.ascontiguousarray(sizes), ids


def _parse_rows(lines: Iterable[str], line_no: int,
                table: _FlowTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse data rows one by one; ``line_no`` is the number of the line before them."""
    times: list[float] = []
    sizes: list[int] = []
    ids: list[int] = []
    id_of_text = table.id_of_text
    for line_no, (t_text, size_text, *flow) in _rows(lines, line_no, len(TRACE_HEADER)):
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
        key = tuple(flow)
        fid = id_of_text.get(key)
        if fid is None:
            fid = id_of_text[key] = table.id_of(*flow, line_no)
        ids.append(fid)
    return (np.asarray(times, dtype=np.float64), np.asarray(sizes, dtype=np.int64),
            np.asarray(ids, dtype=np.int32))


def parse_trace(source: str | bytes | IO) -> Trace:
    """Parse a packet trace from CSV text, bytes, or a file object.

    Every well-formed row becomes one record, in input order. A header-only
    input yields an empty trace; a malformed row raises ``TraceParseError``
    with its line number.

    Data lines are read in chunks of ``_CHUNK_LINES``, so the input is never
    held whole. A chunk of plain lines is parsed column-wise, and a chunk of
    one flow, whose lines all end in the first line's ``src,dst,dst_port``
    and a newline, without splitting a line; from the first chunk that is
    not plain (quoted fields, literals only Python's ``float`` or ``int``
    accepts, or a bad row) to the end, rows are parsed one by one.
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
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return parse_trace(fh)
    except UnicodeDecodeError as exc:
        raise ValueError(f"trace {path} is not UTF-8: {exc}") from None
    except TraceParseError as exc:
        raise TraceParseError(exc.line_no, exc.message, path) from None


def write_trace(trace: Trace, path: str | Path) -> None:
    Path(path).write_text(serialize_trace(trace), encoding="utf-8", newline="\n")


def parse_labels(source: str | bytes | IO) -> list[PhaseSpan]:
    """Parse ground-truth phase labels (CSV ``t_start,t_end,phase``)."""
    with _text_lines(source) as lines:
        line_no = _read_header(lines, LABEL_HEADER)
        spans: list[PhaseSpan] = []
        for line_no, (a, b, phase) in _rows(lines, line_no, len(LABEL_HEADER)):
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
