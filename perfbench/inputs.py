"""Seeded benchmark inputs: trace CSV bytes plus the ground truth of every flow.

The same seed gives byte-identical CSV files. The CSV text is written here,
not by the package's own serializer, so a change to the package cannot
change the inputs it is measured on. Video sessions do come from the
package's synthetic generator (``ScenarioSpec`` / ``generate``), because
they are the only source of exact phase labels; the recorded sha256 of each
input shows when a generator change moves them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

CSV_HEADER = "t,size,src,dst,dst_port"
CLIENT = "192.0.2.1"
MTU_PAYLOAD = 1400

# Flow mix of ``many_flows``: a synthetic stress mix, not measured traffic.
# The video sessions come from the package's own session model
# (``ScenarioSpec`` with a 60 s buffer and 12.5-40 kB/s); the shares of the
# four kinds and every other range below were picked by hand to exercise
# the pipeline's costly cases (sparse flows with far more rate bins than
# packets, many short bursts, long back-to-back transfers) and cite no
# measurement. A perf result on this workload holds for this mix; replace
# it when a measured capture is in the repository.
#
# Each range is covered by an evenly spaced grid that the seed shuffles, so
# the total packet count (the work per pass) and the accuracy over the video
# sessions hardly change from seed to seed; the seed moves the pairings,
# packet times and sizes, think times and starts.
N_WEB = 640      # sparse request/response flows: few packets over a long span
N_ONOFF = 240    # bursty non-video traffic: short transfers between think times
N_BULK = 80      # one continuous download each
N_VIDEO = 40     # short adaptive-streaming sessions
WEB_PACKETS = (4, 40)
WEB_SPAN_S = (10.0, 300.0)
WEB_PAYLOAD = (200, 1460)
ONOFF_BURSTS = (3, 12)
ONOFF_BURST_BYTES = (8e3, 80e3)
ONOFF_RATE = (100e3, 2e6)          # B/s while a burst is on
ONOFF_THINK_S = (2.0, 30.0)        # off time between bursts
BULK_BYTES = (100e3, 1e6)
BULK_RATE = (200e3, 2e6)
VIDEO_RATE = (12.5e3, 40e3)        # encoding rate, B/s (100-320 kbit/s)
VIDEO_BUFFER_S = 60.0              # play-back buffer target, seconds of media
VIDEO_DURATION_S = (100.0, 130.0)
START_WINDOW_S = 600.0             # flows start uniformly inside this window


@dataclass(frozen=True)
class FlowTruth:
    """Ground truth of one generated flow, in the flow's own time base
    (its first packet at t=0)."""

    kind: str
    n_packets: int
    is_video: bool
    labels: tuple[tuple[float, float, str], ...] = ()
    encode_rate: float | None = None


@dataclass
class TraceInput:
    """One generated input: CSV bytes, its digest, and per-flow truth keyed by
    destination port (every flow has its own port)."""

    csv: bytes
    truth: dict[int, FlowTruth]
    times: np.ndarray
    sizes: np.ndarray
    flows: list[tuple[str, str, int]]

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.csv).hexdigest()

    @property
    def n_packets(self) -> int:
        return len(self.times)


def csv_bytes(times: np.ndarray, sizes: np.ndarray, flow_of_row: np.ndarray,
              keys: list[str]) -> bytes:
    """Canonical trace CSV; ``keys[k]`` is the ``src,dst,dst_port`` text of flow ``k``."""
    rows = [CSV_HEADER]
    rows += [f"{t!r},{s},{keys[k]}" for t, s, k in
             zip(times.tolist(), sizes.tolist(), flow_of_row.tolist())]
    return ("\n".join(rows) + "\n").encode()


def _truth_of(labeled, kind: str, encode_rate: float | None) -> FlowTruth:
    labels = tuple((s.t_start, s.t_end, s.phase) for s in labeled.labels)
    return FlowTruth(kind, len(labeled.trace), True, labels, encode_rate)


def hq_session(sp, seed: int) -> TraceInput:
    """One HQ preset session (~84k packets over ~600 s) as a one-flow CSV."""
    spec = sp.scenario_spec("HQ", seed=seed)
    labeled = sp.generate(spec)
    trace = labeled.trace
    flow = trace.flows[0]
    key = f"{flow.src},{flow.dst},{flow.dst_port}"
    truth = {flow.dst_port: _truth_of(labeled, "video", spec.encode_rates[0][1])}
    return TraceInput(csv_bytes(trace.times, trace.sizes, trace.flow_ids, [key]), truth,
                      trace.times, trace.sizes, [(flow.src, flow.dst, flow.dst_port)])


def _grid(rng: np.random.Generator, n: int, lo: float, hi: float,
          log: bool = False) -> np.ndarray:
    """The midpoints of ``n`` equal strata of [lo, hi), in random order."""
    u = (rng.permutation(n) + 0.5) / n
    if log:
        return np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo)))
    return lo + u * (hi - lo)


def _transfer(rng: np.random.Generator, nbytes: int, rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Back-to-back full-size packets at ``rate`` with +-10% jitter, from t=0."""
    n_full, rem = divmod(max(int(nbytes), 1), MTU_PAYLOAD)
    sizes = np.full(n_full + (1 if rem else 0), MTU_PAYLOAD, dtype=np.int64)
    if rem:
        sizes[-1] = rem
    iat = sizes[1:] / rate * rng.uniform(0.9, 1.1, size=len(sizes) - 1)
    return np.concatenate([[0.0], np.cumsum(iat)]), sizes


def _web(rng, n_packets: int, span: float):
    inner = np.sort(rng.uniform(0.0, span, size=n_packets - 2))
    times = np.concatenate([[0.0], inner, [span]])
    sizes = rng.integers(WEB_PAYLOAD[0], WEB_PAYLOAD[1] + 1, size=n_packets)
    return times, sizes


def _onoff(rng, n_bursts: int, burst_bytes: float, rate: float):
    times, sizes, t = [], [], 0.0
    for _ in range(n_bursts):
        nbytes = burst_bytes * rng.uniform(0.5, 1.5)
        bt, bs = _transfer(rng, nbytes, rate)
        times.append(t + bt)
        sizes.append(bs)
        t += bt[-1] + rng.uniform(*ONOFF_THINK_S)
    return np.concatenate(times), np.concatenate(sizes)


def _video(sp, rng, rate: float, duration: float, seed: int):
    defaults = sp.GeneratorDefaults()
    spec = sp.ScenarioSpec(
        encode_rates=((0.0, rate),),
        segment_duration=defaults.segment_duration,
        buffer_target=VIDEO_BUFFER_S * rate,
        fill_throughput=defaults.fill_factor * rate,
        video_duration=duration,
        packet_size=defaults.packet_size,
        rng_seed=seed,
        name="video",
    )
    return sp.generate(spec)


def flow_mix(sp, seed: int) -> TraceInput:
    """About 1,000 flows of four kinds, interleaved in one time-ordered CSV."""
    rng = np.random.default_rng([seed, 0x6D66])
    flows: list[tuple[np.ndarray, np.ndarray, FlowTruth]] = []

    for n, span in zip(_grid(rng, N_WEB, WEB_PACKETS[0], WEB_PACKETS[1] + 1).astype(int),
                       _grid(rng, N_WEB, *WEB_SPAN_S)):
        times, sizes = _web(rng, n, span)
        flows.append((times, sizes, FlowTruth("web", n, False)))
    for n, nbytes, rate in zip(
            _grid(rng, N_ONOFF, ONOFF_BURSTS[0], ONOFF_BURSTS[1] + 1).astype(int),
            _grid(rng, N_ONOFF, *ONOFF_BURST_BYTES, log=True),
            _grid(rng, N_ONOFF, *ONOFF_RATE, log=True)):
        times, sizes = _onoff(rng, n, nbytes, rate)
        flows.append((times, sizes, FlowTruth("onoff", len(times), False)))
    for nbytes, rate in zip(_grid(rng, N_BULK, *BULK_BYTES, log=True),
                            _grid(rng, N_BULK, *BULK_RATE, log=True)):
        times, sizes = _transfer(rng, nbytes, rate)
        flows.append((times, sizes, FlowTruth("bulk", len(times), False)))
    for rate, duration in zip(_grid(rng, N_VIDEO, *VIDEO_RATE),
                              _grid(rng, N_VIDEO, *VIDEO_DURATION_S)):
        labeled = _video(sp, rng, float(rate), float(duration), int(rng.integers(2**31)))
        flows.append((labeled.trace.times, labeled.trace.sizes,
                      _truth_of(labeled, "video", float(rate))))

    order = rng.permutation(len(flows))
    starts = rng.uniform(0.0, START_WINDOW_S, size=len(flows))
    servers = rng.integers(1, 255, size=len(flows))
    keys, truth, all_t, all_s, all_k = [], {}, [], [], []
    for k, i in enumerate(order):
        times, sizes, flow_truth = flows[i]
        port = 20000 + k
        keys.append((f"203.0.113.{servers[k]}", CLIENT, port))
        truth[port] = flow_truth
        all_t.append(times + starts[k])
        all_s.append(sizes)
        all_k.append(np.full(len(times), k, dtype=np.int64))
    times, sizes, flow_of_row = (np.concatenate(x) for x in (all_t, all_s, all_k))
    rows = np.argsort(times, kind="stable")
    times, sizes, flow_of_row = times[rows], sizes[rows], flow_of_row[rows]
    return TraceInput(csv_bytes(times, sizes, flow_of_row, [",".join(map(str, k)) for k in keys]),
                      truth, times, sizes, keys)
