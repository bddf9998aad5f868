import numpy as np
import pytest

from streamprofiler import BurstParams, FlowKey, FusionParams, RateParams, Trace

TEST_FLOW = FlowKey("10.0.0.1", "192.168.1.5", 443)


def flow_trace(times, sizes=None, flow=TEST_FLOW) -> Trace:
    """Single-flow trace from plain lists; sizes default to 1000 B."""
    times = np.asarray(times, dtype=np.float64)
    if sizes is None:
        sizes = np.full(len(times), 1000, dtype=np.int64)
    return Trace.single_flow(times, sizes, flow)


@pytest.fixture
def rate_params() -> RateParams:
    return RateParams()


@pytest.fixture
def burst_params() -> BurstParams:
    return BurstParams()


@pytest.fixture
def fusion_params() -> FusionParams:
    return FusionParams()


def single_packet_steady_trace() -> Trace:
    """A 10 s filling burst, then one 66 kB packet that alone forms a steady
    burst, then a small trailing packet that keeps the rate series running.
    With ``h_n=1`` the lone packet is a zero-span steady candidate that a rate
    decrease confirms within the match tolerance."""
    times = np.concatenate([np.arange(100) * 0.1, [11.9, 30.0]])
    return flow_trace(times, sizes=[1000] * 100 + [66_000, 100])


def assert_tiles_and_partitions(segments, t_start, t_end, total_bytes):
    """Segments (objects or report dicts) tile [t_start, t_end] with positive
    durations and their volumes sum to the flow's payload."""
    def get(s, name):
        return s[name] if isinstance(s, dict) else getattr(s, name)
    assert get(segments[0], "t_start") == t_start
    assert get(segments[-1], "t_end") == t_end
    for a, b in zip(segments, segments[1:]):
        assert get(a, "t_end") == get(b, "t_start")
    assert all(get(s, "t_end") > get(s, "t_start") for s in segments)
    assert sum(get(s, "volume_bytes" if isinstance(s, dict) else "volume")
               for s in segments) == total_bytes


def random_trace(seed: int, duration: float = 10.0, mean_rate: float = 5e5,
                 packet_size: int = 1200) -> Trace:
    """Poisson-ish packet arrivals for property tests."""
    rng = np.random.default_rng(seed)
    n = max(1, int(duration * mean_rate / packet_size))
    gaps = rng.exponential(duration / n, size=n)
    times = np.cumsum(gaps)
    times = times / times[-1] * duration
    sizes = rng.integers(100, packet_size + 1, size=n)
    return Trace.single_flow(times, sizes, TEST_FLOW)
