"""Traffic profiling for adaptive video streaming flows.

Identifies the phases of a streaming session (buffer filling, steady state,
other) from packet arrival times and payload sizes alone, estimates the
video encoding rate, and reconstructs the play-back buffer trajectory.
Ships with a synthetic labeled-trace generator and a batch evaluation
harness.
"""

from .bursts import BurstParams, PhaseCandidate, classify, confirm_steady, filter_small, segment
from .profiler import (
    BufferTrajectory,
    FusionParams,
    PhaseSegment,
    ProfileReport,
    RateEstimate,
    StreamProfiler,
    StreamVerdict,
    detect_stream,
    estimate_buffer,
    estimate_rate,
    fuse,
    profile,
    to_kbps,
)
from .rate import RateChange, RateParams, RateSeries, aggregate, detect_changes, smooth
from .synth import (
    SCENARIOS,
    GenerationError,
    GeneratorDefaults,
    LabeledTrace,
    ScenarioSpec,
    generate,
    generate_bulk,
    scenario_spec,
)
from .trace import (
    FILLING,
    OTHER,
    PHASES,
    STEADY,
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
    write_labels,
    write_trace,
)
from .evaluate import ConfusionMatrix, SpanMismatchError, confusion, nrmse, run_scenario

__version__ = "0.1.0"
