"""Span tracing of the streamprofiler pipeline, installed from outside the package.

``Tracer.install`` replaces each public function listed in ``TARGETS`` by a
timing wrapper, in every ``streamprofiler`` module that holds a reference
to it, so call sites that imported the name directly are traced as well.
A span is ``(id, request, parent, name, start, end)``; spans of one flow,
one live query or one scenario run share the request id. Wrappers record
nothing while ``active`` is false. A target the package no longer has is
listed in ``absent`` and skipped.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (module, attribute, span name, counter)
TARGETS = [
    ("trace", "parse_trace", "trace.parse", lambda r, a, c: c.update(pkts=len(r))),
    ("trace", "normalize", "trace.normalize", None),
    ("trace", "demux", "trace.demux", lambda r, a, c: c.update(flows=len(r))),
    ("rate", "aggregate", "rate.aggregate",
     lambda r, a, c: c.update(bins=len(r), binned_pkts=len(a[0]))),
    ("rate", "smooth", "rate.smooth", None),
    ("rate", "detect_changes", "rate.detect_changes", lambda r, a, c: c.update(events=len(r[1]))),
    ("bursts", "segment", "bursts.segment", lambda r, a, c: c.update(bursts_raw=len(r))),
    ("bursts", "filter_small", "bursts.filter_small",
     lambda r, a, c: c.update(bursts_retained=len(r))),
    ("bursts", "classify", "bursts.classify", None),
    ("bursts", "confirm_steady", "bursts.confirm_steady",
     lambda r, a, c: c.update(candidates=len(r))),
    ("profiler", "profile", "profiler.profile", None),
    ("profiler", "fuse", "profiler.fuse",
     lambda r, a, c: c.update(segments=len(r), fused_candidates=len(a[2]),
                              confirmed=sum(s.phase != "other" for s in r))),
    ("profiler", "detect_stream", "profiler.detect_stream", None),
    ("profiler", "estimate_rate", "profiler.estimate_rate", None),
    ("profiler", "estimate_buffer", "profiler.estimate_buffer",
     lambda r, a, c: c.update(buffer_samples=len(r.times))),
    ("profiler", "ProfileReport.to_json", "profiler.to_json",
     lambda r, a, c: c.update(json_bytes=len(r))),
    ("profiler", "StreamProfiler.report", "profiler.live_query",
     lambda r, a, c: c.update(live_profiled_pkts=a[0].n_packets)),
    ("synth", "scenario_spec", "synth.scenario_spec", None),
    ("synth", "generate", "synth.generate", lambda r, a, c: c.update(synth_pkts=len(r.trace))),
    ("synth", "generate_bulk", "synth.generate_bulk",
     lambda r, a, c: c.update(synth_pkts=len(r.trace))),
    ("evaluate", "run_scenario", "evaluate.run_scenario", None),
    ("evaluate", "check_report", "evaluate.check_report", None),
    ("evaluate", "ConfusionMatrix.add", "evaluate.confusion_add", None),
    ("evaluate", "phase_counts", "evaluate.phase_counts", None),
    ("evaluate", "quality_change_detected", "evaluate.quality_change_detected", None),
    ("evaluate", "throttle_window_detected", "evaluate.throttle_window_detected", None),
    ("evaluate", "steady_rate_pairs", "evaluate.steady_rate_pairs", None),
    ("evaluate", "nrmse", "evaluate.nrmse", None),
    ("cli", "main", "cli.main", None),
]

# A span with one of these names starts a new request (flow or scenario
# run) once the current request has been profiled; a live query always does.
_OPENS_AFTER_PROFILE = {"synth.scenario_spec", "synth.generate", "synth.generate_bulk",
                        "profiler.profile"}
_OPENS_ALWAYS = {"profiler.live_query"}

# Per-layer time metrics: summed duration of the listed spans, not counting
# a span that runs inside another span of the same group.
LAYER_TIMES = {
    "trace.parse_s": ("trace.parse",),
    "trace.normalize_s": ("trace.normalize",),
    "trace.demux_s": ("trace.demux",),
    "rate.aggregate_s": ("rate.aggregate",),
    "rate.smooth_s": ("rate.smooth",),
    "rate.detect_changes_s": ("rate.detect_changes",),
    "bursts.segment_s": ("bursts.segment",),
    "bursts.classify_s": ("bursts.filter_small", "bursts.classify"),
    "bursts.confirm_s": ("bursts.confirm_steady",),
    "profiler.fuse_s": ("profiler.fuse",),
    "profiler.estimate_s": ("profiler.detect_stream", "profiler.estimate_rate"),
    "profiler.buffer_s": ("profiler.estimate_buffer",),
    "profiler.to_json_s": ("profiler.to_json",),
    "profiler.live_query_s": ("profiler.live_query",),
    "synth.generate_s": ("synth.scenario_spec", "synth.generate", "synth.generate_bulk"),
    "evaluate.score_s": ("evaluate.confusion_add", "evaluate.phase_counts",
                         "evaluate.quality_change_detected", "evaluate.throttle_window_detected",
                         "evaluate.steady_rate_pairs", "evaluate.nrmse"),
}
# Self time: duration of the listed spans minus the time their child spans cover.
SELF_TIMES = {
    "profiler.self_s": ("profiler.profile",),
    "evaluate.self_s": ("evaluate.run_scenario", "evaluate.check_report"),
    "cli.self_s": ("cli.main",),
}


def _resolve(module, path: str):
    owner = module
    *parents, leaf = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, leaf, getattr(owner, leaf)


class Tracer:
    """In-memory span recorder with wrappers around the package's public API."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.count_errors: Counter = Counter()
        self.active = False
        self._replaced: list[tuple[object, str, object]] = []
        self._stack: list[int] = []  # ids of the open spans
        self._request = 0
        self._profiled = True

    def install(self, package: str = "streamprofiler") -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for mod_name, path, span_name, counter in TARGETS:
            module = sys.modules.get(f"{package}.{mod_name}")
            try:
                owner, leaf, original = _resolve(module, path)
            except AttributeError:
                self.absent.append(f"{mod_name}.{path}")
                continue
            wrapper = self._wrap(span_name, original, counter)
            holders = [(owner, leaf)] if isinstance(owner, type) else [
                (mod, attr) for mod in modules
                for attr, value in list(vars(mod).items()) if value is original]
            for holder, attr in holders:
                setattr(holder, attr, wrapper)
                self._replaced.append((holder, attr, original))

    def uninstall(self) -> None:
        """Put back every function ``install`` replaced."""
        for holder, attr, original in reversed(self._replaced):
            setattr(holder, attr, original)
        self._replaced.clear()

    def start_request(self) -> None:
        """Open a new request id for work that belongs to no flow yet."""
        self._request += 1
        self._profiled = True

    def _wrap(self, name: str, fn, counter):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if name in _OPENS_ALWAYS or (name in _OPENS_AFTER_PROFILE and self._profiled):
                self._request += 1
                self._profiled = False
            if name == "profiler.profile":
                self._profiled = True
            request = self._request
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)  # reserve the id; filled in on return
            self._stack.append(span_id)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans[span_id] = (span_id, request, parent, name, start, end)
            if counter is not None:
                try:
                    counter(result, args, self.counts)
                except (AttributeError, IndexError, TypeError):
                    self.count_errors[name] += 1
            return result

        traced.__wrapped__ = fn
        return traced


def layer_times(spans) -> dict[str, float]:
    """Per-layer seconds over ``spans`` (a contiguous slice of one tracer)."""
    by_id = {s[0]: s for s in spans}
    child_time: Counter = Counter()
    for s in spans:
        if s[2] in by_id:
            child_time[s[2]] += s[5] - s[4]

    def outermost(span, group) -> bool:
        parent = by_id.get(span[2])
        while parent is not None:
            if parent[3] in group:
                return False
            parent = by_id.get(parent[2])
        return True

    out = {}
    for metric, group in LAYER_TIMES.items():
        out[metric] = sum(s[5] - s[4] for s in spans if s[3] in group and outermost(s, group))
    for metric, group in SELF_TIMES.items():
        out[metric] = sum(s[5] - s[4] - child_time[s[0]] for s in spans if s[3] in group)
    return out
