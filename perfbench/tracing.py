"""Span tracing of the layers the benchmark drives, from outside the program.

`Tracer.installed()` rebinds public protagent functions, in the module that
looks each one up, with wrappers that record a span (name, start, end,
parent span, session id) and restores them on exit. The span stack is one
per process, not per thread: `executor.invoke` runs each tool handler on a
fresh pool thread while the calling thread waits, and sessions run one at a
time, so the kernel span of a tool call nests under its invoke span. Spans
stay in memory; `layer_metrics` turns them into the per-layer numbers.
"""

from __future__ import annotations

import dataclasses
import json
import os
import statistics
import time
from contextlib import contextmanager
from typing import Any

from protagent import agent, backends, domains, evaluation, homology, props, seq, topology

ERROR_KINDS = (
    "unknown_tool", "ambiguous_argument", "unknown_reference", "invalid_arguments",
    "budget_exhausted", "timeout", "not_supported", "tool_error",
)


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    session: str | None
    value: Any = None  # what the span's measure recorded (cells, hit count, bytes, ...)
    rss_delta: int | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _error_kind(args, kwargs, response):
    return None if response.ok else response.payload.get("error_kind")


# (owner, attribute, span name, measure(args, kwargs, result) or None)
_PATCHES = (
    (seq, "validate_sequence", "seq.validate", None),
    (evaluation, "validate_sequence", "seq.validate", None),
    (homology, "load_built_store", "homology.load_store", None),
    (homology, "load_reference_store", "homology.load_store", None),
    (homology, "build_index", "homology.build_index", lambda a, k, index: index.total_residues),
    (homology, "search_best_hit", "homology.search", lambda a, k, hit: hit is not None),
    (homology, "smith_waterman", "homology.smith_waterman", lambda a, k, r: len(a[0]) * len(a[1])),
    (domains, "parse_hmm_library", "domains.parse_library", None),
    (domains, "scan", "domains.scan", lambda a, k, result: len(result.hits)),
    (domains, "viterbi_score", "domains.viterbi", lambda a, k, r: a[0].model_length * len(a[1])),
    (props, "compute_basic_props", "props.compute", None),
    (topology, "predict_topology", "topology.predict", None),
    (agent, "run_rag", "agent.run", None),
    (agent, "run_tool_agent", "agent.run", None),
    (agent, "invoke", "executor.invoke", _error_kind),
    (backends.ScriptedBackend, "complete", "backends.complete", None),
    (agent, "save_trace", "agent.save_trace", lambda a, k, r: os.path.getsize(a[1])),
    (evaluation, "load_benchmark", "evaluation.load_benchmark", None),
    (evaluation, "evaluate_run", "evaluation.evaluate_run", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._session: str | None = None

    def _wrap(self, name, fn, measure):
        def traced(*args, **kwargs):
            if name == "agent.run":
                self._session = kwargs.get("session_id")
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._session)
            self.spans.append(span)
            self._stack.append(index)
            rss = _rss_bytes() if name == "homology.build_index" else None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if rss is not None:
                span.rss_delta = _rss_bytes() - rss
            if measure is not None:
                span.value = measure(args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({**dataclasses.asdict(span), "value": repr(span.value)}) + "\n")

    @contextmanager
    def installed(self):
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in _PATCHES]
        try:
            for (owner, attr, name, measure), (_, _, fn) in zip(_PATCHES, originals):
                setattr(owner, attr, self._wrap(name, fn, measure))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)


# name, unit, better: the per-layer metrics of BENCHMARK.json, in print order.
LAYER_METRICS = (
    ("seq.validate_s", "s", "lower"),
    ("seq.validate_calls", "count", "lower"),
    ("homology.load_store_s", "s", "lower"),
    ("homology.build_index_s", "s", "lower"),
    ("homology.index_bytes_per_residue", "B", "lower"),
    ("homology.search_ms", "ms", "lower"),
    ("homology.search_ms.p90", "ms", "lower"),
    ("homology.search_ms.n", "count", "lower"),
    ("homology.prefilter_self_ms", "ms", "lower"),
    ("homology.sw_ms", "ms", "lower"),
    ("homology.sw_ms.n", "count", "lower"),
    ("homology.sw_calls_per_search", "1", "lower"),
    ("homology.sw_mcells_per_s", "Mcell/s", "higher"),
    ("homology.align_useful_ratio", "1", "higher"),
    ("domains.parse_library_s", "s", "lower"),
    ("domains.scan_ms", "ms", "lower"),
    ("domains.scan_ms.p90", "ms", "lower"),
    ("domains.scan_ms.n", "count", "lower"),
    ("domains.viterbi_ms", "ms", "lower"),
    ("domains.viterbi_ms.n", "count", "lower"),
    ("domains.viterbi_mcells_per_s", "Mcell/s", "higher"),
    ("domains.scan_self_ms", "ms", "lower"),
    ("domains.hit_ratio", "1", "higher"),
    ("props.compute_ms", "ms", "lower"),
    ("props.compute_ms.n", "count", "lower"),
    ("topology.predict_ms", "ms", "lower"),
    ("topology.predict_ms.n", "count", "lower"),
    ("executor.invoke_ms", "ms", "lower"),
    ("executor.overhead_ms", "ms", "lower"),
    ("executor.calls", "count", "lower"),
    *((f"executor.errors.{kind}", "count", "lower") for kind in ERROR_KINDS),
    ("backends.complete_ms", "ms", "lower"),
    ("backends.complete_ms.n", "count", "lower"),
    ("backends.turns_per_session", "1", "lower"),
    ("agent.session_ms", "ms", "lower"),
    ("agent.session_self_ms", "ms", "lower"),
    ("agent.save_trace_ms", "ms", "lower"),
    ("agent.save_trace_ms.n", "count", "lower"),
    ("agent.trace_kb", "KiB", "lower"),
    ("evaluation.load_benchmark_s", "s", "lower"),
    ("evaluation.evaluate_run_ms", "ms", "lower"),
    ("evaluation.evaluate_run_ms.n", "count", "lower"),
    ("tracing.cases_per_s", "1/s", "higher"),
    ("tracing.untraced_cases_per_s", "1/s", "higher"),
    ("tracing.overhead_pct", "%", "lower"),
)


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    """90th percentile (exclusive method); the lone value for one sample."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[-1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], traced_cps: float, untraced_cps: float) -> dict[str, float]:
    """Per-layer values from the spans of one traced set-up plus traced passes.

    A layer the workload never calls reports 0 with a count of 0. Self time
    is a span's duration minus that of its direct children.
    """
    by_name: dict[str, list[int]] = {}
    child_seconds = [0.0] * len(spans)
    for index, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(index)
        if span.parent is not None:
            child_seconds[span.parent] += span.seconds

    def group(name):
        return [spans[i] for i in by_name.get(name, ())]

    def ms(name):
        return [s.seconds * 1e3 for s in group(name)]

    def total_s(name):
        return sum(s.seconds for s in group(name))

    def self_ms(name):
        return [(spans[i].seconds - child_seconds[i]) * 1e3 for i in by_name.get(name, ())]

    searches, alignments = group("homology.search"), group("homology.smith_waterman")
    scans, viterbis = group("domains.scan"), group("domains.viterbi")
    builds = group("homology.build_index")
    invokes = group("executor.invoke")
    runs, completes, saves = group("agent.run"), group("backends.complete"), group("agent.save_trace")
    errors = [s.value for s in invokes if s.value is not None]
    return {
        "seq.validate_s": total_s("seq.validate"),
        "seq.validate_calls": len(group("seq.validate")),
        "homology.load_store_s": total_s("homology.load_store"),
        "homology.build_index_s": total_s("homology.build_index"),
        "homology.index_bytes_per_residue": _ratio(sum(s.rss_delta for s in builds), sum(s.value for s in builds)),
        "homology.search_ms": _p50(ms("homology.search")),
        "homology.search_ms.p90": p90(ms("homology.search")),
        "homology.search_ms.n": len(searches),
        "homology.prefilter_self_ms": _p50(self_ms("homology.search")),
        "homology.sw_ms": _p50(ms("homology.smith_waterman")),
        "homology.sw_ms.n": len(alignments),
        "homology.sw_calls_per_search": _ratio(len(alignments), len(searches)),
        "homology.sw_mcells_per_s": _ratio(sum(s.value for s in alignments), 1e6 * total_s("homology.smith_waterman")),
        "homology.align_useful_ratio": _ratio(sum(1 for s in searches if s.value), len(alignments)),
        "domains.parse_library_s": total_s("domains.parse_library"),
        "domains.scan_ms": _p50(ms("domains.scan")),
        "domains.scan_ms.p90": p90(ms("domains.scan")),
        "domains.scan_ms.n": len(scans),
        "domains.viterbi_ms": _p50(ms("domains.viterbi")),
        "domains.viterbi_ms.n": len(viterbis),
        "domains.viterbi_mcells_per_s": _ratio(sum(s.value for s in viterbis), 1e6 * total_s("domains.viterbi")),
        "domains.scan_self_ms": _p50(self_ms("domains.scan")),
        "domains.hit_ratio": _ratio(sum(s.value for s in scans), len(viterbis)),
        "props.compute_ms": _p50(ms("props.compute")),
        "props.compute_ms.n": len(group("props.compute")),
        "topology.predict_ms": _p50(ms("topology.predict")),
        "topology.predict_ms.n": len(group("topology.predict")),
        "executor.invoke_ms": _p50(ms("executor.invoke")),
        "executor.overhead_ms": _p50(self_ms("executor.invoke")),
        "executor.calls": len(invokes),
        **{f"executor.errors.{kind}": errors.count(kind) for kind in ERROR_KINDS},
        "backends.complete_ms": _p50(ms("backends.complete")),
        "backends.complete_ms.n": len(completes),
        "backends.turns_per_session": _ratio(len(completes), len(runs)),
        "agent.session_ms": _p50(ms("agent.run")),
        "agent.session_self_ms": _p50(self_ms("agent.run")),
        "agent.save_trace_ms": _p50(ms("agent.save_trace")),
        "agent.save_trace_ms.n": len(saves),
        "agent.trace_kb": _ratio(sum(s.value for s in saves), 1024 * len(saves)),
        "evaluation.load_benchmark_s": total_s("evaluation.load_benchmark"),
        "evaluation.evaluate_run_ms": _p50(ms("evaluation.evaluate_run")),
        "evaluation.evaluate_run_ms.n": len(group("evaluation.evaluate_run")),
        "tracing.cases_per_s": traced_cps,
        "tracing.untraced_cases_per_s": untraced_cps,
        "tracing.overhead_pct": 100.0 * (_ratio(untraced_cps, traced_cps) - 1.0),
    }
