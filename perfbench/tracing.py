"""Spans and counts around the package's public functions, from outside the package.

The traced run replaces module attributes and backend methods with wrappers
that record a span (name, start, end, parent) per call, or only count calls.
Callers that look the function up in the patched namespace at call time go
through the wrapper; no source file of the package changes. Spans stay in
memory until the chain worker writes them out and derives the per-layer
metrics from them.
"""
from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter

# (namespace, attribute, span name). simcore imports most of its helpers by
# name, so they are patched where simcore looks them up.
SPANS = (
    ("simcore", "stream", "rng.stream"),
    ("simcore", "run_simulation", "simcore.run"),
    ("simcore", "resume_or_extend", "simcore.resume_or_extend"),
    ("simcore", "write_outputs", "simcore.write_outputs"),
    ("simcore", "write_tweets_jsonl", "simcore.write_jsonl"),
    ("simcore", "read_tweets_jsonl", "simcore.read_jsonl"),
    ("simcore", "verify_manifest_files", "simcore.verify_manifest"),
    ("simcore", "generate_post", "content.generate_post"),
    ("TemplateBackend", "complete", "content.backend"),
    ("LlmHttpBackend", "complete", "content.backend"),
    ("simcore", "select_partner_detail", "netgraph.select_partner"),
    ("simcore", "build_comm_graph", "netgraph.build_graph"),
    ("netgraph", "build_comm_graph", "netgraph.build_graph"),
    ("simcore", "graph_metrics", "netgraph.metrics"),
    ("netgraph", "graph_metrics", "netgraph.metrics"),
    ("simcore", "export_edges_csv", "netgraph.export_csv"),
    ("simcore", "export_graphml", "netgraph.export_graphml"),
    ("cues", "aggregate_cues", "cues.aggregate"),
    ("cues", "text_cues", "cues.text_cues"),
    ("cues", "reading_difficulty", "cues.reading_difficulty"),
    ("cues", "metadata_cues", "cues.metadata_cues"),
    ("cues", "write_cue_report", "cues.report_io"),
    ("cues", "read_cue_report", "cues.report_io"),
    ("benchmark", "compare_from_report", "benchmark.compare"),
    ("benchmark", "render_report", "benchmark.compare"),
)
COUNTS = (("cues", "tokenize", "cues.tokenize"),)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, index of the parent span or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack = [-1]

    def install(self, namespaces: dict) -> None:
        for owner, attr, name in SPANS:
            target = namespaces[owner]
            setattr(target, attr, self._span(name, getattr(target, attr)))
        for owner, attr, name in COUNTS:
            target = namespaces[owner]
            setattr(target, attr, self._count(name, getattr(target, attr)))

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return traced

    def _count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def take(self) -> tuple[list[list], dict[str, int]]:
        """The spans and counts recorded since the last take, then start afresh."""
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def layer_metrics(spans: list[list], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one chain iteration.

    `_self_s` metrics and cues.text_cues_s are a span's time minus its
    direct traced children; the other times are whole spans, summed.
    """
    total = defaultdict(float)
    children = defaultdict(float)
    calls = defaultdict(int)
    backend_ms = []
    for name, start, end, parent in spans:
        d = end - start
        total[name] += d
        calls[name] += 1
        if parent >= 0:
            children[spans[parent][0]] += d
        if name == "content.backend":
            backend_ms.append(d * 1e3)

    def self_s(name):
        return total[name] - children[name]

    backend_ms.sort()
    select_calls = calls["netgraph.select_partner"]
    return {
        "rng.stream_s": total["rng.stream"],
        "simcore.run_self_s": self_s("simcore.run"),
        "simcore.write_outputs_s": total["simcore.write_outputs"],
        "simcore.write_jsonl_s": total["simcore.write_jsonl"],
        "simcore.read_jsonl_s": total["simcore.read_jsonl"],
        "simcore.verify_manifest_s": total["simcore.verify_manifest"],
        "simcore.extend_prepare_s": self_s("simcore.resume_or_extend"),
        "content.generate_post_self_s": self_s("content.generate_post"),
        "content.backend_calls": calls["content.backend"],
        "content.backend_s": total["content.backend"],
        "content.backend_p50_ms": statistics.median(backend_ms) if backend_ms else 0.0,
        "content.backend_p99_ms": (
            statistics.quantiles(backend_ms, n=100)[98] if len(backend_ms) > 1 else 0.0
        ),
        "netgraph.select_partner_s": total["netgraph.select_partner"],
        "netgraph.select_partner_us": (
            total["netgraph.select_partner"] / select_calls * 1e6 if select_calls else 0.0
        ),
        "netgraph.build_graph_s": total["netgraph.build_graph"],
        "netgraph.metrics_s": total["netgraph.metrics"],
        "netgraph.export_csv_s": total["netgraph.export_csv"],
        "netgraph.export_graphml_s": total["netgraph.export_graphml"],
        "cues.aggregate_s": total["cues.aggregate"],
        "cues.text_cues_s": self_s("cues.text_cues"),
        "cues.reading_difficulty_s": total["cues.reading_difficulty"],
        "cues.metadata_cues_s": total["cues.metadata_cues"],
        "cues.tokenize_calls": counts.get("cues.tokenize", 0),
        "cues.report_io_s": total["cues.report_io"],
        "benchmark.compare_s": total["benchmark.compare"],
    }
