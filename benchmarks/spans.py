"""Span recorder for the traced benchmark run.

The recorder wraps the public functions each kgqa layer exposes and records a
span (name, start, end, parent, request, question) around every call. It
rebinds each function under every name a `kgqa` module holds it by, so it
measures the layers from outside without any change to the package, and it
restores the originals afterwards, so untraced runs execute unwrapped code.

Calls made once per item (`render_masked`, `EmbeddingCache.get`/`put`) are
accumulated as a count plus total time instead of one span each, so tracing
does not swamp the prune loop. Spans are kept in memory and written out with
`dump` when the run ends; `layer_metrics` derives the per-layer figures,
including self times, from them.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import kgqa.answering
import kgqa.embedding
import kgqa.enrichment
import kgqa.evaluation
import kgqa.gateway
import kgqa.graph
import kgqa.pruning
import kgqa.queries

STAGES = ("parse", "prune", "enrich", "answer", "eval")
TEMPLATES = ("query_structuring", "structural_enrich", "feature_enrich", "question_answering")


@dataclass
class Span:
    name: str
    parent: "Span | None"
    request: int
    question: str | None = None
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# (owner, attribute, span name, describe); describe maps (args, kwargs, result)
# to the span's attributes, "question" among them. Functions are rebound wherever
# a kgqa module binds them; methods are patched on their class.
SPAN_TARGETS = (
    (kgqa.gateway.Gateway, "complete", "gateway.complete", lambda a, kw, r: {
        "question": a[1].question_id, "template": a[1].template,
        "prompt_tokens": r.prompt_tokens, "completion_tokens": r.completion_tokens,
    }),
    (kgqa.queries, "decompose", "queries.decompose", lambda a, kw, r: {
        "question": kw.get("question_id"), "degraded": int(r.degraded),
    }),
    (kgqa.graph, "load_graph", "graph.load_graph", lambda a, kw, r: {"triples": len(r)}),
    (kgqa.graph, "extract_paths", "graph.extract_paths", lambda a, kw, r: {"paths": len(r)}),
    (kgqa.embedding, "embed_batch", "embedding.embed_batch", lambda a, kw, r: {
        "texts": len(a[0]), "distinct": len(set(a[0])),
    }),
    (kgqa.embedding.ReferenceEmbedder, "embed_many", "embedding.embed_many", lambda a, kw, r: {"texts": len(a[1])}),
    (kgqa.embedding.EmbeddingCache, "load", "embedding.cache_load", None),
    (kgqa.embedding.EmbeddingCache, "save", "embedding.cache_save", None),
    (kgqa.pruning, "score_graph", "pruning.score_graph", lambda a, kw, r: {
        "pairs": len(r) * len(kgqa.pruning.CHANNELS) * len(a[1]),
    }),
    (kgqa.pruning, "select_top_k", "pruning.select_top_k", lambda a, kw, r: {
        "kept": len(r.kept), "source": r.source_size,
    }),
    (kgqa.enrichment, "associate_queries", "enrichment.associate", None),
    (kgqa.enrichment, "filter_and_build_structural_prompt", "enrichment.structural_prompt", None),
    (kgqa.enrichment, "collect_entity_contexts", "enrichment.feature_prompt", None),
    (kgqa.enrichment, "build_feature_prompt", "enrichment.feature_prompt", None),
    (kgqa.enrichment, "parse_structural_output", "enrichment.parse", None),
    (kgqa.enrichment, "parse_feature_output", "enrichment.parse", None),
    (kgqa.enrichment, "merge_enriched", "enrichment.merge", None),
    (kgqa.answering, "build_qa_prompt", "answering.prompt", None),
    (kgqa.answering, "parse_final_answers", "answering.parse", None),
    (kgqa.evaluation, "build_eval_report", "evaluation.report", None),
)

TOTAL_TARGETS = (
    (kgqa.pruning, "render_masked", "pruning.render_masked"),
    (kgqa.embedding.EmbeddingCache, "get", "embedding.cache_get"),
    (kgqa.embedding.EmbeddingCache, "put", "embedding.cache_put"),
)


class Recorder:
    """In-memory spans and per-item totals for the current request (one plan run)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.totals: dict[str, list] = {}
        self.request = 0
        self.root: Span | None = None  # parent for spans opened on worker threads
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else self.root, self.request)
        self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str, as_root: bool = False):
        span = self.open(name)
        if as_root:
            self.root = span
        try:
            yield span
        finally:
            self.close(span)
            if as_root:
                self.root = None

    def _span_wrapper(self, fn, name, describe):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(span)
            if describe is not None:
                span.attrs = describe(args, kwargs, result)
                span.question = span.attrs.pop("question", None)
            return result

        return wrapper

    def _total_wrapper(self, fn, name):
        totals = self.totals.setdefault(name, [0, 0.0])
        lock = self._lock
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                with lock:
                    totals[0] += 1
                    totals[1] += elapsed

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:
            targets = [
                (module, name)
                for module_name, module in list(sys.modules.items())
                if module_name == "kgqa" or module_name.startswith("kgqa.")
                for name, value in list(vars(module).items())
                if value is original
            ]
        for target, name in targets:
            self._patches.append((target, name, getattr(target, name)))
            setattr(target, name, wrapper)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore the originals."""
        for owner, attr, name, describe in SPAN_TARGETS:
            self._patch(owner, attr, self._span_wrapper(getattr(owner, attr), name, describe))
        for owner, attr, name in TOTAL_TARGETS:
            self._patch(owner, attr, self._total_wrapper(getattr(owner, attr), name))
        try:
            yield self
        finally:
            for target, name, original in reversed(self._patches):
                setattr(target, name, original)
            self._patches.clear()

    def take(self) -> tuple[list[Span], dict[str, list]]:
        """Hand over and reset the spans and totals of the current request."""
        spans, totals = self.spans, {k: list(v) for k, v in self.totals.items()}
        self.spans = []
        for value in self.totals.values():
            value[0], value[1] = 0, 0.0
        return spans, totals


def dump(path: Path, requests: list[tuple[list[Span], dict[str, list]]]) -> None:
    """Write every span as one JSON line: id, name, start, end, parent id, request, question, attrs."""
    with path.open("w", encoding="utf-8") as fh:
        for spans, totals in requests:
            ids = {id(span): i for i, span in enumerate(spans)}
            for i, span in enumerate(spans):
                fh.write(json.dumps({
                    "id": i,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": ids.get(id(span.parent)),
                    "request": span.request,
                    "question": span.question,
                    "attrs": span.attrs,
                }) + "\n")
            for name, (count, seconds) in sorted(totals.items()):
                fh.write(json.dumps({"total": name, "count": count, "seconds": seconds}) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    covered = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def self_time(spans: list[Span], name: str) -> float:
    """Summed duration of the named spans minus the part their direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append((span.start, span.end))
    return sum(s.duration - _covered(children.get(id(s), [])) for s in spans if s.name == name)


def layer_metrics(spans: list[Span], totals: dict[str, list]) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced plan run, as name -> (value, unit)."""
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def seconds(name: str) -> float:
        return sum((s.duration for s in by_name.get(name, ())), 0.0)

    def attr_sum(name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, ()))

    m: dict[str, tuple[float, str]] = {}
    for stage in STAGES:
        m[f"pipeline.{stage}_s"] = (seconds(f"pipeline.{stage}"), "s")
    m["pipeline.self_s"] = (sum(self_time(spans, f"pipeline.{stage}") for stage in STAGES), "s")
    m["pipeline.save_state_s"] = (seconds("pipeline.save_state"), "s")

    completes = by_name.get("gateway.complete", [])
    complete_s = seconds("gateway.complete")
    m["gateway.calls"] = (len(completes), "count")
    m["gateway.complete_s"] = (complete_s, "s")
    provider_stage_s = sum(seconds(f"pipeline.{stage}") for stage in ("parse", "enrich", "answer"))
    m["gateway.in_flight_mean"] = (complete_s / provider_stage_s if provider_stage_s else 0.0, "calls")
    for template in TEMPLATES:
        tokens = sum(s.attrs["prompt_tokens"] for s in completes if s.attrs.get("template") == template)
        m[f"gateway.prompt_tokens.{template}"] = (tokens, "tokens")
    m["gateway.completion_tokens"] = (attr_sum("gateway.complete", "completion_tokens"), "tokens")

    m["queries.decompose_self_s"] = (self_time(spans, "queries.decompose"), "s")
    m["queries.degraded"] = (attr_sum("queries.decompose", "degraded"), "count")

    m["graph.load_graph_s"] = (seconds("graph.load_graph"), "s")
    m["graph.triples_loaded"] = (attr_sum("graph.load_graph", "triples"), "count")
    m["graph.extract_paths_s"] = (seconds("graph.extract_paths"), "s")
    m["graph.paths"] = (attr_sum("graph.extract_paths", "paths"), "count")

    requested = attr_sum("embedding.embed_batch", "texts")
    distinct = attr_sum("embedding.embed_batch", "distinct")
    embedded = attr_sum("embedding.embed_many", "texts")
    embed_many_s = seconds("embedding.embed_many")
    m["embedding.embed_batch_s"] = (seconds("embedding.embed_batch"), "s")
    m["embedding.texts_requested"] = (requested, "count")
    m["embedding.texts_distinct"] = (distinct, "count")
    m["embedding.texts_embedded"] = (embedded, "count")
    m["embedding.hit_ratio"] = ((distinct - embedded) / distinct if distinct else 0.0, "ratio")
    m["embedding.embed_many_s"] = (embed_many_s, "s")
    m["embedding.us_per_text"] = (embed_many_s / embedded * 1e6 if embedded else 0.0, "us")
    get_count, get_s = totals.get("embedding.cache_get", (0, 0.0))
    put_count, put_s = totals.get("embedding.cache_put", (0, 0.0))
    m["embedding.cache_get_s"] = (get_s, "s")
    m["embedding.cache_gets"] = (get_count, "count")
    m["embedding.cache_put_s"] = (put_s, "s")
    m["embedding.cache_puts"] = (put_count, "count")
    m["embedding.cache_load_s"] = (seconds("embedding.cache_load"), "s")
    m["embedding.cache_save_s"] = (seconds("embedding.cache_save"), "s")

    score_s = seconds("pruning.score_graph")
    score_children_s = sum(
        s.duration for s in by_name.get("embedding.embed_batch", ())
        if s.parent is not None and s.parent.name == "pruning.score_graph"
    )
    render_count, render_s = totals.get("pruning.render_masked", (0, 0.0))
    score_loop_s = score_s - score_children_s - render_s
    pairs = attr_sum("pruning.score_graph", "pairs")
    kept = attr_sum("pruning.select_top_k", "kept")
    source = attr_sum("pruning.select_top_k", "source")
    m["pruning.score_graph_s"] = (score_s, "s")
    m["pruning.render_masked_s"] = (render_s, "s")
    m["pruning.render_masked_calls"] = (render_count, "count")
    m["pruning.score_loop_s"] = (score_loop_s, "s")
    m["pruning.pairs_scored"] = (pairs, "count")
    m["pruning.ns_per_pair"] = (score_loop_s / pairs * 1e9 if pairs else 0.0, "ns")
    m["pruning.select_top_k_s"] = (seconds("pruning.select_top_k"), "s")
    m["pruning.source_triples"] = (source, "count")
    m["pruning.kept_share"] = (kept / source if source else 0.0, "ratio")

    for name in ("associate", "structural_prompt", "feature_prompt", "parse", "merge"):
        m[f"enrichment.{name}_s"] = (seconds(f"enrichment.{name}"), "s")
    m["answering.prompt_s"] = (seconds("answering.prompt"), "s")
    m["answering.parse_s"] = (seconds("answering.parse"), "s")
    m["evaluation.report_s"] = (seconds("evaluation.report"), "s")
    return m


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) by `statistics.quantiles`, exclusive method."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]
