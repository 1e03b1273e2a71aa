"""Workload table for the kgqa benchmark; BENCHMARK.json records why each was chosen.

Every workload is generated from a seed through `kgqa.fixtures.build_mini_dataset`,
so the same seed gives the same dataset and stub script. The program sees only
the generated records and a `RunConfig`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from kgqa.fixtures import build_mini_dataset
from kgqa.gateway import ChatProvider, ChatRequest, ProviderReply
from kgqa.pipeline import DatasetRecord, RunConfig


@dataclass(frozen=True)
class Workload:
    name: str
    n_questions: int
    min_triples: int
    max_triples: int
    workers: int
    latency_ms: float = 0.0
    warm_cache: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("prune-heavy", n_questions=20, min_triples=1000, max_triples=2000, workers=1),
        Workload("provider-bound", n_questions=20, min_triples=30, max_triples=300, workers=2, latency_ms=50.0),
        Workload("warm-cache", n_questions=20, min_triples=1000, max_triples=2000, workers=1, warm_cache=True),
    )
}


class FixedLatencyProvider:
    """Sleeps a fixed time per `generate`, then delegates; keeps the inner provider id."""

    def __init__(self, inner: ChatProvider, latency_s: float):
        self.inner = inner
        self.latency_s = latency_s
        self.provider_id = inner.provider_id

    def generate(self, request: ChatRequest) -> ProviderReply:
        time.sleep(self.latency_s)
        return self.inner.generate(request)


def build_inputs(
    workload: Workload,
    seed: int,
    cache_dir: str | None,
    n_questions: int | None = None,
    min_triples: int | None = None,
    max_triples: int | None = None,
) -> tuple[list[DatasetRecord], RunConfig]:
    """Dataset and config for one workload; the size arguments override its shape."""
    records, script = build_mini_dataset(
        n_questions=n_questions or workload.n_questions,
        seed=seed,
        min_triples=min_triples or workload.min_triples,
        max_triples=max_triples or workload.max_triples,
    )
    config = RunConfig(
        workers=workload.workers,
        llm={"kind": "stub", "script": script},
        cache_dir=cache_dir if workload.warm_cache else None,
    )
    return records, config
