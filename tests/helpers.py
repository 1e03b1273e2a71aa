"""Shared generators and independent oracles used across the test suite."""

from __future__ import annotations

import base64
import json
import zlib
from pathlib import Path
from random import Random

import numpy as np

from kgqa.gateway import (
    ChatProvider,
    ChatRequest,
    CostLedger,
    Gateway,
    ProviderReply,
    ScriptedStubProvider,
    TransportError,
)
from kgqa.graph import Triple, load_graph

WORDS = (
    "amber", "basalt", "cobalt", "dune", "ember", "fjord", "garnet", "heron",
    "iris", "juniper", "krill", "lagoon", "mesa", "nectar", "onyx", "pumice",
    "quartz", "reed", "sable", "tundra", "umber", "vortex", "wheat", "xenon",
    "yarrow", "zephyr", "anchor", "bridge", "candle", "drift", "esker", "flume",
)


def fnv64_oracle(data: bytes) -> int:
    """Independent FNV-1a 64-bit implementation for cross-checking slots."""
    value = 14695981039346656037
    for byte in data:
        value = ((value ^ byte) * 1099511628211) % (2 ** 64)
    return value


def random_phrase(rng: Random, n_words: int = 3) -> str:
    return " ".join(rng.choice(WORDS) + str(rng.randrange(50)) for _ in range(n_words))


def random_records(rng: Random, n_triples: int) -> list[list[str]]:
    records = []
    seen = set()
    while len(records) < n_triples:
        s = random_phrase(rng, rng.randint(1, 2))
        r = rng.choice(WORDS) + "_" + rng.choice(WORDS)
        o = random_phrase(rng, rng.randint(1, 2))
        if (s, r, o) in seen:
            continue
        seen.add((s, r, o))
        records.append([s, r, o])
    return records


def random_graph(rng: Random, n_triples: int) -> tuple[Triple, ...]:
    return load_graph(random_records(rng, n_triples))


def random_queries(rng: Random, n: int) -> list[str]:
    return [random_phrase(rng, rng.randint(2, 5)) for _ in range(n)]


def stub_gateway(script: dict, ledger: CostLedger | None = None, **kwargs) -> Gateway:
    provider = ScriptedStubProvider(script=script, on_missing=kwargs.pop("on_missing", "error"))
    return Gateway(provider, ledger=ledger, sleep=lambda _: None, **kwargs)


class FlakyProvider:
    """Wraps a provider and fails the first `failures` generate() calls with TransportError."""

    def __init__(self, inner: ChatProvider, failures: int):
        self.inner = inner
        self.failures = failures
        self.calls = 0
        self.provider_id = f"flaky-{inner.provider_id}"

    def generate(self, request: ChatRequest) -> ProviderReply:
        self.calls += 1
        if self.calls <= self.failures:
            raise TransportError(f"injected failure {self.calls}/{self.failures}")
        return self.inner.generate(request)


def write_dense_cache(path: Path, entries: dict[str, dict[str, np.ndarray]]) -> None:
    """Write {provider id: {text: vector}} in the embedding cache layout that came before
    the nonzero bitmap: sorted texts and zlib-compressed dense float64 rows, no dimension."""
    payload = {}
    for pid, vectors in entries.items():
        texts = sorted(vectors)
        rows = np.array([vectors[text] for text in texts], dtype="<f8")
        payload[pid] = {"texts": texts, "vectors": base64.b64encode(zlib.compress(rows.tobytes(), 1)).decode("ascii")}
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
