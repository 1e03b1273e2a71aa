"""Shared generators, independent oracles and retrieval diagnostics used across the test suite."""

from __future__ import annotations

import base64
import json
import operator
import zlib
from functools import reduce
from pathlib import Path
from random import Random

import numpy as np

from kgqa import pruning
from kgqa.answering import normalize_answer
from kgqa.embedding import embed_batch, similarity
from kgqa.gateway import (
    ChatProvider,
    ChatRequest,
    CostLedger,
    Gateway,
    ProviderReply,
    ScriptedStubProvider,
    TransportError,
)
from kgqa.graph import Triple, group_by_endpoints, load_graph, relation_text, textualize_triple
from kgqa.pruning import CHANNELS, rank_rows

VANILLA = "vanilla"

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


def stub_gateway(script: dict, ledger: CostLedger | None = None) -> Gateway:
    return Gateway(ScriptedStubProvider(script=script), ledger=ledger)


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


def relevance_oracle(question: str, triples, provider) -> float:
    """Per-pair reference for `relevance_score`'s total: one `similarity` call per triple, summed in triple order."""
    vectors = embed_batch([question] + [textualize_triple(t) for t in triples], provider)
    return sum(similarity(vectors[0], vec) for vec in vectors[1:])


def redundancy_oracle(triples, provider, mode: str) -> tuple[float, int, int]:
    """Per-pair reference for `redundancy_score`: (total, groups, pairs), with one
    `similarity` call per within-group pair i < j, summed in that order."""
    groups = group_by_endpoints(triples, mode)
    texts = sorted({relation_text(t.relation) for t in triples})
    vec_by_text = dict(zip(texts, embed_batch(texts, provider)))
    total, pairs = 0.0, 0
    for group in groups:
        vectors = [vec_by_text[relation_text(t.relation)] for t in group]
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                total += similarity(vectors[i], vectors[j])
                pairs += 1
    return total, len(groups), pairs


def answer_coverage(pruned: pruning.PrunedGraph, gold_answers, ascii_fold: bool = False) -> float:
    """Fraction of gold answers present as a normalized endpoint of any kept triple."""
    if not gold_answers:
        raise ValueError("gold answer set must be non-empty")
    endpoints = {normalize_answer(e, ascii_fold) for st in pruned.kept for e in (st.triple.subject, st.triple.object)}
    return sum(normalize_answer(answer, ascii_fold) in endpoints for answer in gold_answers) / len(gold_answers)


def rank_of_triple(totals, triples, target: int | set[int]) -> int:
    """1-based rank, in (-total, index) order, of the best-ranked triple whose
    index is `target` or in the set `target`; 0 when a set matches no triple."""
    wanted = target if isinstance(target, set) else {target}
    order = rank_rows(totals, [t.index for t in triples]).tolist()
    rank = next((rank for rank, position in enumerate(order, start=1) if triples[position].index in wanted), 0)
    if not rank and not isinstance(target, set):
        raise ValueError(f"no triple with index {target}")
    return rank


def subset_totals(channel_scores: np.ndarray, subset) -> np.ndarray:
    """Each row's `score_columns` scores on the subset's channels, added with `+` left
    to right in CHANNELS order, so the full subset gives `score_columns`' total bit for bit."""
    return reduce(operator.add, [channel_scores[:, CHANNELS.index(c)] for c in CHANNELS if c in subset])


def channel_scores(triples, queries, provider, cache=None) -> np.ndarray:
    """The triples' (n, 3) `score_columns` channel scores, looked up on the module so a spy sees the call."""
    return pruning.score_columns([tuple(t) for t in triples], queries, provider, cache)[0]


def channel_mrr(g, queries, answer_indices, channels, provider, cache=None) -> float:
    """Reciprocal rank of the best-ranked answer triple under the chosen scoring.

    VANILLA ranks by similarity between the raw question (queries[0]) and the
    unmasked triple text; a channel subset ranks by `subset_totals` over all queries.
    """
    answers = set(answer_indices)
    if not answers:
        raise ValueError("answer triple index set must be non-empty")
    triples = list(g)
    if channels == VANILLA:
        vectors = embed_batch([queries[0]] + [textualize_triple(t) for t in triples], provider, cache)
        totals = [similarity(vectors[0], v) for v in vectors[1:]]
    else:
        totals = subset_totals(channel_scores(triples, queries, provider, cache), channels)
    rank = rank_of_triple(totals, triples, answers)
    return 1.0 / rank if rank else 0.0


def channel_mrr_table(g, queries, answer_indices, provider, cache=None) -> dict[str, float]:
    """Per-question MRR row: vanilla, each single channel, and the combined
    score; the graph is scored once for the four channel rows."""
    answers = set(answer_indices)
    triples = list(g)
    table = {VANILLA: channel_mrr(triples, queries, answers, VANILLA, provider, cache)}
    scores = channel_scores(triples, queries, provider, cache)
    for name, subset in [(c.value, (c,)) for c in CHANNELS] + [("combined", CHANNELS)]:
        rank = rank_of_triple(subset_totals(scores, subset), triples, answers)
        table[name] = 1.0 / rank if rank else 0.0
    return table
