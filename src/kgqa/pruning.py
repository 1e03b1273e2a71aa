"""Focus-aware multi-channel triple pruning.

Every triple is rendered three ways, masking the head entity, the tail
entity, or both with a literal "[MASK]" token. Each masked form is scored
against every query in the flattened decomposition by embedding dot product;
a triple's total is the sum over the three channels. The top-K triples by
total form the pruned graph; `rank_rows` is the one ranking rule (descending
total, ties by ascending index).

Scoring is blocked matrix code over a graph's (s, r, o) string keys
(`score_columns`, which the prune stage and `sweep_k` call). `score_graph`
and `select_top_k` are Triple adapters kept because benchmarks/spans.py wraps
them by name; the channel diagnostics live in tests/helpers.py. Each
distinct masked text is embedded once into one matrix, whose `BLOCK_ROWS`-row
slices (views, not copies) each take one matrix-vector product per query,
added in query order; a triple's total is its head, tail and both-masked
channel scores added in that order.

Numeric contract:

- Reference embedding vectors are bit-identical to `embed_reference`.
- Scores may differ in the last bit from a per-pair `np.dot` loop, because a
  BLAS matrix-vector product does not sum in the order of a dot product. So
  the top-K order, and the kept set at its edge, may differ from the loop's
  only between triples whose totals are that close. Equal masked texts
  always get equal scores.
- Artifacts are byte-identical across reruns and worker counts on a given
  platform (CPU and BLAS build): the blocks depend only on the graph.
- The brute-force oracle of the acceptance tests (exact order, scores within
  1e-9, on random graphs) passes unchanged; tests/test_numeric_contract.py
  checks the tolerances above on 1000-2000-triple graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .embedding import EmbeddingCache, EmbeddingProvider, embed_batch
from .graph import Triple, TripleLike, relation_text

MASK_TOKEN = "[MASK]"


class MaskChannel(Enum):
    HEAD_MASKED = "head_masked"
    TAIL_MASKED = "tail_masked"
    BOTH_MASKED = "both_masked"


CHANNELS: tuple[MaskChannel, ...] = (
    MaskChannel.HEAD_MASKED,
    MaskChannel.TAIL_MASKED,
    MaskChannel.BOTH_MASKED,
)

# Rows per scoring block: 512 triples' worth of masked texts, about 3 MB of
# float64 at the default dimension 256, whatever the size of the graph.
BLOCK_ROWS = 512 * len(CHANNELS)


@dataclass(frozen=True)
class ScoredTriple:
    triple: Triple
    channel_scores: tuple[float, float, float]
    total_score: float


@dataclass(frozen=True)
class PrunedGraph:
    """Top-K triples in descending total score, ties broken by ascending index."""

    kept: tuple[ScoredTriple, ...]
    k: int
    source_size: int


def render_masked(t: Triple, channel: MaskChannel) -> str:
    head = t.subject if channel is MaskChannel.TAIL_MASKED else MASK_TOKEN
    tail = t.object if channel is MaskChannel.HEAD_MASKED else MASK_TOKEN
    return f"{head} {relation_text(t.relation)} {tail}"


def score_columns(
    keys: Sequence[TripleLike],
    queries: Sequence[str],
    provider: EmbeddingProvider,
    cache: EmbeddingCache | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Each (s, r, o) row's channel scores, shape (n, 3) in CHANNELS order, and its total.

    The masked texts are deduped in the order they first occur row by row and
    channel by channel, so the text list, and so the blocks, depend only on
    the graph.
    """
    if not queries:
        raise ValueError("at least one query is required")
    relations = {r: relation_text(r) for r in {r for _, r, _ in keys}}
    both_masked = {r: f"{MASK_TOKEN} {rel} {MASK_TOKEN}" for r, rel in relations.items()}  # built once per relation, not per row
    texts: list[str] = []  # each row's masked texts in CHANNELS order
    for s, r, o in keys:
        rel = relations[r]
        texts += (f"{MASK_TOKEN} {rel} {o}", f"{s} {rel} {MASK_TOKEN}", both_masked[r])
    row_of = {text: row for row, text in enumerate(dict.fromkeys(texts))}  # distinct masked text -> its row
    rows = np.fromiter(map(row_of.__getitem__, texts), dtype=np.intp, count=len(texts)).reshape(-1, len(CHANNELS))
    batch = [*queries, *row_of]  # the queries, then the distinct masked texts
    del texts, row_of  # not kept alive while embed_batch densifies the graph's vectors
    vectors = embed_batch(batch, provider, cache)
    query_vecs, masked_vecs = vectors[: len(queries)], vectors[len(queries):]
    scores = np.zeros(len(masked_vecs))
    for start in range(0, len(masked_vecs), BLOCK_ROWS):
        for qv in query_vecs:  # each block is a row slice of `masked_vecs`, not a copy
            scores[start : start + BLOCK_ROWS] += masked_vecs[start : start + BLOCK_ROWS] @ qv
    channel_scores = scores[rows]
    return channel_scores, channel_scores[:, 0] + channel_scores[:, 1] + channel_scores[:, 2]


def score_graph(
    g: Sequence[Triple],
    queries: Sequence[str],
    provider: EmbeddingProvider,
    cache: EmbeddingCache | None = None,
) -> list[ScoredTriple]:
    """Score every triple against every query across the three mask channels."""
    triples = list(g)
    channel_scores, totals = score_columns(triples, queries, provider, cache)
    return [
        ScoredTriple(triple=t, channel_scores=tuple(cs), total_score=total)
        for t, cs, total in zip(triples, channel_scores.tolist(), totals.tolist())
    ]


def rank_rows(totals: Sequence[float], indices: Sequence[int] | None = None) -> np.ndarray:
    """Row positions by descending total, ties by ascending index (a row's
    position when `indices` is None). `np.lexsort` is a stable sort."""
    negated = -np.asarray(totals, dtype=float)
    return np.lexsort((negated,) if indices is None else (np.asarray(indices), negated))


def select_top_k(scored: Sequence[ScoredTriple], k: int) -> PrunedGraph:
    if k < 1:
        raise ValueError("k must be >= 1")
    order = rank_rows([st.total_score for st in scored], [st.triple.index for st in scored])
    return PrunedGraph(kept=tuple(scored[i] for i in order[:k].tolist()), k=k, source_size=len(scored))
