"""The numeric contract of the vectorized prune path (see `kgqa.pruning`).

Reference embeddings are bit-identical to `embed_reference`. Scores match a
per-pair `np.dot` loop to within 1e-12; the kept set and the order may differ
only between triples whose loop totals are that close.
"""

from __future__ import annotations

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgqa import pruning
from kgqa.embedding import ReferenceEmbedder, embed_reference
from kgqa.fixtures import build_mini_dataset
from kgqa.graph import load_graph
from kgqa.pipeline import PipelineContext, RunConfig, run_stage
from kgqa.pruning import CHANNELS, VANILLA, channel_mrr, channel_mrr_table, render_masked, score_graph

TOLERANCE = 1e-12

# One embedder per dimension for the whole module, so later examples hit the
# token -> slot memo that earlier ones filled.
EMBEDDERS = {d: ReferenceEmbedder(d) for d in (1, 7, 256)}

EDGE_TEXTS = (
    "",
    "   ",
    "_",
    "a a a a",
    "repeat Repeat REPEAT repeat",
    "Ünïcode naïve café",
    "ΟΔΥΣΣΕΥΣ ΣΑΣ",
    "日本語 テキスト",
    "ǅemal İstanbul ß",
    "tab\tand\nnewline",
    "location.country.currency_used",
    "[MASK] located in [MASK]",
)

texts_strategy = st.lists(st.one_of(st.sampled_from(EDGE_TEXTS), st.text(max_size=40)), max_size=12)


class TestReferenceEmbeddingBitIdentity:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(d=st.sampled_from(sorted(EMBEDDERS)), texts=texts_strategy)
    def test_embed_many_equals_embed_reference(self, d, texts):
        vectors = EMBEDDERS[d].embed_many(texts)
        assert len(vectors) == len(texts)
        for text, vec in zip(texts, vectors):
            expected = embed_reference(text, d)
            assert vec.dtype == expected.dtype and vec.shape == expected.shape
            assert (vec == expected).all(), text

    @pytest.mark.parametrize("d", sorted(EMBEDDERS))
    def test_edge_texts(self, d):
        for text, vec in zip(EDGE_TEXTS, EMBEDDERS[d].embed_many(EDGE_TEXTS)):
            assert (vec == embed_reference(text, d)).all(), text

    def test_empty_batch(self):
        assert ReferenceEmbedder().embed_many([]) == []


def loop_scores(triples, queries):
    """The per-pair loop: one `np.dot` per (triple, channel, query), summed in query order."""
    query_vecs = [embed_reference(q) for q in queries]
    channels, totals = [], []
    for t in triples:
        per_channel = []
        for channel in CHANNELS:
            vec = embed_reference(render_masked(t, channel))
            acc = 0.0
            for qv in query_vecs:
                acc += float(np.dot(qv, vec))
            per_channel.append(acc)
        channels.append(per_channel)
        totals.append(per_channel[0] + per_channel[1] + per_channel[2])
    return np.array(channels), np.array(totals)


@pytest.fixture(scope="module")
def large_case(tmp_path_factory):
    """Three questions over 1000-2000 triples each, with the flat queries parse produces."""
    records, script = build_mini_dataset(n_questions=3, seed=7, min_triples=1000, max_triples=2000)
    stage_dir = tmp_path_factory.mktemp("parse")
    ctx = PipelineContext(RunConfig(llm={"kind": "stub", "script": script}), stage_dir, records)
    run_stage("parse", ctx)
    parsed = {}
    for line in (stage_dir / "parsed.jsonl").read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        parsed[row["id"]] = row["flat"]
    cases = [(load_graph(r.graph), parsed[r.id] or [r.question]) for r in records]
    assert all(1000 <= len(g) <= 2000 for g, _ in cases)
    return cases


class TestScoreGraphAgainstLoop:
    def test_scores_within_tolerance(self, large_case):
        for g, queries in large_case:
            scored = score_graph(g, queries, ReferenceEmbedder())
            channels, totals = loop_scores(list(g), queries)
            got_channels = np.array([st.channel_scores for st in scored])
            got_totals = np.array([st.total_score for st in scored])
            assert np.abs(got_channels - channels).max() <= TOLERANCE
            assert np.abs(got_totals - totals).max() <= TOLERANCE

    @pytest.mark.parametrize("k", [10, 100, 300])
    def test_kept_set_and_order(self, large_case, k):
        for g, queries in large_case:
            triples = list(g)
            kept = pruning.select_top_k(score_graph(g, queries, ReferenceEmbedder()), k).kept
            _, totals = loop_scores(triples, queries)
            loop_order = sorted(range(len(triples)), key=lambda i: (-totals[i], triples[i].index))
            if k < len(triples) and totals[loop_order[k - 1]] - totals[loop_order[k]] > TOLERANCE:
                assert {st.triple.index for st in kept} == set(loop_order[:k])
            # Any two kept triples in the other order than the loop's have loop
            # totals within the tolerance: each total is at most the smallest
            # total ranked before it plus the tolerance.
            in_order = totals[[st.triple.index for st in kept]]
            running_min = np.minimum.accumulate(in_order)
            assert (in_order[1:] - running_min[:-1] <= TOLERANCE).all()


class TestChannelMrrTable:
    def test_combined_ranks_by_the_kept_total(self, large_case):
        for g, queries in large_case:
            scored = score_graph(g, queries, ReferenceEmbedder())
            assert pruning._subset_totals(scored, CHANNELS) == [st.total_score for st in scored]

    def test_equals_separate_calls_and_scores_once(self, large_case):
        ref = ReferenceEmbedder()
        for g, queries in large_case[:2]:
            answers = {g[5].index, g[len(g) // 2].index}
            expected = {VANILLA: channel_mrr(g, queries, answers, VANILLA, ref)}
            for channel in CHANNELS:
                expected[channel.value] = channel_mrr(g, queries, answers, (channel,), ref)
            expected["combined"] = channel_mrr(g, queries, answers, CHANNELS, ref)
            with mock.patch.object(pruning, "score_graph", wraps=pruning.score_graph) as spy:
                table = channel_mrr_table(g, queries, answers, ref)
            assert spy.call_count == 1
            assert table == expected
