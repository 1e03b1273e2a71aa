from __future__ import annotations

from random import Random

import pytest

from kgqa.embedding import embed_reference, similarity
from kgqa.embedding import ReferenceEmbedder
from kgqa.graph import EntityRef, Relation, Triple, intern_graph, load_graph, textualize_triple
from kgqa.pruning import (
    CHANNELS,
    MaskChannel,
    PrunedGraph,
    ScoredTriple,
    render_masked,
    score_columns,
    score_graph,
    select_top_k,
)

from helpers import (
    VANILLA,
    answer_coverage,
    channel_mrr,
    channel_mrr_table,
    random_graph,
    random_queries,
    rank_of_triple,
)


def triple(s, r, o, index=0):
    return Triple(EntityRef(s), Relation(r), EntityRef(o), index=index)


def oracle_scores(triples, queries):
    """Brute-force channel sums computed directly from the reference embedder."""
    out = []
    for t in triples:
        per_channel = []
        for channel in CHANNELS:
            text = render_masked(t, channel)
            per_channel.append(
                sum(similarity(embed_reference(q), embed_reference(text)) for q in queries)
            )
        out.append((per_channel, sum(per_channel)))
    return out


def scored_stub(values):
    """ScoredTriples with the given totals, indexed by position."""
    return [
        ScoredTriple(triple("s", "r", f"o{i}", index=i), (value, 0.0, 0.0), value)
        for i, value in enumerate(values)
    ]


class TestRenderMasked:
    def test_head(self):
        assert render_masked(triple("Beijing", "located_in", "China"), MaskChannel.HEAD_MASKED) == "[MASK] located in China"

    def test_tail(self):
        assert render_masked(triple("Beijing", "located_in", "China"), MaskChannel.TAIL_MASKED) == "Beijing located in [MASK]"

    def test_both(self):
        assert render_masked(triple("Beijing", "located_in", "China"), MaskChannel.BOTH_MASKED) == "[MASK] located in [MASK]"


class TestScoreGraph:
    def test_matching_triple_outranks_distractor(self, ref):
        g = load_graph([["Paris", "capital_of", "France"], ["Berlin", "capital_of", "Germany"]])
        scored = score_graph(g, ["capital of France"], ref)
        oracle = oracle_scores(list(g), ["capital of France"])
        for st, (channels, total) in zip(scored, oracle):
            assert st.total_score == pytest.approx(total, abs=1e-9)
        assert scored[0].total_score > scored[1].total_score

    def test_empty_query_contributes_zero(self, ref):
        g = load_graph([["a", "r", "b"], ["c", "s", "d"]])
        base = score_graph(g, ["a r"], ref)
        with_empty = score_graph(g, ["a r", ""], ref)
        for st0, st1 in zip(base, with_empty):
            assert st1.total_score == pytest.approx(st0.total_score, abs=1e-12)

    def test_nine_term_hand_sum(self, ref):
        g = load_graph([["alpha", "binds_to", "gamma"]])
        queries = ["alpha binds", "gamma", "unrelated words here"]
        scored = score_graph(g, queries, ref)
        expected = 0.0
        for channel in CHANNELS:
            text = render_masked(g[0], channel)
            for q in queries:
                expected += similarity(embed_reference(q), embed_reference(text))
        assert scored[0].total_score == pytest.approx(expected, abs=1e-9)
        assert scored[0].total_score == pytest.approx(sum(scored[0].channel_scores), abs=1e-12)

    def test_requires_queries(self, ref):
        with pytest.raises(ValueError):
            score_graph(load_graph([["a", "r", "b"]]), [], ref)

    def test_permutation_invariance_over_queries(self, ref):
        rng = Random(77)
        g = random_graph(rng, 40)
        queries = random_queries(rng, 5)
        shuffled = list(queries)
        rng.shuffle(shuffled)
        a = score_graph(g, queries, ref)
        b = score_graph(g, shuffled, ref)
        for st0, st1 in zip(a, b):
            assert st1.total_score == pytest.approx(st0.total_score, abs=1e-9)


# Different keys that render the same masked text: separators that relation_text
# folds, word splits across relation and entity, an entity spelled like the mask,
# a duplicate record, and a relation with surrounding spaces.
COLLISION_RECORDS = [
    ["x", "located.in", "y"],
    ["x", "located_in", "y"],
    ["x", "a b", "c"],
    ["x", "a", "b c"],
    ["[MASK]", "r", "z"],
    ["w", " r ", "[MASK]"],
    ["[MASK]", "r", "z"],
    ["q", "r", "z"],
]


class CountingEmbedder(ReferenceEmbedder):
    def __init__(self):
        super().__init__()
        self.seen: list[str] = []

    def embed_many(self, texts):
        self.seen += texts
        return super().embed_many(texts)


class TestScoreColumns:
    QUERIES = ["where is x", "a b c", "where is x"]

    def test_equal_masked_texts_get_equal_scores(self, ref):
        g = load_graph(COLLISION_RECORDS)
        channel_scores, totals = score_columns(intern_graph(COLLISION_RECORDS), self.QUERIES, ref)
        score_of: dict[str, float] = {}
        for t, scores in zip(g, channel_scores.tolist()):
            for channel, score in zip(CHANNELS, scores):
                assert score_of.setdefault(render_masked(t, channel), score) == score
        assert len(score_of) < len(g) * len(CHANNELS)
        scored = score_graph(g, self.QUERIES, ref)
        assert [st.channel_scores for st in scored] == [tuple(cs) for cs in channel_scores.tolist()]
        assert [st.total_score for st in scored] == totals.tolist()

    def test_each_distinct_text_embedded_once_in_first_occurrence_order(self):
        g = load_graph(COLLISION_RECORDS)
        embedder = CountingEmbedder()
        score_columns(intern_graph(COLLISION_RECORDS), self.QUERIES, embedder)
        masked = [render_masked(t, channel) for t in g for channel in CHANNELS]
        assert embedder.seen == list(dict.fromkeys(self.QUERIES + masked))

    def test_empty_graph(self, ref):
        channel_scores, totals = score_columns(intern_graph([]), ["q"], ref)
        assert channel_scores.shape == (0, len(CHANNELS)) and totals.shape == (0,)


class TestSelectTopK:
    def test_k_larger_than_input_keeps_all_sorted(self):
        pruned = select_top_k(scored_stub([0.2, 0.9, 0.5]), 10)
        assert [st.triple.index for st in pruned.kept] == [1, 2, 0]
        assert pruned.source_size == 3

    def test_tie_broken_by_ascending_index(self):
        scored = scored_stub([0.0, 0.0, 0.5, 0.0, 0.0, 0.5])
        pruned = select_top_k(scored, 1)
        assert pruned.kept[0].triple.index == 2

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            select_top_k(scored_stub([1.0]), 0)

    def test_matches_sort_oracle(self):
        rng = Random(31)
        values = [rng.choice([rng.random(), 0.25]) for _ in range(200)]
        scored = scored_stub(values)
        pruned = select_top_k(scored, 10)
        oracle = sorted(range(len(values)), key=lambda i: (-values[i], i))[:10]
        assert [st.triple.index for st in pruned.kept] == oracle

    def test_scores_non_increasing(self):
        rng = Random(32)
        pruned = select_top_k(scored_stub([rng.random() for _ in range(50)]), 20)
        totals = [st.total_score for st in pruned.kept]
        assert totals == sorted(totals, reverse=True)


class TestAnswerCoverage:
    def _pruned(self, rows):
        g = load_graph(rows)
        return PrunedGraph(
            kept=tuple(ScoredTriple(t, (0.0, 0.0, 0.0), 0.0) for t in g),
            k=len(rows),
            source_size=len(rows),
        )

    def test_half_coverage(self):
        pruned = self._pruned([["a", "r", "Euro"]])
        assert answer_coverage(pruned, ["Euro", "Dollar"]) == 0.5

    def test_full_coverage(self):
        pruned = self._pruned([["a", "r", "Euro"], ["Dollar", "r", "b"]])
        assert answer_coverage(pruned, ["euro", "DOLLAR"]) == 1.0

    def test_empty_gold_rejected(self):
        with pytest.raises(ValueError):
            answer_coverage(self._pruned([["a", "r", "b"]]), [])

    def test_monotone_in_k(self, ref):
        rng = Random(55)
        g = random_graph(rng, 60)
        gold = [g[7].object.id, g[20].subject.id]
        scored = score_graph(g, random_queries(rng, 3), ref)
        coverages = [answer_coverage(select_top_k(scored, k), gold) for k in (5, 10, 30, 60)]
        assert coverages == sorted(coverages)
        assert answer_coverage(select_top_k(scored, len(g)), gold) == 1.0


class TestChannelMrr:
    def test_reciprocal_rank_third(self, ref):
        g = load_graph([
            ["apple", "apple_fruit", "apple"],
            ["apple", "color", "red"],
            ["banana", "weight", "heavy"],
        ])
        mrr = channel_mrr(g, ["apple"], {2}, VANILLA, ref)
        assert mrr == pytest.approx(1 / 3)

    def test_empty_answer_set_rejected(self, ref):
        with pytest.raises(ValueError):
            channel_mrr(load_graph([["a", "r", "b"]]), ["q"], set(), VANILLA, ref)


SITUATION_1 = {
    "question": "who holds the mayor office in riverton",
    "queries": [
        "who holds the mayor office in riverton",
        "who is the chief executive of riverton",
        "what is riverton",
    ],
    "rows": [
        ["riverton", "chief_executive_title", "maria flores"],
        ["riverton", "mayor_office_location", "city hall annex"],
        ["riverton", "office_holds_records", "mayor archive"],
        ["riverton", "located_in", "holds county"],
        ["riverton", "sister_city", "greenfield"],
        ["riverton", "population_count", "twenty thousand"],
    ],
    "answer_index": 0,
}

SITUATION_2 = {
    "question": "what money is used in the land alice rules",
    "queries": [
        "what money is used in the land alice rules",
        "what land does alice rule",
        "who is alice",
        "what money is used there",
    ],
    "rows": [
        ["alice", "rules_over", "freedonia"],
        ["freedonia", "money_in_circulation", "florin"],
        ["alice", "rules_of_the_land_written_by", "scribe guild"],
        ["alice", "used_to_live_in", "the land of mists"],
        ["alice", "born_in", "harbor town"],
        ["alice", "studied_at", "grand academy"],
    ],
    "answer_index": 1,
}


def situation_ranks(fixture, ref):
    """Vanilla and combined ranks of the answer triple, via the brute-force oracle."""
    g = load_graph(fixture["rows"])
    triples = list(g)
    question_vec = embed_reference(fixture["queries"][0])
    vanilla = [similarity(question_vec, embed_reference(textualize_triple(t))) for t in triples]
    combined = [total for _, total in oracle_scores(triples, fixture["queries"])]
    return (
        rank_of_triple(vanilla, triples, fixture["answer_index"]),
        rank_of_triple(combined, triples, fixture["answer_index"]),
    )


class TestMaskedChannelsBeatVanilla:
    @pytest.mark.parametrize("fixture", [SITUATION_1, SITUATION_2], ids=["situation1", "situation2"])
    def test_combined_rank_strictly_better(self, fixture, ref):
        vanilla_rank, combined_rank = situation_ranks(fixture, ref)
        assert combined_rank <= vanilla_rank - 1

    @pytest.mark.parametrize("fixture", [SITUATION_1, SITUATION_2], ids=["situation1", "situation2"])
    def test_combined_mrr_beats_vanilla(self, fixture, ref):
        g = load_graph(fixture["rows"])
        answers = {fixture["answer_index"]}
        mrr_vanilla = channel_mrr(g, fixture["queries"], answers, VANILLA, ref)
        mrr_combined = channel_mrr(g, fixture["queries"], answers, CHANNELS, ref)
        assert mrr_combined > mrr_vanilla

    def test_both_masked_channel_lifts_two_hop_answer(self, ref):
        g = load_graph(SITUATION_2["rows"])
        answers = {SITUATION_2["answer_index"]}
        queries = SITUATION_2["queries"]
        with_both = channel_mrr(g, queries, answers, CHANNELS, ref)
        vanilla = channel_mrr(g, queries, answers, VANILLA, ref)
        assert with_both > vanilla

    def test_mrr_table_rows(self, ref):
        g = load_graph(SITUATION_2["rows"])
        table = channel_mrr_table(g, SITUATION_2["queries"], {SITUATION_2["answer_index"]}, ref)
        assert set(table) == {"vanilla", "head_masked", "tail_masked", "both_masked", "combined"}
        assert table["combined"] > table["vanilla"]
        assert all(0.0 <= v <= 1.0 for v in table.values())
