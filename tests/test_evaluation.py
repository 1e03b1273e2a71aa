from __future__ import annotations

import csv
from random import Random

import numpy as np
import pytest

from kgqa.answering import build_qa_prompt, normalize_answer
from kgqa.embedding import embed_reference, fnv1a_64, similarity
from kgqa.evaluation import (
    ConstantScorer,
    GraphQualityReport,
    MetricValue,
    RedundancyResult,
    build_eval_report,
    export_quality_report,
    graph_quality,
    hits_at_1,
    prf1,
    redundancy_score,
    relevance_score,
    semantic_richness,
)
from kgqa.fixtures import build_mini_dataset
from kgqa.gateway import load_templates
from kgqa.graph import GROUP_MODES, Triple, graph_keys, group_by_endpoints, load_graph, relation_text, textualize_triple

from helpers import WORDS, random_graph, random_phrase, random_records, redundancy_oracle, relevance_oracle


def oracle_prf1(pred, gold):
    """Independent set-intersection oracle (explicit membership loops)."""
    pred_set, gold_set = [], []
    for p in pred:
        n = normalize_answer(p)
        if n and n not in pred_set:
            pred_set.append(n)
    for g in gold:
        n = normalize_answer(g)
        if n and n not in gold_set:
            gold_set.append(n)
    hit = sum(1 for p in pred_set if p in gold_set)
    precision = hit / len(pred_set) if pred_set else 0.0
    recall = hit / len(gold_set) if gold_set else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    exact = int(sorted(pred_set) == sorted(gold_set))
    return precision, recall, f1, exact


class TestHits:
    def test_normalization_match(self):
        assert hits_at_1(["euro"], ["Euro"]) == 1

    def test_empty_prediction(self):
        assert hits_at_1([], ["x"]) == 0

    def test_any_overlap(self):
        assert hits_at_1(["a", "b"], ["c", "b"]) == 1

    def test_empty_gold_rejected(self):
        with pytest.raises(ValueError):
            hits_at_1(["a"], [])

    def test_ascii_fold_enables_unaccented_match(self):
        assert hits_at_1(["colon"], ["colón"]) == 0
        assert hits_at_1(["colon"], ["colón"], ascii_fold=True) == 1
        assert prf1(["colon"], ["colón"], ascii_fold=True).f1 == 1.0


class TestPrf1:
    def test_half_overlap(self):
        scores = prf1(["a", "b"], ["b", "c"])
        assert scores.precision == 0.5
        assert scores.recall == 0.5
        assert scores.f1 == 0.5
        assert scores.exact == 0

    def test_identity(self):
        scores = prf1(["a", "b"], ["b", "a"])
        assert (scores.precision, scores.recall, scores.f1, scores.exact) == (1.0, 1.0, 1.0, 1)

    def test_empty_prediction_convention(self):
        scores = prf1([], ["x"])
        assert (scores.precision, scores.recall, scores.f1) == (0.0, 0.0, 0.0)

    def test_matches_oracle_on_random_sets(self):
        rng = Random(97)
        for _ in range(300):
            pred = [rng.choice(WORDS) for _ in range(rng.randint(0, 8))]
            gold = [rng.choice(WORDS) for _ in range(rng.randint(1, 8))]
            got = prf1(pred, gold)
            expected = oracle_prf1(pred, gold)
            assert (got.precision, got.recall, got.f1, got.exact) == pytest.approx(expected)


class TestEvalReport:
    def test_macro_averaging(self):
        report = build_eval_report(
            {
                "q1": (["right"], ["right"]),
                "q2": (["wrong"], ["other"]),
            }
        )
        assert report.hits1 == 0.5
        assert report.acc == 0.5
        assert report.n == 2
        assert set(report.per_question) == {"q1", "q2"}
        payload = report.to_dict()
        assert set(payload) >= {"hits1", "f1", "precision", "recall", "acc", "n", "per_question", "notes"}

    def test_means_are_per_question_sums_in_id_order(self):
        rows = {"q3": (["a", "b"], ["a"]), "q1": (["a"], ["a", "b", "c"]), "q2": (["x"], ["a"])}
        report = build_eval_report(rows)
        entries = [report.per_question[qid] for qid in ("q1", "q2", "q3")]
        for attr, key in (("hits1", "hit"), ("precision", "precision"), ("recall", "recall"), ("f1", "f1"), ("acc", "exact")):
            assert getattr(report, attr) == sum(e[key] for e in entries) / 3
        assert report.to_dict() == {
            "per_question": report.per_question,
            "hits1": report.hits1,
            "f1": report.f1,
            "precision": report.precision,
            "recall": report.recall,
            "acc": report.acc,
            "n": 3,
            "notes": list(report.notes),
        }


class TestRelevance:
    def test_identity_triple(self, ref):
        t = Triple("a", "r", "b")
        result = relevance_score(textualize_triple(t), [t], ref)
        assert result.mean == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_tokens_zero(self, ref):
        t = Triple("alpha", "beta_rel", "gamma")
        question = "delta epsilon"
        triple_tokens = {"alpha", "beta", "rel", "gamma"}
        question_tokens = {"delta", "epsilon"}
        slots = {tok: fnv1a_64(tok.encode()) % 256 for tok in triple_tokens | question_tokens}
        assert {slots[t_] for t_ in triple_tokens}.isdisjoint({slots[q] for q in question_tokens})
        assert relevance_score(question, [t], ref).mean == 0.0

    def test_duplicate_triple_mean_unchanged_sum_doubled(self, ref):
        t = Triple("amber", "binds", "mesa")
        single = relevance_score("amber mesa", [t], ref)
        double = relevance_score("amber mesa", [t, t], ref)
        assert double.mean == pytest.approx(single.mean, abs=1e-12)
        assert double.total == pytest.approx(2 * single.total, abs=1e-12)

    def test_empty_graph_rejected(self, ref):
        with pytest.raises(ValueError):
            relevance_score("q", [], ref)


class TestSemanticRichness:
    def test_constant_scorer(self):
        triples = [Triple("a", "r", "b"), Triple("c", "s", "d", index=1)]
        assert semantic_richness(triples, ConstantScorer(0.7)).mean == pytest.approx(0.7)

    def test_mixed_scores_average(self):
        scores = {("a", "r", "b"): 0.2, ("c", "s", "d"): 0.8}
        scorer = lambda ts: [scores[tuple(t)] for t in ts]
        triples = [Triple("a", "r", "b"), Triple("c", "s", "d", index=1)]
        assert semantic_richness(triples, scorer).mean == pytest.approx(0.5)

    def test_out_of_range_score_rejected(self):
        for bad in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError, match="outside"):
                semantic_richness([Triple("a", "r", "b")], lambda ts: [bad] * len(ts))

    def test_score_count_mismatch_rejected(self):
        triples = [Triple("a", "r", "b"), Triple("c", "s", "d", index=1)]
        with pytest.raises(ValueError, match="1 scores for 2 triples"):
            semantic_richness(triples, lambda ts: [0.5])

    def test_positive_threshold_filters(self):
        scores = {("a", "r", "b"): 0.2, ("c", "s", "d"): 0.8}
        scorer = lambda ts: [scores[tuple(t)] for t in ts]
        triples = [Triple("a", "r", "b"), Triple("c", "s", "d", index=1)]
        assert semantic_richness(triples, scorer, positive_threshold=0.5).mean == pytest.approx(0.4)

    def test_constant_scorer_validation(self):
        with pytest.raises(ValueError):
            ConstantScorer(1.2)


class TestRedundancy:
    def test_all_singletons_zero(self, ref):
        triples = [Triple("a", "r", "b"), Triple("c", "s", "d", index=1)]
        result = redundancy_score(triples, ref)
        assert result.mean == 0.0
        assert result.pairs == 0

    def test_identical_relations_score_one(self, ref):
        triples = [Triple("a", "r", "b"), Triple("a", "r", "b", index=1)]
        result = redundancy_score(triples, ref)
        assert result.mean == pytest.approx(1.0, abs=1e-9)
        assert result.pairs == 1

    def test_mixed_group_matches_pair_enumeration(self, ref):
        r, s = "located_in", "quartz"
        x = similarity(embed_reference(relation_text(r)), embed_reference(relation_text(s)))
        triples = [Triple("a", r, "b"), Triple("a", r, "b", index=1), Triple("a", s, "b", index=2)]
        result = redundancy_score(triples, ref)
        assert result.pairs == 3
        assert result.mean == pytest.approx((1.0 + x + x) / 3, abs=1e-9)

    def test_head_mode_groups_by_subject(self, ref):
        triples = [Triple("a", "r", "b"), Triple("a", "r", "c", index=1)]
        assert redundancy_score(triples, ref, mode="head").pairs == 1
        assert redundancy_score(triples, ref, mode="head_and_tail").pairs == 0

    def test_permutation_invariance(self, ref):
        rng = Random(13)
        g = random_graph(rng, 40)
        triples = list(g)
        base = redundancy_score(triples, ref).mean
        rng.shuffle(triples)
        assert redundancy_score(triples, ref).mean == pytest.approx(base, abs=1e-9)

    def test_duplicate_insertion_never_decreases_group_mean(self, ref):
        rng = Random(21)
        for _ in range(30):
            group_size = rng.randint(2, 6)
            triples = [
                Triple("hub", f"{rng.choice(WORDS)}_{rng.choice(WORDS)}_{i}", "spoke", index=i)
                for i in range(group_size)
            ]
            before = redundancy_score(triples, ref)
            duplicated = triples[rng.randrange(group_size)]
            triples.append(
                Triple("hub", duplicated.relation, "spoke", index=group_size)
            )
            after = redundancy_score(triples, ref)
            assert after.mean >= before.mean - 1e-12


def clustered_graph(rng: Random, n_triples: int, n_entities: int) -> list[Triple]:
    """Triples over a small entity pool and a small relation pool, so endpoint
    groups have many members and repeat relations."""
    entities, relations = WORDS[:n_entities], WORDS[:6]
    records = [
        [rng.choice(entities), f"{rng.choice(relations)}_{rng.choice(relations)}", rng.choice(entities)]
        for _ in range(n_triples)
    ]
    return list(load_graph(records))


class TestMatchesPairOracle:
    """The matrix forms of relevance and redundancy against the per-pair loops they replaced."""

    @staticmethod
    def assert_matches(question, triples, provider, mode):
        relevance = relevance_score(question, triples, provider)
        assert relevance.total == pytest.approx(relevance_oracle(question, triples, provider), rel=1e-12)
        result = redundancy_score(triples, provider, mode)
        total, groups, pairs = redundancy_oracle(triples, provider, mode)
        assert result.total == pytest.approx(total, rel=1e-12)
        assert (result.groups, result.pairs) == (groups, pairs)

    @pytest.mark.parametrize("mode", GROUP_MODES)
    def test_random_graphs(self, ref, mode):
        rng = Random(f"pair-oracle-{mode}")
        for _ in range(12):
            triples = clustered_graph(rng, rng.randint(1, 150), rng.randint(2, 8))
            self.assert_matches(random_phrase(rng, 4), triples, ref, mode)

    def test_hub_group_in_head_mode(self, ref):
        rng = Random(5)
        hub = [["hub", f"{rng.choice(WORDS[:6])}_{rng.choice(WORDS[:6])}", f"{word}{i}"] for i, word in enumerate(rng.choices(WORDS, k=80))]
        triples = list(load_graph(hub + random_records(rng, 40)))
        assert max(len(group) for group in group_by_endpoints(triples, "head")) == 80
        self.assert_matches("which relations does hub have", triples, ref, "head")


class TestTripleContract:
    """A Triple unpacks like its (s, r, o) key, so every reader of triples gives the
    same result for `load_graph(g)` as for `graph_keys(g)`, on a 1000-2000-triple graph."""

    @pytest.fixture(scope="class")
    def graph(self):
        [record], _ = build_mini_dataset(n_questions=1, min_triples=1000, max_triples=2000)
        triples, keys = load_graph(record.graph), graph_keys(record.graph)
        assert 1000 <= len(keys) <= 2000
        return record.question, triples, keys

    def test_triple_unpacks_to_its_key(self, graph):
        _, triples, keys = graph
        assert [tuple(t) for t in triples] == keys
        assert [(s, r, o) for s, r, o in triples] == keys

    def test_textualize_triple(self, graph):
        _, triples, keys = graph
        assert list(map(textualize_triple, triples)) == list(map(textualize_triple, keys))

    @pytest.mark.parametrize("mode", GROUP_MODES)
    def test_group_by_endpoints(self, graph, mode):
        _, triples, keys = graph
        assert [list(map(tuple, group)) for group in group_by_endpoints(triples, mode)] == group_by_endpoints(keys, mode)

    def test_relevance_score(self, graph, ref):
        question, triples, keys = graph
        assert relevance_score(question, triples, ref) == relevance_score(question, keys, ref)

    @pytest.mark.parametrize("mode", GROUP_MODES)
    def test_redundancy_score(self, graph, ref, mode):
        _, triples, keys = graph
        assert redundancy_score(triples, ref, mode) == redundancy_score(keys, ref, mode)

    def test_graph_quality_with_a_textualizing_scorer(self, graph, ref):
        question, triples, keys = graph
        scorer = lambda ts: [len(textualize_triple(t)) % 10 / 10 for t in ts]
        assert graph_quality(question, triples, ref, scorer) == graph_quality(question, keys, ref, scorer)

    def test_build_qa_prompt(self, graph):
        question, triples, keys = graph
        template = load_templates()["question_answering"]
        assert build_qa_prompt(question, triples, template) == build_qa_prompt(question, keys, template)


class TestGraphQualityBundle:
    def test_means_within_unit_interval(self, ref):
        rng = Random(8)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 40))
            report = graph_quality("what is the amber mesa", list(g), ref, ConstantScorer(0.7))
            assert 0.0 <= report.relevance.mean <= 1.0
            assert 0.0 <= report.semantic_richness.mean <= 1.0
            assert 0.0 <= report.redundancy.mean <= 1.0


class TestExport:
    def _report(self, dataset, variant, embeddings=None, texts=None):
        return GraphQualityReport(
            dataset=dataset,
            variant=variant,
            relevance=MetricValue(0.5, 5.0),
            semantic_richness=MetricValue(0.7, 7.0),
            redundancy=RedundancyResult(0.1, 1.0, 3, 10),
            triples=10,
            embeddings=embeddings,
            texts=texts,
        )

    def test_two_variants_two_rows(self, tmp_path):
        export_quality_report([self._report("d", "vanilla"), self._report("d", "enriched")], tmp_path)
        lines = (tmp_path / "quality.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0] == "dataset,variant,relevance,semanticRichness,redundancy"

    def test_empty_reports_header_only(self, tmp_path):
        export_quality_report([], tmp_path)
        lines = (tmp_path / "quality.csv").read_text().strip().splitlines()
        assert len(lines) == 1

    def test_embeddings_dump_has_one_row_per_text_and_no_distances(self, tmp_path):
        texts = [f"text {i} {WORDS[i]}" for i in range(7)]
        embeddings = np.array([embed_reference(t) for t in texts])
        written = export_quality_report([self._report("d", "v", embeddings, texts)], tmp_path)
        assert written == [tmp_path / "quality.csv", tmp_path / "embeddings_d_v.csv"]
        with (tmp_path / "embeddings_d_v.csv").open(newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["index", "text", "values"]
        assert [(row[0], row[1]) for row in rows] == [(str(i), text) for i, text in enumerate(texts)]
        assert not list(tmp_path.glob("distances_*.csv"))

    def test_unwritable_path_errors(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(OSError):
            export_quality_report([], blocker / "sub")
