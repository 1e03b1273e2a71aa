"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything here runs offline against the scripted stub provider and the
deterministic reference embedder; the live smoke test is opt-in through
environment variables and excluded from normal runs.
"""

from __future__ import annotations

import json
import os
import time
from random import Random

import pytest

from kgqa import cli
from kgqa.answering import parse_final_answers
from kgqa.embedding import embed_reference, similarity
from kgqa.enrichment import parse_feature_output, parse_structural_output
from kgqa.evaluation import ConstantScorer, graph_quality, hits_at_1, prf1, redundancy_score, relevance_score
from kgqa.fixtures import build_mini_dataset, write_fixture
from kgqa.gateway import CostLedger, PriceTable, cost_report, estimate_tokens
from kgqa.graph import Triple, load_graph, textualize_triple
from kgqa.pipeline import PipelineContext, RunConfig, run_all, sweep_k
from kgqa.pruning import CHANNELS, render_masked, score_graph, select_top_k
from kgqa.queries import parse_decomposition_tree

from helpers import (
    VANILLA,
    WORDS,
    answer_coverage,
    channel_mrr,
    random_graph,
    random_queries,
    rank_of_triple,
    serialize_decomposition,
)
from sample_outputs import (
    FEATURE_EXAMPLE,
    FEATURE_EXAMPLE_TRIPLES,
    STRUCTURAL_EXAMPLE,
    STRUCTURAL_EXAMPLE_TRIPLES,
)
from test_pruning import SITUATION_1, SITUATION_2, oracle_scores


class criterion:
    """Context manager printing one pass/fail line per acceptance criterion."""

    def __init__(self, number: int, name: str):
        self.number = number
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\nACCEPTANCE {self.number} ({self.name}): {status}")
        return False


class TestCriterion1PipelineFixture:
    def test_full_run_and_ablation_call_counts(self, tmp_path, capsys):
        with criterion(1, "pipeline fixture: hits@1 1.0, 4/2/1 calls per question, < 60 s"):
            paths = write_fixture(tmp_path / "fx")
            records, script = build_mini_dataset()
            sizes = [len(r.graph) for r in records]
            assert len(records) == 20
            assert min(sizes) >= 30 and max(sizes) <= 300

            stage_dir = tmp_path / "run-full"
            started = time.monotonic()
            code = cli.main(
                [
                    "run",
                    "--dataset",
                    str(paths["dataset"]),
                    "--config",
                    str(paths["config"]),
                    "--stage-dir",
                    str(stage_dir),
                ]
            )
            elapsed = time.monotonic() - started
            assert code == 0
            assert elapsed < 60.0, f"end-to-end run took {elapsed:.1f}s"
            summary = json.loads(capsys.readouterr().out)
            assert summary["hits1"] == 1.0
            assert summary["n"] == 20
            assert summary["calls"] == 80

            ledger = json.loads((stage_dir / "ledger.json").read_text())
            assert all(entry["calls"] == 4 for entry in ledger["per_question"].values())

            for ablation, expected_calls in (("no-enrich", 40), ("no-prune-no-enrich", 20)):
                config = RunConfig(llm={"kind": "stub", "script": script}, ablation=ablation)
                report, run_ledger = run_all(config, records, tmp_path / f"run-{ablation}")
                assert run_ledger.total_calls() == expected_calls, ablation
                assert report.hits1 == 1.0


class TestCriterion2PruningOracle:
    def test_scores_and_order_match_bruteforce(self, ref):
        with criterion(2, "pruning equals brute-force oracle on 100 random graphs"):
            rng = Random(1234)
            for trial in range(100):
                g = random_graph(rng, rng.randint(1, 500))
                queries = random_queries(rng, rng.randint(1, 5))
                k = rng.randint(1, len(g) + 5)

                scored = score_graph(g, queries, ref)
                pruned = select_top_k(scored, k)

                oracle = []
                for t in g:
                    per_channel = []
                    for channel in CHANNELS:
                        text = render_masked(t, channel)
                        text_vec = embed_reference(text)
                        acc = 0.0
                        for q in queries:
                            acc += similarity(embed_reference(q), text_vec)
                        per_channel.append(acc)
                    oracle.append((t.index, per_channel, sum(per_channel)))
                oracle_order = sorted(oracle, key=lambda item: (-item[2], item[0]))[:k]

                assert [st.triple.index for st in pruned.kept] == [item[0] for item in oracle_order]
                for st, (_, channels, total) in zip(pruned.kept, oracle_order):
                    assert st.total_score == pytest.approx(total, abs=1e-9)
                    for got, expected in zip(st.channel_scores, channels):
                        assert got == pytest.approx(expected, abs=1e-9)


class TestCriterion3MaskedChannelFixtures:
    @pytest.mark.parametrize("fixture", [SITUATION_1, SITUATION_2], ids=["situation1", "situation2"])
    def test_combined_beats_vanilla_rank(self, fixture, ref):
        with criterion(3, "combined three-channel ranking beats vanilla on both fixtures"):
            g = load_graph(fixture["rows"])
            triples = list(g)
            question_vec = embed_reference(fixture["queries"][0])
            vanilla_totals = [similarity(question_vec, embed_reference(textualize_triple(t))) for t in triples]
            combined_totals = [total for _, total in oracle_scores(triples, fixture["queries"])]
            vanilla_rank = rank_of_triple(vanilla_totals, triples, fixture["answer_index"])
            combined_rank = rank_of_triple(combined_totals, triples, fixture["answer_index"])
            assert combined_rank <= vanilla_rank - 1, (vanilla_rank, combined_rank)

            answers = {fixture["answer_index"]}
            assert channel_mrr(g, fixture["queries"], answers, CHANNELS, ref) > channel_mrr(
                g, fixture["queries"], answers, VANILLA, ref
            )


class TestCriterion4CoverageMonotonicity:
    def test_non_decreasing_per_question(self, tmp_path, mini_dataset):
        with criterion(4, "coverage non-decreasing over k on every fixture question"):
            records, script = mini_dataset
            ks = (10, 50, 100, 300)
            config = RunConfig(llm={"kind": "stub", "script": script})
            ctx = PipelineContext(config, tmp_path / "stage", records)
            for record in records:
                g = load_graph(record.graph)
                scored = score_graph(g, [record.question], ctx.embedder, ctx.cache)
                kept_sets = []
                coverages = []
                for k in ks:
                    pruned = select_top_k(scored, k)
                    kept_sets.append({st.triple.index for st in pruned.kept})
                    coverages.append(answer_coverage(pruned, record.answers))
                for smaller, larger in zip(kept_sets, kept_sets[1:]):
                    assert smaller <= larger
                for lo, hi in zip(coverages, coverages[1:]):
                    assert hi >= lo
            rows = sweep_k(ctx, list(ks), tmp_path / "sweep.csv")
            aggregate = [row["coverage"] for row in rows]
            assert aggregate == sorted(aggregate)


class TestCriterion5MetricInvariants:
    def test_unit_interval_singletons_duplicates_permutation(self, ref):
        with criterion(5, "metric invariants over 200 random graphs"):
            rng = Random(4321)
            scorer = ConstantScorer(0.7)
            for trial in range(200):
                g = random_graph(rng, rng.randint(2, 40))
                triples = list(g)
                question = " ".join(rng.choice(WORDS) for _ in range(4))

                report = graph_quality(question, triples, ref, scorer)
                assert 0.0 <= report.relevance.mean <= 1.0
                assert 0.0 <= report.semantic_richness.mean <= 1.0
                assert 0.0 <= report.redundancy.mean <= 1.0

                shuffled = list(triples)
                rng.shuffle(shuffled)
                assert relevance_score(question, shuffled, ref).mean == pytest.approx(
                    report.relevance.mean, abs=1e-9
                )
                assert redundancy_score(shuffled, ref).mean == pytest.approx(
                    report.redundancy.mean, abs=1e-9
                )

                singleton = [
                    Triple(f"s{i}", f"{rng.choice(WORDS)}_{i}", f"o{i}", index=i)
                    for i in range(rng.randint(1, 10))
                ]
                assert redundancy_score(singleton, ref).mean == 0.0

                group_size = rng.randint(2, 6)
                group = [
                    Triple("hub", f"{rng.choice(WORDS)}_{rng.choice(WORDS)}_{i}", "spoke", index=i)
                    for i in range(group_size)
                ]
                before = redundancy_score(group, ref).mean
                duplicated = group[rng.randrange(group_size)]
                group.append(
                    Triple("hub", duplicated.relation, "spoke", index=group_size)
                )
                after = redundancy_score(group, ref).mean
                assert after >= before - 1e-12


class TestCriterion6GrammarRoundTrips:
    def test_tree_round_trip_and_constrained_parsers(self):
        with criterion(6, "grammar round-trips and verbatim example acceptance"):
            rng = Random(77)
            for _ in range(100):
                lines = [f"root question {rng.randrange(1000)}"]
                depth = 0
                for i in range(rng.randint(1, 30)):
                    depth = max(1, min(5, depth + rng.choice([-2, -1, 0, 1, 1])))
                    lines.append("-" * depth + f"sub question {i} {rng.randrange(1000)}")
                raw = "\n".join(lines)
                assert serialize_decomposition(parse_decomposition_tree(raw)) == raw

            structural = parse_structural_output(STRUCTURAL_EXAMPLE)
            got = [(*t.triple, t.provenance.value) for t in structural.triples]
            assert got == STRUCTURAL_EXAMPLE_TRIPLES
            assert structural.skipped == 0

            feature = parse_feature_output(FEATURE_EXAMPLE)
            assert [t.triple for t in feature.triples] == FEATURE_EXAMPLE_TRIPLES

            rejected = parse_feature_output("{result}\n(X, made_up_relation, Y)\n(ok, Hypernym_isA, Z)\n{/result}")
            assert rejected.rejected > 0
            assert len(rejected.triples) == 1


class TestCriterion7EvaluationOracle:
    def test_prf1_oracle_and_braced_answer(self):
        with criterion(7, "prf1 matches brute-force oracle; braced answer scores a hit"):
            from test_evaluation import oracle_prf1

            rng = Random(2024)
            for _ in range(1000):
                pred = [rng.choice(WORDS) + str(rng.randrange(6)) for _ in range(rng.randint(0, 10))]
                gold = [rng.choice(WORDS) + str(rng.randrange(6)) for _ in range(rng.randint(1, 10))]
                got = prf1(pred, gold)
                precision, recall, f1, exact = oracle_prf1(pred, gold)
                assert got.precision == precision
                assert got.recall == recall
                assert got.f1 == f1
                assert got.exact == exact

            answers = parse_final_answers("The answer is {Washington, D.C.}")
            assert hits_at_1(answers, ["Washington, D.C."]) == 1


class TestCriterion8CostAccounting:
    TOKEN_TABLE = [
        ("", 0),
        ("a", 1),
        ("ab", 1),
        ("abc", 1),
        ("abcd", 1),
        ("abcde", 2),
        ("abcdefgh", 2),
        ("abcdefghi", 3),
        ("hello world", 3),
        ("hello, world!", 4),
        ("é", 1),
        ("ééé", 2),
        ("日本語", 3),
        ("ab 日本", 3),
        ("1234567890", 3),
        ("x" * 16, 4),
        ("x" * 17, 5),
        ("naïve", 2),
        ("colón", 2),
        ("tab\tsep", 2),
    ]

    def test_estimator_and_report_and_concurrent_conservation(self, tmp_path, mini_dataset):
        with criterion(8, "token estimator exact; ledger conserved under 8-way concurrency"):
            assert len(self.TOKEN_TABLE) == 20
            for text, expected in self.TOKEN_TABLE:
                assert estimate_tokens(text) == expected, text

            ledger = CostLedger()
            ledger.record_call("q1", 1000, 0)
            ledger.record_call("q2", 250, 250)
            prices = PriceTable(input_per_token=1.5e-7, output_per_token=6e-7)
            report = cost_report(ledger, prices)
            assert report.per_question["q1"]["cost"] == 1000 * 1.5e-7
            assert report.per_question["q2"]["cost"] == 250 * 1.5e-7 + 250 * 6e-7
            assert report.total_cost == (1000 * 1.5e-7) + (250 * 1.5e-7 + 250 * 6e-7)
            assert report.mean_calls == 1.0
            assert report.total_tokens == 1500

            records, script = mini_dataset
            sequential = RunConfig(llm={"kind": "stub", "script": script}, workers=1)
            concurrent = RunConfig(llm={"kind": "stub", "script": script}, workers=8)
            _, ledger_seq = run_all(sequential, records, tmp_path / "seq")
            _, ledger_conc = run_all(concurrent, records, tmp_path / "conc")
            assert ledger_conc.to_dict() == ledger_seq.to_dict()
            totals = ledger_conc.totals()
            per_question = ledger_conc.per_question()
            assert totals.calls == sum(u.calls for u in per_question.values())
            assert totals.prompt_tokens == sum(u.prompt_tokens for u in per_question.values())
            assert totals.completion_tokens == sum(u.completion_tokens for u in per_question.values())


LIVE_MODEL = os.environ.get("KGQA_LIVE_MODEL")
LIVE_KEY_ENV = os.environ.get("KGQA_LIVE_API_KEY_ENV", "OPENAI_API_KEY")


@pytest.mark.live
@pytest.mark.skipif(
    not (LIVE_MODEL and os.environ.get(LIVE_KEY_ENV)),
    reason="live smoke needs KGQA_LIVE_MODEL and an API key in the configured env var",
)
class TestCriterion9LiveSmoke:
    def test_five_question_smoke(self, tmp_path):
        with criterion(9, "live provider smoke run"):
            records, _ = build_mini_dataset(n_questions=5, max_triples=60)
            config = RunConfig(
                llm={
                    "kind": "remote",
                    "model": LIVE_MODEL,
                    "api_key_env": LIVE_KEY_ENV,
                    **(
                        {"endpoint": os.environ["KGQA_LIVE_ENDPOINT"]}
                        if os.environ.get("KGQA_LIVE_ENDPOINT")
                        else {}
                    ),
                },
            )
            report, ledger = run_all(config, records, tmp_path / "live")
            assert report.n == 5
            payload = json.loads((tmp_path / "live" / "report.json").read_text())
            assert set(payload) >= {"hits1", "f1", "precision", "recall", "acc", "n", "per_question"}
            assert ledger.total_calls() >= 5
