from __future__ import annotations

import itertools
import json
import logging
import math
import os
import pathlib
import threading
import time
import unicodedata
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgqa import cli, pipeline
from kgqa.embedding import EmbeddingCache, ReferenceEmbedder, embed_batch
from kgqa.fixtures import build_mini_dataset, write_fixture
from kgqa.gateway import estimate_tokens
from kgqa.graph import Triple, load_graph, relation_text, textualize_triple
from kgqa.pruning import ScoredTriple, score_graph, select_top_k
from kgqa.pipeline import (
    DatasetError,
    PipelineContext,
    RunConfig,
    StageError,
    dataset_record_from_dict,
    load_dataset,
    quality_metrics,
    run_all,
    run_stage,
    sweep_k,
    write_dataset,
)

from helpers import answer_coverage, write_dense_cache

ARTIFACTS = ("parsed.jsonl", "pruned.jsonl", "enriched.jsonl", "answers.jsonl", "report.json", "ledger.json")


@pytest.fixture(scope="module")
def small_fixture():
    records, script = build_mini_dataset(n_questions=3, max_triples=60)
    return records, script


def make_ctx(records, script, stage_dir, **config_kwargs):
    config = RunConfig(llm={"kind": "stub", "script": script}, **config_kwargs)
    return PipelineContext(config, stage_dir, records)


class TestDataset:
    def test_round_trip(self, tmp_path, small_fixture):
        records, _ = small_fixture
        path = write_dataset(records, tmp_path / "d.jsonl")
        loaded = load_dataset(path)
        assert loaded == records

    def test_duplicate_id_rejected(self, tmp_path):
        row = json.dumps({"id": "a", "question": "q", "answers": ["x"], "graph": []})
        path = tmp_path / "d.jsonl"
        path.write_text(row + "\n" + row + "\n")
        with pytest.raises(DatasetError, match="duplicate id"):
            load_dataset(path)

    def test_missing_answers_rejected(self):
        with pytest.raises(ValueError, match="answers"):
            dataset_record_from_dict({"id": "a", "question": "q", "answers": []})

    @pytest.mark.parametrize(
        "key,value",
        [("answers", "Paris"), ("graph", ["abc"]), ("question", None), ("topic_entities", "Paris"), ("graph", "abc"),
         ("graph", ""), ("graph", {}), ("answers", [None]), ("answers", ["x", 1]), ("topic_entities", [None]),
         ("graph", [["a", "r", None]]), ("graph", [["a", {"k": 1}, "b"]]), ("graph", [["a", "r"]]),
         ("graph", [["a", "r", "b", "c"]])],
    )
    def test_wrong_type_rejected_with_line_number(self, tmp_path, key, value):
        rows = [{"id": "a", "question": "q", "answers": ["x"]}, {"id": "b", "question": "q", "answers": ["x"], key: value}]
        path = tmp_path / "d.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        with pytest.raises(DatasetError, match="^line 2: .* must be a (list|string|list of (only|3) strings), not "):
            load_dataset(path)

    def test_empty_graph_allowed(self):
        record = dataset_record_from_dict({"id": "a", "question": "q", "answers": ["x"]})
        assert record.graph == ()


class TestStages:
    def test_prune_after_parse_row_counts(self, tmp_path, small_fixture):
        records, script = small_fixture
        ctx = make_ctx(records, script, tmp_path / "stage")
        parse_artifact = run_stage("parse", ctx)
        assert parse_artifact.processed == 3
        prune_artifact = run_stage("prune", ctx)
        lines = prune_artifact.path.read_text().strip().splitlines()
        assert len(lines) == 3
        rows = [json.loads(line) for line in lines]
        assert [r["id"] for r in rows] == sorted(r["id"] for r in rows)
        assert all(r["k"] == 300 for r in rows)

    def test_missing_upstream_artifact_errors(self, tmp_path, small_fixture):
        records, script = small_fixture
        ctx = make_ctx(records, script, tmp_path / "stage")
        with pytest.raises(StageError, match="requires parsed"):
            run_stage("prune", ctx)

    def test_resume_reprocesses_only_deleted_marker(self, tmp_path, small_fixture):
        records, script = small_fixture
        ctx = make_ctx(records, script, tmp_path / "stage")
        assert run_stage("parse", ctx).processed == 3
        assert run_stage("parse", ctx).processed == 0
        marker = tmp_path / "stage" / "rows" / "parse" / f"{records[1].id}.json"
        marker.unlink()
        artifact = run_stage("parse", ctx)
        assert artifact.processed == 1

    def test_no_resume_reprocesses_all(self, tmp_path, small_fixture):
        records, script = small_fixture
        ctx = make_ctx(records, script, tmp_path / "stage")
        run_stage("parse", ctx)
        assert run_stage("parse", ctx, resume=False).processed == 3

    def test_stage_isolation_on_corrupt_upstream_row(self, tmp_path, small_fixture):
        records, script = small_fixture
        stage_dir = tmp_path / "stage"
        ctx = make_ctx(records, script, stage_dir)
        run_stage("parse", ctx)
        run_stage("prune", ctx)
        pruned_path = stage_dir / "pruned.jsonl"
        lines = pruned_path.read_text().splitlines()
        lines[1] = "{corrupt json"
        pruned_path.write_text("\n".join(lines) + "\n")
        artifact = run_stage("enrich", ctx)
        assert artifact.failed == 1
        assert artifact.processed == 2
        errors = (stage_dir / "errors" / "enrich.jsonl").read_text().splitlines()
        assert len(errors) == 1
        failed_id = json.loads(errors[0])["id"]
        assert failed_id == records[1].id
        enriched_rows = [json.loads(l) for l in artifact.path.read_text().splitlines()]
        assert {r["id"] for r in enriched_rows} == {r.id for r in records} - {failed_id}

    def test_upstream_change_invalidates_downstream_rows(self, tmp_path, small_fixture):
        records, script = small_fixture
        stage_dir = tmp_path / "stage"
        ctx = make_ctx(records, script, stage_dir)
        run_stage("parse", ctx)
        first = run_stage("prune", ctx)
        assert first.processed == 3
        assert run_stage("prune", ctx).processed == 0
        run_stage("parse", ctx, resume=False)  # same content, same hash
        assert run_stage("prune", ctx).processed == 0
        marker = stage_dir / "rows" / "parse" / f"{records[0].id}.json"
        row_line, usage_line = marker.read_text().split("\n")
        row = json.loads(row_line)
        row["flat"] = list(row["flat"]) + ["an extra query"]
        marker.write_text(json.dumps(row) + "\n" + usage_line)
        run_stage("parse", ctx)  # rebuilds parsed.jsonl with changed content
        assert run_stage("prune", ctx).processed == 3

    def test_failed_record_usage_goes_on_its_error_line(self, tmp_path, small_fixture):
        records, script = small_fixture
        failing = records[0].id
        script = {**script, "feature_enrich": {k: v for k, v in script["feature_enrich"].items() if k != failing}}
        _, ledger = run_all(RunConfig(llm={"kind": "stub", "script": script}), records, tmp_path / "stage")
        [error] = [json.loads(l) for l in (tmp_path / "stage" / "errors" / "enrich.jsonl").read_text().splitlines()]
        assert error["id"] == failing
        assert error["usage"]["calls"] == 1  # the structural call made before the feature call failed
        assert error["usage"]["prompt_tokens"] > 0
        assert ledger.usage(failing).calls == 1  # parse only: ledger.json covers the rows, not the failures
        assert json.loads((tmp_path / "stage" / "ledger.json").read_text()) == ledger.to_dict()

    def test_failed_structural_call_error_line_counts_the_feature_call(self, tmp_path, small_fixture):
        records, script = small_fixture
        failing = records[0].id
        script = {**script, "structural_enrich": {k: v for k, v in script["structural_enrich"].items() if k != failing}}
        run_all(RunConfig(llm={"kind": "stub", "script": script}), records, tmp_path / "stage")
        [error] = [json.loads(l) for l in (tmp_path / "stage" / "errors" / "enrich.jsonl").read_text().splitlines()]
        assert error["id"] == failing
        assert error["error"] == f"no scripted response for ('structural_enrich', {failing!r})"
        assert error["usage"]["calls"] == 1  # the feature call, sent alongside the failed structural one

    @staticmethod
    def enrich_and_answer_after(stage_dir, edit):
        """Parse and prune, apply `edit` to the first record's first kept entry, then enrich and answer."""
        records, script = build_mini_dataset(n_questions=3, seed=1)
        ctx = make_ctx(records, script, stage_dir)
        run_stage("parse", ctx)
        pruned_path = run_stage("prune", ctx).path
        rows = [json.loads(line) for line in pruned_path.read_text(encoding="utf-8").splitlines()]
        edit(rows[0]["kept"][0])
        pruned_path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        return rows[0]["id"], run_stage("enrich", ctx), run_stage("answer", ctx)

    def test_padded_kept_relation_enriches_and_answers_as_unpadded(self, tmp_path):
        rows = {}
        for name, edit in (("plain", lambda entry: None), ("padded", lambda entry: entry.update(r=" " + entry["r"]))):
            record_id, enriched, answered = self.enrich_and_answer_after(tmp_path / name, edit)
            assert (enriched.failed, answered.failed) == (0, 0)
            rows[name] = [
                next(line for line in artifact.path.read_text(encoding="utf-8").splitlines() if json.loads(line)["id"] == record_id)
                for artifact in (enriched, answered)
            ]
        assert rows["padded"] == rows["plain"]

    def test_empty_kept_subject_fails_only_its_enrich_record(self, tmp_path):
        record_id, enriched, _ = self.enrich_and_answer_after(tmp_path / "stage", lambda entry: entry.update(s=""))
        assert (enriched.processed, enriched.failed) == (2, 1)
        [error] = [json.loads(l) for l in (tmp_path / "stage" / "errors" / "enrich.jsonl").read_text().splitlines()]
        assert error["id"] == record_id

    def test_unknown_stage(self, tmp_path, small_fixture):
        records, script = small_fixture
        ctx = make_ctx(records, script, tmp_path / "stage")
        with pytest.raises(StageError):
            run_stage("polish", ctx)


class TestRunAll:
    def test_full_plan_report_and_ledger(self, tmp_path, small_fixture):
        records, script = small_fixture
        config = RunConfig(llm={"kind": "stub", "script": script})
        report, ledger = run_all(config, records, tmp_path / "stage")
        assert report.n == 3
        assert report.hits1 == 1.0
        assert ledger.total_calls() == 12
        for name in ("parsed.jsonl", "pruned.jsonl", "enriched.jsonl", "answers.jsonl", "report.json", "ledger.json"):
            assert (tmp_path / "stage" / name).exists()

    @pytest.mark.parametrize(
        "ablation,calls_per_question",
        [("full", 4), ("no-structural", 3), ("no-feature", 3), ("no-enrich", 2), ("no-prune-no-enrich", 1)],
    )
    def test_ablation_call_plans(self, tmp_path, small_fixture, ablation, calls_per_question):
        records, script = small_fixture
        config = RunConfig(llm={"kind": "stub", "script": script}, ablation=ablation)
        report, ledger = run_all(config, records, tmp_path / ablation)
        assert ledger.total_calls() == calls_per_question * len(records)
        assert report.hits1 == 1.0
        for qid, usage in ledger.per_question().items():
            assert usage.calls == calls_per_question, qid

    def test_no_prune_no_enrich_uses_full_graph(self, tmp_path, small_fixture):
        records, script = small_fixture
        config = RunConfig(llm={"kind": "stub", "script": script}, ablation="no-prune-no-enrich")
        run_all(config, records, tmp_path / "stage")
        answers = [json.loads(l) for l in (tmp_path / "stage" / "answers.jsonl").read_text().splitlines()]
        by_id = {r["id"]: r for r in answers}
        for record in records:
            assert by_id[record.id]["used_triples"] == len(load_graph(record.graph))

    def test_leaves_global_logging_unchanged(self, tmp_path, small_fixture):
        records, script = small_fixture
        pkg_logger = logging.getLogger("kgqa")
        before = (list(pkg_logger.handlers), pkg_logger.level)
        config = RunConfig(llm={"kind": "stub", "script": script})
        PipelineContext(config, tmp_path / "ctx", records)
        run_all(config, records, tmp_path / "stage")
        assert (list(pkg_logger.handlers), pkg_logger.level) == before
        assert not (tmp_path / "stage" / "run.log").exists()

    def test_determinism_byte_identical(self, tmp_path, small_fixture):
        records, script = small_fixture

        def run(dirname):
            config = RunConfig(llm={"kind": "stub", "script": script})
            run_all(config, records, tmp_path / dirname)
            return {
                name: (tmp_path / dirname / name).read_bytes()
                for name in ("parsed.jsonl", "pruned.jsonl", "enriched.jsonl", "answers.jsonl", "report.json", "ledger.json")
            }

        assert run("one") == run("two")

    def test_worker_count_does_not_change_artifacts(self, tmp_path, small_fixture):
        records, script = small_fixture
        outputs = {}
        for workers in (1, 4):
            config = RunConfig(llm={"kind": "stub", "script": script}, workers=workers)
            run_all(config, records, tmp_path / f"w{workers}")
            outputs[workers] = (tmp_path / f"w{workers}" / "answers.jsonl").read_bytes()
        assert outputs[1] == outputs[4]

    def test_worker_count_does_not_change_artifacts_on_large_graphs(self, tmp_path):
        records, script = build_mini_dataset(n_questions=4, seed=3, min_triples=1000, max_triples=2000)
        outputs = {}
        for workers in (1, 3):
            config = RunConfig(llm={"kind": "stub", "script": script}, workers=workers)
            run_all(config, records, tmp_path / f"w{workers}")
            outputs[workers] = artifact_bytes(tmp_path / f"w{workers}")
        assert outputs[1] == outputs[3]

    def test_uncapped_payload(self, tmp_path, mini_dataset):
        records, script = mini_dataset
        config = RunConfig(llm={"kind": "stub", "script": script}, payload_cap=None)
        report, _ = run_all(config, records, tmp_path / "stage")
        assert report.n == len(records)
        assert report.hits1 == 1.0
        assert not (tmp_path / "stage" / "errors" / "enrich.jsonl").exists()

    def test_payload_cap_limits_lines(self, tmp_path, small_fixture):
        records, script = small_fixture
        ctx = make_ctx(records, script, tmp_path / "stage", payload_cap=3)
        prompts = {}
        stub = ctx.gateway.provider

        class Recording:
            provider_id = stub.provider_id

            def generate(self, request):
                if request.template == "structural_enrich":
                    prompts[request.question_id] = request.prompt
                return stub.generate(request)

        ctx.gateway.provider = Recording()
        for stage in ("parse", "prune", "enrich"):
            run_stage(stage, ctx)
        rows = (tmp_path / "stage" / "pruned.jsonl").read_text().splitlines()
        pruned = {r["id"]: r["kept"] for r in map(json.loads, rows)}
        assert all(len(kept) > 3 for kept in pruned.values())
        assert sorted(prompts) == sorted(pruned)
        for qid, prompt in prompts.items():
            payload = [f"({e['s']},{e['r']},{e['o']})" for e in pruned[qid][:3]]
            quadruples, paths = prompt.split("### Your Turn\nInput:\n")[-1].split("\n1-hop:\n")
            assert [line.split(")-")[0] + ")" for line in quadruples.splitlines()] == payload
            assert paths.split("\n2-hop:")[0].splitlines() == payload

    def test_embedding_cache_persisted_and_reloaded(self, tmp_path, small_fixture):
        records, script = small_fixture
        cache_dir = tmp_path / "cache"
        config = RunConfig(llm={"kind": "stub", "script": script}, cache_dir=str(cache_dir))
        run_all(config, records, tmp_path / "stage")
        cache_file = cache_dir / "embeddings.json"
        assert cache_file.exists()
        entries = sum(len(packed["texts"]) for packed in json.loads(cache_file.read_text()).values())
        assert entries > 0
        ctx = PipelineContext(config, tmp_path / "stage2", records)
        assert len(ctx.cache) == entries


def wrap_provider(ctx, before_generate):
    """Run `before_generate(request)` ahead of each chat call the context's provider answers."""
    inner = ctx.gateway.provider

    class Wrapped:
        provider_id = inner.provider_id

        def generate(self, request):
            before_generate(request)
            return inner.generate(request)

    ctx.gateway.provider = Wrapped()


def run_plan(ctx):
    for stage in ctx.config.plan():
        run_stage(stage, ctx)
    ctx.save_state()


class TestConcurrentEnrich:
    def test_structural_and_feature_calls_overlap(self, tmp_path, small_fixture):
        records, script = small_fixture
        ctx = make_ctx(records, script, tmp_path / "stage", workers=1)
        both_sent = threading.Barrier(2, timeout=5)

        def meet_the_other_enrich_call(request):
            if request.template in ("structural_enrich", "feature_enrich"):
                both_sent.wait()

        wrap_provider(ctx, meet_the_other_enrich_call)
        run_stage("parse", ctx)
        run_stage("prune", ctx)
        artifact = run_stage("enrich", ctx)
        assert (artifact.processed, artifact.failed) == (len(records), 0)
        assert ctx.gateway.ledger.total_calls() == 3 * len(records)

    def test_in_flight_calls_bounded_by_twice_workers(self, tmp_path, small_fixture):
        records, script = small_fixture
        for workers in (1, 2):
            ctx = make_ctx(records, script, tmp_path / f"w{workers}", workers=workers)
            lock = threading.Lock()
            in_flight = [0]
            peak = [0]

            def slow_call(request):
                with lock:
                    in_flight[0] += 1
                    peak[0] = max(peak[0], in_flight[0])
                time.sleep(0.005)
                with lock:
                    in_flight[0] -= 1

            wrap_provider(ctx, slow_call)
            runner = threading.Thread(target=run_plan, args=(ctx,), daemon=True)
            runner.start()
            runner.join(timeout=60)
            assert not runner.is_alive()
            assert 1 <= peak[0] <= 2 * workers


def pruned_rows(stage_dir):
    return [json.loads(line) for line in (stage_dir / "pruned.jsonl").read_text(encoding="utf-8").splitlines()]


class TestColumnarPrune:
    """The prune stage scores the graph's (s, r, o) keys and builds rows for the kept triples only."""

    @pytest.fixture(scope="class")
    def large_fixture(self):
        return build_mini_dataset(n_questions=3, seed=11, min_triples=1000, max_triples=2000)

    @pytest.mark.parametrize("k", [10, 300, "all"])
    def test_kept_rows_equal_select_top_k(self, tmp_path, large_fixture, k):
        records, script = large_fixture
        top_k = max(len(r.graph) for r in records) if k == "all" else k
        ctx = make_ctx(records, script, tmp_path / "stage", top_k=top_k)
        run_stage("parse", ctx)
        run_stage("prune", ctx)
        parsed = pipeline._read_rows(tmp_path / "stage" / "parsed.jsonl")
        expected = []
        for record in sorted(records, key=lambda r: r.id):
            g = load_graph(record.graph)
            assert 1000 <= len(g) <= 2000
            pruned = select_top_k(score_graph(g, parsed[record.id]["flat"] or [record.question], ctx.embedder), top_k)
            kept = [
                {"s": st.triple.subject, "r": st.triple.relation, "o": st.triple.object,
                 "index": st.triple.index, "scores": list(st.channel_scores), "total": st.total_score}
                for st in pruned.kept
            ]
            expected.append({"id": record.id, "k": pruned.k, "source_size": pruned.source_size, "kept": kept})
        # JSON keeps each float's shortest repr, so equal rows mean bit-equal scores.
        assert pruned_rows(tmp_path / "stage") == expected

    def test_builds_no_triple_per_source_triple(self, tmp_path, large_fixture):
        records, script = large_fixture
        ctx = make_ctx(records, script, tmp_path / "stage")
        run_stage("parse", ctx)
        with mock.patch.object(Triple, "__init__", side_effect=AssertionError("Triple built")), \
                mock.patch.object(ScoredTriple, "__init__", side_effect=AssertionError("ScoredTriple built")):
            artifact = run_stage("prune", ctx)
        assert (artifact.processed, artifact.failed) == (3, 0)

    def test_bad_graph_line_fails_only_its_record(self, tmp_path, small_fixture):
        records, script = small_fixture
        bad = replace(records[1], graph=(records[1].graph[0], ("", "r", "b"), *records[1].graph[1:]))
        ctx = make_ctx([records[0], bad, records[2]], script, tmp_path / "stage")
        run_stage("parse", ctx)
        artifact = run_stage("prune", ctx)
        assert (artifact.processed, artifact.failed) == (2, 1)
        errors = [json.loads(line) for line in (tmp_path / "stage" / "errors" / "prune.jsonl").read_text().splitlines()]
        assert [(e["id"], e["error"]) for e in errors] == [(bad.id, "line 2: empty field in ('', 'r', 'b')")]
        assert [row["id"] for row in pruned_rows(tmp_path / "stage")] == sorted(r.id for r in (records[0], records[2]))


class TestSweepK:
    def test_rows_and_monotonic_coverage(self, tmp_path, small_fixture):
        records, script = small_fixture
        ctx = make_ctx(records, script, tmp_path / "stage")
        out = tmp_path / "sweep.csv"
        rows = sweep_k(ctx, [10, 300], out)
        assert len(rows) == 2
        assert rows[1]["coverage"] >= rows[0]["coverage"]
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,coverage,tokens,cost"
        assert len(lines) == 3

    def test_saturated_k_equals_unpruned_coverage(self, tmp_path, small_fixture):
        records, script = small_fixture
        ctx = make_ctx(records, script, tmp_path / "stage")
        big = max(len(r.graph) for r in records) + 10
        rows = sweep_k(ctx, [big])
        assert rows[0]["coverage"] == 1.0

    def test_token_column_matches_estimator(self, tmp_path, small_fixture):
        records, script = small_fixture
        ctx = make_ctx(records, script, tmp_path / "stage")
        from kgqa.pruning import score_graph, select_top_k

        k = 10
        rows = sweep_k(ctx, [k])
        expected = 0
        for record in records:
            scored = score_graph(load_graph(record.graph), [record.question], ctx.embedder, ctx.cache)
            pruned = select_top_k(scored, k)
            expected += sum(estimate_tokens(textualize_triple(st.triple)) for st in pruned.kept)
        assert rows[0]["tokens"] == expected
        assert rows[0]["cost"] == pytest.approx(expected * ctx.config.price_table().input_per_token)

    def test_empty_ks_rejected(self, tmp_path, small_fixture):
        records, script = small_fixture
        ctx = make_ctx(records, script, tmp_path / "stage")
        with pytest.raises(ValueError):
            sweep_k(ctx, [])

    KS = [1, 10, 10, 300, 5000]

    @pytest.fixture(scope="class")
    def large_fixture(self):
        records, script = build_mini_dataset(n_questions=5, seed=3, min_triples=1000, max_triples=2000)
        # An accent on every other record's gold answers, which the graph spells
        # without one, so coverage depends on `ascii_fold`.
        accent = lambda a: unicodedata.normalize("NFC", a[0] + "\u0301" + a[1:])
        records = [replace(r, answers=tuple(map(accent, r.answers))) if i % 2 else r for i, r in enumerate(records)]
        return records, script

    @staticmethod
    def reference_rows(ctx, ks):
        """sweep_k's rows through the Triple path: score_graph, select_top_k per k, answer_coverage."""
        parsed_path = ctx.stage_dir / "parsed.jsonl"
        parsed = pipeline._read_rows(parsed_path) if parsed_path.exists() else {}
        scored = []
        for record in ctx.dataset:
            queries = list(parsed[record.id]["flat"]) if record.id in parsed else []
            scored.append((score_graph(load_graph(record.graph), queries or [record.question], ctx.embedder), record.answers))
        rows = []
        for k in ks:
            pruned = [(select_top_k(s, k), gold) for s, gold in scored]
            coverages = [answer_coverage(p, gold, ascii_fold=ctx.config.ascii_fold) for p, gold in pruned]
            tokens = sum(estimate_tokens(textualize_triple(st.triple)) for p, _ in pruned for st in p.kept)
            rows.append({"k": k, "coverage": sum(coverages) / len(coverages), "tokens": tokens,
                         "cost": tokens * ctx.config.price_table().input_per_token})
        return rows

    @pytest.mark.parametrize("parsed", [False, True])
    @pytest.mark.parametrize("ascii_fold", [False, True])
    def test_rows_equal_triple_path_reference(self, tmp_path, large_fixture, ascii_fold, parsed):
        records, script = large_fixture
        ctx = make_ctx(records, script, tmp_path / "stage", ascii_fold=ascii_fold)
        if parsed:
            run_stage("parse", ctx)
        assert all(1000 <= len(load_graph(r.graph)) <= 2000 for r in records)
        assert sweep_k(ctx, self.KS) == self.reference_rows(ctx, self.KS)

    def test_ascii_fold_changes_coverage_on_the_fixture(self, tmp_path, large_fixture):
        records, script = large_fixture
        coverage = [sweep_k(make_ctx(records, script, tmp_path / str(fold), ascii_fold=fold), [5000])[0]["coverage"]
                    for fold in (False, True)]
        assert coverage[0] < coverage[1] == 1.0

    def test_builds_no_triple_per_source_triple(self, tmp_path, large_fixture):
        records, script = large_fixture
        ctx = make_ctx(records, script, tmp_path / "stage")
        run_stage("parse", ctx)
        with mock.patch.object(Triple, "__init__", side_effect=AssertionError("Triple built")), \
                mock.patch.object(ScoredTriple, "__init__", side_effect=AssertionError("ScoredTriple built")):
            rows = sweep_k(ctx, self.KS)
        assert [row["k"] for row in rows] == self.KS

    def test_empty_parsed_flat_falls_back_to_question(self, tmp_path, small_fixture):
        records, script = small_fixture
        ctx = make_ctx(records, script, tmp_path / "stage")
        question_only = sweep_k(ctx, [1, 10, 300])
        run_stage("parse", ctx)
        parsed = ctx.stage_dir / "parsed.jsonl"
        rows = [{**json.loads(line), "flat": []} for line in parsed.read_text(encoding="utf-8").splitlines()]
        parsed.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        assert sweep_k(ctx, [1, 10, 300]) == question_only


class TestQualityMetrics:
    def test_variants_after_run(self, tmp_path, small_fixture):
        records, script = small_fixture
        config = RunConfig(llm={"kind": "stub", "script": script})
        run_all(config, records, tmp_path / "stage")
        ctx = PipelineContext(config, tmp_path / "stage", records)
        reports = quality_metrics(ctx, ("vanilla", "pruned", "enriched"), tmp_path / "quality")
        assert [r.variant for r in reports] == ["vanilla", "pruned", "enriched"]
        for report in reports:
            assert 0.0 <= report.relevance.mean <= 1.0
            assert 0.0 <= report.redundancy.mean <= 1.0
        assert (tmp_path / "quality" / "quality.csv").exists()

    def test_dumps_are_embed_batch_over_triple_texts_in_dataset_order(self, tmp_path, small_fixture):
        records, script = small_fixture
        config = RunConfig(llm={"kind": "stub", "script": script})
        run_all(config, records, tmp_path / "stage")
        ctx = PipelineContext(config, tmp_path / "stage", records)
        vanilla, pruned = quality_metrics(ctx, ("vanilla", "pruned"), tmp_path / "quality", with_dumps=True)
        kept = {row["id"]: row["kept"] for row in pruned_rows(tmp_path / "stage")}
        expected = {
            "vanilla": [textualize_triple(t) for r in records for t in load_graph(r.graph)],
            "pruned": [f"{e['s']} {relation_text(e['r'])} {e['o']}" for r in records for e in kept[r.id]],
        }
        for report in (vanilla, pruned):
            assert report.texts == expected[report.variant]
            assert report.embeddings.shape == (report.triples, ctx.embedder.dimension)
            assert np.array_equal(report.embeddings, embed_batch(report.texts, ReferenceEmbedder()))
            lines = (tmp_path / "quality" / f"embeddings_dataset_{report.variant}.csv").read_text(encoding="utf-8").splitlines()
            assert len(lines) == 1 + report.triples
        assert not list((tmp_path / "quality").glob("distances_*.csv"))

    def test_bad_graph_skips_only_its_record(self, tmp_path):
        paths = write_fixture(tmp_path / "fx", n_questions=3, max_triples=40)
        records = load_dataset(paths["dataset"])
        bad = replace(records[1], graph=(*records[1].graph, (records[1].graph[0][0], " ", "somewhere")))
        write_dataset([records[0], bad, records[2]], paths["dataset"])
        stage_dir = tmp_path / "stage"
        common = ["--dataset", str(paths["dataset"]), "--config", str(paths["config"]), "--stage-dir", str(stage_dir)]
        assert cli.main(["run", *common]) == 0
        assert cli.main(["sweep-k", *common, "--ks", "5,20"]) == 0
        assert cli.main(["metrics", *common]) == 0
        log = (stage_dir / "run.log").read_text(encoding="utf-8")
        assert f"sweep-k: record {bad.id} skipped: GraphLoadError: line {len(bad.graph)}: empty field" in log
        assert f"metrics: vanilla variant of record {bad.id} skipped: GraphLoadError: line {len(bad.graph)}: empty field" in log
        script = json.loads(paths["script"].read_text(encoding="utf-8"))
        ctx = make_ctx([records[0], bad, records[2]], script, stage_dir)
        [vanilla] = quality_metrics(ctx, ("vanilla",))
        assert vanilla.triples == len(load_graph(records[0].graph)) + len(load_graph(records[2].graph))

    @staticmethod
    def spoil_row(path, spoil) -> str:
        """Apply `spoil` to the second row of a JSONL artifact, in place; return that row's id."""
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        spoil(rows[1])
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        return rows[1]["id"]

    @pytest.mark.parametrize(
        "spoil, reason",
        [(lambda row: row["kept"][0].update(s=""), "GraphLoadError: line 1: empty field"), (lambda row: row["kept"][0].pop("r"), "KeyError: 'r'")],
        ids=["empty-subject", "no-relation"],
    )
    def test_bad_kept_entry_skips_only_its_record(self, tmp_path, spoil, reason):
        paths = write_fixture(tmp_path / "fx", n_questions=3, max_triples=40)
        stage_dir = tmp_path / "stage"
        common = ["--dataset", str(paths["dataset"]), "--config", str(paths["config"]), "--stage-dir", str(stage_dir)]
        assert cli.main(["run", *common]) == 0
        bad = self.spoil_row(stage_dir / "pruned.jsonl", spoil)
        assert cli.main(["metrics", *common]) == 0
        log = (stage_dir / "run.log").read_text(encoding="utf-8")
        for variant in ("pruned", "enriched"):
            assert f"metrics: {variant} variant of record {bad} skipped: {reason}" in log
        assert f"vanilla variant of record {bad}" not in log
        ctx = PipelineContext(RunConfig.from_file(paths["config"]), stage_dir, load_dataset(paths["dataset"]))
        vanilla, pruned, enriched = quality_metrics(ctx)
        assert vanilla.triples == sum(len(load_graph(r.graph)) for r in ctx.dataset)
        assert pruned.triples == sum(len(row["kept"]) for row in pruned_rows(stage_dir) if row["id"] != bad)
        enriched_rows = map(json.loads, (stage_dir / "enriched.jsonl").read_text(encoding="utf-8").splitlines())
        assert enriched.triples == pruned.triples + sum(len(row["generated"]) for row in enriched_rows if row["id"] != bad)

    def test_parsed_row_without_flat_skips_only_its_sweep_k_record(self, tmp_path):
        paths = write_fixture(tmp_path / "fx", n_questions=3, max_triples=40)
        stage_dir = tmp_path / "stage"
        common = ["--dataset", str(paths["dataset"]), "--config", str(paths["config"]), "--stage-dir", str(stage_dir)]
        assert cli.main(["run", *common]) == 0
        bad = self.spoil_row(stage_dir / "parsed.jsonl", lambda row: row.pop("flat"))
        assert cli.main(["sweep-k", *common, "--ks", "5,20"]) == 0
        assert f"sweep-k: record {bad} skipped: KeyError: 'flat'" in (stage_dir / "run.log").read_text(encoding="utf-8")
        config, records = RunConfig.from_file(paths["config"]), load_dataset(paths["dataset"])
        others = PipelineContext(config, stage_dir, [r for r in records if r.id != bad])
        assert sweep_k(PipelineContext(config, stage_dir, records), [5, 20]) == sweep_k(others, [5, 20])

    @pytest.fixture(scope="class")
    def large_run(self, tmp_path_factory):
        paths = write_fixture(tmp_path_factory.mktemp("large"), n_questions=5, min_triples=1000, max_triples=2000)
        config, records = RunConfig.from_file(paths["config"]), load_dataset(paths["dataset"])
        stage_dir = paths["dataset"].parent / "stage"
        run_all(config, records, stage_dir)
        return config, records, stage_dir

    @pytest.mark.parametrize(
        "mode, redundancy",
        [("head", (0.085180, 0.085055, 0.084344)), ("tail", (0.088413, 0.051632, 0.101531)),
         ("head_and_tail", (0.032571, 0.027310, 0.027310))],
    )
    def test_quality_table_on_large_fixture_is_pinned(self, large_run, tmp_path, mode, redundancy):
        """top_k 300 keeps part of each graph, so the variants differ; only redundancy depends on the mode."""
        config, records, stage_dir = large_run
        quality_metrics(PipelineContext(replace(config, redundancy_mode=mode), stage_dir, records), out_dir=tmp_path)
        relevance_richness = {"vanilla": (0.102912, 0.7), "pruned": (0.245255, 0.7), "enriched": (0.246645, 0.7)}
        expected = ["dataset,variant,relevance,semanticRichness,redundancy"] + [
            f"dataset,{variant},{relevance:.6f},{richness:.6f},{value:.6f}"
            for (variant, (relevance, richness)), value in zip(relevance_richness.items(), redundancy)
        ]
        assert (tmp_path / "quality.csv").read_text(encoding="utf-8").splitlines() == expected

    def test_pruned_variant_requires_artifact(self, tmp_path, small_fixture):
        records, script = small_fixture
        ctx = make_ctx(records, script, tmp_path / "stage")
        with pytest.raises(StageError, match="requires pruned"):
            quality_metrics(ctx, ("pruned",))


class TestConfig:
    def test_defaults_match_protocol(self):
        config = RunConfig()
        assert config.top_k == 300
        assert config.temperature == 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(top_k=0)
        with pytest.raises(ValueError):
            RunConfig(ablation="bogus")
        with pytest.raises(ValueError):
            RunConfig(temperature=-1)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_payload_cap_below_one_rejected(self, cap):
        with pytest.raises(ValueError, match="payload_cap"):
            RunConfig(payload_cap=cap)

    @pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)])
    def test_every_field_has_a_check(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            RunConfig(**{name: object()})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config"):
            RunConfig.from_dict({"not_a_key": 1})

    def test_plan_follows_ablation(self):
        assert RunConfig(ablation="no-enrich").plan() == ("parse", "prune", "answer", "eval")


@pytest.fixture(scope="module")
def resume_case(tmp_path_factory):
    records, script = build_mini_dataset(n_questions=5, max_triples=60)
    config = RunConfig(llm={"kind": "stub", "script": script})
    stage_dir = tmp_path_factory.mktemp("clean")
    run_all(config, records, stage_dir)
    return records, config, artifact_bytes(stage_dir)


def artifact_bytes(stage_dir) -> dict[str, bytes]:
    return {name: (stage_dir / name).read_bytes() for name in ARTIFACTS}


class Abort(BaseException):
    """A crash: per-record isolation catches only Exception, so this skips the
    artifact, the manifest and save_state."""


class TestResume:
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(stage=st.sampled_from(("parse", "prune", "enrich", "answer", "eval")), boundary=st.integers(0, 4))
    def test_interrupted_run_resumes_to_clean_artifacts_and_ledger(self, resume_case, tmp_path_factory, stage, boundary):
        records, config, clean = resume_case
        spec = pipeline.STAGE_TABLE[stage]
        name = "record" if spec.record else "aggregate"
        inner = getattr(spec, name)
        calls = itertools.count()

        def aborting(*args):
            if next(calls) == (boundary if spec.record else 0):
                raise Abort
            return inner(*args)

        stage_dir = tmp_path_factory.mktemp("resume")
        ctx = PipelineContext(config, stage_dir, records)
        with mock.patch.dict(pipeline.STAGE_TABLE, {stage: replace(spec, **{name: aborting})}):
            with pytest.raises(Abort):
                for planned in config.plan():
                    run_stage(planned, ctx)
        run_all(config, records, stage_dir)
        assert artifact_bytes(stage_dir) == clean

    def test_fresh_rerun_ledger_equals_one_clean_run(self, resume_case, tmp_path):
        records, config, clean = resume_case
        run_all(config, records, tmp_path)
        run_all(config, records, tmp_path, resume=False)
        assert artifact_bytes(tmp_path) == clean
        run_all(config, records, tmp_path)
        assert artifact_bytes(tmp_path) == clean


class DiskFull(OSError):
    pass


class TestAtomicWrites:
    @pytest.mark.parametrize("stage", ["parse", "prune", "enrich", "answer"])
    def test_row_write_cut_short_resumes_to_clean_run(self, resume_case, tmp_path, stage, monkeypatch):
        records, config, clean = resume_case
        rows_dir = tmp_path / "rows" / stage
        real_write_text = pathlib.Path.write_text
        writes = itertools.count()

        def cut_short(path, text, *args, **kwargs):
            # The second row write of the stage stops halfway, then fails.
            if path.parent == rows_dir and next(writes) == 1:
                real_write_text(path, text[: len(text) // 2], *args, **kwargs)
                raise DiskFull("no space left on device")
            return real_write_text(path, text, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "write_text", cut_short)
        with pytest.raises(DiskFull):
            run_all(config, records, tmp_path)
        monkeypatch.setattr(pathlib.Path, "write_text", real_write_text)
        run_all(config, records, tmp_path)
        assert artifact_bytes(tmp_path) == clean
        assert not list(tmp_path.rglob("*.tmp"))


def file_state(path: pathlib.Path) -> tuple[bytes, int, int]:
    stat = path.stat()
    return path.read_bytes(), stat.st_mtime_ns, stat.st_ino


def cache_file_entries(path: pathlib.Path) -> dict[tuple[str, str], bytes]:
    """(provider id, text) -> vector bytes of every entry an embeddings.json holds."""
    cache = EmbeddingCache()
    cache.load(path)
    payload = json.loads(path.read_text())
    return {(pid, text): cache.get(pid, text).tobytes() for pid, packed in payload.items() for text in packed["texts"]}


class TestEmbeddingCacheFile:
    def config(self, script, cache_dir):
        return RunConfig(llm={"kind": "stub", "script": script}, cache_dir=str(cache_dir))

    def test_warm_run_leaves_file_untouched(self, tmp_path, small_fixture):
        records, script = small_fixture
        config = self.config(script, tmp_path / "cache")
        run_all(config, records, tmp_path / "cold")
        cache_file = tmp_path / "cache" / "embeddings.json"
        os.utime(cache_file, ns=(10**9, 10**9))
        before = file_state(cache_file)
        run_all(config, records, tmp_path / "warm")
        assert file_state(cache_file) == before

    def test_new_texts_rewrite_the_union(self, tmp_path, small_fixture):
        records, script = small_fixture
        other_records, other_script = build_mini_dataset(n_questions=2, seed=8, max_triples=50)
        run_all(self.config(script, tmp_path / "a"), records, tmp_path / "stage-a")
        run_all(self.config(other_script, tmp_path / "b"), other_records, tmp_path / "stage-b")
        shared = tmp_path / "shared"
        run_all(self.config(script, shared), records, tmp_path / "stage-1")
        run_all(self.config(other_script, shared), other_records, tmp_path / "stage-2")
        union = cache_file_entries(tmp_path / "a" / "embeddings.json") | cache_file_entries(
            tmp_path / "b" / "embeddings.json"
        )
        assert cache_file_entries(shared / "embeddings.json") == union

    def test_deleted_file_is_written_again(self, tmp_path, small_fixture):
        records, script = small_fixture
        config = self.config(script, tmp_path / "cache")
        run_all(config, records, tmp_path / "stage")
        cache_file = tmp_path / "cache" / "embeddings.json"
        saved = cache_file.read_bytes()
        ctx = PipelineContext(config, tmp_path / "stage", records)
        cache_file.unlink()
        ctx.save_state()
        assert cache_file.read_bytes() == saved

    def test_truncated_file_starts_empty_and_is_replaced(self, tmp_path, small_fixture, caplog):
        records, script = small_fixture
        config = self.config(script, tmp_path / "cache")
        run_all(config, records, tmp_path / "stage")
        cache_file = tmp_path / "cache" / "embeddings.json"
        saved = cache_file.read_bytes()
        cache_file.write_bytes(saved[: len(saved) // 2])
        with caplog.at_level(logging.WARNING, logger="kgqa.embedding"):
            ctx = PipelineContext(config, tmp_path / "stage", records)
        assert len(ctx.cache) == 0
        assert "unreadable embedding cache" in caplog.text
        ctx.save_state()
        assert json.loads(cache_file.read_text()) == {}
        run_all(config, records, tmp_path / "stage", resume=False)
        assert cache_file.read_bytes() == saved

    def test_dense_previous_layout_is_migrated_on_first_run(self, tmp_path, small_fixture, caplog):
        records, script = small_fixture
        run_all(self.config(script, tmp_path / "cold-cache"), records, tmp_path / "cold")
        cold_file = tmp_path / "cold-cache" / "embeddings.json"
        entries = {}
        for (pid, text), vector in cache_file_entries(cold_file).items():
            entries.setdefault(pid, {})[text] = np.frombuffer(vector, dtype=np.float64)
        cache_file = tmp_path / "cache" / "embeddings.json"
        cache_file.parent.mkdir()
        write_dense_cache(cache_file, entries)
        config = self.config(script, tmp_path / "cache")

        with caplog.at_level(logging.WARNING, logger="kgqa.embedding"):
            run_all(config, records, tmp_path / "migrated")
        assert ["unreadable embedding cache" in r.getMessage() for r in caplog.records] == [True]
        names = (*ARTIFACTS, "manifest.json")
        assert {name: (tmp_path / "migrated" / name).read_bytes() for name in names} == {
            name: (tmp_path / "cold" / name).read_bytes() for name in names
        }
        assert cache_file.read_bytes() == cold_file.read_bytes()
        assert all("dimension" in packed for packed in json.loads(cache_file.read_text()).values())

        os.utime(cache_file, ns=(10**9, 10**9))
        before = file_state(cache_file)
        with mock.patch.object(ReferenceEmbedder, "embed_many", autospec=True, side_effect=ReferenceEmbedder.embed_many) as spy:
            run_all(config, records, tmp_path / "warm")
        assert spy.call_count == 0
        assert file_state(cache_file) == before


class TestCli:
    def test_run_command(self, tmp_path, capsys):
        paths = write_fixture(tmp_path / "fx", n_questions=3, max_triples=40)
        stage_dir = tmp_path / "stage"
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
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["hits1"] == 1.0
        assert summary["calls"] == 12
        assert (stage_dir / "report.json").exists()

    def test_run_writes_run_log_and_restores_logging(self, tmp_path):
        paths = write_fixture(tmp_path / "fx", n_questions=2, max_triples=35)
        pkg_logger = logging.getLogger("kgqa")
        before = (list(pkg_logger.handlers), pkg_logger.level)
        common = ["--dataset", str(paths["dataset"]), "--config", str(paths["config"]), "--stage-dir", str(tmp_path / "stage")]
        assert cli.main(["run", *common]) == 0
        assert (list(pkg_logger.handlers), pkg_logger.level) == before
        log = (tmp_path / "stage" / "run.log").read_text(encoding="utf-8")
        assert "INFO kgqa.pipeline: stage eval: 2 processed, 0 failed" in log

    @pytest.mark.parametrize("payload", [[], "x"])
    def test_non_object_config_is_clean_error(self, tmp_path, capsys, payload):
        paths = write_fixture(tmp_path / "fx", n_questions=2, max_triples=35)
        paths["config"].write_text(json.dumps(payload))
        common = ["--dataset", str(paths["dataset"]), "--config", str(paths["config"]), "--stage-dir", str(tmp_path / "stage")]
        assert cli.main(["parse", *common]) == 2
        assert f"error: invalid config: config must be a JSON object, not {payload!r}" in capsys.readouterr().err
        assert not (tmp_path / "stage").exists()

    def test_stage_and_diagnostic_commands(self, tmp_path, capsys):
        paths = write_fixture(tmp_path / "fx", n_questions=3, max_triples=40)
        stage_dir = tmp_path / "stage"
        common = ["--dataset", str(paths["dataset"]), "--config", str(paths["config"]), "--stage-dir", str(stage_dir)]
        for command in ("parse", "prune", "enrich", "answer", "eval"):
            assert cli.main([command, *common]) == 0
        assert cli.main(["sweep-k", *common, "--ks", "5,20"]) == 0
        assert cli.main(["metrics", *common, "--variants", "vanilla,pruned"]) == 0
        assert cli.main(["cost-report", *common]) == 0
        out = capsys.readouterr().out
        assert "# LLM Call" in out
        assert (stage_dir / "sweep_k.csv").exists()
        assert (stage_dir / "quality" / "quality.csv").exists()

    def test_read_only_commands_leave_the_ledger_whatever_the_ablation(self, tmp_path, capsys):
        paths = write_fixture(tmp_path / "fx", n_questions=3, max_triples=40)
        stage_dir = tmp_path / "stage"
        inputs = ["--dataset", str(paths["dataset"]), "--stage-dir", str(stage_dir)]
        assert cli.main(["run", *inputs, "--config", str(paths["config"])]) == 0
        ledger = (stage_dir / "ledger.json").read_bytes()
        no_enrich = tmp_path / "no-enrich.json"
        no_enrich.write_text(json.dumps({**json.loads(paths["config"].read_text()), "ablation": "no-enrich"}))
        assert cli.main(["metrics", *inputs, "--config", str(no_enrich)]) == 0
        assert cli.main(["sweep-k", *inputs, "--config", str(no_enrich), "--ks", "5,20"]) == 0
        assert (stage_dir / "ledger.json").read_bytes() == ledger
        capsys.readouterr()
        assert cli.main(["cost-report", *inputs, "--config", str(paths["config"])]) == 0
        assert capsys.readouterr().out.splitlines()[1].split()[1] == "4.00"

    @pytest.mark.parametrize("command", ["sweep-k", "metrics", "cost-report"])
    @pytest.mark.parametrize(
        "flag",
        [["--top-k", "3"], ["--temperature", "0.5"], ["--ablation", "no-enrich"], ["--workers", "2"], ["--no-resume"]],
        ids=lambda flag: flag[0],
    )
    def test_read_only_command_rejects_run_flag(self, tmp_path, capsys, command, flag):
        paths = write_fixture(tmp_path / "fx", n_questions=2, max_triples=35)
        common = ["--dataset", str(paths["dataset"]), "--config", str(paths["config"]), "--stage-dir", str(tmp_path / "stage")]
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, *common, *flag])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "stage").exists()
        for runner in ("parse", "prune", "enrich", "answer", "eval", "run"):
            assert cli.build_parser().parse_args([runner, *common, *flag]).command == runner

    @pytest.mark.parametrize(
        "content",
        ["{not json", "[]", '{"per_question": ["q1"]}', '{"per_question": {"q1": {"calls": "many"}}}', '{"per_question": {"q1": null}}'],
        ids=["not-json", "list", "per-question-list", "calls-not-int", "null-entry"],
    )
    def test_cost_report_rejects_invalid_ledger(self, tmp_path, capsys, content):
        paths = write_fixture(tmp_path / "fx", n_questions=2, max_triples=35)
        stage_dir = tmp_path / "stage"
        stage_dir.mkdir()
        (stage_dir / "ledger.json").write_text(content, encoding="utf-8")
        assert cli.main(["cost-report", "--config", str(paths["config"]), "--stage-dir", str(stage_dir)]) == 2
        assert f"error: invalid ledger {stage_dir / 'ledger.json'}: " in capsys.readouterr().err
        assert sorted(p.name for p in stage_dir.iterdir()) == ["ledger.json"]

    @pytest.mark.parametrize("dataset", ["missing", "malformed"])
    def test_cost_report_checks_a_given_dataset(self, tmp_path, capsys, dataset):
        paths = write_fixture(tmp_path / "fx", n_questions=2, max_triples=35)
        stage_dir = tmp_path / "stage"
        inputs = ["--config", str(paths["config"]), "--stage-dir", str(stage_dir)]
        assert cli.main(["run", *inputs, "--dataset", str(paths["dataset"])]) == 0
        bad = tmp_path / "bad.jsonl"
        if dataset == "malformed":
            bad.write_text('{"id": "a", "question": "q"}\n', encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["cost-report", *inputs, "--dataset", str(bad)]) == 2
        assert "error: invalid dataset: " in capsys.readouterr().err
        assert cli.main(["cost-report", *inputs]) == 0
        assert "# LLM Call" in capsys.readouterr().out

    def test_answer_on_warm_cache_dir_does_not_rewrite_cache(self, tmp_path):
        paths = write_fixture(tmp_path / "fx", n_questions=2, max_triples=35)
        config = json.loads(paths["config"].read_text())
        config["cache_dir"] = str(tmp_path / "cache")
        paths["config"].write_text(json.dumps(config))
        common = ["--dataset", str(paths["dataset"]), "--config", str(paths["config"]), "--stage-dir", str(tmp_path / "stage")]
        for command in ("parse", "prune", "enrich"):
            assert cli.main([command, *common]) == 0
        cache_file = tmp_path / "cache" / "embeddings.json"
        os.utime(cache_file, ns=(10**9, 10**9))
        before = file_state(cache_file)
        assert cli.main(["answer", *common]) == 0
        assert file_state(cache_file) == before

    def test_missing_upstream_is_clean_error(self, tmp_path, capsys):
        paths = write_fixture(tmp_path / "fx", n_questions=2, max_triples=35)
        code = cli.main(
            [
                "prune",
                "--dataset",
                str(paths["dataset"]),
                "--config",
                str(paths["config"]),
                "--stage-dir",
                str(tmp_path / "stage"),
            ]
        )
        assert code == 2
        assert "requires parsed" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--top-k", "--workers"])
    def test_invalid_override_is_clean_error(self, tmp_path, capsys, flag):
        paths = write_fixture(tmp_path / "fx", n_questions=2, max_triples=35)
        common = ["--dataset", str(paths["dataset"]), "--config", str(paths["config"]), "--stage-dir", str(tmp_path / "stage")]
        assert cli.main(["parse", *common, flag, "0"]) == 2
        assert "error: invalid config:" in capsys.readouterr().err
        assert not (tmp_path / "stage").exists()

    @pytest.mark.parametrize(
        "key,value",
        [
            ("redundancy_mode", "bogus"),
            ("positive_threshold", -0.1),
            ("positive_threshold", 1.5),
            ("positive_threshold", math.nan),
            ("temperature", math.nan),
            ("temperature", math.inf),
            ("top_k", "5"),
            ("top_k", 5.0),
            ("workers", "2"),
            ("workers", True),
            ("payload_cap", "60"),
            ("temperature", "hot"),
            ("temperature", False),
            ("tau", "0.3"),
            ("tau", None),
            ("positive_threshold", "0.5"),
            ("positive_threshold", True),
            ("prices", "x"),
            ("prices", {"input_per_token": -1}),
            ("ascii_fold", "no"),
            ("cache_dir", 5),
        ],
    )
    def test_invalid_retry_config_is_clean_error(self, tmp_path, capsys, key, value):
        paths = write_fixture(tmp_path / "fx", n_questions=2, max_triples=35)
        config = json.loads(paths["config"].read_text())
        paths["config"].write_text(json.dumps({**config, key: value}))
        common = ["--dataset", str(paths["dataset"]), "--config", str(paths["config"]), "--stage-dir", str(tmp_path / "stage")]
        assert cli.main(["parse", *common]) == 2
        assert f"error: invalid config: {key} must be" in capsys.readouterr().err
        assert not (tmp_path / "stage").exists()

    @pytest.mark.parametrize(
        "key,spec",
        [
            ("llm", {"kind": "bogus"}),
            ("llm", {"kind": "remote"}),
            ("embedder", {"kind": "bogus"}),
            ("embedder", {"dim": 8}),
            ("kgc", {"kind": "bogus"}),
            ("kgc", {"kind": "constant", "value": 3}),
            ("kgc", {"kind": "constant", "vaule": 0.1}),
            ("kgc", {"kind": "remote", "endpoint": "http://localhost:9", "timout": 5}),
            ("llm", {"kind": "echo", "model": "m"}),
            ("llm", {"kind": "stub", "script": {}, "on_mising": "echo"}),
            ("template_dir", "no-such-template-dir"),
            ("embedder", {"kind": "reference", "endpoint": "x"}),
            ("embedder", {"kind": "reference", "dimension": 2.5}),
            ("embedder", {"kind": "reference", "dimension": True}),
            ("kgc", {"kind": "constant", "value": "0.5"}),
            ("kgc", {"kind": "constant", "value": True}),
            ("llm", {"kind": "stub", "script": "no-such-stub-script.json"}),
            ("llm", {"kind": "stub", "script": 5}),
            ("llm", {"kind": "remote", "model": "m", "timeout": -1}),
            ("llm", {"kind": "remote", "model": "m", "timeout": "x"}),
            ("kgc", {"kind": "remote", "endpoint": "x", "timeout": None}),
        ],
    )
    @pytest.mark.parametrize("command", ["parse", "run"])
    def test_invalid_provider_spec_is_clean_error(self, tmp_path, capsys, command, key, spec):
        paths = write_fixture(tmp_path / "fx", n_questions=2, max_triples=35)
        config = json.loads(paths["config"].read_text())
        paths["config"].write_text(json.dumps({**config, key: spec}))
        common = ["--dataset", str(paths["dataset"]), "--config", str(paths["config"]), "--stage-dir", str(tmp_path / "stage")]
        assert cli.main([command, *common]) == 2
        assert "error: invalid config: " in capsys.readouterr().err
        assert not (tmp_path / "stage").exists()

    @pytest.mark.parametrize("script", [[1, 2], {"question_answering": [1]}, {"question_answering": {"q1": 5}}, "text"])
    def test_stub_script_file_of_wrong_shape_is_clean_error(self, tmp_path, capsys, script):
        paths = write_fixture(tmp_path / "fx", n_questions=2, max_triples=35)
        paths["script"].write_text(json.dumps(script))
        common = ["--dataset", str(paths["dataset"]), "--config", str(paths["config"]), "--stage-dir", str(tmp_path / "stage")]
        assert cli.main(["parse", *common]) == 2
        assert "error: invalid config: stub script must be an object of objects of strings" in capsys.readouterr().err
        assert not (tmp_path / "stage").exists()

    @pytest.mark.parametrize(
        "key,update,message",
        [
            ("stages", ["parse"], "unknown config keys: ['stages']"),
            ("provider_query_filter", True, "unknown config keys: ['provider_query_filter']"),
            ("stage_temperatures", {"question_answering": 0.0}, "unknown config keys: ['stage_temperatures']"),
            ("max_attempts", 3, "unknown config keys: ['max_attempts']"),
            ("backoff_base", 0.5, "unknown config keys: ['backoff_base']"),
            ("max_in_flight", 2, "unknown config keys: ['max_in_flight']"),
            ("llm", {"on_missing": "echo"}, "llm kind 'stub' takes no key 'on_missing'"),
            ("llm", {"prompt_hash_script": {}}, "llm kind 'stub' takes no key 'prompt_hash_script'"),
            ("kgc", {"kind": "constant-stub", "value": 0.7}, "kgc.kind must be one of ('constant', 'remote'), not 'constant-stub'"),
        ],
        ids=[
            "stages",
            "provider-query-filter",
            "stage-temperatures-question-answering",
            "max-attempts",
            "backoff-base",
            "max-in-flight",
            "stub-on-missing",
            "stub-prompt-hash-script",
            "kgc-constant-stub",
        ],
    )
    @pytest.mark.parametrize("command", ["parse", "run"])
    def test_removed_config_value_is_rejected_up_front(self, tmp_path, capsys, command, key, update, message):
        paths = write_fixture(tmp_path / "fx", n_questions=2, max_triples=35)
        config = json.loads(paths["config"].read_text())
        value = {**config.get(key, {}), **update} if isinstance(update, dict) else update
        paths["config"].write_text(json.dumps({**config, key: value}))
        common = ["--dataset", str(paths["dataset"]), "--config", str(paths["config"]), "--stage-dir", str(tmp_path / "stage")]
        assert cli.main([command, *common]) == 2
        assert f"error: invalid config: {message}" in capsys.readouterr().err
        assert not (tmp_path / "stage").exists()

    @pytest.mark.parametrize(
        "key,spec,missing",
        [
            ("llm", {"kind": "remote"}, "model"),
            ("embedder", {"kind": "remote", "model": "m"}, "endpoint"),
            ("kgc", {"kind": "remote"}, "endpoint"),
        ],
    )
    def test_missing_required_provider_key_names_the_key(self, tmp_path, capsys, key, spec, missing):
        paths = write_fixture(tmp_path / "fx", n_questions=2, max_triples=35)
        config = json.loads(paths["config"].read_text())
        paths["config"].write_text(json.dumps({**config, key: spec}))
        common = ["--dataset", str(paths["dataset"]), "--config", str(paths["config"]), "--stage-dir", str(tmp_path / "stage")]
        assert cli.main(["parse", *common]) == 2
        assert f"error: invalid config: {key}.{missing} is required for kind 'remote'\n" in capsys.readouterr().err
        assert not (tmp_path / "stage").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep-k", "--ks", "0"],
            ["sweep-k", "--ks", "abc"],
            ["metrics", "--variants", "bogus"],
            ["parse", "--dataset", "no-such-dataset.jsonl"],
            ["parse", "--config", "no-such-config.json"],
            ["parse", "--dataset", "{malformed}"],
        ],
        ids=["ks-zero", "ks-text", "unknown-variant", "missing-dataset", "missing-config", "malformed-dataset"],
    )
    def test_input_error_is_one_error_line(self, tmp_path, capsys, argv):
        paths = write_fixture(tmp_path / "fx", n_questions=2, max_triples=35)
        malformed = tmp_path / "malformed.jsonl"
        malformed.write_text(paths["dataset"].read_text() + "{not json\n")
        inputs = {"--dataset": str(paths["dataset"]), "--config": str(paths["config"])}
        argv = [str(malformed) if arg == "{malformed}" else arg for arg in argv]
        for flag, value in inputs.items():
            if flag not in argv:
                argv += [flag, value]
        assert cli.main([*argv, "--stage-dir", str(tmp_path / "stage")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_runtime_fault_is_not_an_input_error(self, tmp_path, monkeypatch):
        paths = write_fixture(tmp_path / "fx", n_questions=2, max_triples=35)

        def broken_stage(*args, **kwargs):
            raise ValueError("fault inside a stage")

        monkeypatch.setattr(cli, "run_stage", broken_stage)
        common = ["--dataset", str(paths["dataset"]), "--config", str(paths["config"]), "--stage-dir", str(tmp_path / "stage")]
        with pytest.raises(ValueError, match="fault inside a stage"):
            cli.main(["parse", *common])

    def test_stage_failing_every_record_exits_1(self, tmp_path, capsys):
        paths = write_fixture(tmp_path / "fx", n_questions=2, max_triples=35)
        script = json.loads(paths["script"].read_text())
        del script["question_answering"]
        paths["script"].write_text(json.dumps(script))
        common = ["--dataset", str(paths["dataset"]), "--config", str(paths["config"]), "--stage-dir", str(tmp_path / "stage")]
        assert cli.main(["run", *common]) == 1
        assert json.loads(capsys.readouterr().out)["n"] == 0
        assert cli.main(["answer", *common]) == 1
        assert "answer: 0 processed, 2 failed" in capsys.readouterr().out

    def test_top_k_override(self, tmp_path):
        paths = write_fixture(tmp_path / "fx", n_questions=2, max_triples=35)
        stage_dir = tmp_path / "stage"
        common = ["--dataset", str(paths["dataset"]), "--config", str(paths["config"]), "--stage-dir", str(stage_dir)]
        assert cli.main(["parse", *common]) == 0
        assert cli.main(["prune", *common, "--top-k", "5"]) == 0
        rows = [json.loads(l) for l in (stage_dir / "pruned.jsonl").read_text().splitlines()]
        assert all(len(r["kept"]) == 5 for r in rows)

    def test_flag_overrides_reach_config(self):
        args = cli.build_parser().parse_args(["run", "--temperature", "0.5", "--top-k", "7", "--ablation", "no-enrich"])
        config = cli._load_config(args)
        assert config.temperature == 0.5
        assert config.top_k == 7
        assert config.ablation == "no-enrich"
