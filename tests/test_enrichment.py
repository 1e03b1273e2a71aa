from __future__ import annotations

import math

import pytest

from kgqa.enrichment import (
    ONTOLOGY_RELATIONS,
    EnrichedTriple,
    Provenance,
    associate_queries,
    build_feature_prompt,
    collect_entity_contexts,
    filter_and_build_structural_prompt,
    format_triple_compact,
    merge_enriched,
    parse_feature_output,
    parse_structural_output,
)
from kgqa.gateway import load_template
from kgqa.graph import Triple, load_graph
from kgqa.queries import fallback_graph_query

from sample_outputs import (
    FEATURE_EXAMPLE,
    FEATURE_EXAMPLE_TRIPLES,
    STRUCTURAL_EXAMPLE,
    STRUCTURAL_EXAMPLE_TRIPLES,
)


BACHELET_ROWS = [
    ["Michelle Bachelet", "people.person.nationality", "Chile"],
    ["Chile", "language.human_language.countries_spoken_in", "Spanish Language"],
]


class TestStructuralPrompt:
    def test_minimal_layout(self):
        payload = list(load_graph([["a", "r", "b"]]))
        prompt = filter_and_build_structural_prompt(
            payload, [["What is the r of a?"]], template=load_template("structural_enrich")
        )
        assert "(a,r,b)-What is the r of a?" in prompt
        assert "1-hop:\n(a,r,b)\n2-hop:\n\n" in prompt

    def test_two_hop_chain_rendered(self, ref):
        g = load_graph(BACHELET_ROWS)
        associations = associate_queries([fallback_graph_query(t) for t in g], ["Who is Michelle Bachelet?"], ref)
        prompt = filter_and_build_structural_prompt(list(g), associations, template=load_template("structural_enrich"))
        assert (
            "(Michelle Bachelet,people.person.nationality,Chile)"
            "->(Chile,language.human_language.countries_spoken_in,Spanish Language)"
        ) in prompt

    def test_infinite_tau_keeps_only_graph_query(self, ref):
        t = Triple("a", "r", "b")
        associations = associate_queries(["graph query text"], ["graph query text", "another query"], ref, tau=math.inf)
        assert associations == [["graph query text"]]
        prompt = filter_and_build_structural_prompt([t], associations, template=load_template("structural_enrich"))
        assert "(a,r,b)-graph query text\n" in prompt
        assert "another query" not in prompt.split("### Your Turn")[-1].split("1-hop:")[0]

    def test_deterministic(self, ref):
        g = load_graph(BACHELET_ROWS)
        queries = ["Who is Michelle Bachelet?", "What language is spoken in this location?"]
        associations = associate_queries([fallback_graph_query(t) for t in g], queries, ref)
        template = load_template("structural_enrich")
        assert filter_and_build_structural_prompt(list(g), associations, template) == (
            filter_and_build_structural_prompt(list(g), associations, template)
        )

    def test_empty_pruned_rejected(self):
        with pytest.raises(ValueError):
            filter_and_build_structural_prompt([], [], template=load_template("structural_enrich"))

    def test_two_hop_paths_follow_payload_position(self):
        payload = [Triple("b", "r3", "d", index=9), Triple("a", "r1", "b", index=2), Triple("b", "r2", "c", index=5)]
        prompt = filter_and_build_structural_prompt(
            payload, [["q"]] * len(payload), template=load_template("structural_enrich")
        )
        assert "2-hop:\n(a,r1,b)->(b,r3,d)\n(a,r1,b)->(b,r2,c)\n[/INST]" in prompt

    def test_precomputed_associations_override_embedder(self):
        payload = list(load_graph([["a", "r", "b"]]))
        prompt = filter_and_build_structural_prompt(
            payload, [["own query", "hand picked query"]], template=load_template("structural_enrich")
        )
        assert "(a,r,b)-own query-hand picked query" in prompt

    def test_association_length_mismatch_rejected(self):
        payload = list(load_graph([["a", "r", "b"]]))
        with pytest.raises(ValueError, match="associations"):
            filter_and_build_structural_prompt(payload, [], template=load_template("structural_enrich"))


class TestStructuralParse:
    def test_worked_example_verbatim(self):
        parse = parse_structural_output(STRUCTURAL_EXAMPLE)
        got = [(*t.triple, t.provenance.value) for t in parse.triples]
        assert got == STRUCTURAL_EXAMPLE_TRIPLES
        assert parse.skipped == 0

    def test_non_triple_line_counts_as_skipped(self):
        parse = parse_structural_output("not a triple line")
        assert parse.triples == []
        assert parse.skipped == 1

    def test_whole_text_scanned_without_marker(self):
        parse = parse_structural_output("(a, r, b)\n(c, s, d)")
        assert [tuple(t.triple) for t in parse.triples] == [("a", "r", "b"), ("c", "s", "d")]

    def test_markup_lines_ignored(self):
        parse = parse_structural_output("Final output:\n{/thought}\n(a,r,b)")
        assert parse.skipped == 0
        assert len(parse.triples) == 1

    def test_round_trip_on_formatted_triples(self):
        triples = [Triple("x y", "rel_one", "z"), Triple("m.01", "people.person.rel", "w", index=1)]
        text = "\n".join(format_triple_compact(t) for t in triples)
        parse = parse_structural_output(text)
        assert [tuple(t.triple) for t in parse.triples] == [tuple(t) for t in triples]
        assert parse.skipped == 0

    def test_default_provenance_is_similarity(self):
        parse = parse_structural_output("Final output:\n(a,r,b)")
        assert parse.triples[0].provenance is Provenance.SIMILARITY


class TestFeaturePrompt:
    def test_single_context_block(self):
        contexts = collect_entity_contexts([Triple("a", "r", "b")], [["what is the r of a?"]])
        prompt = build_feature_prompt(contexts, load_template("feature_enrich"))
        assert "[$a$ context]" in prompt
        assert "relavent triple(s):(a,r,b)" in prompt
        assert "relavent user query(ies):what is the r of a?" in prompt
        assert "[/$a$ context]" in prompt

    def test_worked_example_fixture(self):
        g = load_graph(BACHELET_ROWS)
        contexts = collect_entity_contexts(list(g), [["Who is Michelle Bachelet?"], ["What language is spoken in this location?"]])
        prompt = build_feature_prompt(contexts, load_template("feature_enrich"))
        assert "(Michelle Bachelet,people.person.nationality,Chile)" in prompt
        chile_block = prompt.split("[$Chile$ context]")[1].split("[/$Chile$ context]")[0]
        assert "Who is Michelle Bachelet?" in chile_block
        assert "What language is spoken in this location?" in chile_block

    def test_entity_without_queries_allowed(self):
        contexts = collect_entity_contexts([Triple("a", "r", "b")], [[]])
        prompt = build_feature_prompt(contexts, load_template("feature_enrich"))
        assert "relavent user query(ies):\n" in prompt

    def test_self_loop_joins_its_entity_context_twice(self):
        contexts = collect_entity_contexts([("a", "r", "a"), ("a", "s", "b")], [["q1"], ["q2"]])
        assert [c.entity for c in contexts] == ["a", "b"]
        assert contexts[0].triples == [("a", "r", "a"), ("a", "r", "a"), ("a", "s", "b")]
        assert contexts[0].queries == ["q1", "q2"]
        prompt = build_feature_prompt(contexts, load_template("feature_enrich"))
        assert "relavent triple(s):(a,r,a)-(a,r,a)-(a,s,b)\n" in prompt

    def test_entities_in_first_occurrence_order(self):
        triples = [Triple("a", "r", "b"), Triple("b", "s", "c", index=1)]
        contexts = collect_entity_contexts(triples, [["q1"], ["q2"]])
        assert [c.entity for c in contexts] == ["a", "b", "c"]
        assert contexts[1].queries == ["q1", "q2"]

    def test_empty_contexts_rejected(self):
        with pytest.raises(ValueError):
            build_feature_prompt([], load_template("feature_enrich"))


class TestFeatureParse:
    def test_worked_example_verbatim(self):
        parse = parse_feature_output(FEATURE_EXAMPLE)
        got = [t.triple for t in parse.triples]
        assert got == FEATURE_EXAMPLE_TRIPLES
        assert all(t.provenance is Provenance.HIERARCHY for t in parse.triples)
        assert parse.rejected == 0

    def test_out_of_vocabulary_rejected(self):
        parse = parse_feature_output("{result}\n(X, made_up_relation, Y)\n{/result}")
        assert parse.triples == []
        assert parse.rejected == 1

    def test_closed_vocabulary(self):
        assert len(ONTOLOGY_RELATIONS) == 8
        for name in ONTOLOGY_RELATIONS:
            parse = parse_feature_output(f"{{result}}\n(e, {name}, o)\n{{/result}}")
            assert len(parse.triples) == 1
        parse = parse_feature_output("{result}\n(e, hypernym_isa, o)\n{/result}")
        assert parse.rejected == 1  # case-sensitive

    def test_last_result_block_wins(self):
        raw = "{result}\n(a, Hypernym_isA, b)\n{/result}\ntext\n{result}\n(c, Hypernym_isA, d)\n{/result}"
        parse = parse_feature_output(raw)
        assert [t.triple for t in parse.triples] == [("c", "Hypernym_isA", "d")]

    def test_all_parsed_triples_use_vocabulary(self):
        parse = parse_feature_output(FEATURE_EXAMPLE)
        for et in parse.triples:
            assert et.triple[1] in ONTOLOGY_RELATIONS


class TestAssociateQueries:
    def test_own_graph_query_always_first(self, ref):
        queries = ["where is the amber mesa located", "unrelated xylophone"]
        out = associate_queries(["where is the amber mesa"], queries, ref, tau=0.3)
        assert out[0][0] == "where is the amber mesa"
        assert "where is the amber mesa located" in out[0]
        assert "unrelated xylophone" not in out[0]


class TestMerge:
    def test_duplicate_of_base_dropped(self):
        base = list(load_graph([["a", "r", "b"]]))
        generated = [EnrichedTriple(Triple("a", "r", "b"), Provenance.SIMILARITY)]
        assert merge_enriched(base, generated) == []

    def test_duplicate_generated_kept_once(self):
        base = list(load_graph([["a", "r", "b"]]))
        generated = [
            EnrichedTriple(Triple("a", "s", "c"), Provenance.SIMILARITY),
            EnrichedTriple(Triple("a", "s", "c"), Provenance.TRANSITIVITY),
        ]
        merged = merge_enriched(base, generated)
        assert len(merged) == 1
        assert merged[0].provenance is Provenance.SIMILARITY

    def test_disjoint_sizes_add(self):
        base = list(load_graph([[f"s{i}", f"r{i}", f"o{i}"] for i in range(300)]))
        generated = [
            EnrichedTriple(Triple(f"g{i}", "Hypernym_isA", f"h{i}"), Provenance.HIERARCHY) for i in range(12)
        ]
        merged = merge_enriched(base, generated)
        assert len(base) + len(merged) == 312

    def test_base_never_removed_and_order_stable(self):
        base = list(load_graph([["a", "r", "b"], ["c", "s", "d"]]))
        generated = [EnrichedTriple(Triple("x", "t", "y"), Provenance.SYMMETRY)]
        merged = merge_enriched(base, generated)
        assert [tuple(t) for t in base] == [("a", "r", "b"), ("c", "s", "d")]
        assert [tuple(et.triple) for et in merged] == [("x", "t", "y")]

    def test_grounded_flag(self):
        base = list(load_graph([["a", "r", "b"]]))
        generated = [
            EnrichedTriple(Triple("a", "is_a", "Politician"), Provenance.HIERARCHY),
            EnrichedTriple(Triple("x", "t", "y"), Provenance.SIMILARITY),
        ]
        merged = merge_enriched(base, generated)
        assert merged[0].grounded is True
        assert merged[1].grounded is False

    def test_structural_sources_share_endpoints(self):
        base = list(load_graph([["a", "r", "b"], ["c", "s", "d"]]))
        generated = [EnrichedTriple(Triple("a", "fused", "d"), Provenance.TRANSITIVITY)]
        assert merge_enriched(base, generated)[0].source_indices == (0, 1)

    def test_hierarchy_sources_empty(self):
        base = list(load_graph([["a", "r", "b"]]))
        generated = [EnrichedTriple(Triple("a", "Hypernym_isA", "Thing"), Provenance.HIERARCHY)]
        assert merge_enriched(base, generated)[0].source_indices == ()

    def test_keys_give_keys_and_base_positions(self):
        base = [("a", "r", "b"), ("c", "s", "d"), ("b", "t", "e")]
        generated = [
            EnrichedTriple(("c", "s", "d"), Provenance.SIMILARITY),
            EnrichedTriple(("d", "u", "e"), Provenance.TRANSITIVITY),
        ]
        [merged] = merge_enriched(base, generated)
        assert merged.triple == ("d", "u", "e") and type(merged.triple) is tuple
        assert (merged.source_indices, merged.grounded) == ((1, 2), True)

    def test_sources_are_positions_not_triple_indices(self):
        base = [Triple("c", "s", "d", index=7), Triple("a", "r", "b", index=3)]
        generated = [EnrichedTriple(Triple("a", "fused", "d"), Provenance.TRANSITIVITY)]
        [merged] = merge_enriched(base, generated)
        assert merged.triple == ("a", "fused", "d")
        assert merged.source_indices == (0, 1)
