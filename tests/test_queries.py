from __future__ import annotations

from random import Random

import pytest

from kgqa.gateway import CostLedger, load_template
from kgqa.graph import load_graph
from kgqa.queries import (
    COMPOUND,
    UNIT,
    TreeParseError,
    decompose,
    fallback_graph_query,
    parse_decomposition_tree,
    single_node_decomposition,
)

from helpers import serialize_decomposition, stub_gateway
from sample_outputs import DECOMPOSITION_EXAMPLE


class TestParseTree:
    def test_basic_grammar_walk(self):
        d = parse_decomposition_tree("Q\n-A\n--A1\n--A2\n-B")
        assert d.root.text == "Q" and d.root.kind == COMPOUND
        a = d.root.children[0]
        assert a.text == "A" and a.kind == COMPOUND
        assert [c.text for c in a.children] == ["A1", "A2"]
        assert all(c.kind == UNIT for c in a.children)
        assert d.root.children[1].kind == UNIT
        assert d.flat == ["Q", "A", "A1", "A2", "B"]

    def test_worked_example_structure(self):
        d = parse_decomposition_tree(DECOMPOSITION_EXAMPLE)
        assert d.root.kind == COMPOUND
        assert len(d.root.children) == 2
        assert all(c.kind == COMPOUND for c in d.root.children)
        grandchildren = [g for c in d.root.children for g in c.children]
        assert len(grandchildren) == 4
        assert all(g.kind == UNIT for g in grandchildren)
        assert "What is the theory that explains why objects fall to Earth?" in d.flat

    def test_missing_root(self):
        with pytest.raises(TreeParseError, match="missing root"):
            parse_decomposition_tree("-X")

    def test_depth_jump_carries_line_number(self):
        with pytest.raises(TreeParseError, match="line 2"):
            parse_decomposition_tree("Q\n--X")

    def test_empty_input(self):
        with pytest.raises(TreeParseError):
            parse_decomposition_tree("\n\n")

    def test_multiple_roots_rejected(self):
        with pytest.raises(TreeParseError, match="multiple roots"):
            parse_decomposition_tree("Q\nR")

    def test_blank_lines_skipped(self):
        d = parse_decomposition_tree("Q\n\n-A\n\n")
        assert d.flat == ["Q", "A"]

    def test_flat_deduplicates_exact_strings(self):
        d = parse_decomposition_tree("Q\n-A\n-A\n-B")
        assert d.flat == ["Q", "A", "B"]
        assert len(d.nodes) == 4

    def test_kind_matches_children(self):
        d = parse_decomposition_tree(DECOMPOSITION_EXAMPLE)
        for node in d.nodes:
            assert node.kind == (COMPOUND if node.children else UNIT)

    def test_round_trip(self):
        raw = "Q\n-A\n--A1\n-B\n--B1\n---B2"
        assert serialize_decomposition(parse_decomposition_tree(raw)) == raw

    def test_round_trip_random_trees(self):
        rng = Random(41)
        for _ in range(30):
            lines = [f"root {rng.randrange(100)}"]
            depth = 0
            for i in range(rng.randint(1, 25)):
                depth = max(1, min(5, depth + rng.choice([-2, -1, 0, 1, 1])))
                lines.append("-" * depth + f"node {i} {rng.randrange(100)}")
            raw = "\n".join(lines)
            assert serialize_decomposition(parse_decomposition_tree(raw)) == raw


class TestDecompose:
    def test_unit_question_single_node(self):
        gateway = stub_gateway({"query_structuring": {"q1": "Who is X?"}})
        d = decompose("Who is X?", gateway, load_template("query_structuring"), question_id="q1")
        assert d.flat == ["Who is X?"]
        assert d.root.kind == UNIT
        assert not d.degraded

    def test_running_example_queries(self):
        question = "What is the currency in the governmental jurisdiction with office holder Astrid Fischel Volio?"
        tree = (
            f"{question}\n"
            "-What is the currency in Astrid Fischel Volio's jurisdiction?\n"
            "--What areas does Astrid Fischel Volio oversee?\n"
            "--Who is Astrid Fischel Volio?\n"
        )
        gateway = stub_gateway({"query_structuring": {"q1": tree}})
        d = decompose(question, gateway, load_template("query_structuring"), question_id="q1")
        assert "What is the currency in Astrid Fischel Volio's jurisdiction?" in d.flat
        assert "Who is Astrid Fischel Volio?" in d.flat

    def test_malformed_output_degrades_after_retry(self):
        ledger = CostLedger()
        gateway = stub_gateway({"query_structuring": {"q1": "-X"}}, ledger=ledger)
        d = decompose("Who?", gateway, load_template("query_structuring"), question_id="q1")
        assert d.degraded
        assert d.flat == ["Who?"]
        assert d.root.kind == UNIT
        assert ledger.usage("q1").calls == 2

    def test_retry_bound_is_two_calls(self):
        ledger = CostLedger()
        gateway = stub_gateway({"query_structuring": {"q1": "Who?"}}, ledger=ledger)
        decompose("Who?", gateway, load_template("query_structuring"), question_id="q1")
        assert ledger.usage("q1").calls == 1

    def test_empty_question_rejected(self):
        gateway = stub_gateway({})
        with pytest.raises(ValueError):
            decompose("", gateway, load_template("query_structuring"))


class TestFallbackGraphQuery:
    def test_fallback_template(self):
        g = load_graph([["Beijing", "located_in", "China"]])
        assert fallback_graph_query(g[0]) == "What is the located in of Beijing?"


def test_single_node_decomposition_shape():
    d = single_node_decomposition("Why?", degraded=True)
    assert d.degraded and d.flat == ["Why?"] and d.root.kind == UNIT
