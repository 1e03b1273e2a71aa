from __future__ import annotations

import re
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgqa.graph import (
    GraphLoadError,
    Triple,
    extract_paths,
    graph_keys,
    group_by_endpoints,
    load_graph,
    textualize_triple,
)

from helpers import random_records


class TestLoadGraph:
    def test_single_record(self):
        g = load_graph([["Beijing", "located_in", "China"]])
        assert len(g) == 1
        assert tuple(g[0]) == ("Beijing", "located_in", "China")
        assert g[0].index == 0

    def test_duplicates_dropped_keeping_first(self):
        g = load_graph([["a", "r", "b"], ["a", "r", "b"]])
        assert len(g) == 1

    def test_arity_error_carries_line_number(self):
        with pytest.raises(GraphLoadError, match="line 1"):
            load_graph([["a", "r"]])

    def test_empty_input_is_empty_graph(self):
        assert len(load_graph([])) == 0

    def test_empty_field_rejected(self):
        with pytest.raises(GraphLoadError, match="line 2"):
            load_graph([["a", "r", "b"], ["", "r", "b"]])

    def test_order_stability(self):
        records = [["a", "r1", "b"], ["c", "r2", "d"], ["a", "r1", "b"], ["e", "r3", "f"]]
        g = load_graph(records)
        assert [t.subject for t in g] == ["a", "c", "e"]
        assert [t.index for t in g] == [0, 1, 2]

    def test_index_completeness(self):
        rng = Random(11)
        g = load_graph(random_records(rng, 80))
        assert len(g) == 80
        assert all(g[t.index] is t for t in g)

    def test_keys_strip_relations_drop_duplicates_keep_order(self):
        keys = graph_keys([["a", " r ", "b"], ["b", "r", "a"], ["a", "r", "b"], ["c", "s", "a"], ["b", "r\t", "a"]])
        assert keys == [("a", "r", "b"), ("b", "r", "a"), ("c", "s", "a")]

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("abc", "expected 3 fields, got 'abc'"),
            (["a", 1, "b"], "non-string field in ['a', 1, 'b']"),
            (["a", " \t ", "b"], "empty field in ['a', ' \\t ', 'b']"),
        ],
        ids=["string-record", "non-string-field", "blank-relation"],
    )
    def test_keys_reject_malformed_record_naming_its_line(self, bad, message):
        with pytest.raises(GraphLoadError, match=f"^{re.escape(f'line 3: {message}')}$") as info:
            graph_keys([["a", "r", "b"], ["b", "r", "c"], bad])
        assert info.value.line == 3


class TestEntitySemantics:
    def test_entity_equality_by_id(self):
        assert Triple("m.01", "r", "m.02") == Triple("m.01", "r", "m.02")
        assert Triple("m.01", "r", "m.02") != Triple("m.01", "r", "m.03")
        assert Triple("m.01", "r", "m.02") != Triple("m.02", "r", "m.01")

    def test_empty_id_rejected(self):
        for subject, obj in (("", "b"), ("a", "")):
            with pytest.raises(ValueError, match="^entity id must be non-empty$"):
                Triple(subject, "r", obj)

    def test_relation_whitespace_rejected(self):
        for relation in ("", " padded ", "padded\n", "\tpadded"):
            message = f"relation name must be non-empty with no surrounding whitespace: {relation!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                Triple("a", relation, "b")

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="triple index must be >= 0"):
            Triple("a", "r", "b", index=-1)

    def test_triple_equality_ignores_index(self):
        assert Triple("a", "r", "b", index=1) == Triple("a", "r", "b", index=9)


class TestTextualize:
    def test_underscore_relation(self):
        assert textualize_triple(Triple("Beijing", "located_in", "China")) == "Beijing located in China"

    def test_dotted_relation(self):
        assert textualize_triple(Triple("a", "x.y.z_w", "b")) == "a x y z w b"

    def test_ids_pass_through(self):
        assert textualize_triple(Triple("m.01", "r", "m.02")) == "m.01 r m.02"


class TestExtractPaths:
    def test_single_chain(self):
        g = load_graph([["a", "r1", "b"], ["b", "r2", "c"]])
        assert extract_paths(g) == [(g[0],), (g[1],), (g[0], g[1])]
        assert [tuple(t) for t in extract_paths(g)[2]] == [("a", "r1", "b"), ("b", "r2", "c")]

    def test_no_join_entity(self):
        g = load_graph([["a", "r1", "b"]])
        assert extract_paths(g) == [(g[0],)]

    def test_branching_join(self):
        g = load_graph([["a", "r1", "b"], ["b", "r2", "c"], ["b", "r3", "d"]])
        assert extract_paths(g)[3:] == [(g[0], g[1]), (g[0], g[2])]

    def test_one_hop_paths_are_all_triples(self):
        g = load_graph([["a", "r1", "b"], ["b", "r2", "c"]])
        assert extract_paths(g)[: len(g)] == [(g[0],), (g[1],)]
        assert [p[0].index for p in extract_paths(g)[: len(g)]] == [0, 1]

    def test_matches_bruteforce_double_loop(self):
        rng = Random(23)
        for trial in range(10):
            g = load_graph(random_records(rng, rng.randint(5, 200)))
            expected = [
                (t1.index, t2.index)
                for t1 in g
                for t2 in g
                if t1.object == t2.subject
            ]
            got = [
                (p[0].index, p[1].index)
                for p in extract_paths(g)
                if len(p) == 2
            ]
            assert got == sorted(expected)


class TestGroupByEndpoints:
    def test_head_and_tail_partition(self):
        g = load_graph([["a", "r1", "b"], ["a", "r2", "b"], ["a", "r3", "c"]])
        groups = group_by_endpoints(g, "head_and_tail")
        assert [[t.relation for t in grp] for grp in groups] == [["r1", "r2"], ["r3"]]

    def test_singleton_group(self):
        g = load_graph([["a", "r1", "b"]])
        for mode in ("head", "tail", "head_and_tail"):
            groups = group_by_endpoints(g, mode)
            assert len(groups) == 1 and len(groups[0]) == 1

    def test_tail_mode(self):
        g = load_graph([["a", "r1", "b"], ["c", "r2", "b"]])
        groups = group_by_endpoints(g, "tail")
        assert len(groups) == 1 and len(groups[0]) == 2

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            group_by_endpoints(load_graph([]), "middle")

    def test_groups_are_a_partition(self):
        rng = Random(5)
        g = load_graph(random_records(rng, 120))
        for mode in ("head", "tail", "head_and_tail"):
            groups = group_by_endpoints(g, mode)
            indices = [t.index for grp in groups for t in grp]
            assert sorted(indices) == list(range(len(g)))
            assert len(indices) == len(set(indices))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from("abcde"), st.sampled_from("rs"), st.sampled_from("vwxyz")),
        max_size=30,
    )
)
def test_load_preserves_order_minus_duplicates(rows):
    records = [[s, r, o] for s, r, o in rows]
    expected = []
    for row in records:
        key = tuple(row)
        if key not in [tuple(e) for e in expected]:
            expected.append(row)
    g = load_graph(records)
    assert [[t.subject, t.relation, t.object] for t in g] == expected
