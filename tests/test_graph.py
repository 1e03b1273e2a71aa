from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgqa.graph import (
    EntityRef,
    GraphLoadError,
    Relation,
    Triple,
    extract_paths,
    group_by_endpoints,
    intern_graph,
    load_graph,
    textualize_triple,
)

from helpers import random_records


def triple(s, r, o, index=0):
    return Triple(EntityRef(s), Relation(r), EntityRef(o), index=index)


class TestLoadGraph:
    def test_single_record(self):
        g = load_graph([["Beijing", "located_in", "China"]])
        assert len(g) == 1
        assert g[0].key == ("Beijing", "located_in", "China")
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
        assert [t.subject.id for t in g] == ["a", "c", "e"]
        assert [t.index for t in g] == [0, 1, 2]

    def test_index_completeness(self):
        rng = Random(11)
        g = load_graph(random_records(rng, 80))
        assert len(g) == 80
        assert all(g[t.index] is t for t in g)

    def test_columns_intern_each_string_once(self):
        g = intern_graph([["a", " r ", "b"], ["b", "r", "a"], ["a", "r", "b"], ["c", "s", "a"]])
        assert (g.entities, g.relations) == (("a", "b", "c"), ("r", "s"))
        assert [g.s.tolist(), g.r.tolist(), g.o.tolist()] == [[0, 1, 2], [0, 0, 1], [1, 0, 0]]

    def test_triples_share_refs(self):
        g = load_graph(random_records(Random(12), 60))
        refs = {}
        for t in g:
            assert refs.setdefault(t.subject.id, t.subject) is t.subject
            assert refs.setdefault(t.object.id, t.object) is t.object


class TestEntitySemantics:
    def test_entity_equality_by_id(self):
        assert EntityRef("m.01") == EntityRef("m.01")
        assert EntityRef("m.01") != EntityRef("m.02")

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            EntityRef("")

    def test_relation_whitespace_rejected(self):
        with pytest.raises(ValueError):
            Relation(" padded ")

    def test_triple_equality_ignores_index(self):
        assert triple("a", "r", "b", index=1) == triple("a", "r", "b", index=9)


class TestTextualize:
    def test_underscore_relation(self):
        assert textualize_triple(triple("Beijing", "located_in", "China")) == "Beijing located in China"

    def test_dotted_relation(self):
        assert textualize_triple(triple("a", "x.y.z_w", "b")) == "a x y z w b"

    def test_ids_pass_through(self):
        assert textualize_triple(triple("m.01", "r", "m.02")) == "m.01 r m.02"


class TestExtractPaths:
    def test_single_chain(self):
        g = load_graph([["a", "r1", "b"], ["b", "r2", "c"]])
        two_hop = [p for p in extract_paths(g, 2) if len(p.hops) == 2]
        assert len(two_hop) == 1
        assert two_hop[0].hops[0].key == ("a", "r1", "b")
        assert two_hop[0].hops[1].key == ("b", "r2", "c")

    def test_no_join_entity(self):
        g = load_graph([["a", "r1", "b"]])
        assert [p for p in extract_paths(g, 2) if len(p.hops) == 2] == []

    def test_branching_join(self):
        g = load_graph([["a", "r1", "b"], ["b", "r2", "c"], ["b", "r3", "d"]])
        two_hop = [p for p in extract_paths(g, 2) if len(p.hops) == 2]
        assert len(two_hop) == 2

    def test_one_hop_paths_are_all_triples(self):
        g = load_graph([["a", "r1", "b"], ["b", "r2", "c"]])
        one_hop = [p for p in extract_paths(g, 1) if len(p.hops) == 1]
        assert [p.hops[0].index for p in one_hop] == [0, 1]
        assert extract_paths(g, 1) == one_hop

    def test_invalid_max_hops(self):
        g = load_graph([["a", "r", "b"]])
        with pytest.raises(ValueError):
            extract_paths(g, 3)

    def test_matches_bruteforce_double_loop(self):
        rng = Random(23)
        for trial in range(10):
            g = load_graph(random_records(rng, rng.randint(5, 200)))
            expected = [
                (t1.index, t2.index)
                for t1 in g
                for t2 in g
                if t1.object.id == t2.subject.id
            ]
            got = [
                (p.hops[0].index, p.hops[1].index)
                for p in extract_paths(g, 2)
                if len(p.hops) == 2
            ]
            assert got == sorted(expected)


class TestGroupByEndpoints:
    def test_head_and_tail_partition(self):
        g = load_graph([["a", "r1", "b"], ["a", "r2", "b"], ["a", "r3", "c"]])
        groups = group_by_endpoints(g, "head_and_tail")
        assert [[t.relation.name for t in grp] for grp in groups] == [["r1", "r2"], ["r3"]]

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
    assert [[t.subject.id, t.relation.name, t.object.id] for t in g] == expected
