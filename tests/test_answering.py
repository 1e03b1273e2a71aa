from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from kgqa.answering import build_qa_prompt, normalize_answer, parse_final_answers
from kgqa.enrichment import EnrichedTriple, Provenance, merge_enriched
from kgqa.gateway import load_template
from kgqa.graph import Triple, load_graph

from sample_outputs import COT_ANSWER_EXAMPLE


def info_lines(prompt: str) -> list[str]:
    tail = prompt[prompt.rfind("information:") + len("information:"):]
    tail = tail.split("[/INST]")[0]
    return [line for line in tail.splitlines() if line.strip()]


class TestNormalize:
    def test_accents_preserved(self):
        assert normalize_answer("Costa Rican colón") == "costa rican colón"

    def test_punctuation_stripped(self):
        assert normalize_answer("  U.S.A. ") == "usa"

    def test_empty(self):
        assert normalize_answer("") == ""

    def test_whitespace_collapsed(self):
        assert normalize_answer("a \t b\n\nc") == "a b c"

    def test_ascii_fold_flag(self):
        assert normalize_answer("Costa Rican colón", ascii_fold=True) == "costa rican colon"
        assert normalize_answer("naïve Café", ascii_fold=True) == "naive cafe"

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=60))
    def test_idempotent(self, s):
        assert normalize_answer(normalize_answer(s)) == normalize_answer(s)


class TestParseFinalAnswers:
    def test_sep_split_and_normalize(self):
        out = parse_final_answers("thinking...\nFinal answer:\nEuro<SEP>Dollar")
        assert out.answers == ["euro", "dollar"]

    def test_braced_answer(self):
        out = parse_final_answers("Final answer: {Washington, D.C.}")
        assert out.answers == ["washington dc"]

    def test_mid_answers_dropped(self):
        assert parse_final_answers("Final answer: m.0jx21d").answers == []
        assert parse_final_answers("Final answer: {m.0n1v8cy}").answers == []

    def test_cot_format_without_marker(self):
        out = parse_final_answers(COT_ANSWER_EXAMPLE)
        assert out.answers == ["washington dc"]

    def test_last_marker_wins(self):
        raw = "Final answer: wrong\nmore thinking\nFinal answer: right"
        assert parse_final_answers(raw).answers == ["right"]

    def test_whole_text_when_no_marker(self):
        assert parse_final_answers("Euro<SEP>Dollar").answers == ["euro", "dollar"]

    def test_duplicates_removed_preserving_order(self):
        out = parse_final_answers("Final answer:\nEuro<SEP>euro!<SEP>Dollar")
        assert out.answers == ["euro", "dollar"]

    def test_empty_entries_dropped(self):
        out = parse_final_answers("Final answer:\n<SEP> <SEP>{}<SEP>x")
        assert out.answers == ["x"]

    def test_empty_answer_set_allowed(self):
        assert parse_final_answers("Final answer:\n").answers == []

    def test_idempotent_on_own_output(self):
        for raw in ("Final answer:\nEuro<SEP>Dollar", COT_ANSWER_EXAMPLE, "a<SEP>b<SEP>a"):
            first = parse_final_answers(raw).answers
            second = parse_final_answers("<SEP>".join(first)).answers
            assert second == first


class TestBuildQaPrompt:
    def test_single_triple_single_line(self):
        prompt = build_qa_prompt("Who?", [Triple("a", "r", "b")], load_template("question_answering"))
        lines = info_lines(prompt)
        assert lines == ["(a, r, b)"]

    def test_merged_order_and_count(self):
        rows = [[f"s{i}", f"r{i}", f"o{i}"] for i in range(300)]
        base = list(load_graph(rows))
        generated = [
            EnrichedTriple(Triple(f"g{i}", "Hypernym_isA", f"h{i}"), Provenance.HIERARCHY) for i in range(12)
        ]
        merged = base + [et.triple for et in merge_enriched(base, generated)]
        prompt = build_qa_prompt("Who?", merged, load_template("question_answering"))
        lines = info_lines(prompt)
        assert len(lines) == 312
        assert lines[0] == "(s0, r0, o0)"
        assert lines[-1] == "(g11, Hypernym_isA, h11)"

    def test_empty_graph_allowed(self):
        prompt = build_qa_prompt("Who?", [], load_template("question_answering"))
        assert info_lines(prompt) == []
        assert "use your internal knowledge" in prompt

    def test_relation_name_kept_verbatim(self):
        prompt = build_qa_prompt(
            "Who?", [Triple("m.01", "people.person.nationality", "Chile")], load_template("question_answering")
        )
        assert "(m.01, people.person.nationality, Chile)" in info_lines(prompt)[0]

    def test_deterministic(self):
        args = ("Who?", [Triple("a", "r", "b")], load_template("question_answering"))
        assert build_qa_prompt(*args) == build_qa_prompt(*args)
