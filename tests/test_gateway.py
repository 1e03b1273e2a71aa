from __future__ import annotations

import threading

import pytest

import kgqa.gateway
from kgqa.gateway import (
    TEMPLATE_NAMES,
    ChatRequest,
    CostLedger,
    EchoProvider,
    Gateway,
    PriceTable,
    PromptTemplate,
    ProviderReply,
    QuestionUsage,
    ScriptedStubProvider,
    StubKeyError,
    TemplateError,
    TransportError,
    cost_report,
    estimate_tokens,
    format_cost_report,
    load_template,
    load_templates,
    render_template,
    with_retries,
)
from kgqa.pipeline import RunConfig

from helpers import FlakyProvider


class TestTemplates:
    def test_all_five_load_with_placeholders(self):
        templates = load_templates()
        assert set(templates) == set(TEMPLATE_NAMES)
        for template in templates.values():
            for ph in template.placeholders:
                assert "{" + ph + "}" in template.body

    def test_template_dir_needs_only_the_templates_stages_send(self, tmp_path):
        for name in ("query_structuring", "structural_enrich", "feature_enrich", "question_answering"):
            (tmp_path / f"{name}.txt").write_text(load_template(name).body, encoding="utf-8")
        assert set(load_templates(tmp_path)) == set(TEMPLATE_NAMES) == {p.stem for p in tmp_path.iterdir()}

    def test_render_literal_substitution(self):
        t = PromptTemplate(name="test", body="Q: {question}", placeholders=("question",))
        assert render_template(t, {"question": "x"}) == "Q: x"

    def test_missing_binding_names_placeholder(self):
        t = PromptTemplate(name="test", body="Q: {question}", placeholders=("question",))
        with pytest.raises(TemplateError, match="question"):
            render_template(t, {})

    def test_qa_template_keeps_final_answer_block(self):
        t = load_template("question_answering")
        rendered = render_template(t, {"question": "Who?", "knowledge graph": "(a, r, b)"})
        assert "Final answer:" in rendered
        assert "<SEP>" in rendered
        assert "(a, r, b)" in rendered
        assert "{question}" not in rendered and "{knowledge graph}" not in rendered

    def test_undeclared_braces_left_alone(self):
        t = load_template("question_answering")
        rendered = render_template(t, {"question": "Who?", "knowledge graph": ""})
        assert "{thoughts & reason}" in rendered

    def test_unknown_template_name(self):
        with pytest.raises(TemplateError):
            load_template("nonexistent")

    def test_body_must_contain_placeholder(self):
        with pytest.raises(TemplateError):
            PromptTemplate(name="bad", body="no slots", placeholders=("question",))


class TestEstimateTokens:
    def test_eight_ascii_bytes(self):
        assert estimate_tokens("abcdefgh") == 2

    def test_empty(self):
        assert estimate_tokens("") == 0

    def test_nine_bytes_rounds_up(self):
        assert estimate_tokens("abcdefghi") == 3

    def test_utf8_bytes_counted(self):
        assert estimate_tokens("ééé") == 2  # 6 bytes


class TestRequestValidation:
    def test_defaults(self):
        req = ChatRequest("hello")
        assert (req.prompt, req.temperature, req.template, req.question_id) == ("hello", 0.2, None, None)

    def test_negative_temperature(self):
        with pytest.raises(ValueError):
            ChatRequest("x", temperature=-0.1)


class TestScriptedStub:
    def test_canned_response_and_ledger(self):
        ledger = CostLedger()
        gateway = Gateway(
            ScriptedStubProvider({"question_answering": {"q1": "Final answer:\nParis"}}),
            ledger=ledger,
        )
        resp = gateway.complete(ChatRequest("prompt", template="question_answering", question_id="q1"))
        assert resp.content == "Final answer:\nParis"
        assert ledger.usage("q1").calls == 1
        assert resp.prompt_tokens == estimate_tokens("prompt")
        assert resp.completion_tokens == estimate_tokens(resp.content)

    def test_missing_key_errors_by_default(self):
        provider = ScriptedStubProvider({})
        with pytest.raises(StubKeyError):
            provider.generate(ChatRequest("p", template="question_answering", question_id="zzz"))

    def test_deterministic_across_calls(self):
        provider = ScriptedStubProvider({"question_answering": {"q": "stable"}})
        req = ChatRequest("p", template="question_answering", question_id="q")
        assert provider.generate(req).content == provider.generate(req).content


@pytest.fixture
def sleeps(monkeypatch):
    """The backoff sleeps of chat retries, recorded instead of slept."""
    recorded = []
    monkeypatch.setattr(kgqa.gateway, "with_retries", lambda call: with_retries(call, sleep=recorded.append))
    return recorded


class TestRetries:
    def test_two_failures_then_success_is_one_call_three_attempts(self, sleeps):
        ledger = CostLedger()
        provider = FlakyProvider(EchoProvider(), failures=2)
        gateway = Gateway(provider, ledger=ledger)
        resp = gateway.complete(ChatRequest("hi", question_id="q1"))
        assert resp.content == "hi"
        usage = ledger.usage("q1")
        assert usage.calls == 1
        assert usage.attempts == 3

    def test_exhausted_retries_raise_transport_error(self, sleeps):
        ledger = CostLedger()
        provider = FlakyProvider(EchoProvider(), failures=5)
        gateway = Gateway(provider, ledger=ledger)
        with pytest.raises(TransportError, match="gave up after 3 attempts"):
            gateway.complete(ChatRequest("hi", question_id="q1"))
        usage = ledger.usage("q1")
        assert usage.calls == 0
        assert usage.attempts == 3

    @pytest.mark.parametrize("counts", [(-50, None), (None, -1), (2.5, 1), (3, "4"), (True, 1)])
    def test_bad_token_counts_rejected_before_the_call_is_recorded(self, counts):
        class BadUsage:
            provider_id = "bad-usage"

            def generate(self, request):
                return ProviderReply("ok", *counts)

        ledger = CostLedger()
        with pytest.raises(ValueError, match="token counts"):
            Gateway(BadUsage(), ledger=ledger).complete(ChatRequest("hi", question_id="q1"))
        assert ledger.per_question() == {"q1": QuestionUsage(attempts=1)}

    @pytest.mark.parametrize("error", [RuntimeError("HTTP 400"), KeyError("choices")])
    def test_failed_try_that_is_not_retried_counts_as_an_attempt(self, error):
        class Failing:
            provider_id = "failing"

            def generate(self, request):
                raise error

        ledger = CostLedger()
        with pytest.raises(type(error)):
            Gateway(Failing(), ledger=ledger).complete(ChatRequest("hi", question_id="q1"))
        assert ledger.per_question() == {"q1": QuestionUsage(attempts=1)}

    def test_backoff_sequence(self, sleeps):
        provider = FlakyProvider(EchoProvider(), failures=2)
        gateway = Gateway(provider)
        gateway.complete(ChatRequest("hi"))
        assert sleeps == [0.5, 1.0]


class TestLedger:
    def test_totals_equal_per_question_sum_under_threads(self):
        ledger = CostLedger(PriceTable(1e-6, 2e-6))

        def worker(qid):
            for _ in range(50):
                ledger.record_call(qid, 10, 5)

        threads = [threading.Thread(target=worker, args=(f"q{i}",)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        per_question = ledger.per_question()
        totals = ledger.totals()
        assert totals.calls == sum(u.calls for u in per_question.values()) == 400
        assert totals.prompt_tokens == 8 * 50 * 10
        assert totals.completion_tokens == 8 * 50 * 5

    def test_round_trip(self):
        ledger = CostLedger(PriceTable(1e-6, 2e-6))
        ledger.record_call("a", 100, 50)
        ledger.record_attempt("a")
        restored = CostLedger.from_dict(ledger.to_dict())
        assert restored.usage("a").prompt_tokens == 100
        assert restored.usage("a").calls == 1


class TestCostReport:
    def test_prompt_only_cost(self):
        ledger = CostLedger()
        ledger.record_call("q1", 1000, 0)
        report = cost_report(ledger, PriceTable(1.5e-7, 6e-7))
        assert report.per_question["q1"]["cost"] == pytest.approx(1000 * 1.5e-7)
        assert report.total_cost == pytest.approx(1.5e-4)

    def test_zero_usage_zero_cost(self):
        ledger = CostLedger()
        ledger.record_call("q1", 0, 0)
        report = cost_report(ledger, PriceTable(1.5e-7, 6e-7))
        assert report.total_cost == 0.0

    def test_mean_calls(self):
        ledger = CostLedger()
        for qid in ("a", "b"):
            ledger.record_call(qid, 10, 10)
            ledger.record_call(qid, 10, 10)
        report = cost_report(ledger, PriceTable())
        assert report.mean_calls == 2.0

    def test_format_is_table_like(self):
        ledger = CostLedger()
        ledger.record_call("q1", 400, 100)
        text = format_cost_report(cost_report(ledger, PriceTable(1e-7, 2e-7)))
        assert "# LLM Call" in text
        assert "Total Token" in text
        assert "Total Cost" in text

    def test_report_total_equals_ledger_json_total(self):
        ledger = CostLedger(RunConfig().price_table())
        ledger.record_call("q1", 1, 1)
        ledger.record_call("q2", 1, 4)
        report = cost_report(ledger)
        assert report.total_cost == ledger.to_dict()["totals"]["cost"] == (1.5e-07 + 6e-07) + (1.5e-07 + 4 * 6e-07)

    def test_negative_prices_rejected(self):
        with pytest.raises(ValueError):
            PriceTable(-1.0, 0.0)
