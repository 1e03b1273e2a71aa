"""Wire-format tests for the remote provider clients, using fake HTTP sessions."""

from __future__ import annotations

import json

import numpy as np
import pytest

import kgqa.embedding
import kgqa.evaluation
import kgqa.gateway
from kgqa.embedding import MAX_INPUTS_PER_REQUEST, EmbeddingCache, EmbeddingError, RemoteEmbedder, embed_batch
from kgqa.evaluation import RemoteKGCScorer
from kgqa.gateway import (
    ChatRequest,
    CostLedger,
    Gateway,
    QuestionUsage,
    RemoteChatProvider,
    TransportError,
    post_json,
    with_retries,
)
from kgqa.graph import Triple


class FakeResponse:
    def __init__(self, status_code=200, payload=None):
        self.status_code = status_code
        self._payload = payload if payload is not None else {}
        self.text = json.dumps(self._payload)

    def json(self):
        return self._payload


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def embedding_payload(vectors):
    return {"data": [{"embedding": list(v)} for v in vectors]}


class TestRemoteEmbedder:
    def make(self, responses, **kwargs):
        session = FakeSession(responses)
        embedder = RemoteEmbedder(
            "https://emb.example/v1",
            "encoder-x",
            dimension=4,
            session=session,
            **kwargs,
        )
        return embedder, session

    def test_request_payload_and_order(self):
        embedder, session = self.make([FakeResponse(payload=embedding_payload([[1, 0, 0, 0], [0, 2, 0, 0]]))])
        out = embedder.embed_many(["first", "second"])
        assert session.requests[0]["json"] == {"input": ["first", "second"], "model": "encoder-x"}
        assert (out[0] == np.array([1.0, 0.0, 0.0, 0.0])).all()
        assert (out[1] == np.array([0.0, 1.0, 0.0, 0.0])).all()  # normalized on receipt

    def test_api_key_header_from_env(self, monkeypatch):
        monkeypatch.setenv("EMB_KEY", "sekret")
        embedder, session = self.make(
            [FakeResponse(payload=embedding_payload([[1, 0, 0, 0]]))], api_key_env="EMB_KEY"
        )
        embedder.embed_many(["x"])
        assert session.requests[0]["headers"]["Authorization"] == "Bearer sekret"

    def test_server_error_retried_then_success(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(kgqa.embedding, "with_retries", lambda call: with_retries(call, sleep=sleeps.append))
        embedder, session = self.make(
            [FakeResponse(status_code=500), FakeResponse(payload=embedding_payload([[1, 0, 0, 0]]))]
        )
        out = embedder.embed_many(["x"])
        assert len(session.requests) == 2
        assert len(out) == 1
        assert sleeps == [0.5]

    def test_bounded_retries_then_error(self, monkeypatch):
        monkeypatch.setattr(kgqa.embedding, "with_retries", lambda call: with_retries(call, sleep=lambda _: None))
        embedder, session = self.make([FakeResponse(status_code=500)] * 5)
        with pytest.raises(EmbeddingError, match="3 attempts"):
            embedder.embed_many(["x"])
        assert len(session.requests) == 3

    @pytest.mark.parametrize(
        "response",
        [FakeResponse(status_code=400, payload={"error": "bad input"}), FakeResponse(payload={"object": "list"})],
        ids=["client-error", "no-data"],
    )
    def test_non_transient_failure_not_retried(self, response):
        embedder, session = self.make([response, FakeResponse(payload=embedding_payload([[1, 0, 0, 0]]))])
        with pytest.raises(EmbeddingError):
            embedder.embed_many(["x"])
        assert len(session.requests) == 1

    @pytest.mark.parametrize(
        "payload",
        [
            {"data": [{"vector": [1, 0, 0, 0]}]},
            {"data": [None]},
            {"data": 5},
            {"data": [{"embedding": "1, 0, 0, 0"}]},
            ["not", "an", "object"],
        ],
        ids=["no-embedding-key", "null-item", "data-not-a-list", "string-embedding", "body-not-an-object"],
    )
    def test_malformed_reply_fails_once_naming_the_endpoint(self, payload):
        embedder, session = self.make([FakeResponse(payload=payload), FakeResponse(payload=embedding_payload([[1, 0, 0, 0]]))])
        with pytest.raises(EmbeddingError, match="malformed reply from https://emb.example/v1"):
            embedder.embed_many(["x"])
        assert len(session.requests) == 1

    def test_wrong_cardinality_rejected(self):
        embedder, _ = self.make([FakeResponse(payload=embedding_payload([[1, 0, 0, 0]]))])
        with pytest.raises(EmbeddingError, match="expected 2"):
            embedder.embed_many(["a", "b"])

    def test_wrong_dimension_rejected(self):
        embedder, _ = self.make([FakeResponse(payload=embedding_payload([[1, 0]]))])
        with pytest.raises(EmbeddingError, match="dimension"):
            embedder.embed_many(["a"])

    def test_empty_input_no_request(self):
        embedder, session = self.make([])
        assert embedder.embed_many([]) == []
        assert session.requests == []

    def test_large_batch_split_into_capped_requests(self):
        texts = [f"t{i}" for i in range(5000)]
        vectors = [[1, i, i % 7, 0] for i in range(5000)]
        slices = [slice(0, 2048), slice(2048, 4096), slice(4096, 5000)]
        responses = [FakeResponse(payload=embedding_payload(vectors[s])) for s in slices]
        embedder, session = self.make(responses)
        out = embedder.embed_many(texts)
        assert MAX_INPUTS_PER_REQUEST == 2048
        assert [len(r["json"]["input"]) for r in session.requests] == [2048, 2048, 904]
        assert [text for r in session.requests for text in r["json"]["input"]] == texts
        for s, response in zip(slices, responses):
            alone, _ = self.make([response])
            assert (out[s] == alone.embed_many(texts[s])).all()

    def test_failed_later_request_stores_nothing(self):
        first = FakeResponse(payload=embedding_payload([[1, 0, 0, 0]] * 2048))
        embedder, session = self.make([first, FakeResponse(status_code=400, payload={"error": "bad"})])
        cache = EmbeddingCache()
        with pytest.raises(EmbeddingError):
            embed_batch([f"t{i}" for i in range(5000)], embedder, cache)
        assert len(session.requests) == 2
        assert len(cache) == 0


def chat_payload(content, usage=None):
    payload = {"choices": [{"message": {"content": content}}]}
    if usage is not None:
        payload["usage"] = usage
    return payload


class TestRemoteChatProvider:
    def make(self, responses, **kwargs):
        session = FakeSession(responses)
        provider = RemoteChatProvider("chat-x", endpoint="https://chat.example/v1", session=session, **kwargs)
        return provider, session

    def test_request_payload_shape(self):
        provider, session = self.make([FakeResponse(payload=chat_payload("hi", {"prompt_tokens": 7, "completion_tokens": 2}))])
        reply = provider.generate(ChatRequest("hello", 0.2, "question_answering", "q1"))
        # One user message, top_p 1 and n 1; no max_tokens, so the provider maximum applies.
        assert session.requests[0]["json"] == {
            "model": "chat-x",
            "messages": [{"role": "user", "content": "hello"}],
            "temperature": 0.2,
            "top_p": 1.0,
            "n": 1,
        }
        assert reply.content == "hi"
        assert reply.prompt_tokens == 7
        assert reply.completion_tokens == 2

    def test_missing_usage_estimated_by_gateway(self):
        provider, _ = self.make([FakeResponse(payload=chat_payload("four byte"))])
        gateway = Gateway(provider)
        response = gateway.complete(ChatRequest("12345678"))
        assert response.prompt_tokens == 2
        assert response.completion_tokens == 3

    def test_null_usage_estimated_by_gateway(self):
        provider, _ = self.make([FakeResponse(payload={**chat_payload("four byte"), "usage": None})])
        response = Gateway(provider).complete(ChatRequest("12345678"))
        assert (response.prompt_tokens, response.completion_tokens) == (2, 3)

    @pytest.mark.parametrize("usage", [None, {"prompt_tokens": 7, "completion_tokens": 2}])
    def test_null_content_fails_once_naming_the_endpoint(self, usage):
        provider, session = self.make([FakeResponse(payload={**chat_payload(None), "usage": usage})])
        ledger = CostLedger()
        with pytest.raises(ValueError, match="https://chat.example/v1"):
            Gateway(provider, ledger=ledger).complete(ChatRequest("x", question_id="q1"))
        assert len(session.requests) == 1
        assert ledger.per_question() == {"q1": QuestionUsage(attempts=1)}

    @pytest.mark.parametrize(
        "payload",
        [{"object": "error"}, {"choices": []}, {"choices": [{"text": "hi"}]}, {"choices": None}, {**chat_payload("hi"), "usage": 5}],
        ids=["no-choices", "empty-choices", "no-message", "null-choices", "usage-not-an-object"],
    )
    def test_malformed_reply_fails_once_naming_the_endpoint(self, payload):
        provider, session = self.make([FakeResponse(payload=payload), FakeResponse(payload=chat_payload("ok"))])
        ledger = CostLedger()
        with pytest.raises(ValueError, match="malformed reply from https://chat.example/v1"):
            Gateway(provider, ledger=ledger).complete(ChatRequest("x", question_id="q1"))
        assert len(session.requests) == 1
        assert ledger.per_question() == {"q1": QuestionUsage(attempts=1)}

    def test_rate_limit_is_transport_error(self):
        provider, _ = self.make([FakeResponse(status_code=429)])
        with pytest.raises(TransportError):
            provider.generate(ChatRequest("x"))

    def test_client_error_not_retryable(self):
        provider, _ = self.make([FakeResponse(status_code=400, payload={"error": "bad"})])
        with pytest.raises(RuntimeError):
            provider.generate(ChatRequest("x"))

    def test_api_key_header(self, monkeypatch):
        monkeypatch.setenv("CHAT_KEY", "k123")
        provider, session = self.make([FakeResponse(payload=chat_payload("ok"))], api_key_env="CHAT_KEY")
        provider.generate(ChatRequest("x"))
        assert session.requests[0]["headers"]["Authorization"] == "Bearer k123"

    def test_gateway_retries_server_errors(self, monkeypatch):
        monkeypatch.setattr(kgqa.gateway, "with_retries", lambda call: with_retries(call, sleep=lambda _: None))
        provider, session = self.make(
            [FakeResponse(status_code=503), FakeResponse(status_code=503), FakeResponse(payload=chat_payload("ok"))]
        )
        ledger = CostLedger()
        gateway = Gateway(provider, ledger=ledger)
        assert gateway.complete(ChatRequest("x", question_id="q1")).content == "ok"
        assert len(session.requests) == 3
        usage = ledger.usage("q1")
        assert (usage.calls, usage.attempts) == (1, 3)


class TestRemoteKGCScorer:
    def test_score_request_and_parse(self):
        session = FakeSession([FakeResponse(payload={"data": [{"score": 0.42}]})])
        scorer = RemoteKGCScorer("https://kgc.example/v1", session=session)
        t = Triple("Beijing", "located_in", "China")
        assert scorer([t]) == [0.42]
        assert session.requests[0]["json"] == {"input": ["Beijing located in China"]}

    def test_graph_scored_in_one_request(self):
        session = FakeSession([FakeResponse(payload={"data": [{"score": 0.1}, {"score": 0.2}, {"score": 0.3}]})])
        scorer = RemoteKGCScorer("https://kgc.example/v1", session=session)
        triples = [Triple(f"s{i}", "r", f"o{i}", index=i) for i in range(3)]
        assert scorer(triples) == [0.1, 0.2, 0.3]
        assert len(session.requests) == 1
        assert session.requests[0]["json"] == {"input": ["s0 r o0", "s1 r o1", "s2 r o2"]}

    def test_large_graph_split_into_capped_requests(self):
        n = MAX_INPUTS_PER_REQUEST + 5
        triples = [Triple(f"s{i}", "r", f"o{i}", index=i) for i in range(n)]
        scores = [i / n for i in range(n)]
        session = FakeSession(
            [
                FakeResponse(payload={"data": [{"score": x} for x in scores[:MAX_INPUTS_PER_REQUEST]]}),
                FakeResponse(payload={"data": [{"score": x} for x in scores[MAX_INPUTS_PER_REQUEST:]]}),
            ]
        )
        assert RemoteKGCScorer("https://kgc.example/v1", session=session)(triples) == scores
        assert [len(r["json"]["input"]) for r in session.requests] == [MAX_INPUTS_PER_REQUEST, 5]
        assert [text for r in session.requests for text in r["json"]["input"]] == [f"s{i} r o{i}" for i in range(n)]

    def test_count_mismatch_checked_per_request(self):
        n = MAX_INPUTS_PER_REQUEST + 2
        triples = [Triple(f"s{i}", "r", f"o{i}", index=i) for i in range(n)]
        session = FakeSession(
            [
                FakeResponse(payload={"data": [{"score": 0.5}] * (MAX_INPUTS_PER_REQUEST + 1)}),
                FakeResponse(payload={"data": [{"score": 0.5}]}),
            ]
        )
        with pytest.raises(ValueError, match=f"{MAX_INPUTS_PER_REQUEST + 1} scores for {MAX_INPUTS_PER_REQUEST} triples"):
            RemoteKGCScorer("https://kgc.example/v1", session=session)(triples)
        assert len(session.requests) == 1

    def test_each_request_retried_on_its_own(self, monkeypatch):
        monkeypatch.setattr(kgqa.evaluation, "with_retries", lambda call: with_retries(call, sleep=lambda _: None))
        n = MAX_INPUTS_PER_REQUEST + 1
        triples = [Triple(f"s{i}", "r", f"o{i}", index=i) for i in range(n)]
        full = FakeResponse(payload={"data": [{"score": 0.5}] * MAX_INPUTS_PER_REQUEST})
        tail = FakeResponse(payload={"data": [{"score": 0.25}]})
        down = FakeResponse(status_code=503)
        session = FakeSession([down, down, full, down, down, tail])
        assert RemoteKGCScorer("https://kgc.example/v1", session=session)(triples) == [0.5] * (n - 1) + [0.25]
        assert len(session.requests) == 6

    def test_score_count_mismatch_rejected(self):
        session = FakeSession([FakeResponse(payload={"data": [{"score": 0.1}]})])
        scorer = RemoteKGCScorer("https://kgc.example/v1", session=session)
        triples = [Triple(f"s{i}", "r", f"o{i}", index=i) for i in range(2)]
        with pytest.raises(ValueError, match="1 scores for 2 triples"):
            scorer(triples)

    def test_server_error_retried(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(kgqa.evaluation, "with_retries", lambda call: with_retries(call, sleep=sleeps.append))
        session = FakeSession([FakeResponse(status_code=503), FakeResponse(payload={"data": [{"score": 0.9}]})])
        scorer = RemoteKGCScorer("https://kgc.example/v1", session=session)
        assert scorer([Triple("a", "r", "b")]) == [0.9]
        assert len(session.requests) == 2
        assert sleeps == [0.5]

    def test_gives_up_after_three_requests(self, monkeypatch):
        monkeypatch.setattr(kgqa.evaluation, "with_retries", lambda call: with_retries(call, sleep=lambda _: None))
        session = FakeSession([FakeResponse(status_code=503)] * 4)
        scorer = RemoteKGCScorer("https://kgc.example/v1", session=session)
        with pytest.raises(TransportError, match="gave up after 3 attempts: HTTP 503"):
            scorer([Triple("a", "r", "b")])
        assert len(session.requests) == 3

    @pytest.mark.parametrize(
        "payload",
        [{"scores": [0.9]}, {"data": [{"value": 0.9}]}, {"data": [{"score": "high"}]}, {"data": [None]}],
        ids=["no-data", "no-score-key", "non-numeric-score", "null-item"],
    )
    def test_malformed_reply_fails_once_naming_the_endpoint(self, payload):
        session = FakeSession([FakeResponse(payload=payload), FakeResponse(payload={"data": [{"score": 0.9}]})])
        scorer = RemoteKGCScorer("https://kgc.example/v1", session=session)
        with pytest.raises(ValueError, match="malformed reply from https://kgc.example/v1"):
            scorer([Triple("a", "r", "b")])
        assert len(session.requests) == 1

    def test_client_error_not_retried(self):
        session = FakeSession([FakeResponse(status_code=400), FakeResponse(payload={"data": [{"score": 0.9}]})])
        scorer = RemoteKGCScorer("https://kgc.example/v1", session=session)
        with pytest.raises(RuntimeError, match="HTTP 400"):
            scorer([Triple("a", "r", "b")])
        assert len(session.requests) == 1


class TestHttpPolicy:
    def test_backoff_capped(self):
        """Three attempts at most, so the backoff never exceeds 0.5 s and then 1.0 s."""
        sleeps = []
        attempts = []

        def always_down():
            attempts.append(1)
            raise TransportError("HTTP 503")

        with pytest.raises(TransportError, match="gave up after 3 attempts: HTTP 503"):
            with_retries(always_down, sleep=sleeps.append)
        assert (len(attempts), sleeps) == (3, [0.5, 1.0])

    def test_connection_failure_is_transient(self):
        session = FakeSession([ConnectionError("refused")])
        with pytest.raises(TransportError, match="request to https://x.example failed: refused"):
            post_json(session, "https://x.example", {}, None, 1.0)
