"""Wire-format tests for the remote provider clients, using fake HTTP sessions."""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

import kgqa.evaluation
from kgqa.embedding import MAX_INPUTS_PER_REQUEST, EmbeddingCache, EmbeddingError, RemoteEmbedder, embed_batch
from kgqa.evaluation import RemoteKGCScorer
from kgqa.gateway import (
    CostLedger,
    EchoProvider,
    Gateway,
    RemoteChatProvider,
    TransportError,
    post_json,
    user_request,
    with_retries,
)
from kgqa.graph import EntityRef, Relation, Triple


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
            sleep=lambda _: None,
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

    def test_server_error_retried_then_success(self):
        embedder, session = self.make(
            [FakeResponse(status_code=500), FakeResponse(payload=embedding_payload([[1, 0, 0, 0]]))]
        )
        out = embedder.embed_many(["x"])
        assert len(session.requests) == 2
        assert len(out) == 1

    def test_bounded_retries_then_error(self):
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
        reply = provider.generate(user_request("hello", temperature=0.2))
        sent = session.requests[0]["json"]
        assert sent["model"] == "chat-x"
        assert sent["messages"] == [{"role": "user", "content": "hello"}]
        assert sent["temperature"] == 0.2
        assert sent["top_p"] == 1.0
        assert sent["n"] == 1
        assert "max_tokens" not in sent  # provider maximum by default
        assert reply.content == "hi"
        assert reply.prompt_tokens == 7
        assert reply.completion_tokens == 2

    def test_max_tokens_forwarded_when_set(self):
        provider, session = self.make([FakeResponse(payload=chat_payload("hi"))])
        provider.generate(user_request("hello", max_tokens=64))
        assert session.requests[0]["json"]["max_tokens"] == 64

    def test_missing_usage_estimated_by_gateway(self):
        provider, _ = self.make([FakeResponse(payload=chat_payload("four byte"))])
        gateway = Gateway(provider, sleep=lambda _: None)
        response = gateway.complete(user_request("12345678"))
        assert response.prompt_tokens == 2
        assert response.completion_tokens == 3

    def test_rate_limit_is_transport_error(self):
        provider, _ = self.make([FakeResponse(status_code=429)])
        with pytest.raises(TransportError):
            provider.generate(user_request("x"))

    def test_client_error_not_retryable(self):
        provider, _ = self.make([FakeResponse(status_code=400, payload={"error": "bad"})])
        with pytest.raises(RuntimeError):
            provider.generate(user_request("x"))

    def test_api_key_header(self, monkeypatch):
        monkeypatch.setenv("CHAT_KEY", "k123")
        provider, session = self.make([FakeResponse(payload=chat_payload("ok"))], api_key_env="CHAT_KEY")
        provider.generate(user_request("x"))
        assert session.requests[0]["headers"]["Authorization"] == "Bearer k123"

    def test_gateway_retries_server_errors(self):
        provider, session = self.make(
            [FakeResponse(status_code=503), FakeResponse(status_code=503), FakeResponse(payload=chat_payload("ok"))]
        )
        ledger = CostLedger()
        gateway = Gateway(provider, ledger=ledger, sleep=lambda _: None)
        assert gateway.complete(user_request("x", question_id="q1")).content == "ok"
        assert len(session.requests) == 3
        usage = ledger.usage("q1")
        assert (usage.calls, usage.attempts) == (1, 3)


class TestRemoteKGCScorer:
    def test_score_request_and_parse(self):
        session = FakeSession([FakeResponse(payload={"data": [{"score": 0.42}]})])
        scorer = RemoteKGCScorer("https://kgc.example/v1", session=session)
        t = Triple(EntityRef("Beijing"), Relation("located_in"), EntityRef("China"))
        assert scorer([t]) == [0.42]
        assert session.requests[0]["json"] == {"input": ["Beijing located in China"]}

    def test_graph_scored_in_one_request(self):
        session = FakeSession([FakeResponse(payload={"data": [{"score": 0.1}, {"score": 0.2}, {"score": 0.3}]})])
        scorer = RemoteKGCScorer("https://kgc.example/v1", session=session)
        triples = [Triple(EntityRef(f"s{i}"), Relation("r"), EntityRef(f"o{i}"), index=i) for i in range(3)]
        assert scorer(triples) == [0.1, 0.2, 0.3]
        assert len(session.requests) == 1
        assert session.requests[0]["json"] == {"input": ["s0 r o0", "s1 r o1", "s2 r o2"]}

    def test_score_count_mismatch_rejected(self):
        session = FakeSession([FakeResponse(payload={"data": [{"score": 0.1}]})])
        scorer = RemoteKGCScorer("https://kgc.example/v1", session=session)
        triples = [Triple(EntityRef(f"s{i}"), Relation("r"), EntityRef(f"o{i}"), index=i) for i in range(2)]
        with pytest.raises(ValueError, match="1 scores for 2 triples"):
            scorer(triples)

    def test_server_error_retried(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(kgqa.evaluation, "with_retries", lambda call: with_retries(call, sleep=sleeps.append))
        session = FakeSession([FakeResponse(status_code=503), FakeResponse(payload={"data": [{"score": 0.9}]})])
        scorer = RemoteKGCScorer("https://kgc.example/v1", session=session)
        assert scorer([Triple(EntityRef("a"), Relation("r"), EntityRef("b"))]) == [0.9]
        assert len(session.requests) == 2
        assert sleeps == [0.5]

    def test_client_error_not_retried(self):
        session = FakeSession([FakeResponse(status_code=400), FakeResponse(payload={"data": [{"score": 0.9}]})])
        scorer = RemoteKGCScorer("https://kgc.example/v1", session=session)
        with pytest.raises(RuntimeError, match="HTTP 400"):
            scorer([Triple(EntityRef("a"), Relation("r"), EntityRef("b"))])
        assert len(session.requests) == 1


class TestHttpPolicy:
    def test_backoff_capped(self):
        sleeps = []

        def always_down():
            raise TransportError("HTTP 503")

        with pytest.raises(TransportError, match="gave up after 7 attempts: HTTP 503"):
            with_retries(always_down, max_attempts=7, sleep=sleeps.append)
        assert sleeps == [0.5, 1.0, 2.0, 4.0, 8.0, 8.0]

    def test_connection_failure_is_transient(self):
        session = FakeSession([ConnectionError("refused")])
        with pytest.raises(TransportError, match="request to https://x.example failed: refused"):
            post_json(session, "https://x.example", {}, None, 1.0)


class TestGatewayInFlightBound:
    def test_max_in_flight_enforced(self):
        active = 0
        peak = 0
        lock = threading.Lock()

        class SlowProvider:
            provider_id = "slow"

            def generate(self, request):
                nonlocal active, peak
                with lock:
                    active += 1
                    peak = max(peak, active)
                time.sleep(0.02)
                with lock:
                    active -= 1
                return EchoProvider().generate(request)

        gateway = Gateway(SlowProvider(), max_in_flight=2, sleep=lambda _: None)
        threads = [
            threading.Thread(target=lambda: gateway.complete(user_request("x")))
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert peak <= 2

    @pytest.mark.parametrize("bound", [0, -1])
    def test_bound_below_one_rejected(self, bound):
        with pytest.raises(ValueError, match="max_in_flight must be >= 1"):
            Gateway(EchoProvider(), max_in_flight=bound)
