"""Chat-provider abstraction: prompt templates, retries, stubs, and cost accounting.

Providers implement a single `generate(request)` method. The Gateway wraps a
provider with bounded exponential-backoff retries for transient transport
failures, an in-flight limit, and a thread-safe usage ledger. A *logical
call* is one successful completion regardless of how many transport attempts
it took; the ledger counts calls and attempts separately.

The HTTP policy of every remote client (chat, embedding, KGC scoring) lives
here too: `post_json` builds the headers and classifies the status codes, and
`with_retries` is the one bounded-retry loop.

The scripted stub provider is keyed by (template name, question id) so fixture
suites survive benign prompt-wording changes; a strict prompt-hash mode is
available for golden tests.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import threading
import time
from dataclasses import asdict, astuple, dataclass, fields
from importlib import resources
from pathlib import Path
from typing import Mapping, Protocol

logger = logging.getLogger(__name__)

TEMPLATE_PLACEHOLDERS: dict[str, tuple[str, ...]] = {
    "query_structuring": ("question",),
    "structural_enrich": ("quadruples", "1-hop path", "2-hop path"),
    "feature_enrich": ("entity list",),
    "question_answering": ("question", "knowledge graph"),
}
TEMPLATE_NAMES = tuple(TEMPLATE_PLACEHOLDERS)


class TemplateError(ValueError):
    """Template loading or rendering failed; `placeholder` names the offender when relevant."""

    def __init__(self, message: str, placeholder: str | None = None):
        super().__init__(message)
        self.placeholder = placeholder


class TransportError(RuntimeError):
    """Transient failure of a remote call; `with_retries` retries these."""


def with_retries(call, max_attempts: int = 3, backoff_base: float = 0.5, backoff_cap: float = 8.0, sleep=time.sleep):
    """Return `call()`, retrying it only on TransportError.

    Failed attempt n is followed by a sleep of min(cap, base * 2**(n-1)) s;
    after `max_attempts` failures the last error is re-raised as
    TransportError("gave up after N attempts: ...").
    """
    attempt = 1
    while True:
        try:
            return call()
        except TransportError as exc:
            logger.warning("attempt %d/%d failed: %s", attempt, max_attempts, exc)
            if attempt >= max_attempts:
                raise TransportError(f"gave up after {attempt} attempts: {exc}") from exc
        sleep(min(backoff_cap, backoff_base * (2 ** (attempt - 1))))
        attempt += 1


def http_session():
    """A new `requests.Session`; `requests` is imported only when a remote client is built."""
    import requests

    return requests.Session()


def post_json(session, endpoint: str, payload: Mapping, api_key_env: str | None, timeout: float) -> dict:
    """POST `payload` as JSON and return the decoded body.

    The bearer key is read from the environment variable `api_key_env`, when
    set. A failed request, HTTP 429 or a 5xx raises TransportError (worth
    retrying); any other 4xx raises RuntimeError.
    """
    headers = {"Content-Type": "application/json"}
    key = os.environ.get(api_key_env, "") if api_key_env else ""
    if key:
        headers["Authorization"] = f"Bearer {key}"
    try:
        resp = session.post(endpoint, json=payload, headers=headers, timeout=timeout)
    except OSError as exc:  # requests.RequestException and socket errors
        raise TransportError(f"request to {endpoint} failed: {exc}") from exc
    if resp.status_code >= 500 or resp.status_code == 429:
        raise TransportError(f"HTTP {resp.status_code} from {endpoint}")
    if resp.status_code >= 400:
        raise RuntimeError(f"HTTP {resp.status_code} from {endpoint}: {resp.text[:500]}")
    return resp.json()


class StubKeyError(LookupError):
    """Scripted stub has no canned response for the requested key."""


@dataclass(frozen=True)
class PromptTemplate:
    name: str
    body: str
    placeholders: tuple[str, ...]

    def __post_init__(self) -> None:
        for ph in self.placeholders:
            if "{" + ph + "}" not in self.body:
                raise TemplateError(f"template {self.name!r} body lacks placeholder {{{ph}}}", placeholder=ph)


def default_template_dir() -> Path:
    return Path(str(resources.files("kgqa").joinpath("templates")))


def load_template(name: str, directory: str | Path | None = None) -> PromptTemplate:
    if name not in TEMPLATE_PLACEHOLDERS:
        raise TemplateError(f"unknown template name: {name!r}")
    directory = Path(directory) if directory is not None else default_template_dir()
    path = directory / f"{name}.txt"
    if not path.is_file():
        raise TemplateError(f"template file not found: {path}")
    return PromptTemplate(name=name, body=path.read_text(encoding="utf-8"), placeholders=TEMPLATE_PLACEHOLDERS[name])


def load_templates(directory: str | Path | None = None) -> dict[str, PromptTemplate]:
    return {name: load_template(name, directory) for name in TEMPLATE_NAMES}


def render_template(template: PromptTemplate, bindings: Mapping[str, str]) -> str:
    """Literal substitution of the template's declared placeholders, nothing else."""
    rendered = template.body
    for ph in template.placeholders:
        if ph not in bindings:
            raise TemplateError(f"missing binding for placeholder {ph!r} in template {template.name!r}", placeholder=ph)
        rendered = rendered.replace("{" + ph + "}", bindings[ph])
    return rendered


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in ("system", "user"):
            raise ValueError(f"role must be 'system' or 'user', got {self.role!r}")


@dataclass(frozen=True)
class ChatRequest:
    """One chat completion request; generation defaults follow the pipeline config."""

    messages: tuple[ChatMessage, ...]
    temperature: float = 0.2
    top_p: float = 1.0
    n: int = 1
    max_tokens: int | None = None  # None = provider maximum
    template: str | None = None
    question_id: str | None = None

    def __post_init__(self) -> None:
        if not self.messages:
            raise ValueError("request needs at least one message")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @property
    def prompt_text(self) -> str:
        return "\n".join(m.content for m in self.messages)


def user_request(prompt: str, **kwargs) -> ChatRequest:
    return ChatRequest(messages=(ChatMessage("user", prompt),), **kwargs)


@dataclass(frozen=True)
class ChatResponse:
    content: str
    prompt_tokens: int
    completion_tokens: int
    provider_id: str

    def __post_init__(self) -> None:
        if self.prompt_tokens < 0 or self.completion_tokens < 0:
            raise ValueError("token counts must be >= 0")


@dataclass(frozen=True)
class ProviderReply:
    """Raw provider output; token counts are None when the provider reports no usage."""

    content: str
    prompt_tokens: int | None = None
    completion_tokens: int | None = None


class ChatProvider(Protocol):
    provider_id: str

    def generate(self, request: ChatRequest) -> ProviderReply: ...


def estimate_tokens(text: str) -> int:
    """Offline token estimate: ceil(UTF-8 byte length / 4). Real provider usage is preferred."""
    return math.ceil(len(text.encode("utf-8")) / 4)


@dataclass(frozen=True)
class PriceTable:
    input_per_token: float = 0.0
    output_per_token: float = 0.0

    def __post_init__(self) -> None:
        if self.input_per_token < 0 or self.output_per_token < 0:
            raise ValueError("per-token prices must be >= 0")


@dataclass(frozen=True)
class QuestionUsage:
    calls: int = 0
    attempts: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0

    def __add__(self, other: "QuestionUsage") -> "QuestionUsage":
        return QuestionUsage(*(a + b for a, b in zip(astuple(self), astuple(other))))

    def __sub__(self, other: "QuestionUsage") -> "QuestionUsage":
        return QuestionUsage(*(a - b for a, b in zip(astuple(self), astuple(other))))

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens

    def cost(self, prices: PriceTable) -> float:
        return self.prompt_tokens * prices.input_per_token + self.completion_tokens * prices.output_per_token


class CostLedger:
    """Per-question logical calls, attempts, and token usage. Safe for concurrent appends."""

    UNASSIGNED = "_unassigned"

    def __init__(self, prices: PriceTable | None = None):
        self.prices = prices or PriceTable()
        self._entries: dict[str, QuestionUsage] = {}
        self._lock = threading.Lock()

    def record_attempt(self, question_id: str | None) -> None:
        self.add(question_id or self.UNASSIGNED, QuestionUsage(attempts=1))

    def record_call(self, question_id: str | None, prompt_tokens: int, completion_tokens: int) -> None:
        usage = QuestionUsage(calls=1, prompt_tokens=prompt_tokens, completion_tokens=completion_tokens)
        self.add(question_id or self.UNASSIGNED, usage)

    def add(self, question_id: str, usage: QuestionUsage) -> None:
        """Count usage against a question; an all-zero usage creates no entry."""
        if usage != QuestionUsage():
            with self._lock:
                self._entries[question_id] = self._entries.get(question_id, QuestionUsage()) + usage

    def usage(self, question_id: str) -> QuestionUsage:
        with self._lock:
            return self._entries.get(question_id, QuestionUsage())

    def per_question(self) -> dict[str, QuestionUsage]:
        with self._lock:
            return dict(self._entries)

    def totals(self) -> QuestionUsage:
        return sum(self.per_question().values(), QuestionUsage())

    def total_calls(self) -> int:
        return self.totals().calls

    def to_dict(self) -> dict:
        totals = self.totals()
        return {
            "per_question": {
                qid: {**asdict(e), "cost": e.cost(self.prices)} for qid, e in sorted(self.per_question().items())
            },
            "totals": {**asdict(totals), "cost": totals.cost(self.prices)},
            "prices": asdict(self.prices),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "CostLedger":
        prices = payload.get("prices", {})
        ledger = cls(PriceTable(prices.get("input_per_token", 0.0), prices.get("output_per_token", 0.0)))
        for qid, entry in payload.get("per_question", {}).items():
            ledger._entries[qid] = QuestionUsage(**{f.name: int(entry.get(f.name, 0)) for f in fields(QuestionUsage)})
        return ledger


@dataclass(frozen=True)
class CostReport:
    per_question: dict[str, dict]
    n_questions: int
    total_calls: int
    total_prompt_tokens: int
    total_completion_tokens: int
    total_tokens: int
    total_cost: float
    mean_calls: float
    mean_tokens: float
    mean_cost: float


def cost_report(ledger: CostLedger, prices: PriceTable | None = None) -> CostReport:
    """Per-question and aggregate cost at the given per-token rates."""
    prices = prices or ledger.prices
    per_question = {}
    for qid, usage in sorted(ledger.per_question().items()):
        per_question[qid] = {
            "calls": usage.calls,
            "prompt_tokens": usage.prompt_tokens,
            "completion_tokens": usage.completion_tokens,
            "total_tokens": usage.total_tokens,
            "cost": usage.cost(prices),
        }
    n = len(per_question)
    total_calls = sum(e["calls"] for e in per_question.values())
    total_prompt = sum(e["prompt_tokens"] for e in per_question.values())
    total_completion = sum(e["completion_tokens"] for e in per_question.values())
    total_cost = sum(e["cost"] for e in per_question.values())
    return CostReport(
        per_question=per_question,
        n_questions=n,
        total_calls=total_calls,
        total_prompt_tokens=total_prompt,
        total_completion_tokens=total_completion,
        total_tokens=total_prompt + total_completion,
        total_cost=total_cost,
        mean_calls=total_calls / n if n else 0.0,
        mean_tokens=(total_prompt + total_completion) / n if n else 0.0,
        mean_cost=total_cost / n if n else 0.0,
    )


def format_cost_report(report: CostReport, label: str = "run") -> str:
    """Render the per-question means in the usual efficiency-table layout."""
    lines = [
        f"{'Model':<16}{'# LLM Call':>12}{'Total Token':>14}{'Total Cost':>14}",
        f"{label:<16}{report.mean_calls:>12.2f}{report.mean_tokens:>14.1f}{report.mean_cost:>14.2e}",
        "",
        f"questions: {report.n_questions}  calls: {report.total_calls}  "
        f"prompt tokens: {report.total_prompt_tokens}  completion tokens: {report.total_completion_tokens}  "
        f"cost: {report.total_cost:.6g}",
    ]
    return "\n".join(lines)


class ScriptedStubProvider:
    """Deterministic offline provider returning canned content.

    Lookup order: strict prompt-hash entries (when enabled) take precedence,
    then (template, question id). `on_missing` selects between raising and
    echoing the prompt back. A string `script` names a JSON file holding the script.
    """

    provider_id = "scripted-stub"

    def __init__(
        self,
        script: Mapping[str, Mapping[str, str]] | str | None = None,
        on_missing: str = "error",
        prompt_hash_script: Mapping[str, str] | None = None,
    ):
        if on_missing not in ("error", "echo"):
            raise ValueError("on_missing must be 'error' or 'echo'")
        if isinstance(script, str):
            script = json.loads(Path(script).read_text(encoding="utf-8"))
        self.script = {tpl: dict(entries) for tpl, entries in (script or {}).items()}
        self.prompt_hash_script = dict(prompt_hash_script or {})
        self.on_missing = on_missing

    @staticmethod
    def prompt_hash(prompt: str) -> str:
        return hashlib.sha256(prompt.encode("utf-8")).hexdigest()

    def generate(self, request: ChatRequest) -> ProviderReply:
        if self.prompt_hash_script:
            content = self.prompt_hash_script.get(self.prompt_hash(request.prompt_text))
            if content is not None:
                return ProviderReply(content=content)
        entries = self.script.get(request.template or "", {})
        content = entries.get(request.question_id or "")
        if content is None:
            if self.on_missing == "echo":
                return ProviderReply(content=request.prompt_text)
            raise StubKeyError(f"no scripted response for ({request.template!r}, {request.question_id!r})")
        return ProviderReply(content=content)


class EchoProvider:
    """Returns the prompt unchanged; handy as a null provider."""

    provider_id = "echo"

    def generate(self, request: ChatRequest) -> ProviderReply:
        return ProviderReply(content=request.prompt_text)


class RemoteChatProvider:
    """OpenAI-style chat completion endpoint.

    Request: {model, messages, temperature, top_p, n, max_tokens} ->
    response {choices: [{message: {content}}], usage: {prompt_tokens, completion_tokens}}.
    The API key is read from the environment variable named in the config.
    """

    def __init__(
        self,
        model: str,
        endpoint: str = "https://api.openai.com/v1/chat/completions",
        api_key_env: str = "OPENAI_API_KEY",
        timeout: float = 120.0,
        session=None,
    ):
        self.model = model
        self.endpoint = endpoint
        self.api_key_env = api_key_env
        self.timeout = timeout
        self._session = session if session is not None else http_session()
        self.provider_id = f"remote-{model}"

    def generate(self, request: ChatRequest) -> ProviderReply:
        payload: dict = {
            "model": self.model,
            "messages": [{"role": m.role, "content": m.content} for m in request.messages],
            "temperature": request.temperature,
            "top_p": request.top_p,
            "n": request.n,
        }
        if request.max_tokens is not None:
            payload["max_tokens"] = request.max_tokens
        body = post_json(self._session, self.endpoint, payload, self.api_key_env, self.timeout)
        content = body["choices"][0]["message"]["content"]
        usage = body.get("usage", {})
        return ProviderReply(
            content=content,
            prompt_tokens=usage.get("prompt_tokens"),
            completion_tokens=usage.get("completion_tokens"),
        )


class Gateway:
    """Provider wrapper adding retries, an in-flight bound, and ledger accounting."""

    def __init__(
        self,
        provider: ChatProvider,
        ledger: CostLedger | None = None,
        max_attempts: int = 3,
        backoff_base: float = 0.5,
        backoff_cap: float = 8.0,
        max_in_flight: int | None = None,
        sleep=time.sleep,
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if max_in_flight is not None and max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1 (or None for no bound)")
        self.provider = provider
        self.ledger = ledger if ledger is not None else CostLedger()
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._slots = threading.Semaphore(max_in_flight) if max_in_flight is not None else None
        self._sleep = sleep

    def complete(self, request: ChatRequest) -> ChatResponse:
        def attempt() -> ProviderReply:
            """One provider try; successful and transient-failed tries each count as an attempt."""
            try:
                reply = self.provider.generate(request)
            except TransportError:
                self.ledger.record_attempt(request.question_id)
                raise
            self.ledger.record_attempt(request.question_id)
            return reply

        if self._slots is not None:
            self._slots.acquire()
        try:
            reply = with_retries(attempt, self.max_attempts, self.backoff_base, self.backoff_cap, self._sleep)
        finally:
            if self._slots is not None:
                self._slots.release()
        prompt_tokens = reply.prompt_tokens
        if prompt_tokens is None:
            prompt_tokens = estimate_tokens(request.prompt_text)
        completion_tokens = reply.completion_tokens
        if completion_tokens is None:
            completion_tokens = estimate_tokens(reply.content)
        self.ledger.record_call(request.question_id, prompt_tokens, completion_tokens)
        return ChatResponse(
            content=reply.content,
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
            provider_id=self.provider.provider_id,
        )
