"""Chat-provider abstraction: prompt templates, retries, stubs, and cost accounting.

Providers implement a single `generate(request)` method. The Gateway wraps a
provider with bounded exponential-backoff retries for transient transport
failures and a thread-safe usage ledger. A *logical call* is one successful
completion regardless of how many transport attempts it took; the ledger
counts calls and attempts separately.

The HTTP policy of every remote client (chat, embedding, KGC scoring) lives
here too: `post_json` builds the headers and classifies the status codes, and
`with_retries` is the one bounded-retry loop, with one fixed policy
(`MAX_ATTEMPTS`, `BACKOFF_BASE`) for all three clients.

The scripted stub provider is keyed by (template name, question id) so fixture
suites survive benign prompt-wording changes.
"""

from __future__ import annotations

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
    """Template loading or rendering failed."""


class TransportError(RuntimeError):
    """Transient failure of a remote call; `with_retries` retries these."""


MAX_ATTEMPTS = 3
BACKOFF_BASE = 0.5  # seconds before the second attempt, doubled before each later one
DEFAULT_TEMPERATURE = 0.2  # the evaluation protocol's sampling temperature for every chat call


def with_retries(call, sleep=time.sleep):
    """Return `call()`, retrying it only on TransportError: failed attempt n is followed
    by a sleep of BACKOFF_BASE * 2**(n-1) s (0.5 s, then 1.0 s), and after MAX_ATTEMPTS
    failures the last error is re-raised as TransportError("gave up after 3 attempts: ...")."""
    attempt = 1
    while True:
        try:
            return call()
        except TransportError as exc:
            logger.warning("attempt %d/%d failed: %s", attempt, MAX_ATTEMPTS, exc)
            if attempt >= MAX_ATTEMPTS:
                raise TransportError(f"gave up after {attempt} attempts: {exc}") from exc
        sleep(BACKOFF_BASE * (2 ** (attempt - 1)))
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
                raise TemplateError(f"template {self.name!r} body lacks placeholder {{{ph}}}")


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
            raise TemplateError(f"missing binding for placeholder {ph!r} in template {template.name!r}")
        rendered = rendered.replace("{" + ph + "}", bindings[ph])
    return rendered


@dataclass(frozen=True)
class ChatRequest:
    """One single-user-message chat request, by default at the pipeline config's temperature."""

    prompt: str
    temperature: float = DEFAULT_TEMPERATURE
    template: str | None = None
    question_id: str | None = None

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")


@dataclass(frozen=True)
class ProviderReply:
    """Provider output; a token count is None when unreported. `Gateway.complete` returns both set."""

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
        per_question, totals, total_cost = _priced(self, self.prices)
        return {
            "per_question": {qid: {**asdict(usage), "cost": cost} for qid, (usage, cost) in per_question.items()},
            "totals": {**asdict(totals), "cost": total_cost},
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


def _priced(ledger: CostLedger, prices: PriceTable) -> tuple[dict[str, tuple[QuestionUsage, float]], QuestionUsage, float]:
    """{question id: (usage, cost)} in question-id order, the summed usage, and the total
    cost: the per-question costs added in that order. ledger.json and cost_report both use it."""
    per_question = {qid: (usage, usage.cost(prices)) for qid, usage in sorted(ledger.per_question().items())}
    totals = sum((usage for usage, _ in per_question.values()), QuestionUsage())
    return per_question, totals, sum((cost for _, cost in per_question.values()), 0.0)


def cost_report(ledger: CostLedger, prices: PriceTable | None = None) -> CostReport:
    """Per-question and aggregate cost at the given per-token rates (the ledger's by default)."""
    per_question, totals, total_cost = _priced(ledger, prices or ledger.prices)
    n = len(per_question)
    return CostReport(
        per_question={
            qid: {
                "calls": usage.calls,
                "prompt_tokens": usage.prompt_tokens,
                "completion_tokens": usage.completion_tokens,
                "total_tokens": usage.total_tokens,
                "cost": cost,
            }
            for qid, (usage, cost) in per_question.items()
        },
        n_questions=n,
        total_calls=totals.calls,
        total_prompt_tokens=totals.prompt_tokens,
        total_completion_tokens=totals.completion_tokens,
        total_tokens=totals.total_tokens,
        total_cost=total_cost,
        mean_calls=totals.calls / n if n else 0.0,
        mean_tokens=totals.total_tokens / n if n else 0.0,
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
    """Deterministic offline provider returning the canned content scripted for a
    request's (template, question id); a missing key raises StubKeyError. A string
    `script` names a JSON file holding the script; a script that is not an object
    of objects of strings raises ValueError.
    """

    provider_id = "scripted-stub"

    def __init__(self, script: Mapping[str, Mapping[str, str]] | str | None = None):
        if isinstance(script, str):
            script = json.loads(Path(script).read_text(encoding="utf-8"))
        script = {} if script is None else script
        if not isinstance(script, Mapping) or not all(
            isinstance(entries, Mapping) and all(isinstance(c, str) for c in entries.values()) for entries in script.values()
        ):
            raise ValueError("stub script must be an object of objects of strings")
        self.script = {tpl: dict(entries) for tpl, entries in script.items()}

    def generate(self, request: ChatRequest) -> ProviderReply:
        content = self.script.get(request.template or "", {}).get(request.question_id or "")
        if content is None:
            raise StubKeyError(f"no scripted response for ({request.template!r}, {request.question_id!r})")
        return ProviderReply(content=content)


class EchoProvider:
    """Returns the prompt unchanged; handy as a null provider."""

    provider_id = "echo"

    def generate(self, request: ChatRequest) -> ProviderReply:
        return ProviderReply(content=request.prompt)


class RemoteChatProvider:
    """OpenAI-style chat completion endpoint.

    Request: {model, messages: [one user message], temperature, top_p: 1, n: 1}, with no
    max_tokens so the provider's maximum applies -> response {choices: [{message: {content}}],
    usage: {prompt_tokens, completion_tokens}}. A missing or null usage leaves both counts
    to the gateway's estimate; a malformed reply or a non-string content raises ValueError.
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
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "top_p": 1.0,
            "n": 1,
        }
        body = post_json(self._session, self.endpoint, payload, self.api_key_env, self.timeout)
        try:
            content = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ValueError(f"malformed reply from {self.endpoint}: {exc!r}") from exc
        if not isinstance(content, str):
            raise ValueError(f"reply from {self.endpoint} has no text content, got {content!r}")
        usage = body.get("usage") or {}
        if not isinstance(usage, dict):
            raise ValueError(f"malformed reply from {self.endpoint}: usage {usage!r}")
        return ProviderReply(
            content=content,
            prompt_tokens=usage.get("prompt_tokens"),
            completion_tokens=usage.get("completion_tokens"),
        )


class Gateway:
    """Provider wrapper adding retries and ledger accounting."""

    def __init__(self, provider: ChatProvider, ledger: CostLedger | None = None):
        self.provider = provider
        self.ledger = ledger if ledger is not None else CostLedger()

    def complete(self, request: ChatRequest) -> ProviderReply:
        """The provider's reply with both token counts set: a count the provider did not
        report is estimated, and one that is not an int >= 0 raises ValueError before the
        call is recorded."""

        def attempt() -> ProviderReply:
            """One provider try; every try counts as an attempt, whatever its outcome."""
            try:
                return self.provider.generate(request)
            finally:
                self.ledger.record_attempt(request.question_id)

        reply = with_retries(attempt)
        prompt_tokens = estimate_tokens(request.prompt) if reply.prompt_tokens is None else reply.prompt_tokens
        completion_tokens = estimate_tokens(reply.content) if reply.completion_tokens is None else reply.completion_tokens
        if not all(type(n) is int and n >= 0 for n in (prompt_tokens, completion_tokens)):
            raise ValueError(f"token counts must be ints >= 0, got {prompt_tokens!r} and {completion_tokens!r}")
        self.ledger.record_call(request.question_id, prompt_tokens, completion_tokens)
        return ProviderReply(reply.content, prompt_tokens, completion_tokens)
