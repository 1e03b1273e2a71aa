"""Batch pipeline: stage orchestration, artifacts, resume, and diagnostics.

Stages run per question with isolated failures: a record that errors in one
stage is written to that stage's error file and simply has no row for
downstream stages to consume. Stage outputs are JSONL files sorted by
question id, so artifacts are byte-identical across reruns regardless of
worker count; anything timestamped goes to run.log only.

Resume works through per-id row files under rows/<stage>/; deleting a row
file reprocesses exactly that record. Each stage records the content hashes
of the upstream artifacts it consumed; when an upstream artifact changes,
the stage's rows are invalidated and recomputed. A row file holds the
record's artifact line, then the provider usage that produced it, and
ledger.json is folded from the row files, so it always matches the rows.
"""

from __future__ import annotations

import csv
import hashlib
import inspect
import itertools
import json
import logging
import math
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path, PurePath
from typing import Callable, Mapping, Sequence

from .answering import build_qa_prompt, normalize_answer, parse_final_answers
from .atomic import write_atomic
from .embedding import EmbeddingCache, ReferenceEmbedder, RemoteEmbedder, embed_batch
from .enrichment import (
    associate_queries,
    build_feature_prompt,
    collect_entity_contexts,
    filter_and_build_structural_prompt,
    merge_enriched,
    parse_feature_output,
    parse_structural_output,
)
from .evaluation import (
    ConstantScorer,
    EvalReport,
    GraphQualityReport,
    RemoteKGCScorer,
    build_eval_report,
    export_quality_report,
    graph_quality,
)
from .gateway import (
    DEFAULT_TEMPERATURE,
    ChatRequest,
    CostLedger,
    EchoProvider,
    Gateway,
    PriceTable,
    QuestionUsage,
    RemoteChatProvider,
    ScriptedStubProvider,
    estimate_tokens,
    load_templates,
)
from .graph import GROUP_MODES, Triple, graph_keys, textualize_triple
from .pruning import rank_rows, score_columns
from .queries import decompose, decomposition_to_dict, fallback_graph_query

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Ablation:
    """The stages an ablation runs and which enrichment prompts its enrich stage sends."""

    plan: tuple[str, ...]
    structural: bool = True
    feature: bool = True


_FULL_PLAN = ("parse", "prune", "enrich", "answer", "eval")

ABLATION_TABLE = {
    "full": Ablation(_FULL_PLAN),
    "no-enrich": Ablation(("parse", "prune", "answer", "eval")),
    "no-prune-no-enrich": Ablation(("answer", "eval")),
    "no-structural": Ablation(_FULL_PLAN, structural=False),
    "no-feature": Ablation(_FULL_PLAN, feature=False),
}

ABLATIONS = tuple(ABLATION_TABLE)

_ID_SAFE_RE = re.compile(r"[^A-Za-z0-9._-]")


class StageError(RuntimeError):
    """A stage could not run at all (missing upstream artifact, bad config)."""


class DatasetError(ValueError):
    """Dataset file violates the record schema."""


@dataclass(frozen=True)
class DatasetRecord:
    id: str
    question: str
    answers: tuple[str, ...]
    topic_entities: tuple[str, ...] = ()
    graph: tuple[tuple[str, str, str], ...] = ()


def load_dataset(path: str | Path) -> list[DatasetRecord]:
    """Load the JSONL dataset; ids must be unique and every record needs answers."""
    records: list[DatasetRecord] = []
    seen: set[str] = set()
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"line {lineno}: invalid JSON: {exc}") from exc
        try:
            record = dataset_record_from_dict(obj)
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetError(f"line {lineno}: {exc}") from exc
        if record.id in seen:
            raise DatasetError(f"line {lineno}: duplicate id {record.id!r}")
        seen.add(record.id)
        records.append(record)
    return records


def _list(value, name: str) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{name} must be a list, not {value!r}")
    return value


def _strings(value, name: str, length: int | None = None) -> tuple:
    """The list `value` as a tuple; it must hold only strings, and `length` of them when given."""
    if not all(isinstance(item, str) for item in _list(value, name)) or length not in (None, len(value)):
        raise TypeError(f"{name} must be a list of {length or 'only'} strings, not {value!r}")
    return tuple(value)


def dataset_record_from_dict(obj: Mapping) -> DatasetRecord:
    if not isinstance(obj["question"], str):
        raise TypeError(f"question must be a string, not {obj['question']!r}")
    record = DatasetRecord(
        id=str(obj["id"]),
        question=obj["question"],
        answers=_strings(obj["answers"], "answers"),
        topic_entities=_strings(obj.get("topic_entities", []), "topic_entities"),
        graph=tuple(_strings(t, "a graph triple", 3) for t in _list(obj.get("graph", []), "graph")),
    )
    if not record.id:
        raise ValueError("record id must be non-empty")
    if not record.answers:
        raise ValueError(f"record {record.id!r} has no answers")
    return record


def write_dataset(records: Sequence[DatasetRecord | Mapping], path: str | Path) -> Path:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(_dumps(asdict(record) if isinstance(record, DatasetRecord) else dict(record)) + "\n")
    return path


def _finite_number(value, kind=(int, float)) -> bool:
    """Whether `value` is a `kind` that is an int or a finite float; a bool is never a number here."""
    return isinstance(value, kind) and not isinstance(value, bool) and (isinstance(value, int) or math.isfinite(value))


def _or_null(check: tuple) -> tuple:
    return (lambda value: value is None or check[0](value), f"{check[1]} or null")


# (check, requirement) pairs: a value passes when check(value) is true, and
# a failure reads "<name> must be <requirement>, not <value>".
_INTEGER = (lambda value: _finite_number(value, int), "an integer")
_NUMBER = (_finite_number, "a number")
_COUNT = (lambda value: _finite_number(value, int) and value >= 1, "an integer >= 1")
_RATE = (lambda value: _finite_number(value) and value >= 0, "a finite number >= 0")
_FLAG = (lambda value: isinstance(value, bool), "true or false")
_PATH = (lambda value: isinstance(value, (str, PurePath)), "a path")
_OBJECT = (lambda value: isinstance(value, dict), "an object")
_TEXT = (lambda value: isinstance(value, str) and value != "", "a non-empty string")
_SCRIPT = _or_null((lambda value: isinstance(value, (dict, str)), "an object or a JSON file path"))
_KEY_ENV = _or_null((lambda value: isinstance(value, str), "an environment variable name"))
_SECONDS = (lambda value: _finite_number(value) and value > 0, "a finite number of seconds > 0")
_PRICE_NAMES = ("input_per_token", "output_per_token")

# One check per RunConfig field.
CONFIG_TABLE = {
    "top_k": _COUNT,
    "temperature": _RATE,
    "tau": (lambda value: _finite_number(value) or value == math.inf, "a finite number or +inf"),
    "payload_cap": _or_null(_COUNT),
    "ablation": (lambda value: value in ABLATIONS, f"one of {ABLATIONS}"),
    "workers": _COUNT,
    "template_dir": _or_null(_PATH),
    "cache_dir": _or_null(_PATH),
    "ascii_fold": _FLAG,
    "positive_threshold": _or_null((lambda value: _finite_number(value) and 0 <= value <= 1, "a number within [0, 1]")),
    "redundancy_mode": (lambda value: value in GROUP_MODES, f"one of {GROUP_MODES}"),
    "llm": _OBJECT,
    "embedder": _OBJECT,
    "kgc": _OBJECT,
    "prices": (
        lambda value: isinstance(value, dict) and set(value) <= set(_PRICE_NAMES) and all(map(_RATE[0], value.values())),
        f"an object of {' and '.join(_PRICE_NAMES)} numbers >= 0",
    ),
}


@dataclass
class RunConfig:
    """Pipeline configuration; defaults follow the evaluation protocol (top k = 300,
    temperature 0.2 for every call, top_p 1, n 1, provider-max tokens). Retries follow
    the one fixed policy of `kgqa.gateway`, and `workers` bounds concurrent calls."""

    top_k: int = 300
    temperature: float = DEFAULT_TEMPERATURE
    tau: float = 0.3
    payload_cap: int | None = 60
    ablation: str = "full"
    workers: int = 1
    template_dir: str | None = None
    cache_dir: str | None = None
    ascii_fold: bool = False
    positive_threshold: float | None = None
    redundancy_mode: str = "head_and_tail"
    llm: dict = field(default_factory=lambda: {"kind": "echo"})
    embedder: dict = field(default_factory=lambda: {"kind": "reference", "dimension": 256})
    kgc: dict = field(default_factory=lambda: {"kind": "constant", "value": 0.7})
    prices: dict = field(default_factory=lambda: {"input_per_token": 1.5e-07, "output_per_token": 6.0e-07})

    def __post_init__(self) -> None:
        for name, (check, requirement) in CONFIG_TABLE.items():
            value = getattr(self, name)
            if not check(value):
                raise ValueError(f"{name} must be {requirement}, not {value!r}")

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RunConfig":
        if not isinstance(payload, Mapping):
            raise ValueError(f"config must be a JSON object, not {payload!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**payload)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    def price_table(self) -> PriceTable:
        """The per-token prices; a price `prices` leaves out is 0."""
        return PriceTable(*(float(self.prices.get(name, 0.0)) for name in _PRICE_NAMES))

    def plan(self) -> tuple[str, ...]:
        """The stages the ablation runs, in order; every plan ends in eval."""
        return ABLATION_TABLE[self.ablation].plan


# section -> kind -> (constructor, {key: check}); a spec without a `kind` takes its section's first
# kind. A key the constructor gives no default is required (REQUIRED_KEYS, found once: `inspect` is
# slow). Range checks the constructors make (dimension, constant value) are not repeated here.
PROVIDER_TABLE = {
    "llm": {
        "echo": (EchoProvider, {}),
        "stub": (ScriptedStubProvider, {"script": _SCRIPT}),
        "remote": (RemoteChatProvider, {"model": _TEXT, "endpoint": _TEXT, "api_key_env": _KEY_ENV, "timeout": _or_null(_SECONDS)}),
    },
    "embedder": {
        "reference": (ReferenceEmbedder, {"dimension": _INTEGER}),
        "remote": (RemoteEmbedder, {"endpoint": _TEXT, "model": _TEXT, "dimension": _INTEGER, "api_key_env": _KEY_ENV}),
    },
    "kgc": {
        "constant": (ConstantScorer, {"value": _NUMBER}),
        "remote": (RemoteKGCScorer, {"endpoint": _TEXT, "timeout": _SECONDS}),
    },
}
REQUIRED_KEYS = {c: [k for k, p in inspect.signature(c).parameters.items() if p.default is p.empty]
                 for kinds in PROVIDER_TABLE.values() for c, _ in kinds.values()}


def build_provider(section: str, spec: Mapping):
    """The provider, embedder or scorer that the `section` spec of a config describes."""
    kinds = PROVIDER_TABLE[section]
    options = dict(spec)
    kind = options.pop("kind", next(iter(kinds)))
    if kind not in tuple(kinds):
        raise ValueError(f"{section}.kind must be one of {tuple(kinds)}, not {kind!r}")
    constructor, checks = kinds[kind]
    for key, value in options.items():
        if key not in checks:
            raise ValueError(f"{section} kind {kind!r} takes no key {key!r}; it takes {sorted(checks)}")
        check, requirement = checks[key]
        if not check(value):
            raise ValueError(f"{section}.{key} must be {requirement}, not {value!r}")
    if missing := [key for key in REQUIRED_KEYS[constructor] if key not in options]:
        raise ValueError(f"{section}.{missing[0]} is required for kind {kind!r}")
    return constructor(**options)


@dataclass(frozen=True)
class StageArtifact:
    stage: str
    path: Path
    processed: int = 0
    failed: int = 0
    report: EvalReport | None = None  # set by an aggregate stage (eval)


class PipelineContext:
    """Shared state for a run: providers, templates, cache, stage dir; the
    gateway's ledger counts the provider usage of this context's calls. A bad
    provider spec or template dir raises StageError before the stage dir is created."""

    def __init__(self, config: RunConfig, stage_dir: str | Path, dataset: Sequence[DatasetRecord]):
        self.config = config
        self.dataset = list(dataset)
        _check_filename_collisions(self.dataset)
        try:
            self.templates = load_templates(config.template_dir)
            self.embedder = build_provider("embedder", config.embedder)
            self.scorer = build_provider("kgc", config.kgc)
            llm = build_provider("llm", config.llm)
            ledger = CostLedger(config.price_table())
        except (KeyError, OSError, TypeError, ValueError) as exc:
            raise StageError(f"invalid config: {exc}") from exc
        self.stage_dir = Path(stage_dir)
        self.stage_dir.mkdir(parents=True, exist_ok=True)
        self.cache = EmbeddingCache()
        if config.cache_dir:
            cache_path = Path(config.cache_dir) / "embeddings.json"
            if cache_path.exists():
                loaded = self.cache.load(cache_path)
                logger.info("loaded %d cached embeddings from %s", loaded, cache_path)
        self.gateway = Gateway(llm, ledger=ledger)

    def save_state(self) -> CostLedger:
        """Write `ledger.json`, folded from the row files of the plan's stages,
        and the embedding cache; return the ledger."""
        ledger = _ledger_from_rows(self)
        write_atomic(self.stage_dir / "ledger.json", _dumps(ledger.to_dict()))
        self.save_cache()
        return ledger

    def save_cache(self) -> None:
        """Write the embedding cache to `cache_dir`, if one is set and the cache gained entries."""
        if self.config.cache_dir:
            cache_dir = Path(self.config.cache_dir)
            cache_dir.mkdir(parents=True, exist_ok=True)
            self.cache.save(cache_dir / "embeddings.json")


def _dumps(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def _hash_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _safe_id(record_id: str) -> str:
    return _ID_SAFE_RE.sub("_", record_id)


def _check_filename_collisions(dataset: Sequence[DatasetRecord]) -> None:
    by_safe: dict[str, str] = {}
    for record in dataset:
        safe = _safe_id(record.id)
        if safe in by_safe and by_safe[safe] != record.id:
            raise DatasetError(f"ids {by_safe[safe]!r} and {record.id!r} collide as filename {safe!r}")
        by_safe[safe] = record.id


def _read_rows(path: Path) -> dict[str, dict]:
    """Parse a JSONL artifact into id -> row; corrupt lines are dropped so only
    the affected record fails downstream."""
    rows: dict[str, dict] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            rows[str(obj["id"])] = obj
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            logger.warning("%s line %d unreadable (%s); the affected record will fail downstream", path, lineno, exc)
    return rows


def _row_path(rows_dir: Path, record: DatasetRecord) -> Path:
    return rows_dir / f"{_safe_id(record.id)}.json"


def _ledger_from_rows(ctx: PipelineContext) -> CostLedger:
    """Per-record usage stored in the row files of the dataset's records, over the plan's stages.

    A row file holds the artifact line, then a line with the provider usage
    that produced it; stages without row files (eval) contribute nothing.
    """
    ledger = CostLedger(ctx.config.price_table())
    for stage in ctx.config.plan():
        rows_dir = ctx.stage_dir / "rows" / stage
        for record in ctx.dataset:
            path = _row_path(rows_dir, record)
            if path.exists():
                usage = json.loads(path.read_text(encoding="utf-8").partition("\n")[2])
                ledger.add(record.id, QuestionUsage(**usage))
    return ledger


def _answer_triples(record: DatasetRecord, rows: Mapping[str, Mapping]) -> list[tuple[str, str, str]]:
    """The (s, r, o) keys answered over, given the record's upstream `rows` by stage and read
    through `graph_keys`: the full graph without a prune row, else the pruned triples,
    followed by the generated ones when there is an enrich row."""
    if "prune" not in rows:
        return graph_keys(record.graph)
    generated = rows["enrich"].get("generated", ()) if "enrich" in rows else ()
    return graph_keys([(e["s"], e["r"], e["o"]) for e in (*rows["prune"]["kept"], *generated)])


def _upstream_row(upstream_rows: Mapping[str, dict], stage: str, record_id: str) -> dict:
    row = upstream_rows.get(stage, {}).get(record_id)
    if row is None:
        raise StageError(f"missing upstream {STAGE_TABLE[stage].key} row for record {record_id!r}")
    return row


def _complete(ctx: PipelineContext, template: str, prompt: str, record: DatasetRecord) -> str:
    return ctx.gateway.complete(ChatRequest(prompt, ctx.config.temperature, template, record.id)).content


def _parse_record(ctx: PipelineContext, record: DatasetRecord, upstream: Mapping) -> dict:
    decomposition = decompose(record.question, ctx.gateway, ctx.templates["query_structuring"], record.id, ctx.config.temperature)
    return {"id": record.id, "question": record.question, **decomposition_to_dict(decomposition)}


def _ranked_graph(ctx: PipelineContext, record: DatasetRecord, parsed: Mapping | None):
    """The record's (s, r, o) graph keys, channel scores and totals, scored against
    the parsed `flat` queries (the question when there are none), and its rows ranked."""
    keys = graph_keys(record.graph)
    queries = list(parsed["flat"]) if parsed else []
    channel_scores, totals = score_columns(keys, queries or [record.question], ctx.embedder, ctx.cache)
    return keys, channel_scores, totals, rank_rows(totals)


def _prune_record(ctx: PipelineContext, record: DatasetRecord, upstream: Mapping) -> dict:
    keys, channel_scores, totals, order = _ranked_graph(ctx, record, _upstream_row(upstream, "parse", record.id))
    kept = order[: ctx.config.top_k]
    return {
        "id": record.id,
        "k": ctx.config.top_k,
        "source_size": len(keys),
        "kept": [
            {"s": keys[i][0], "r": keys[i][1], "o": keys[i][2], "index": i, "scores": scores, "total": total}
            for i, scores, total in zip(kept.tolist(), channel_scores[kept].tolist(), totals[kept].tolist())
        ],
    }


def _enrich_record(ctx: PipelineContext, record: DatasetRecord, upstream: Mapping) -> dict:
    parsed = _upstream_row(upstream, "parse", record.id)
    pruned = _upstream_row(upstream, "prune", record.id)
    kept = [Triple(*graph_keys([(e["s"], e["r"], e["o"])])[0], index=e["index"]) for e in pruned["kept"]]
    generated = []
    skipped = 0
    rejected = 0
    if kept:
        queries = list(parsed["flat"]) or [record.question]
        payload = kept[: ctx.config.payload_cap]
        graph_queries = [fallback_graph_query(t) for t in payload]
        associations = associate_queries(graph_queries, queries, ctx.embedder, ctx.cache, ctx.config.tau)
        ablation = ABLATION_TABLE[ctx.config.ablation]

        def feature_reply() -> str:
            contexts = collect_entity_contexts(payload, associations)
            prompt = build_feature_prompt(contexts, ctx.templates["feature_enrich"])
            return _complete(ctx, "feature_enrich", prompt, record)

        # The feature prompt needs only the payload and the associations, so its
        # call overlaps the structural one. Leaving the block waits for it, also
        # when the structural call raises, so the caller's usage diff covers both.
        with ThreadPoolExecutor(max_workers=1) as pool:
            feature = pool.submit(feature_reply) if ablation.feature else None
            if ablation.structural:
                prompt = filter_and_build_structural_prompt(payload, associations, ctx.templates["structural_enrich"])
                parse = parse_structural_output(_complete(ctx, "structural_enrich", prompt, record))
                generated.extend(parse.triples)
                skipped = parse.skipped
            if feature is not None:
                parse = parse_feature_output(feature.result())
                generated.extend(parse.triples)
                rejected = parse.rejected
    return {
        "id": record.id,
        "base_indices": [t.index for t in kept],
        "generated": [
            {
                "s": et.triple.subject,
                "r": et.triple.relation,
                "o": et.triple.object,
                "provenance": et.provenance.value,
                "grounded": et.grounded,
                "sources": list(et.source_indices),
            }
            for et in merge_enriched(kept, generated)
        ],
        "warnings": {"structural_skipped": skipped, "feature_rejected": rejected},
    }


def _answer_record(ctx: PipelineContext, record: DatasetRecord, upstream: Mapping) -> dict:
    rows = {stage: _upstream_row(upstream, stage, record.id) for stage in upstream}
    triples = _answer_triples(record, rows)
    prompt = build_qa_prompt(record.question, triples, ctx.templates["question_answering"])
    answers = parse_final_answers(_complete(ctx, "question_answering", prompt, record))
    return {
        "id": record.id,
        "question": record.question,
        "raw": answers.raw,
        "answers": answers.answers,
        "gold": list(record.answers),
        "used_triples": len(triples),
    }


def _eval_report(ctx: PipelineContext, upstream: Mapping) -> EvalReport:
    rows = upstream["answer"]
    pairs = {r.id: (rows[r.id]["answers"], rows[r.id]["gold"]) for r in ctx.dataset if r.id in rows}
    return build_eval_report(pairs, ascii_fold=ctx.config.ascii_fold)


@dataclass(frozen=True)
class Stage:
    """One pipeline stage: its artifact, the stages it reads, and its computation.

    A stage reads those of its upstreams that the ablation's plan runs. It
    has either `record`, run once per pending dataset record and kept as a
    row file, or `aggregate`, run once over the upstream rows.
    """

    name: str
    file: str
    key: str
    upstreams: tuple[str, ...]
    record: Callable[[PipelineContext, DatasetRecord, Mapping], dict] | None = None
    aggregate: Callable[[PipelineContext, Mapping], EvalReport] | None = None


STAGE_TABLE = {
    stage.name: stage
    for stage in (
        Stage("parse", "parsed.jsonl", "parsed", (), record=_parse_record),
        Stage("prune", "pruned.jsonl", "pruned", ("parse",), record=_prune_record),
        Stage("enrich", "enriched.jsonl", "enriched", ("parse", "prune"), record=_enrich_record),
        Stage("answer", "answers.jsonl", "answers", ("prune", "enrich"), record=_answer_record),
        Stage("eval", "report.json", "report", ("answer",), aggregate=_eval_report),
    )
}


def run_stage(stage: str, ctx: PipelineContext, resume: bool = True) -> StageArtifact:
    """Run one stage over the dataset, isolating per-record failures.

    Raises StageError when a required upstream artifact is missing entirely.
    """
    spec = STAGE_TABLE.get(stage)
    if spec is None:
        raise StageError(f"unknown stage {stage!r}")
    manifest_path = ctx.stage_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8")) if manifest_path.exists() else {}
    plan = ctx.config.plan()
    upstream_rows: dict[str, dict] = {}
    upstream_hashes: dict[str, str] = {}
    for up in (STAGE_TABLE[name] for name in spec.upstreams if name in plan):
        path = ctx.stage_dir / up.file
        if up.key not in manifest or not path.exists():
            raise StageError(f"stage '{stage}' requires {up.key} artifact; run the '{up.name}' stage first")
        current_hash = _hash_file(path)
        if manifest[up.key].get("hash") != current_hash:
            logger.warning("%s changed since the '%s' stage completed; downstream rows will be recomputed", path, up.name)
        upstream_hashes[up.key] = current_hash
        upstream_rows[up.name] = _read_rows(path)

    artifact_path = ctx.stage_dir / spec.file
    report = None
    if spec.aggregate is not None:
        report = spec.aggregate(ctx, upstream_rows)
        write_atomic(artifact_path, _dumps(report.to_dict()))
        processed, failed = report.n, 0
    else:
        previous = manifest.get(spec.key)
        upstream_changed = previous is not None and previous.get("upstream") != upstream_hashes
        clear = "fresh run" if not resume else "upstream changed" if upstream_changed else None
        processed, failed = _run_records(spec, ctx, upstream_rows, artifact_path, clear)
    manifest[spec.key] = {"hash": _hash_file(artifact_path), "upstream": upstream_hashes}
    write_atomic(manifest_path, _dumps(manifest))
    logger.info("stage %s: %d processed, %d failed -> %s", stage, processed, failed, artifact_path)
    return StageArtifact(stage, artifact_path, processed, failed, report)


def _run_records(spec: Stage, ctx: PipelineContext, upstream_rows: Mapping, artifact_path: Path, clear: str | None):
    """Compute the missing rows of a per-record stage and assemble its artifact;
    `clear` names why cached rows are dropped first, if they are. Returns
    (records processed, records failed)."""
    rows_dir = ctx.stage_dir / "rows" / spec.name
    if clear and rows_dir.exists():
        for row_file in rows_dir.glob("*.json"):
            row_file.unlink()
        logger.info("stage %s: cleared cached rows (%s)", spec.name, clear)
    rows_dir.mkdir(parents=True, exist_ok=True)
    pending = [r for r in ctx.dataset if not _row_path(rows_dir, r).exists()]
    ledger = ctx.gateway.ledger

    def work(record: DatasetRecord) -> dict | None:
        # Only this call makes provider calls for this record, so the change
        # in its ledger entry is the usage behind its row.
        before = ledger.usage(record.id)
        try:
            row = spec.record(ctx, record, upstream_rows)
        except Exception as exc:
            logger.warning("stage %s: record %s failed: %s", spec.name, record.id, exc)
            usage = asdict(ledger.usage(record.id) - before)
            return {"id": record.id, "stage": spec.name, "error": str(exc), "usage": usage}
        usage = asdict(ledger.usage(record.id) - before)
        write_atomic(_row_path(rows_dir, record), _dumps(row) + "\n" + _dumps(usage))
        return None

    if ctx.config.workers > 1 and len(pending) > 1:
        with ThreadPoolExecutor(max_workers=ctx.config.workers) as pool:
            outcomes = list(pool.map(work, pending))
    else:
        outcomes = [work(record) for record in pending]
    errors = [failure for failure in outcomes if failure]

    lines = []
    for record in sorted(ctx.dataset, key=lambda r: r.id):
        row_file = _row_path(rows_dir, record)
        if row_file.exists():
            lines.append(row_file.read_text(encoding="utf-8").partition("\n")[0] + "\n")
    write_atomic(artifact_path, "".join(lines))
    _write_errors(ctx, spec.name, errors)
    return len(pending) - len(errors), len(errors)


def _write_errors(ctx: PipelineContext, stage: str, errors: list[dict]) -> None:
    path = ctx.stage_dir / "errors" / f"{stage}.jsonl"
    if not errors:
        path.unlink(missing_ok=True)
        return
    path.parent.mkdir(exist_ok=True)
    write_atomic(path, "".join(_dumps(err) + "\n" for err in sorted(errors, key=lambda e: e["id"])))


def run_all(
    config: RunConfig,
    dataset: Sequence[DatasetRecord] | str | Path,
    stage_dir: str | Path,
    resume: bool = True,
) -> tuple[EvalReport, CostLedger]:
    """Run the configured stage plan end to end and return the report and ledger."""
    records = load_dataset(dataset) if isinstance(dataset, (str, Path)) else list(dataset)
    ctx = PipelineContext(config, stage_dir, records)
    artifacts = {stage: run_stage(stage, ctx, resume=resume) for stage in config.plan()}
    ledger = ctx.save_state()
    evaluated = artifacts.get("eval")
    return (evaluated.report if evaluated else EvalReport()), ledger


def sweep_k(
    ctx: PipelineContext,
    ks: Sequence[int],
    out_path: str | Path | None = None,
) -> list[dict]:
    """Coverage, token, and cost figures for each candidate k.

    Each question's graph is scored and ranked once, as the prune stage does,
    against its parsed decomposition when that artifact has a row for it and
    otherwise the bare question; a record whose graph or parsed row does not
    decode is logged and skipped. Tokens are the estimator totals over the
    textualized kept triples; cost applies the configured input rate.
    """
    if not ks or any(k < 1 for k in ks):
        raise ValueError("ks must be non-empty with every k >= 1")
    parsed_path = ctx.stage_dir / STAGE_TABLE["parse"].file
    parsed_rows = _read_rows(parsed_path) if parsed_path.exists() else {}
    coverages: list[list[float]] = [[] for _ in ks]
    tokens = [0] * len(ks)
    for record in ctx.dataset:
        try:
            keys, _, _, order = _ranked_graph(ctx, record, parsed_rows.get(record.id))
        except (KeyError, TypeError, ValueError) as exc:  # GraphLoadError is a ValueError
            logger.warning("sweep-k: record %s skipped: %s: %s", record.id, type(exc).__name__, exc)
            continue
        top = [keys[i] for i in order[: max(ks)].tolist()]
        prefix_tokens = list(itertools.accumulate(map(estimate_tokens, map(textualize_triple, top)), initial=0))
        heads = [normalize_answer(s, ctx.config.ascii_fold) for s, _, _ in top]
        tails = [normalize_answer(o, ctx.config.ascii_fold) for _, _, o in top]
        gold = [normalize_answer(answer, ctx.config.ascii_fold) for answer in record.answers]
        for i, k in enumerate(ks):
            endpoints = {*heads[:k], *tails[:k]}
            coverages[i].append(sum(answer in endpoints for answer in gold) / len(gold))
            tokens[i] += prefix_tokens[min(k, len(top))]
    input_rate = ctx.config.price_table().input_per_token
    results = [
        {"k": k, "coverage": sum(c) / len(c) if c else 0.0, "tokens": n, "cost": n * input_rate}
        for k, c, n in zip(ks, coverages, tokens)
    ]
    if out_path is not None:
        with Path(out_path).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=["k", "coverage", "tokens", "cost"])
            writer.writeheader()
            writer.writerows(results)
    return results


def quality_metrics(
    ctx: PipelineContext,
    variants: Sequence[str] = ("vanilla", "pruned", "enriched"),
    out_dir: str | Path | None = None,
    dataset_name: str = "dataset",
    with_dumps: bool = False,
) -> list:
    """Aggregate graph-quality metrics per variant, optionally exporting CSVs."""
    reports = []
    for variant in variants:
        triples_by_question = _variant_triples(ctx, variant)
        graphs = [(r.question, triples_by_question[r.id]) for r in ctx.dataset if triples_by_question.get(r.id)]
        if not graphs:
            continue
        per_question = [
            graph_quality(question, triples, ctx.embedder, ctx.scorer, mode=ctx.config.redundancy_mode,
                          cache=ctx.cache, positive_threshold=ctx.config.positive_threshold)
            for question, triples in graphs
        ]
        report = GraphQualityReport(
            dataset=dataset_name,
            variant=variant,
            relevance=_pooled([q.relevance for q in per_question]),
            semantic_richness=_pooled([q.semantic_richness for q in per_question]),
            redundancy=_pooled([q.redundancy for q in per_question]),
            triples=sum(q.triples for q in per_question),
        )
        if with_dumps:
            # Relevance embedded every triple text already, so these are cache hits.
            report.texts = [textualize_triple(t) for _, triples in graphs for t in triples]
            report.embeddings = embed_batch(report.texts, ctx.embedder, ctx.cache)
        reports.append(report)
    if out_dir is not None:
        export_quality_report(reports, out_dir)
    return reports


def _pooled(values: Sequence):
    """Per-question metric values (`MetricValue` or `RedundancyResult`) summed
    field by field, with the summed mean divided by the number of questions."""
    mean, *sums = (sum(getattr(v, f.name) for v in values) for f in fields(values[0]))
    return type(values[0])(mean / len(values), *sums)


VARIANT_STAGES = {"vanilla": (), "pruned": ("prune",), "enriched": ("prune", "enrich")}


def _variant_triples(ctx: PipelineContext, variant: str) -> dict[str, list[tuple[str, str, str]]]:
    """Per-question `_answer_triples` of a variant where all rows exist; a bad graph or row is logged and skipped."""
    if variant not in VARIANT_STAGES:
        raise ValueError(f"unknown variant {variant!r}")
    rows = {}
    for stage in VARIANT_STAGES[variant]:
        path = ctx.stage_dir / STAGE_TABLE[stage].file
        if not path.exists():
            raise StageError(
                f"variant '{variant}' requires {STAGE_TABLE[stage].key} artifact; run the '{stage}' stage first"
            )
        rows[stage] = _read_rows(path)
    out: dict[str, list[tuple[str, str, str]]] = {}
    for record in ctx.dataset:
        found = {stage: by_id.get(record.id) for stage, by_id in rows.items()}
        if None in found.values():
            continue
        try:
            out[record.id] = _answer_triples(record, found)
        except (KeyError, TypeError, ValueError) as exc:  # GraphLoadError is a ValueError
            logger.warning("metrics: %s variant of record %s skipped: %s: %s", variant, record.id, type(exc).__name__, exc)
    return out
