"""Answer metrics and graph quality metrics.

Answer metrics (hits@1, precision/recall/F1, exact-set accuracy) operate on
normalized answer strings with set semantics and are macro-averaged per
question. Graph quality metrics score a triple set against a question:
relevance (query-triple embedding similarity), semantic richness (triple
plausibility under a pluggable scorer), and redundancy (relation similarity
within same-endpoint groups), over (s, r, o) keys and Triples alike. Each
metric reports both the raw sum and the size-comparable mean; thresholds
elsewhere bind to the mean.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .answering import AnswerSet, normalize_all
from .embedding import MAX_INPUTS_PER_REQUEST, EmbeddingCache, EmbeddingProvider, embed_batch
from .gateway import http_session, post_json, with_retries
from .graph import TripleLike, group_by_endpoints, relation_text, textualize_triple

TripleScorer = Callable[[Sequence[TripleLike]], Sequence[float]]


@dataclass(frozen=True)
class MetricValue:
    mean: float
    total: float


@dataclass(frozen=True)
class RedundancyResult:
    mean: float
    total: float
    groups: int
    pairs: int


@dataclass(frozen=True)
class PRF1:
    precision: float
    recall: float
    f1: float
    exact: int


def _as_normalized(pred: AnswerSet | Sequence[str], ascii_fold: bool = False) -> list[str]:
    values = pred.answers if isinstance(pred, AnswerSet) else list(pred)
    return normalize_all(values, ascii_fold)


def hits_at_1(pred: AnswerSet | Sequence[str], gold: Sequence[str], ascii_fold: bool = False) -> int:
    """1 iff any normalized prediction equals any normalized gold answer."""
    if not gold:
        raise ValueError("gold answer set must be non-empty")
    predicted = set(_as_normalized(pred, ascii_fold))
    return int(any(g in predicted for g in normalize_all(gold, ascii_fold)))


def prf1(pred: AnswerSet | Sequence[str], gold: Sequence[str], ascii_fold: bool = False) -> PRF1:
    """Set precision/recall/F1 over normalized answers; empty predictions score zero."""
    if not gold:
        raise ValueError("gold answer set must be non-empty")
    pred_set = set(_as_normalized(pred, ascii_fold))
    gold_set = set(normalize_all(gold, ascii_fold))
    overlap = len(pred_set & gold_set)
    precision = overlap / len(pred_set) if pred_set else 0.0
    recall = overlap / len(gold_set) if gold_set else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return PRF1(precision=precision, recall=recall, f1=f1, exact=int(pred_set == gold_set))


@dataclass
class EvalReport:
    per_question: dict[str, dict] = field(default_factory=dict)
    hits1: float = 0.0
    f1: float = 0.0
    precision: float = 0.0
    recall: float = 0.0
    acc: float = 0.0
    n: int = 0
    notes: tuple[str, ...] = (
        "f1/precision/recall are macro-averaged per question",
        "acc is the exact-set-match rate",
    )

    def to_dict(self) -> dict:
        return {**asdict(self), "notes": list(self.notes)}


# Each report mean and the per-question entry it averages.
_MEAN_OF = (("hits1", "hit"), ("precision", "precision"), ("recall", "recall"), ("f1", "f1"), ("acc", "exact"))


def build_eval_report(
    rows: Mapping[str, tuple[AnswerSet | Sequence[str], Sequence[str]]],
    ascii_fold: bool = False,
) -> EvalReport:
    """Per-question metrics plus means, reduced in ascending question-id order."""
    report = EvalReport()
    for qid in sorted(rows):
        pred, gold = rows[qid]
        scores = prf1(pred, gold, ascii_fold)
        report.per_question[qid] = {
            "hit": hits_at_1(pred, gold, ascii_fold),
            "precision": scores.precision,
            "recall": scores.recall,
            "f1": scores.f1,
            "exact": scores.exact,
        }
    report.n = len(report.per_question)
    if report.n:
        for attr, key in _MEAN_OF:
            setattr(report, attr, sum(e[key] for e in report.per_question.values()) / report.n)
    return report


class ConstantScorer:
    """Stub plausibility scorer returning a fixed value in [0, 1]."""

    def __init__(self, value: float = 0.7):
        if not 0.0 <= value <= 1.0:
            raise ValueError("score must be within [0, 1]")
        self.value = float(value)

    def __call__(self, triples: Sequence[TripleLike]) -> list[float]:
        return [self.value] * len(triples)


class RemoteKGCScorer:
    """HTTP plausibility scorer: {"input": [triple text, ...]} -> {"data": [{"score": f}, ...]},
    one request, with its own retries, per `MAX_INPUTS_PER_REQUEST` triples of a graph."""

    def __init__(self, endpoint: str, timeout: float = 60.0, session=None):
        self.endpoint = endpoint
        self.timeout = timeout
        self._session = session if session is not None else http_session()

    def __call__(self, triples: Sequence[TripleLike]) -> list[float]:
        texts = [textualize_triple(t) for t in triples]
        scores: list[float] = []
        for start in range(0, len(texts), MAX_INPUTS_PER_REQUEST):
            payload = {"input": texts[start : start + MAX_INPUTS_PER_REQUEST]}
            body = with_retries(lambda: post_json(self._session, self.endpoint, payload, None, self.timeout))
            try:
                batch = [float(item["score"]) for item in body["data"]]
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"malformed reply from {self.endpoint}: {exc!r}") from exc
            if len(batch) != len(payload["input"]):
                raise ValueError(f"KGC scorer returned {len(batch)} scores for {len(payload['input'])} triples")
            scores += batch
        return scores


def relevance_score(
    question: str,
    triples: Sequence[TripleLike],
    provider: EmbeddingProvider,
    cache: EmbeddingCache | None = None,
) -> MetricValue:
    """Similarity between the question and each triple's text; mean plus raw sum."""
    triples = list(triples)
    if not triples:
        raise ValueError("relevance needs a non-empty graph")
    vectors = embed_batch([question] + [textualize_triple(t) for t in triples], provider, cache)
    total = sum((vectors[1:] @ vectors[0]).tolist())
    return MetricValue(mean=total / len(triples), total=total)


def semantic_richness(
    triples: Sequence[TripleLike],
    scorer: TripleScorer,
    positive_threshold: float | None = None,
) -> MetricValue:
    """Mean plausibility over the graph; with a threshold, only triples scoring
    at or above it contribute (the sum keeps the graph size as denominator)."""
    triples = list(triples)
    if not triples:
        raise ValueError("semantic richness needs a non-empty graph")
    scores = scorer(triples)
    if len(scores) != len(triples):
        raise ValueError(f"scorer returned {len(scores)} scores for {len(triples)} triples")
    total = 0.0
    for score in map(float, scores):
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"scorer returned {score!r}, outside [0, 1]")
        if positive_threshold is not None and score < positive_threshold:
            continue
        total += score
    return MetricValue(mean=total / len(triples), total=total)


def redundancy_score(
    triples: Sequence[TripleLike],
    provider: EmbeddingProvider,
    mode: str = "head_and_tail",
    cache: EmbeddingCache | None = None,
) -> RedundancyResult:
    """Mean relation-text similarity over unordered within-group pairs.

    Groups share the selected endpoints; graphs with no multi-member group
    score 0 by definition. Each group's pair similarities come from its Gram
    matrix, summed over the upper triangle in (i, j) pair order.
    """
    triples = list(triples)
    groups = group_by_endpoints(triples, mode)
    relations = sorted({r for _, r, _ in triples})
    vectors = embed_batch([relation_text(r) for r in relations], provider, cache)
    row_of = {r: i for i, r in enumerate(relations)}
    total = 0.0
    pairs = 0
    for group in groups:
        m = len(group)
        if m < 2:
            continue
        g = vectors[[row_of[r] for _, r, _ in group]]
        total = sum((g @ g.T)[~np.tri(m, dtype=bool)].tolist(), total)
        pairs += m * (m - 1) // 2
    mean = total / pairs if pairs else 0.0
    return RedundancyResult(mean=mean, total=total, groups=len(groups), pairs=pairs)


@dataclass
class GraphQualityReport:
    dataset: str
    variant: str
    relevance: MetricValue
    semantic_richness: MetricValue
    redundancy: RedundancyResult
    triples: int
    embeddings: np.ndarray | None = None  # (n, d): row i embeds texts[i]
    texts: list[str] | None = None


def graph_quality(
    question: str,
    triples: Sequence[TripleLike],
    provider: EmbeddingProvider,
    scorer: TripleScorer,
    mode: str = "head_and_tail",
    cache: EmbeddingCache | None = None,
    positive_threshold: float | None = None,
) -> GraphQualityReport:
    """All three quality metrics for one question's graph."""
    triples = list(triples)
    return GraphQualityReport(
        dataset="",
        variant="",
        relevance=relevance_score(question, triples, provider, cache),
        semantic_richness=semantic_richness(triples, scorer, positive_threshold),
        redundancy=redundancy_score(triples, provider, mode, cache),
        triples=len(triples),
    )


def _slug(value: str) -> str:
    cleaned = "".join(ch if ch.isalnum() or ch in "._-" else "_" for ch in value)
    return cleaned or "default"


def export_quality_report(reports: Sequence[GraphQualityReport], out_dir: str | Path) -> list[Path]:
    """Write quality.csv plus, per report carrying embeddings, an embedding dump
    with one row per text; distances between the rows are left to the reader."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    quality_path = out_dir / "quality.csv"
    with quality_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "variant", "relevance", "semanticRichness", "redundancy"])
        for report in reports:
            writer.writerow(
                [
                    report.dataset,
                    report.variant,
                    f"{report.relevance.mean:.6f}",
                    f"{report.semantic_richness.mean:.6f}",
                    f"{report.redundancy.mean:.6f}",
                ]
            )
    written.append(quality_path)
    for report in reports:
        if report.embeddings is None:
            continue
        stem = f"{_slug(report.dataset)}_{_slug(report.variant)}"
        emb_path = out_dir / f"embeddings_{stem}.csv"
        with emb_path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "text", "values"])
            for i, (text, vec) in enumerate(zip(report.texts, report.embeddings)):
                writer.writerow([i, text, " ".join(f"{x:.8g}" for x in vec.tolist())])
        written.append(emb_path)
    return written
