"""Knowledge-graph triples: loading, paths, textualization.

A graph is a tuple of frozen Triples, built once from triple records (JSON
array-of-arrays or TSV), so it is safe to share across worker threads. The
loader interns entity ids and relation names into code columns first
(`GraphColumns`); hot paths such as pruning work on those columns and build
Triples only for the rows they keep.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

GROUP_MODES = ("head", "tail", "head_and_tail")

_SEPARATORS = re.compile(r"[._]+")


class GraphLoadError(ValueError):
    """A triple record could not be turned into a Triple."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class EntityRef:
    """Entity identified by an opaque id (Freebase MID or surface name)."""

    id: str

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("entity id must be non-empty")


@dataclass(frozen=True)
class Relation:
    """Relation name; dotted-path style such as 'location.country.currency_used' is allowed."""

    name: str

    def __post_init__(self) -> None:
        if not self.name or self.name != self.name.strip():
            raise ValueError(f"relation name must be non-empty with no surrounding whitespace: {self.name!r}")

    @property
    def text(self) -> str:
        """Surface text: dot and underscore separators become single spaces."""
        return relation_text(self.name)


def relation_text(name: str) -> str:
    return _SEPARATORS.sub(" ", name).strip()


@dataclass(frozen=True)
class Triple:
    """One (subject, relation, object) fact.

    index is the ordinal position within the owning graph; equality ignores it.
    """

    subject: EntityRef
    relation: Relation
    object: EntityRef
    index: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("triple index must be >= 0")

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.subject.id, self.relation.name, self.object.id)


@dataclass(frozen=True)
class Path:
    """A 1-hop or 2-hop chain; for 2 hops the first object equals the second subject."""

    hops: tuple[Triple, ...]

    def __post_init__(self) -> None:
        if len(self.hops) not in (1, 2):
            raise ValueError("a path has 1 or 2 hops")
        if len(self.hops) == 2 and self.hops[0].object.id != self.hops[1].subject.id:
            raise ValueError("2-hop path must join on a shared entity")


@dataclass(frozen=True, eq=False)
class GraphColumns:
    """A graph as interned code columns: row i is the triple
    (entities[s[i]], relations[r[i]], entities[o[i]]) with index i."""

    entities: tuple[str, ...]
    relations: tuple[str, ...]
    s: np.ndarray
    r: np.ndarray
    o: np.ndarray

    def __len__(self) -> int:
        return len(self.s)

    @classmethod
    def of(cls, keys: Iterable[tuple[str, str, str]]) -> "GraphColumns":
        """Columns of (subject, relation, object) keys, one row per key in their order."""
        entities: dict[str, int] = {}
        relations: dict[str, int] = {}
        codes = [
            (entities.setdefault(s, len(entities)), relations.setdefault(r, len(relations)),
             entities.setdefault(o, len(entities)))
            for s, r, o in keys
        ]
        spo = np.array(codes, dtype=np.intp).reshape(-1, 3)
        return cls(tuple(entities), tuple(relations), spo[:, 0], spo[:, 1], spo[:, 2])


def intern_graph(records: Iterable[Sequence[str]]) -> GraphColumns:
    """Columns of the graph of (s, r, o) records, keeping input order and dropping duplicates.

    Raises GraphLoadError with a 1-based record number on malformed input.
    Relation names lose surrounding whitespace.
    """
    keys: dict[tuple[str, str, str], None] = {}  # ordered set of the distinct keys
    for lineno, record in enumerate(records, start=1):
        if isinstance(record, str) or len(record) != 3:
            raise GraphLoadError(f"expected 3 fields, got {record!r}", line=lineno)
        s, r, o = record
        if not (isinstance(s, str) and isinstance(r, str) and isinstance(o, str)):
            raise GraphLoadError(f"non-string field in {record!r}", line=lineno)
        r = r.strip()
        if not (s and r and o):
            raise GraphLoadError(f"empty field in {record!r}", line=lineno)
        keys[s, r, o] = None
    return GraphColumns.of(keys)


def load_graph(records: Iterable[Sequence[str]]) -> tuple[Triple, ...]:
    """Build a graph from (s, r, o) records as `intern_graph` does; empty input
    yields an empty graph. Each triple's index is its position, and triples
    share one EntityRef per entity id and one Relation per name."""
    g = intern_graph(records)
    entities = [EntityRef(e) for e in g.entities]
    relations = [Relation(r) for r in g.relations]
    rows = zip(g.s.tolist(), g.r.tolist(), g.o.tolist())
    return tuple(Triple(entities[s], relations[r], entities[o], index=i) for i, (s, r, o) in enumerate(rows))


def load_json_graph(text: str) -> tuple[Triple, ...]:
    """Load from a JSON array of [s, r, o] arrays."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphLoadError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise GraphLoadError("top-level JSON value must be an array of triples")
    return load_graph(data)


def load_tsv_graph(text: str) -> tuple[Triple, ...]:
    """Load from tab-separated lines, one triple per line; blank lines are ignored."""
    records = [line.split("\t") for line in text.splitlines() if line.strip()]
    return load_graph(records)


def textualize_triple(t: Triple) -> str:
    """Natural-language form: 'subject relation object' with relation separators spaced out."""
    return f"{t.subject.id} {t.relation.text} {t.object.id}"


def extract_paths(triples: Sequence[Triple], max_hops: int) -> list[Path]:
    """All 1-hop paths, plus (for max_hops=2) all ordered triple pairs joined object-to-subject.

    2-hop paths are ordered by the positions of their first and second triple
    in `triples`.
    """
    if max_hops not in (1, 2):
        raise ValueError("max_hops must be 1 or 2")
    paths = [Path((t,)) for t in triples]
    if max_hops == 2:
        by_subject: dict[str, list[Triple]] = {}
        for t in triples:
            by_subject.setdefault(t.subject.id, []).append(t)
        for t1 in triples:
            for t2 in by_subject.get(t1.object.id, ()):
                paths.append(Path((t1, t2)))
    return paths


def group_by_endpoints(g: Sequence[Triple], mode: str = "head_and_tail") -> list[list[Triple]]:
    """Partition triples by the selected endpoint key, groups in first-occurrence order."""
    if mode not in GROUP_MODES:
        raise ValueError(f"mode must be one of {GROUP_MODES}")
    groups: dict[object, list[Triple]] = {}
    for t in g:
        if mode == "head":
            key: object = t.subject.id
        elif mode == "tail":
            key = t.object.id
        else:
            key = (t.subject.id, t.object.id)
        groups.setdefault(key, []).append(t)
    return list(groups.values())
