"""Knowledge-graph triples: loading, paths, textualization.

`graph_keys` validates and dedupes (s, r, o) records into string keys; prune,
answer, sweep-k and the quality metrics read each graph, from the dataset or a
stage artifact, as those keys. `load_graph` builds frozen, indexed Triples from
the same keys, safe to share across worker threads. A Triple unpacks like its
key, so `textualize_triple` and `group_by_endpoints` take either.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence, Union

GROUP_MODES = ("head", "tail", "head_and_tail")

_SEPARATORS = re.compile(r"[._]+")

TripleLike = Union["Triple", tuple[str, str, str]]  # anything that unpacks to (s, r, o)


class GraphLoadError(ValueError):
    """A triple record could not be turned into an (s, r, o) key."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def relation_text(name: str) -> str:
    """Surface text of a relation name: dot and underscore separators become single spaces."""
    return _SEPARATORS.sub(" ", name).strip()


@dataclass(frozen=True)
class Triple:
    """One (subject, relation, object) fact over entity ids and a relation name.

    Relation names may be dotted paths such as 'location.country.currency_used'.
    index is the ordinal position within the owning graph; equality and unpacking ignore it.
    """

    subject: str
    relation: str
    object: str
    index: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if not (self.subject and self.object):
            raise ValueError("entity id must be non-empty")
        if not self.relation or self.relation != self.relation.strip():
            raise ValueError(f"relation name must be non-empty with no surrounding whitespace: {self.relation!r}")
        if self.index < 0:
            raise ValueError("triple index must be >= 0")

    def __iter__(self) -> Iterator[str]:
        return iter((self.subject, self.relation, self.object))


def graph_keys(records: Iterable[Sequence[str]]) -> list[tuple[str, str, str]]:
    """The distinct (s, r, o) keys of the records, in input order.

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
    return list(keys)


def load_graph(records: Iterable[Sequence[str]]) -> tuple[Triple, ...]:
    """Build a graph from (s, r, o) records as `graph_keys` does; empty input
    yields an empty graph. Each triple's index is its position."""
    return tuple(Triple(s, r, o, index=i) for i, (s, r, o) in enumerate(graph_keys(records)))


def textualize_triple(t: TripleLike) -> str:
    """Natural-language form: 'subject relation object' with relation separators spaced out."""
    s, r, o = t
    return f"{s} {relation_text(r)} {o}"


def extract_paths(triples: Sequence[Triple]) -> list[tuple[Triple, ...]]:
    """All 1-hop paths as 1-tuples, then all ordered triple pairs joined
    object-to-subject as 2-tuples.

    2-hop paths are ordered by the positions of their first and second triple
    in `triples`.
    """
    paths = [(t,) for t in triples]
    by_subject: dict[str, list[Triple]] = {}
    for t in triples:
        by_subject.setdefault(t.subject, []).append(t)
    for t1 in triples:
        for t2 in by_subject.get(t1.object, ()):
            paths.append((t1, t2))
    return paths


def group_by_endpoints(g: Sequence[TripleLike], mode: str = "head_and_tail") -> list[list[TripleLike]]:
    """Partition triples by the selected endpoint key, groups in first-occurrence order."""
    if mode not in GROUP_MODES:
        raise ValueError(f"mode must be one of {GROUP_MODES}")
    groups: dict[object, list[TripleLike]] = {}
    for t in g:
        s, _, o = t
        key = s if mode == "head" else o if mode == "tail" else (s, o)
        groups.setdefault(key, []).append(t)
    return list(groups.values())
