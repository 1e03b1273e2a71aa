"""Graph enrichment: prompt construction and constrained-output parsing.

The structural prompt pairs each kept triple with its graph query and any
decomposition queries whose embedding similarity to that graph query exceeds
a threshold, then lists the 1-hop and 2-hop paths of the kept subgraph. The
feature prompt gives each distinct entity its incident triples and associated
queries. Provider outputs are parsed back into provenance-tagged triples;
malformed lines degrade to warnings rather than failures.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Sequence

from .embedding import EmbeddingCache, EmbeddingProvider, embed_batch, similarity
from .gateway import PromptTemplate, render_template
from .graph import TripleLike, extract_paths


class Provenance(Enum):
    ORIGINAL = "original"
    SIMILARITY = "similarity"
    SYMMETRY = "symmetry"
    TRANSITIVITY = "transitivity"
    HIERARCHY = "hierarchy"


ONTOLOGY_RELATIONS = frozenset(
    {
        "Hypernym_isA",
        "Hypernym_locateAt",
        "Hypernym_mannerOf",
        "Induction_belongTo",
        "Inclusion_isPartOf",
        "Inclusion_madeOf",
        "Inclusion_derivedFrom",
        "Inclusion_hasContext",
    }
)

FINAL_OUTPUT_MARKER = "Final output:"

_MARKUP_LINE_RE = re.compile(r"\{[^{}]*\}")
_TRIPLE_PATTERN_RE = re.compile(r"\(([^()\n]*)\)")
_PROVENANCE_KEYWORD_RE = re.compile(r"similarity|symmetry|transitivity", re.IGNORECASE)


@dataclass(frozen=True)
class EnrichedTriple:
    triple: tuple[str, str, str]  # the (s, r, o) key
    provenance: Provenance
    source_indices: tuple[int, ...] = ()
    grounded: bool = True


@dataclass
class StructuralParse:
    triples: list[EnrichedTriple] = field(default_factory=list)
    skipped: int = 0


@dataclass
class FeatureParse:
    triples: list[EnrichedTriple] = field(default_factory=list)
    rejected: int = 0


def format_triple_compact(t: TripleLike) -> str:
    s, r, o = t
    return f"({s},{r},{o})"


def _split_triple_line(line: str) -> tuple[str, str, str] | None:
    if not (line.startswith("(") and line.endswith(")")):
        return None
    parts = line[1:-1].split(",")
    if len(parts) != 3:
        return None
    s, r, o = (p.strip() for p in parts)
    if not (s and r and o):
        return None
    return s, r, o


def _triple_lines(region: str) -> tuple[list[tuple[str, str, str]], int]:
    """The fields of the region's triple lines, and how many other lines it has.

    Blank lines and markup-tag lines such as '{/thought}' count as neither.
    """
    found: list[tuple[str, str, str]] = []
    others = 0
    for line in region.splitlines():
        stripped = line.strip()
        if not stripped or _MARKUP_LINE_RE.fullmatch(stripped):
            continue
        fields = _split_triple_line(stripped)
        if fields is None:
            others += 1
        else:
            found.append(fields)
    return found, others


def associate_queries(
    graph_queries: Sequence[str],
    queries: Sequence[str],
    provider: EmbeddingProvider,
    cache: EmbeddingCache | None = None,
    tau: float = 0.3,
) -> list[list[str]]:
    """Per graph query: itself first, then every decomposition query whose
    similarity to it strictly exceeds tau."""
    vectors = embed_batch(list(queries) + list(graph_queries), provider, cache)
    query_vecs = vectors[: len(queries)]
    return [
        [graph_query] + [q for q, qv in zip(queries, query_vecs) if similarity(qv, gq_vec) > tau and q != graph_query]
        for graph_query, gq_vec in zip(graph_queries, vectors[len(queries):])
    ]


def filter_and_build_structural_prompt(
    payload: Sequence[TripleLike],
    associations: Sequence[Sequence[str]],
    template: PromptTemplate,
) -> str:
    """Build the structural-enrichment prompt over the payload triples.

    associations[i] holds the queries paired with payload[i] (see
    `associate_queries`); the paths are those among the payload triples.
    """
    if not payload:
        raise ValueError("payload must be non-empty")
    if len(associations) != len(payload):
        raise ValueError(f"{len(associations)} associations for {len(payload)} payload triples")
    lines = [format_triple_compact(t) + "".join(f"-{q}" for q in assoc) for t, assoc in zip(payload, associations)]
    paths = extract_paths(payload)
    one_hop = [format_triple_compact(p[0]) for p in paths if len(p) == 1]
    two_hop = ["->".join(map(format_triple_compact, p)) for p in paths if len(p) == 2]
    return render_template(
        template,
        {
            "quadruples": "\n".join(lines),
            "1-hop path": "\n".join(one_hop),
            "2-hop path": "\n".join(two_hop),
        },
    )


def _provenance_map(text: str) -> dict[tuple[str, str, str], Provenance]:
    """Best-effort mapping from triples mentioned in the reasoning region to the
    nearest preceding property keyword."""
    keywords = [(m.start(), m.group(0).lower()) for m in _PROVENANCE_KEYWORD_RE.finditer(text)]
    mapping: dict[tuple[str, str, str], Provenance] = {}
    for match in _TRIPLE_PATTERN_RE.finditer(text):
        fields = _split_triple_line(match.group(0))
        if fields is None:
            continue
        kind = Provenance.SIMILARITY
        for pos, word in keywords:
            if pos > match.start():
                break
            kind = Provenance(word)
        mapping[fields] = kind
    return mapping


def parse_structural_output(raw: str) -> StructuralParse:
    """Parse generated triples from the region after the last 'Final output:' marker.

    Without the marker the whole text is scanned. Markup-tag lines such as
    '{/thought}' are ignored; other non-triple lines count as skipped.
    """
    idx = raw.rfind(FINAL_OUTPUT_MARKER)
    region = raw[idx + len(FINAL_OUTPUT_MARKER):] if idx >= 0 else raw
    preamble = raw[:idx] if idx >= 0 else ""
    provenance = _provenance_map(preamble)
    found, skipped = _triple_lines(region)
    triples = [EnrichedTriple(fields, provenance.get(fields, Provenance.SIMILARITY)) for fields in found]
    return StructuralParse(triples, skipped)


@dataclass
class EntityContext:
    entity: str
    triples: list[TripleLike] = field(default_factory=list)
    queries: list[str] = field(default_factory=list)


def collect_entity_contexts(
    triples: Sequence[TripleLike],
    associations: Sequence[Sequence[str]],
) -> list[EntityContext]:
    """One context per distinct endpoint entity, in first-occurrence order.

    associations[i] holds the queries paired with triples[i]; an entity
    inherits the queries of every incident triple, deduplicated in order.
    """
    contexts: dict[str, EntityContext] = {}
    for t, assoc in zip(triples, associations):
        s, _, o = t
        for entity in (s, o):  # a self-loop joins its entity's context twice
            ctx = contexts.setdefault(entity, EntityContext(entity=entity))
            ctx.triples.append(t)
            for q in assoc:
                if q not in ctx.queries:
                    ctx.queries.append(q)
    return list(contexts.values())


def build_feature_prompt(contexts: Sequence[EntityContext], template: PromptTemplate) -> str:
    """Render the feature-enrichment prompt, one context block per entity."""
    if not contexts:
        raise ValueError("entity list must be non-empty")
    blocks = []
    for ctx in contexts:
        name = ctx.entity
        triples = "-".join(format_triple_compact(t) for t in ctx.triples)
        queries = "-".join(ctx.queries)
        blocks.append(
            f"[${name}$ context]\n"
            f"relavent triple(s):{triples}\n"
            f"relavent user query(ies):{queries}\n"
            f"[/${name}$ context]"
        )
    return render_template(template, {"entity list": "\n".join(blocks)})


def parse_feature_output(raw: str) -> FeatureParse:
    """Parse ontology triples from the last {result}...{/result} block.

    The middle field must belong to the closed ontology-relation vocabulary;
    anything else increments the rejected count. Without markers the whole
    text is scanned.
    """
    blocks = re.findall(r"\{result\}(.*?)\{/result\}", raw, re.DOTALL)
    region = blocks[-1] if blocks else raw
    found, not_triples = _triple_lines(region)
    ontology = [fields for fields in found if fields[1] in ONTOLOGY_RELATIONS]
    triples = [EnrichedTriple(fields, Provenance.HIERARCHY) for fields in ontology]
    return FeatureParse(triples, not_triples + len(found) - len(ontology))


def merge_enriched(base: Sequence[TripleLike], generated: Sequence[EnrichedTriple]) -> list[EnrichedTriple]:
    """The generated triples that are new to the base, deduplicated on (s, r, o), in generation order.

    Each one is flagged grounded=False when neither endpoint occurs in the base
    graph; structural triples record the positions in `base` of the triples
    they share an endpoint with.
    """
    keys = [tuple(t) for t in base]
    seen = set(keys)
    base_entities = {e for s, _, o in keys for e in (s, o)}
    merged: list[EnrichedTriple] = []
    for et in generated:
        key = tuple(et.triple)
        if key in seen:
            continue
        seen.add(key)
        s, _, o = key
        if et.provenance is Provenance.HIERARCHY:
            sources: tuple[int, ...] = ()
        else:
            sources = tuple(i for i, (bs, _, bo) in enumerate(keys) if bs in (s, o) or bo in (s, o))
        merged.append(replace(et, triple=key, grounded=s in base_entities or o in base_entities, source_indices=sources))
    return merged
