"""Question decomposition trees and graph queries.

The decomposition grammar is an indented tree: one node per line, depth given
by the number of leading '-' characters, children directly below their parent
at depth+1. Leaves are unit queries (directly answerable), internal nodes are
compound queries (multi-hop). The flattened query set keeps the original
question first, then every sub-query in pre-order with exact-string dedup.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .gateway import DEFAULT_TEMPERATURE, ChatRequest, PromptTemplate, render_template
from .graph import TripleLike, relation_text

if TYPE_CHECKING:
    from .gateway import Gateway

logger = logging.getLogger(__name__)

UNIT = "unit"
COMPOUND = "compound"


class TreeParseError(ValueError):
    """Decomposition output does not follow the indented-tree grammar."""


@dataclass
class QueryNode:
    text: str
    depth: int
    kind: str = UNIT
    children: list["QueryNode"] = field(default_factory=list)


@dataclass
class QueryDecomposition:
    root: QueryNode
    nodes: list[QueryNode]  # pre-order, i.e. input order
    flat: list[str]
    degraded: bool = False


def parse_decomposition_tree(raw: str) -> QueryDecomposition:
    """Parse the indented-tree output grammar; see module docstring.

    Raises TreeParseError on empty input, a missing root, more than one
    depth-0 line, or a depth jump greater than one.
    """
    nodes: list[QueryNode] = []
    stack: list[QueryNode] = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        depth = 0
        while depth < len(stripped) and stripped[depth] == "-":
            depth += 1
        text = stripped[depth:].strip()
        if not text:
            raise TreeParseError(f"line {lineno}: node has no text")
        if not nodes:
            if depth > 0:
                raise TreeParseError(f"line {lineno}: missing root (first line must have depth 0)")
        elif depth == 0:
            raise TreeParseError(f"line {lineno}: multiple roots")
        elif depth > stack[-1].depth + 1:
            raise TreeParseError(f"line {lineno}: depth jump from {stack[-1].depth} to {depth}")
        node = QueryNode(text=text, depth=depth)
        while stack and stack[-1].depth >= depth:
            stack.pop()
        if stack:
            stack[-1].children.append(node)
        stack.append(node)
        nodes.append(node)
    if not nodes:
        raise TreeParseError("empty decomposition output")
    for node in nodes:
        node.kind = COMPOUND if node.children else UNIT
    flat: list[str] = []
    for node in nodes:
        if node.text not in flat:
            flat.append(node.text)
    return QueryDecomposition(root=nodes[0], nodes=nodes, flat=flat)


def single_node_decomposition(question: str, degraded: bool = False) -> QueryDecomposition:
    root = QueryNode(text=question, depth=0, kind=UNIT)
    return QueryDecomposition(root=root, nodes=[root], flat=[question], degraded=degraded)


def decompose(
    question: str,
    gateway: "Gateway",
    template: PromptTemplate,
    question_id: str | None = None,
    temperature: float = DEFAULT_TEMPERATURE,
) -> QueryDecomposition:
    """Ask the provider to decompose the question and parse the tree.

    One retry with the identical prompt on parse failure, then a degraded
    single-node fallback. Transport failures propagate after the gateway's
    own retries are exhausted.
    """
    if not question:
        raise ValueError("question must be non-empty")
    prompt = render_template(template, {"question": question})
    request = ChatRequest(prompt, temperature, template.name, question_id)
    last_error: TreeParseError | None = None
    for _ in range(2):
        response = gateway.complete(request)
        try:
            return parse_decomposition_tree(response.content)
        except TreeParseError as exc:
            last_error = exc
    logger.warning("question %s: decomposition unparseable (%s), using single-node fallback", question_id, last_error)
    return single_node_decomposition(question, degraded=True)


def decomposition_to_dict(decomposition: QueryDecomposition) -> dict:
    return {
        "nodes": [{"text": n.text, "depth": n.depth, "kind": n.kind} for n in decomposition.nodes],
        "flat": list(decomposition.flat),
        "degraded": decomposition.degraded,
    }


def fallback_graph_query(triple: TripleLike) -> str:
    """Deterministic graph query of a triple: the question form of the fact."""
    s, r, _ = triple
    return f"What is the {relation_text(r)} of {s}?"
