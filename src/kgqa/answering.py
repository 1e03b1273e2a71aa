"""Question-answering prompt assembly and constrained answer parsing."""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .gateway import PromptTemplate, render_template
from .graph import TripleLike

FINAL_ANSWER_MARKER = "Final answer:"
COT_ANSWER_MARKER = "The answer is"

_MID_RE = re.compile(r"m\.[0-9A-Za-z_]+")


@dataclass
class AnswerSet:
    """Raw provider output plus the ordered, deduplicated normalized answers."""

    raw: str
    answers: list[str] = field(default_factory=list)


def normalize_answer(s: str, ascii_fold: bool = False) -> str:
    """Unicode-lowercase, keep letters/digits/spaces only, collapse whitespace runs.

    Diacritics are preserved by default; ascii_fold strips combining marks for
    corpora whose gold answers are unaccented.
    """
    if ascii_fold:
        s = "".join(ch for ch in unicodedata.normalize("NFKD", s) if not unicodedata.combining(ch))
    kept = []
    for ch in s.lower():
        if ch.isalnum():
            kept.append(ch)
        elif ch.isspace():
            kept.append(" ")
    return " ".join("".join(kept).split())


def build_qa_prompt(question: str, triples: Sequence[TripleLike], template: PromptTemplate) -> str:
    """Render the QA template with one '(s, r, o)' line per triple, in order."""
    lines = [f"({s}, {r}, {o})" for s, r, o in triples]
    return render_template(template, {"question": question, "knowledge graph": "\n".join(lines)})


def parse_final_answers(raw: str) -> AnswerSet:
    """Extract the final answers from a question-answering response.

    Takes the text after the last 'Final answer:' marker, falling back to the
    text after the last 'The answer is' (a reply that ends in free prose) and
    then the whole text. Splits on '<SEP>', strips decorating braces, drops
    bare MIDs (the prompt forbids ID-shaped answers), and passes the rest to
    `normalize_all`. An empty result is allowed and simply scores as wrong.
    """
    region = raw
    idx = raw.rfind(FINAL_ANSWER_MARKER)
    if idx >= 0:
        region = raw[idx + len(FINAL_ANSWER_MARKER):]
    else:
        idx = raw.rfind(COT_ANSWER_MARKER)
        if idx >= 0:
            region = raw[idx + len(COT_ANSWER_MARKER):]
    kept: list[str] = []
    for part in region.split("<SEP>"):
        entry = part.strip()
        if entry.startswith("{") and entry.endswith("}"):
            entry = entry[1:-1].strip()
        if not _MID_RE.fullmatch(entry):
            kept.append(entry)
    return AnswerSet(raw=raw, answers=normalize_all(kept))


def normalize_all(values: Iterable[str], ascii_fold: bool = False) -> list[str]:
    """Normalize a collection, dropping empty results and deduplicating while preserving order."""
    out: list[str] = []
    for value in values:
        normalized = normalize_answer(value, ascii_fold)
        if normalized and normalized not in out:
            out.append(normalized)
    return out
