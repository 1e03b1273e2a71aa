"""Whole-or-nothing file writes, shared by the pipeline and the embedding cache."""

from __future__ import annotations

import os
import threading
from pathlib import Path


def write_atomic(path: Path, text: str) -> None:
    """Write `text` to `path` whole or not at all: through a temp file in the
    same directory, renamed over `path`. The temp name carries the process
    and thread id, so concurrent writers of one path never share a temp file,
    and ends in `.tmp`, so a write cut short never matches the `*.json` row
    and artifact names."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
