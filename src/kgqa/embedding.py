"""Text embedding providers, similarity, and batch caching.

The reference embedder is a hashed bag-of-words model: tokens are FNV-1a
64-bit hashed into a fixed number of count slots and the vector is
L2-normalized. It is deterministic across runs and platforms (pure integer
hashing, fixed fold order), which makes it suitable as an offline stand-in
for a sentence-encoder service in tests and fixtures. All entries are
non-negative, so pairwise similarities of non-empty texts land in [0, 1].
"""

from __future__ import annotations

import base64
import json
import logging
import re
import threading
import time
import zlib
from pathlib import Path
from typing import Iterator, Protocol, Sequence

import numpy as np

from .atomic import write_atomic
from .gateway import http_session, post_json, with_retries

DEFAULT_DIMENSION = 256

FNV64_OFFSET_BASIS = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

logger = logging.getLogger(__name__)


class EmbeddingError(RuntimeError):
    """Embedding lookup failed (bad response or exhausted retries)."""


def fnv1a_64(data: bytes) -> int:
    h = FNV64_OFFSET_BASIS
    for byte in data:
        h ^= byte
        h = (h * FNV64_PRIME) & _MASK64
    return h


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs (underscore counts as a separator)."""
    return _TOKEN_RE.findall(text.lower())


def embed_reference(text: str, dimension: int = DEFAULT_DIMENSION) -> np.ndarray:
    """Hashed bag-of-words embedding; the empty token list maps to the zero vector."""
    vec = np.zeros(dimension, dtype=np.float64)
    for token in tokenize(text):
        vec[fnv1a_64(token.encode("utf-8")) % dimension] += 1.0
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return vec


def similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product; cosine for unit vectors. Raises on dimension mismatch."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.dot(a, b))


class EmbeddingProvider(Protocol):
    provider_id: str
    dimension: int

    def embed_many(self, texts: Sequence[str]) -> list[np.ndarray]: ...


class ReferenceEmbedder:
    """Deterministic offline embedder; see module docstring."""

    def __init__(self, dimension: int = DEFAULT_DIMENSION):
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        self.provider_id = f"reference-fnv1a-{dimension}"
        # token -> slot, so FNV-1a runs once per distinct token; worker threads
        # share it, and a racing insert stores the same value twice.
        self._slots: dict[str, int] = {}

    def embed_many(self, texts: Sequence[str]) -> list[np.ndarray]:
        """Rows of one count matrix, each divided by its norm.

        Bit-identical to `embed_reference`: the counts are small integers, so
        their sum of squares is exact in any order, and the square root and
        the division are correctly rounded.
        """
        if not texts:
            return []
        d = self.dimension
        slots = self._slots
        tokens = [tokenize(text) for text in texts]
        for token in {tok for toks in tokens for tok in toks}.difference(slots):
            slots[token] = fnv1a_64(token.encode("utf-8")) % d
        flat = np.fromiter((row * d + slots[tok] for row, toks in enumerate(tokens) for tok in toks), dtype=np.intp)
        counts = np.bincount(flat, weights=np.ones(len(flat)), minlength=len(texts) * d)
        counts = counts.astype(np.float64, copy=False).reshape(len(texts), d)  # int64 when `flat` is empty
        norms = np.sqrt(np.einsum("ij,ij->i", counts, counts))[:, None]
        np.divide(counts, norms, out=counts, where=norms > 0.0)
        return list(counts)


class RemoteEmbedder:
    """HTTP embedding service speaking {"input": [...], "model": ...} -> {"data": [{"embedding": [...]}]}.

    Vectors are L2-normalized on receipt so downstream dot products stay
    comparable with the reference embedder.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        dimension: int = DEFAULT_DIMENSION,
        api_key_env: str | None = None,
        timeout: float = 60.0,
        session=None,
        sleep=time.sleep,
    ):
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        self.endpoint = endpoint
        self.model = model
        self.dimension = dimension
        self.api_key_env = api_key_env
        self.timeout = timeout
        self._sleep = sleep
        self._session = session if session is not None else http_session()
        self.provider_id = f"remote-{model}-{dimension}"

    def embed_many(self, texts: Sequence[str]) -> list[np.ndarray]:
        if not texts:
            return []
        payload = {"input": list(texts), "model": self.model}
        try:
            body = with_retries(
                lambda: post_json(self._session, self.endpoint, payload, self.api_key_env, self.timeout),
                sleep=self._sleep,
            )
            data = body["data"]
        except (RuntimeError, KeyError, TypeError) as exc:
            raise EmbeddingError(f"embedding request failed: {exc!r}") from exc
        if len(data) != len(texts):
            raise EmbeddingError(f"expected {len(texts)} embeddings, got {len(data)}")
        out = []
        for item in data:
            vec = np.asarray(item["embedding"], dtype=np.float64)
            if vec.shape != (self.dimension,):
                raise EmbeddingError(f"embedding has dimension {vec.shape}, expected {self.dimension}")
            norm = float(np.linalg.norm(vec))
            if norm > 0.0:
                vec = vec / norm
            out.append(vec)
        return out


class EmbeddingCache:
    """Thread-safe (provider-id, text) -> vector cache with JSON persistence.

    The persisted form maps each provider id to its sorted texts and their
    vectors, packed as zlib-compressed little-endian float64 rows in text
    order, so vectors round-trip bit for bit and a given set of entries
    always writes the same bytes. The cache tracks whether it gained entries
    since it was last loaded or saved, so an unchanged cache is not written
    again.
    """

    def __init__(self):
        self._data: dict[tuple[str, str], np.ndarray] = {}
        self._lock = threading.Lock()
        self._changed = False

    def __len__(self) -> int:
        return len(self._data)

    def get(self, provider_id: str, text: str) -> np.ndarray | None:
        with self._lock:
            return self._data.get((provider_id, text))

    def put(self, provider_id: str, text: str, vector: np.ndarray) -> None:
        with self._lock:
            self._data[(provider_id, text)] = vector
            self._changed = True

    def save(self, path: str | Path) -> None:
        """Write {provider id: {"texts": [...], "vectors": "<base64>"}} to `path`
        as JSON, whole or not at all; skipped when `path` exists and no entry
        was added since the cache was last loaded or saved."""
        path = Path(path)
        with self._lock:
            if not self._changed and path.exists():
                return
            by_provider: dict[str, dict[str, np.ndarray]] = {}
            for (pid, text), vec in self._data.items():
                by_provider.setdefault(pid, {})[text] = vec
            payload = {pid: _pack(vectors) for pid, vectors in by_provider.items()}
            write_atomic(path, json.dumps(payload, sort_keys=True))
            self._changed = False

    def load(self, path: str | Path) -> int:
        """Merge persisted vectors into this cache; returns the number of entries loaded.

        Loaded vectors are read-only rows of one array per provider. An
        unreadable file (truncated, not the JSON `save` writes, or an older
        layout) loads nothing: it logs a warning and marks the cache changed,
        so the next `save` replaces the file; the vectors are recomputed on a
        miss.
        """
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
            entries = {
                (pid, text): row for pid, packed in payload.items() for text, row in _unpack(packed)
            }
        except (ValueError, TypeError, AttributeError, KeyError, zlib.error) as exc:
            logger.warning("ignoring unreadable embedding cache %s: %s", path, exc)
            with self._lock:
                self._changed = True
            return 0
        with self._lock:
            self._data.update(entries)
        return len(entries)


def _pack(vectors: dict[str, np.ndarray]) -> dict:
    texts = sorted(vectors)
    rows = np.stack([vectors[text] for text in texts]).astype("<f8", copy=False)
    return {"texts": texts, "vectors": base64.b64encode(zlib.compress(rows.tobytes(), 1)).decode("ascii")}


def _unpack(packed: dict) -> Iterator[tuple[str, np.ndarray]]:
    """(text, vector) pairs of one provider's entry; raises on any malformed part."""
    texts = packed["texts"]
    if not isinstance(texts, list) or not all(isinstance(text, str) for text in texts):
        raise TypeError("texts must be a list of strings")
    raw = zlib.decompress(base64.b64decode(packed["vectors"], validate=True))
    return zip(texts, np.frombuffer(raw, dtype="<f8").reshape(len(texts), -1))


def embed_batch(
    texts: Sequence[str],
    provider: EmbeddingProvider,
    cache: EmbeddingCache | None = None,
) -> list[np.ndarray]:
    """Embed texts preserving order; each distinct text is computed at most once.

    With a cache, previously seen (provider, text) pairs are never recomputed;
    without one, deduplication still applies within the call.
    """
    if not texts:
        return []
    local: dict[str, np.ndarray] = {}
    missing: list[str] = []
    seen: set[str] = set()
    for text in texts:
        if text in seen:
            continue
        seen.add(text)
        cached = cache.get(provider.provider_id, text) if cache is not None else None
        if cached is not None:
            local[text] = cached
        else:
            missing.append(text)
    if missing:
        vectors = provider.embed_many(missing)
        if len(vectors) != len(missing):
            raise EmbeddingError(f"provider returned {len(vectors)} vectors for {len(missing)} texts")
        for text, vec in zip(missing, vectors):
            vec = np.asarray(vec, dtype=np.float64)
            local[text] = vec
            if cache is not None:
                cache.put(provider.provider_id, text, vec)
    return [local[text] for text in texts]
