"""Text embedding providers, similarity, and batch caching.

The reference embedder is a hashed bag-of-words model: tokens are FNV-1a
64-bit hashed into a fixed number of count slots and the vector is
L2-normalized. It is deterministic across runs and platforms (pure integer
hashing, fixed fold order), which makes it suitable as an offline stand-in
for a sentence-encoder service in tests and fixtures. All entries are
non-negative, so pairwise similarities of non-empty texts land in [0, 1].
"""

from __future__ import annotations

import json
import logging
import re
import threading
import zlib
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .atomic import write_atomic
from .gateway import http_session, post_json, with_retries

DEFAULT_DIMENSION = 256
# Inputs per remote embedding or KGC-scoring request: the per-request cap OpenAI documents for embeddings.
MAX_INPUTS_PER_REQUEST = 2048

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

    def embed_many(self, texts: Sequence[str]) -> np.ndarray | list: ...  # (n, d) float64 rows; [] for no texts


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

    def embed_many(self, texts: Sequence[str]) -> np.ndarray | list:
        """One (n, d) count matrix, each row divided by its norm.

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
        return counts


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
    ):
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        self.endpoint = endpoint
        self.model = model
        self.dimension = dimension
        self.api_key_env = api_key_env
        self.timeout = timeout
        self._session = session if session is not None else http_session()
        self.provider_id = f"remote-{model}-{dimension}"

    def embed_many(self, texts: Sequence[str]) -> np.ndarray | list:
        """One request, with its own retries, per `MAX_INPUTS_PER_REQUEST` texts; rows in input order."""
        if not texts:
            return []
        texts = list(texts)
        out = np.empty((len(texts), self.dimension), dtype=np.float64)
        for start in range(0, len(texts), MAX_INPUTS_PER_REQUEST):
            batch = texts[start : start + MAX_INPUTS_PER_REQUEST]
            payload = {"input": batch, "model": self.model}
            try:
                body = with_retries(lambda: post_json(self._session, self.endpoint, payload, self.api_key_env, self.timeout))
                vectors = [np.asarray(item["embedding"], dtype=np.float64) for item in body["data"]]
            except RuntimeError as exc:
                raise EmbeddingError(f"embedding request failed: {exc!r}") from exc
            except (KeyError, TypeError, ValueError) as exc:
                raise EmbeddingError(f"malformed reply from {self.endpoint}: {exc!r}") from exc
            if len(vectors) != len(batch):
                raise EmbeddingError(f"expected {len(batch)} embeddings, got {len(vectors)}")
            for row, vec in zip(out[start:], vectors):
                if vec.shape != (self.dimension,):
                    raise EmbeddingError(f"embedding has dimension {vec.shape}, expected {self.dimension}")
                norm = float(np.linalg.norm(vec))
                row[:] = vec / norm if norm > 0.0 else vec
        return out


def _set_bits(bits: np.ndarray) -> np.ndarray:  # each packed row's number of set bits
    return np.bitwise_count(bits).sum(axis=1, dtype=np.intp)


def _spans(firsts: np.ndarray, counts: np.ndarray) -> np.ndarray:  # firsts[i] .. firsts[i] + counts[i] - 1, joined
    return np.arange(counts.sum()) + np.repeat(firsts + counts - np.cumsum(counts), counts)


class _Store:
    """One provider's vectors in the layout `save` writes, as one buffer: a row-aligned (n, ceil(d/8)) bitmap
    of the float64s whose bit pattern is nonzero, those values row by row, and each row's first-value offset
    (n + 1); a row costs ceil(d/8) + 8 bytes plus 8 per nonzero value. The first batch is kept as it arrives;
    a later one is appended to all three arrays before the text -> row index learns it."""

    def __init__(self, dimension: int):
        self.dimension = dimension
        self.bits = np.empty((0, -(-dimension // 8)), np.uint8)
        self.values = np.empty(0)
        self.offsets = np.zeros(1, np.intp)
        self.index: dict[str, int] = {}

    def add(self, texts: Sequence[str], bits: np.ndarray, counts: np.ndarray, values: np.ndarray) -> None:
        """Append packed bitmap rows (padding bits clear), each row's number of set bits, and their values."""
        start, ends = len(self.bits), self.offsets[-1] + np.cumsum(counts)
        if start:
            bits, values = np.concatenate((self.bits, bits)), np.concatenate((self.values, values))
        self.bits, self.values, self.offsets = bits, values, np.concatenate((self.offsets, ends))
        self.index.update(zip(texts, range(start, start + len(texts))))

    def select(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The bitmap rows and the values of `rows`, in their order."""
        firsts = self.offsets[rows]
        return self.bits[rows], self.values[_spans(firsts, self.offsets[rows + 1] - firsts)]

    def gather(self, rows: np.ndarray) -> np.ndarray:
        """A fresh (len(rows), d) array of those rows, filled by one boolean-mask assignment."""
        bits, values = self.select(rows)
        out = np.zeros((len(rows), self.dimension))
        out[np.unpackbits(bits, axis=1, count=self.dimension).view(bool)] = values
        return out


class EmbeddingCache:
    """Thread-safe (provider-id, text) -> vector cache persisted as two files.

    The sidecar (`.bin` beside the JSON index) holds, per provider, a bitmap
    of the vectors' nonzero float64 bit patterns, ceil(d/8) bytes per row
    with the padding bits clear, followed by those values, raw; the index
    holds each provider's sorted texts, dimension, section offset and value
    count, and the sidecar's size and CRC-32. Vectors round-trip bit for bit,
    sparse ones stay small, and a given set of entries always writes the same
    bytes. Memory keeps that layout, one buffer per provider (`_Store`); only
    lookups make dense rows. The cache tracks whether it gained entries since
    it was last loaded or saved, so an unchanged cache is not written again.
    """

    def __init__(self):
        self._stores: dict[str, _Store] = {}
        self._lock = threading.Lock()
        self._changed = False

    def __len__(self) -> int:
        return sum(len(store.index) for store in list(self._stores.values()))

    def get(self, provider_id: str, text: str) -> np.ndarray | None:  # a fresh dense row, not a view
        with self._lock:
            store = self._stores.get(provider_id)
            row = store.index.get(text) if store is not None else None
            return None if row is None else store.gather(np.array([row]))[0]

    def put(self, provider_id: str, text: str, vector: np.ndarray) -> None:
        self._add(provider_id, [text], np.asarray(vector, dtype=np.float64)[None])

    def _add(self, provider_id: str, texts: Sequence[str], matrix: np.ndarray) -> None:
        nonzero = matrix.view(np.uint64) != 0  # the bit pattern, so -0.0 and NaN payloads are kept
        bits = np.packbits(nonzero, axis=1)
        counts, values = _set_bits(bits), matrix[nonzero]
        with self._lock:  # rows of another width than the stored ones raise EmbeddingError
            self._store(provider_id, matrix.shape[1]).add(texts, bits, counts, values)
            self._changed = True

    def _store(self, provider_id: str, dimension: int) -> _Store:  # the caller holds the lock
        store = self._stores.setdefault(provider_id, _Store(dimension))
        if store.dimension != dimension:
            raise EmbeddingError(f"vectors of dimension {dimension} for a cache of dimension {store.dimension}")
        return store

    def _embed(self, texts: Sequence[str], provider: EmbeddingProvider) -> np.ndarray:
        """`texts`' vectors as one (n, d) array; the texts the cache lacks are embedded in one call."""
        with self._lock:
            store = self._stores.get(provider.provider_id)
            found = list(map(store.index.get, texts)) if store is not None else [None] * len(texts)
            if None not in found:
                return store.gather(np.array(found, dtype=np.intp))
        missing = list(dict.fromkeys(text for text, row in zip(texts, found) if row is None))
        vectors = np.asarray(provider.embed_many(missing), dtype=np.float64)
        if vectors.ndim != 2 or len(vectors) != len(missing):
            raise EmbeddingError(f"provider returned {len(vectors)} vectors for {len(missing)} texts")
        self._add(provider.provider_id, missing, vectors)
        return self._embed(texts, provider)  # every text is stored now, and entries are never removed

    def save(self, path: str | Path) -> None:
        """Write the sidecar `path.with_suffix(".bin")`, then the JSON index `path`,
        {"providers": {provider id: {"dimension": d, "texts": [...], "offset": o, "values": k}},
        "sidecar": {"bytes": size, "crc32": checksum}}, each whole or not at all;
        skipped when both files exist and no entry was added since the cache was
        last loaded or saved."""
        path = Path(path)
        sidecar = path.with_suffix(".bin")
        with self._lock:
            if not self._changed and path.exists() and sidecar.exists():
                return
            providers, sections, size = {}, [], 0
            for pid in sorted(self._stores):
                store = self._stores[pid]
                texts = sorted(store.index)
                bits, values = store.select(np.fromiter(map(store.index.get, texts), dtype=np.intp, count=len(texts)))
                values = values.astype("<f8", copy=False)
                providers[pid] = {"dimension": store.dimension, "texts": texts, "offset": size, "values": len(values)}
                sections += bits, values
                size += bits.nbytes + values.nbytes
            data = b"".join(sections)
            write_atomic(sidecar, data)  # first: an index beside another save's sidecar fails its checksum
            checked = {"bytes": size, "crc32": zlib.crc32(data)}
            write_atomic(path, json.dumps({"providers": providers, "sidecar": checked}, sort_keys=True))
            self._changed = False

    def load(self, path: str | Path) -> int:
        """Merge persisted vectors into this cache; returns the number of entries loaded.

        Each provider's entries join its store as one batch of views of the
        sidecar's bytes. An unreadable pair (either file missing or not
        readable, an index that is not the JSON `save` writes, a sidecar whose
        size or checksum differs from the index's, sections that do not tile
        the sidecar, values not one per set bit, or an older layout such as
        the single file with zlib-compressed "vectors") loads nothing: it logs
        a warning and marks the cache changed, so the next `save` replaces
        both files; the vectors are recomputed on a miss.
        """
        path = Path(path)
        try:
            index = json.loads(path.read_text(encoding="utf-8"))
            saved = index["sidecar"]["bytes"], index["sidecar"]["crc32"]  # an older layout fails here
            raw = path.with_suffix(".bin").read_bytes()
            if (len(raw), zlib.crc32(raw)) != saved:
                raise ValueError("the sidecar is not the one this index was saved with")
            entries, pos = {}, 0
            for pid, entry in index["providers"].items():
                texts, dim = entry["texts"], entry["dimension"]
                if type(texts) is not list or not set(map(type, texts)) <= {str} or type(dim) is not int or dim < 1:
                    raise TypeError(f"texts must be a list of strings and dimension an int >= 1, not {dim!r}")
                if entry["offset"] != pos:
                    raise ValueError(f"section of {pid!r} starts at {entry['offset']!r}, not {pos}")
                width = -(-dim // 8)  # bytes per bitmap row
                bits = np.frombuffer(raw, np.uint8, len(texts) * width, offset=pos)  # raises before any allocation
                bits = bits.reshape(len(texts), width)
                if dim % 8:  # a set padding bit at the end of a row is ignored
                    bits = bits.copy()
                    bits[:, -1] &= 0xFF << (-dim % 8) & 0xFF
                counts = _set_bits(bits)
                total = int(counts.sum())
                if entry["values"] != total:
                    raise ValueError(f"{entry['values']!r} values for {total} set bits")
                values = np.frombuffer(raw, "<f8", total, offset=pos + bits.nbytes)
                pos += bits.nbytes + values.nbytes
                entries[pid] = texts, dim, bits, counts, values
            if pos != len(raw):
                raise ValueError(f"the sections end at byte {pos} of {len(raw)}")
        except (OSError, ValueError, TypeError, AttributeError, KeyError, OverflowError) as exc:
            logger.warning("ignoring unreadable embedding cache %s: %s: %s", path, type(exc).__name__, exc)
            with self._lock:
                self._changed = True
            return 0
        with self._lock:
            for pid, (texts, dim, *arrays) in entries.items():
                self._store(pid, dim).add(texts, *arrays)
        return sum(len(texts) for texts, *_ in entries.values())


def embed_batch(texts: Sequence[str], provider: EmbeddingProvider, cache: EmbeddingCache | None = None) -> np.ndarray | list:
    """Embed texts preserving order, as one (n, d) array (`[]` for no texts);
    each distinct text is computed at most once.

    With a cache, previously seen (provider, text) pairs are never recomputed;
    without one, deduplication still applies within the call.
    """
    if not texts:
        return []
    return (cache if cache is not None else EmbeddingCache())._embed(texts, provider)
