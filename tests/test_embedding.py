from __future__ import annotations

import base64
import json
import logging
import os
import pathlib
import threading
import tracemalloc
import zlib
from concurrent.futures import ThreadPoolExecutor
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgqa.embedding import (
    DEFAULT_DIMENSION,
    EmbeddingCache,
    EmbeddingError,
    ReferenceEmbedder,
    embed_batch,
    embed_reference,
    fnv1a_64,
    similarity,
    tokenize,
)

from helpers import fnv64_oracle, random_phrase, write_dense_cache


class TableEmbedder:
    """Returns fixed vectors from a text -> vector table, as one matrix."""

    provider_id = "table"
    dimension = 6

    def __init__(self, table):
        self.table = table

    def embed_many(self, texts):
        return np.array([self.table[text] for text in texts]) if texts else []


class CountingEmbedder:
    """Wraps the reference embedder and counts texts actually computed."""

    def __init__(self):
        self.inner = ReferenceEmbedder()
        self.provider_id = self.inner.provider_id
        self.dimension = self.inner.dimension
        self.computed = 0

    def embed_many(self, texts):
        self.computed += len(texts)
        return self.inner.embed_many(texts)


# Float64 values a vector may hold, with the edge cases drawn often.
float64s = st.floats(width=64) | st.sampled_from(
    [-0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, float("inf"), float("-inf"), float("nan"), 1e300, -1e-300]
)


@st.composite
def cache_contents(draw) -> dict[str, dict[str, np.ndarray]]:
    """1-3 providers with distinct dimensions, each with some unicode texts and their vectors."""
    dims = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True))
    pids = draw(st.lists(st.text(max_size=8), min_size=len(dims), max_size=len(dims), unique=True))
    return {
        pid: {
            text: np.array(draw(st.lists(float64s, min_size=dim, max_size=dim)), dtype=np.float64)
            for text in draw(st.lists(st.text(max_size=12), min_size=1, max_size=5, unique=True))
        }
        for pid, dim in zip(pids, dims)
    }


class TestFnv:
    def test_known_offset_basis(self):
        assert fnv1a_64(b"") == 0xCBF29CE484222325

    def test_matches_independent_implementation(self):
        rng = Random(3)
        for _ in range(200):
            data = random_phrase(rng).encode("utf-8")
            assert fnv1a_64(data) == fnv64_oracle(data)


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("Hello, World_again 42!") == ["hello", "world", "again", "42"]

    def test_accents_kept(self):
        assert tokenize("Costa Rican colón") == ["costa", "rican", "colón"]

    def test_empty(self):
        assert tokenize("  .! ") == []


class TestReferenceEmbedder:
    def test_repeated_token_collapses_under_normalization(self):
        assert np.allclose(embed_reference("abc abc"), embed_reference("abc"))

    def test_identity_similarity(self):
        v = embed_reference("capital of France")
        assert similarity(v, v) == pytest.approx(1.0, abs=1e-6)

    def test_disjoint_tokens_zero_similarity(self):
        a, b = "alpha", "beta"
        slot_a = fnv64_oracle(a.encode()) % 256
        slot_b = fnv64_oracle(b.encode()) % 256
        assert slot_a != slot_b
        assert similarity(embed_reference(a), embed_reference(b)) == 0.0

    def test_empty_text_is_zero_vector(self):
        v = embed_reference("")
        assert float(np.linalg.norm(v)) == 0.0
        assert similarity(v, embed_reference("anything")) == 0.0

    def test_unit_norm_for_non_empty(self):
        rng = Random(9)
        for _ in range(50):
            v = embed_reference(random_phrase(rng, rng.randint(1, 6)))
            assert float(np.linalg.norm(v)) == pytest.approx(1.0, abs=1e-6)

    def test_entries_non_negative_hence_similarity_in_unit_interval(self):
        rng = Random(10)
        vs = [embed_reference(random_phrase(rng, rng.randint(1, 6))) for _ in range(40)]
        for v in vs:
            assert (v >= 0).all()
        for i in range(len(vs)):
            for j in range(len(vs)):
                s = similarity(vs[i], vs[j])
                assert -1e-12 <= s <= 1.0 + 1e-9

    def test_deterministic_across_calls(self):
        a = embed_reference("the amber fjord of xenon")
        b = embed_reference("the amber fjord of xenon")
        assert (a == b).all()


class TestSimilarity:
    def test_orthogonal_basis(self):
        e1 = np.zeros(4)
        e1[0] = 1.0
        e2 = np.zeros(4)
        e2[1] = 1.0
        assert similarity(e1, e2) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=16), rng.normal(size=16)
        assert similarity(a, b) == pytest.approx(similarity(b, a), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            similarity(np.zeros(4), np.zeros(8))


class TestEmbedBatch:
    def test_repeated_texts_computed_once(self):
        provider = CountingEmbedder()
        out = embed_batch(["a", "a", "b"], provider)
        assert len(out) == 3
        assert provider.computed <= 2
        assert (out[0] == out[1]).all()

    def test_empty(self):
        assert embed_batch([], ReferenceEmbedder()) == []

    def test_matches_single_calls(self):
        rng = Random(17)
        texts = [random_phrase(rng, rng.randint(1, 5)) for _ in range(1000)]
        out = embed_batch(texts, ReferenceEmbedder())
        for text, vec in zip(texts, out):
            assert (vec == embed_reference(text)).all()

    def test_cache_prevents_recompute_across_calls(self):
        provider = CountingEmbedder()
        cache = EmbeddingCache()
        embed_batch(["x", "y"], provider, cache)
        before = provider.computed
        out = embed_batch(["x", "y", "z"], provider, cache)
        assert provider.computed == before + 1
        assert (out[0] == embed_reference("x")).all()

    def test_output_order_matches_input(self):
        texts = ["b", "a", "b", "c", "a"]
        out = embed_batch(texts, ReferenceEmbedder())
        for text, vec in zip(texts, out):
            assert (vec == embed_reference(text)).all()


class TestCachePersistence:
    def test_save_load_round_trip(self, tmp_path):
        provider = ReferenceEmbedder()
        cache = EmbeddingCache()
        texts = ["amber mesa", "cobalt reed", "dune"]
        expected = embed_batch(texts, provider, cache)
        path = tmp_path / "cache.json"
        cache.save(path)

        restored = EmbeddingCache()
        assert restored.load(path) == len(texts)
        counting = CountingEmbedder()
        out = embed_batch(texts, counting, restored)
        assert counting.computed == 0
        for vec, exp in zip(out, expected):
            assert (vec == exp).all()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(entries=cache_contents())
    def test_round_trip_is_bit_for_bit(self, tmp_path_factory, entries):
        cache = EmbeddingCache()
        for pid, vectors in entries.items():
            for text, vec in vectors.items():
                cache.put(pid, text, vec)
        path = tmp_path_factory.mktemp("cache") / "cache.json"
        cache.save(path)
        restored = EmbeddingCache()
        assert restored.load(path) == sum(len(v) for v in entries.values())
        for pid, vectors in entries.items():
            for text, vec in vectors.items():
                assert (restored.get(pid, text).view(np.int64) == vec.view(np.int64)).all()

    def test_same_entries_save_same_bytes(self, tmp_path):
        rng = np.random.default_rng(5)
        entries = [
            (pid, f"text {i}", rng.standard_normal(dim)) for pid, dim in (("a-8", 8), ("b-3", 3)) for i in range(40)
        ]
        paths = []
        for order in (entries, entries[::-1]):
            cache = EmbeddingCache()
            for pid, text, vec in order:
                cache.put(pid, text, vec)
            paths.append(tmp_path / f"cache-{len(paths)}.json")
            cache.save(paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert json.loads(paths[0].read_text())["a-8"]["texts"] == sorted(f"text {i}" for i in range(40))

    def test_empty_cache_writes_empty_object(self, tmp_path):
        path = tmp_path / "cache.json"
        EmbeddingCache().save(path)
        assert path.read_bytes() == b"{}"

    def test_unchanged_cache_is_not_rewritten(self, tmp_path):
        path = tmp_path / "cache.json"
        first = EmbeddingCache()
        embed_batch(["amber mesa", "dune"], ReferenceEmbedder(), first)
        first.save(path)
        os.utime(path, ns=(10**9, 10**9))
        before = path.read_bytes(), path.stat().st_mtime_ns, path.stat().st_ino

        first.save(path)
        warm = EmbeddingCache()
        warm.load(path)
        embed_batch(["dune", "amber mesa"], ReferenceEmbedder(), warm)
        warm.save(path)
        assert (path.read_bytes(), path.stat().st_mtime_ns, path.stat().st_ino) == before

    def test_new_entries_rewrite_the_union(self, tmp_path):
        path = tmp_path / "cache.json"
        first = EmbeddingCache()
        embed_batch(["amber mesa", "dune"], ReferenceEmbedder(), first)
        first.save(path)
        warm = EmbeddingCache()
        warm.load(path)
        embed_batch(["dune", "cobalt reed"], ReferenceEmbedder(), warm)
        warm.save(path)
        restored = EmbeddingCache()
        assert restored.load(path) == 3
        counting = CountingEmbedder()
        embed_batch(["amber mesa", "dune", "cobalt reed"], counting, restored)
        assert counting.computed == 0

    def test_missing_file_is_written_again(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = EmbeddingCache()
        embed_batch(["dune"], ReferenceEmbedder(), cache)
        cache.save(path)
        saved = path.read_bytes()
        path.unlink()
        cache.save(path)
        assert path.read_bytes() == saved
        empty = tmp_path / "empty.json"
        EmbeddingCache().save(empty)
        assert json.loads(empty.read_text()) == {}

    def test_save_cut_short_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.json"
        cache = EmbeddingCache()
        embed_batch(["amber mesa"], ReferenceEmbedder(), cache)
        cache.save(path)
        previous = path.read_bytes()
        embed_batch(["dune"], ReferenceEmbedder(), cache)
        real_write_text = pathlib.Path.write_text

        def cut_short(target, text, *args, **kwargs):
            real_write_text(target, text[: len(text) // 2], *args, **kwargs)
            raise OSError("no space left on device")

        monkeypatch.setattr(pathlib.Path, "write_text", cut_short)
        with pytest.raises(OSError, match="no space"):
            cache.save(path)
        monkeypatch.setattr(pathlib.Path, "write_text", real_write_text)
        assert path.read_bytes() == previous
        assert not list(tmp_path.glob("*.tmp"))
        cache.save(path)  # the failed save left the new entry unsaved
        assert EmbeddingCache().load(path) == 2

    @pytest.mark.parametrize(
        "content",
        ['{"reference-fnv1a-256": {"ab": [0.5, ', "not json", "[1, 2]", '{"p": {"k": "x"}}'],
        ids=["truncated", "not-json", "not-an-object", "not-a-vector"],
    )
    def test_unreadable_file_loads_empty_and_is_replaced(self, tmp_path, caplog, content):
        path = tmp_path / "cache.json"
        path.write_text(content, encoding="utf-8")
        cache = EmbeddingCache()
        with caplog.at_level(logging.WARNING, logger="kgqa.embedding"):
            assert cache.load(path) == 0
        assert len(cache) == 0
        assert "unreadable embedding cache" in caplog.text
        cache.save(path)
        assert json.loads(path.read_text()) == {}

    @pytest.mark.parametrize("damage", ["float-lists", "bad-base64", "bad-zlib", "row-count"])
    def test_damaged_packed_file_loads_empty_and_is_replaced(self, tmp_path, caplog, damage):
        path = tmp_path / "cache.json"
        cache = EmbeddingCache()
        embed_batch(["amber mesa", "dune"], ReferenceEmbedder(), cache)
        cache.save(path)
        saved = path.read_bytes()
        payload = json.loads(saved)
        packed = payload["reference-fnv1a-256"]
        if damage == "float-lists":  # the layout before vectors were packed
            payload = {"reference-fnv1a-256": {"0" * 64: [0.5] * 256}}
        elif damage == "bad-base64":
            packed["vectors"] = packed["vectors"][:-2] + "!!"
        elif damage == "bad-zlib":
            packed["vectors"] = base64.b64encode(b"not a zlib stream").decode("ascii")
        else:
            packed["texts"].append("cobalt reed")
        path.write_text(json.dumps(payload), encoding="utf-8")
        restored = EmbeddingCache()
        with caplog.at_level(logging.WARNING, logger="kgqa.embedding"):
            assert restored.load(path) == 0
        assert len(restored) == 0
        assert "unreadable embedding cache" in caplog.text
        embed_batch(["amber mesa", "dune"], ReferenceEmbedder(), restored)
        restored.save(path)
        assert path.read_bytes() == saved

    def test_loaded_vector_is_a_fresh_copy_and_gathered_bit_equal(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = EmbeddingCache()
        embed_batch(["amber mesa", "dune"], ReferenceEmbedder(), cache)
        cache.save(path)
        restored = EmbeddingCache()
        restored.load(path)
        loaded = restored.get("reference-fnv1a-256", "amber mesa")
        expected = loaded.tobytes()
        # Each get densifies a fresh row: writing into it leaves the cache as it was.
        loaded[:] = 1.0
        again = restored.get("reference-fnv1a-256", "amber mesa")
        assert again.tobytes() == expected == embed_reference("amber mesa").tobytes()
        counting = CountingEmbedder()
        (out,) = embed_batch(["amber mesa"], counting, restored)
        assert counting.computed == 0
        assert out.tobytes() == expected
        assert (out == embed_reference("amber mesa")).all()

    def test_loaded_reference_vectors_retain_under_an_eighth_of_dense(self, tmp_path):
        rng = Random(6)
        texts = [f"{random_phrase(rng, rng.randint(1, 5))} {i}" for i in range(5000)]
        path = tmp_path / "cache.json"
        cache = EmbeddingCache()
        embed_batch(texts, ReferenceEmbedder(), cache)
        cache.save(path)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            restored = EmbeddingCache()
            assert restored.load(path) == len(texts)
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert retained < len(texts) * DEFAULT_DIMENSION * 8 / 8

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            ReferenceEmbedder(0)


class TestCacheMatrices:
    TEXTS = ["amber mesa", "cobalt reed", "dune", "xenon fjord", "quartz tide"]

    def test_gathers_across_matrices_in_input_order(self, tmp_path):
        rng = np.random.default_rng(12)
        table = {text: rng.standard_normal(6) for text in self.TEXTS}
        overwritten = np.array([-0.0, 5e-324, float("nan"), 1e300, -1.5, 0.25])
        first = EmbeddingCache()
        embed_batch(self.TEXTS[:2], TableEmbedder(table), first)
        first.save(tmp_path / "first.json")

        cache = EmbeddingCache()  # four matrices: the loaded one, two batches and a put
        cache.load(tmp_path / "first.json")
        embed_batch([self.TEXTS[2], self.TEXTS[0], self.TEXTS[3]], TableEmbedder(table), cache)
        embed_batch([self.TEXTS[4], self.TEXTS[2]], TableEmbedder(table), cache)
        cache.put("table", self.TEXTS[1], overwritten)
        assert len(cache) == len(self.TEXTS)
        final = {**table, self.TEXTS[1]: overwritten}
        order = ["quartz tide", "cobalt reed", "amber mesa", "dune", "cobalt reed", "xenon fjord", "quartz tide"]
        out = embed_batch(order, TableEmbedder({}), cache)  # an empty table: any miss raises
        assert out.tobytes() == np.array([final[text] for text in order]).tobytes()

        at_once = EmbeddingCache()
        embed_batch(self.TEXTS, TableEmbedder(final), at_once)
        cache.save(tmp_path / "gathered.json")
        at_once.save(tmp_path / "at_once.json")
        assert (tmp_path / "gathered.json").read_bytes() == (tmp_path / "at_once.json").read_bytes()

    def test_concurrent_batches_match_sequential(self):
        rng = Random(21)
        texts = [random_phrase(rng, rng.randint(1, 5)) for _ in range(600)]
        batches = [[texts[(31 * t + 7 * i) % len(texts)] for i in range(400)] for t in range(16)]
        sequential = EmbeddingCache()
        expected = [embed_batch(batch, ReferenceEmbedder(), sequential) for batch in batches]
        cache, embedder = EmbeddingCache(), ReferenceEmbedder()  # shared, as pipeline worker threads share them
        barrier = threading.Barrier(4)

        def run(worker):
            barrier.wait()
            return [embed_batch(batch, embedder, cache) for batch in batches[worker::4]]

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(run, range(4)))
        for worker, outs in enumerate(results):
            for out, exp in zip(outs, expected[worker::4]):
                assert out.tobytes() == exp.tobytes()
        assert len(cache) == len(set(texts))

    @pytest.mark.parametrize("state", ["no-cache", "cold", "warm", "mixed"])
    def test_batch_is_one_contiguous_float64_matrix(self, state):
        cache = None if state == "no-cache" else EmbeddingCache()
        if state in ("warm", "mixed"):
            embed_batch(self.TEXTS[:3] if state == "mixed" else self.TEXTS, ReferenceEmbedder(), cache)
        out = embed_batch(self.TEXTS + self.TEXTS[:2], ReferenceEmbedder(), cache)
        assert isinstance(out, np.ndarray)
        assert out.shape == (len(self.TEXTS) + 2, DEFAULT_DIMENSION)
        assert out.dtype == np.float64
        assert out.flags.c_contiguous


class TestCacheLayout:
    """The persisted vectors: a bitmap of nonzero float64 bit patterns, then those values."""

    TEXTS = ["amber mesa", "cobalt reed", "dune", "", "xenon fjord quartz tide", "heron"]

    def saved(self, tmp_path, provider=None):
        path = tmp_path / "cache.json"
        cache = EmbeddingCache()
        embed_batch(self.TEXTS, provider or ReferenceEmbedder(), cache)
        cache.save(path)
        return path

    def load_warns(self, path, caplog) -> EmbeddingCache:
        cache = EmbeddingCache()
        with caplog.at_level(logging.WARNING, logger="kgqa.embedding"):
            assert cache.load(path) == 0
        assert len(cache) == 0
        assert "unreadable embedding cache" in caplog.text
        return cache

    def test_dense_previous_layout_loads_empty_and_is_rewritten(self, tmp_path, caplog):
        reference = {text: embed_reference(text) for text in self.TEXTS}
        saved = self.saved(tmp_path).read_bytes()
        path = tmp_path / "dense.json"
        write_dense_cache(path, {"reference-fnv1a-256": reference})
        assert "dimension" not in json.loads(path.read_text())["reference-fnv1a-256"]
        cache = self.load_warns(path, caplog)
        counting = CountingEmbedder()
        embed_batch(self.TEXTS, counting, cache)
        assert counting.computed == len(self.TEXTS)
        cache.save(path)
        assert path.read_bytes() == saved
        assert json.loads(path.read_text())["reference-fnv1a-256"]["dimension"] == DEFAULT_DIMENSION
        restored = EmbeddingCache()
        assert restored.load(path) == len(self.TEXTS)
        for text, vec in reference.items():
            assert restored.get("reference-fnv1a-256", text).tobytes() == vec.tobytes()

    @pytest.mark.parametrize("dimension", [0, -1, True, 2.5, "256", 2**40], ids=repr)
    def test_bad_dimension_loads_empty(self, tmp_path, caplog, dimension):
        path = self.saved(tmp_path)
        payload = json.loads(path.read_text())
        payload["reference-fnv1a-256"]["dimension"] = dimension
        path.write_text(json.dumps(payload), encoding="utf-8")
        tracemalloc.start()
        try:
            cache = self.load_warns(path, caplog)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # the bitmap slice fails before a (6, 2**40) matrix is allocated
        embed_batch(self.TEXTS, ReferenceEmbedder(), cache)
        cache.save(path)
        assert EmbeddingCache().load(path) == len(self.TEXTS)

    def test_zero_rows_negative_zero_and_nan_payloads_round_trip(self, tmp_path):
        nan_payload = np.array([0x7FF8_0000_0000_1234, 0xFFF0_0000_0000_0001], dtype=np.uint64).view(np.float64)
        rows = {
            "zeros": np.zeros(5),
            "negative zeros": np.full(5, -0.0),
            "nan payloads": np.array([0.0, nan_payload[0], -0.0, nan_payload[1], 5e-324]),
        }
        cache = EmbeddingCache()
        for text, vec in rows.items():
            cache.put("edge-5", text, vec)
        path = tmp_path / "cache.json"
        cache.save(path)
        raw = zlib.decompress(base64.b64decode(json.loads(path.read_text())["edge-5"]["vectors"]))
        assert len(raw) == 2 + 8 * 9  # 15 bits, and every value but the four +0.0
        restored = EmbeddingCache()
        assert restored.load(path) == len(rows)
        for text, vec in rows.items():
            assert restored.get("edge-5", text).tobytes() == vec.tobytes()

    @pytest.mark.parametrize("dimension", [DEFAULT_DIMENSION, 13])
    def test_payload_is_bitmap_then_nonzero_values(self, tmp_path, dimension):
        provider = ReferenceEmbedder(dimension)
        path = self.saved(tmp_path, provider=provider)
        packed = json.loads(path.read_text())[provider.provider_id]
        assert packed["dimension"] == dimension
        dense = np.array([embed_reference(text, dimension) for text in packed["texts"]])
        n_bits, nnz = dense.size, np.count_nonzero(dense)
        raw = zlib.decompress(base64.b64decode(packed["vectors"]))
        assert len(raw) == -(-n_bits // 8) + 8 * nnz
        assert raw[: -(-n_bits // 8)] == np.packbits(dense != 0).tobytes()
        assert raw[-(-n_bits // 8) :] == dense[dense != 0].astype("<f8").tobytes()

    @pytest.mark.parametrize("damage", ["one-value", "extra-value", "short-bitmap"])
    def test_value_count_must_match_bitmap(self, tmp_path, caplog, damage):
        path = self.saved(tmp_path)
        payload = json.loads(path.read_text())
        packed = payload["reference-fnv1a-256"]
        raw = zlib.decompress(base64.b64decode(packed["vectors"]))
        n_bytes = len(self.TEXTS) * DEFAULT_DIMENSION // 8
        raw = {
            "one-value": raw[:n_bytes] + raw[n_bytes : n_bytes + 8],  # must not broadcast over the mask
            "extra-value": raw + raw[-8:],
            "short-bitmap": raw[: n_bytes - 1],
        }[damage]
        packed["vectors"] = base64.b64encode(zlib.compress(raw, 1)).decode("ascii")
        path.write_text(json.dumps(payload), encoding="utf-8")
        self.load_warns(path, caplog)


class TestBitmapStore:
    """In memory the cache keeps the file's layout: a row-aligned bitmap, the nonzero values, and offsets."""

    NAN_PAYLOADS = np.array([0x7FF8_0000_0000_1234, 0xFFF0_0000_0000_0001], dtype=np.uint64).view(np.float64)

    def round_trips(self, tmp_path, pid, rows: dict[str, np.ndarray]) -> None:
        """`rows` come back bit for bit from get and embed_batch, before and after save -> load."""
        cache = EmbeddingCache()
        for text, vec in rows.items():
            cache.put(pid, text, vec)
        embedder = TableEmbedder({})  # an empty table: any miss raises
        embedder.provider_id = pid
        path = tmp_path / f"{pid}.json"
        cache.save(path)
        restored = EmbeddingCache()
        assert restored.load(path) == len(rows)
        expected = np.array(list(rows.values())).view(np.uint64)
        for store in (cache, restored):
            for text, vec in rows.items():
                assert (store.get(pid, text).view(np.uint64) == vec.view(np.uint64)).all()
            assert (embed_batch(list(rows), embedder, store).view(np.uint64) == expected).all()

    def test_negative_zero_nan_payload_and_zero_row(self, tmp_path):
        self.round_trips(
            tmp_path,
            "edge-4",
            {
                "zeros": np.zeros(4),
                "negative zeros": np.full(4, -0.0),
                "nan payloads": np.array([self.NAN_PAYLOADS[0], 0.0, -0.0, self.NAN_PAYLOADS[1]]),
                "mixed": np.array([0.0, 5e-324, 0.0, -1.5]),
            },
        )

    @pytest.mark.parametrize("dimension", [1, 7, 12, 257])
    def test_dimensions_round_trip(self, tmp_path, dimension):
        rng = np.random.default_rng(dimension)
        rows = {}
        for i in range(9):
            vec = rng.standard_normal(dimension) * (rng.random(dimension) < 0.3)
            vec[rng.random(dimension) < 0.1] = -0.0
            rows[f"text {i}"] = vec
        rows["nan"] = np.full(dimension, self.NAN_PAYLOADS[0])
        self.round_trips(tmp_path, f"edge-{dimension}", rows)

    def test_gather_over_chunks_in_random_order_with_repeats(self, tmp_path):
        rng = Random(8)
        texts = list(dict.fromkeys(random_phrase(rng, rng.randint(1, 5)) for _ in range(400)))
        first = EmbeddingCache()
        embed_batch(texts[:100], ReferenceEmbedder(), first)
        first.save(tmp_path / "first.json")
        cache = EmbeddingCache()  # the loaded chunk, three batches and two puts
        cache.load(tmp_path / "first.json")
        for lo, hi in ((100, 180), (180, 300), (300, len(texts) - 2)):
            embed_batch(texts[lo:hi], ReferenceEmbedder(), cache)
        for text in texts[-2:]:
            cache.put("reference-fnv1a-256", text, embed_reference(text))
        order = [rng.choice(texts) for _ in range(1500)]
        counting = CountingEmbedder()
        out = embed_batch(order, counting, cache)
        assert counting.computed == 0
        assert out.tobytes() == np.array([embed_reference(text) for text in order]).tobytes()

    @pytest.mark.parametrize("failing_call", [1, 2, 3])
    def test_failed_append_leaves_the_cache_as_it_was(self, tmp_path, monkeypatch, failing_call):
        rng = Random(9)
        texts = list(dict.fromkeys(random_phrase(rng, rng.randint(1, 5)) for _ in range(80)))
        first, second = texts[:40], texts[30:]  # the second batch hits 10 texts and misses the rest
        cache, clean = EmbeddingCache(), EmbeddingCache()
        for c in (cache, clean):
            embed_batch(first, ReferenceEmbedder(), c)
        concatenate, calls = np.concatenate, []

        def out_of_memory_at_one_call(*args, **kwargs):  # bitmap, values and offsets each append once
            calls.append(None)
            if len(calls) == failing_call:
                raise MemoryError
            return concatenate(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np, "concatenate", out_of_memory_at_one_call)
            with pytest.raises(MemoryError):
                embed_batch(second, ReferenceEmbedder(), cache)
        assert len(cache) == len(first)
        out = embed_batch(second, ReferenceEmbedder(), cache)
        assert out.tobytes() == np.array([embed_reference(text) for text in second]).tobytes()
        embed_batch(second, ReferenceEmbedder(), clean)
        cache.save(tmp_path / "failed.json")
        clean.save(tmp_path / "clean.json")
        assert (tmp_path / "failed.json").read_bytes() == (tmp_path / "clean.json").read_bytes()

    def test_embed_batch_retains_under_an_eighth_of_dense(self):
        rng = Random(7)
        texts = [f"{random_phrase(rng, rng.randint(1, 5))} {i}" for i in range(5000)]
        embedder = ReferenceEmbedder()
        embed_batch(texts, embedder, EmbeddingCache())  # fills the embedder's token slots first
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cache = EmbeddingCache()
            out = embed_batch(texts, embedder, cache)
            assert out.shape == (len(texts), DEFAULT_DIMENSION)
            del out
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(cache) == len(texts)
        assert retained < len(texts) * DEFAULT_DIMENSION * 8 / 8

    def test_batch_of_another_width_raises_and_is_not_stored(self, tmp_path):
        table = {text: np.arange(6.0) + i for i, text in enumerate(["amber mesa", "dune"])}
        cache = EmbeddingCache()
        embed_batch(["amber mesa"], TableEmbedder(table), cache)
        path = tmp_path / "cache.json"
        cache.save(path)
        narrow = TableEmbedder({"dune": np.ones(4), "cobalt reed": np.ones(4)})  # same provider id, 4 wide
        with pytest.raises(EmbeddingError, match="dimension 4"):
            embed_batch(["amber mesa", "dune", "cobalt reed"], narrow, cache)
        with pytest.raises(EmbeddingError, match="dimension 4"):
            cache.put("table", "dune", np.ones(4))
        assert len(cache) == 1
        cache.save(path)  # nothing was added, so the file stays as it was and later saves still work
        restored = EmbeddingCache()
        assert restored.load(path) == 1
        out = embed_batch(["dune", "amber mesa"], TableEmbedder(table), restored)
        assert out.tobytes() == np.array([table["dune"], table["amber mesa"]]).tobytes()
        restored.save(path)
        assert EmbeddingCache().load(path) == 2


class TestPackedLoad:
    """`load` keeps the file's bitmap packed when rows fill whole bytes and counts each row from the packed bytes."""

    @staticmethod
    def saved(path, pid, rows: dict[str, np.ndarray]) -> None:
        cache = EmbeddingCache()
        for text, vec in rows.items():
            cache.put(pid, text, vec)
        cache.save(path)

    def test_load_allocates_no_n_by_d_array(self, tmp_path):
        rng = Random(11)
        texts = [f"{random_phrase(rng, rng.randint(1, 5))} {i}" for i in range(2000)]
        embedder = ReferenceEmbedder(1536)
        path = tmp_path / "cache.json"
        cache = EmbeddingCache()
        embed_batch(texts, embedder, cache)
        cache.save(path)
        restored = EmbeddingCache()
        tracemalloc.start()
        try:
            assert restored.load(path) == len(texts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(texts) * 1536  # one byte per (text, slot) would be the unpacked bitmap alone
        for text in texts[::40]:
            assert restored.get(embedder.provider_id, text).tobytes() == embed_reference(text, 1536).tobytes()

    @pytest.mark.parametrize("dimension", [8, 12, 256, 1536])
    def test_loaded_offsets_count_each_rows_nonzero_values(self, tmp_path, dimension):
        rng = np.random.default_rng(dimension)
        dense = rng.standard_normal((23, dimension)) * (rng.random((23, dimension)) < 0.2)
        dense[rng.random((23, dimension)) < 0.05] = -0.0
        dense[3] = 0.0
        texts = [f"row {i}" for i in range(len(dense))]
        path = tmp_path / "cache.json"
        self.saved(path, "edge", dict(zip(texts, dense)))
        cache = EmbeddingCache()
        assert cache.load(path) == len(texts)
        store = cache._stores["edge"]
        rows = [store.index[text] for text in texts]
        assert (np.diff(store.offsets)[rows] == np.count_nonzero(dense.view(np.uint64), axis=1)).all()
        assert store.bits.shape == (len(texts), -(-dimension // 8))

    def test_set_trailing_padding_bits_are_ignored(self, tmp_path):
        rng = np.random.default_rng(12)
        dense = rng.standard_normal((5, 12)) * (rng.random((5, 12)) < 0.5)  # 60 bits: the last byte has 4 padding bits
        rows = {f"row {i}": vec for i, vec in enumerate(dense)}
        clean = tmp_path / "clean.json"
        self.saved(clean, "edge-12", rows)
        payload = json.loads(clean.read_text())
        raw = bytearray(zlib.decompress(base64.b64decode(payload["edge-12"]["vectors"])))
        assert raw[7] & 0x0F == 0
        raw[7] |= 0x0F
        payload["edge-12"]["vectors"] = base64.b64encode(zlib.compress(bytes(raw), 1)).decode("ascii")
        padded = tmp_path / "padded.json"
        padded.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        cache = EmbeddingCache()
        assert cache.load(padded) == len(rows)
        for text, vec in rows.items():
            assert cache.get("edge-12", text).tobytes() == vec.tobytes()
        cache.put("edge-12", "extra", np.ones(12))
        self.saved(tmp_path / "expected.json", "edge-12", {**rows, "extra": np.ones(12)})
        cache.save(tmp_path / "resaved.json")
        assert (tmp_path / "resaved.json").read_bytes() == (tmp_path / "expected.json").read_bytes()
