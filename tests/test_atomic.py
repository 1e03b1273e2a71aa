from __future__ import annotations

import pathlib
import sys
import threading

import pytest

from kgqa.atomic import write_atomic


def test_concurrent_writers_of_one_path(tmp_path):
    path = tmp_path / "shared.json"
    texts = ["a" * 200_000, "b" * 300_000]
    errors: list[BaseException] = []

    def writer(text: str) -> None:
        try:
            for _ in range(50):
                write_atomic(path, text)
                assert path.read_text(encoding="utf-8") in texts
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(text,)) for text in texts]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert path.read_text(encoding="utf-8") in texts
    assert not list(tmp_path.glob("*.tmp"))


def test_bytes_write_cut_short_leaves_the_previous_file_whole(tmp_path, monkeypatch):
    path = tmp_path / "data.bin"
    write_atomic(path, b"\x00previous\xff")
    real_write_bytes = pathlib.Path.write_bytes

    def cut_short(target, data):
        real_write_bytes(target, data[: len(data) // 2])
        raise OSError("no space left on device")

    monkeypatch.setattr(pathlib.Path, "write_bytes", cut_short)
    with pytest.raises(OSError, match="no space"):
        write_atomic(path, bytes(range(256)) * 64)
    assert path.read_bytes() == b"\x00previous\xff"
    assert not list(tmp_path.glob("*.tmp"))
    monkeypatch.undo()
    write_atomic(path, bytes(range(256)))
    assert path.read_bytes() == bytes(range(256))
