from __future__ import annotations

import sys
import threading

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
