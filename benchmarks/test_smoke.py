"""Smoke check of the benchmark's own code on a 3-question, 30-60-triple input.

Run from the repository root:

    python3 -m pytest benchmarks/test_smoke.py -q

For every workload and both trace modes it asserts that the last output line
is the result object, that the output checks passed, and that every metric
BENCHMARK.json names for that mode is printed with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload: str, trace: int) -> None:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
        "--questions", "3", "--min-triples", "30", "--max-triples", "60",
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        assert isinstance(printed["value"], (int, float)), metric["name"]
        assert f"{metric['name']} = " in proc.stdout


def test_refuses_to_run_without_the_package_sources() -> None:
    """A directory holding only BENCHMARK.json and the benchmark: exit non-zero, print no result."""
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
    try:
        (bare / HERE.name).mkdir()
        for path in HERE.glob("*.py"):
            (bare / HERE.name / path.name).write_bytes(path.read_bytes())
        (bare / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
        proc = subprocess.run(
            [sys.executable, str(bare / HERE.name / "run.py"), "--workload", "prune-heavy", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
