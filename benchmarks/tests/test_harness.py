"""Self-test of the benchmark harness (not part of the omlab test suite).

    python3 -m pytest benchmarks/tests -q -p no:cacheprovider

Each run uses ``--seconds 0``, the smallest run there is: one pass of the
workload's fixed operation list.  The whole file takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7


def work_dir() -> Path:
    """Temporary files stay inside the checkout, in the directory runs use."""
    path = ROOT / ".bench_work"
    path.mkdir(exist_ok=True)
    return path


def bench(workload: str, trace: int, *extra: str) -> dict:
    argv = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(SEED),
            "--seconds", "0", "--trace", str(trace), *extra]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_emits(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_finishes_with_every_end_to_end_metric(workload):
    result = bench(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert_emits(result, SPEC["end_to_end"])
    assert result["metrics"]["ok_frac"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_across_runs_and_hash_seeds(workload):
    runs = [bench(workload, 1, "--hash-seed", str(h)) for h in (0, 12345)]
    for result in runs:
        assert result["correct"], result
        assert_emits(result, SPEC["per_layer"])

    def counts(result):
        return {k: v["value"] for k, v in result["metrics"].items() if k.endswith((".calls", ".work", ".fails"))}

    assert counts(runs[0]) == counts(runs[1])
    assert any(v for v in counts(runs[0]).values())


def test_corrupted_golden_drives_failures():
    with tempfile.TemporaryDirectory(dir=work_dir()) as tmp:
        golden = Path(tmp)
        shutil.copytree(ROOT / "benchmarks" / "golden", golden, dirs_exist_ok=True)
        bench("check-large", 0, "--golden-dir", str(golden), "--record-golden")
        path = golden / "check-large.json"
        table = json.loads(path.read_text())
        table[str(SEED)][0] = "0" * 10
        path.write_text(json.dumps(table))
        result = bench("check-large", 0, "--golden-dir", str(golden))
    assert not result["correct"] and result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_refuses_to_run_without_sources():
    with tempfile.TemporaryDirectory(dir=work_dir()) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "benchmarks", bare / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
        argv = [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
                "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
