"""Self-test of the benchmark: run from the repository root with

    python3 -m pytest perfbench -q

Every workload runs at its tiny size with a fixed seed, twice untraced and
twice traced, each run in its own process. The output must carry every
metric BENCHMARK.json names, with its unit, and the counts must repeat
exactly: per-layer call, byte and hash counts and ratios, store bytes per
round and proof bytes. Timings are not compared.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 424242


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


def result(workload: str, trace: int) -> dict:
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, proc.stderr
    return out["metrics"]


def is_count(name: str) -> bool:
    return name.endswith((".calls", ".bytes", "_ratio")) and not name.startswith("trace.")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_named_and_sizes_repeat(workload):
    first, second = result(workload, 0), result(workload, 0)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in first.items()} == expected
    assert all(m["value"] > 0 for m in first.values())
    for name in ("store_bytes_per_round", "proof_bytes.p50"):
        assert first[name]["value"] == second[name]["value"], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_named_and_counts_repeat(workload):
    first, second = result(workload, 1), result(workload, 1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in first.items()} == expected
    counts = [name for name in first if is_count(name)]
    assert counts
    for name in counts:
        assert first[name]["value"] == second[name]["value"], name


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "work", "__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
