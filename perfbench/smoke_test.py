"""Smoke test of the benchmark itself: every workload briefly, untraced and traced.

    python3 perfbench/smoke_test.py          # from the root of a checkout
    python3 -m pytest -q perfbench/smoke_test.py

Each run must exit 0 with correct=true and no failed operation, and its last
line must carry exactly the metrics BENCHMARK.json lists for its mode, each
with its unit. A copy holding only BENCHMARK.json and perfbench/ must be
refused with a non-zero exit and no result line. Takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = {"connect_mix": 2, "gateway_stream": 2, "cluster_churn": 1}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
               "--seconds", str(SECONDS[workload]), "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def check(workload: str, trace: int) -> None:
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, f"{workload} trace={trace}:\n{done.stdout[-2000:]}\n{done.stderr[-2000:]}"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in expected}
    for m in expected:
        entry = metrics[m["name"]]
        assert entry["unit"] == m["unit"], (m["name"], entry)
        assert isinstance(entry["value"], (int, float)), (m["name"], entry)
        if not trace:
            assert entry["value"] > 0, (m["name"], entry)
    assert not (ROOT / ".perfbench-run").exists(), "run directories were left behind"


def test_connect_mix() -> None:
    check("connect_mix", 0)
    check("connect_mix", 1)


def test_gateway_stream() -> None:
    check("gateway_stream", 0)
    check("gateway_stream", 1)


def test_cluster_churn() -> None:
    check("cluster_churn", 0)
    check("cluster_churn", 1)


def test_refused_without_sources() -> None:
    bare = ROOT / ".perfbench-smoke"  # inside the checkout, removed afterwards
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = _run(bare, "connect_mix", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


if __name__ == "__main__":
    test_refused_without_sources()
    test_connect_mix()
    test_gateway_stream()
    test_cluster_churn()
    print("perfbench smoke test: ok")
