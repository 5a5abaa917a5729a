"""Smoke test of the benchmark: every workload at tiny size, untraced and
traced, through the command line the benchmark is run with.

    python3 -m pytest iimbench/test_smoke.py -q -p no:cacheprovider

It is kept out of ``pytest tests/`` and of a bare ``pytest`` (pytest.ini
``testpaths``): each case starts its own Spark JVM.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402  (every workload, listed in BENCHMARK.json or not)


def _run(script: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), *args],
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_at_tiny_size(workload, trace):
    p = _run(HERE / "run.py", "--workload", workload, "--seed", "7", "--seconds", "1",
             "--trace", str(trace), "--scale", "tiny")
    assert p.returncode == 0, p.stderr[-3000:]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = SPEC["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in want}


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    p = _run(tmp_path / HERE.name / "run.py", "--workload", WORKLOADS[0],
             "--seed", "0", "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
