"""Smoke test of the benchmark at 1% input size.

Runs ``perfbench/run.py`` once per workload and trace mode and checks
the result line: every metric ``BENCHMARK.json`` names is emitted with
its unit, and no job failed or leaked.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [entry["name"] for entry in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    completed = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "0.5",
         "--trace", str(trace), "--scale", "0.01"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, completed.stderr
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert emitted == {metric["name"]: metric["unit"] for metric in wanted}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run fails fast and
    prints no result."""
    (tmp_path / "perfbench").mkdir()
    for name in os.listdir(os.path.join(ROOT, "perfbench")):
        if name.endswith(".py"):
            with open(os.path.join(ROOT, "perfbench", name)) as source:
                (tmp_path / "perfbench" / name).write_text(source.read())
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wordcount",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
