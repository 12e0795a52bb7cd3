"""Smoke test of the benchmark itself: every workload, both modes, one second each.

Run it explicitly (the file name keeps it out of the default test run)::

    python3 -m pytest perfbench/check_smoke.py -q

Each case launches ``run.py --seconds 1`` and checks that the last line is the
result object, that every metric ``BENCHMARK.json`` names is emitted with
its unit, that no operation failed, and that every kind of output check
ran at least once.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: The kinds of check each workload must run on every run.
CHECK_KINDS = {
    "figures": {"startup", "process", "result"},
    "stores": {"startup", "process", "store", "result"},
    "serve": {"prepare", "startup", "echo", "corpus_scope", "reference", "exit"},
}


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    checks = next(line for line in lines if line.strip().startswith("checks"))
    return json.loads(lines[-1]), json.loads(checks.split(None, 1)[1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric_and_runs_every_check(workload: str, trace: int) -> None:
    result, checks = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, result
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for metric in section:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        if not trace:
            assert reported["value"] > 0, metric["name"]
    assert CHECK_KINDS[workload] <= set(checks), checks


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
