"""Smoke test of the benchmark at the source configs' default sizes.

Run from the repository root::

    python -m pytest perfbench/test_smoke.py -q

It uses a seed other than the ones the benchmark is usually tuned on,
checks that every declared metric is printed with its unit, that each
op's output matches the serial reference, and that the traced run's
liveness guard passes (and fails when a prediction is wrong).
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
WORKLOAD_NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _bench(capsys, workload: str, trace: int):
    code = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0.1",
                     "--trace", str(trace), "--small"])
    out = capsys.readouterr().out
    return code, out, json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_printed_and_checked(capsys, workload, trace):
    code, out, result = _bench(capsys, workload, trace)
    kind = "per_layer" if trace else "end_to_end"
    declared = run._declared(kind)
    assert code == 0, out
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 3
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.split()[:1] == [name] and line.endswith(f" {unit}")
                   for line in out.splitlines()), f"{name} not printed with {unit}"
    assert "reference check: passed" in out
    if trace:
        assert "liveness guard: passed" in out
    else:
        assert "failed_frac" in out
        for name in ("run_s_p50", "setup_s", "peak_rss_mb"):
            assert result["metrics"][name]["value"] > 0


def test_liveness_guard_fails_on_wrong_prediction(capsys, monkeypatch):
    run._import_program()
    from perfbench import workloads

    wrong = dataclasses.replace(
        workloads.WORKLOADS["climate-durable"],
        live=("workers.fanouts",),
        bypassed=("transforms.regrid_calls",),
    )
    monkeypatch.setitem(workloads.WORKLOADS, "climate-durable", wrong)
    code, out, result = _bench(capsys, "climate-durable", 1)
    assert code == 1
    assert result["correct"] is False
    assert "workers.fanouts = 0, predicted live" in out
    assert "transforms.regrid_calls" in out and "predicted bypassed" in out


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "climate-durable",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
