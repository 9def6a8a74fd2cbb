"""Tests of the benchmark itself, at its smallest size (``--seconds 1``).

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def _result(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = _result(proc.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        assert f"{name} " in proc.stdout
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(values[m["name"]] > 0 for m in spec), values
    elif workload == "compare":
        # Today every run_train re-reads its seed's log: methods x seeds.
        assert values["data.read_log.calls"] == values["cli.run_train.calls"] == 12
        assert values["simulator.generate.calls"] == 2
    elif workload == "train":
        # 5000 rows -> 4000 train rows -> 4 batches of 1024, for 8 epochs.
        assert values["trainer.steps"] == 32
        assert values["data.read_log.calls"] == 0
        assert values["autodiff.graph_nodes.chorus"] > 0
    else:
        assert values["trainer.steps"] == 0
        assert values["data.read_log.calls"] == values["data.write_log.calls"] == 1


def _run_in_process(capsys, workload: str) -> dict:
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0"]) == 0
    return _result(capsys.readouterr().out)


def test_output_that_fails_its_check_counts_as_failed(monkeypatch, capsys):
    workloads = run.import_program()
    read_log = workloads.data.read_log

    def drops_last_row(path, schema):
        records, report = read_log(path, schema)
        return records[:-1], report

    monkeypatch.setattr(workloads.data, "read_log", drops_last_row)
    result = _run_in_process(capsys, "ingest")
    # Two operations per repeat (simulate, read); only the read fails.
    assert result["attempted"] >= 6
    assert result["failed"] == result["attempted"] // 2
    assert not result["correct"]
    assert result["metrics"]["ok_ops_ratio"]["value"] == pytest.approx(0.5)


def test_check_that_raises_fails_every_operation(monkeypatch, capsys):
    workloads = run.import_program()

    def broken(self, out, result):
        raise KeyError("comparison.csv has no chorus row")

    monkeypatch.setattr(workloads.Train, "check", broken)
    result = _run_in_process(capsys, "train")
    assert result["failed"] == result["attempted"] >= 3
    assert not result["correct"]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "train", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
