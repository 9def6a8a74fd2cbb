"""``tools/ab_bench.py``: a benchmark run counts only if its output check passed."""

import importlib.util
from pathlib import Path

import pytest

STUB_RUN = """
import json
print("wall_s 0.5 s")
print("env " + json.dumps({{"OPENBLAS_NUM_THREADS": "1"}}))
metrics = {{"wall_s": {{"value": 0.5, "unit": "s"}}}}
print(json.dumps({{"correct": {correct}, "attempted": 4, "failed": {failed}, "metrics": metrics}}))
"""


def _ab_bench():
    path = Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"
    spec = importlib.util.spec_from_file_location("ab_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stub_checkout(root: Path, correct: bool) -> Path:
    """A checkout whose ``perfbench/run.py`` prints a fixed report."""
    (root / "perfbench").mkdir(parents=True)
    run = STUB_RUN.format(correct=correct, failed=0 if correct else 1)
    (root / "perfbench" / "run.py").write_text(run, encoding="utf-8")
    return root


@pytest.mark.parametrize("correct", [True, False], ids=["checked", "check-failed"])
def test_run_once_counts_only_runs_whose_output_check_passed(tmp_path, correct):
    checkout = _stub_checkout(tmp_path / "stub", correct)
    ab_bench = _ab_bench()
    if correct:
        metrics, env = ab_bench.run_once(checkout, "train", 0, 1)
        assert metrics["wall_s"] == 0.5
        assert env == {"OPENBLAS_NUM_THREADS": "1"}
        return
    with pytest.raises(RuntimeError, match="output check failed: 1 of 4 operations") as caught:
        ab_bench.run_once(checkout, "train", 0, 1)
    assert str(checkout) in str(caught.value)
