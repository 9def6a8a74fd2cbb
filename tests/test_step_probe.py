"""``tools/step_probe.py``: one probe round runs against the program's
step and optimizer API and times every layer, with BLAS on one thread."""

import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import choruscvr
from choruscvr.data import label_arrays
from choruscvr.features import build_matrix
from choruscvr.model import Architecture, init_model
from choruscvr.simulator import SimConfig, generate, sim_schema

PATH = Path(__file__).resolve().parents[1] / "tools" / "step_probe.py"


def _step_probe():
    spec = importlib.util.spec_from_file_location("step_probe", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probe_times_every_layer_of_a_one_row_step(monkeypatch):
    step_probe = _step_probe()
    monkeypatch.setattr(step_probe, "REPEATS", 1)
    monkeypatch.setattr(step_probe, "CALLS", 1)
    sim = SimConfig(n_exposures=1024, seed=0)
    log, _ = generate(sim)
    schema = sim_schema(sim, embed_width=4)
    fm, (o, r) = build_matrix(log, schema), label_arrays(log)
    params = init_model(schema, Architecture(encoder_widths=(), tower_widths=(16,)), seed=0)
    before = params.flat.copy()
    idx = step_probe._batch_rows(o, 1)
    found = step_probe.probe("chorus", fm.rows(idx), o[idx], r[idx], params)
    assert list(found) == ["step", *step_probe.LAYERS]
    assert all(math.isfinite(us) and us > 0.0 for us in found.values()), found
    assert params.flat.tobytes() == before.tobytes()  # the probe restores the parameters


def test_loading_the_tool_pins_blas_to_one_thread():
    # The package pins BLAS only if numpy is not loaded yet, so the tool
    # must import it before numpy; a fresh interpreter with no thread
    # variables set shows whether it does.
    env = {k: v for k, v in os.environ.items() if k not in choruscvr._BLAS_THREAD_VARS}
    load = (
        "import importlib.util, sys; spec = importlib.util.spec_from_file_location('step_probe', sys.argv[1]); "
        "spec.loader.exec_module(importlib.util.module_from_spec(spec)); import choruscvr; print(choruscvr.BLAS_PINNED)"
    )
    proc = subprocess.run([sys.executable, "-c", load, str(PATH)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"
