"""Print where a training step's time goes, layer by layer, per method.

    python tools/step_probe.py

Builds the acceptance protocol's model (eight simulated features of
embedding width 4, no shared encoder, towers of 16) on a simulated log
and, for each method and each batch size in ``BATCHES`` (one row, then
the protocol's 1024), runs ``REPEATS`` rounds of ``CALLS`` training
steps (``training_step``, then ``optimizer_step`` with Adam) on one
batch. The batch-1 column is the step's fixed part; the 1024 column
less it is the per-row part. Each layer's time is the minimum over the
rounds of its mean per call, in µs:

- gather: ``model.gather_concat``
- tower forward: ``model.tower_heads``
- objective: ``objectives.compose_method_loss``
- tower backward: ``model.tower_heads_backward``
- gather backward: ``model.gather_concat_backward``
- optimizer: ``trainer.optimizer_step``
- step: the whole step, timed in rounds of its own with nothing wrapped.

The layers are timed by wrapping each function at the module attribute
its caller looks up, so a wrapped call costs about a microsecond more
than it does untraced. The parameters are restored before every round.
The package is imported from the ``src/`` next to this file, so two
checkouts can be compared; importing it pins BLAS to one thread unless
the environment already sets the thread variables.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from choruscvr import model, objectives, trainer  # noqa: E402  (first: pins BLAS threads before numpy loads)
from choruscvr.data import label_arrays  # noqa: E402
from choruscvr.features import build_matrix  # noqa: E402
from choruscvr.model import Architecture  # noqa: E402
from choruscvr.objectives import IpwConfig, LossWeights  # noqa: E402
from choruscvr.simulator import SimConfig, generate, sim_schema  # noqa: E402

import numpy as np  # noqa: E402

BATCHES = (1, 1024)
REPEATS, CALLS, SEED = 7, 300, 0  # timed rounds per layer, steps per round, simulator and model seed
# label -> (module, attribute) of each timed layer, in step order
LAYERS = {
    "gather": (model, "gather_concat"),
    "tower forward": (model, "tower_heads"),
    "objective": (objectives, "compose_method_loss"),
    "tower backward": (model, "tower_heads_backward"),
    "gather backward": (model, "gather_concat_backward"),
    "optimizer": (trainer, "optimizer_step"),
}


def probe(method: str, fm, o, r, params) -> dict[str, float]:
    """Each layer's and the whole step's minimum mean µs per call."""
    saved = params.flat.copy()
    config, weights, ipw = trainer.OptimizerConfig(), LossWeights(), IpwConfig()
    spent = dict.fromkeys(LAYERS, 0.0)

    def timed(label, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[label] += time.perf_counter() - t0

        return wrapper

    def rounds(k: int) -> list[float]:
        walls = []
        for _ in range(k):
            params.flat[...] = saved
            state = trainer.OptimizerState.for_params(params)
            t0 = time.perf_counter()
            for _ in range(CALLS):
                _, grad = objectives.training_step(params, fm, o, r, method, weights, ipw)
                trainer.optimizer_step(params, grad, state, config)
            walls.append(time.perf_counter() - t0)
        return walls

    best = {"step": min(rounds(REPEATS))}
    originals = {label: getattr(module, name) for label, (module, name) in LAYERS.items()}
    try:
        for label, (module, name) in LAYERS.items():
            setattr(module, name, timed(label, originals[label]))
        best.update((label, float("inf")) for label in LAYERS)
        for _ in range(REPEATS):
            spent.update(dict.fromkeys(LAYERS, 0.0))
            rounds(1)
            best.update((label, min(best[label], spent[label])) for label in LAYERS)
    finally:
        for label, (module, name) in LAYERS.items():
            setattr(module, name, originals[label])
    params.flat[...] = saved
    return {label: 1e6 * s / CALLS for label, s in best.items()}


def _batch_rows(o: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` rows; for one row, the first clicked one, so the
    click-space terms of the objective run."""
    return np.flatnonzero(o == 1)[:1] if n == 1 else np.arange(n)


def main() -> int:
    sim = SimConfig(n_exposures=max(BATCHES), seed=SEED)
    log, _ = generate(sim)
    schema = sim_schema(sim, embed_width=4)
    fm_all = build_matrix(log, schema)
    o_all, r_all = label_arrays(log)
    params = model.init_model(schema, Architecture(encoder_widths=(), tower_widths=(16,)), SEED)
    labels = [*LAYERS, "step"]
    print(f"µs per call, minimum over {REPEATS} rounds of {CALLS} steps; batch {' / '.join(map(str, BATCHES))}")
    print(f"{'method':14s} " + " ".join(f"{label:>17s}" for label in labels))
    for method in objectives.METHODS:
        cells = {label: [] for label in labels}
        for n in BATCHES:
            idx = _batch_rows(o_all, n)
            found = probe(method, fm_all.rows(idx), o_all[idx], r_all[idx], params)
            for label in labels:
                cells[label].append(found[label])
        print(f"{method:14s} " + " ".join(f"{' / '.join(f'{v:.0f}' for v in cells[label]):>17s}" for label in labels))
    return 0


if __name__ == "__main__":
    sys.exit(main())
