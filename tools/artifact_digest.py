"""Print the sha256 of every deterministic artifact of three small ``compare``
runs and four ``simulate`` runs.

Runs ``choruscvr compare`` for all seven methods on two seeds (20k
simulated exposures each) in a fresh temporary directory, importing the
package from the ``src/`` next to this file, once per config in
``CONFIGS``: ``default`` is the acceptance model with default loss
weights; ``weighted`` adds an encoder, a second tower layer, non-default
``objective.weights`` (``align: 0.5``, ``ctcvr: 0``) and attached IPW
weights (``ipw.detach: false``). Then it runs ``choruscvr simulate`` at
2,000 exposures once per config in ``SIM_CONFIGS`` (the default and one
changed field each), whose ``true_p_*`` columns move with any bit of the
calibrated intercepts. Last, it runs ``compare`` once more on the
``sparse`` config (``SPARSE``): the default model at a 2 % click rate,
in batches of 32 with attached IPW weights, so about half of its
batches hold no click and the objective's empty-space paths run end to
end; its lines follow the simulate lines, so the lines before them keep
their place. It prints one ``<sha256>  <config>/<relative path>`` line
per artifact, sorted by path within each run. Manifests
are hashed without ``dataset_path`` (it names the temporary directory),
and files a manifest lists under ``nondeterministic`` (wall-clock
timing) are left out. Two checkouts wrote the same bytes exactly when
their outputs are equal:

    python tools/artifact_digest.py > a.txt
    python /path/to/other/checkout/tools/artifact_digest.py > b.txt
    diff a.txt b.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from choruscvr import cli  # noqa: E402
from choruscvr.objectives import METHODS  # noqa: E402

TRAINER = """\
trainer:
  epochs: 2
  batch_size: 1024
  learning_rate: 0.001
  patience: 2
  seed: 0
"""

CONFIGS = {
    "default": """\
sim:
  n_exposures: 20000
  seed: 0
model:
  embed_width: 4
  encoder_widths: []
  tower_widths: [16]
"""
    + TRAINER,
    "weighted": """\
sim:
  n_exposures: 20000
  seed: 0
model:
  embed_width: 4
  encoder_widths: [8]
  tower_widths: [16, 8]
objective:
  weights:
    align: 0.5
    ctcvr: 0
  ipw:
    detach: false
"""
    + TRAINER,
}

SIM_CONFIGS = {
    f"simulate/{label}": "sim:\n  n_exposures: 2000\n  seed: 0\n" + extra
    for label, extra in (
        ("default", ""),
        ("latent_dim_4", "  latent_dim: 4\n"),
        ("click_rate_0.02", "  target_click_rate: 0.02\n"),
        ("correlation_0.95", "  correlation: 0.95\n"),
    )
}


SPARSE = """\
sim:
  n_exposures: 20000
  seed: 0
  target_click_rate: 0.02
model:
  embed_width: 4
  encoder_widths: []
  tower_widths: [16]
objective:
  ipw:
    detach: false
trainer:
  epochs: 2
  batch_size: 32
  learning_rate: 0.001
  patience: 2
  seed: 0
"""


def digests(out: Path) -> dict[str, str]:
    """Relative path -> sha256 of every deterministic file under ``out``."""
    skipped: set[Path] = set()
    for manifest in out.rglob("manifest.json"):
        listed = json.loads(manifest.read_text(encoding="utf-8")).get("nondeterministic", [])
        skipped.update(manifest.parent / name for name in listed)
    result = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file() and p not in skipped):
        blob = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(blob)
            manifest.pop("dataset_path", None)
            blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
        result[path.relative_to(out).as_posix()] = hashlib.sha256(blob).hexdigest()
    return result


def main() -> int:
    compare = ["compare", "--methods", ",".join(METHODS), "--seeds", "0,1"]
    runs = [(label, text, compare) for label, text in CONFIGS.items()]
    runs += [(label, text, ["simulate"]) for label, text in SIM_CONFIGS.items()]
    runs.append(("sparse", SPARSE, compare))
    with tempfile.TemporaryDirectory() as tmp:
        for label, text, command in runs:
            root = Path(tmp) / label
            root.mkdir(parents=True)
            config = root / "config.yaml"
            config.write_text(text, encoding="utf-8")
            out = root / "out"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*command, "--config", str(config), "--out", str(out)])
            if code:
                print(f"{command[0]} ({label}) exited {code}", file=sys.stderr)
                return code
            for name, digest in digests(out).items():
                print(f"{digest}  {label}/{name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
