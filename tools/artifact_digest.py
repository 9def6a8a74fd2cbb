"""Print the sha256 of every deterministic artifact of two small ``compare`` runs.

Runs ``choruscvr compare`` for all seven methods on two seeds (20k
simulated exposures each) in a fresh temporary directory, importing the
package from the ``src/`` next to this file, once per config in
``CONFIGS``: ``default`` is the acceptance model with default loss
weights; ``weighted`` adds an encoder, a second tower layer, non-default
``objective.weights`` (``align: 0.5``, ``ctcvr: 0``) and attached IPW
weights (``ipw.detach: false``). It prints one
``<sha256>  <config>/<relative path>`` line per artifact, sorted by
path. Manifests are hashed without ``dataset_path`` (it names the
temporary directory), and files a manifest lists under
``nondeterministic`` (wall-clock timing) are left out. Two checkouts
wrote the same bytes exactly when their outputs are equal:

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
    with tempfile.TemporaryDirectory() as tmp:
        for label, text in CONFIGS.items():
            root = Path(tmp) / label
            root.mkdir()
            config = root / "config.yaml"
            config.write_text(text, encoding="utf-8")
            out = root / "out"
            argv = ["compare", "--config", str(config), "--out", str(out), "--methods", ",".join(METHODS), "--seeds", "0,1"]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code:
                print(f"compare ({label}) exited {code}", file=sys.stderr)
                return code
            for name, digest in digests(out).items():
                print(f"{digest}  {label}/{name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
