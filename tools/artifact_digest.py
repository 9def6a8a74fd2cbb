"""Print the sha256 of every deterministic artifact of a small ``compare``.

Runs ``choruscvr compare`` for all seven methods on two seeds (20k
simulated exposures each, the acceptance model) in a fresh
temporary directory, importing the package from the ``src/`` next to this
file, and prints one ``<sha256>  <relative path>`` line per artifact,
sorted by path. Manifests are hashed without ``dataset_path`` (it names
the temporary directory), and files a manifest lists under
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

CONFIG = """\
sim:
  n_exposures: 20000
  seed: 0
model:
  embed_width: 4
  encoder_widths: []
  tower_widths: [16]
trainer:
  epochs: 2
  batch_size: 1024
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
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        config = root / "config.yaml"
        config.write_text(CONFIG, encoding="utf-8")
        out = root / "out"
        argv = ["compare", "--config", str(config), "--out", str(out), "--methods", ",".join(METHODS), "--seeds", "0,1"]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code:
            print(f"compare exited {code}", file=sys.stderr)
            return code
        for name, digest in digests(out).items():
            print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
