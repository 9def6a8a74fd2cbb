"""Print the memory each ingest layer takes on one simulated log.

    python tools/mem_probe.py --n-exposures 200000 --seed 0

Runs, in one process and in this order, the layers of the benchmark's
``ingest`` workload: ``simulator.generate``, ``data.write_log`` (to a
temporary file), ``data.read_log`` of that file and ``trainer.evaluate``
of an untrained model on the read-back log. It runs that sequence
``PASSES`` times, as the benchmark repeats the workload, each pass's logs
held until the next pass has made its own, and prints ``ru_maxrss``
after each pass: the resident high-water can creep over repeats, which
one pass does not show. The model is the acceptance
protocol's (embedding width 4, no encoder, one tower layer of 16). It
imports the package from the ``src/`` next to this file, so two
checkouts can be compared. For each layer it prints the tracemalloc peak
during the call, what the call left allocated (its result, less what it
freed), both in MB, and ``ru_maxrss`` of the process after the call.
The file size is printed beside ``read_log``'s peak as their ratio.
"""

from __future__ import annotations

import argparse
import resource
import sys
import tempfile
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from choruscvr import data, model, simulator, trainer  # noqa: E402
from choruscvr.model import Architecture  # noqa: E402

MB = 1024.0 * 1024.0
PASSES = 3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n-exposures", type=int, default=30_000, help="simulated rows (default 30000)")
    parser.add_argument("--seed", type=int, default=0, help="simulator seed (default 0)")
    return parser.parse_args(argv)


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(name: str, fn, note=lambda peak: ""):
    """Print ``fn()``'s tracemalloc peak and retained bytes, then
    ``ru_maxrss``; return its result."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    result = fn()
    current, peak = tracemalloc.get_traced_memory()
    peak -= before
    print(f"{name:<10} {peak / MB:8.1f} {(current - before) / MB:11.1f} {maxrss_mb():9.1f}  {note(peak)}".rstrip())
    return result


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    sim = simulator.SimConfig(n_exposures=args.n_exposures, seed=args.seed)
    schema = simulator.sim_schema(sim, embed_width=4)
    params = model.init_model(schema, Architecture(encoder_widths=(), tower_widths=(16,)), seed=0)
    print(f"n_exposures={args.n_exposures} seed={args.seed}")
    print(f"{'layer':<10} {'peak_mb':>8} {'retained_mb':>11} {'maxrss_mb':>9}  note")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.csv"
        tracemalloc.start()
        for n_pass in range(1, PASSES + 1):
            log = measure("generate", lambda: simulator.generate(sim)[0])
            measure("write_log", lambda: data.write_log(log, path, schema))
            size = path.stat().st_size
            back = measure(
                "read_log",
                lambda: data.read_log(path, schema)[0],
                lambda peak: f"file {size / MB:.2f} MB, peak {peak / size:.1f}x file",
            )
            measure("evaluate", lambda: trainer.evaluate(params, back))
            print(f"pass {n_pass}: ru_maxrss {maxrss_mb():.1f} MB")
        tracemalloc.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
