"""The three benchmark workloads and their output checks.

Each workload is built once per set-up from ``(seed, seconds)``: the
seed makes the inputs, the run length scales their size. ``run`` is the
timed region and calls only public ``choruscvr`` functions, looked up
through their modules at call time so that tracing can wrap them.
``check`` runs outside the timed region and returns how many of the
repeat's ``ops`` operations failed, plus the entire-space
counterfactual CVR-AUC.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from pathlib import Path

import yaml

from choruscvr import cli, data, model, simulator, trainer
from spans import METHODS

COMPARE_METHODS = list(METHODS)

# The acceptance protocol with a placeholder size, seed and epoch budget.
PROTOCOL_YAML = """\
sim:
  n_exposures: {n_exposures}
  seed: {sim_seed}
model:
  embed_width: 4
  encoder_widths: []
  tower_widths: [16]
trainer:
  method: chorus
  epochs: {epochs}
  batch_size: 1024
  learning_rate: 0.001
  patience: {epochs}
  seed: 0
"""

CF_PAIR = ("exposure", "cvr_counterfactual")


def _protocol(n_exposures: int, sim_seed: int, epochs: int) -> tuple[dict, str]:
    text = PROTOCOL_YAML.format(n_exposures=n_exposures, sim_seed=sim_seed, epochs=epochs)
    return yaml.safe_load(text), text


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


class Compare:
    """``cli.run_compare``: six methods x seeds, simulate to comparison table."""

    def __init__(self, seed: int, seconds: int) -> None:
        self.n_exposures = max(5000, 160 * seconds)
        self.seeds = [0, 1]
        # Simulator seed = config seed + run seed; keep bench seeds apart.
        self.cfg, self.text = _protocol(self.n_exposures, 1000 * seed, epochs=2)
        self.rows = self.n_exposures * len(self.seeds) * len(COMPARE_METHODS)
        self.ops = len(self.seeds) * (1 + len(COMPARE_METHODS))

    def run(self, out: Path):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.run_compare(self.cfg, self.text, out, methods=COMPARE_METHODS, seeds=self.seeds)

    def check(self, out: Path, result) -> tuple[int, float]:
        """One op per simulated seed and per ``run_train``; a table row
        that is missing or not finite fails its op."""
        table = out / "comparison.csv"
        if result is None or not table.is_file():
            return self.ops, math.nan
        with table.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        runs: dict[tuple[str, str], list[dict]] = {}
        aggregates: dict[str, list[dict]] = {}
        for row in rows:
            if row["row_type"] == "run":
                runs.setdefault((row["method"], row["seed"]), []).append(row)
            elif row["row_type"] == "aggregate":
                aggregates.setdefault(row["method"], []).append(row)

        def good(found: list[dict] | None) -> bool:
            return found is not None and len(found) == 1 and _finite(*(float(found[0][k]) for k in cli.RUN_METRICS))

        failed = sum(1 for s in self.seeds if not (out / "datasets" / f"sim_seed{s}.csv").is_file())
        for m in COMPARE_METHODS:
            agg_ok = good(aggregates.get(m))
            failed += sum(1 for s in self.seeds if not (agg_ok and good(runs.get((m, str(s))))))
        if len(rows) != len(COMPARE_METHODS) * (len(self.seeds) + 1):
            failed = self.ops
        auc = float(aggregates["chorus"][0]["cvr_auc_entire"]) if good(aggregates.get("chorus")) else math.nan
        return failed, auc


class Train:
    """``trainer.train`` for chorus on a log held in memory since set-up."""

    def __init__(self, seed: int, seconds: int) -> None:
        self.epochs = 8
        cfg, _ = _protocol(max(5000, 1000 * seconds), seed, epochs=self.epochs)
        sim = cli.sim_config(cfg)
        records, _ = simulator.generate(sim)
        idx_train, idx_val, idx_test = trainer.split_indices(len(records), seed)
        self.train_records = [records[i] for i in idx_train]
        self.val_records = [records[i] for i in idx_val]
        self.test_records = [records[i] for i in idx_test]
        self.schema = cli.schema_from_config(cfg)
        self.config = cli.experiment_config(cfg)
        self.rows = len(self.train_records) * self.epochs
        self.ops = 1
        self._reference: bytes | None = None
        self._auc = math.nan

    def run(self, out: Path):
        return trainer.train(self.config, self.train_records, self.val_records, self.schema)

    def check(self, out: Path, result) -> tuple[int, float]:
        """Every history term is finite, the epoch budget ran in full, and
        every repeat's checkpoint is byte-equal to the first one's."""
        if result is None:
            return 1, math.nan
        params, history = result
        ok = len(history.epochs) == self.epochs and all(
            _finite(*rec.train_terms.values(), rec.val_ctcvr_auc) for rec in history.epochs
        )
        ckpt = out / "checkpoint.bin"
        model.save_checkpoint(params, ckpt)
        blob = ckpt.read_bytes()
        if self._reference is None:
            self._reference = blob
            # Later repeats are byte-equal, so one evaluation serves all.
            self._auc = trainer.evaluate(params, self.test_records).entries[CF_PAIR].auc
        ok = ok and blob == self._reference
        return int(not ok), self._auc


class Ingest:
    """simulate -> write_log -> read_log -> evaluate of an untrained model
    (which builds the feature matrix and scores the whole log)."""

    def __init__(self, seed: int, seconds: int) -> None:
        self.n_exposures = max(5000, 1000 * seconds)
        cfg, _ = _protocol(self.n_exposures, seed, epochs=1)
        self.sim = cli.sim_config(cfg)
        self.schema = cli.schema_from_config(cfg)
        self.params = model.init_model(self.schema, cli.experiment_config(cfg).arch, seed=0)
        self.rows = self.n_exposures
        self.ops = 2

    def run(self, out: Path):
        records, _ = simulator.generate(self.sim)
        path = out / "log.csv"
        data.write_log(records, path, self.schema)
        back, report = data.read_log(path, self.schema)
        scored = trainer.evaluate(self.params, back)
        return len(records), back, report, scored

    def check(self, out: Path, result) -> tuple[int, float]:
        """Simulate yields ``n_exposures`` rows; the read-back has them all,
        none skipped, no funnel violation, r <= o on every row, and the
        scored log has finite metrics."""
        if result is None:
            return self.ops, math.nan
        n_simulated, back, report, scored = result
        failed = int(n_simulated != self.n_exposures)
        read_ok = (
            len(back) == self.n_exposures
            and report.n_records == self.n_exposures
            and not report.skipped
            and report.funnel_violations == 0
            and all(rec.conversion <= rec.click for rec in back)
            and all(_finite(e.auc, e.logloss, e.pcoc) for e in scored.entries.values())
        )
        failed += int(not read_ok)
        return failed, scored.entries[CF_PAIR].auc


WORKLOADS = {"compare": Compare, "train": Train, "ingest": Ingest}
