"""Command-line entry points: exit codes, artifacts, manifests."""

import dataclasses
import hashlib
import importlib.util
import json
import multiprocessing
import os
import pickle
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

import choruscvr
from choruscvr import cli
from choruscvr.cli import main
from choruscvr.data import read_log, write_log
from choruscvr.model import load_checkpoint
from choruscvr.simulator import SimConfig, sim_schema

CONFIG = """\
# tiny end-to-end run
sim:
  n_exposures: 3000
  latent_dim: 4
  feature_bins: 8
  seed: 7
model:
  encoder_widths: [16]
  tower_widths: [8]
  embed_width: 4
trainer:
  method: chorus
  epochs: 1
  batch_size: 512
  learning_rate: 0.001
  seed: 0
"""


def _write_config(tmp_path, extra_trainer_keys=""):
    text = CONFIG
    if extra_trainer_keys:
        text += extra_trainer_keys
    path = tmp_path / "config.yaml"
    path.write_text(text, encoding="utf-8")
    return path, text


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_sim")
    cfg, text = _write_config(tmp)
    out = tmp / "sim_out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    return tmp, cfg, text, out / "dataset.csv"


def test_simulate_writes_dataset_and_manifest(simulated):
    _, _, text, dataset = simulated
    assert dataset.is_file()
    manifest = json.loads((dataset.parent / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 7
    assert manifest["config_text"] == text
    assert manifest["config_sha256"] == hashlib.sha256(text.encode()).hexdigest()
    assert manifest["dataset_sha256"] == hashlib.sha256(dataset.read_bytes()).hexdigest()
    assert manifest["artifacts"] == {"dataset": "dataset.csv"}


def test_simulate_same_seed_same_bytes(simulated, tmp_path):
    tmp, cfg, _, dataset = simulated
    out2 = tmp_path / "again"
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out2 / "dataset.csv").read_bytes() == dataset.read_bytes()


def test_simulate_seed_override(simulated, tmp_path):
    _, cfg, _, dataset = simulated
    out2 = tmp_path / "other_seed"
    assert main(["simulate", "--config", str(cfg), "--out", str(out2), "--seed", "8"]) == 0
    manifest = json.loads((out2 / "manifest.json").read_text())
    assert manifest["seed"] == 8
    assert (out2 / "dataset.csv").read_bytes() != dataset.read_bytes()


@pytest.fixture(scope="module")
def trained(simulated, tmp_path_factory):
    tmp, _, _, dataset = simulated
    cfg, _ = _write_config(tmp, f"  dataset: {dataset}\n")
    out = tmp / "train_out"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    return cfg, out, dataset


def test_train_writes_artifacts(trained):
    _, out, _ = trained
    for name in ("checkpoint.bin", "history.csv", "metrics.txt", "curve.csv", "manifest.json"):
        assert (out / name).is_file(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["artifacts"]["checkpoint"] == "checkpoint.bin"
    assert manifest["dataset_sha256"] is not None
    params = load_checkpoint(out / "checkpoint.bin")
    assert params.schema.input_width > 0
    history = (out / "history.csv").read_text().strip().splitlines()
    assert len(history) == 2  # header + 1 epoch
    body = (out / "metrics.txt").read_text()
    assert "exposure.ctcvr.auc=" in body
    assert "exposure.cvr_counterfactual.auc=" in body


def test_evaluate_scores_checkpoint(trained, tmp_path):
    cfg, out, dataset = trained
    eval_out = tmp_path / "eval_out"
    code = main(
        [
            "evaluate",
            "--config",
            str(cfg),
            "--out",
            str(eval_out),
            "--checkpoint",
            str(out / "checkpoint.bin"),
        ]
    )
    assert code == 0
    assert (eval_out / "metrics.txt").is_file()
    assert (eval_out / "curve.csv").is_file()


def test_unknown_method_exits_2(trained, tmp_path):
    cfg, _, _ = trained
    code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "x"), "--method", "bogus"])
    assert code == 2


def test_missing_config_exits_2(tmp_path):
    code = main(["train", "--config", str(tmp_path / "absent.yaml"), "--out", str(tmp_path / "x")])
    assert code == 2


def test_invalid_yaml_exits_2(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("sim: [unclosed\n", encoding="utf-8")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2


def test_missing_dataset_exits_2(tmp_path):
    cfg, _ = _write_config(tmp_path)
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2


def test_missing_checkpoint_exits_2(trained, tmp_path):
    cfg, _, _ = trained
    code = main(
        [
            "evaluate",
            "--config",
            str(cfg),
            "--out",
            str(tmp_path / "x"),
            "--checkpoint",
            str(tmp_path / "absent.bin"),
        ]
    )
    assert code == 2


@pytest.mark.parametrize(
    "edit",
    [
        lambda h: {"format": h["format"], "version": h["version"]},
        lambda h: [1, 2],
        lambda h: {**h, "seed": "x"},
        lambda h: {**h, "schema": {**h["schema"], "features": []}},
    ],
    ids=["no-schema", "not-an-object", "string-seed", "no-features"],
)
def test_malformed_checkpoint_header_fails_the_run(trained, tmp_path, capsys, edit):
    # A header that is JSON but not a checkpoint's fails the run (exit 1),
    # neither as a traceback nor as a config error (exit 2).
    cfg, out, _ = trained
    header, _, body = (out / "checkpoint.bin").read_bytes().partition(b"\n")
    bad = tmp_path / "bad.bin"
    bad.write_bytes(json.dumps(edit(json.loads(header))).encode() + b"\n" + body)
    code = main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "x"), "--checkpoint", str(bad)])
    assert code == 1
    assert "run failed:" in capsys.readouterr().err


def test_compare_tiny_grid(simulated, tmp_path):
    tmp, _, _, dataset = simulated
    cfg, _ = _write_config(tmp_path, f"  dataset: {dataset}\n")
    out = tmp_path / "cmp_out"
    code = main(
        [
            "compare",
            "--config",
            str(cfg),
            "--out",
            str(out),
            "--methods",
            "esmm,escm2_ipw",
            "--seeds",
            "0",
        ]
    )
    assert code == 0
    lines = (out / "comparison.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["row_type", "method", "seed"]
    assert "cvr_auc_entire" in header
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    run_rows = [r for r in rows if r["row_type"] == "run"]
    agg_rows = [r for r in rows if r["row_type"] == "aggregate"]
    assert len(run_rows) == 2
    assert len(agg_rows) == 2
    ref = next(r for r in agg_rows if r["method"] == "esmm")
    assert float(ref["diff_cvr_auc_entire_vs_ref"]) == 0.0
    assert ref["wins_cvr_auc_entire_vs_ref"] == ""
    other = next(r for r in agg_rows if r["method"] == "escm2_ipw")
    assert other["wins_cvr_auc_entire_vs_ref"] in {"0", "1"}
    # both runs at one seed share the pinned dataset, so the diff is paired
    by_method = {r["method"]: float(r["cvr_auc_entire"]) for r in run_rows}
    assert float(other["diff_cvr_auc_entire_vs_ref"]) == pytest.approx(
        by_method["escm2_ipw"] - by_method["esmm"], abs=1e-12
    )


def test_compare_generates_per_seed_datasets(tmp_path):
    cfg, _ = _write_config(tmp_path)
    out = tmp_path / "cmp_gen"
    code = main(
        [
            "compare",
            "--config",
            str(cfg),
            "--out",
            str(out),
            "--methods",
            "esmm,nise",
            "--seeds",
            "0,1",
        ]
    )
    assert code == 0
    assert (out / "datasets" / "sim_seed0.csv").is_file()
    assert (out / "datasets" / "sim_seed1.csv").is_file()
    for method in ("esmm", "nise"):
        for seed in (0, 1):
            assert (out / "runs" / f"{method}_seed{seed}" / "checkpoint.bin").is_file()


def test_compare_survives_a_validation_split_without_positives(tmp_path):
    # At 600 exposures, seed 4's validation split holds no click-and-
    # convert positive; its AUC is undefined, and training goes on as if
    # there were no validation split rather than failing the comparison.
    cfg = tmp_path / "config.yaml"
    cfg.write_text(
        "sim: {n_exposures: 600, seed: 0}\n"
        "model: {embed_width: 4, encoder_widths: [], tower_widths: [16]}\n"
        "trainer: {method: chorus, epochs: 2, batch_size: 1024, learning_rate: 0.001, patience: 1, seed: 0}\n",
        encoding="utf-8",
    )
    out = tmp_path / "cmp"
    args = ["compare", "--config", str(cfg), "--out", str(out), "--methods", "esmm,chorus", "--seeds", "4"]
    assert main(args) == 0
    history = (out / "runs" / "chorus_seed4" / "history.csv").read_text().splitlines()
    assert [line.split(",")[-2:] for line in history[1:]] == [["nan", "0"], ["nan", "1"]]


def test_compare_needs_two_methods(simulated, tmp_path):
    _, cfg, _, _ = simulated
    code = main(
        ["compare", "--config", str(cfg), "--out", str(tmp_path / "x"), "--methods", "esmm", "--seeds", "0"]
    )
    assert code == 2


def test_compare_rejects_unknown_method(simulated, tmp_path):
    _, cfg, _, _ = simulated
    code = main(
        [
            "compare",
            "--config",
            str(cfg),
            "--out",
            str(tmp_path / "x"),
            "--methods",
            "esmm,bogus",
            "--seeds",
            "0",
        ]
    )
    assert code == 2


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "config.yaml"
    cfg.write_text("sim:\n  n_exposures: 100\n  mystery_knob: 3\n", encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize(
    "command, section, typo",
    [
        ("train", "trainer:\n  epoch: 1\n", "epoch"),
        ("train", "model:\n  encoder_width: [8]\n", "encoder_width"),
        ("train", "objective:\n  weight:\n    ctr: 0.5\n", "weight"),
        ("compare", "compare:\n  method: [esmm, chorus]\n", "method"),
        ("evaluate", "evaluate:\n  checkpont: model.bin\n", "checkpont"),
        ("simulate", "trainr:\n  epochs: 1\n", "trainr"),
    ],
    ids=["trainer", "model", "objective", "compare", "evaluate", "root"],
)
def test_unknown_key_in_any_section_exits_2(tmp_path, capsys, command, section, typo):
    base = {k: v for k, v in yaml.safe_load(CONFIG).items() if k != section.split(":")[0]}
    cfg = tmp_path / "config.yaml"
    cfg.write_text(yaml.safe_dump(base) + section, encoding="utf-8")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert f"'{typo}'" in capsys.readouterr().err


def test_log_without_conversions_exits_1(simulated, tmp_path, capsys):
    _, _, _, dataset = simulated
    schema = sim_schema(SimConfig(**yaml.safe_load(CONFIG)["sim"]))
    records, _ = read_log(dataset, schema)
    no_conv = tmp_path / "no_conv.csv"
    write_log(dataclasses.replace(records, conversion=np.zeros_like(records.conversion)), no_conv, schema)
    cfg, _ = _write_config(tmp_path, f"  dataset: {no_conv}\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert "run failed" in capsys.readouterr().err


def test_compare_regenerates_datasets_when_sim_changes(tmp_path):
    out = tmp_path / "cmp"
    args = ["compare", "--out", str(out), "--methods", "esmm,escm2_ipw", "--seeds", "0"]
    for n_exposures in (3000, 4000):
        cfg = tmp_path / f"config_{n_exposures}.yaml"
        cfg.write_text(CONFIG.replace("n_exposures: 3000", f"n_exposures: {n_exposures}"), encoding="utf-8")
        assert main([*args, "--config", str(cfg)]) == 0
        lines = (out / "datasets" / "sim_seed0.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == n_exposures + 1  # header + one row per exposure


def test_ingestion_report_in_train_and_evaluate_manifests(simulated, tmp_path):
    _, _, _, dataset = simulated
    text = dataset.read_text(encoding="utf-8")
    dirty = tmp_path / "dirty.csv"
    dirty.write_text(
        text
        + "90000,0,1,1,1,1,1,0.5,0.5,1\n"  # converted without a click
        + "90001,2,0,1,1,1,1,0.5,0.5,0\n"  # click label out of range
        + "90002,0,0,9,1,1,1,0.5,0.5,0\n",  # f0 outside its 8 bins, folded
        encoding="utf-8",
    )
    cfg, _ = _write_config(tmp_path, f"  dataset: {dirty}\n")
    expected = {
        "lines": 3003,
        "records": 3001,
        "skipped": 1,
        "skipped_rows": [[3003, "click must be 0 or 1, got '2'"]],
        "funnel_violations": 1,
        "oov_folds": {"f0": 1, "f1": 0, "f2": 0, "f3": 0},
    }
    manifests = []
    for run in ("a", "b"):
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / run)]) == 0
        manifests.append((tmp_path / run / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]  # deterministic: wall clock stays in timing.csv
    manifest = json.loads(manifests[0])
    assert manifest["ingestion"] == expected
    assert manifest["artifacts"]["timing"] == "timing.csv"
    assert manifest["nondeterministic"] == ["timing.csv"]

    code = main(
        ["evaluate", "--config", str(cfg), "--out", str(tmp_path / "eval"), "--checkpoint", str(tmp_path / "a" / "checkpoint.bin")]
    )
    assert code == 0
    assert json.loads((tmp_path / "eval" / "manifest.json").read_text())["ingestion"] == expected


def test_a_data_row_that_is_not_utf8_is_skipped_not_fatal(simulated, tmp_path):
    _, _, _, dataset = simulated
    lines = dataset.read_bytes().split(b"\n")
    lines[5] = lines[5][:-1] + b"\xff"  # the last byte of line 6
    dirty = tmp_path / "dirty.csv"
    dirty.write_bytes(b"\n".join(lines))
    cfg, _ = _write_config(tmp_path, f"  dataset: {dirty}\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    ingestion = json.loads((tmp_path / "run" / "manifest.json").read_text())["ingestion"]
    assert (ingestion["lines"], ingestion["records"]) == (3000, 2999)
    assert ingestion["skipped_rows"] == [[6, "not valid UTF-8"]]


def test_train_writes_timing_per_phase(trained):
    _, out, _ = trained
    lines = (out / "timing.csv").read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "phase,epoch,wall_s"
    rows = [line.split(",") for line in lines[1:]]
    assert [(phase, epoch) for phase, epoch, _ in rows] == [
        ("load", ""),
        ("build", ""),
        ("steps", "1"),
        ("validate", "1"),
        ("eval", ""),
    ]
    assert all(float(seconds) > 0.0 for _, _, seconds in rows)


def _call_log(path):
    """A recorder that appends one line per call to ``path``: a file, so
    calls made in ``compare``'s worker processes are seen too."""

    def record(entry):
        with path.open("a", encoding="utf-8") as fh:
            fh.write(f"{entry}\n")

    return record


def _recorded(path):
    return path.read_text(encoding="utf-8").splitlines() if path.exists() else []


def test_compare_hashes_each_seed_dataset_once(tmp_path, monkeypatch):
    calls = tmp_path / "hashed.txt"
    record = _call_log(calls)

    def counting_sha256(path):
        record(path.name)
        return hashlib.sha256(path.read_bytes()).hexdigest()

    monkeypatch.setattr(cli, "_sha256", counting_sha256)
    cfg, _ = _write_config(tmp_path)
    out = tmp_path / "cmp"
    args = ["compare", "--config", str(cfg), "--out", str(out), "--methods", "esmm,chorus,nise", "--seeds", "0,1"]
    assert main(args) == 0
    assert sorted(_recorded(calls)) == ["sim_seed0.csv", "sim_seed1.csv"]
    for seed in (0, 1):
        digest = hashlib.sha256((out / "datasets" / f"sim_seed{seed}.csv").read_bytes()).hexdigest()
        for method in ("esmm", "chorus", "nise"):
            manifest = json.loads((out / "runs" / f"{method}_seed{seed}" / "manifest.json").read_text())
            assert manifest["dataset_sha256"] == digest


def test_compare_makes_no_read_for_simulated_seeds(tmp_path, monkeypatch):
    calls = tmp_path / "reads.txt"
    record = _call_log(calls)

    def counting_read_log(path, schema):
        record(path)
        return read_log(path, schema)

    monkeypatch.setattr(cli, "read_log", counting_read_log)
    cfg, _ = _write_config(tmp_path)
    out = tmp_path / "cmp"
    args = ["compare", "--config", str(cfg), "--out", str(out), "--methods", "esmm,chorus,nise", "--seeds", "0,1"]
    assert main(args) == 0
    assert _recorded(calls) == []
    for method in ("esmm", "chorus", "nise"):
        for seed in (0, 1):
            manifest = json.loads((out / "runs" / f"{method}_seed{seed}" / "manifest.json").read_text())
            assert manifest["ingestion"]["records"] == 3000
            assert manifest["ingestion"]["skipped"] == 0


def _trained_logs(tmp_path, monkeypatch):
    """Record the log and ingestion report each ``run_train`` is handed, in
    ``tmp_path``, keyed by run directory: workers write them as files."""
    real_run_train = cli.run_train

    def recording_run_train(cfg, config_text, out_dir, *args, loaded=None, **kwargs):
        with (tmp_path / f"{Path(out_dir).name}.pkl").open("wb") as fh:
            pickle.dump((loaded.log, loaded.report), fh)
        return real_run_train(cfg, config_text, out_dir, *args, loaded=loaded, **kwargs)

    monkeypatch.setattr(cli, "run_train", recording_run_train)

    def recorded(run):
        with (tmp_path / f"{run}.pkl").open("rb") as fh:
            return pickle.load(fh)

    return recorded


def test_compare_trains_on_the_log_its_dataset_reads_back_as(tmp_path, monkeypatch):
    trained = _trained_logs(tmp_path, monkeypatch)
    cfg, text = _write_config(tmp_path)
    out = tmp_path / "cmp"
    assert main(_compare_args(cfg, out)) == 0
    schema = cli.schema_from_config(yaml.safe_load(text))
    for seed in (0, 1):
        back, report = read_log(out / "datasets" / f"sim_seed{seed}.csv", schema)
        for method in ("esmm", "chorus", "nise"):
            log, got = trained(f"{method}_seed{seed}")
            assert log == back
            assert got == report
            manifest = json.loads((out / "runs" / f"{method}_seed{seed}" / "manifest.json").read_text())
            assert manifest["ingestion"] == json.loads(json.dumps(cli._ingestion(report)))


def _features(dims):
    """A ``features`` section of ``dims`` categorical ids with a vocabulary of 6."""
    return "features:\n" + "".join(
        f"  - {{name: f{d}, kind: categorical, side: cross, vocab_size: 6, embed_width: 4}}\n" for d in range(dims)
    )


def test_compare_screens_a_simulated_log_as_reading_it_would(tmp_path, monkeypatch, capsys):
    # Bins 6 and 7 of the simulator's 8 fall outside a vocabulary of 6.
    trained = _trained_logs(tmp_path, monkeypatch)
    cfg = tmp_path / "config.yaml"
    text = CONFIG + _features(4)
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "cmp"
    assert main(_compare_args(cfg, out, methods="esmm,nise", seeds="0")) == 0
    back, report = read_log(out / "datasets" / "sim_seed0.csv", cli.schema_from_config(yaml.safe_load(text)))
    n_oov = sum(report.oov_folds.values())
    assert n_oov > 0
    assert trained("esmm_seed0") == trained("nise_seed0")
    log, got = trained("esmm_seed0")
    assert log == back
    assert got == report
    assert f"ingestion: 3000 records, 0 funnel violations dropped, 0 rows skipped, {n_oov} out-of-vocabulary" in (
        capsys.readouterr().out
    )


@pytest.mark.parametrize("reverse", [False, True], ids=["screened", "read"])
def test_compare_load_time_covers_generating_and_writing_the_seed_log(tmp_path, monkeypatch, reverse):
    # The seed's log comes from generate, write_log, then a screen, or a
    # read when the features list its id columns in another order.
    header, *entries = _features(4).splitlines(keepends=True)
    features = header + "".join(reversed(entries)) if reverse else ""
    real_generate = cli.generate

    def slow_generate(config):
        time.sleep(0.05)
        return real_generate(config)

    monkeypatch.setattr(cli, "generate", slow_generate)
    cfg = tmp_path / "config.yaml"
    cfg.write_text(CONFIG + features, encoding="utf-8")
    out = tmp_path / "cmp"
    assert main(_compare_args(cfg, out, methods="esmm,nise")) == 0
    for method in ("esmm", "nise"):
        for seed in (0, 1):
            lines = (out / "runs" / f"{method}_seed{seed}" / "timing.csv").read_text(encoding="utf-8").splitlines()
            load = [float(seconds) for phase, _, seconds in (line.split(",") for line in lines) if phase == "load"]
            assert load[0] >= 0.05


def test_compare_reads_a_simulated_log_its_features_do_not_name(tmp_path, capsys):
    cfg = tmp_path / "config.yaml"
    cfg.write_text(CONFIG + _features(3), encoding="utf-8")
    assert main(_compare_args(cfg, tmp_path / "cmp", methods="esmm,nise", seeds="0")) == 2
    assert "unknown columns ['f3']" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [("--seeds", "0,0"), ("--methods", "esmm,esmm")],
    ids=["seeds", "methods"],
)
def test_compare_rejects_repeated_seed_or_method(simulated, tmp_path, capsys, flag, value):
    _, cfg, _, _ = simulated
    args = {"--methods": "esmm,chorus", "--seeds": "0", flag: value}
    out = tmp_path / "x"
    code = main(["compare", "--config", str(cfg), "--out", str(out), *(a for kv in args.items() for a in kv)])
    assert code == 2
    assert "repeated" in capsys.readouterr().err
    assert not (out / "comparison.csv").exists()


def _artifact_digests(out):
    """sha256 of every artifact ``tools/artifact_digest.py`` hashes."""
    path = Path(__file__).resolve().parents[1] / "tools" / "artifact_digest.py"
    spec = importlib.util.spec_from_file_location("artifact_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.digests(out)


def _compare_args(cfg, out, methods="esmm,chorus,nise", seeds="0,1"):
    return ["compare", "--config", str(cfg), "--out", str(out), "--methods", methods, "--seeds", seeds]


NO_SCIPY_RUN = """\
import json, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from choruscvr.cli import main
cfg, pinned, out = sys.argv[1:]
codes = [
    main(["simulate", "--config", cfg, "--out", out + "/sim"]),
    main(["train", "--config", pinned, "--out", out + "/train"]),
    main(["evaluate", "--config", pinned, "--out", out + "/eval", "--checkpoint", out + "/train/checkpoint.bin"]),
    main(["compare", "--config", cfg, "--out", out + "/cmp", "--methods", "esmm,chorus", "--seeds", "0"]),
]
loaded = sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod is not None)
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_every_command_runs_without_scipy(tmp_path):
    cfg, _ = _write_config(tmp_path)
    pinned = tmp_path / "pinned.yaml"
    pinned.write_text(CONFIG + f"  dataset: {tmp_path / 'out' / 'sim' / 'dataset.csv'}\n", encoding="utf-8")
    src = str(Path(choruscvr.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUN, str(cfg), str(pinned), str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"codes": [0, 0, 0, 0], "scipy": []}


def test_package_import_pins_blas_to_one_thread():
    assert choruscvr.BLAS_PINNED
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert os.environ[var] == "1"


def _allow_cpus(monkeypatch, cpus: int) -> None:
    """Let this process run on ``cpus`` CPUs, as ``compare``'s pool counts them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def test_pooled_compare_matches_serial_bytes_and_stdout(tmp_path, monkeypatch, capsys):
    cfg, _ = _write_config(tmp_path)
    out = tmp_path / "cmp"
    seen = {}
    for label, cpus in (("pooled", 2), ("serial", 1)):
        _allow_cpus(monkeypatch, cpus)
        shutil.rmtree(out, ignore_errors=True)
        assert main(_compare_args(cfg, out)) == 0
        seen[label] = (_artifact_digests(out), capsys.readouterr().out)
    digests, stdout = seen["pooled"]
    assert len(digests) == 2 + 3 * 2 * 5 + 2  # datasets, 5 per run, table and manifest
    assert digests == seen["serial"][0]
    assert stdout == seen["serial"][1]
    assert stdout.count("trained ") == 6


@pytest.mark.parametrize(
    "pinned, cpus", [(True, 2), (False, 2), (True, 1)], ids=["pinned-blas", "threaded-blas", "one-cpu-affinity"]
)
def test_compare_runs_seeds_in_worker_processes(tmp_path, monkeypatch, pinned, cpus):
    # The pool counts the CPUs this process may run on: pinned to one
    # (``taskset -c 0``) on a machine of two, the seeds run inline.
    calls = tmp_path / "pids.txt"
    record = _call_log(calls)
    real_run_train = cli.run_train

    def recording_run_train(*args, **kwargs):
        record(os.getpid())
        return real_run_train(*args, **kwargs)

    monkeypatch.setattr(cli, "run_train", recording_run_train)
    monkeypatch.setattr(choruscvr, "BLAS_PINNED", pinned)
    _allow_cpus(monkeypatch, cpus)
    cfg, _ = _write_config(tmp_path)
    assert main(_compare_args(cfg, tmp_path / "cmp", methods="esmm,nise")) == 0
    pids = [int(pid) for pid in _recorded(calls)]
    assert len(pids) == 4
    if pinned and cpus > 1:
        assert os.getpid() not in pids
    else:
        assert set(pids) == {os.getpid()}


def test_compare_reads_pinned_dataset_once_for_all_seeds(simulated, tmp_path, monkeypatch):
    _, _, _, dataset = simulated
    calls = tmp_path / "reads.txt"
    record = _call_log(calls)

    def counting_read_log(path, schema):
        record(path)
        return read_log(path, schema)

    monkeypatch.setattr(cli, "read_log", counting_read_log)
    _allow_cpus(monkeypatch, 2)
    cfg = tmp_path / "config.yaml"
    cfg.write_text(CONFIG + f"compare:\n  dataset: {dataset}\n", encoding="utf-8")
    out = tmp_path / "cmp"
    assert main(_compare_args(cfg, out, methods="esmm,nise")) == 0
    assert _recorded(calls) == [str(dataset)]
    lines = (out / "comparison.csv").read_text(encoding="utf-8").splitlines()
    assert [line.split(",")[:3] for line in lines[1:5]] == [
        ["run", "esmm", "0"],
        ["run", "esmm", "1"],
        ["run", "nise", "0"],
        ["run", "nise", "1"],
    ]


def test_compare_reports_first_failing_seed_and_leaves_no_workers(tmp_path, monkeypatch, capsys):
    real_run_train = cli.run_train

    def failing_run_train(*args, seed=None, **kwargs):
        if seed == 1:
            time.sleep(1.0)  # seed 2 fails first in wall-clock time
            raise RuntimeError("seed 1 diverged")
        if seed == 2:
            raise RuntimeError("seed 2 diverged")
        return real_run_train(*args, seed=seed, **kwargs)

    monkeypatch.setattr(cli, "run_train", failing_run_train)
    cfg, _ = _write_config(tmp_path)
    outcomes = {}
    for label, cpus in (("pooled", 2), ("serial", 1)):
        _allow_cpus(monkeypatch, cpus)
        out = tmp_path / label
        code = main(_compare_args(cfg, out, methods="esmm,nise", seeds="0,1,2"))
        captured = capsys.readouterr()
        outcomes[label] = (code, captured.out, captured.err)
        assert multiprocessing.active_children() == []
        assert not (out / "comparison.csv").exists()
    assert outcomes["pooled"] == outcomes["serial"]
    code, stdout, stderr = outcomes["pooled"]
    assert code == 1
    assert stderr == "run failed: seed 1 diverged\n"
    assert stdout.count("trained ") == 2
