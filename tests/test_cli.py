"""Command-line entry points: exit codes, artifacts, manifests."""

import dataclasses
import hashlib
import json

import pytest
import yaml

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
    write_log([dataclasses.replace(rec, conversion=0) for rec in records], no_conv, schema)
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
