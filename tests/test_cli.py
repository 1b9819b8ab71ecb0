"""End-to-end CLI: pipeline commands, artifacts, determinism, exit codes."""

import hashlib
import json
import os

import numpy as np
import pytest

from unlearnlab.cli import main


def _write_config(path, out_dir):
    config = {
        "schema_version": 1,
        "output_dir": str(out_dir),
        "seed_list": [0],
        "dataset": {
            "kind": "blobs", "seed": 71, "n_per_class": 40, "class_count": 3,
            "dim": 4, "spread": 0.7,
        },
        "split": {"kind": "random_subset", "fraction": 0.2, "test_fraction": 0.2, "seed": 5},
        "model": {"layer_sizes": [4, 8, 3], "init_scale": 1.0, "seed": 2},
        "train": {"lr": 0.3, "epochs": 15, "batch_size": 32, "schedule": "cosine",
                  "momentum": 0.9, "seed": 8},
        "unlearn": {
            "sfr_on": {"alpha": 1.0, "beta_f": 0.3, "beta_r": 0.05, "t_in": 3,
                        "t_out": 10, "lambda_temp": 0.2, "gamma": 1.0,
                        "batch_f": 12, "batch_r": 24, "seed": 4},
            "ft": {"beta_r": 0.05, "t_out": 2, "batch_r": 24, "seed": 4},
        },
    }
    path.write_text(json.dumps(config, indent=2))
    return config


def _run_pipeline(tmp_path, tag):
    out = tmp_path / tag
    cfg_path = tmp_path / f"config_{tag}.json"
    _write_config(cfg_path, out)
    assert main(["pretrain", "--config", str(cfg_path)]) == 0
    split = str(out / "split.json")
    pre = str(out / "pretrain")
    assert main(["retrain", "--config", str(cfg_path), "--split", split]) == 0
    assert main([
        "unlearn", "--config", str(cfg_path), "--method", "sfr_on",
        "--pretrained", pre, "--split", split,
    ]) == 0
    assert main([
        "eval", "--model", str(out / "unlearn_sfr_on"), "--reference", str(out / "retrain"),
        "--split", split, "--out", str(out / "report_sfr_on.json"),
    ]) == 0
    return out


def test_full_pipeline_produces_artifacts(tmp_path):
    out = _run_pipeline(tmp_path, "run")
    for sub in ("dataset.csv", "split.json", "pretrain", "retrain", "unlearn_sfr_on"):
        assert (out / sub).exists()
    for ckpt_dir in ("pretrain", "retrain", "unlearn_sfr_on"):
        assert (out / ckpt_dir / "provenance.json").exists()
        assert (out / ckpt_dir / "manifest.json").exists()
        assert (out / ckpt_dir / "params.bin").exists()
    report = json.loads((out / "report_sfr_on.json").read_text())
    assert set(report) >= {"fa", "ra", "ta", "mia", "kl_to_ref", "avg_d", "gaps"}


def test_eval_model_against_itself_is_exact(tmp_path):
    out = _run_pipeline(tmp_path, "self")
    rc = main([
        "eval", "--model", str(out / "retrain"), "--reference", str(out / "retrain"),
        "--split", str(out / "split.json"), "--out", str(out / "self.json"),
    ])
    assert rc == 0
    report = json.loads((out / "self.json").read_text())
    assert report["avg_d"] == 0.0
    assert abs(report["kl_to_ref"]) <= 1e-12


def _strip_wall(manifest: dict) -> dict:
    # Wall-clock time legitimately differs between runs; everything else,
    # including the input paths recorded relative to the checkpoint, must
    # match bit for bit.
    manifest = json.loads(json.dumps(manifest))
    manifest.get("provenance", {}).pop("wall_seconds", None)
    return manifest


def test_pipeline_is_deterministic_across_runs(tmp_path):
    a = _run_pipeline(tmp_path, "a")
    b = _run_pipeline(tmp_path, "b")
    for sub in ("dataset.csv", "split.json"):
        assert (a / sub).read_bytes() == (b / sub).read_bytes()
    for ckpt in ("pretrain", "retrain", "unlearn_sfr_on"):
        assert (a / ckpt / "params.bin").read_bytes() == (b / ckpt / "params.bin").read_bytes()
        ma = _strip_wall(json.loads((a / ckpt / "manifest.json").read_text()))
        mb = _strip_wall(json.loads((b / ckpt / "manifest.json").read_text()))
        assert ma == mb
    ra = json.loads((a / "report_sfr_on.json").read_text())
    rb = json.loads((b / "report_sfr_on.json").read_text())
    ra.pop("rte_seconds"), rb.pop("rte_seconds")
    assert ra == rb


def test_unlearn_rejects_unknown_method(tmp_path):
    out = tmp_path / "x"
    cfg_path = tmp_path / "config.json"
    _write_config(cfg_path, out)
    with pytest.raises(SystemExit) as exc:
        main(["unlearn", "--config", str(cfg_path), "--method", "nosuch",
              "--pretrained", "p", "--split", "s"])
    assert exc.value.code == 2


def test_missing_file_is_runtime_error(tmp_path):
    assert main(["eval", "--model", "missing", "--reference", "missing",
                 "--split", "missing", "--out", str(tmp_path / "r.json")]) == 1


def test_split_past_the_dataset_is_rejected_before_any_work(tmp_path, capsys):
    out = tmp_path / "past"
    cfg_path = tmp_path / "config.json"
    _write_config(cfg_path, out)
    assert main(["pretrain", "--config", str(cfg_path)]) == 0
    bad = tmp_path / "past.json"
    bad.write_text('{"forget_idx": [0], "remain_idx": [1, 120], "test_idx": [], "mode": {}}')
    pre = str(out / "pretrain")
    assert main(["retrain", "--config", str(cfg_path), "--split", str(bad)]) == 1
    assert main(["unlearn", "--config", str(cfg_path), "--method", "sfr_on",
                 "--pretrained", pre, "--split", str(bad)]) == 1
    assert main(["eval", "--model", pre, "--reference", pre, "--split", str(bad),
                 "--out", str(out / "r.json")]) == 1
    assert not (out / "retrain").exists() and not (out / "unlearn_sfr_on").exists()
    assert not (out / "r.json").exists()
    assert "index 120 is past the last row of a 120-row dataset" in capsys.readouterr().err


def test_unknown_config_key_is_an_error(tmp_path, capsys):
    out = tmp_path / "typo"
    cfg_path = tmp_path / "config.json"
    config = _write_config(cfg_path, out)
    config["unlearn"]["sfr_on"]["beta_F"] = 9.0
    cfg_path.write_text(json.dumps(config))
    assert main(["pretrain", "--config", str(cfg_path)]) == 0
    assert main(["unlearn", "--config", str(cfg_path), "--method", "sfr_on",
                 "--pretrained", str(out / "pretrain"),
                 "--split", str(out / "split.json")]) == 1
    assert "unknown unlearn config keys ['beta_F']" in capsys.readouterr().err


def test_missing_config_field_is_an_error_not_a_traceback(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    config = _write_config(cfg_path, tmp_path / "nofield")
    del config["train"]["batch_size"]
    cfg_path.write_text(json.dumps(config))
    assert main(["pretrain", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == "error: missing key 'batch_size'\n"


def test_csv_label_outside_int64_is_an_error_not_a_traceback(tmp_path, capsys):
    csv = tmp_path / "big.csv"
    csv.write_text("label,f0,f1,f2,f3\n0,1,2,3,4\n99999999999999999999,1,2,3,4\n")
    cfg_path = tmp_path / "config.json"
    config = _write_config(cfg_path, tmp_path / "big")
    config["dataset"] = {"kind": "csv", "path": str(csv)}
    cfg_path.write_text(json.dumps(config))
    assert main(["pretrain", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {csv}: line 3: label 99999999999999999999 is outside int64\n")


def test_changed_dataset_spec_does_not_reuse_the_csv(tmp_path, capsys):
    out = tmp_path / "stale"
    cfg_path = tmp_path / "config.json"
    config = _write_config(cfg_path, out)
    assert main(["pretrain", "--config", str(cfg_path)]) == 0
    csv = (out / "dataset.csv").read_bytes()
    # The same spec reuses the file as it is.
    assert main(["pretrain", "--config", str(cfg_path)]) == 0
    assert (out / "dataset.csv").read_bytes() == csv
    config["dataset"]["n_per_class"] *= 2
    cfg_path.write_text(json.dumps(config))
    assert main(["pretrain", "--config", str(cfg_path)]) == 1
    assert main(["retrain", "--config", str(cfg_path), "--split", str(out / "split.json")]) == 1
    err = capsys.readouterr().err
    assert "dataset.csv was generated from dataset spec" in err
    assert "'n_per_class': 40" in err and "'n_per_class': 80" in err
    assert (out / "dataset.csv").read_bytes() == csv


def _edit_last_digit_of_first_row(csv):
    text = csv.read_text()
    end = text.index("\n", text.index("\n") + 1) - 1
    csv.write_text(text[:end] + str((int(text[end]) + 1) % 10) + text[end + 1:])


def test_checkpoints_record_the_dataset_digest(tmp_path):
    out = _run_pipeline(tmp_path, "digest")
    digest = hashlib.sha256((out / "dataset.csv").read_bytes()).hexdigest()
    for ckpt in ("pretrain", "retrain", "unlearn_sfr_on"):
        prov = json.loads((out / ckpt / "manifest.json").read_text())["provenance"]
        assert prov["dataset_sha256"] == digest
        assert prov["dataset_path"] == os.path.join("..", "dataset.csv")


def test_eval_refuses_a_dataset_edited_after_training(tmp_path, capsys):
    out = _run_pipeline(tmp_path, "edited")
    csv = out / "dataset.csv"
    before = hashlib.sha256(csv.read_bytes()).hexdigest()
    _edit_last_digit_of_first_row(csv)
    after = hashlib.sha256(csv.read_bytes()).hexdigest()
    capsys.readouterr()
    for dataset in ([], ["--dataset", str(csv)]):
        assert main([
            "eval", "--model", str(out / "unlearn_sfr_on"), "--reference", str(out / "retrain"),
            "--split", str(out / "split.json"), "--out", str(out / "edited.json"), *dataset,
        ]) == 1
        err = capsys.readouterr().err
        assert f"records dataset sha256 {before}, but" in err and f"has sha256 {after}" in err
    assert not (out / "edited.json").exists()


def test_unlearn_refuses_a_pretrained_checkpoint_from_other_data(tmp_path, capsys):
    out = tmp_path / "other"
    cfg_path = tmp_path / "config.json"
    _write_config(cfg_path, out)
    assert main(["pretrain", "--config", str(cfg_path)]) == 0
    before = hashlib.sha256((out / "dataset.csv").read_bytes()).hexdigest()
    _edit_last_digit_of_first_row(out / "dataset.csv")
    assert main(["unlearn", "--config", str(cfg_path), "--method", "sfr_on",
                 "--pretrained", str(out / "pretrain"),
                 "--split", str(out / "split.json")]) == 1
    assert f"pretrain records dataset sha256 {before}, but" in capsys.readouterr().err
    assert not (out / "unlearn_sfr_on").exists()


def test_eval_refuses_a_checkpoint_built_on_another_split(tmp_path, capsys):
    out = _run_pipeline(tmp_path, "resplit")
    split_a, split_b = out / "split.json", out / "split_b.json"
    payload = json.loads(split_a.read_text())
    payload["forget_idx"][0], payload["remain_idx"][0] = (payload["remain_idx"][0],
                                                          payload["forget_idx"][0])
    split_b.write_text(json.dumps(payload))
    assert main(["retrain", "--config", str(tmp_path / "config_resplit.json"),
                 "--split", str(split_b), "--out", str(out / "b")]) == 0
    digest_a, digest_b = (hashlib.sha256(p.read_bytes()).hexdigest() for p in (split_a, split_b))
    for ckpt, digest in (("retrain", digest_a), ("unlearn_sfr_on", digest_a),
                         ("b/retrain", digest_b)):
        prov = json.loads((out / ckpt / "manifest.json").read_text())["provenance"]
        assert prov["split_sha256"] == digest
    assert json.loads(
        (out / "pretrain" / "manifest.json").read_text())["provenance"]["split_sha256"] == digest_a
    capsys.readouterr()
    # The model (an unlearned one, then the pretrained one), then the
    # reference, was built on the other split.
    for model, reference, split, offender, recorded, given in (
            ("unlearn_sfr_on", "retrain", split_b, "unlearn_sfr_on", digest_a, digest_b),
            ("pretrain", "b/retrain", split_b, "pretrain", digest_a, digest_b),
            ("unlearn_sfr_on", "b/retrain", split_a, "b/retrain", digest_b, digest_a)):
        assert main(["eval", "--model", str(out / model),
                     "--reference", str(out / reference), "--split", str(split),
                     "--out", str(out / "mixed.json")]) == 1
        assert capsys.readouterr().err == (
            f"error: {out / offender} records split sha256 {recorded}, but {split} "
            f"has sha256 {given}\n")
    assert not (out / "mixed.json").exists()
    # unlearn does not check the pretrained checkpoint's split: one pretrain
    # serves the forget requests of many splits.
    assert main(["unlearn", "--config", str(tmp_path / "config_resplit.json"), "--method", "ft",
                 "--pretrained", str(out / "pretrain"), "--split", str(split_b),
                 "--out", str(out / "b")]) == 0


def test_checkpoint_without_a_digest_is_evaluated(tmp_path):
    out = _run_pipeline(tmp_path, "nodigest")
    for ckpt in ("retrain", "unlearn_sfr_on"):
        manifest_path = out / ckpt / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["provenance"]["dataset_sha256"]
        manifest_path.write_text(json.dumps(manifest))
    assert main([
        "eval", "--model", str(out / "unlearn_sfr_on"), "--reference", str(out / "retrain"),
        "--split", str(out / "split.json"), "--out", str(out / "again.json"),
    ]) == 0
    first = json.loads((out / "report_sfr_on.json").read_text())
    again = json.loads((out / "again.json").read_text())
    assert first == again


def test_eval_resolves_the_dataset_against_the_checkpoint(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "config.json"
    _write_config(cfg_path, "rel")
    assert main(["pretrain", "--config", "config.json"]) == 0
    assert main(["retrain", "--config", "config.json", "--split", "rel/split.json"]) == 0
    argv = ["eval", "--model", "rel/pretrain", "--reference", "rel/retrain",
            "--split", "rel/split.json", "--out", "here.json"]
    assert main(argv) == 0
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    assert main([arg.replace("rel/", "../rel/") for arg in argv]) == 0
    assert (tmp_path / "elsewhere" / "here.json").read_text() == (
        tmp_path / "here.json").read_text()


def test_input_paths_are_recorded_relative_to_the_checkpoint(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_config(tmp_path / "config.json", "rel")
    assert main(["pretrain", "--config", "config.json"]) == 0
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    common = ["--config", "../config.json", "--split", "../rel/split.json", "--out", "../rel"]
    assert main(["retrain", *common]) == 0
    assert main(["unlearn", *common, "--method", "ft", "--pretrained", "../rel/pretrain"]) == 0
    expected = {"dataset_path": "../dataset.csv", "split_path": "../split.json"}
    for ckpt in ("pretrain", "retrain", "unlearn_ft"):
        prov = json.loads((tmp_path / "rel" / ckpt / "manifest.json").read_text())["provenance"]
        if ckpt == "unlearn_ft":
            expected["pretrained_path"] = "../pretrain"
        assert {key: prov.get(key) for key in expected} == expected, ckpt


def test_verify_command(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--suite", "klmix", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] is True
    assert payload["checks"][0]["check_name"] == "kl_mixture_split"


def test_classwise_split_config(tmp_path):
    out = tmp_path / "cw"
    cfg_path = tmp_path / "config_cw.json"
    config = _write_config(cfg_path, out)
    config["split"] = {"kind": "classwise", "class_id": 1, "test_fraction": 0.2, "seed": 5}
    cfg_path.write_text(json.dumps(config))
    assert main(["pretrain", "--config", str(cfg_path)]) == 0
    split = json.loads((out / "split.json").read_text())
    assert split["mode"]["kind"] == "classwise"
    labels = np.loadtxt(out / "dataset.csv", delimiter=",", skiprows=1)[:, 0]
    assert not np.any(labels[split["test_idx"]] == 1)
    assert np.all(labels[split["forget_idx"]] == 1)


def test_report_aggregation(tmp_path):
    out = _run_pipeline(tmp_path, "agg")
    table = tmp_path / "summary.md"
    rc = main(["report", "--inputs", str(out / "report_sfr_on.json"), "--out", str(table)])
    assert rc == 0
    text = table.read_text()
    assert "sfr_on" in text
    assert "±" in text
