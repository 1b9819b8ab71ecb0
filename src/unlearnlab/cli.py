"""Config-driven experiment runner.

Verbs: pretrain | retrain | unlearn | eval | verify | report. Every output
directory gets a ``provenance.json`` carrying the full config, seeds, and
library version, so any artifact can be reproduced from its directory alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .data import (
    Dataset,
    generate_blobs,
    load_csv_dataset,
    load_split,
    make_classwise_split,
    make_random_subset_split,
    save_csv_dataset,
    save_split,
)
from .metrics import MARKDOWN_HEADER, MetricsReport, full_report
from .model import ModelConfig, init_params
from .trainer import TrainConfig, load_checkpoint, save_checkpoint, sgd_train
from .unlearn import METHODS, UnlearnConfig, run_unlearning
from .verify import run_suite

CONFIG_SCHEMA_VERSION = 1


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    version = config.get("schema_version")
    if version != CONFIG_SCHEMA_VERSION:
        raise ValueError(f"unsupported config schema_version {version!r}")
    return config


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_provenance(directory: str, config: dict, extra: dict | None = None) -> None:
    payload = {"library_version": __version__, "config": config}
    if extra:
        payload.update(extra)
    _write_json(os.path.join(directory, "provenance.json"), payload)


def resolve_dataset(config: dict, out_dir: str) -> tuple[Dataset, str]:
    """Load or materialize the configured dataset; returns it with its path.

    Generated datasets are written to ``out_dir/dataset.csv`` once, with the
    generating spec in ``dataset.spec.json`` beside it, so every later
    command and checkpoint refers to the same file. A CSV whose recorded
    spec differs from the config's is an error, not a silent reuse.
    """
    spec = config["dataset"]
    if spec.get("kind") == "csv":
        return load_csv_dataset(spec["path"], spec.get("class_count")), spec["path"]
    materialized = os.path.join(out_dir, "dataset.csv")
    spec_path = os.path.join(out_dir, "dataset.spec.json")
    if os.path.exists(materialized):
        recorded = None
        if os.path.exists(spec_path):
            with open(spec_path, "r", encoding="utf-8") as fh:
                recorded = json.load(fh)
        if recorded != spec:
            raise ValueError(
                f"{materialized} was generated from dataset spec {recorded}, not "
                f"{spec}; remove it or choose another output_dir"
            )
        return load_csv_dataset(materialized), materialized
    dataset = generate_blobs(
        seed=int(spec["seed"]),
        n_per_class=int(spec["n_per_class"]),
        class_count=int(spec["class_count"]),
        dim=int(spec["dim"]),
        spread=float(spec["spread"]),
    )
    dataset.sha256 = save_csv_dataset(dataset, materialized)
    _write_json(spec_path, spec)
    return dataset, materialized


def _record_inputs(ckpt, ckpt_dir: str, dataset: Dataset, split=None, **paths: str) -> None:
    """Record each input path (``dataset_path``, ``split_path``,
    ``pretrained_path``) relative to the checkpoint directory, where ``eval``
    resolves the dataset, the SHA-256 of the dataset's CSV bytes and, given
    a split read from a file, the SHA-256 of that file's bytes."""
    for key, path in paths.items():
        ckpt.provenance[key] = os.path.relpath(path, ckpt_dir)
    ckpt.provenance["dataset_sha256"] = dataset.sha256
    if split is not None:
        ckpt.provenance["split_sha256"] = split.sha256


def _check_digest(ckpt, ckpt_dir: str, what: str, sha256: str, path: str) -> None:
    """Refuse a checkpoint made from another ``what`` (dataset or split) file
    than ``path``, whose bytes have ``sha256``. Checkpoints that record no
    digest (library-made) pass."""
    recorded = ckpt.provenance.get(f"{what}_sha256")
    if recorded is not None and recorded != sha256:
        raise ValueError(
            f"{ckpt_dir} records {what} sha256 {recorded}, but {path} has sha256 {sha256}"
        )


def build_split(config: dict, dataset: Dataset):
    spec = config["split"]
    if spec["kind"] == "random_subset":
        return make_random_subset_split(
            dataset,
            fraction=float(spec["fraction"]),
            test_fraction=float(spec["test_fraction"]),
            seed=int(spec["seed"]),
        )
    if spec["kind"] == "classwise":
        return make_classwise_split(
            dataset,
            class_id=int(spec["class_id"]),
            test_fraction=float(spec["test_fraction"]),
            seed=int(spec["seed"]),
        )
    raise ValueError(f"unknown split kind {spec['kind']!r}")


def _out_dir(config: dict, override: str | None) -> str:
    out = override or config["output_dir"]
    os.makedirs(out, exist_ok=True)
    return out


def cmd_pretrain(args) -> int:
    config = load_config(args.config)
    out = _out_dir(config, args.out)
    dataset, dataset_path = resolve_dataset(config, out)
    split = build_split(config, dataset)
    split_path = os.path.join(out, "split.json")
    split.sha256 = save_split(split, split_path)
    model_cfg = ModelConfig.from_dict(config["model"])
    train_cfg = TrainConfig.from_dict(config["train"])
    theta0 = init_params(model_cfg)
    ckpt = sgd_train(
        theta0, train_cfg, model_cfg, dataset, split.train_idx, role="pretrain"
    )
    ckpt_dir = os.path.join(out, "pretrain")
    _record_inputs(ckpt, ckpt_dir, dataset, split,
                   dataset_path=dataset_path, split_path=split_path)
    save_checkpoint(ckpt, ckpt_dir)
    _write_provenance(ckpt_dir, config, {"role": "pretrain"})
    print(ckpt_dir)
    return 0


def cmd_retrain(args) -> int:
    from .trainer import retrain_oracle

    config = load_config(args.config)
    out = _out_dir(config, args.out)
    dataset, dataset_path = resolve_dataset(config, out)
    split = load_split(args.split, len(dataset))
    model_cfg = ModelConfig.from_dict(config["model"])
    train_cfg = TrainConfig.from_dict(config["train"])
    ckpt = retrain_oracle(model_cfg, train_cfg, dataset, split)
    ckpt_dir = os.path.join(out, "retrain")
    _record_inputs(ckpt, ckpt_dir, dataset, split,
                   dataset_path=dataset_path, split_path=args.split)
    save_checkpoint(ckpt, ckpt_dir)
    _write_provenance(ckpt_dir, config, {"role": "retrain"})
    print(ckpt_dir)
    return 0


def cmd_unlearn(args) -> int:
    config = load_config(args.config)
    out = _out_dir(config, args.out)
    dataset, dataset_path = resolve_dataset(config, out)
    split = load_split(args.split, len(dataset))
    pretrained = load_checkpoint(args.pretrained)
    _check_digest(pretrained, args.pretrained, "dataset", dataset.sha256, dataset_path)
    method_cfg = dict(config["unlearn"][args.method])
    method_cfg["method"] = args.method
    ucfg = UnlearnConfig.from_dict(method_cfg)
    ckpt = run_unlearning(
        pretrained.params, pretrained.model_config, dataset, split, ucfg
    )
    ckpt_dir = os.path.join(out, f"unlearn_{args.method}")
    _record_inputs(ckpt, ckpt_dir, dataset, split, dataset_path=dataset_path,
                   split_path=args.split, pretrained_path=args.pretrained)
    save_checkpoint(ckpt, ckpt_dir)
    _write_provenance(ckpt_dir, config, {"role": "unlearned", "method": args.method})
    print(ckpt_dir)
    return 0


def cmd_eval(args) -> int:
    ckpt_u = load_checkpoint(args.model)
    ckpt_ref = load_checkpoint(args.reference)
    if args.dataset:
        dataset_path = args.dataset
    else:
        recorded = ckpt_u.provenance.get("dataset_path")
        if not recorded:
            sys.stderr.write(
                "eval: no --dataset given and the checkpoint records none\n"
            )
            return 1
        dataset_path = os.path.join(args.model, recorded)
    dataset = load_csv_dataset(dataset_path)
    split = load_split(args.split, len(dataset))
    for ckpt, ckpt_dir in ((ckpt_u, args.model), (ckpt_ref, args.reference)):
        _check_digest(ckpt, ckpt_dir, "dataset", dataset.sha256, dataset_path)
        _check_digest(ckpt, ckpt_dir, "split", split.sha256, args.split)
    rte = float(ckpt_u.provenance.get("wall_seconds", 0.0))
    report = full_report(ckpt_u, ckpt_ref, dataset, split, rte_seconds=rte)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    print(MARKDOWN_HEADER)
    print(report.markdown_row())
    return 0


def cmd_verify(args) -> int:
    report = run_suite(args.suite)
    for check in report["checks"]:
        status = "PASS" if check["pass"] else "FAIL"
        detail = ", ".join(f"{k}={v}" for k, v in check["residuals"].items())
        print(f"[{status}] {check['check_name']}: {detail}")
    if args.out:
        _write_json(args.out, report)
    return 0 if report["pass"] else 1


def cmd_report(args) -> int:
    """Aggregate per-seed report JSONs into a mean +/- stdev table per method."""
    by_method: dict[str, list[MetricsReport]] = {}
    for path in args.inputs:
        with open(path, "r", encoding="utf-8") as fh:
            rep = MetricsReport.from_dict(json.load(fh))
        method = rep.provenance.get("method") or "unknown"
        by_method.setdefault(method, []).append(rep)
    lines = [
        "| Method | FA | RA | TA | MIA | Avg.D | D_KL | RTE(s) |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for method in sorted(by_method):
        reports = by_method[method]

        def stat(values, scale=1.0):
            arr = scale * np.asarray(values, dtype=np.float64)
            return f"{arr.mean():.2f} ± {arr.std():.2f}"

        lines.append(
            "| {} | {} | {} | {} | {} | {} | {} | {} |".format(
                method,
                stat([r.fa for r in reports], 100.0),
                stat([r.ra for r in reports], 100.0),
                stat([r.ta for r in reports], 100.0),
                stat([r.mia for r in reports], 100.0),
                stat([r.avg_d for r in reports]),
                stat([r.kl_to_ref for r in reports]),
                stat([r.rte_seconds for r in reports]),
            )
        )
    table = "\n".join(lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(table + "\n")
    print(table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unlearnlab",
        description="Approximate machine unlearning experiments and checks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="generate data, split, and pretrain")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("retrain", help="train the retrain reference on the remain set")
    p.add_argument("--config", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_retrain)

    p = sub.add_parser("unlearn", help="run one unlearning method")
    p.add_argument("--config", required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--pretrained", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_unlearn)

    p = sub.add_parser("eval", help="metrics report for a checkpoint vs. a reference")
    p.add_argument("--model", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--dataset", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("verify", help="run the numerical verification suite")
    p.add_argument(
        "--suite",
        default="all",
        choices=["grad", "prop1", "prop2", "fastslow", "klmix", "all"],
    )
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("report", help="aggregate report JSONs into a table")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, RuntimeError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except KeyError as exc:
        sys.stderr.write(f"error: missing key {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
