"""Minibatch SGD training, the retrain reference, and checkpoint storage.

A checkpoint is a directory of two files: ``manifest.json`` (schema, model
config, provenance) and ``params.bin``, the raw little-endian float64
parameter vector, so round-trips are bit-identical.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import Dataset, ForgetSplit, json_object, read_json, write_json
from .model import (
    ModelConfig,
    check_finite_floats,
    init_params,
    loss_and_grad,
    param_count,
    strict_from_dict,
)

CHECKPOINT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    lr: float
    epochs: int
    batch_size: int
    schedule: str = "constant"  # constant | cosine
    momentum: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_finite_floats(self)
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0,1), got {self.momentum}")
        if self.schedule not in ("constant", "cosine"):
            raise ValueError(f"unknown schedule {self.schedule!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return strict_from_dict(cls, d, "train config")


@dataclass
class Checkpoint:
    params: np.ndarray
    model_config: ModelConfig
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.params = np.asarray(self.params, dtype=np.float64)
        if self.params.shape != (param_count(self.model_config),):
            raise ValueError(
                f"parameter vector length {self.params.size} does not match "
                f"model config ({param_count(self.model_config)})"
            )


def _lr_factor(schedule: str, step: int, total_steps: int) -> float:
    if schedule == "cosine" and total_steps > 0:
        return 0.5 * (1.0 + np.cos(np.pi * step / total_steps))
    return 1.0


def sgd_train(
    init: np.ndarray,
    cfg: TrainConfig,
    model_cfg: ModelConfig,
    dataset: Dataset,
    indices: np.ndarray,
    grad_mask: np.ndarray | None = None,
    on_batch=None,
    role: str = "train",
) -> Checkpoint:
    """Momentum SGD over seeded per-epoch shuffles of ``indices``.

    ``grad_mask`` (0/1 per parameter) zeroes gradients before the momentum
    buffer, so masked coordinates never move. ``on_batch(indices)`` fires for
    every minibatch; instrumentation only. Aborts on a non-finite loss.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if len(indices) == 0:
        raise ValueError("training index set must be nonempty")
    theta = np.asarray(init, dtype=np.float64).copy()
    rng = np.random.default_rng(cfg.seed)
    velocity = np.zeros_like(theta)
    batches_per_epoch = int(np.ceil(len(indices) / cfg.batch_size))
    total_steps = cfg.epochs * batches_per_epoch
    epoch_mean_loss: list[float] = []
    step = 0
    t0 = time.perf_counter()
    for _ in range(cfg.epochs):
        perm = rng.permutation(indices)
        losses = []
        for start in range(0, len(perm), cfg.batch_size):
            batch = perm[start : start + cfg.batch_size]
            if on_batch is not None:
                on_batch(batch)
            loss, grad = loss_and_grad(
                theta, model_cfg, dataset.features[batch], dataset.labels[batch]
            )
            if not np.isfinite(loss):
                raise RuntimeError(f"non-finite loss at step {step}")
            if grad_mask is not None:
                grad = grad * grad_mask
            velocity = cfg.momentum * velocity + grad
            theta -= cfg.lr * _lr_factor(cfg.schedule, step, total_steps) * velocity
            losses.append(loss)
            step += 1
        epoch_mean_loss.append(float(np.mean(losses)))
    wall = time.perf_counter() - t0
    provenance = {
        "role": role,
        "seeds": {"train": cfg.seed, "model": model_cfg.seed},
        "wall_seconds": wall,
        "train_config": cfg.to_dict(),
        "steps": step,
        "epoch_mean_loss": epoch_mean_loss,
    }
    return Checkpoint(theta, model_cfg, provenance)


def retrain_oracle(
    model_cfg: ModelConfig,
    cfg: TrainConfig,
    dataset: Dataset,
    split: ForgetSplit,
    on_batch=None,
) -> Checkpoint:
    """Gold-standard reference: fresh init, trained on the remain set only.

    The forget indices are never handed to the training loop; the assertion
    makes the contract explicit and instrumentable via ``on_batch``.
    """
    split.validate()
    is_forget = np.zeros(len(dataset), dtype=bool)
    is_forget[split.forget_idx] = True

    def guard(batch):
        hit = is_forget[batch]
        assert not hit.any(), (
            f"retrain touched forget indices {np.sort(batch[hit])[:5].tolist()}"
        )
        if on_batch is not None:
            on_batch(batch)

    theta0 = init_params(replace(model_cfg, seed=cfg.seed))
    ckpt = sgd_train(
        theta0, cfg, model_cfg, dataset, split.remain_idx, on_batch=guard,
        role="retrain",
    )
    return ckpt


def save_checkpoint(ckpt: Checkpoint, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "params.bin"), "wb") as fh:
        fh.write(ckpt.params.astype("<f8").tobytes())
    manifest = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "model_config": ckpt.model_config.to_dict(),
        "provenance": ckpt.provenance,
    }
    write_json(os.path.join(directory, "manifest.json"), manifest)


def load_checkpoint(directory: str) -> Checkpoint:
    """Read a checkpoint directory back, rejecting a ``params.bin`` that does
    not fit the model config and non-finite parameters. Other manifest keys,
    such as the ``param_count``, ``dtype`` and ``blob`` earlier versions
    wrote, are ignored."""
    manifest_path = os.path.join(directory, "manifest.json")
    manifest = json_object(read_json(manifest_path), manifest_path)
    version = manifest.get("schema_version")
    # JSON true and 1.0 compare equal to 1; only the integer itself is version 1.
    if type(version) is not int or version != CHECKPOINT_SCHEMA_VERSION:
        raise ValueError(f"unsupported checkpoint schema_version {version!r}")
    model_cfg = ModelConfig.from_dict(manifest["model_config"])
    with open(os.path.join(directory, "params.bin"), "rb") as fh:
        blob = fh.read()
    n = param_count(model_cfg)
    if len(blob) != 8 * n:
        raise ValueError(f"{directory}: the params.bin blob holds {len(blob)} bytes, "
                         f"but the model config has {n} float64 parameters")
    params = np.frombuffer(blob, dtype="<f8").astype(np.float64)
    if not np.isfinite(params).all():
        raise ValueError(f"{directory}: params.bin holds non-finite parameters")
    provenance = json_object(manifest.get("provenance", {}), f"{manifest_path} provenance")
    return Checkpoint(params, model_cfg, provenance)
