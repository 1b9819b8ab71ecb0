"""Unlearning algorithms: the saliency-masked fast-slow method and baselines.

The fast-slow method runs, per outer step, one saliency-masked weighted
gradient-ascent step on a forgetting batch (fast weights), a few SGD repair
steps on remaining batches, and then interpolates the outer (slow) weights
toward the repaired point. The inner repair implicitly preconditions the
forgetting direction with the inverse remain-set curvature; the verification
module checks that claim numerically.

Baselines: fine-tuning on the remain set (ft), gradient ascent on the forget
set (ga), random relabeling (rl), top-k gradient-saliency relabeling (salun),
and joint ascent/descent (joint).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset, ForgetSplit
from .autodiff import softmax_cross_entropy, squared_sample_grads
from .model import (
    ModelConfig,
    _forward,
    check_finite_floats,
    flatten,
    loss_and_grad,
    per_sample_losses,
    strict_from_dict,
    unflatten,
)
from .trainer import Checkpoint, TrainConfig, sgd_train

RATIO_GUARD = 1e-12  # saliency denominator floor
LOSS_FLOOR = 1e-8  # adaptive-coefficient loss floor
FISHER_BLOCK_ROWS = 1024  # rows per batched pass of the Fisher diagonal
MASK_MARGIN = 1e-6  # relative distance from gamma that mask_near_gamma counts

METHODS = ("sfr_on", "ft", "ga", "rl", "salun", "joint")


@dataclass(frozen=True)
class UnlearnConfig:
    """Hyperparameters for one unlearning run.

    ``alpha`` is the slow/outer interpolation rate, ``beta_f``/``beta_r`` the
    inner forgetting/repair learning rates, ``t_in``/``t_out`` the inner and
    outer iteration counts, ``lambda_temp`` the coefficient temperature and
    ``gamma`` the saliency threshold. Baselines reuse the same fields:
    ``t_out`` counts their epochs (steps for ``joint``), ``beta_r`` is the
    descent lr and ``batch_r`` the batch size (ft/rl/salun/joint), and
    ``beta_f`` the ascent lr and ``batch_f`` the batch size (ga, and joint's
    forget batch). ft, rl and salun therefore need ``beta_r > 0``. ``alpha``
    may be 0, which makes the fast-slow update the identity map.
    """

    method: str
    alpha: float = 1.0
    beta_f: float = 0.1
    beta_r: float = 0.01
    t_in: int = 5
    t_out: int = 100
    lambda_temp: float = 0.5
    gamma: float = 1.0
    batch_f: int = 32
    batch_r: int = 64
    seed: int = 0
    salun_top_k: float = 20.0  # percent of parameters kept by the salun mask

    def __post_init__(self):
        check_finite_floats(self)
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected {METHODS}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0,1], got {self.alpha}")
        if self.method in ("ft", "rl", "salun") and self.beta_r <= 0:
            raise ValueError(
                f"beta_r must be > 0 for {self.method}, whose SGD lr it is; got {self.beta_r}"
            )
        if self.beta_f < 0 or self.beta_r < 0:
            raise ValueError("inner learning rates must be >= 0")
        if self.t_in < 0:
            raise ValueError(f"t_in must be >= 0, got {self.t_in}")
        if self.t_out < 1:
            raise ValueError(f"t_out must be >= 1, got {self.t_out}")
        if self.lambda_temp < 0:
            raise ValueError(f"lambda_temp must be >= 0, got {self.lambda_temp}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.batch_f < 1 or self.batch_r < 1:
            raise ValueError("batch sizes must be >= 1")
        if not 0 < self.salun_top_k <= 100:
            raise ValueError(f"salun_top_k must be in (0,100], got {self.salun_top_k}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "UnlearnConfig":
        return strict_from_dict(cls, d, "unlearn config")


@dataclass
class FisherDiagonals:
    forget: np.ndarray
    remain: np.ndarray

    def __post_init__(self):
        self.forget = np.asarray(self.forget, dtype=np.float64)
        self.remain = np.asarray(self.remain, dtype=np.float64)
        if self.forget.shape != self.remain.shape:
            raise ValueError("forget/remain diagonals must have equal length")
        if (self.forget < 0).any() or (self.remain < 0).any():
            raise ValueError("Fisher diagonals must be nonnegative")


def _squared_grad_diag(
    theta: np.ndarray,
    cfg: ModelConfig,
    dataset: Dataset,
    idx: np.ndarray,
) -> np.ndarray:
    if len(idx) == 0:
        raise ValueError("cannot estimate a Fisher diagonal from an empty set")
    layers = unflatten(theta, cfg)
    acc = np.zeros_like(theta)
    for start in range(0, len(idx), FISHER_BLOCK_ROWS):
        rows = idx[start : start + FISHER_BLOCK_ROWS]
        inputs, logits = _forward(layers, dataset.features[rows])
        # A weight of n scales each row's error by w/n = 1, its batch-1 size;
        # rows in the clamp region still get zero error.
        n = len(rows)
        _, dz = softmax_cross_entropy(logits, dataset.labels[rows], np.full(n, float(n)))
        acc += flatten(squared_sample_grads(layers, inputs, dz))
    return acc / len(idx)


def fisher_diagonals(
    theta0: np.ndarray,
    cfg: ModelConfig,
    dataset: Dataset,
    split: ForgetSplit,
) -> FisherDiagonals:
    """Squared-gradient diagonals on the forget and remain sets at ``theta0``:
    the mean of elementwise squared per-sample gradients (the Fisher-diagonal
    estimator). Each set takes one forward and one backward pass per block
    of ``FISHER_BLOCK_ROWS`` rows, not one gradient call per row."""
    return FisherDiagonals(
        forget=_squared_grad_diag(theta0, cfg, dataset, split.forget_idx),
        remain=_squared_grad_diag(theta0, cfg, dataset, split.remain_idx),
    )


def _saliency_ratio(fd: FisherDiagonals) -> np.ndarray:
    return fd.forget / (fd.remain + RATIO_GUARD)


def saliency_mask(fd: FisherDiagonals, gamma: float) -> np.ndarray:
    """0/1 gate per parameter: 1 where forget/(remain + guard) >= gamma."""
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    return (_saliency_ratio(fd) >= gamma).astype(np.float64)


def mask_near_gamma(fd: FisherDiagonals, gamma: float) -> int:
    """How many parameters have a saliency ratio within ``MASK_MARGIN``
    (relative) of ``gamma``: the mask bits that rounding-level changes in the
    diagonals could flip."""
    return int((np.abs(_saliency_ratio(fd) - gamma) <= MASK_MARGIN * gamma).sum())


def adaptive_coefficients(
    losses: np.ndarray, t: int, big_t: int, lambda_temp: float
) -> np.ndarray:
    """Per-sample ascent weights that decay over steps and de-emphasize
    already-high-loss (already forgotten) samples.

    coef_i = (1 - t/T) * (1/l_i^lambda) / sum_j (1/l_j^lambda) * B, with the
    losses floored at ``LOSS_FLOOR`` and treated as constants. The weights
    always sum to (1 - t/T) * B.
    """
    losses = np.asarray(losses, dtype=np.float64)
    if (losses < 0).any():
        raise ValueError("losses must be nonnegative")
    if not 0 <= t <= big_t:
        raise ValueError(f"step {t} outside [0, {big_t}]")
    if lambda_temp < 0:
        raise ValueError(f"lambda_temp must be >= 0, got {lambda_temp}")
    floored = np.maximum(losses, LOSS_FLOOR)
    inv = floored ** (-lambda_temp)
    return (1.0 - t / big_t) * inv / inv.sum() * len(losses)


def _sample_batch(rng: np.random.Generator, idx: np.ndarray, size: int) -> np.ndarray:
    # With replacement only when the pool is smaller than the batch.
    if size >= len(idx):
        if size == len(idx):
            return idx
        return rng.choice(idx, size=size, replace=True)
    return rng.choice(idx, size=size, replace=False)


def repaired_point(theta: np.ndarray, cfg: ModelConfig, fx: np.ndarray, fy: np.ndarray,
                   coeffs: np.ndarray | None, mask: np.ndarray, beta_f: float,
                   beta_r: float, remain_batches) -> np.ndarray:
    """The fast-slow inner pass: from ``theta``, one ascent step of size
    ``beta_f`` on the ``mask``-gated, ``coeffs``-weighted gradient of the forget
    batch (``fx``, ``fy``), then one SGD step of size ``beta_r`` per ``(x, y)``
    that ``remain_batches`` yields. Returns the repaired point."""
    _, grad_f = loss_and_grad(theta, cfg, fx, fy, weights=coeffs)
    theta_rep = theta + beta_f * (mask * grad_f)
    for x, y in remain_batches:
        _, grad_r = loss_and_grad(theta_rep, cfg, x, y)
        theta_rep = theta_rep - beta_r * grad_r
    return theta_rep


def sfr_on(
    theta0: np.ndarray,
    model_cfg: ModelConfig,
    dataset: Dataset,
    split: ForgetSplit,
    ucfg: UnlearnConfig,
) -> Checkpoint:
    """Saliency-masked fast-slow unlearning.

    Per outer step t in 1..t_out: sample a forgetting batch, weight it with
    ``adaptive_coefficients`` at (t-1, t_out), take one masked ascent step of
    size beta_f (fast) and t_in SGD repair steps of size beta_r on remaining
    batches (``repaired_point``), then move the slow weights: theta <- theta -
    alpha*(theta - repaired). The Fisher diagonals and mask are computed once
    at ``theta0``.
    """
    fd = fisher_diagonals(theta0, model_cfg, dataset, split)
    mask = saliency_mask(fd, ucfg.gamma)
    rng = np.random.default_rng(ucfg.seed)
    theta = np.asarray(theta0, dtype=np.float64).copy()
    fast_losses: list[float] = []
    for t in range(1, ucfg.t_out + 1):
        fbatch = _sample_batch(rng, split.forget_idx, ucfg.batch_f)
        fx, fy = dataset.features[fbatch], dataset.labels[fbatch]
        losses = per_sample_losses(theta, model_cfg, fx, fy)
        coeffs = adaptive_coefficients(losses, t - 1, ucfg.t_out, ucfg.lambda_temp)
        rbatches = (_sample_batch(rng, split.remain_idx, ucfg.batch_r)
                    for _ in range(ucfg.t_in))
        theta_rep = repaired_point(
            theta, model_cfg, fx, fy, coeffs, mask, ucfg.beta_f, ucfg.beta_r,
            ((dataset.features[b], dataset.labels[b]) for b in rbatches),
        )
        theta = theta - ucfg.alpha * (theta - theta_rep)
        if not np.all(np.isfinite(theta)):
            raise RuntimeError(f"non-finite parameters at outer step {t}")
        fast_losses.append(float(losses.mean()))
    provenance = {
        "forget_batch_loss": fast_losses,
        "mask_kept_fraction": float(mask.mean()),
        "mask_near_gamma": mask_near_gamma(fd, ucfg.gamma),
    }
    return Checkpoint(theta, model_cfg, provenance)


def _train_config(ucfg: UnlearnConfig) -> TrainConfig:
    """The SGD run of ft, rl and salun: ``t_out`` epochs at lr ``beta_r``
    over batches of ``batch_r``."""
    return TrainConfig(
        lr=ucfg.beta_r, epochs=ucfg.t_out, batch_size=ucfg.batch_r, seed=ucfg.seed
    )


def ft_unlearn(
    theta0: np.ndarray,
    model_cfg: ModelConfig,
    dataset: Dataset,
    split: ForgetSplit,
    ucfg: UnlearnConfig,
    on_batch=None,
) -> Checkpoint:
    """Fine-tune on the remain set only; the forget set is never read."""
    return sgd_train(
        theta0, _train_config(ucfg), model_cfg, dataset, split.remain_idx,
        on_batch=on_batch,
    )


def ga_unlearn(
    theta0: np.ndarray,
    model_cfg: ModelConfig,
    dataset: Dataset,
    split: ForgetSplit,
    ucfg: UnlearnConfig,
) -> Checkpoint:
    """Gradient ascent on the forget set: theta <- theta + beta_f * grad per
    batch of ``batch_f``, for ``t_out`` epochs."""
    theta = np.asarray(theta0, dtype=np.float64).copy()
    rng = np.random.default_rng(ucfg.seed)
    step = 0
    for _ in range(ucfg.t_out):
        perm = rng.permutation(split.forget_idx)
        for start in range(0, len(perm), ucfg.batch_f):
            batch = perm[start : start + ucfg.batch_f]
            loss, grad = loss_and_grad(
                theta, model_cfg, dataset.features[batch], dataset.labels[batch]
            )
            if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
                raise RuntimeError(f"non-finite loss at ascent step {step}")
            theta += ucfg.beta_f * grad
            step += 1
    return Checkpoint(theta, model_cfg, {"steps": step})


def relabel_forget(dataset: Dataset, split: ForgetSplit, seed: int) -> Dataset:
    """Replace forget-set labels with seeded random labels != the original."""
    if dataset.class_count < 2:
        raise ValueError("relabeling needs at least two classes")
    rng = np.random.default_rng(seed)
    new_labels = dataset.labels.copy()
    old = dataset.labels[split.forget_idx]
    offsets = rng.integers(1, dataset.class_count, size=len(old))
    new_labels[split.forget_idx] = (old + offsets) % dataset.class_count
    return Dataset(dataset.features, new_labels, dataset.class_count)


def rl_unlearn(
    theta0: np.ndarray,
    model_cfg: ModelConfig,
    dataset: Dataset,
    split: ForgetSplit,
    ucfg: UnlearnConfig,
    grad_mask: np.ndarray | None = None,
) -> Checkpoint:
    """Relabel the forget set once, then fine-tune on forget + remain."""
    relabeled = relabel_forget(dataset, split, ucfg.seed)
    return sgd_train(
        theta0, _train_config(ucfg), model_cfg, relabeled, split.train_idx,
        grad_mask=grad_mask,
    )


def salun_mask(
    theta0: np.ndarray,
    model_cfg: ModelConfig,
    dataset: Dataset,
    split: ForgetSplit,
    top_k_percent: float,
) -> np.ndarray:
    """Top-k% parameters by |forget-set mean gradient| at ``theta0``."""
    if not 0 < top_k_percent <= 100:
        raise ValueError(f"top_k_percent must be in (0,100], got {top_k_percent}")
    _, g = loss_and_grad(
        theta0,
        model_cfg,
        dataset.features[split.forget_idx],
        dataset.labels[split.forget_idx],
    )
    magnitude = np.abs(g)
    threshold = np.percentile(magnitude, 100.0 - top_k_percent)
    return (magnitude >= threshold).astype(np.float64)


def salun_unlearn(
    theta0: np.ndarray,
    model_cfg: ModelConfig,
    dataset: Dataset,
    split: ForgetSplit,
    ucfg: UnlearnConfig,
) -> Checkpoint:
    """Relabeling fine-tune restricted to the top ``salun_top_k``% of
    forget-salient weights."""
    mask = salun_mask(theta0, model_cfg, dataset, split, ucfg.salun_top_k)
    ckpt = rl_unlearn(theta0, model_cfg, dataset, split, ucfg, grad_mask=mask)
    ckpt.provenance["mask_kept_fraction"] = float(mask.mean())
    return ckpt


def joint_unlearn(
    theta0: np.ndarray,
    model_cfg: ModelConfig,
    dataset: Dataset,
    split: ForgetSplit,
    ucfg: UnlearnConfig,
) -> Checkpoint:
    """Single-loop ascent/descent for ``t_out`` steps:
    theta <- theta - beta_r*(-grad_f + grad_r).

    The one-step ablation of the fast-slow scheme; it lacks the curvature
    adjustment that the inner repair loop provides.
    """
    theta = np.asarray(theta0, dtype=np.float64).copy()
    rng = np.random.default_rng(ucfg.seed)
    for step in range(ucfg.t_out):
        fbatch = _sample_batch(rng, split.forget_idx, ucfg.batch_f)
        rbatch = _sample_batch(rng, split.remain_idx, ucfg.batch_r)
        _, grad_f = loss_and_grad(
            theta, model_cfg, dataset.features[fbatch], dataset.labels[fbatch]
        )
        _, grad_r = loss_and_grad(
            theta, model_cfg, dataset.features[rbatch], dataset.labels[rbatch]
        )
        theta = theta - ucfg.beta_r * (-grad_f + grad_r)
        if not np.all(np.isfinite(theta)):
            raise RuntimeError(f"non-finite parameters at joint step {step}")
    return Checkpoint(theta, model_cfg, {"steps": ucfg.t_out})


def run_unlearning(
    theta0: np.ndarray,
    model_cfg: ModelConfig,
    dataset: Dataset,
    split: ForgetSplit,
    ucfg: UnlearnConfig,
) -> Checkpoint:
    """Run ``ucfg.method`` and stamp its checkpoint's provenance: ``role``,
    ``method``, ``unlearn_config``, the seeds (unless the method recorded
    its own) and ``wall_seconds`` around the whole call, which reports show
    as the run-time efficiency (RTE)."""
    # Looked up on every call: perfbench's tracer replaces module attributes,
    # which a table built at import time would not see.
    run = {
        "sfr_on": sfr_on,
        "ft": ft_unlearn,
        "ga": ga_unlearn,
        "rl": rl_unlearn,
        "salun": salun_unlearn,
        "joint": joint_unlearn,
    }[ucfg.method]
    t0 = time.perf_counter()
    ckpt = run(theta0, model_cfg, dataset, split, ucfg)
    ckpt.provenance.update(
        wall_seconds=time.perf_counter() - t0,
        role="unlearned",
        method=ucfg.method,
        unlearn_config=ucfg.to_dict(),
    )
    ckpt.provenance.setdefault("seeds", {"unlearn": ucfg.seed, "model": model_cfg.seed})
    return ckpt
