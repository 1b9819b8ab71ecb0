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
from .model import ModelConfig, loss_and_grad, per_sample_losses, strict_from_dict
from .trainer import Checkpoint, TrainConfig, sgd_train

RATIO_GUARD = 1e-12  # saliency denominator floor
LOSS_FLOOR = 1e-8  # adaptive-coefficient loss floor

METHODS = ("sfr_on", "ft", "ga", "rl", "salun", "joint")


@dataclass(frozen=True)
class UnlearnConfig:
    """Hyperparameters for one unlearning run.

    ``alpha`` is the slow/outer interpolation rate, ``beta_f``/``beta_r`` the
    inner forgetting/repair learning rates, ``t_in``/``t_out`` the inner and
    outer iteration counts, ``lambda_temp`` the coefficient temperature and
    ``gamma`` the saliency threshold. Baselines reuse the same fields:
    ``t_out`` counts their epochs (steps for ``joint``), ``beta_r`` is the
    descent lr (ft/rl/salun/joint) and ``beta_f`` the ascent lr (ga).
    ``alpha`` may be 0, which makes the fast-slow update the identity map.
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
    fisher_mode: str = "per_sample_mean"  # per_sample_mean | batch_square
    salun_top_k: float = 20.0  # percent of parameters kept by the salun mask

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected {METHODS}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0,1], got {self.alpha}")
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
        if self.fisher_mode not in ("per_sample_mean", "batch_square"):
            raise ValueError(f"unknown fisher_mode {self.fisher_mode!r}")
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
    mode: str,
) -> np.ndarray:
    if len(idx) == 0:
        raise ValueError("cannot estimate a Fisher diagonal from an empty set")
    if mode == "batch_square":
        _, g = loss_and_grad(theta, cfg, dataset.features[idx], dataset.labels[idx])
        return g * g
    acc = np.zeros_like(theta)
    for i in idx:
        _, g = loss_and_grad(
            theta, cfg, dataset.features[i : i + 1], dataset.labels[i : i + 1]
        )
        acc += g * g
    return acc / len(idx)


def fisher_diagonals(
    theta0: np.ndarray,
    cfg: ModelConfig,
    dataset: Dataset,
    split: ForgetSplit,
    mode: str = "per_sample_mean",
) -> FisherDiagonals:
    """Squared-gradient diagonals on the forget and remain sets at ``theta0``.

    ``per_sample_mean`` averages elementwise squared per-sample gradients (the
    Fisher-diagonal estimator); ``batch_square`` squares the full-set mean
    gradient instead, which cancels opposing per-sample gradients.
    """
    if mode not in ("per_sample_mean", "batch_square"):
        raise ValueError(f"unknown fisher mode {mode!r}")
    return FisherDiagonals(
        forget=_squared_grad_diag(theta0, cfg, dataset, split.forget_idx, mode),
        remain=_squared_grad_diag(theta0, cfg, dataset, split.remain_idx, mode),
    )


def saliency_mask(fd: FisherDiagonals, gamma: float) -> np.ndarray:
    """0/1 gate per parameter: 1 where forget/(remain + guard) >= gamma."""
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    ratio = fd.forget / (fd.remain + RATIO_GUARD)
    return (ratio >= gamma).astype(np.float64)


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
    size beta_f (fast), run t_in SGD repair steps of size beta_r on remaining
    batches, then move the slow weights: theta <- theta - alpha*(theta -
    repaired). The Fisher diagonals and mask are computed once at ``theta0``.
    """
    t0 = time.perf_counter()
    fd = fisher_diagonals(theta0, model_cfg, dataset, split, ucfg.fisher_mode)
    mask = saliency_mask(fd, ucfg.gamma)
    rng = np.random.default_rng(ucfg.seed)
    theta = np.asarray(theta0, dtype=np.float64).copy()
    fast_losses: list[float] = []
    for t in range(1, ucfg.t_out + 1):
        fbatch = _sample_batch(rng, split.forget_idx, ucfg.batch_f)
        fx, fy = dataset.features[fbatch], dataset.labels[fbatch]
        losses = per_sample_losses(theta, model_cfg, fx, fy)
        coeffs = adaptive_coefficients(losses, t - 1, ucfg.t_out, ucfg.lambda_temp)
        _, grad_f = loss_and_grad(theta, model_cfg, fx, fy, weights=coeffs)
        theta_fast = theta + ucfg.beta_f * (mask * grad_f)
        theta_rep = theta_fast
        for _ in range(ucfg.t_in):
            rbatch = _sample_batch(rng, split.remain_idx, ucfg.batch_r)
            _, grad_r = loss_and_grad(
                theta_rep, model_cfg, dataset.features[rbatch], dataset.labels[rbatch]
            )
            theta_rep = theta_rep - ucfg.beta_r * grad_r
        theta = theta - ucfg.alpha * (theta - theta_rep)
        if not np.all(np.isfinite(theta)):
            raise RuntimeError(f"non-finite parameters at outer step {t}")
        fast_losses.append(float(losses.mean()))
    wall = time.perf_counter() - t0
    provenance = {
        "role": "unlearned",
        "method": "sfr_on",
        "seeds": {"unlearn": ucfg.seed, "model": model_cfg.seed},
        "wall_seconds": wall,
        "unlearn_config": ucfg.to_dict(),
        "forget_batch_loss": fast_losses,
        "mask_kept_fraction": float(mask.mean()),
    }
    return Checkpoint(theta, model_cfg, provenance)


def ft_unlearn(
    theta0: np.ndarray,
    model_cfg: ModelConfig,
    dataset: Dataset,
    split: ForgetSplit,
    epochs: int,
    lr: float,
    batch_size: int,
    seed: int = 0,
    on_batch=None,
) -> Checkpoint:
    """Fine-tune on the remain set only; the forget set is never read."""
    if epochs == 0:
        ckpt = Checkpoint(np.asarray(theta0, dtype=np.float64).copy(), model_cfg)
    else:
        cfg = TrainConfig(lr=lr, epochs=epochs, batch_size=batch_size, seed=seed)
        ckpt = sgd_train(
            theta0, cfg, model_cfg, dataset, split.remain_idx, on_batch=on_batch
        )
    ckpt.provenance.update({"role": "unlearned", "method": "ft"})
    return ckpt


def ga_unlearn(
    theta0: np.ndarray,
    model_cfg: ModelConfig,
    dataset: Dataset,
    split: ForgetSplit,
    epochs: int,
    lr: float,
    batch_size: int,
    seed: int = 0,
) -> Checkpoint:
    """Gradient ascent on the forget set: theta <- theta + lr * grad per batch."""
    theta = np.asarray(theta0, dtype=np.float64).copy()
    rng = np.random.default_rng(seed)
    step = 0
    t0 = time.perf_counter()
    for _ in range(epochs):
        perm = rng.permutation(split.forget_idx)
        for start in range(0, len(perm), batch_size):
            batch = perm[start : start + batch_size]
            loss, grad = loss_and_grad(
                theta, model_cfg, dataset.features[batch], dataset.labels[batch]
            )
            if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
                raise RuntimeError(f"non-finite loss at ascent step {step}")
            theta += lr * grad
            step += 1
    wall = time.perf_counter() - t0
    provenance = {
        "role": "unlearned",
        "method": "ga",
        "seeds": {"unlearn": seed, "model": model_cfg.seed},
        "wall_seconds": wall,
        "steps": step,
    }
    return Checkpoint(theta, model_cfg, provenance)


def relabel_forget(
    dataset: Dataset, split: ForgetSplit, seed: int
) -> tuple[Dataset, np.ndarray]:
    """Replace forget-set labels with seeded random labels != the original."""
    if dataset.class_count < 2:
        raise ValueError("relabeling needs at least two classes")
    rng = np.random.default_rng(seed)
    new_labels = dataset.labels.copy()
    old = dataset.labels[split.forget_idx]
    offsets = rng.integers(1, dataset.class_count, size=len(old))
    new_labels[split.forget_idx] = (old + offsets) % dataset.class_count
    relabeled = Dataset(dataset.features, new_labels, dataset.class_count)
    return relabeled, new_labels[split.forget_idx]


def rl_unlearn(
    theta0: np.ndarray,
    model_cfg: ModelConfig,
    dataset: Dataset,
    split: ForgetSplit,
    epochs: int,
    lr: float,
    batch_size: int,
    seed: int = 0,
    grad_mask: np.ndarray | None = None,
) -> Checkpoint:
    """Relabel the forget set once, then fine-tune on forget + remain."""
    relabeled, _ = relabel_forget(dataset, split, seed)
    cfg = TrainConfig(lr=lr, epochs=epochs, batch_size=batch_size, seed=seed)
    ckpt = sgd_train(
        theta0, cfg, model_cfg, relabeled, split.train_idx, grad_mask=grad_mask
    )
    ckpt.provenance.update({"role": "unlearned", "method": "rl"})
    return ckpt


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
    epochs: int,
    lr: float,
    batch_size: int,
    seed: int = 0,
    top_k_percent: float = 20.0,
) -> Checkpoint:
    """Relabeling fine-tune restricted to the top-k% forget-salient weights."""
    mask = salun_mask(theta0, model_cfg, dataset, split, top_k_percent)
    ckpt = rl_unlearn(
        theta0, model_cfg, dataset, split, epochs, lr, batch_size, seed,
        grad_mask=mask,
    )
    ckpt.provenance.update(
        {"method": "salun", "mask_kept_fraction": float(mask.mean())}
    )
    return ckpt


def joint_unlearn(
    theta0: np.ndarray,
    model_cfg: ModelConfig,
    dataset: Dataset,
    split: ForgetSplit,
    steps: int,
    lr: float,
    batch_f: int,
    batch_r: int,
    seed: int = 0,
    remain_weight: float = 1.0,
) -> Checkpoint:
    """Single-loop ascent/descent: theta <- theta - lr*(-grad_f + grad_r).

    The one-step ablation of the fast-slow scheme; it lacks the curvature
    adjustment that the inner repair loop provides. ``remain_weight`` scales
    the remain-batch loss (0 reduces the update to pure gradient ascent).
    """
    theta = np.asarray(theta0, dtype=np.float64).copy()
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    for step in range(steps):
        fbatch = _sample_batch(rng, split.forget_idx, batch_f)
        rbatch = _sample_batch(rng, split.remain_idx, batch_r)
        _, grad_f = loss_and_grad(
            theta, model_cfg, dataset.features[fbatch], dataset.labels[fbatch]
        )
        weights = np.full(len(rbatch), remain_weight, dtype=np.float64)
        _, grad_r = loss_and_grad(
            theta, model_cfg, dataset.features[rbatch], dataset.labels[rbatch],
            weights=weights,
        )
        theta = theta - lr * (-grad_f + grad_r)
        if not np.all(np.isfinite(theta)):
            raise RuntimeError(f"non-finite parameters at joint step {step}")
    wall = time.perf_counter() - t0
    provenance = {
        "role": "unlearned",
        "method": "joint",
        "seeds": {"unlearn": seed, "model": model_cfg.seed},
        "wall_seconds": wall,
        "steps": steps,
    }
    return Checkpoint(theta, model_cfg, provenance)


def run_unlearning(
    theta0: np.ndarray,
    model_cfg: ModelConfig,
    dataset: Dataset,
    split: ForgetSplit,
    ucfg: UnlearnConfig,
) -> Checkpoint:
    """Dispatch a method by config; see ``UnlearnConfig`` for the field reuse."""
    if ucfg.method == "sfr_on":
        ckpt = sfr_on(theta0, model_cfg, dataset, split, ucfg)
    elif ucfg.method == "ft":
        ckpt = ft_unlearn(
            theta0, model_cfg, dataset, split,
            epochs=ucfg.t_out, lr=ucfg.beta_r, batch_size=ucfg.batch_r,
            seed=ucfg.seed,
        )
    elif ucfg.method == "ga":
        ckpt = ga_unlearn(
            theta0, model_cfg, dataset, split,
            epochs=ucfg.t_out, lr=ucfg.beta_f, batch_size=ucfg.batch_f,
            seed=ucfg.seed,
        )
    elif ucfg.method == "rl":
        ckpt = rl_unlearn(
            theta0, model_cfg, dataset, split,
            epochs=ucfg.t_out, lr=ucfg.beta_r, batch_size=ucfg.batch_r,
            seed=ucfg.seed,
        )
    elif ucfg.method == "salun":
        ckpt = salun_unlearn(
            theta0, model_cfg, dataset, split,
            epochs=ucfg.t_out, lr=ucfg.beta_r, batch_size=ucfg.batch_r,
            seed=ucfg.seed, top_k_percent=ucfg.salun_top_k,
        )
    else:
        ckpt = joint_unlearn(
            theta0, model_cfg, dataset, split,
            steps=ucfg.t_out, lr=ucfg.beta_r, batch_f=ucfg.batch_f,
            batch_r=ucfg.batch_r, seed=ucfg.seed,
        )
    ckpt.provenance.setdefault("unlearn_config", ucfg.to_dict())
    return ckpt
