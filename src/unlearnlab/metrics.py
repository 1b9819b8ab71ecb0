"""Evaluation metrics against a retrain reference.

Reported per checkpoint: accuracy on the forget (FA), remain (RA) and test
(TA) sets, an entropy-feature membership-inference success rate (MIA), the
empirical output KL divergence to the reference, the average metric disparity
in percentage points, and run-time seconds. Natural logs throughout.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .autodiff import log_clamped, softmax
from .data import Dataset, ForgetSplit
from .model import (
    ModelConfig,
    argmax_labels,
    forward_logits,
    predict_labels,
    strict_from_dict,
)
from .trainer import Checkpoint

# The attack classifier is pinned for determinism: single standardized
# entropy feature, zero init, 500 full-batch gradient steps at lr 0.1.
MIA_GD_STEPS = 500
MIA_GD_LR = 0.1


@dataclass
class MetricsReport:
    fa: float
    ra: float
    ta: float
    mia: float
    kl_to_ref: float
    avg_d: float
    rte_seconds: float
    gaps: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, d: dict) -> "MetricsReport":
        return strict_from_dict(cls, d, "report")

    def markdown_row(self) -> str:
        """Seven cells: FA/RA/TA/MIA with gaps in parentheses, Avg.D, KL, RTE."""
        cells = [
            f"{100 * self.fa:.2f} ({self.gaps.get('fa', 0.0):.2f})",
            f"{100 * self.ra:.2f} ({self.gaps.get('ra', 0.0):.2f})",
            f"{100 * self.ta:.2f} ({self.gaps.get('ta', 0.0):.2f})",
            f"{100 * self.mia:.2f} ({self.gaps.get('mia', 0.0):.2f})",
            f"{self.avg_d:.2f}",
            f"{self.kl_to_ref:.4f}",
            f"{self.rte_seconds:.2f}",
        ]
        return "| " + " | ".join(cells) + " |"


MARKDOWN_HEADER = (
    "| FA | RA | TA | MIA | Avg.D | D_KL | RTE(s) |\n"
    "|---|---|---|---|---|---|---|"
)


def accuracy(
    theta: np.ndarray, cfg: ModelConfig, dataset: Dataset, indices: np.ndarray
) -> float:
    indices = np.asarray(indices, dtype=np.int64)
    if len(indices) == 0:
        raise ValueError("accuracy over an empty index set is undefined")
    preds = predict_labels(theta, cfg, dataset.features[indices])
    return float(np.mean(preds == dataset.labels[indices]))


def _entropy(probs: np.ndarray) -> np.ndarray:
    return -np.sum(probs * log_clamped(probs), axis=1)


def prediction_entropy(theta: np.ndarray, cfg: ModelConfig, x: np.ndarray) -> np.ndarray:
    """Label-agnostic entropy H_i = -sum_c p_ic ln p_ic, clamped at ``PROB_CLAMP``."""
    return _entropy(softmax(forward_logits(theta, cfg, x)))


def entropy_attack(
    member_entropy: np.ndarray,
    nonmember_entropy: np.ndarray,
    target_entropy: np.ndarray,
) -> tuple[float, bool]:
    """Fit the pinned logistic attacker and score the target set.

    Members (remain-set entropies) are labeled 1, non-members (test-set
    entropies) 0; the returned rate is the fraction of targets scored >= 0.5.
    A zero-variance feature falls back to the majority label; the second
    return value flags that case.
    """
    h_train = np.concatenate([member_entropy, nonmember_entropy]).astype(np.float64)
    y = np.concatenate(
        [np.ones(len(member_entropy)), np.zeros(len(nonmember_entropy))]
    )
    mu = h_train.mean()
    sigma = h_train.std()
    if sigma == 0.0:
        majority = 1.0 if len(member_entropy) >= len(nonmember_entropy) else 0.0
        return majority, True
    z = (h_train - mu) / sigma
    w = 0.0
    b = 0.0
    for _ in range(MIA_GD_STEPS):
        p = 1.0 / (1.0 + np.exp(-(w * z + b)))
        err = p - y
        w -= MIA_GD_LR * float(np.mean(err * z))
        b -= MIA_GD_LR * float(np.mean(err))
    z_target = (np.asarray(target_entropy, dtype=np.float64) - mu) / sigma
    scores = w * z_target + b
    return float(np.mean(scores >= 0.0)), False


def empirical_kl(
    ckpt_u: Checkpoint, ckpt_ref: Checkpoint, dataset: Dataset, split: ForgetSplit
) -> float:
    """Mean over remain + forget samples of sum_c p_ref ln(p_ref / p_u)."""
    _check_same_config(ckpt_u, ckpt_ref)
    x = dataset.features[np.concatenate([split.remain_idx, split.forget_idx])]
    p_ref = softmax(forward_logits(ckpt_ref.params, ckpt_ref.model_config, x))
    p_u = softmax(forward_logits(ckpt_u.params, ckpt_u.model_config, x))
    return _mean_kl(p_ref, p_u)


def _mean_kl(p_ref: np.ndarray, p_u: np.ndarray) -> float:
    """Mean over rows of sum_c p_ref ln(p_ref / p_u), both clamped in the log."""
    return float(np.mean(np.sum(p_ref * (log_clamped(p_ref) - log_clamped(p_u)), axis=1)))


def avg_disparity(report_u: MetricsReport, report_ref: MetricsReport) -> float:
    """Mean absolute gap over FA/RA/TA/MIA, in percentage points."""
    gaps = [
        abs(report_u.fa - report_ref.fa),
        abs(report_u.ra - report_ref.ra),
        abs(report_u.ta - report_ref.ta),
        abs(report_u.mia - report_ref.mia),
    ]
    return 100.0 * float(np.mean(gaps))


def _check_same_config(ckpt_u: Checkpoint, ckpt_ref: Checkpoint) -> None:
    if ckpt_u.model_config != ckpt_ref.model_config:
        raise ValueError("checkpoints use different model configs")


def _evaluate(ckpt: Checkpoint, dataset: Dataset, split: ForgetSplit):
    """One forward pass per subset: FA/RA/TA, the attack's rate and fallback
    flag, and the remain + forget softmax outputs that the KL reads."""
    acc, probs = {}, {}
    for key, name, idx in (("fa", "forget", split.forget_idx),
                           ("ra", "remain", split.remain_idx),
                           ("ta", "test", split.test_idx)):
        if len(idx) == 0:
            raise ValueError(f"{name} set must be nonempty for the report")
        logits = forward_logits(ckpt.params, ckpt.model_config, dataset.features[idx])
        acc[key] = float(np.mean(argmax_labels(logits) == dataset.labels[idx]))
        probs[name] = softmax(logits)
    mia, fallback = entropy_attack(
        _entropy(probs["remain"]), _entropy(probs["test"]), _entropy(probs["forget"])
    )
    return acc, mia, fallback, np.concatenate([probs["remain"], probs["forget"]])


def full_report(
    ckpt_u: Checkpoint,
    ckpt_ref: Checkpoint,
    dataset: Dataset,
    split: ForgetSplit,
    rte_seconds: float = 0.0,
) -> MetricsReport:
    """Compose all metrics for one unlearned checkpoint vs. its reference.

    Each checkpoint runs one forward pass per subset; accuracies, entropies
    and the KL (over remain + forget, as in ``empirical_kl``) all read them.
    """
    _check_same_config(ckpt_u, ckpt_ref)
    acc, mia, fb_u, p_u = _evaluate(ckpt_u, dataset, split)
    ref, mia_r, fb_r, p_ref = _evaluate(ckpt_ref, dataset, split)
    gaps = {key: 100.0 * abs(acc[key] - ref[key]) for key in acc}
    gaps["mia"] = 100.0 * abs(mia - mia_r)
    provenance = {
        "method": ckpt_u.provenance.get("method"),
        "seeds": ckpt_u.provenance.get("seeds", {}),
        "reference": {**ref, "mia": mia_r, "role": ckpt_ref.provenance.get("role")},
        "mia_fallback": {"model": fb_u, "reference": fb_r},
    }
    return MetricsReport(
        **acc,
        mia=mia,
        kl_to_ref=_mean_kl(p_ref, p_u),
        avg_d=float(np.mean(list(gaps.values()))),
        rte_seconds=rte_seconds,
        gaps=gaps,
        provenance=provenance,
    )
