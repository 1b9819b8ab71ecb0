"""Evaluation metrics against a retrain reference.

Reported per checkpoint: accuracy on the forget (FA), remain (RA) and test
(TA) sets, an entropy-feature membership-inference success rate (MIA), the
empirical output KL divergence to the reference, the average metric disparity
in percentage points, and run-time seconds. Natural logs throughout.
"""

from __future__ import annotations

import hashlib
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
# A constant pool's std() is rounding noise, not always 0.0: its mean can sit
# a few ulps off the value. A pooled spread of at most this many machine
# epsilons of the largest |entropy| counts as zero variance.
MIA_ZERO_SPREAD_EPS = 64


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
    """Label-agnostic entropy H_i = -sum_c p_ic ln p_ic, clamped at ``PROB_CLAMP``."""
    return -np.sum(probs * log_clamped(probs), axis=1)


def _entropy_pool(values, name: str) -> np.ndarray:
    pool = np.asarray(values, dtype=np.float64)
    if pool.size == 0:
        raise ValueError(f"entropy attack: {name} entropies must be nonempty")
    if not np.isfinite(pool).all():
        raise ValueError(f"entropy attack: {name} entropies must be finite")
    return pool


def _fit_attacker(z: np.ndarray, members: int) -> tuple[float, float]:
    """The pinned gradient descent on the mean logistic loss of ``z``, whose
    first ``members`` entries are labeled 1 and the rest 0; returns (w, b).

    Both gradient sums come from one ``(2, n) @ (n,)`` product of the
    stacked ``[z; 1]`` with the sigmoid buffer; the label terms (the sum of
    ``z`` over members, and their count) are fixed, so they are summed once.
    """
    n = len(z)
    design = np.empty((2, n))
    design[0] = z
    design[1] = 1.0
    label_z = float(np.sum(z[:members]))
    p = np.empty(n)
    w = 0.0
    b = 0.0
    for _ in range(MIA_GD_STEPS):
        # p = 1 / (1 + exp(-(w * z + b))) in place; IEEE rounding is
        # symmetric in sign, so (-w) * z - b is -(w * z + b) bit for bit.
        np.multiply(z, -w, out=p)
        np.subtract(p, b, out=p)
        np.exp(p, out=p)
        np.add(p, 1.0, out=p)
        np.divide(1.0, p, out=p)
        sum_pz, sum_p = (design @ p).tolist()
        w -= MIA_GD_LR * (sum_pz - label_z) / n
        b -= MIA_GD_LR * (sum_p - members) / n
    return w, b


def entropy_attack(
    member_entropy: np.ndarray,
    nonmember_entropy: np.ndarray,
    target_entropy: np.ndarray,
) -> tuple[float, bool]:
    """Fit the pinned logistic attacker and score the target set.

    Members (remain-set entropies) are labeled 1, non-members (test-set
    entropies) 0; the returned rate is the fraction of targets scored >= 0.5.
    A zero-variance feature (a spread at rounding level, see
    ``MIA_ZERO_SPREAD_EPS``) falls back to the majority label; the second
    return value flags that case. Each of the three inputs must be nonempty
    and finite, or ``ValueError`` names it.
    """
    member = _entropy_pool(member_entropy, "member")
    nonmember = _entropy_pool(nonmember_entropy, "non-member")
    target = _entropy_pool(target_entropy, "target")
    h_train = np.concatenate([member, nonmember])
    mu = h_train.mean()
    sigma = h_train.std()
    if sigma <= MIA_ZERO_SPREAD_EPS * np.finfo(np.float64).eps * np.abs(h_train).max():
        majority = 1.0 if len(member) >= len(nonmember) else 0.0
        return majority, True
    w, b = _fit_attacker((h_train - mu) / sigma, len(member))
    scores = w * ((target - mu) / sigma) + b
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
    """One checkpoint's side of a report, from one forward pass per subset.

    Returns ``(acc, mia, fallback, probs)``: the FA/RA/TA accuracies keyed
    ``fa``/``ra``/``ta``, the attack's rate and fallback flag, and the
    remain + forget softmax outputs that the KL reads.
    """
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


# The reference side of the last report, as {key: (acc, mia, fallback, probs)}.
# The six reports of one forget request share a reference, so one entry is
# enough; a report against another reference replaces it.
_reference_memo: dict = {}


def _reference_key(ckpt: Checkpoint, dataset: Dataset, split: ForgetSplit) -> str:
    """SHA-256 over everything ``_evaluate`` reads. Arrays are hashed by
    content on every call, with dtype and shape, because ``Dataset`` and
    ``Checkpoint`` arrays can be changed in place."""
    digest = hashlib.sha256(json.dumps(ckpt.model_config.to_dict(), sort_keys=True).encode())
    for array in (ckpt.params, dataset.features, dataset.labels,
                  split.forget_idx, split.remain_idx, split.test_idx):
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array)
    return digest.hexdigest()


def _evaluate_reference(ckpt: Checkpoint, dataset: Dataset, split: ForgetSplit):
    """``_evaluate`` of a retrain reference, computed once per distinct
    (reference, dataset, split) content and reused while it stays the last.
    Callers get their own ``acc`` dict and read-only probabilities."""
    key = _reference_key(ckpt, dataset, split)
    entry = _reference_memo.get(key)
    if entry is None:
        entry = _evaluate(ckpt, dataset, split)
        entry[3].flags.writeable = False
        _reference_memo.clear()
        _reference_memo[key] = entry
    acc, mia, fallback, probs = entry
    return dict(acc), mia, fallback, probs


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
    The reference's side is reused from the previous report when the
    reference, dataset and split are byte-identical to its.
    """
    _check_same_config(ckpt_u, ckpt_ref)
    acc, mia, fb_u, p_u = _evaluate(ckpt_u, dataset, split)
    ref, mia_r, fb_r, p_ref = _evaluate_reference(ckpt_ref, dataset, split)
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
