"""Approximate machine unlearning for classifiers.

Library layout: the float64 loss and explicit backward chain of a relu MLP
with their finite-difference oracles, the MLP over a flat parameter vector,
dataset/split handling, SGD training with a retrain reference, the
unlearning methods themselves, retrain-relative evaluation metrics, and a
numerical verification suite for the descent identities the fast-slow
update relies on.
"""

__version__ = "0.1.0"

from .data import Dataset, ForgetSplit, generate_blobs
from .model import ModelConfig, init_params
from .trainer import Checkpoint, TrainConfig, retrain_oracle, sgd_train
from .unlearn import UnlearnConfig, run_unlearning, sfr_on
from .metrics import MetricsReport, full_report

__all__ = [
    "Dataset",
    "ForgetSplit",
    "generate_blobs",
    "ModelConfig",
    "init_params",
    "Checkpoint",
    "TrainConfig",
    "retrain_oracle",
    "sgd_train",
    "UnlearnConfig",
    "run_unlearning",
    "sfr_on",
    "MetricsReport",
    "full_report",
    "__version__",
]
