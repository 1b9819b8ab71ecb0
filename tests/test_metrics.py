"""Retrain-relative metrics: accuracies, entropy attack, KL, disparity."""

import json

import numpy as np
import pytest

from unlearnlab import metrics
from unlearnlab.data import Dataset, ForgetSplit, generate_blobs, make_random_subset_split
from unlearnlab.metrics import (
    MetricsReport,
    accuracy,
    avg_disparity,
    empirical_kl,
    entropy_attack,
    full_report,
    prediction_entropy,
)
from unlearnlab.model import ModelConfig, flatten, init_params, param_count
from unlearnlab.trainer import Checkpoint


def _identity_checkpoint(scale: float, classes: int = 4) -> Checkpoint:
    cfg = ModelConfig(layer_sizes=(classes, classes))
    return Checkpoint(flatten([(scale * np.eye(classes), np.zeros(classes))]), cfg)


class TestAccuracy:
    def _setup(self):
        # Identity model: prediction equals argmax of the features.
        ckpt = _identity_checkpoint(1.0, classes=3)
        feats = np.eye(3)[[0, 1, 2, 1]]
        return ckpt, Dataset(feats, np.array([0, 1, 2, 1]), 3)

    def test_perfect(self):
        ckpt, d = self._setup()
        assert accuracy(ckpt.params, ckpt.model_config, d, np.arange(4)) == 1.0

    def test_anti_perfect(self):
        ckpt, _ = self._setup()
        feats = np.eye(3)[[0, 1, 2]]
        d = Dataset(feats, np.array([1, 2, 0]), 3)
        assert accuracy(ckpt.params, ckpt.model_config, d, np.arange(3)) == 0.0

    def test_empty_rejected(self):
        ckpt, d = self._setup()
        with pytest.raises(ValueError):
            accuracy(ckpt.params, ckpt.model_config, d, np.array([], dtype=int))

    def test_random_two_class_near_half(self):
        # Zero model gives uniform logits; argmax ties break to class 0, so
        # compare against balanced random labels: expect ~0.5 over 10k rows.
        rng = np.random.default_rng(0)
        cfg = ModelConfig(layer_sizes=(2, 2))
        d = Dataset(rng.standard_normal((10_000, 2)), rng.integers(0, 2, 10_000), 2)
        ckpt = Checkpoint(flatten([(np.eye(2), np.zeros(2))]), cfg)
        acc = accuracy(ckpt.params, cfg, d, np.arange(10_000))
        assert abs(acc - 0.5) < 0.02


class TestPredictionEntropy:
    def test_uniform(self):
        ckpt = _identity_checkpoint(0.0)
        h = prediction_entropy(ckpt.params, ckpt.model_config, np.ones((2, 4)))
        assert h == pytest.approx([np.log(4)] * 2, abs=1e-12)

    def test_one_hot_limit(self):
        ckpt = _identity_checkpoint(100.0)
        h = prediction_entropy(ckpt.params, ckpt.model_config, np.eye(4))
        assert np.abs(h).max() <= 1e-10

    def test_bounds(self):
        rng = np.random.default_rng(1)
        cfg = ModelConfig(layer_sizes=(3, 5, 6), seed=2)
        theta = init_params(cfg) + rng.standard_normal(param_count(cfg))
        h = prediction_entropy(theta, cfg, rng.standard_normal((50, 3)))
        assert (h >= 0).all() and (h <= np.log(6) + 1e-12).all()


class TestEntropyAttack:
    def test_forget_matching_members_scores_high(self):
        rng = np.random.default_rng(2)
        member = rng.normal(0.1, 0.02, 400)
        nonmember = rng.normal(1.2, 0.02, 400)
        rate, fallback = entropy_attack(member, nonmember, rng.normal(0.1, 0.02, 200))
        assert not fallback
        assert rate >= 0.99

    def test_forget_matching_nonmembers_scores_low(self):
        rng = np.random.default_rng(3)
        member = rng.normal(0.1, 0.02, 400)
        nonmember = rng.normal(1.2, 0.02, 400)
        rate, _ = entropy_attack(member, nonmember, rng.normal(1.2, 0.02, 200))
        assert rate <= 0.01

    def test_rate_bounded(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            rate, _ = entropy_attack(
                rng.uniform(0, 2, 50), rng.uniform(0, 2, 60), rng.uniform(0, 2, 40)
            )
            assert 0.0 <= rate <= 1.0

    def test_zero_variance_falls_back_to_majority(self):
        rate, fallback = entropy_attack(np.full(10, 0.5), np.full(4, 0.5), np.full(7, 0.5))
        assert fallback and rate == 1.0
        rate, fallback = entropy_attack(np.full(3, 0.5), np.full(9, 0.5), np.full(7, 0.5))
        assert fallback and rate == 0.0

    def test_monotone_under_entropy_shifts(self):
        # Lowering every forget entropy below the member mean cannot reduce
        # the attack's true-positive rate.
        rng = np.random.default_rng(5)
        member = rng.normal(0.3, 0.1, 500)
        nonmember = rng.normal(1.0, 0.1, 500)
        target = rng.normal(0.65, 0.3, 300)
        base_rate, _ = entropy_attack(member, nonmember, target)
        lowered = np.minimum(target, member.mean() - 0.05)
        low_rate, _ = entropy_attack(member, nonmember, lowered)
        assert low_rate >= base_rate


class TestEmpiricalKl:
    def _blob_split(self):
        dataset = generate_blobs(seed=52, n_per_class=30, class_count=4, dim=4, spread=1.0)
        split = make_random_subset_split(dataset, fraction=0.25, test_fraction=0.1, seed=1)
        return dataset, split

    def test_self_kl_is_zero(self):
        dataset, split = self._blob_split()
        cfg = ModelConfig(layer_sizes=(4, 6, 4), seed=1)
        ckpt = Checkpoint(init_params(cfg), cfg)
        assert abs(empirical_kl(ckpt, ckpt, dataset, split)) <= 1e-12

    def test_one_hot_reference_vs_uniform_model(self):
        # Reference saturates to one-hot on one-hot features, the evaluated
        # model is uniform: the divergence is ln(4) per sample.
        ref = _identity_checkpoint(50.0)
        uni = _identity_checkpoint(0.0)
        feats = np.eye(4)[[0, 1, 2, 3, 0, 1]]
        dataset = Dataset(feats, np.array([0, 1, 2, 3, 0, 1]), 4)
        split = make_random_subset_split(dataset, fraction=0.5, test_fraction=0.0, seed=0)
        kl = empirical_kl(uni, ref, dataset, split)
        assert kl == pytest.approx(np.log(4), abs=1e-9)

    def test_nonnegative_over_random_pairs(self):
        dataset, split = self._blob_split()
        for seed in range(10):
            cfg = ModelConfig(layer_sizes=(4, 6, 4), seed=seed)
            a = Checkpoint(init_params(cfg), cfg)
            b = Checkpoint(
                init_params(ModelConfig(layer_sizes=(4, 6, 4), seed=seed + 100)), cfg
            )
            assert empirical_kl(a, b, dataset, split) >= -1e-9

    def test_config_mismatch_rejected(self):
        dataset, split = self._blob_split()
        a = Checkpoint(init_params(ModelConfig(layer_sizes=(4, 6, 4), seed=0)),
                       ModelConfig(layer_sizes=(4, 6, 4), seed=0))
        b = Checkpoint(init_params(ModelConfig(layer_sizes=(4, 4), seed=0)),
                       ModelConfig(layer_sizes=(4, 4), seed=0))
        with pytest.raises(ValueError, match="config"):
            empirical_kl(a, b, dataset, split)


def _report_from_fractions(fa, ra, ta, mia):
    return MetricsReport(fa=fa, ra=ra, ta=ta, mia=mia, kl_to_ref=0.0, avg_d=0.0,
                         rte_seconds=0.0)


class TestAvgDisparity:
    def test_published_fine_tuning_row(self):
        ref = _report_from_fractions(0.0, 0.0, 0.0, 0.0)
        u = _report_from_fractions(0.0428, 0.0001, 0.0039, 0.1342)
        assert avg_disparity(u, ref) == pytest.approx(4.525, abs=0.01)

    def test_published_fast_slow_row(self):
        ref = _report_from_fractions(0.0, 0.0, 0.0, 0.0)
        u = _report_from_fractions(0.0096, 0.0012, 0.0115, 0.0258)
        assert avg_disparity(u, ref) == pytest.approx(1.2025, abs=0.01)

    def test_identical_reports_zero(self):
        r = _report_from_fractions(0.9, 0.8, 0.7, 0.6)
        assert avg_disparity(r, r) == 0.0

    def test_symmetric(self):
        a = _report_from_fractions(0.9, 0.8, 0.7, 0.6)
        b = _report_from_fractions(0.5, 0.9, 0.6, 0.9)
        assert avg_disparity(a, b) == avg_disparity(b, a)

    def test_zero_iff_all_gaps_zero(self):
        a = _report_from_fractions(0.9, 0.8, 0.7, 0.6)
        b = _report_from_fractions(0.9, 0.8, 0.7, 0.6001)
        assert avg_disparity(a, b) > 0.0


class TestFullReport:
    def _inputs(self):
        dataset = generate_blobs(seed=53, n_per_class=40, class_count=3, dim=4, spread=0.8)
        split = make_random_subset_split(dataset, fraction=0.2, test_fraction=0.2, seed=2)
        cfg = ModelConfig(layer_sizes=(4, 6, 3), seed=4)
        ckpt = Checkpoint(init_params(cfg), cfg, {"role": "retrain"})
        return ckpt, dataset, split

    def test_reference_against_itself(self):
        ckpt, dataset, split = self._inputs()
        report = full_report(ckpt, ckpt, dataset, split)
        assert report.avg_d == 0.0
        assert all(v == 0.0 for v in report.gaps.values())
        assert abs(report.kl_to_ref) <= 1e-12

    def test_json_roundtrip(self):
        ckpt, dataset, split = self._inputs()
        report = full_report(ckpt, ckpt, dataset, split, rte_seconds=1.25)
        restored = MetricsReport.from_dict(json.loads(report.to_json()))
        assert restored.to_dict() == report.to_dict()

    def test_mia_rate_on_untrained_model(self):
        # End to end through the entropy attack: the rate is a fraction, and
        # it is exactly what the attack scores on the per-subset entropies.
        dataset = generate_blobs(seed=51, n_per_class=60, class_count=3, dim=4, spread=0.7)
        split = make_random_subset_split(dataset, fraction=0.2, test_fraction=0.2, seed=0)
        cfg = ModelConfig(layer_sizes=(4, 8, 3), seed=3)
        ckpt = Checkpoint(init_params(cfg), cfg)
        report = full_report(ckpt, ckpt, dataset, split)
        assert 0.0 <= report.mia <= 1.0
        h = {name: prediction_entropy(ckpt.params, cfg, dataset.features[idx])
             for name, idx in (("remain", split.remain_idx), ("test", split.test_idx),
                               ("forget", split.forget_idx))}
        rate, fallback = entropy_attack(h["remain"], h["test"], h["forget"])
        assert report.mia == rate
        assert report.provenance["mia_fallback"] == {"model": fallback, "reference": fallback}

    def test_fields_match_the_single_metric_functions(self):
        dataset = generate_blobs(seed=54, n_per_class=50, class_count=3, dim=4, spread=0.9)
        split = make_random_subset_split(dataset, fraction=0.3, test_fraction=0.2, seed=3)
        cfg = ModelConfig(layer_sizes=(4, 6, 3), seed=5)
        ref = Checkpoint(init_params(cfg), cfg, {"role": "retrain"})
        theta = init_params(cfg) + np.random.default_rng(6).standard_normal(param_count(cfg))
        u = Checkpoint(theta, cfg, {"method": "ft"})
        report = full_report(u, ref, dataset, split)
        for key, idx in (("fa", split.forget_idx), ("ra", split.remain_idx),
                         ("ta", split.test_idx)):
            assert getattr(report, key) == accuracy(theta, cfg, dataset, idx)
            assert report.provenance["reference"][key] == accuracy(ref.params, cfg, dataset, idx)
        # The KL reads the per-subset outputs; empirical_kl runs one pass over
        # remain + forget, and BLAS results may differ by a few ulps.
        assert report.kl_to_ref == pytest.approx(empirical_kl(u, ref, dataset, split), rel=1e-13)
        assert report.kl_to_ref > 0.0

    def test_one_forward_pass_per_checkpoint_and_subset(self, monkeypatch):
        ckpt, dataset, split = self._inputs()
        rows = []
        forward = metrics.forward_logits

        def counting(theta, cfg, x):
            rows.append(len(x))
            return forward(theta, cfg, x)

        monkeypatch.setattr(metrics, "forward_logits", counting)
        full_report(ckpt, ckpt, dataset, split)
        sizes = [len(split.forget_idx), len(split.remain_idx), len(split.test_idx)]
        assert rows == sizes + sizes

    def test_empty_test_set_rejected(self):
        ckpt, dataset, split = self._inputs()
        no_test = ForgetSplit(split.forget_idx, np.concatenate([split.remain_idx, split.test_idx]),
                              np.array([], dtype=np.int64))
        with pytest.raises(ValueError, match="test set must be nonempty"):
            full_report(ckpt, ckpt, dataset, no_test)

    def test_config_mismatch_rejected(self):
        ckpt, dataset, split = self._inputs()
        other = Checkpoint(ckpt.params, ModelConfig(layer_sizes=(4, 6, 3), seed=5))
        with pytest.raises(ValueError, match="config"):
            full_report(ckpt, other, dataset, split)

    def test_unknown_key_rejected_on_load(self):
        ckpt, dataset, split = self._inputs()
        payload = json.loads(full_report(ckpt, ckpt, dataset, split).to_json())
        payload["kl"] = 0.0
        with pytest.raises(ValueError, match=r"unknown report keys \['kl'\]"):
            MetricsReport.from_dict(payload)

    def test_markdown_row_has_seven_columns(self):
        ckpt, dataset, split = self._inputs()
        row = full_report(ckpt, ckpt, dataset, split).markdown_row()
        cells = [c for c in row.strip().strip("|").split("|")]
        assert len(cells) == 7
