"""Unlearning methods: coefficients, masks, fast-slow updates, baselines."""

import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from unlearnlab import unlearn
from unlearnlab.data import Dataset, ForgetSplit, generate_blobs, make_random_subset_split
from unlearnlab.metrics import accuracy
from unlearnlab.model import (
    ModelConfig,
    flatten,
    init_params,
    per_sample_losses,
)
from unlearnlab.trainer import TrainConfig, sgd_train
from unlearnlab.unlearn import (
    FisherDiagonals,
    UnlearnConfig,
    adaptive_coefficients,
    fisher_diagonals,
    ft_unlearn,
    ga_unlearn,
    joint_unlearn,
    relabel_forget,
    rl_unlearn,
    run_unlearning,
    salun_mask,
    salun_unlearn,
    saliency_mask,
    sfr_on,
)


@pytest.fixture(scope="module")
def testbed():
    dataset = generate_blobs(seed=31, n_per_class=50, class_count=3, dim=4, spread=0.6)
    split = make_random_subset_split(dataset, fraction=0.2, test_fraction=0.2, seed=7)
    cfg = ModelConfig(layer_sizes=(4, 10, 3), seed=2)
    tcfg = TrainConfig(lr=0.3, epochs=40, batch_size=32, momentum=0.9, schedule="cosine", seed=3)
    pretrained = sgd_train(init_params(cfg), tcfg, cfg, dataset, split.train_idx)
    return dataset, split, cfg, pretrained.params


class TestFisherDiagonals:
    def test_opposing_gradients_do_not_cancel(self):
        # Two mirrored samples at the zero model: per-sample bias gradients
        # are exact opposites, so squaring the full-set mean gradient would
        # cancel them, while averaging the squared gradients does not.
        cfg = ModelConfig(layer_sizes=(1, 2))
        dataset = Dataset(np.array([[1.0], [-1.0], [1.0]]), np.array([0, 1, 0]), class_count=2)
        theta = np.zeros(4)
        both = ForgetSplit(np.array([0, 1]), np.array([2]), np.array([], dtype=int))
        fd = fisher_diagonals(theta, cfg, dataset, both)
        assert fd.forget == pytest.approx([0.25, 0.25, 0.25, 0.25], abs=1e-15)

    def test_zero_gradient_model(self):
        cfg = ModelConfig(layer_sizes=(1, 2))
        theta = flatten([(np.array([[50.0, -50.0]]), np.zeros(2))])
        dataset = Dataset(np.array([[1.0], [1.0]]), np.array([0, 0]), class_count=2)
        split = ForgetSplit(np.array([0]), np.array([1]), np.array([], dtype=int))
        fd = fisher_diagonals(theta, cfg, dataset, split)
        assert np.abs(fd.forget).max() <= 1e-40
        assert np.abs(fd.remain).max() <= 1e-40

    def test_nonnegative_on_random_models(self, testbed):
        dataset, split, cfg, theta0 = testbed
        fd = fisher_diagonals(theta0, cfg, dataset, split)
        assert (fd.forget >= 0).all() and (fd.remain >= 0).all()


class TestSaliencyMask:
    def test_gamma_zero_is_all_ones(self):
        from unlearnlab.unlearn import FisherDiagonals

        fd = FisherDiagonals(np.array([0.0, 1.0, 5.0]), np.array([1.0, 2.0, 0.0]))
        assert np.array_equal(saliency_mask(fd, 0.0), np.ones(3))

    def test_direct_threshold(self):
        from unlearnlab.unlearn import FisherDiagonals

        fd = FisherDiagonals(np.array([4.0, 1.0]), np.array([1.0, 4.0]))
        assert np.array_equal(saliency_mask(fd, 1.0), [1.0, 0.0])

    def test_monotone_in_gamma(self):
        from unlearnlab.unlearn import FisherDiagonals

        rng = np.random.default_rng(0)
        fd = FisherDiagonals(rng.uniform(0, 5, 50), rng.uniform(0, 5, 50))
        previous = saliency_mask(fd, 0.0)
        for gamma in (0.5, 1.0, 2.0, 10.0):
            current = saliency_mask(fd, gamma)
            assert np.all(current <= previous)
            previous = current

    def test_huge_gamma_empties_mask(self):
        from unlearnlab.unlearn import FisherDiagonals

        rng = np.random.default_rng(1)
        fd = FisherDiagonals(rng.uniform(0.1, 5, 20), rng.uniform(0.1, 5, 20))
        assert np.array_equal(saliency_mask(fd, 1e12), np.zeros(20))


class TestAdaptiveCoefficients:
    def test_equal_losses_give_unit_weights(self):
        coeffs = adaptive_coefficients(np.full(6, 0.7), t=0, big_t=10, lambda_temp=1.3)
        assert coeffs == pytest.approx(np.ones(6), abs=1e-12)

    def test_final_step_zeroes_everything(self):
        coeffs = adaptive_coefficients(np.array([0.1, 2.0]), t=10, big_t=10, lambda_temp=1.0)
        assert np.array_equal(coeffs, np.zeros(2))

    def test_direct_evaluation(self):
        coeffs = adaptive_coefficients(np.array([1.0, 2.0]), t=0, big_t=5, lambda_temp=1.0)
        assert coeffs == pytest.approx([4.0 / 3.0, 2.0 / 3.0], abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_sum_invariant(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        losses = rng.uniform(0, 5, n)
        big_t = int(rng.integers(1, 50))
        t = int(rng.integers(0, big_t + 1))
        lam = float(rng.uniform(0, 3))
        coeffs = adaptive_coefficients(losses, t, big_t, lam)
        assert coeffs.sum() == pytest.approx((1 - t / big_t) * n, abs=1e-9)
        assert (coeffs >= 0).all()

    def test_rejects_negative_losses(self):
        with pytest.raises(ValueError):
            adaptive_coefficients(np.array([-0.1]), 0, 1, 1.0)


class TestFastSlow:
    def test_alpha_zero_is_identity(self, testbed):
        dataset, split, cfg, theta0 = testbed
        ucfg = UnlearnConfig(method="sfr_on", alpha=0.0, beta_f=0.5, beta_r=0.1,
                             t_in=3, t_out=5, seed=0)
        ckpt = sfr_on(theta0, cfg, dataset, split, ucfg)
        assert np.array_equal(ckpt.params, theta0)

    def test_empty_mask_without_repair_is_identity(self, testbed):
        dataset, split, cfg, theta0 = testbed
        ucfg = UnlearnConfig(method="sfr_on", alpha=1.0, beta_f=0.5, beta_r=0.1,
                             t_in=0, t_out=5, gamma=1e12, seed=0)
        ckpt = sfr_on(theta0, cfg, dataset, split, ucfg)
        assert np.array_equal(ckpt.params, theta0)

    def test_masked_coordinates_get_no_fast_update(self, testbed):
        dataset, split, cfg, theta0 = testbed
        ucfg = UnlearnConfig(method="sfr_on", alpha=1.0, beta_f=0.5, beta_r=0.1,
                             t_in=0, t_out=4, gamma=1.0, seed=9)
        fd = fisher_diagonals(theta0, cfg, dataset, split)
        mask = saliency_mask(fd, ucfg.gamma)
        assert 0.0 < mask.mean() < 1.0
        ckpt = sfr_on(theta0, cfg, dataset, split, ucfg)
        moved = ckpt.params - theta0
        assert np.array_equal(moved[mask == 0.0], np.zeros(int((mask == 0.0).sum())))
        assert np.abs(moved[mask == 1.0]).max() > 0.0

    def test_masked_coordinates_can_move_during_repair(self, testbed):
        dataset, split, cfg, theta0 = testbed
        ucfg = UnlearnConfig(method="sfr_on", alpha=1.0, beta_f=0.5, beta_r=0.1,
                             t_in=3, t_out=4, gamma=1.0, seed=9)
        fd = fisher_diagonals(theta0, cfg, dataset, split)
        mask = saliency_mask(fd, ucfg.gamma)
        ckpt = sfr_on(theta0, cfg, dataset, split, ucfg)
        moved = ckpt.params - theta0
        assert np.abs(moved[mask == 0.0]).max() > 0.0

    def test_deterministic(self, testbed):
        dataset, split, cfg, theta0 = testbed
        ucfg = UnlearnConfig(method="sfr_on", alpha=0.8, beta_f=0.4, beta_r=0.05,
                             t_in=2, t_out=6, seed=13)
        a = sfr_on(theta0, cfg, dataset, split, ucfg)
        b = sfr_on(theta0, cfg, dataset, split, ucfg)
        assert np.array_equal(a.params, b.params)

    def test_provenance_records_batch_losses(self, testbed):
        dataset, split, cfg, theta0 = testbed
        ucfg = UnlearnConfig(method="sfr_on", t_out=7, t_in=1, seed=0)
        ckpt = sfr_on(theta0, cfg, dataset, split, ucfg)
        assert len(ckpt.provenance["forget_batch_loss"]) == 7


class TestBaselines:
    def test_ft_never_touches_forget(self, testbed):
        dataset, split, cfg, theta0 = testbed
        touched = []
        ucfg = UnlearnConfig(method="ft", beta_r=0.05, t_out=2, batch_r=16)
        ft_unlearn(theta0, cfg, dataset, split, ucfg,
                   on_batch=lambda b: touched.extend(int(i) for i in b))
        assert not set(touched) & set(int(i) for i in split.forget_idx)

    def test_ft_remain_loss_non_increasing_on_convex_toy(self):
        dataset = generate_blobs(seed=41, n_per_class=40, class_count=3, dim=4, spread=0.5)
        split = make_random_subset_split(dataset, fraction=0.2, test_fraction=0.1, seed=1)
        cfg = ModelConfig(layer_sizes=(4, 3), seed=0)
        ucfg = UnlearnConfig(method="ft", beta_r=0.2, t_out=15, batch_r=10_000)
        ckpt = ft_unlearn(init_params(cfg), cfg, dataset, split, ucfg)
        assert np.all(np.diff(ckpt.provenance["epoch_mean_loss"]) <= 1e-9)

    def test_ga_increases_forget_loss(self):
        dataset = generate_blobs(seed=42, n_per_class=40, class_count=3, dim=4, spread=0.6)
        split = make_random_subset_split(dataset, fraction=0.2, test_fraction=0.1, seed=2)
        cfg = ModelConfig(layer_sizes=(4, 8, 3), seed=1)
        half_trained = sgd_train(
            init_params(cfg), TrainConfig(lr=0.2, epochs=8, batch_size=32, seed=0),
            cfg, dataset, split.train_idx,
        ).params
        fx = dataset.features[split.forget_idx]
        fy = dataset.labels[split.forget_idx]
        before = per_sample_losses(half_trained, cfg, fx, fy).mean()
        ucfg = UnlearnConfig(method="ga", beta_f=0.05, t_out=2, batch_f=len(split.forget_idx))
        ckpt = ga_unlearn(half_trained, cfg, dataset, split, ucfg)
        after = per_sample_losses(ckpt.params, cfg, fx, fy).mean()
        assert after > before

    def test_ga_zero_epochs_and_zero_lr(self, testbed):
        dataset, split, cfg, theta0 = testbed
        # Zero epochs cannot reach a method: the config rejects them.
        with pytest.raises(ValueError, match="t_out must be >= 1"):
            UnlearnConfig(method="ga", t_out=0)
        ucfg = UnlearnConfig(method="ga", beta_f=0.0, t_out=3, batch_f=8)
        assert np.array_equal(ga_unlearn(theta0, cfg, dataset, split, ucfg).params, theta0)

    def test_relabel_never_keeps_original(self, testbed):
        dataset, split, cfg, _ = testbed
        for seed in range(5):
            relabeled = relabel_forget(dataset, split, seed)
            new = relabeled.labels[split.forget_idx]
            assert not np.any(new == dataset.labels[split.forget_idx])
            assert np.array_equal(
                relabeled.labels[split.remain_idx], dataset.labels[split.remain_idx]
            )

    def test_relabel_deterministic(self, testbed):
        dataset, split, _, _ = testbed
        a = relabel_forget(dataset, split, 3)
        b = relabel_forget(dataset, split, 3)
        assert np.array_equal(a.labels, b.labels)

    def test_relabel_needs_two_classes(self):
        dataset = Dataset(np.zeros((4, 1)), np.zeros(4, dtype=int), class_count=1)
        split = ForgetSplit(np.array([0, 1]), np.array([2, 3]), np.array([], dtype=int))
        with pytest.raises(ValueError, match="two classes"):
            relabel_forget(dataset, split, 0)

    def test_rl_drops_forget_accuracy(self, testbed):
        dataset, split, cfg, theta0 = testbed
        fa_before = accuracy(theta0, cfg, dataset, split.forget_idx)
        ucfg = UnlearnConfig(method="rl", beta_r=0.05, t_out=8, batch_r=32, seed=0)
        ckpt = rl_unlearn(theta0, cfg, dataset, split, ucfg)
        assert accuracy(ckpt.params, cfg, dataset, split.forget_idx) < fa_before

    def test_salun_full_mask_equals_rl(self, testbed):
        dataset, split, cfg, theta0 = testbed
        ucfg = UnlearnConfig(method="salun", beta_r=0.05, t_out=3, batch_r=32, seed=4,
                             salun_top_k=100.0)
        a = salun_unlearn(theta0, cfg, dataset, split, ucfg)
        b = rl_unlearn(theta0, cfg, dataset, split, replace(ucfg, method="rl"))
        assert np.array_equal(a.params, b.params)

    def test_salun_frozen_coordinates_never_change(self, testbed):
        dataset, split, cfg, theta0 = testbed
        mask = salun_mask(theta0, cfg, dataset, split, top_k_percent=30.0)
        ucfg = UnlearnConfig(method="salun", beta_r=0.05, t_out=4, batch_r=32, seed=4,
                             salun_top_k=30.0)
        ckpt = salun_unlearn(theta0, cfg, dataset, split, ucfg)
        frozen = mask == 0.0
        assert np.array_equal(ckpt.params[frozen], theta0[frozen])
        assert not np.array_equal(ckpt.params[~frozen], theta0[~frozen])

    def test_joint_zero_lr_identity(self, testbed):
        dataset, split, cfg, theta0 = testbed
        ucfg = UnlearnConfig(method="joint", beta_r=0.0, t_out=5, batch_f=8, batch_r=8)
        ckpt = joint_unlearn(theta0, cfg, dataset, split, ucfg)
        assert np.array_equal(ckpt.params, theta0)


class TestDispatch:
    @pytest.mark.parametrize("method", ["sfr_on", "ft", "ga", "rl", "salun", "joint"])
    def test_each_method_runs_and_is_deterministic(self, testbed, method):
        dataset, split, cfg, theta0 = testbed
        ucfg = UnlearnConfig(method=method, alpha=0.5, beta_f=0.05, beta_r=0.02,
                             t_in=1, t_out=2, batch_f=8, batch_r=16, seed=5)
        a = run_unlearning(theta0, cfg, dataset, split, ucfg)
        b = run_unlearning(theta0, cfg, dataset, split, ucfg)
        assert np.array_equal(a.params, b.params)
        # run_unlearning stamps every method's checkpoint the same way; the
        # training-loop baselines keep the seeds ``sgd_train`` records.
        assert a.provenance["method"] == method
        assert a.provenance["role"] == "unlearned"
        assert a.provenance["unlearn_config"] == ucfg.to_dict()
        assert a.provenance["wall_seconds"] > 0.0
        seed_key = "train" if method in ("ft", "rl", "salun") else "unlearn"
        assert a.provenance["seeds"] == {seed_key: 5, "model": cfg.seed}

    def test_wall_seconds_covers_the_whole_method(self, testbed, monkeypatch):
        # salun's mask is part of its run time, so a slow mask shows in it.
        dataset, split, cfg, theta0 = testbed
        original = unlearn.salun_mask

        def slow(*args):
            time.sleep(0.05)
            return original(*args)

        monkeypatch.setattr(unlearn, "salun_mask", slow)
        ucfg = UnlearnConfig(method="salun", beta_r=0.02, t_out=1, batch_r=16)
        ckpt = run_unlearning(theta0, cfg, dataset, split, ucfg)
        assert ckpt.provenance["wall_seconds"] >= 0.05

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            UnlearnConfig(method="nosuch")

    def test_config_roundtrip(self):
        ucfg = UnlearnConfig(method="sfr_on", alpha=0.7, seed=3)
        assert UnlearnConfig.from_dict(ucfg.to_dict()) == ucfg

    def test_config_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="beta_F"):
            UnlearnConfig.from_dict({"method": "sfr_on", "beta_F": 9.0})
        # fisher_mode is not a key: the per-sample estimator is the only Fisher diagonal.
        with pytest.raises(ValueError, match=r"unknown unlearn config keys \['fisher_mode'\]"):
            UnlearnConfig.from_dict({"method": "sfr_on", "fisher_mode": "per_sample_mean"})


# Property tests for the two invariants the fast-slow update relies on.

nonneg = st.floats(0.0, 1e6, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(
    losses=arrays(np.float64, st.integers(1, 64), elements=st.floats(0.0, 50.0)),
    big_t=st.integers(1, 500),
    frac=st.floats(0.0, 1.0),
    lambda_temp=st.floats(0.0, 3.0),
)
def test_adaptive_coefficients_sum_to_the_decayed_batch_size(losses, big_t, frac, lambda_temp):
    t = int(frac * big_t)
    coeffs = adaptive_coefficients(losses, t, big_t, lambda_temp)
    assert (coeffs >= 0).all()
    expected = (1.0 - t / big_t) * len(losses)
    assert coeffs.sum() == pytest.approx(expected, rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    diagonals=st.integers(1, 40).flatmap(lambda n: st.tuples(
        arrays(np.float64, n, elements=nonneg), arrays(np.float64, n, elements=nonneg))),
    gammas=st.tuples(st.floats(0.0, 1e3), st.floats(0.0, 1e3)),
)
def test_saliency_mask_is_monotone_in_gamma(diagonals, gammas):
    fd = FisherDiagonals(*diagonals)
    low, high = sorted(gammas)
    mask_low, mask_high = saliency_mask(fd, low), saliency_mask(fd, high)
    assert set(np.unique(mask_low)) <= {0.0, 1.0}
    assert (mask_high <= mask_low).all()
