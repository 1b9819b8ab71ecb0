"""Numerical checks of the descent identities and the KL mixture split."""

import numpy as np
import pytest

from unlearnlab import unlearn
from unlearnlab.cli import main
from unlearnlab.data import generate_blobs, make_random_subset_split
from unlearnlab.model import (
    ModelConfig,
    init_params,
    loss_and_grad,
    param_count,
    per_sample_losses,
)
from unlearnlab.autodiff import finite_diff_gradient
from unlearnlab.verify import (
    QuadraticTestbed,
    check_euclidean_direction,
    check_fast_slow_direction,
    check_gradients,
    check_kl_mixture,
    check_manifold_direction,
    fast_slow_joint_remainder,
    make_random_testbed,
    run_suite,
)


def _normalized(rng, n):
    d = rng.uniform(0.05, 1.0, n)
    return d / d.sum()


class TestKlMixture:
    def test_identical_components_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        q = np.array([0.25, 0.25, 0.5])
        assert check_kl_mixture((p, p), (q, q), 0.4) <= 1e-15

    def test_random_components(self):
        rng = np.random.default_rng(6)
        res = check_kl_mixture(
            (_normalized(rng, 5), _normalized(rng, 5)),
            (_normalized(rng, 5), _normalized(rng, 5)),
            0.3,
        )
        assert res <= 1e-12

    @pytest.mark.parametrize("p_f", [0.01, 0.99])
    def test_extreme_proportions(self, p_f):
        rng = np.random.default_rng(7)
        res = check_kl_mixture(
            (_normalized(rng, 4), _normalized(rng, 4)),
            (_normalized(rng, 6), _normalized(rng, 6)),
            p_f,
        )
        assert res <= 1e-12

    def test_unnormalized_rejected(self):
        p = np.array([0.5, 0.6])
        q = np.array([0.5, 0.5])
        with pytest.raises(ValueError, match="normalized"):
            check_kl_mixture((p, q), (q, q), 0.5)


def _diag_testbed():
    return QuadraticTestbed(
        a_mat=np.diag([2.0, 1.0]),
        b_mat=np.diag([1.0, 3.0]),
        a=np.array([1.0, 0.0]),
        b=np.array([0.0, 1.0]),
        eps=1.0,
        p_f=0.4,
    )


class TestEuclideanDirection:
    def test_coincident_minima_give_zero(self):
        tb = QuadraticTestbed(
            a_mat=np.diag([2.0, 1.0]), b_mat=np.diag([1.0, 3.0]),
            a=np.array([0.5, -0.2]), b=np.array([0.5, -0.2]), eps=1.0, p_f=0.3,
        )
        res = check_euclidean_direction(tb)
        assert res.residual <= 1e-12
        assert res.cosine == 1.0

    def test_diagonal_instance(self):
        assert check_euclidean_direction(_diag_testbed()).residual <= 1e-10

    @pytest.mark.parametrize("i", range(10))
    def test_random_spd_instances(self, i):
        tb = make_random_testbed(dim=2 + i % 7, seed=300 + i)
        assert check_euclidean_direction(tb).residual <= 1e-9

    def test_spd_validation(self):
        with pytest.raises(ValueError, match="positive definite"):
            QuadraticTestbed(
                a_mat=np.diag([-1.0, 1.0]), b_mat=np.eye(2),
                a=np.zeros(2), b=np.zeros(2), eps=1.0, p_f=0.5,
            )


class TestManifoldDirection:
    def test_coincident_minima_give_zero(self):
        tb = QuadraticTestbed(
            a_mat=np.diag([2.0, 1.0]), b_mat=np.diag([1.0, 3.0]),
            a=np.array([1.0, 1.0]), b=np.array([1.0, 1.0]), eps=0.7, p_f=0.3,
        )
        assert check_manifold_direction(tb, alpha=0.5).residual <= 1e-12

    def test_diagonal_instance(self):
        assert check_manifold_direction(_diag_testbed(), alpha=0.5).residual <= 1e-10

    @pytest.mark.parametrize("i", range(10))
    def test_random_instances_and_link(self, i):
        tb = make_random_testbed(dim=2 + i % 7, seed=300 + i)
        alpha = 0.3 + 0.15 * i
        assert check_manifold_direction(tb, alpha).residual <= 1e-10


@pytest.fixture(scope="module")
def tiny_net():
    dataset = generate_blobs(seed=61, n_per_class=40, class_count=3, dim=4, spread=0.9)
    split = make_random_subset_split(dataset, fraction=0.2, test_fraction=0.1, seed=4)
    cfg = ModelConfig(layer_sizes=(4, 10, 3), seed=6)
    assert param_count(cfg) <= 1000
    theta = init_params(cfg)
    for _ in range(25):
        _, g = loss_and_grad(
            theta, cfg, dataset.features[split.remain_idx], dataset.labels[split.remain_idx]
        )
        theta -= 0.1 * g
    return theta, cfg, dataset, split


class TestFastSlowDirection:
    def test_zero_forget_weights_reduce_to_repair_step(self, tiny_net):
        theta, cfg, dataset, split = tiny_net
        coeffs = np.zeros(len(split.forget_idx))
        res = check_fast_slow_direction(
            theta, cfg, dataset, split, beta_f=1e-4, beta_r=1e-4, coeffs=coeffs
        )
        assert res.cosine == pytest.approx(1.0, abs=1e-12)
        assert res.rel_norm_err <= 1e-9

    def test_zero_repair_rate_reduces_to_fast_step(self, tiny_net):
        theta, cfg, dataset, split = tiny_net
        res = check_fast_slow_direction(theta, cfg, dataset, split, beta_f=1e-4, beta_r=0.0)
        assert res.residual <= 1e-15

    def test_curvature_prediction_on_tiny_mlp(self, tiny_net):
        theta, cfg, dataset, split = tiny_net
        res = check_fast_slow_direction(theta, cfg, dataset, split, beta_f=1e-4, beta_r=1e-4)
        assert res.cosine >= 0.999
        assert res.rel_norm_err <= 0.01

    def test_remainder_scales_quadratically(self, tiny_net):
        theta, cfg, dataset, split = tiny_net
        remainders = [
            fast_slow_joint_remainder(theta, cfg, dataset, split, beta)
            for beta in (1e-4, 2e-4, 4e-4)
        ]
        for small, big in zip(remainders, remainders[1:]):
            assert 3.0 <= big / small <= 5.0

    def test_respects_mask(self, tiny_net):
        theta, cfg, dataset, split = tiny_net
        mask = np.zeros_like(theta)
        res = check_fast_slow_direction(
            theta, cfg, dataset, split, beta_f=1e-4, beta_r=1e-4, mask=mask
        )
        # Fully masked forgetting leaves only the repair direction.
        assert res.cosine == pytest.approx(1.0, abs=1e-12)


    def test_suite_checks_the_step_sfr_on_takes(self, monkeypatch):
        # A sign error in the shipped update must fail the suite, so the
        # suite has to realize that update, not a copy of it.
        def negated(*args, **kwargs):
            loss, grad = loss_and_grad(*args, **kwargs)
            return loss, -grad

        monkeypatch.setattr(unlearn, "loss_and_grad", negated)
        assert run_suite("fastslow")["pass"] is False
        assert main(["verify", "--suite", "fastslow"]) == 1


class TestCheckGradients:
    def test_linear_model_near_exact(self):
        cfg = ModelConfig(layer_sizes=(4, 3), seed=0)
        rng = np.random.default_rng(0)
        theta = init_params(cfg)
        x = rng.standard_normal((6, 4))
        y = rng.integers(0, 3, size=6)
        _, g_ad = loss_and_grad(theta, cfg, x, y)
        g_fd = finite_diff_gradient(lambda t: loss_and_grad(t, cfg, x, y)[0], theta, 1e-5)
        assert np.abs(g_ad - g_fd).max() / max(np.abs(g_fd).max(), 1e-12) <= 1e-10

    def test_two_hidden_layer_sweep(self):
        cfg = ModelConfig(layer_sizes=(5, 12, 8, 4), seed=1)
        rng = np.random.default_rng(1)
        theta = init_params(cfg) + 0.05 * rng.standard_normal(param_count(cfg))
        x = rng.standard_normal((7, 5))
        y = rng.integers(0, 4, size=7)
        _, g_ad = loss_and_grad(theta, cfg, x, y)
        g_fd = finite_diff_gradient(lambda t: loss_and_grad(t, cfg, x, y)[0], theta, 1e-5)
        assert np.abs(g_ad - g_fd).max() / max(np.abs(g_fd).max(), 1e-12) <= 1e-6

    def test_twenty_seeds(self):
        assert check_gradients(seeds=20) <= 1e-6

    def test_oracle_objective_equals_the_loss_and_grad_value(self):
        # check_gradients differentiates this per-sample form numerically; it
        # must be the very number loss_and_grad reports.
        rng = np.random.default_rng(9)
        for seed in range(5):
            cfg = ModelConfig(layer_sizes=(4, 7, 3), init_scale=1.0, seed=seed)
            theta = init_params(cfg)
            x = rng.standard_normal((8, 4))
            y = rng.integers(0, 3, size=8)
            w = rng.uniform(0.2, 2.0, size=8)
            value, _ = loss_and_grad(theta, cfg, x, y, w)
            assert np.mean(w * per_sample_losses(theta, cfg, x, y)) == value


class TestSuiteRunner:
    @pytest.mark.parametrize("suite", ["grad", "prop1", "prop2", "fastslow", "klmix"])
    def test_each_suite_passes(self, suite):
        report = run_suite(suite)
        assert report["pass"], report

    def test_all_suite(self):
        report = run_suite("all")
        assert report["pass"]
        assert len(report["checks"]) == 5

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("nope")
