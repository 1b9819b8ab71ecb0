"""MLP over the flat parameter layout."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unlearnlab.autodiff import PROB_CLAMP, finite_diff_gradient
from unlearnlab.metrics import MetricsReport
from unlearnlab.model import (
    ModelConfig,
    argmax_labels,
    flatten,
    forward_logits,
    init_params,
    loss_and_grad,
    param_count,
    per_sample_losses,
    predict_labels,
    unflatten,
)
from unlearnlab.trainer import TrainConfig
from unlearnlab.unlearn import METHODS, UnlearnConfig


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(layer_sizes=(5,))
    with pytest.raises(ValueError):
        ModelConfig(layer_sizes=(5, 0, 2))
    with pytest.raises(ValueError):
        ModelConfig(layer_sizes=(5, 2), init_scale=0.0)


class TestInit:
    def test_deterministic(self):
        cfg = ModelConfig(layer_sizes=(4, 8, 3), seed=12)
        assert np.array_equal(init_params(cfg), init_params(cfg))

    def test_param_count(self):
        cfg = ModelConfig(layer_sizes=(2, 3, 2))
        assert param_count(cfg) == 2 * 3 + 3 + 3 * 2 + 2 == 17
        assert init_params(cfg).size == 17

    def test_biases_start_at_zero(self):
        cfg = ModelConfig(layer_sizes=(3, 5, 2), seed=3)
        for _, b in unflatten(init_params(cfg), cfg):
            assert np.array_equal(b, np.zeros_like(b))


def test_flatten_unflatten_roundtrip():
    cfg = ModelConfig(layer_sizes=(3, 7, 4), seed=5)
    theta = np.random.default_rng(5).standard_normal(param_count(cfg))
    assert np.array_equal(flatten(unflatten(theta, cfg)), theta)


class TestForward:
    def test_zero_params_give_zero_logits(self):
        cfg = ModelConfig(layer_sizes=(3, 4, 2))
        x = np.random.default_rng(0).standard_normal((5, 3))
        assert np.array_equal(forward_logits(np.zeros(param_count(cfg)), cfg, x), np.zeros((5, 2)))

    def test_single_layer_identity(self):
        cfg = ModelConfig(layer_sizes=(3, 3))
        theta = flatten([(np.eye(3), np.zeros(3))])
        x = np.random.default_rng(1).standard_normal((4, 3))
        assert np.allclose(forward_logits(theta, cfg, x), x)

    def test_batch_permutation_permutes_rows(self):
        cfg = ModelConfig(layer_sizes=(3, 6, 4), seed=2)
        theta = init_params(cfg)
        x = np.random.default_rng(2).standard_normal((8, 3))
        perm = np.random.default_rng(3).permutation(8)
        assert np.array_equal(forward_logits(theta, cfg, x)[perm], forward_logits(theta, cfg, x[perm]))

    def test_input_width_checked(self):
        cfg = ModelConfig(layer_sizes=(3, 2))
        with pytest.raises(ValueError, match="shape"):
            forward_logits(np.zeros(param_count(cfg)), cfg, np.zeros((2, 4)))


class TestWeightedLoss:
    """``loss_and_grad`` with per-sample weights."""

    cfg = ModelConfig(layer_sizes=(2, 4, 3), seed=6)

    def _batch(self):
        rng = np.random.default_rng(6)
        return rng.standard_normal((5, 2)), rng.integers(0, 3, size=5)

    def test_unit_weights_match_unweighted(self):
        x, y = self._batch()
        theta = init_params(self.cfg)
        plain, g_plain = loss_and_grad(theta, self.cfg, x, y)
        weighted, g_weighted = loss_and_grad(theta, self.cfg, x, y, np.ones(5))
        assert plain == weighted
        assert np.array_equal(g_plain, g_weighted)

    def test_zero_weights_zero_loss_and_grad(self):
        x, y = self._batch()
        theta = init_params(self.cfg)
        value, grad = loss_and_grad(theta, self.cfg, x, y, np.zeros(5))
        assert value == 0.0
        assert np.array_equal(grad, np.zeros(param_count(self.cfg)))

    def test_weights_match_analytic_mean(self):
        theta = init_params(self.cfg)
        x, y = self._batch()
        losses = [loss_and_grad(theta, self.cfg, x[i : i + 1], y[i : i + 1])[0] for i in range(5)]
        w = np.array([2.0, 0.0, 1.0, 0.5, 3.0])
        expected = float(np.mean(w * np.asarray(losses)))
        assert loss_and_grad(theta, self.cfg, x, y, w)[0] == pytest.approx(expected, rel=1e-12)


def test_gradient_matches_finite_differences_on_midsize_net():
    cfg = ModelConfig(layer_sizes=(6, 20, 15, 4), seed=8)
    assert param_count(cfg) <= 1000
    rng = np.random.default_rng(8)
    theta = init_params(cfg) + 0.05 * rng.standard_normal(param_count(cfg))
    x = rng.standard_normal((10, 6))
    y = rng.integers(0, 4, size=10)
    _, g_ad = loss_and_grad(theta, cfg, x, y)
    g_fd = finite_diff_gradient(lambda t: loss_and_grad(t, cfg, x, y)[0], theta, 1e-5)
    assert np.abs(g_ad - g_fd).max() / max(np.abs(g_fd).max(), 1e-12) <= 1e-6


class TestPredict:
    def test_argmax(self):
        assert argmax_labels(np.array([[0.1, 0.9]])) == [1]

    def test_tie_breaks_low(self):
        assert argmax_labels(np.array([[0.5, 0.5]])) == [0]

    def test_shift_invariance(self):
        rng = np.random.default_rng(10)
        logits = rng.standard_normal((20, 5))
        shifted = logits + rng.standard_normal((20, 1))
        assert np.array_equal(argmax_labels(logits), argmax_labels(shifted))

    def test_predict_labels_end_to_end(self):
        cfg = ModelConfig(layer_sizes=(2, 2))
        theta = flatten([(np.eye(2), np.zeros(2))])
        x = np.array([[0.1, 0.9], [0.5, 0.5], [2.0, -1.0]])
        assert np.array_equal(predict_labels(theta, cfg, x), [1, 0, 0])


def test_clamped_true_class_loss_is_exactly_the_floor():
    # Logits [100, 0] put exp(-100) ~ 4e-44 on the true class, far below the
    # clamp: both loss paths must read -log(PROB_CLAMP) bit for bit, and the
    # loss is flat there, so the gradient is exactly zero.
    cfg = ModelConfig(layer_sizes=(2, 2))
    theta = flatten([(100.0 * np.eye(2), np.zeros(2))])
    x, y = np.eye(2), np.array([1, 0])
    floor = -np.log(PROB_CLAMP)
    assert per_sample_losses(theta, cfg, x, y).tolist() == [floor, floor]
    for value, grad in (loss_and_grad(theta, cfg, x, y),
                        loss_and_grad(theta, cfg, x[:1], y[:1], np.ones(1))):
        assert value == floor
        assert np.array_equal(grad, np.zeros(param_count(cfg)))


@pytest.mark.parametrize("label", [-1, 4])
def test_per_sample_losses_rejects_out_of_range_labels(label):
    # Label -1 used to index the last class silently.
    cfg = ModelConfig(layer_sizes=(3, 5, 4), seed=2)
    x = np.random.default_rng(2).standard_normal((2, 3))
    with pytest.raises(ValueError, match=rf"label {label} out of range \[0, 4\)"):
        per_sample_losses(init_params(cfg), cfg, x, np.array([0, label]))


class TestStrictFromDict:
    """One constructor reads every config and report table."""

    def test_unknown_model_key_rejected(self):
        with pytest.raises(ValueError, match=r"unknown model config keys \['dropout'\]"):
            ModelConfig.from_dict({"layer_sizes": [4, 3], "init_scale": 1.0, "seed": 0,
                                   "dropout": 0.5})

    def test_non_integral_int_rejected_not_truncated(self):
        with pytest.raises(ValueError, match="'epochs' must be an integer, got 2.7"):
            TrainConfig.from_dict({"lr": 0.1, "epochs": 2.7, "batch_size": 8})
        with pytest.raises(ValueError, match="'layer_sizes' must be an integer, got 8.5"):
            ModelConfig.from_dict({"layer_sizes": [4, 8.5, 3]})

    def test_integral_float_becomes_int(self):
        cfg = TrainConfig.from_dict({"lr": 0.1, "epochs": 2.0, "batch_size": 8})
        assert cfg.epochs == 2 and type(cfg.epochs) is int

    def test_float_fields_store_float(self):
        cfg = UnlearnConfig.from_dict({"method": "ga", "beta_f": 1, "alpha": 0})
        assert type(cfg.beta_f) is float and type(cfg.alpha) is float
        assert json.dumps(cfg.to_dict()["beta_f"]) == "1.0"
        assert type(TrainConfig.from_dict({"lr": 1, "epochs": 1, "batch_size": 1}).lr) is float

    @pytest.mark.parametrize("table", [{"lr": "0.1"}, {"epochs": True}, {"momentum": None}])
    def test_non_numbers_rejected(self, table):
        with pytest.raises(ValueError, match="must be a number"):
            TrainConfig.from_dict({"lr": 0.1, "epochs": 1, "batch_size": 8, **table})

    def test_missing_required_key_is_a_key_error(self):
        with pytest.raises(KeyError, match="lr"):
            TrainConfig.from_dict({"epochs": 1, "batch_size": 8})
        with pytest.raises(KeyError, match="layer_sizes"):
            ModelConfig.from_dict({"seed": 0})
        with pytest.raises(KeyError, match="method"):
            UnlearnConfig.from_dict({})

    def test_defaults_fill_optional_keys(self):
        assert ModelConfig.from_dict({"layer_sizes": [4, 3]}) == ModelConfig((4, 3))
        assert TrainConfig.from_dict({"lr": 0.1, "epochs": 1, "batch_size": 8}) == TrainConfig(
            lr=0.1, epochs=1, batch_size=8)


# Property test: every config and report class survives to_dict/from_dict,
# directly and through JSON.

finite = st.floats(allow_nan=False, allow_infinity=False)
seeds = st.integers(0, 2**31 - 1)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | finite | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=8,
)

CONFIGS = st.one_of(
    st.builds(ModelConfig, layer_sizes=st.lists(st.integers(1, 64), min_size=2, max_size=5),
              init_scale=st.floats(1e-3, 10.0), seed=seeds),
    st.builds(TrainConfig, lr=st.floats(1e-6, 10.0), epochs=st.integers(0, 100),
              batch_size=st.integers(1, 512), schedule=st.sampled_from(["constant", "cosine"]),
              momentum=st.floats(0.0, 0.99), seed=seeds),
    st.builds(UnlearnConfig, method=st.sampled_from(METHODS), alpha=st.floats(0.0, 1.0),
              beta_f=st.floats(0.0, 5.0), beta_r=st.floats(0.0, 5.0), t_in=st.integers(0, 20),
              t_out=st.integers(1, 200), lambda_temp=st.floats(0.0, 3.0),
              gamma=st.floats(0.0, 10.0), batch_f=st.integers(1, 512),
              batch_r=st.integers(1, 512), seed=seeds,
              salun_top_k=st.floats(0.5, 100.0)),
    st.builds(MetricsReport, fa=finite, ra=finite, ta=finite, mia=finite, kl_to_ref=finite,
              avg_d=finite, rte_seconds=finite,
              gaps=st.dictionaries(st.sampled_from(["fa", "ra", "ta", "mia"]), finite),
              provenance=st.dictionaries(st.text(max_size=6), json_values, max_size=4)),
)


@settings(max_examples=120, deadline=None)
@given(CONFIGS)
def test_from_dict_inverts_to_dict(cfg):
    assert type(cfg).from_dict(cfg.to_dict()) == cfg
    assert type(cfg).from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
