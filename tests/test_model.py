"""MLP over the flat parameter layout."""

import dataclasses
import json
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unlearnlab import model
from unlearnlab.autodiff import PROB_CLAMP, finite_diff_gradient, softmax_cross_entropy
from unlearnlab.metrics import MetricsReport
from unlearnlab.model import (
    FORWARD_BUFFER_MAX_BYTES,
    ModelConfig,
    argmax_labels,
    flatten,
    forward_logits,
    init_params,
    loss_and_grad,
    param_count,
    per_sample_losses,
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


FLOAT_FIELDS = [(ModelConfig(layer_sizes=(5, 2)), "init_scale")]
FLOAT_FIELDS += [(TrainConfig(lr=0.1, epochs=1, batch_size=8), name)
                 for name in ("lr", "momentum")]
FLOAT_FIELDS += [(UnlearnConfig(method="sfr_on"), name)
                 for name in ("alpha", "beta_f", "beta_r", "lambda_temp", "gamma", "salun_top_k")]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("config, name", FLOAT_FIELDS,
                         ids=[f"{type(c).__name__}.{n}" for c, n in FLOAT_FIELDS])
def test_every_float_config_field_must_be_finite(config, name, bad):
    # NaN passes a range check such as lr <= 0, since every comparison with
    # it is false.
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {bad}$"):
        dataclasses.replace(config, **{name: bad})


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


def _plain_chain(theta, cfg, x, y, weights):
    """The forward/backward chain written as plain expressions, one new array
    per operation: the reference the in-place chain must match bit for bit."""
    layers = unflatten(theta, cfg)
    inputs = [x]
    for w, b in layers[:-1]:
        inputs.append(np.maximum(inputs[-1] @ w + b, 0.0))
    w, b = layers[-1]
    logits = inputs[-1] @ w + b
    loss, dz = softmax_cross_entropy(logits, y, weights)
    grads = []
    for i in range(len(layers) - 1, -1, -1):
        grads.append((inputs[i].T @ dz, dz.sum(axis=0)))
        if i:
            dz = (dz @ layers[i][0].T) * (inputs[i] > 0)
    return logits, loss, flatten(grads[::-1])


def _read_only(a):
    a.flags.writeable = False
    return a


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 6), min_size=2, max_size=4),
    n=st.integers(1, 300),
    zero_share=st.sampled_from([0.0, 0.3, 1.0]),
    weighted=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_chain_keeps_its_bits_and_writes_only_its_own_arrays(sizes, n, zero_share, weighted,
                                                             seed):
    # Zeroed inputs and parameters give exact-zero pre-activations, and the
    # negative bias shift gives negative ones; every caller-owned array is
    # read-only, so a write into one raises.
    cfg = ModelConfig(layer_sizes=tuple(sizes), seed=seed % 1000)
    rng = np.random.default_rng(seed)
    theta = init_params(cfg) + 0.5 * rng.standard_normal(param_count(cfg)) - 0.2
    theta[rng.random(theta.size) < zero_share / 2] = 0.0
    x = rng.standard_normal((n, sizes[0]))
    x[rng.random(x.shape) < zero_share] = 0.0
    y = rng.integers(0, sizes[-1], size=n)
    weights = _read_only(rng.random(n) * 2.0) if weighted else None
    theta, x, y = _read_only(theta), _read_only(x), _read_only(y)

    logits, loss, grad = _plain_chain(theta, cfg, x, y, weights)
    assert forward_logits(theta, cfg, x).tobytes() == logits.tobytes()
    value, g = loss_and_grad(theta, cfg, x, y, weights)
    assert value == loss
    assert g.tobytes() == grad.tobytes()


def test_forward_holds_at_most_two_activations():
    # Through 8-32-32-4 on 4096 rows, the forward pass may hold two
    # (4096, 32) activations, the logits and 128 KB of slack, and no more.
    cfg = ModelConfig(layer_sizes=(8, 32, 32, 4), seed=0)
    theta = init_params(cfg)
    x = np.random.default_rng(0).standard_normal((4096, 8))
    forward_logits(theta, cfg, x)
    tracemalloc.start()
    try:
        forward_logits(theta, cfg, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 4096 * 32 * 8 + 4096 * 4 * 8 + 128 * 1024


def _wide_testbed(rows):
    cfg = ModelConfig(layer_sizes=(8, 32, 32, 4), seed=3)
    rng = np.random.default_rng(4)
    theta = init_params(cfg) + 0.1 * rng.standard_normal(param_count(cfg))
    x = rng.standard_normal((rows, 8))
    return cfg, theta, x, rng.integers(0, 4, size=rows)


def test_the_workspace_state_changes_no_bit(monkeypatch):
    # The same pass three times: with no buffers yet, with buffers of its own
    # size, and after a larger pass, when its activations are views of the
    # front of longer buffers.
    monkeypatch.setattr(model._workspace, "buffers", {})
    cfg, theta, x, y = _wide_testbed(700)
    logits, loss, grad = _plain_chain(theta, cfg, x[:300], y[:300], None)
    for larger_first in (False, False, True):
        if larger_first:
            forward_logits(theta, cfg, x)
            assert model._workspace.buffers[0].size == 700 * 32
        assert forward_logits(theta, cfg, x[:300]).tobytes() == logits.tobytes()
        value, g = loss_and_grad(theta, cfg, x[:300], y[:300])
        assert value == loss
        assert g.tobytes() == grad.tobytes()


def test_another_threads_forward_leaves_this_threads_activations_alone():
    cfg, theta, x, _ = _wide_testbed(500)
    layers = unflatten(theta, cfg)
    inputs, _ = model._forward(layers, x)
    kept = [a.copy() for a in inputs]
    other = threading.Thread(target=model._forward, args=(layers, -x))
    other.start()
    other.join()
    assert all(a.tobytes() == k.tobytes() for a, k in zip(inputs, kept))


def test_a_warm_forward_allocates_no_hidden_activation():
    cfg, theta, x, _ = _wide_testbed(4096)
    forward_logits(theta, cfg, x)
    tracemalloc.start()
    try:
        forward_logits(theta, cfg, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096 * 32 * 8


def test_a_pass_above_the_cap_leaves_the_buffers_as_they_were(monkeypatch):
    # With the cap at 64 rows of 32, a 65-row pass allocates its activations
    # afresh and keeps the 40-row buffers.
    assert FORWARD_BUFFER_MAX_BYTES >= 11_000 * 32 * 8  # a wide remain set fits
    monkeypatch.setattr(model, "FORWARD_BUFFER_MAX_BYTES", 64 * 32 * 8)
    monkeypatch.setattr(model._workspace, "buffers", {})
    cfg, theta, x, y = _wide_testbed(65)
    layers = unflatten(theta, cfg)
    model._forward(layers, x[:40])
    kept = dict(model._workspace.buffers)
    inputs, logits = model._forward(layers, x)
    assert model._workspace.buffers.keys() == kept.keys()
    assert all(model._workspace.buffers[i] is kept[i] for i in kept)
    assert all(b.size == 40 * 32 for b in kept.values())
    assert not any(np.shares_memory(a, b) for a in inputs for b in kept.values())
    assert logits.tobytes() == _plain_chain(theta, cfg, x, y, None)[0].tobytes()


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

    def test_argmax_of_forward_logits_end_to_end(self):
        cfg = ModelConfig(layer_sizes=(2, 2))
        theta = flatten([(np.eye(2), np.zeros(2))])
        x = np.array([[0.1, 0.9], [0.5, 0.5], [2.0, -1.0]])
        assert np.array_equal(argmax_labels(forward_logits(theta, cfg, x)), [1, 0, 0])


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
    # ft, rl and salun train at lr beta_r, so only they exclude beta_r = 0.
    st.sampled_from(METHODS).flatmap(lambda method: st.builds(
        UnlearnConfig, method=st.just(method), alpha=st.floats(0.0, 1.0),
        beta_f=st.floats(0.0, 5.0),
        beta_r=st.floats(0.0, 5.0, exclude_min=method in ("ft", "rl", "salun")),
        t_in=st.integers(0, 20), t_out=st.integers(1, 200), lambda_temp=st.floats(0.0, 3.0),
        gamma=st.floats(0.0, 10.0), batch_f=st.integers(1, 512),
        batch_r=st.integers(1, 512), seed=seeds, salun_top_k=st.floats(0.5, 100.0))),
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
