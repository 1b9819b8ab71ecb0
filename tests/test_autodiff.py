"""The loss, the explicit backward chain, and the finite-difference oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unlearnlab.autodiff import (
    backward,
    finite_diff_gradient,
    hessian_vector_product,
    softmax_cross_entropy,
)
from unlearnlab.model import (
    ModelConfig,
    flatten,
    forward_logits,
    init_params,
    loss_and_grad,
    param_count,
    unflatten,
)
from unlearnlab.verify import check_gradients


class TestAffine:
    """One affine layer, forward (in the logits) and backward (dW, db)."""

    def test_identity(self):
        layers = [(np.eye(2), np.zeros(2))]
        x = np.array([[1.0, 2.0]])
        assert np.array_equal(forward_logits(flatten(layers), ModelConfig((2, 2)), x), x)
        ((dw, db),) = backward(layers, [x], np.array([[1.0, 0.0]]))
        assert np.array_equal(dw, [[1.0, 0.0], [2.0, 0.0]])
        assert np.array_equal(db, [1.0, 0.0])

    def test_permutation(self):
        # Through a permuting second layer, the hidden gradient comes back
        # permuted: unit 0 gets the gradient of logit 1 and vice versa.
        perm = np.array([[0.0, 1.0], [1.0, 0.0]])
        layers = [(np.eye(2), np.zeros(2)), (perm, np.zeros(2))]
        x = np.array([[1.0, 3.0]])
        theta = flatten(layers)
        assert np.array_equal(forward_logits(theta, ModelConfig((2, 2, 2)), x), [[3.0, 1.0]])
        (_, db_hidden), _ = backward(layers, [x, x], np.array([[5.0, 7.0]]))
        assert np.array_equal(db_hidden, [7.0, 5.0])

    def test_hand_sum(self):
        layers = [(np.ones((2, 2)), np.ones(2))]
        x = np.array([[1.0, 1.0], [2.0, 0.0]])
        assert np.array_equal(forward_logits(flatten(layers), ModelConfig((2, 2)), x),
                              [[3.0, 3.0], [3.0, 3.0]])
        ((dw, db),) = backward(layers, [x], np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(dw, [[1.0 + 6.0, 2.0 + 8.0], [1.0, 2.0]])
        assert np.array_equal(db, [4.0, 6.0])

    def test_shape_mismatch_reports_dimensions(self):
        cfg = ModelConfig((3, 2))
        with pytest.raises(ValueError, match=r"shape \(1, 2\), expected \(batch, 3\)"):
            loss_and_grad(np.zeros(param_count(cfg)), cfg, np.ones((1, 2)), np.array([0]))


class TestRelu:
    """The hidden relu: max(0, x) forward, subgradient 0 at and below 0."""

    cfg = ModelConfig((3, 3, 3))
    identity = flatten([(np.eye(3), np.zeros(3)), (np.eye(3), np.zeros(3))])

    def test_elementwise(self):
        out = forward_logits(self.identity, self.cfg, np.array([[-1.0, 0.0, 2.0]]))
        assert np.array_equal(out, [[0.0, 0.0, 2.0]])

    def test_all_negative(self):
        out = forward_logits(self.identity, self.cfg, np.array([[-3.0, -0.5, -1e-300]]))
        assert np.array_equal(out, np.zeros((1, 3)))

    def test_dead_unit_gradient(self):
        # Hidden unit 0 sees -1: its incoming weights and bias get no gradient,
        # while the live units 1 and 2 do.
        _, g = loss_and_grad(self.identity, self.cfg, np.array([[-1.0, 0.5, 2.0]]), np.array([0]))
        (dw, db), _ = unflatten(g, self.cfg)
        assert np.array_equal(dw[:, 0], np.zeros(3)) and db[0] == 0.0
        assert (db[1:] != 0.0).all()

    def test_subgradient_at_zero_is_zero(self):
        # Zero input and zero biases put every hidden pre-activation at exactly
        # 0, where the relu passes no gradient: the hidden biases get none.
        cfg = ModelConfig((4, 6, 3), seed=1)
        theta = init_params(cfg)
        _, g = loss_and_grad(theta, cfg, np.zeros((2, 4)), np.array([0, 2]))
        (_, db_hidden), (_, db_out) = unflatten(g, cfg)
        assert np.array_equal(db_hidden, np.zeros(6))
        assert (db_out != 0.0).any()


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = softmax_cross_entropy(np.zeros((1, 4)), np.array([2]))
        assert loss == pytest.approx(np.log(4.0), abs=1e-12)

    def test_confident_correct_is_near_zero(self):
        logits = np.zeros((1, 3))
        logits[0, 1] = 50.0
        loss, _ = softmax_cross_entropy(logits, np.array([1]))
        assert loss < 1e-12

    def test_weighted_mean(self):
        loss, dlogits = softmax_cross_entropy(np.zeros((2, 2)), np.array([0, 1]), np.array([2.0, 0.0]))
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)
        # Row weight 2 over a batch of 2 scales row 0 by 1; row 1 weighs 0.
        assert np.array_equal(dlogits, [[-0.5, 0.5], [0.0, 0.0]])

    def test_label_out_of_range(self):
        for label in (3, -1):
            with pytest.raises(ValueError, match=f"label {label} out of range"):
                softmax_cross_entropy(np.zeros((1, 3)), np.array([label]))

    @pytest.mark.parametrize("classes", range(2, 11))
    def test_uniform_equals_log_c(self, classes):
        loss, _ = softmax_cross_entropy(np.zeros((3, classes)), np.zeros(3, dtype=int))
        assert loss == pytest.approx(np.log(classes), abs=1e-12)

    def test_nonnegative_on_random_logits(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            logits = rng.standard_normal((4, 5)) * rng.uniform(0.1, 20)
            labels = rng.integers(0, 5, size=4)
            assert softmax_cross_entropy(logits, labels)[0] >= 0.0


class TestBackward:
    def test_softmax_ce_analytic_gradient(self):
        _, dlogits = softmax_cross_entropy(np.zeros((1, 4)), np.array([0]))
        assert dlogits.ravel() == pytest.approx([-0.75, 0.25, 0.25, 0.25], abs=1e-12)

    def test_composite_mlp_matches_finite_differences(self):
        cfg = ModelConfig(layer_sizes=(3, 6, 3), seed=4)
        rng = np.random.default_rng(4)
        theta = init_params(cfg) + 0.1 * rng.standard_normal(param_count(cfg))
        x = rng.standard_normal((5, 3))
        y = rng.integers(0, 3, size=5)
        _, g_ad = loss_and_grad(theta, cfg, x, y)
        g_fd = finite_diff_gradient(lambda t: loss_and_grad(t, cfg, x, y)[0], theta, 1e-5)
        rel = np.abs(g_ad - g_fd).max() / max(np.abs(g_fd).max(), 1e-12)
        assert rel <= 1e-6

    def test_deterministic_bit_identical(self):
        cfg = ModelConfig(layer_sizes=(4, 5, 3), seed=9)
        rng = np.random.default_rng(9)
        theta = init_params(cfg)
        x = rng.standard_normal((6, 4))
        y = rng.integers(0, 3, size=6)
        v1, g1 = loss_and_grad(theta, cfg, x, y)
        v2, g2 = loss_and_grad(theta, cfg, x, y)
        assert v1 == v2
        assert np.array_equal(g1, g2)


# Property: the weighted batch gradient is the weighted mean of the batch-1
# gradients, the identity sfr_on's adaptive-coefficient ascent step relies on.
@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 6), min_size=2, max_size=4).map(lambda s: (*s[:-1], s[-1] + 1)),
    batch=st.integers(1, 9),
    seed=st.integers(0, 2**31 - 1),
)
def test_weighted_gradient_is_the_weighted_mean_of_per_sample_gradients(sizes, batch, seed):
    cfg = ModelConfig(layer_sizes=sizes, seed=seed)
    rng = np.random.default_rng(seed)
    theta = init_params(cfg) + 0.5 * rng.standard_normal(param_count(cfg))
    x = rng.standard_normal((batch, sizes[0]))
    y = rng.integers(0, sizes[-1], size=batch)
    w = rng.uniform(0.0, 3.0, size=batch)
    _, g = loss_and_grad(theta, cfg, x, y, w)
    per_sample = [loss_and_grad(theta, cfg, x[i : i + 1], y[i : i + 1])[1] for i in range(batch)]
    expected = np.mean([wi * gi for wi, gi in zip(w, per_sample)], axis=0)
    assert np.abs(g - expected).max() <= 1e-12 * max(np.abs(expected).max(), 1e-300)


class TestFiniteDiff:
    def test_sum_of_squares(self):
        grad = finite_diff_gradient(lambda t: float(np.sum(t * t)), np.array([1.0, 2.0]), 1e-5)
        assert grad == pytest.approx([2.0, 4.0], abs=1e-8)

    def test_constant_function(self):
        grad = finite_diff_gradient(lambda t: 1.5, np.array([0.3, -0.7, 2.0]), 1e-5)
        assert np.abs(grad).max() <= 1e-10

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError, match="positive"):
            finite_diff_gradient(lambda t: 0.0, np.zeros(2), 0.0)

    def test_nonfinite_objective_reports_coordinate(self):
        def f(t):
            return float("nan") if t[1] != 0.0 else 0.0

        with pytest.raises(ValueError, match="coordinate 1"):
            finite_diff_gradient(f, np.zeros(3), 1e-3)


class TestHessianVectorProduct:
    @staticmethod
    def _quad_grad(t):
        return np.diag([1.0, 2.0]) @ t

    def test_diagonal_quadratic(self):
        hv = hessian_vector_product(self._quad_grad, np.array([0.3, -0.4]), np.ones(2), 1e-5)
        assert hv == pytest.approx([1.0, 2.0], abs=1e-8)

    def test_zero_vector(self):
        hv = hessian_vector_product(self._quad_grad, np.ones(2), np.zeros(2), 1e-5)
        assert np.array_equal(hv, np.zeros(2))

    def test_symmetry_on_tiny_mlp(self):
        cfg = ModelConfig(layer_sizes=(3, 4, 2), seed=7)
        rng = np.random.default_rng(7)
        theta = init_params(cfg)
        x = rng.standard_normal((6, 3))
        y = rng.integers(0, 2, size=6)

        def grad_fn(t):
            return loss_and_grad(t, cfg, x, y)[1]

        u = rng.standard_normal(theta.size)
        v = rng.standard_normal(theta.size)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        hu = hessian_vector_product(grad_fn, theta, u, 1e-5)
        hv = hessian_vector_product(grad_fn, theta, v, 1e-5)
        assert np.dot(v, hu) == pytest.approx(np.dot(u, hv), abs=1e-5)

    def test_linear_in_v(self):
        rng = np.random.default_rng(3)
        theta = rng.standard_normal(4)
        mat = np.diag([1.0, 2.0, 0.5, 3.0])

        def grad_fn(t):
            return mat @ t

        v1 = rng.standard_normal(4)
        v2 = rng.standard_normal(4)
        a, b = 0.7, -1.3
        combined = hessian_vector_product(grad_fn, theta, a * v1 + b * v2, 1e-5)
        parts = a * hessian_vector_product(grad_fn, theta, v1, 1e-5) + (
            b * hessian_vector_product(grad_fn, theta, v2, 1e-5)
        )
        assert np.abs(combined - parts).max() <= 1e-8

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            hessian_vector_product(self._quad_grad, np.zeros(2), np.zeros(3), 1e-5)


def test_gradient_fidelity_sweep():
    assert check_gradients(seeds=20) <= 1e-6
