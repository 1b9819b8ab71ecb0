"""Numerical verification of the steepest-descent theory behind the updates.

Three families of checks:

* Closed-form checks on a Gaussian-quadratic testbed. When model outputs are
  fixed-covariance Gaussians, the output KL between two parameter vectors is
  a quadratic form, every Hessian involved is a constant matrix, and all
  Taylor remainders vanish; the first-order descent identities then must hold
  to linear-algebra accuracy.
* A Hessian-vector-product check that one fast ascent step followed by one
  repair step realizes the curvature-adjusted direction on a real tiny
  network, up to a second-order remainder trackable in the step sizes. The
  realized step is ``sfr_on``'s own inner pass, ``unlearn.repaired_point``,
  run on the whole forget set and one batch of the whole remain set.
* Gradient fidelity of the explicit backward chain against central finite
  differences, and the KL mixture split over disjoint forget/remain outcome
  spaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import finite_diff_gradient, hessian_vector_product
from .data import Dataset, ForgetSplit, generate_blobs, make_random_subset_split
from .model import (
    ModelConfig,
    init_params,
    loss_and_grad,
    param_count,
    per_sample_losses,
)
from .unlearn import adaptive_coefficients, repaired_point

HVP_STEP = 1e-5  # perturbation norm used for finite-difference curvature


@dataclass(frozen=True)
class QuadraticTestbed:
    """Quadratic losses with Gaussian-output KL geometry.

    ``a_mat`` and ``b_mat`` are the SPD curvature matrices of the forgetting
    and remaining losses (minimized at ``a`` and ``b``); ``eps`` weights the
    forgetting loss and ``p_f`` the forgetting mixture proportion. The
    retrained optimum is ``b``. Output KL to it is
    0.5 (theta-b)^T [p_f A + (1-p_f) B] (theta-b).
    """

    a_mat: np.ndarray
    b_mat: np.ndarray
    a: np.ndarray
    b: np.ndarray
    eps: float
    p_f: float

    def __post_init__(self):
        for name, m in (("a_mat", self.a_mat), ("b_mat", self.b_mat)):
            if not np.allclose(m, m.T):
                raise ValueError(f"{name} must be symmetric")
            if np.linalg.eigvalsh(m).min() <= 0:
                raise ValueError(f"{name} must be positive definite")
        if not 0 < self.p_f < 1:
            raise ValueError(f"p_f must be in (0,1), got {self.p_f}")

    @property
    def p_r(self) -> float:
        return 1.0 - self.p_f

    def forget_direction(self) -> tuple[np.ndarray, np.ndarray]:
        """The weighted minimum theta, the closed-form argmin of remain loss
        + eps * forget loss, and A_f B_r^{-1} (-grad_f) there, where grad_f
        is the gradient of the weighted forgetting loss."""
        lhs = self.b_mat + self.eps * self.a_mat
        rhs = self.b_mat @ self.b + self.eps * self.a_mat @ self.a
        theta = np.linalg.solve(lhs, rhs)
        grad_f = self.eps * (self.a_mat @ (theta - self.a))
        return theta, self.a_mat @ np.linalg.solve(self.b_mat, -grad_f)


@dataclass
class DirectionCheckResult:
    cosine: float
    rel_norm_err: float
    residual: float


def _random_spd(dim: int, rng: np.random.Generator) -> np.ndarray:
    # Well-conditioned by construction: eigenvalues in [0.5, 3.0].
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigs = rng.uniform(0.5, 3.0, size=dim)
    return q @ np.diag(eigs) @ q.T


def make_random_testbed(dim: int, seed: int) -> QuadraticTestbed:
    rng = np.random.default_rng(seed)
    return QuadraticTestbed(
        a_mat=_random_spd(dim, rng),
        b_mat=_random_spd(dim, rng),
        a=rng.standard_normal(dim),
        b=rng.standard_normal(dim),
        eps=float(rng.uniform(0.2, 2.0)),
        p_f=float(rng.uniform(0.05, 0.5)),
    )


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu < 1e-300 and nv < 1e-300:
        return 1.0  # both directions vanish; treat as aligned
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def _compare(u: np.ndarray, v: np.ndarray) -> DirectionCheckResult:
    """The cosine of ``u`` and ``v``, ||u - v|| / ||u|| and ||u - v||."""
    gap = np.linalg.norm(u - v)
    return DirectionCheckResult(
        cosine=_cosine(u, v),
        rel_norm_err=float(gap / max(np.linalg.norm(u), 1e-300)),
        residual=float(gap),
    )


def check_kl_mixture(
    dist_f_pair: tuple[np.ndarray, np.ndarray],
    dist_r_pair: tuple[np.ndarray, np.ndarray],
    p_f: float,
) -> float:
    """Residual of KL(mixture || mixture') vs p_f*KL_f + (1-p_f)*KL_r.

    The component distributions live on disjoint outcome spaces; the mixtures
    weight them by p_f and 1-p_f. The split is an exact identity, so the
    residual of the direct summation should be at floating-point level.
    """
    if not 0 < p_f < 1:
        raise ValueError(f"p_f must be in (0,1), got {p_f}")
    pf_arr, qf_arr = (np.asarray(d, dtype=np.float64) for d in dist_f_pair)
    pr_arr, qr_arr = (np.asarray(d, dtype=np.float64) for d in dist_r_pair)
    for name, d in (
        ("forget P", pf_arr), ("forget Q", qf_arr),
        ("remain P", pr_arr), ("remain Q", qr_arr),
    ):
        if abs(d.sum() - 1.0) > 1e-9:
            raise ValueError(f"{name} is not normalized (sums to {d.sum():.12f})")
        if (d <= 0).any():
            raise ValueError(f"{name} must be strictly positive")

    def kl(p, q):
        return float(np.sum(p * (np.log(p) - np.log(q))))

    mix_p = np.concatenate([p_f * pf_arr, (1.0 - p_f) * pr_arr])
    mix_q = np.concatenate([p_f * qf_arr, (1.0 - p_f) * qr_arr])
    lhs = kl(mix_p, mix_q)
    rhs = p_f * kl(pf_arr, qf_arr) + (1.0 - p_f) * kl(pr_arr, qr_arr)
    return abs(lhs - rhs)


def check_euclidean_direction(tb: QuadraticTestbed) -> DirectionCheckResult:
    """Steepest-descent identity under the Euclidean metric, on quadratics.

    The predicted per-unit-step direction
    d = -[A_f B_r^{-1} (-grad_f) p_f + grad_r p_r], with the gradients taken
    at the weighted minimum, must equal minus the exact KL-objective gradient
    g = [p_f A_f + p_r B_r](theta - b). Reports ||d + g||.
    """
    theta, forget_dir = tb.forget_direction()
    grad_r = tb.b_mat @ (theta - tb.b)
    d = -(forget_dir * tb.p_f + grad_r * tb.p_r)
    g = (tb.p_f * tb.a_mat + tb.p_r * tb.b_mat) @ (theta - tb.b)
    return _compare(d, -g)


def check_manifold_direction(tb: QuadraticTestbed, alpha: float) -> DirectionCheckResult:
    """Descent identity under the remain-output-KL metric, on quadratics.

    The predicted direction -atil * B_r^{-1}[A_f B_r^{-1}(-grad_f)] with
    atil = alpha*p_f/(alpha*p_r + 1) must match the closed-form minimizer of
    the surrogate: linearized forgetting term (weighted p_f) plus
    (p_r + 1/alpha) * 0.5 * d^T B_r d. Reports the gap between the two.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    _, forget_dir = tb.forget_direction()
    atil = alpha * tb.p_f / (alpha * tb.p_r + 1.0)
    predicted = -atil * np.linalg.solve(tb.b_mat, forget_dir)
    # Closed-form minimizer of the quadratic surrogate.
    scale = tb.p_r + 1.0 / alpha
    oracle = -np.linalg.solve(scale * tb.b_mat, tb.p_f * forget_dir)
    return _compare(oracle, predicted)


def _realized_step(theta, cfg, dataset, split, beta_f, beta_r, mask, coeffs):
    """``repaired_point`` on the whole forget set and one whole remain batch:
    returns u = theta - repaired, grad_u (minus the masked weighted forget
    gradient), the remain gradient at ``theta`` and the remain-gradient map."""
    theta = np.asarray(theta, dtype=np.float64)
    mask = np.ones_like(theta) if mask is None else mask
    fx, fy = dataset.features[split.forget_idx], dataset.labels[split.forget_idx]
    rx, ry = dataset.features[split.remain_idx], dataset.labels[split.remain_idx]
    u = theta - repaired_point(theta, cfg, fx, fy, coeffs, mask, beta_f, beta_r, [(rx, ry)])
    _, grad_f = loss_and_grad(theta, cfg, fx, fy, weights=coeffs)

    def remain_grad(t):
        return loss_and_grad(t, cfg, rx, ry)[1]

    return u, -(mask * grad_f), remain_grad(theta), remain_grad


def check_fast_slow_direction(
    theta: np.ndarray,
    cfg: ModelConfig,
    dataset: Dataset,
    split: ForgetSplit,
    beta_f: float,
    beta_r: float,
    mask: np.ndarray | None = None,
    coeffs: np.ndarray | None = None,
) -> DirectionCheckResult:
    """One fast ascent step plus one repair step vs. its curvature prediction.

    Realized direction: u = theta - theta_rep after ``sfr_on``'s own inner
    pass, ``repaired_point``, with one repair step. Predicted:
    v = beta_f (I - beta_r H_r) grad_u + beta_r grad_r, where grad_u is minus
    the masked weighted forgetting gradient and H_r grad_u comes from the
    finite-difference Hessian-vector product. Agreement is limited only by
    the O(beta_f^2) Taylor remainder of the repair gradient.
    """
    u, grad_u, grad_r, remain_grad = _realized_step(
        theta, cfg, dataset, split, beta_f, beta_r, mask, coeffs
    )
    gu_norm = np.linalg.norm(grad_u)
    if gu_norm > 0 and beta_r > 0:
        h = HVP_STEP / gu_norm
        hessian_term = hessian_vector_product(remain_grad, theta, grad_u, h)
    else:
        hessian_term = np.zeros_like(grad_u)
    v = beta_f * (grad_u - beta_r * hessian_term) + beta_r * grad_r
    if not np.all(np.isfinite(v)) or not np.all(np.isfinite(u)):
        raise ValueError("non-finite intermediate in fast-slow check")
    return _compare(u, v)


def fast_slow_joint_remainder(
    theta: np.ndarray,
    cfg: ModelConfig,
    dataset: Dataset,
    split: ForgetSplit,
    beta: float,
    mask: np.ndarray | None = None,
    coeffs: np.ndarray | None = None,
) -> float:
    """Distance between the realized one-step fast-slow update and the plain
    joint direction beta*(grad_u + grad_r), with beta_f = beta_r = beta.

    This gap is exactly the curvature adjustment the repair step introduces;
    it scales as beta^2, so doubling beta should roughly quadruple it.
    """
    u, grad_u, grad_r, _ = _realized_step(theta, cfg, dataset, split, beta, beta, mask, coeffs)
    return float(np.linalg.norm(u - beta * (grad_u + grad_r)))


def check_gradients(seeds: int = 20, h: float = 1e-5) -> float:
    """Max relative error of the explicit backward chain vs. central
    differences over random small relu nets and batches (one net per seed,
    <= 1000 parameters)."""
    worst = 0.0
    for seed in range(seeds):
        rng = np.random.default_rng(1000 + seed)
        dim = int(rng.integers(2, 6))
        hidden = int(rng.integers(3, 12))
        classes = int(rng.integers(2, 5))
        cfg = ModelConfig(
            layer_sizes=(dim, hidden, classes), init_scale=1.0, seed=seed
        )
        assert param_count(cfg) <= 1000
        theta = init_params(cfg) + 0.1 * rng.standard_normal(param_count(cfg))
        x = rng.standard_normal((8, dim))
        y = rng.integers(0, classes, size=8)
        weights = rng.uniform(0.2, 2.0, size=8)
        _, g_ad = loss_and_grad(theta, cfg, x, y, weights)

        # The same weighted mean as loss_and_grad's value, computed from
        # per-sample losses, so the oracle runs neither
        # softmax_cross_entropy nor the backward chain it checks.
        def objective(t, cfg=cfg, x=x, y=y, weights=weights):
            return np.mean(weights * per_sample_losses(t, cfg, x, y))

        g_fd = finite_diff_gradient(objective, theta, h)
        scale = max(np.abs(g_fd).max(), 1e-12)
        worst = max(worst, float(np.abs(g_ad - g_fd).max() / scale))
    return worst


def _fastslow_testbed() -> tuple[np.ndarray, ModelConfig, Dataset, ForgetSplit]:
    dataset = generate_blobs(seed=5, n_per_class=40, class_count=3, dim=4, spread=0.9)
    split = make_random_subset_split(dataset, fraction=0.2, test_fraction=0.1, seed=5)
    cfg = ModelConfig(layer_sizes=(4, 10, 3), init_scale=1.0, seed=5)
    theta = init_params(cfg)
    # A few descent steps so the remain gradient is informative but nonzero.
    for _ in range(30):
        _, g = loss_and_grad(
            theta, cfg, dataset.features[split.remain_idx],
            dataset.labels[split.remain_idx],
        )
        theta = theta - 0.1 * g
    return theta, cfg, dataset, split


SUITES = ("grad", "prop1", "prop2", "fastslow", "klmix", "all")


def run_suite(suite: str) -> dict:
    """Run a named verification suite and return a JSON-ready report."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")
    checks: list[dict] = []

    def add(name: str, passed: bool, residuals: dict):
        checks.append({"check_name": name, "pass": bool(passed), "residuals": residuals})

    if suite in ("grad", "all"):
        err = check_gradients(seeds=20)
        add("gradient_fidelity", err <= 1e-6, {"max_rel_err": err})

    if suite in ("prop1", "all"):
        worst = 0.0
        for i in range(10):
            tb = make_random_testbed(dim=2 + i % 7, seed=200 + i)
            worst = max(worst, check_euclidean_direction(tb).residual)
        add("euclidean_direction", worst <= 1e-9, {"max_residual": worst})

    if suite in ("prop2", "all"):
        worst = 0.0
        for i in range(10):
            tb = make_random_testbed(dim=2 + i % 7, seed=200 + i)
            worst = max(worst, check_manifold_direction(tb, 0.25 + 0.1 * i).residual)
        add("manifold_direction", worst <= 1e-10, {"max_residual": worst})

    if suite in ("fastslow", "all"):
        theta, cfg, dataset, split = _fastslow_testbed()
        n_f = len(split.forget_idx)
        coeffs = adaptive_coefficients(np.ones(n_f), t=0, big_t=10, lambda_temp=0.5)
        res = check_fast_slow_direction(
            theta, cfg, dataset, split, beta_f=1e-4, beta_r=1e-4, coeffs=coeffs
        )
        remainders = [
            fast_slow_joint_remainder(theta, cfg, dataset, split, beta, coeffs=coeffs)
            for beta in (1e-4, 2e-4, 4e-4)
        ]
        ratios = [remainders[1] / remainders[0], remainders[2] / remainders[1]]
        ratios_ok = all(3.0 <= r <= 5.0 for r in ratios)
        add(
            "fast_slow_direction",
            res.cosine >= 0.999 and res.rel_norm_err <= 0.01 and ratios_ok,
            {
                "cosine": res.cosine,
                "rel_norm_err": res.rel_norm_err,
                "remainder_ratios": ratios,
            },
        )

    if suite in ("klmix", "all"):
        worst = 0.0
        rng = np.random.default_rng(77)
        for _ in range(50):
            sizes = rng.integers(2, 8, size=2)
            dists = []
            for n in (sizes[0], sizes[0], sizes[1], sizes[1]):
                d = rng.uniform(0.05, 1.0, size=n)
                dists.append(d / d.sum())
            p_f = float(rng.uniform(0.01, 0.99))
            worst = max(
                worst,
                check_kl_mixture((dists[0], dists[1]), (dists[2], dists[3]), p_f),
            )
        add("kl_mixture_split", worst <= 1e-12, {"max_residual": worst})

    return {
        "suite": suite,
        "pass": all(c["pass"] for c in checks),
        "checks": checks,
    }
