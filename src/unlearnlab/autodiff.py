"""Loss, gradient chain and numerics of the library's relu MLP.

Every update in the library needs one gradient: weighted softmax
cross-entropy through a fixed chain of affine layers with relu between them.
``softmax_cross_entropy`` gives the loss and its gradient with respect to the
logits, and ``backward`` carries that gradient back through the layers.
``squared_sample_grads`` carries it the same way but sums each row's squared
gradient, which the Fisher diagonal needs. The library's one softmax and
probability clamp live here too, as do the finite-difference oracles for
gradients and Hessian-vector products, so the explicit chain ships next to an
independent numerical check.

Everything is 64-bit and single-threaded deterministic: identical inputs give
bit-identical outputs.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

PROB_CLAMP = 1e-12  # probability floor applied before every log


def _reduce_by_column(ufunc: np.ufunc, x: np.ndarray, start: float) -> np.ndarray:
    """``ufunc.reduce(x, axis=1)`` of ``x[B, C]``, bit for bit, with one
    whole-column ``ufunc`` call per class.

    numpy's ``axis=1`` reduce runs its inner loop once per row, which costs
    far more than the arithmetic when C is small. Up to 7 classes it reduces
    a row one entry at a time, left to right from ``start``, and the columns
    are taken in that order; wider rows take its pairwise and SIMD paths, so
    they are left to it. A NaN row stays NaN, though not always with the
    payload numpy's reduce would pick.
    """
    if x.shape[1] > 7:
        return ufunc.reduce(x, axis=1)
    acc = ufunc(x[:, 0], start)
    for j in range(1, x.shape[1]):
        ufunc(acc, x[:, j], out=acc)
    return acc


def row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=1)`` of ``x[B, C]``, bit for bit, by column."""
    return _reduce_by_column(np.maximum, x, -np.inf)


def row_sum(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=1)`` of ``x[B, C]``, bit for bit, by column."""
    return _reduce_by_column(np.add, x, 0.0)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of ``logits[B, C]``, stabilized by row-max subtraction."""
    expz = logits - row_max(logits)[:, None]
    np.exp(expz, out=expz)
    expz /= row_sum(expz)[:, None]
    return expz


def log_clamped(probs: np.ndarray) -> np.ndarray:
    """Natural log of probabilities floored at ``PROB_CLAMP``, in one new array."""
    out = np.maximum(probs, PROB_CLAMP)
    return np.log(out, out=out)


def check_labels(labels, n: int, c: int) -> np.ndarray:
    """``labels`` as an array of shape ``(n,)`` with every entry in ``[0, c)``."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(f"labels must have shape ({n},), got {labels.shape}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= c:
        bad = labels[(labels < 0) | (labels >= c)][0]
        raise ValueError(f"label {bad} out of range [0, {c})")
    return labels


def softmax_cross_entropy(
    logits: np.ndarray,
    labels: np.ndarray,
    sample_weights: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Mean over the batch of w_i * (-log softmax(logits_i)[label_i]), and its
    gradient with respect to ``logits``.

    Stabilized by row-max subtraction; probabilities are clamped at
    ``PROB_CLAMP`` before the log, which makes degenerate one-hot rows safe.
    Weights enter as constants and receive no gradient.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError(f"softmax_cross_entropy expects logits[B,C], got {z.shape}")
    n, c = z.shape
    labels = check_labels(labels, n, c)
    if sample_weights is None:
        w = np.ones(n, dtype=np.float64)
    else:
        w = np.asarray(sample_weights, dtype=np.float64)
        if w.shape != (n,):
            raise ValueError(f"sample_weights must have shape ({n},), got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("sample_weights must be finite")

    probs = softmax(z)
    rows = np.arange(n)
    p_true = probs[rows, labels]
    loss = float((w * -log_clamped(p_true)).mean())
    # Rows whose true-class probability sits below the floor are flat in the
    # clamp region, so they contribute zero gradient.
    scale = np.where(p_true > PROB_CLAMP, w / n, 0.0)
    dlogits = probs
    dlogits *= scale[:, None]
    dlogits[rows, labels] -= scale
    return loss, dlogits


def backward(
    layers: list[tuple[np.ndarray, np.ndarray]],
    inputs: list[np.ndarray],
    dlogits: np.ndarray,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer ``(dW, db)`` of the affine/relu chain, given d loss/d logits.

    ``inputs[i]`` is the input layer i saw in the forward pass: the data for
    layer 0, a relu output after that. A hidden unit whose relu output is 0
    passes no gradient (the subgradient at exactly 0 is 0).
    """
    grads = []
    dz = dlogits
    for i in range(len(layers) - 1, -1, -1):
        a = inputs[i]
        grads.append((a.T @ dz, dz.sum(axis=0)))
        if i:
            dz = dz @ layers[i][0].T
            dz *= a > 0
    grads.reverse()
    return grads


def squared_sample_grads(
    layers: list[tuple[np.ndarray, np.ndarray]],
    inputs: list[np.ndarray],
    dz: np.ndarray,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer sums over the rows of each row's squared gradient.

    Row r's gradient is what ``backward`` gives for that row alone with
    error ``dz[r]``: its weight gradient is the outer product of the layer
    input a_r and the carried error δ_r, so the squares sum to (a²)ᵀ(δ²) and
    the bias squares to Σ δ² (Goodfellow, arXiv 1510.01799). ``dz`` is carried
    back exactly as ``backward`` carries it.
    """
    sums = []
    for i in range(len(layers) - 1, -1, -1):
        a = inputs[i]
        dz2 = dz * dz
        sums.append(((a * a).T @ dz2, dz2.sum(axis=0)))
        if i:
            dz = dz @ layers[i][0].T
            dz *= a > 0
    sums.reverse()
    return sums


def finite_diff_gradient(
    f: Callable[[np.ndarray], float], theta: np.ndarray, h: float
) -> np.ndarray:
    """Central-difference gradient oracle: (f(t+h e_i) - f(t-h e_i)) / 2h."""
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    work = theta.copy()
    for i in range(theta.size):
        orig = work[i]
        work[i] = orig + h
        f_plus = float(f(work))
        work[i] = orig - h
        f_minus = float(f(work))
        work[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise ValueError(f"non-finite objective at coordinate {i}")
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def hessian_vector_product(
    grad_fn: Callable[[np.ndarray], np.ndarray],
    theta: np.ndarray,
    v: np.ndarray,
    h: float,
) -> np.ndarray:
    """Approximate H @ v via central differences of a gradient function.

    Computes (grad_fn(theta + h v) - grad_fn(theta - h v)) / (2h). Exact for
    quadratics; O(h^2 ||v||^2) error otherwise.
    """
    theta = np.asarray(theta, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if theta.shape != v.shape:
        raise ValueError(f"vector shape {v.shape} != parameter shape {theta.shape}")
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    g_plus = np.asarray(grad_fn(theta + h * v), dtype=np.float64)
    g_minus = np.asarray(grad_fn(theta - h * v), dtype=np.float64)
    if not (np.all(np.isfinite(g_plus)) and np.all(np.isfinite(g_minus))):
        raise ValueError("non-finite gradient during Hessian-vector product")
    return (g_plus - g_minus) / (2.0 * h)
