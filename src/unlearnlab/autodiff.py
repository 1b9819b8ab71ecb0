"""Dense float64 tensors with recorded reverse-mode differentiation.

The engine is deliberately small: it supports exactly the primitives the
unlearning and verification code needs (affine maps, relu, weighted softmax
cross-entropy, elementwise square, full-sum reduction). The finite-difference
oracles for gradients and Hessian-vector products live here too, so every
gradient path ships next to an independent numerical check.

Everything is 64-bit and single-threaded deterministic: identical inputs give
bit-identical outputs.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

PROB_CLAMP = 1e-12  # probability floor applied before every log


class Tensor:
    """One node of a recorded computation.

    Leaf nodes carry data only; interior nodes additionally hold their parent
    references and a closure that maps the output gradient to per-parent
    gradients. The graph is acyclic by construction (ops only consume already
    existing nodes).
    """

    __slots__ = ("data", "grad", "parents", "backward_fn")

    def __init__(self, data, parents=(), backward_fn=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.parents: tuple[Tensor, ...] = tuple(parents)
        self.backward_fn = backward_fn
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "leaf" if self.backward_fn is None else "op"
        return f"Tensor(shape={self.data.shape}, {kind})"


class ComputationRecord:
    """A finished forward computation: scalar root plus ordered leaf params.

    ``params`` fixes the flat gradient layout; ``backward`` returns one value
    per parameter entry, concatenated in this order.
    """

    def __init__(self, root: Tensor, params: Sequence[Tensor]):
        self.root = root
        self.params = list(params)

    @property
    def value(self) -> float:
        return float(self.root.data)


def _topo_order(root: Tensor) -> list[Tensor]:
    """Iterative postorder over the graph reachable from ``root``."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(record: ComputationRecord) -> np.ndarray:
    """Exact reverse-mode gradient of the scalar root w.r.t. the leaf params.

    Returns a flat float64 vector aligned with ``record.params`` order.
    Rejects records whose root is not a scalar.
    """
    root = record.root
    if root.data.ndim != 0:
        raise ValueError(f"backward needs a scalar root, got shape {root.data.shape}")
    order = _topo_order(root)
    for node in order:
        node.grad = None
    root.grad = np.ones((), dtype=np.float64)
    for node in reversed(order):
        if node.backward_fn is None or node.grad is None:
            continue
        parent_grads = node.backward_fn(node.grad)
        for parent, g in zip(node.parents, parent_grads):
            if g is None:
                continue
            if parent.grad is None:
                parent.grad = np.zeros_like(parent.data)
            parent.grad += g
    pieces = []
    for p in record.params:
        pieces.append((p.grad if p.grad is not None else np.zeros_like(p.data)).ravel())
    return np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.float64)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """y[r, c] = sum_k x[r, k] * w[k, c] + b[c], recorded for backward."""
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise ValueError(
            f"affine expects x[B,I], w[I,O], b[O]; got {x.shape}, {w.shape}, {b.shape}"
        )
    if x.data.shape[1] != w.data.shape[0] or w.data.shape[1] != b.data.shape[0]:
        raise ValueError(
            f"affine dimension mismatch: x{x.shape} @ w{w.shape} + b{b.shape}"
        )
    out_data = x.data @ w.data + b.data

    def backward_fn(out_grad):
        return (out_grad @ w.data.T, x.data.T @ out_grad, out_grad.sum(axis=0))

    return Tensor(out_data, (x, w, b), backward_fn)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); the subgradient at exactly 0 is 0."""
    mask = x.data > 0.0

    def backward_fn(out_grad):
        return (out_grad * mask,)

    return Tensor(np.where(mask, x.data, 0.0), (x,), backward_fn)


def square(x: Tensor) -> Tensor:
    """Elementwise x**2."""

    def backward_fn(out_grad):
        return (out_grad * 2.0 * x.data,)

    return Tensor(x.data * x.data, (x,), backward_fn)


def sum_all(x: Tensor) -> Tensor:
    """Sum of all entries, producing a scalar root."""

    def backward_fn(out_grad):
        return (np.full_like(x.data, float(out_grad)),)

    return Tensor(x.data.sum(), (x,), backward_fn)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of ``logits[B, C]``, stabilized by row-max subtraction."""
    expz = np.exp(logits - logits.max(axis=1, keepdims=True))
    return expz / expz.sum(axis=1, keepdims=True)


def log_clamped(probs: np.ndarray) -> np.ndarray:
    """Natural log of probabilities floored at ``PROB_CLAMP``."""
    return np.log(np.maximum(probs, PROB_CLAMP))


def softmax_cross_entropy(
    logits: Tensor,
    labels: np.ndarray,
    sample_weights: np.ndarray | None = None,
) -> Tensor:
    """Mean over the batch of w_i * (-log softmax(logits_i)[label_i]).

    Stabilized by row-max subtraction; probabilities are clamped at
    ``PROB_CLAMP`` before the log, which makes degenerate one-hot rows safe.
    Weights enter as constants and receive no gradient.
    """
    z = logits.data
    if z.ndim != 2:
        raise ValueError(f"softmax_cross_entropy expects logits[B,C], got {z.shape}")
    n, c = z.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(f"labels must have shape ({n},), got {labels.shape}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= c:
        bad = labels[(labels < 0) | (labels >= c)][0]
        raise ValueError(f"label {bad} out of range [0, {c})")
    if sample_weights is None:
        w = np.ones(n, dtype=np.float64)
    else:
        w = np.asarray(sample_weights, dtype=np.float64)
        if w.shape != (n,):
            raise ValueError(f"sample_weights must have shape ({n},), got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("sample_weights must be finite")

    probs = softmax(z)
    p_true = probs[np.arange(n), labels]
    out = (w * -log_clamped(p_true)).mean()

    def backward_fn(out_grad):
        # Rows whose clamped true-class probability sits below the floor are
        # flat in the clamp region, so they contribute zero gradient.
        scale = np.where(p_true > PROB_CLAMP, w / n, 0.0) * float(out_grad)
        dz = probs * scale[:, None]
        dz[np.arange(n), labels] -= scale
        return (dz,)

    return Tensor(out, (logits,), backward_fn)


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
