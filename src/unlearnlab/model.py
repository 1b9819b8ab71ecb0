"""Multilayer-perceptron classifier over a flat parameter vector.

All training and unlearning updates are plain arithmetic on the flat vector;
the layout is fixed (per layer: weight matrix row-major, then bias) so
gradients, Fisher diagonals, and masks all align coordinate-by-coordinate.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import threading
from dataclasses import dataclass

import numpy as np

from .autodiff import backward, check_labels, log_clamped, softmax, softmax_cross_entropy
from .data import json_object


def strict_from_dict(fn, d: dict, what: str, *args):
    """Call ``fn`` with the arguments ``strict_arguments`` reads."""
    bound = strict_arguments(fn, d, what, *args)
    return fn(*bound.args, **bound.kwargs)


def strict_arguments(fn, d: dict, what: str, *args) -> inspect.BoundArguments:
    """Bind ``args`` and one argument per key of the JSON table ``d`` to the
    signature of ``fn`` (a dataclass or an annotated function).

    A ``d`` that is not a JSON object and an unknown key raise ``ValueError``
    naming ``what``; a missing key with no default raises ``KeyError``.
    ``float`` parameters store ``float``, and take an integer only inside the
    float64 range; ``int`` parameters (and each entry of a ``tuple[int, ...]``,
    which takes a list only) take integral numbers only: ``2.0`` becomes
    ``2``, ``2.7`` is an error. ``int | None`` also takes ``null``, ``str``
    takes strings only and ``dict`` JSON objects only. Arguments are bound
    positionally where the signature allows.
    """
    sig = inspect.signature(fn, eval_str=True)
    params = list(sig.parameters.values())[len(args):]
    unknown = sorted(set(json_object(d, what)) - {p.name for p in params})
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown}")
    kwargs = {}
    for p in params:
        if p.name in d:
            kwargs[p.name] = coerce(d[p.name], p.annotation, f"{what} key '{p.name}'")
        elif p.default is inspect.Parameter.empty:
            raise KeyError(p.name)
    return sig.bind(*args, **kwargs)


def coerce(value, kind, where: str):
    """``value`` read as ``kind`` by the rules of ``strict_arguments``; a
    ``ValueError`` names ``where`` otherwise."""
    if kind == int | None:
        return None if value is None else coerce(value, int, where)
    if kind == tuple[int, ...]:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{where} must be a list of integers, got {value!r}")
        return tuple(coerce(v, int, where) for v in value)
    if kind is str and not isinstance(value, str):
        raise ValueError(f"{where} must be a string, got {value!r}")
    if kind is dict:
        return json_object(value, where)
    if kind not in (int, float):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where} must be a number, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{where} must be an integer, got {value!r}")
    try:
        return kind(value)
    except OverflowError:  # an integer past the float64 range
        raise ValueError(f"{where} is outside the float64 range") from None


def check_finite_floats(config) -> None:
    """``ValueError`` naming the first ``float`` field of the dataclass
    ``config`` that holds NaN or an infinity: ``nan <= 0`` is false, so a
    range check alone lets NaN through."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.type in (float, "float") and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class ModelConfig:
    """Fully-connected relu net: sizes are (input, hidden..., classes)."""

    layer_sizes: tuple[int, ...]
    init_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        check_finite_floats(self)
        object.__setattr__(self, "layer_sizes", tuple(int(s) for s in self.layer_sizes))
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least input and output layer sizes")
        if any(s < 1 for s in self.layer_sizes):
            raise ValueError(f"layer sizes must be >= 1, got {self.layer_sizes}")
        if self.init_scale <= 0:
            raise ValueError(f"init_scale must be positive, got {self.init_scale}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return strict_from_dict(cls, d, "model config")


def layer_shapes(cfg: ModelConfig) -> list[tuple[tuple[int, int], int]]:
    sizes = cfg.layer_sizes
    return [((sizes[i], sizes[i + 1]), sizes[i + 1]) for i in range(len(sizes) - 1)]


def param_count(cfg: ModelConfig) -> int:
    return sum(i * o + o for (i, o), _ in layer_shapes(cfg))


def init_params(cfg: ModelConfig) -> np.ndarray:
    """Seeded init: W ~ Uniform(-s, s) with s = init_scale / sqrt(fan_in), b = 0."""
    rng = np.random.default_rng(cfg.seed)
    pieces = []
    for (fan_in, fan_out), _ in layer_shapes(cfg):
        s = cfg.init_scale / np.sqrt(fan_in)
        pieces.append(rng.uniform(-s, s, size=fan_in * fan_out))
        pieces.append(np.zeros(fan_out))
    return np.concatenate(pieces).astype(np.float64)


def unflatten(theta: np.ndarray, cfg: ModelConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split the flat vector into per-layer (W, b) views."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (param_count(cfg),):
        raise ValueError(
            f"parameter vector has length {theta.size}, expected {param_count(cfg)}"
        )
    layers = []
    pos = 0
    for (fan_in, fan_out), bias in layer_shapes(cfg):
        w = theta[pos : pos + fan_in * fan_out].reshape(fan_in, fan_out)
        pos += fan_in * fan_out
        b = theta[pos : pos + bias]
        pos += bias
        layers.append((w, b))
    return layers


def flatten(layers: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    pieces = []
    for w, b in layers:
        pieces.append(np.asarray(w, dtype=np.float64).ravel())
        pieces.append(np.asarray(b, dtype=np.float64).ravel())
    return np.concatenate(pieces)


# The largest hidden-layer buffer a thread keeps between forward passes, in
# bytes. A pass whose activation would be larger allocates it afresh.
FORWARD_BUFFER_MAX_BYTES = 4 << 20

_workspace = threading.local()


def _hidden_buffer(layer: int, rows: int, width: int) -> np.ndarray:
    """A ``(rows, width)`` array for hidden layer ``layer``: a view of this
    thread's flat buffer for that layer, grown when it is too short, or a new
    array when the buffer would exceed ``FORWARD_BUFFER_MAX_BYTES``."""
    size = rows * width
    buffers = getattr(_workspace, "buffers", None)
    if buffers is None:
        buffers = _workspace.buffers = {}
    buf = buffers.get(layer)
    if buf is None or buf.size < size:
        if 8 * size > FORWARD_BUFFER_MAX_BYTES:
            return np.empty((rows, width))
        buf = buffers[layer] = np.empty(size)
    return buf[:size].reshape(rows, width)


def _forward(
    layers: list[tuple[np.ndarray, np.ndarray]], x: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """Each layer's input (the data ``x``, then the relu outputs) and the logits.

    The relu outputs are views of this thread's hidden-layer buffers, valid
    until the thread's next ``_forward``; the logits are a new array.
    """
    x = np.asarray(x, dtype=np.float64)
    width = layers[0][0].shape[0]
    if x.ndim != 2 or x.shape[1] != width:
        raise ValueError(f"input has shape {x.shape}, expected (batch, {width})")
    inputs = [x]
    # Each matmul writes into its layer's buffer, and bias and relu act in
    # place there, so a warm pass allocates no hidden activation; the bits
    # are those of np.maximum(a @ w + b, 0).
    for i, (w, b) in enumerate(layers[:-1]):
        h = np.matmul(inputs[-1], w, out=_hidden_buffer(i, len(x), w.shape[1]))
        h += b
        inputs.append(np.maximum(h, 0.0, out=h))
    w, b = layers[-1]
    logits = inputs[-1] @ w
    logits += b
    return inputs, logits


def forward_logits(theta: np.ndarray, cfg: ModelConfig, x: np.ndarray) -> np.ndarray:
    """Affine/relu chain with a linear final layer."""
    return _forward(unflatten(theta, cfg), x)[1]


def loss_and_grad(
    theta: np.ndarray,
    cfg: ModelConfig,
    x: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """mean_i w_i * CE(theta; x_i, y_i) and its gradient in the flat layout.

    Weights are constants (no gradient flows through them).
    """
    layers = unflatten(theta, cfg)
    inputs, logits = _forward(layers, x)
    loss, dlogits = softmax_cross_entropy(logits, y, weights)
    return loss, flatten(backward(layers, inputs, dlogits))


def per_sample_losses(
    theta: np.ndarray, cfg: ModelConfig, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Per-sample cross-entropy (used for adaptive weighting)."""
    logits = forward_logits(theta, cfg, x)
    y = check_labels(y, *logits.shape)
    return -log_clamped(softmax(logits)[np.arange(len(y)), y])


def argmax_labels(logits: np.ndarray) -> np.ndarray:
    """Row argmax with ties broken toward the lowest class index."""
    return np.argmax(logits, axis=1).astype(np.int64)
