"""Traced mode: spans around the calls into each unlearnlab module.

``Tracer.install`` wraps each function in ``TARGETS`` at its module attribute
and at every name a sibling module imported it under (for example
``unlearnlab.trainer.loss_and_grad``), so calls between library modules are
seen too. Spans (name, start, end, parent, op id, size) stay in memory and
are written out when the run ends. ``layer_metrics`` turns them into the
per-layer metrics listed in ``LAYER_METRICS``.

Nothing here is active in the untraced run: the wrappers exist only between
``install`` and ``uninstall``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

NS = 1e-9


def _rows(args, kwargs, result):
    return len(args[2]) if len(args) > 2 else len(kwargs["x"])


def _csv_written(args, kwargs, result):
    return os.path.getsize(args[1])


def _csv_read(args, kwargs, result):
    return os.path.getsize(args[0])


def _checkpoint_bytes(args, kwargs, result):
    directory = args[1]
    return sum(os.path.getsize(os.path.join(directory, f)) for f in os.listdir(directory))


def _steps(args, kwargs, result):
    return int(result.provenance["steps"])


def _t_out(args, kwargs, result):
    return int((args[4] if len(args) > 4 else kwargs["ucfg"]).t_out)


def _method_name(args, kwargs):
    return "unlearn.method." + (args[4] if len(args) > 4 else kwargs["ucfg"]).method


# (module, function, span name or name function, size function or None).
# A size function reads the call's arguments and result and returns an int
# recorded with the span (rows, bytes, steps).
TARGETS = [
    ("autodiff", "backward", "autodiff.backward", None),
    ("autodiff", "softmax_cross_entropy", "autodiff.softmax_cross_entropy", None),
    ("autodiff", "finite_diff_gradient", "autodiff.finite_diff_gradient", None),
    ("autodiff", "hessian_vector_product", "autodiff.hessian_vector_product", None),
    ("model", "loss_and_grad", "model.loss_and_grad", _rows),
    ("model", "forward_logits", "model.forward_logits", _rows),
    ("model", "per_sample_losses", "model.per_sample_losses", None),
    ("data", "generate_blobs", "data.generate_blobs", None),
    ("data", "make_random_subset_split", "data.split", None),
    ("data", "make_classwise_split", "data.split", None),
    ("data", "save_csv_dataset", "data.csv_write", _csv_written),
    ("data", "load_csv_dataset", "data.csv_read", _csv_read),
    ("trainer", "sgd_train", "trainer.sgd_train", _steps),
    ("trainer", "retrain_oracle", "trainer.retrain_oracle", None),
    ("trainer", "save_checkpoint", "trainer.checkpoint_save", _checkpoint_bytes),
    ("trainer", "load_checkpoint", "trainer.checkpoint_load", None),
    ("unlearn", "fisher_diagonals", "unlearn.fisher_diagonals", None),
    ("unlearn", "sfr_on", "unlearn.sfr_on", _t_out),
    ("unlearn", "_sample_batch", "unlearn.sample_batch", None),
    ("unlearn", "adaptive_coefficients", "unlearn.adaptive_coefficients", None),
    ("unlearn", "saliency_mask", "unlearn.saliency_mask", None),
    ("unlearn", "run_unlearning", _method_name, None),
    ("metrics", "full_report", "metrics.full_report", None),
    ("metrics", "entropy_attack", "metrics.entropy_attack", None),
    ("metrics", "empirical_kl", "metrics.empirical_kl", None),
    ("verify", "run_suite", "verify.run_suite", None),
    ("verify", "check_gradients", "verify.check_gradients", None),
    ("verify", "check_fast_slow_direction", "verify.fast_slow", None),
    ("cli", "cmd_pretrain", "cli.pretrain", None),
    ("cli", "cmd_retrain", "cli.retrain", None),
    ("cli", "cmd_unlearn", "cli.unlearn", None),
    ("cli", "cmd_eval", "cli.eval", None),
    ("cli", "cmd_report", "cli.report", None),
    ("cli", "cmd_verify", "cli.verify", None),
]

MODULES = ("autodiff", "model", "data", "trainer", "unlearn", "metrics", "verify", "cli")
OP_SPAN = "bench.op"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []  # (name id, start ns, end ns, parent, op, size)
        self._stack: list[int] = []
        self._patches: list = []
        self.op = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, size=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        fixed = self.name_id(name) if isinstance(name, str) else None

        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else self.name_id(name(args, kwargs))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, self.op, -1)
            if size is not None:
                spans[idx] = (nid, t0, t1, parent, self.op, size(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code (the op root)."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (self.name_id(name), t0, t1, parent, self.op, -1)

    def install(self) -> None:
        """Wrap every target wherever an ``unlearnlab`` module refers to it."""
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "unlearnlab" or n.startswith("unlearnlab."))
        ]
        for mod_name, attr, name, size in TARGETS:
            original = getattr(sys.modules[f"unlearnlab.{mod_name}"], attr)
            wrapper = self.wrap(original, name, size)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def arrays(self) -> dict:
        table = np.array(self.spans, dtype=np.int64).reshape(-1, 6)
        return {
            "name": table[:, 0], "start": table[:, 1], "end": table[:, 2],
            "parent": table[:, 3], "op": table[:, 4], "size": table[:, 5],
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(json.dumps(self.names)), **self.arrays())


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one traced call adds to a plain one: the median over
    ``repeats`` of the extra time of ``calls`` wrapped no-op calls."""
    tracer = Tracer()

    def noop(*args, **kwargs):
        return None

    wrapped = tracer.wrap(noop, "noop")
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop(1, 2)
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped(1, 2)
        t2 = time.perf_counter()
        tracer.spans.clear()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return max(float(np.median(costs)), 0.0)


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it its child spans cover.

    Spans must be listed in start order (as the tracer records them), so a
    parent precedes its children and siblings arrive sorted by start.
    Overlapping children are counted once; children are clipped to the
    parent's interval.
    """
    covered = np.zeros(len(start), dtype=np.int64)
    reach: dict[int, int] = {}  # parent -> end of the coverage so far
    for i in np.flatnonzero(parent >= 0):
        p = int(parent[i])
        lo = max(int(start[i]), reach.get(p, int(start[p])))
        hi = min(int(end[i]), int(end[p]))
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return (end - start) - covered


def _descendants(names: np.ndarray, parent: np.ndarray, ancestor: int) -> np.ndarray:
    """Mask of spans that have a span named ``ancestor`` above them."""
    under = np.zeros(len(names), dtype=bool)
    for i in np.flatnonzero(parent >= 0):
        p = parent[i]
        under[i] = names[p] == ancestor or under[p]
    return under


def _direct_children(names: np.ndarray, parent: np.ndarray, ancestor: int) -> np.ndarray:
    has_parent = parent >= 0
    out = np.zeros(len(names), dtype=bool)
    out[has_parent] = names[parent[has_parent]] == ancestor
    return out


# name -> unit; "better" is "lower" for every per-layer metric.
LAYER_METRICS = {
    "autodiff.backward.calls": "count",
    "autodiff.backward.self_s": "s",
    "autodiff.softmax_cross_entropy.self_s": "s",
    "autodiff.finite_diff_gradient.s": "s",
    "autodiff.hessian_vector_product.s": "s",
    "model.loss_and_grad.calls": "count",
    "model.loss_and_grad.self_s": "s",
    "model.loss_and_grad.us_b1": "us",
    "model.loss_and_grad.us_b2-64": "us",
    "model.loss_and_grad.us_b65-256": "us",
    "model.loss_and_grad.us_b257-up": "us",
    "model.forward_logits.calls": "count",
    "model.forward_logits.rows": "rows",
    "model.forward_logits.self_s": "s",
    "model.per_sample_losses.calls": "count",
    "data.generate_blobs.s": "s",
    "data.split.s": "s",
    "data.csv_write.s": "s",
    "data.csv_read.s": "s",
    "data.csv_bytes": "bytes",
    "trainer.sgd_train.calls": "count",
    "trainer.sgd_train.steps": "count",
    "trainer.sgd_train.self_s": "s",
    "trainer.step_self_us": "us",
    "trainer.retrain_oracle.s": "s",
    "trainer.checkpoint_save.s": "s",
    "trainer.checkpoint_load.s": "s",
    "trainer.checkpoint_bytes": "bytes",
    "unlearn.fisher_diagonals.s": "s",
    "unlearn.fisher_diagonals.grad_calls": "count",
    "unlearn.sfr_on.self_s": "s",
    "unlearn.sfr_on.outer_step_us": "us",
    "unlearn.sfr_on.grad_calls": "count",
    "unlearn.sample_batch.calls": "count",
    "unlearn.sample_batch.s": "s",
    "unlearn.adaptive_coefficients.s": "s",
    "unlearn.saliency_mask.s": "s",
    "unlearn.ft.s": "s",
    "unlearn.ga.s": "s",
    "unlearn.rl.s": "s",
    "unlearn.salun.s": "s",
    "unlearn.joint.s": "s",
    "metrics.full_report.s": "s",
    "metrics.entropy_attack.s": "s",
    "metrics.entropy_attack.calls": "count",
    "metrics.empirical_kl.s": "s",
    "metrics.forward_rows_per_report": "rows",
    "verify.run_suite.s": "s",
    "verify.check_gradients.s": "s",
    "verify.fast_slow.s": "s",
    "verify.loss_evals": "count",
    "autodiff.self_s": "s",
    "model.self_s": "s",
    "data.self_s": "s",
    "trainer.self_s": "s",
    "unlearn.self_s": "s",
    "metrics.self_s": "s",
    "verify.self_s": "s",
    "cli.pretrain.s": "s",
    "cli.retrain.s": "s",
    "cli.unlearn.s": "s",
    "cli.eval.s": "s",
    "cli.report.s": "s",
    "cli.verify.s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.op_s": "s",
    "trace.untraced_op_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "trace.spans_per_op": "count",
    "trace.span_cost_us": "us",
    "trace.span_overhead_s": "s",
}

BATCH_BUCKETS = {"us_b1": (1, 1), "us_b2-64": (2, 64), "us_b65-256": (65, 256),
                 "us_b257-up": (257, None)}


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, op_ids: list[int], untraced_walls: list[float],
                  traced_walls: list[float], counters: dict, cost: float) -> dict:
    """Per-layer metrics from the spans of the traced ops ``op_ids``.

    Per-call figures (``.s``, ``.us_*``) are medians over every call, set-up
    included (op id -1). Per-op figures (counts, rows, bytes, ``self_s``)
    are medians over the traced ops. A layer that a workload never calls
    reads 0. ``cost`` is the seconds one span adds (``span_cost``); spans per
    op times ``cost`` estimates the tracing overhead without the op-to-op
    noise of ``trace.overhead_s``.
    """
    a = tracer.arrays()
    names, parent, op, size = a["name"], a["parent"], a["op"], a["size"]
    amount = size.astype(float)  # rows, bytes or steps, per span
    dur = (a["end"] - a["start"]) * NS
    own = self_times(a["start"], a["end"], parent) * NS
    ids = {n: i for i, n in enumerate(tracer.names)}
    ops = np.asarray(op_ids)

    def mask(name):
        return names == ids.get(name, -2)

    def per_call(name, scale=1.0, extra=None):
        m = mask(name) if extra is None else mask(name) & extra
        return _median(dur[m]) * scale

    def per_op(values, m):
        """Median over the traced ops of the per-op sum of ``values[m]``."""
        sums = [values[m & (op == k)].sum() for k in ops]
        return _median(sums)

    def per_op_count(m):
        return per_op(np.ones(len(names)), m)

    out = {}
    lg, fl = mask("model.loss_and_grad"), mask("model.forward_logits")
    out["autodiff.backward.calls"] = per_op_count(mask("autodiff.backward"))
    out["autodiff.backward.self_s"] = per_op(own, mask("autodiff.backward"))
    out["autodiff.softmax_cross_entropy.self_s"] = per_op(
        own, mask("autodiff.softmax_cross_entropy"))
    out["autodiff.finite_diff_gradient.s"] = per_call("autodiff.finite_diff_gradient")
    out["autodiff.hessian_vector_product.s"] = per_call("autodiff.hessian_vector_product")
    out["model.loss_and_grad.calls"] = per_op_count(lg)
    out["model.loss_and_grad.self_s"] = per_op(own, lg)
    for key, (lo, hi) in BATCH_BUCKETS.items():
        in_bucket = (size >= lo) & (size <= (hi if hi is not None else np.iinfo(np.int64).max))
        out[f"model.loss_and_grad.{key}"] = per_call("model.loss_and_grad", 1e6, in_bucket)
    out["model.forward_logits.calls"] = per_op_count(fl)
    out["model.forward_logits.rows"] = per_op(amount, fl)
    out["model.forward_logits.self_s"] = per_op(own, fl)
    out["model.per_sample_losses.calls"] = per_op_count(mask("model.per_sample_losses"))
    out["data.generate_blobs.s"] = per_call("data.generate_blobs")
    out["data.split.s"] = per_call("data.split")
    out["data.csv_write.s"] = per_call("data.csv_write")
    out["data.csv_read.s"] = per_call("data.csv_read")
    out["data.csv_bytes"] = per_op(amount, mask("data.csv_write") | mask("data.csv_read"))
    sgd = mask("trainer.sgd_train")
    out["trainer.sgd_train.calls"] = per_op_count(sgd)
    out["trainer.sgd_train.steps"] = per_op(amount, sgd)
    out["trainer.sgd_train.self_s"] = per_op(own, sgd)
    steps = out["trainer.sgd_train.steps"]
    out["trainer.step_self_us"] = 1e6 * out["trainer.sgd_train.self_s"] / steps if steps else 0.0
    out["trainer.retrain_oracle.s"] = per_call("trainer.retrain_oracle")
    out["trainer.checkpoint_save.s"] = per_call("trainer.checkpoint_save")
    out["trainer.checkpoint_load.s"] = per_call("trainer.checkpoint_load")
    out["trainer.checkpoint_bytes"] = per_op(amount, mask("trainer.checkpoint_save"))

    fisher, sfr = mask("unlearn.fisher_diagonals"), mask("unlearn.sfr_on")
    out["unlearn.fisher_diagonals.s"] = per_call("unlearn.fisher_diagonals")
    n_fisher = per_op_count(fisher)
    under_fisher = _descendants(names, parent, ids.get("unlearn.fisher_diagonals", -2))
    out["unlearn.fisher_diagonals.grad_calls"] = (
        per_op_count(lg & under_fisher) / n_fisher if n_fisher else 0.0)
    out["unlearn.sfr_on.self_s"] = per_op(own, sfr)
    # One outer step: the sfr_on call minus its Fisher pass and mask, over t_out.
    sfr_idx = np.flatnonzero(sfr)
    steps_us = []
    for i in sfr_idx:
        kids = np.flatnonzero(parent == i)
        setup = dur[kids[np.isin(names[kids], [ids.get("unlearn.fisher_diagonals", -2),
                                               ids.get("unlearn.saliency_mask", -2)])]].sum()
        steps_us.append(1e6 * (dur[i] - setup) / max(int(size[i]), 1))
    out["unlearn.sfr_on.outer_step_us"] = _median(steps_us)
    n_sfr = per_op_count(sfr)
    direct = _direct_children(names, parent, ids.get("unlearn.sfr_on", -2))
    out["unlearn.sfr_on.grad_calls"] = per_op_count(lg & direct) / n_sfr if n_sfr else 0.0
    out["unlearn.sample_batch.calls"] = per_op_count(mask("unlearn.sample_batch"))
    out["unlearn.sample_batch.s"] = per_call("unlearn.sample_batch")
    out["unlearn.adaptive_coefficients.s"] = per_call("unlearn.adaptive_coefficients")
    out["unlearn.saliency_mask.s"] = per_call("unlearn.saliency_mask")
    for method in ("ft", "ga", "rl", "salun", "joint"):
        out[f"unlearn.{method}.s"] = per_call(f"unlearn.method.{method}")

    report = mask("metrics.full_report")
    out["metrics.full_report.s"] = per_call("metrics.full_report")
    out["metrics.entropy_attack.s"] = per_call("metrics.entropy_attack")
    out["metrics.entropy_attack.calls"] = per_op_count(mask("metrics.entropy_attack"))
    out["metrics.empirical_kl.s"] = per_call("metrics.empirical_kl")
    n_reports = per_op_count(report)
    under_report = _descendants(names, parent, ids.get("metrics.full_report", -2))
    out["metrics.forward_rows_per_report"] = (
        per_op(amount, fl & under_report) / n_reports if n_reports else 0.0)

    out["verify.run_suite.s"] = per_call("verify.run_suite")
    out["verify.check_gradients.s"] = per_call("verify.check_gradients")
    out["verify.fast_slow.s"] = per_call("verify.fast_slow")
    under_suite = _descendants(names, parent, ids.get("verify.run_suite", -2))
    out["verify.loss_evals"] = per_op_count(lg & under_suite)

    for verb in ("pretrain", "retrain", "unlearn", "eval", "report", "verify"):
        out[f"cli.{verb}.s"] = per_call(f"cli.{verb}")
    out["cli.bytes_written"] = _median(counters.get("bytes_written", []))

    module_of = np.array([n.split(".")[0] for n in tracer.names] or [""])
    for module in MODULES:
        out[f"{module}.self_s"] = per_op(own, module_of[names] == module)

    op_span = mask(OP_SPAN)
    out["trace.op_s"] = _median(traced_walls)
    out["trace.untraced_op_s"] = _median(untraced_walls)
    out["trace.overhead_s"] = out["trace.op_s"] - out["trace.untraced_op_s"]
    out["trace.unattributed_s"] = per_op(own, op_span)
    out["trace.spans_per_op"] = per_op_count(op >= 0)
    out["trace.span_cost_us"] = cost * 1e6
    out["trace.span_overhead_s"] = out["trace.spans_per_op"] * cost
    return {name: (float(out[name]), unit) for name, unit in LAYER_METRICS.items()}
