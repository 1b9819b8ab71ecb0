"""Run one workload for a fixed time and build its result.

The run is a single-process closed loop with one client: the next op starts
when the previous one has returned. Ops repeat until the next one would end
after ``--seconds``; at least one op always runs. The set-up runs once
before the first op and again, outside the ops' timers, every
``SETUP_EVERY`` seconds, so its samples spread over the run as the ops' do.
With ``--trace 1`` ops alternate between untraced and traced, so the
tracing overhead is measured in the same process and time window; the
per-layer metrics come from the traced ops only.

A timing's reported value is the mean over the run's samples, except for
``setup_s``, which reports the median of its samples. The host this runs on
switches between fast and slow stretches, so per-op samples fall in two
modes; the median of a run jumps between them, while the mean moves with the
share of slow ops (see perfbench/README.md, "Noise"). Each timing's median,
minimum, tail percentile and sample count go to the table and the details
file.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import unlearnlab

import tracing
import workloads

# End-to-end metrics reported by the untraced run: name -> unit.
E2E_UNITS = {
    "setup_s": "s",
    "op_s": "s",
    "pretrain_s": "s",
    "retrain_s": "s",
    "unlearn_sfr_on_s": "s",
    "unlearn_baselines_s": "s",
    "eval_s": "s",
    "peak_rss_mb": "MB",
}
# Tail percentiles considered, highest first (see ``tail_percentile``).
TAIL_LADDER = (99.9, 99.0, 90.0)
SETUP_EVERY = 6.0  # seconds between set-up samples during the op loop


def tail_percentile(n: int) -> float | None:
    """The highest percentile in ``TAIL_LADDER`` with at least ten of ``n``
    samples beyond it, or None when there are too few samples."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            return p
    return None


def summarize(samples: list[float], center: str = "mean") -> dict:
    """The reported value (the samples' ``center``, mean or median), mean,
    median, minimum, the tail percentile the sample count supports, and the
    count."""
    n = len(samples)
    out = {"mean": float(np.mean(samples)) if n else math.nan,
           "median": float(np.median(samples)) if n else math.nan,
           "min": min(samples) if n else math.nan, "n": n}
    out["value"] = out[center]
    p = tail_percentile(n)
    if p is not None:
        out[f"p{p:g}"] = float(np.percentile(samples, p))
    return out


def _openblas(symbols: tuple, restype):
    """Call the first of ``symbols`` the loaded OpenBLAS exports, or None."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = restype
                return fn()
    return None


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    return _openblas(("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                      "openblas_get_num_threads64_", "openblas_get_num_threads"), ctypes.c_int)


def blas_config() -> str | None:
    config = _openblas(("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                        "openblas_get_config64_", "openblas_get_config"), ctypes.c_char_p)
    return config.decode() if config is not None else None


def load_average() -> float:
    with open("/proc/loadavg", encoding="utf-8") as fh:
        return float(fh.read().split()[0])


def git_commit(root: str) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_config(),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(root),
        "unlearnlab": unlearnlab.__version__,
        "loadavg_1m_before": load_average(),
    }


def check_pinned() -> str | None:
    """Why BLAS threads are not pinned to 1, or None when they are."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var) != "1":
            return f"{var} is {os.environ.get(var)!r}, not '1'"
    threads = blas_threads()
    if threads not in (None, 1):
        return f"OpenBLAS reports {threads} threads"
    return None


def run_ops(workload, seconds: float, trace: bool, tracer=None, clock=time.perf_counter,
            between=None):
    """Repeat ``workload.op`` for ``seconds``; return the op records.

    ``between()``, if given, runs after every op, outside its timer. An op
    that raises is recorded as failed and keeps its wall time, so failures
    stay in every timing's denominator.
    """
    records = []
    deadline = clock() + seconds
    minimum = 2 if trace else 1
    k = 0
    while k < minimum or clock() + statistics.median(r.wall for r in records) <= deadline:
        rec = workloads.OpRecord(k, traced=trace and k % 2 == 1)
        if rec.traced:
            tracer.op = k
            tracer.install()
        t0 = clock()
        try:
            if rec.traced:
                with tracer.span(tracing.OP_SPAN):
                    workload.op(k, rec)
            else:
                workload.op(k, rec)
        except Exception as exc:  # a failed op is counted, not fatal
            rec.failures.append(f"raised {type(exc).__name__}: {exc}")
        finally:
            rec.wall = clock() - t0
            if rec.traced:
                tracer.uninstall()
        if not rec.failures:
            try:
                collect = getattr(workload, "collect", None)
                if collect is not None:
                    collect(rec)
                rec.failures.extend(workloads.check_outputs(rec))
                if "sfr_on" in rec.reports:
                    rec.misses.extend(workloads.check_quality(
                        rec, getattr(workload, "kl_rivals", ("ga",))))
                rec.digest = workloads.digest_outputs(rec)
            except Exception as exc:
                rec.failures.append(f"check raised {type(exc).__name__}: {exc}")
        rec.params.clear()  # keep one op's checkpoints at a time, not all
        records.append(rec)
        k += 1
        if between is not None:
            between()
    return records


def e2e_metrics(setup: dict, setup_stages: dict, records) -> dict:
    """The end-to-end metrics as ``name -> summary``; failed ops included."""
    samples = {"op_s": [r.wall for r in records]}
    for stage in workloads.STAGES:
        samples[f"{stage}_s"] = list(setup_stages.get(stage, []))
        for r in records:
            samples[f"{stage}_s"].extend(r.stages[stage])
    out = {"setup_s": setup}
    for name, values in samples.items():
        out[name] = summarize(values)
    out["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "n": 1}
    return out


class SetupSampler:
    """Set-up is what a user pays before the first op: a fresh interpreter
    that imports everything a run needs, then the workload's own set-up.
    Each ``sample`` times both and keeps the set-up's stage timings."""

    def __init__(self, workload, root: str, clock=time.perf_counter):
        paths = [os.path.join(root, "src"), os.path.dirname(os.path.abspath(__file__))]
        code = f"import sys; sys.path[:0] = {paths!r}; import harness"
        self.command = [sys.executable, "-c", code]
        self.workload, self.clock = workload, clock
        self.imports, self.setups, self.stages = [], [], {}
        self.last = -math.inf

    def sample(self, tracer=None) -> None:
        t0 = self.clock()
        subprocess.run(self.command, check=True)
        t1 = self.clock()
        if tracer is not None:
            tracer.install()
        try:
            stages = self.workload.setup()
        finally:
            if tracer is not None:
                tracer.uninstall()
        t2 = self.last = self.clock()
        self.imports.append(t1 - t0)
        self.setups.append(t2 - t1)
        for stage, value in stages.items():
            self.stages.setdefault(stage, []).append(value)

    def maybe_sample(self) -> None:
        if self.clock() - self.last >= SETUP_EVERY:
            self.sample()

    def summary(self) -> dict:
        return summarize([a + b for a, b in zip(self.imports, self.setups)], "median")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="'smoke' runs a reduced-size workload (for the tests)")
    parser.add_argument("--out-dir", default=None,
                        help="where details and spans go (default: .perfbench_out)")
    return parser.parse_args(argv)


def main(argv, root: str) -> int:
    args = parse_args(argv)
    why_not = check_pinned()
    if why_not is not None:
        sys.stderr.write(f"refusing to run: BLAS threads are not pinned ({why_not})\n")
        return 2
    env = environment(root)
    out_dir = args.out_dir or os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cls = workloads.WORKLOADS[args.workload]
    if issubclass(cls, workloads.CliQuick):
        workload = cls(args.seed, args.size, os.path.join(out_dir, f"work-{os.getpid()}"))
    else:
        workload = cls(args.seed, args.size)

    tracer = tracing.Tracer() if args.trace else None
    setup = SetupSampler(workload, root)
    setup.sample(tracer)
    try:
        records = run_ops(workload, args.seconds, bool(args.trace), tracer,
                          between=setup.maybe_sample)
    finally:
        if isinstance(workload, workloads.CliQuick):
            shutil.rmtree(workload.work_dir, ignore_errors=True)
    env["loadavg_1m_after"] = load_average()

    attempted = len(records)
    failed = sum(1 for r in records if r.failed)
    wrong = sum(1 for r in records if r.failures)
    e2e = e2e_metrics(setup.summary(), setup.stages, records)
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "environment": env,
        "setup_import_walls": setup.imports, "setup_walls": setup.setups,
        "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
        "wrong_outputs": wrong,
        "end_to_end": e2e,
        "ops": [
            {"index": r.index, "traced": r.traced, "wall": r.wall, "stages": r.stages,
             "digest": r.digest, "failures": r.failures, "misses": r.misses,
             "counters": r.counters, "targets": workloads.targets(r)}
            for r in records
        ],
    }
    if args.trace:
        traced = [r for r in records if r.traced]
        counters = {"bytes_written": [r.counters["bytes_written"] for r in traced
                                      if "bytes_written" in r.counters]}
        layer = tracing.layer_metrics(
            tracer, [r.index for r in traced], [r.wall for r in records if not r.traced],
            [r.wall for r in traced], counters, tracing.span_cost())
        details["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        tracer.save(os.path.join(out_dir, f"spans-{tag}.npz"))
        metrics = details["per_layer"]
    else:
        metrics = {name: {"value": e2e[name]["value"], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1, sort_keys=True)
        fh.write("\n")

    print_table(details)
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0


def print_table(details: dict) -> None:
    env = details["environment"]
    print(f"# {details['workload']} seed {details['seed']} trace {details['trace']}: "
          f"{details['attempted']} ops, {details['failed']} failed, "
          f"{details['wrong_outputs']} with wrong outputs "
          f"(fail_frac {details['fail_frac']:.3f})")
    print("# env " + json.dumps(env, sort_keys=True))
    if details["trace"]:
        layer = details["per_layer"]
        for name, m in layer.items():
            print(f"{name:<42} {m['value']:>14.6g} {m['unit']}")
        covered = sum(layer[f"{m}.self_s"]["value"] for m in tracing.MODULES)
        print(f"# accounting: module self times {covered:.4f} s + unattributed "
              f"{layer['trace.unattributed_s']['value']:.4f} s; traced op_s "
              f"{layer['trace.op_s']['value']:.4f} s")
    else:
        print(f"{'metric':<22} {'value':>12} {'unit':<4} {'median':>12} {'min':>12}  n  tail")
        for name, unit in E2E_UNITS.items():
            m = details["end_to_end"][name]
            spread = "".join(f" {m[k]:>12.6g}" if k in m else " " * 13 for k in ("median", "min"))
            tail = "".join(f"  {k} {v:.6g}" for k, v in m.items() if k.startswith("p"))
            print(f"{name:<22} {m['value']:>12.6g} {unit:<4}{spread}  n={m['n']}{tail}")
        print(f"{'fail_frac':<22} {details['fail_frac']:>12.6g} 1")
    totals = {}
    for op in details["ops"]:
        for name, value in op["counters"].items():
            totals[name] = totals.get(name, 0) + value
    if totals:
        print("# counter totals over all ops " + json.dumps(totals, sort_keys=True))
    for op in details["ops"]:
        status = "; ".join(op["failures"] + op["misses"]) or "ok"
        print(f"# op {op['index']}{' traced' if op['traced'] else ''} "
              f"{op['wall']:.3f}s digest {op['digest'][:16]} {status}")
