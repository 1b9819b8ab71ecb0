"""The benchmark's workloads: a set-up run before timing and an op repeated.

Every workload drives unlearnlab from outside, through the public functions
of ``data``, ``model``, ``trainer``, ``unlearn``, ``metrics`` and ``cli``.
Inputs come only from the committed configs, the run seed and the op index,
so one seed always gives the same inputs and the same per-op result digests.

An op fills an ``OpRecord`` while it runs: stage timings, plus the objects
its checks need. The checks and the digest run afterwards, outside the
op's timer (see ``harness``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from unlearnlab import cli, data, metrics, model, trainer, unlearn

STAGES = ("pretrain", "retrain", "unlearn_sfr_on", "unlearn_baselines", "eval")
REPORT_FIELDS = ("fa", "ra", "ta", "mia", "kl_to_ref", "avg_d")


@dataclass
class OpRecord:
    """What one op measured and produced; filled in while the op runs."""

    index: int
    traced: bool = False
    wall: float = 0.0
    stages: dict = field(default_factory=lambda: {s: [] for s in STAGES})
    failures: list = field(default_factory=list)  # wrong outputs
    misses: list = field(default_factory=list)  # missed unlearning targets
    digest: str = ""
    counters: dict = field(default_factory=dict)
    # Outputs the checks and the digest read: checkpoint params and report
    # dicts by name, and other deterministic outputs (``artifacts``).
    params: dict = field(default_factory=dict)
    reports: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)
    pre_fa: float = math.nan

    @property
    def failed(self) -> bool:
        return bool(self.failures or self.misses)

    def time(self, stage: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.stages[stage].append(time.perf_counter() - t0)
        return out


def derive_seeds(seed: int, index: int | None, count: int) -> list[int]:
    """``count`` independent 31-bit seeds for op ``index`` of run ``seed``, or
    for the run's set-up when ``index`` is None."""
    entropy = [seed, 1, 0] if index is None else [seed, 0, index]
    state = np.random.SeedSequence(entropy).generate_state(count)
    return [int(s) % (2**31) for s in state]


def report_fields(report: metrics.MetricsReport) -> dict:
    """A report as a dict without its wall-clock field."""
    out = report.to_dict()
    out.pop("rte_seconds")
    return out


def check_outputs(rec: OpRecord) -> list[str]:
    """Wrong outputs: non-finite parameters or report fields, or no
    ``sfr_on`` report."""
    failures = []
    for name, params in rec.params.items():
        if not np.all(np.isfinite(params)):
            failures.append(f"non-finite parameters in {name}")
    for name, rep in rec.reports.items():
        values = [rep[k] for k in REPORT_FIELDS] + list(rep["gaps"].values())
        if not all(math.isfinite(v) for v in values):
            failures.append(f"non-finite report field in {name}")
    if "sfr_on" not in rec.reports:
        failures.append("no sfr_on report")
    return failures


def check_quality(rec: OpRecord, kl_rivals=("ga",)) -> list[str]:
    """Missed unlearning targets: ``sfr_on``'s forget accuracy must drop
    below the pretrained model's, and its KL to the reference must be below
    that of every method in ``kl_rivals``."""
    misses = []
    sfr = rec.reports["sfr_on"]
    if not sfr["fa"] < rec.pre_fa:
        misses.append(
            f"sfr_on forget accuracy {sfr['fa']:.4f} did not drop below the "
            f"pretrained {rec.pre_fa:.4f}"
        )
    for rival in kl_rivals:
        if not sfr["kl_to_ref"] < rec.reports[rival]["kl_to_ref"]:
            misses.append(
                f"sfr_on KL {sfr['kl_to_ref']:.5f} not below {rival} KL "
                f"{rec.reports[rival]['kl_to_ref']:.5f}"
            )
    return misses


def targets(rec: OpRecord) -> dict:
    """What the unlearning targets compare: the pretrained and every
    method's forget accuracy, and every method's KL to the reference."""
    return {"pre_fa": rec.pre_fa,
            "fa": {m: rep["fa"] for m, rep in rec.reports.items()},
            "kl_to_ref": {m: rep["kl_to_ref"] for m, rep in rec.reports.items()}}


def digest_outputs(rec: OpRecord) -> str:
    """SHA-256 over every checkpoint's parameter bytes and every report's
    non-wall-clock fields, in a fixed order."""
    h = hashlib.sha256()
    for name in sorted(rec.params):
        h.update(name.encode())
        h.update(np.asarray(rec.params[name], dtype="<f8").tobytes())
    for group in (rec.reports, rec.artifacts):
        for name in sorted(group):
            h.update(name.encode())
            h.update(json.dumps(group[name], sort_keys=True).encode())
    return h.hexdigest()


def _without(fields: dict, *keys: str) -> dict:
    return {k: v for k, v in fields.items() if k not in keys}


def _unlearn_configs(spec: dict, seed: int) -> dict:
    """One ``UnlearnConfig`` per method of a config's ``unlearn`` table, all
    with ``seed`` in place of the table's own."""
    return {method: unlearn.UnlearnConfig(method=method, seed=seed, **_without(fields, "seed"))
            for method, fields in spec.items()}


CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def _merge(base: dict, overrides: dict) -> dict:
    out = dict(base)
    for key, value in overrides.items():
        out[key] = _merge(base[key], value) if isinstance(value, dict) else value
    return out


def committed_config(name: str, overrides: dict | None = None) -> dict:
    """``configs/<name>`` as committed, with ``overrides`` merged in key by key."""
    return _merge(cli.load_config(os.path.join(CONFIGS, name)), overrides or {})


# Reduced sizes for the benchmark's own tests, merged over the committed
# configs; the benchmark itself measures the configs unchanged.
SMOKE_UNLEARN = {
    "sfr_on": {"t_in": 2, "t_out": 3, "batch_f": 8, "batch_r": 8},
    "ft": {"t_out": 1}, "ga": {"t_out": 1}, "rl": {"t_out": 1}, "salun": {"t_out": 1},
    "joint": {"t_out": 3, "batch_f": 8, "batch_r": 8},
}
DESK_SMOKE = {
    "dataset": {"n_per_class": 40}, "model": {"layer_sizes": [8, 8, 4]},
    "train": {"epochs": 3}, "unlearn": SMOKE_UNLEARN,
}
CLI_QUICK_SMOKE = {
    "dataset": {"n_per_class": 20}, "model": {"layer_sizes": [4, 6, 3]},
    "train": {"epochs": 2}, "unlearn": SMOKE_UNLEARN,
}


class Desk:
    """One op is one trial of the desk study at ``blobs_benchmark`` scale:
    pretrain, two retrain references, the six methods with a report each,
    and the retrain-floor KL between the two references. As in the desk
    study, the dataset and split are the config's; the model, training and
    unlearning seeds come from the run seed and the op index."""

    kl_rivals = ("ga", "ft")

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.config = committed_config(
            "blobs_benchmark.json", DESK_SMOKE if size == "smoke" else None)

    def setup(self) -> dict:
        self.dataset = data.generate_blobs(**_without(self.config["dataset"], "kind"))
        self.split = data.make_random_subset_split(
            self.dataset, **_without(self.config["split"], "kind"))
        return {}

    def _train_config(self, seed: int) -> trainer.TrainConfig:
        return trainer.TrainConfig(seed=seed, **_without(self.config["train"], "seed"))

    def op(self, k: int, rec: OpRecord) -> None:
        model_seed, pre_seed, rt_seed, alt_seed, un_seed = derive_seeds(self.seed, k, 5)
        ds, split = self.dataset, self.split
        cfg = model.ModelConfig(**_without(self.config["model"], "seed"), seed=model_seed)
        pre = rec.time(
            "pretrain", trainer.sgd_train, model.init_params(cfg),
            self._train_config(pre_seed), cfg, ds, split.train_idx, role="pretrain",
        )
        rt = rec.time(
            "retrain", trainer.retrain_oracle, cfg, self._train_config(rt_seed), ds, split
        )
        rt_alt = rec.time(
            "retrain", trainer.retrain_oracle, cfg, self._train_config(alt_seed), ds, split
        )
        rec.artifacts["retrain_floor_kl"] = metrics.empirical_kl(rt_alt, rt, ds, split)
        rec.pre_fa = metrics.accuracy(pre.params, cfg, ds, split.forget_idx)
        rec.params.update(pretrain=pre.params, retrain=rt.params, retrain_alt=rt_alt.params)
        _unlearn_all(rec, pre, rt, ds, split, _unlearn_configs(self.config["unlearn"], un_seed))


def _unlearn_all(rec, pre, ref, ds, split, configs) -> None:
    """Run every method from ``pre`` and report each against ``ref``."""
    baseline_s = 0.0
    for method, ucfg in configs.items():
        t0 = time.perf_counter()
        ckpt = unlearn.run_unlearning(pre.params, pre.model_config, ds, split, ucfg)
        elapsed = time.perf_counter() - t0
        if method == "sfr_on":
            rec.stages["unlearn_sfr_on"].append(elapsed)
        else:
            baseline_s += elapsed
        rep = rec.time("eval", metrics.full_report, ckpt, ref, ds, split, rte_seconds=elapsed)
        rec.params[method] = ckpt.params
        rec.reports[method] = report_fields(rep)
    rec.stages["unlearn_baselines"].append(baseline_s)


WIDE = {
    "full": {
        "blobs": dict(n_per_class=5000, class_count=4, dim=8, spread=0.75),
        "test_fraction": 0.2,
        "layers": (8, 32, 32, 4),
        "pretrain": dict(lr=0.15, epochs=8, batch_size=256, schedule="cosine", momentum=0.9),
        "retrain": dict(lr=0.15, epochs=4, batch_size=256, schedule="cosine", momentum=0.9),
        "unlearn": {
            "sfr_on": dict(alpha=1.0, beta_f=0.8, beta_r=0.05, t_in=4, t_out=20,
                           lambda_temp=0.18, gamma=1.0, batch_f=128, batch_r=256),
            "ft": dict(beta_r=0.02, t_out=1, batch_r=64),
            "ga": dict(beta_f=0.1, t_out=1, batch_f=64),
            "rl": dict(beta_r=0.01, t_out=1, batch_r=64),
            "salun": dict(beta_r=0.01, t_out=1, batch_r=64, salun_top_k=50.0),
            "joint": dict(beta_r=0.01, t_out=50, batch_f=64, batch_r=64),
        },
    },
    "smoke": {
        "blobs": dict(n_per_class=60, class_count=4, dim=8, spread=0.75),
        "test_fraction": 0.2,
        "layers": (8, 8, 4),
        "pretrain": dict(lr=0.15, epochs=2, batch_size=256, schedule="cosine", momentum=0.9),
        "retrain": dict(lr=0.15, epochs=1, batch_size=256, schedule="cosine", momentum=0.9),
        "unlearn": {
            "sfr_on": dict(alpha=1.0, beta_f=0.8, beta_r=0.05, t_in=2, t_out=3,
                           lambda_temp=0.18, gamma=1.0, batch_f=16, batch_r=32),
            "ft": dict(beta_r=0.02, t_out=1, batch_r=64),
            "ga": dict(beta_f=0.1, t_out=1, batch_f=64),
            "rl": dict(beta_r=0.01, t_out=1, batch_r=64),
            "salun": dict(beta_r=0.01, t_out=1, batch_r=64, salun_top_k=50.0),
            "joint": dict(beta_r=0.01, t_out=3, batch_f=16, batch_r=16),
        },
    },
}


class Wide:
    """One model pretrained on a large working set serves a stream of
    classwise forget requests; one op is one request, rotating the class."""

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.spec = WIDE[size]

    def setup(self) -> dict:
        data_seed, model_seed, pre_seed = derive_seeds(self.seed, None, 3)
        self.dataset = data.generate_blobs(seed=data_seed, **self.spec["blobs"])
        self.cfg = model.ModelConfig(layer_sizes=self.spec["layers"], seed=model_seed)
        t0 = time.perf_counter()
        self.pre = trainer.sgd_train(
            model.init_params(self.cfg),
            trainer.TrainConfig(seed=pre_seed, **self.spec["pretrain"]),
            self.cfg, self.dataset, np.arange(len(self.dataset)), role="pretrain",
        )
        return {"pretrain": time.perf_counter() - t0}

    def op(self, k: int, rec: OpRecord) -> None:
        split_seed, rt_seed, un_seed = derive_seeds(self.seed, k, 3)
        ds, cfg, pre = self.dataset, self.cfg, self.pre
        class_id = k % ds.class_count
        split = data.make_classwise_split(
            ds, class_id, self.spec["test_fraction"], seed=split_seed
        )
        rt = rec.time(
            "retrain", trainer.retrain_oracle, cfg,
            trainer.TrainConfig(seed=rt_seed, **self.spec["retrain"]), ds, split,
        )
        rec.pre_fa = metrics.accuracy(pre.params, cfg, ds, split.forget_idx)
        rec.params.update(retrain=rt.params)
        _unlearn_all(rec, pre, rt, ds, split, _unlearn_configs(self.spec["unlearn"], un_seed))


class CliQuick:
    """One op runs the whole ``blobs_quick`` pipeline through ``cli.main`` in
    a fresh output directory: pretrain, retrain, unlearn and eval for all six
    methods, report, and the verification suite. Each op gets its own
    dataset, split, model, training and unlearning seeds from the run seed
    and the op index."""

    def __init__(self, seed: int, size: str, work_dir: str):
        self.seed = seed
        self.config = committed_config(
            "blobs_quick.json", CLI_QUICK_SMOKE if size == "smoke" else None)
        self.suite = "klmix" if size == "smoke" else "all"
        self.work_dir = work_dir

    def setup(self) -> dict:
        shutil.rmtree(self.work_dir, ignore_errors=True)
        os.makedirs(self.work_dir)
        return {}

    def _config(self, k: int, out: str) -> dict:
        data_seed, split_seed, model_seed, train_seed, un_seed = derive_seeds(self.seed, k, 5)
        return _merge(self.config, {
            "output_dir": out,
            "dataset": {"seed": data_seed},
            "split": {"seed": split_seed},
            "model": {"seed": model_seed},
            "train": {"seed": train_seed},
            "unlearn": {method: {"seed": un_seed} for method in self.config["unlearn"]},
        })

    def _verb(self, rec: OpRecord, stage: str | None, argv: list[str]) -> None:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if stage is not None:
            rec.stages[stage].append(time.perf_counter() - t0)
        if code != 0:
            rec.failures.append(f"cli {argv[0]} exited {code}")

    def op(self, k: int, rec: OpRecord) -> None:
        out = self.out = os.path.join(self.work_dir, f"op{k}")
        cfg_path = self._write_config(self._config(k, out), f"op{k}.json")
        split = os.path.join(out, "split.json")
        self.pretrained = os.path.join(out, "pretrain")
        self.dataset_path = os.path.join(out, "dataset.csv")
        self._verb(rec, "pretrain", ["pretrain", "--config", cfg_path])
        self._verb(rec, "retrain", ["retrain", "--config", cfg_path, "--split", split])
        self._unlearn_eval_verify(rec, cfg_path, split)

    def _write_config(self, config: dict, name: str) -> str:
        path = os.path.join(self.work_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"schema_version": cli.CONFIG_SCHEMA_VERSION, **config}, fh)
        return path

    def _unlearn_eval_verify(self, rec: OpRecord, cfg_path: str, split: str) -> None:
        """Unlearn with every method from ``self.pretrained``, eval each
        against the op's retrain reference, report, and verify."""
        out = self.out
        baseline_s = 0.0
        for method in unlearn.METHODS:
            t0 = time.perf_counter()
            self._verb(rec, None, [
                "unlearn", "--config", cfg_path, "--method", method,
                "--pretrained", self.pretrained, "--split", split,
            ])
            elapsed = time.perf_counter() - t0
            if method == "sfr_on":
                rec.stages["unlearn_sfr_on"].append(elapsed)
            else:
                baseline_s += elapsed
        rec.stages["unlearn_baselines"].append(baseline_s)
        reports = []
        for method in unlearn.METHODS:
            reports.append(os.path.join(out, f"report_{method}.json"))
            self._verb(rec, "eval", [
                "eval", "--model", os.path.join(out, f"unlearn_{method}"),
                "--reference", os.path.join(out, "retrain"), "--split", split,
                "--out", reports[-1],
            ])
        self._verb(rec, None, ["report", "--inputs", *reports,
                               "--out", os.path.join(out, "table.md")])
        self._verb(rec, None, ["verify", "--suite", self.suite,
                               "--out", os.path.join(out, "verify.json")])

    def collect(self, rec: OpRecord) -> None:
        """Read the op's output directory back for the checks and the digest,
        then remove it."""
        out = self.out
        written = 0
        for root, _, files in os.walk(out):
            written += sum(os.path.getsize(os.path.join(root, f)) for f in files)
        rec.counters["bytes_written"] = written
        ckpts = ["retrain"] + [f"unlearn_{m}" for m in unlearn.METHODS]
        pre = trainer.load_checkpoint(self.pretrained)
        rec.params["pretrain"] = pre.params
        for name in ckpts:
            rec.params[name] = trainer.load_checkpoint(os.path.join(out, name)).params
        for method in unlearn.METHODS:
            with open(os.path.join(out, f"report_{method}.json"), encoding="utf-8") as fh:
                rep = json.load(fh)
            rep.pop("rte_seconds")
            rec.reports[method] = rep
        with open(os.path.join(out, "verify.json"), encoding="utf-8") as fh:
            suite = json.load(fh)
        if not suite["pass"]:
            rec.failures.append("verify suite failed")
        dataset = data.load_csv_dataset(self.dataset_path)
        split = data.load_split(os.path.join(out, "split.json"))
        rec.pre_fa = metrics.accuracy(pre.params, pre.model_config, dataset, split.forget_idx)
        # The verify residuals are deterministic, so they join the digest.
        rec.artifacts["verify"] = suite
        shutil.rmtree(out)
        os.remove(out + ".json")


class CliWide(CliQuick):
    """``wide``'s stream of classwise forget requests, served through
    ``cli.main``: the same data, model and tables. The set-up generates the
    data and pretrains once through ``cli pretrain``. Each op makes its
    split with ``data``, then runs every other verb of ``cli_quick`` in a
    fresh output directory, so each verb reads the 20 000-row CSV and the
    checkpoints back from disk."""

    def __init__(self, seed: int, size: str, work_dir: str):
        self.seed, self.work_dir, self.spec = seed, work_dir, WIDE[size]
        self.suite = "klmix" if size == "smoke" else "all"
        self.base = os.path.join(work_dir, "base")
        self.pretrained = os.path.join(self.base, "pretrain")
        self.dataset_path = os.path.join(self.base, "dataset.csv")

    def _model_config(self, model_seed: int) -> dict:
        return {"layer_sizes": list(self.spec["layers"]), "init_scale": 1.0, "seed": model_seed}

    def setup(self) -> dict:
        data_seed, model_seed, pre_seed = derive_seeds(self.seed, None, 3)
        super().setup()
        cfg_path = self._write_config({
            "output_dir": self.base,
            "dataset": {"kind": "blobs", "seed": data_seed, **self.spec["blobs"]},
            "split": {"kind": "classwise", "class_id": 0,
                      "test_fraction": self.spec["test_fraction"], "seed": data_seed},
            "model": self._model_config(model_seed),
            "train": {**self.spec["pretrain"], "seed": pre_seed},
        }, "pretrain.json")
        rec = OpRecord(-1)
        self._verb(rec, "pretrain", ["pretrain", "--config", cfg_path])
        if rec.failures:
            raise RuntimeError("; ".join(rec.failures))
        self.model_seed = model_seed
        return {"pretrain": rec.stages["pretrain"][0]}

    def _config(self, k: int, out: str) -> dict:
        _, rt_seed, un_seed = derive_seeds(self.seed, k, 3)
        return {
            "output_dir": out,
            "dataset": {"kind": "csv", "path": self.dataset_path,
                        "class_count": self.spec["blobs"]["class_count"]},
            "model": self._model_config(self.model_seed),
            "train": {**self.spec["retrain"], "seed": rt_seed},
            "unlearn": {m: {**fields, "seed": un_seed}
                        for m, fields in self.spec["unlearn"].items()},
        }

    def op(self, k: int, rec: OpRecord) -> None:
        split_seed = derive_seeds(self.seed, k, 3)[0]
        out = self.out = os.path.join(self.work_dir, f"op{k}")
        cfg_path = self._write_config(self._config(k, out), f"op{k}.json")
        dataset = data.load_csv_dataset(self.dataset_path)
        split = os.path.join(out, "split.json")
        os.makedirs(out)
        data.save_split(data.make_classwise_split(
            dataset, k % dataset.class_count, self.spec["test_fraction"], seed=split_seed), split)
        self._verb(rec, "retrain", ["retrain", "--config", cfg_path, "--split", split])
        self._unlearn_eval_verify(rec, cfg_path, split)


WORKLOADS = {"desk": Desk, "wide": Wide, "cli_quick": CliQuick, "cli_wide": CliWide}
