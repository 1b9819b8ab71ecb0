"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. The desk-scale study (criteria 7 and 8) trains one pretrained model,
two retrain references, and six unlearning methods per trial, for five
training-seed trials on a fixed blobs dataset.
"""

import json
import os
import time

import numpy as np
import pytest

from unlearnlab.cli import build_split, load_config
from unlearnlab.cli import main as cli_main
from unlearnlab.data import generate_blobs, make_random_subset_split
from unlearnlab.metrics import (
    MetricsReport,
    accuracy,
    avg_disparity,
    empirical_kl,
    entropy_attack,
    full_report,
)
from unlearnlab.model import ModelConfig, init_params
from unlearnlab.trainer import Checkpoint, TrainConfig, retrain_oracle, sgd_train
from unlearnlab.unlearn import (
    FisherDiagonals,
    UnlearnConfig,
    adaptive_coefficients,
    run_unlearning,
    saliency_mask,
    sfr_on,
)
from unlearnlab.verify import (
    check_euclidean_direction,
    check_fast_slow_direction,
    check_gradients,
    check_kl_mixture,
    check_manifold_direction,
    fast_slow_joint_remainder,
    make_random_testbed,
    run_suite,
)

BASELINES = ("ft", "ga", "rl", "salun", "joint")
TRIALS = 5
BENCHMARK_CONFIG = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs", "blobs_benchmark.json"
)


def _report(name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def desk_study():
    """Five-trial unlearning study on the fixed blobs benchmark, as
    ``configs/blobs_benchmark.json`` defines it. Trial ``s`` adds ``s`` to the
    config's model, training and unlearning seeds; the two retrain references
    train with seeds 300 + s and 500 + s, which the config does not hold."""
    t0 = time.perf_counter()
    config = load_config(BENCHMARK_CONFIG)
    dataset = generate_blobs(**{k: v for k, v in config["dataset"].items() if k != "kind"})
    split = build_split(config, dataset)
    assert len(split.forget_idx) + len(split.remain_idx) == 2000
    assert len(split.test_idx) == 500
    trials = []
    for s in range(TRIALS):
        model_seed = config["model"]["seed"] + s
        model_cfg = ModelConfig.from_dict({**config["model"], "seed": model_seed})
        train = lambda seed: TrainConfig.from_dict({**config["train"], "seed": seed})
        pre = sgd_train(
            init_params(model_cfg), train(config["train"]["seed"] + s), model_cfg, dataset,
            split.train_idx, role="pretrain",
        )
        rt = retrain_oracle(model_cfg, train(300 + s), dataset, split)
        rt_alt = retrain_oracle(model_cfg, train(500 + s), dataset, split)
        trial = {
            "floor": empirical_kl(rt_alt, rt, dataset, split),
            "pre_fa": accuracy(pre.params, model_cfg, dataset, split.forget_idx),
            "pre_ra": accuracy(pre.params, model_cfg, dataset, split.remain_idx),
        }
        for method, table in config["unlearn"].items():
            ucfg = UnlearnConfig.from_dict({**table, "method": method, "seed": table["seed"] + s})
            ckpt = run_unlearning(pre.params, model_cfg, dataset, split, ucfg)
            rep = full_report(ckpt, rt, dataset, split,
                              rte_seconds=ckpt.provenance["wall_seconds"])
            trial[method] = {"kl": rep.kl_to_ref, "avg_d": rep.avg_d,
                             "fa": rep.fa, "ra": rep.ra}
        trials.append(trial)
    return {"trials": trials, "wall_seconds": time.perf_counter() - t0}


def _median(trials, method, key):
    return float(np.median([t[method][key] for t in trials]))


def test_criterion_1_gradient_fidelity():
    t0 = time.perf_counter()
    worst = check_gradients(seeds=20)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 1 (gradient fidelity)",
        worst <= 1e-6 and elapsed < 10.0,
        f"max rel err {worst:.2e} over 20 seeds in {elapsed:.1f}s",
    )


def test_criterion_2_euclidean_direction_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(10):
        tb = make_random_testbed(dim=2 + i % 7, seed=900 + i)
        worst = max(worst, check_euclidean_direction(tb).residual)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 2 (Euclidean steepest-descent identity)",
        worst <= 1e-9 and elapsed < 1.0,
        f"max residual {worst:.2e} on 10 SPD instances in {elapsed:.2f}s",
    )


def test_criterion_3_manifold_direction_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(10):
        tb = make_random_testbed(dim=2 + i % 7, seed=900 + i)
        worst = max(worst, check_manifold_direction(tb, alpha=0.25 + 0.1 * i).residual)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 3 (remain-KL metric direction identity)",
        worst <= 1e-10 and elapsed < 1.0,
        f"max residual {worst:.2e} incl. damped step scaling in {elapsed:.2f}s",
    )


def test_criterion_4_fast_slow_direction():
    t0 = time.perf_counter()
    dataset = generate_blobs(seed=61, n_per_class=40, class_count=3, dim=4, spread=0.9)
    split = make_random_subset_split(dataset, fraction=0.2, test_fraction=0.1, seed=4)
    cfg = ModelConfig(layer_sizes=(4, 10, 3), seed=6)
    theta = init_params(cfg)
    from unlearnlab.model import loss_and_grad

    for _ in range(25):
        _, g = loss_and_grad(
            theta, cfg, dataset.features[split.remain_idx], dataset.labels[split.remain_idx]
        )
        theta -= 0.1 * g
    res = check_fast_slow_direction(theta, cfg, dataset, split, beta_f=1e-4, beta_r=1e-4)
    remainders = [
        fast_slow_joint_remainder(theta, cfg, dataset, split, beta)
        for beta in (1e-4, 2e-4, 4e-4)
    ]
    ratios = [remainders[1] / remainders[0], remainders[2] / remainders[1]]
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 4 (fast-slow curvature direction)",
        res.cosine >= 0.999
        and res.rel_norm_err <= 0.01
        and all(3.0 <= r <= 5.0 for r in ratios)
        and elapsed < 30.0,
        f"cosine {res.cosine:.6f}, rel err {res.rel_norm_err:.2e}, "
        f"remainder ratios {ratios[0]:.2f}/{ratios[1]:.2f} in {elapsed:.1f}s",
    )


def test_criterion_5_kl_mixture_split():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(50):
        sizes = rng.integers(2, 9, size=2)
        dists = []
        for n in (sizes[0], sizes[0], sizes[1], sizes[1]):
            d = rng.uniform(0.05, 1.0, size=n)
            dists.append(d / d.sum())
        p_f = float(rng.uniform(0.01, 0.99))
        worst = max(worst, check_kl_mixture((dists[0], dists[1]), (dists[2], dists[3]), p_f))
    _report(
        "criterion 5 (KL mixture decomposition)",
        worst <= 1e-12,
        f"max residual {worst:.2e} over 50 disjoint-support instances",
    )


def test_criterion_6_algebraic_invariants():
    rng = np.random.default_rng(606)
    sum_ok = True
    for _ in range(30):
        n = int(rng.integers(1, 40))
        losses = rng.uniform(0, 4, n)
        big_t = int(rng.integers(1, 60))
        t = int(rng.integers(0, big_t + 1))
        coeffs = adaptive_coefficients(losses, t, big_t, float(rng.uniform(0, 3)))
        sum_ok &= abs(coeffs.sum() - (1 - t / big_t) * n) <= 1e-9

    fd = FisherDiagonals(rng.uniform(0, 5, 64), rng.uniform(0, 5, 64))
    mask_ones = np.array_equal(saliency_mask(fd, 0.0), np.ones(64))
    monotone = True
    previous = saliency_mask(fd, 0.0)
    for gamma in (0.3, 1.0, 3.0, 30.0):
        current = saliency_mask(fd, gamma)
        monotone &= bool(np.all(current <= previous))
        previous = current

    dataset = generate_blobs(seed=66, n_per_class=30, class_count=3, dim=4, spread=0.7)
    split = make_random_subset_split(dataset, fraction=0.2, test_fraction=0.2, seed=1)
    cfg = ModelConfig(layer_sizes=(4, 8, 3), seed=0)
    theta0 = init_params(cfg)
    ucfg = UnlearnConfig(method="sfr_on", alpha=0.0, beta_f=0.5, beta_r=0.1,
                         t_in=2, t_out=4, seed=0)
    identity = np.array_equal(sfr_on(theta0, cfg, dataset, split, ucfg).params, theta0)
    _report(
        "criterion 6 (algebraic invariants)",
        sum_ok and mask_ones and monotone and identity,
        f"coefficient sums ok={sum_ok}, mask(0)=ones={mask_ones}, "
        f"mask monotone={monotone}, zero-rate update is identity={identity}",
    )


def test_criterion_7_desk_scale_ordering(desk_study):
    trials = desk_study["trials"]
    med_kl = {m: _median(trials, m, "kl") for m in ("sfr_on",) + BASELINES}
    med_avgd = {m: _median(trials, m, "avg_d") for m in ("sfr_on",) + BASELINES}
    kl_ordered = med_kl["sfr_on"] < med_kl["ft"] and med_kl["sfr_on"] < med_kl["ga"]
    avgd_ordered = all(med_avgd["sfr_on"] <= med_avgd[b] for b in BASELINES)
    per_seed_wins = sum(
        t["sfr_on"]["kl"] < t["ft"]["kl"] and t["sfr_on"]["kl"] < t["ga"]["kl"]
        for t in trials
    )
    # Post-unlearning sanity matching the intended trend: forgetting accuracy
    # strictly drops from the pretrained model, remain accuracy holds.
    fa_drops = float(np.median([t["sfr_on"]["fa"] - t["pre_fa"] for t in trials])) < 0.0
    ra_held = float(np.median([abs(t["sfr_on"]["ra"] - t["pre_ra"]) for t in trials])) <= 0.02
    wall = desk_study["wall_seconds"]
    _report(
        "criterion 7 (desk-scale unlearning ordering)",
        kl_ordered and avgd_ordered and per_seed_wins >= 4 and fa_drops and ra_held
        and wall < 300.0,
        f"median KL sfr {med_kl['sfr_on']:.4f} vs ft {med_kl['ft']:.4f} / "
        f"ga {med_kl['ga']:.4f}; median Avg.D {med_avgd['sfr_on']:.2f} vs "
        + ", ".join(f"{b} {med_avgd[b]:.2f}" for b in BASELINES)
        + f"; per-seed wins {per_seed_wins}/5; FA drop={fa_drops}, RA held={ra_held}; "
        f"{wall:.0f}s",
    )


def test_criterion_8_retrain_noise_floor(desk_study):
    trials = desk_study["trials"]
    floors = [t["floor"] for t in trials]
    med_floor = float(np.median(floors))
    med_sfr = _median(trials, "sfr_on", "kl")
    _report(
        "criterion 8 (retrain noise floor)",
        all(f > 0 for f in floors) and med_sfr < 3.0 * med_floor,
        f"median floor {med_floor:.4f} (all positive), "
        f"sfr KL {med_sfr:.4f} < 3x floor {3 * med_floor:.4f}",
    )


def test_criterion_9_metric_sanity():
    dataset = generate_blobs(seed=99, n_per_class=30, class_count=4, dim=4, spread=0.8)
    split = make_random_subset_split(dataset, fraction=0.2, test_fraction=0.2, seed=3)
    cfg = ModelConfig(layer_sizes=(4, 6, 4), seed=5)
    ckpt = Checkpoint(init_params(cfg), cfg)
    self_kl = abs(empirical_kl(ckpt, ckpt, dataset, split))

    rng = np.random.default_rng(9)
    member = rng.normal(0.1, 0.02, 300)
    nonmember = rng.normal(1.4, 0.02, 300)
    high, _ = entropy_attack(member, nonmember, rng.normal(0.1, 0.02, 150))
    low, _ = entropy_attack(member, nonmember, rng.normal(1.4, 0.02, 150))

    def rep(fa, ra, ta, mia):
        return MetricsReport(fa=fa, ra=ra, ta=ta, mia=mia, kl_to_ref=0.0,
                             avg_d=0.0, rte_seconds=0.0)

    zero = rep(0.0, 0.0, 0.0, 0.0)
    ft_row = avg_disparity(rep(0.0428, 0.0001, 0.0039, 0.1342), zero)
    fs_row = avg_disparity(rep(0.0096, 0.0012, 0.0115, 0.0258), zero)
    _report(
        "criterion 9 (metric sanity)",
        self_kl <= 1e-12
        and 0.0 <= low <= high <= 1.0 and high >= 0.99 and low <= 0.01
        and abs(ft_row - 4.525) <= 0.01 and abs(fs_row - 1.2025) <= 0.01,
        f"self-KL {self_kl:.1e}; attack separability {high:.2f}/{low:.2f}; "
        f"published-row arithmetic {ft_row:.3f} and {fs_row:.4f}",
    )


def test_criterion_10_pipeline_determinism(tmp_path):
    config = {
        "schema_version": 1,
        "output_dir": "",
        "seed_list": [0],
        "dataset": {"kind": "blobs", "seed": 71, "n_per_class": 40, "class_count": 3,
                     "dim": 4, "spread": 0.7},
        "split": {"kind": "random_subset", "fraction": 0.2, "test_fraction": 0.2, "seed": 5},
        "model": {"layer_sizes": [4, 8, 3], "init_scale": 1.0, "seed": 2},
        "train": {"lr": 0.3, "epochs": 12, "batch_size": 32, "schedule": "cosine",
                   "momentum": 0.9, "seed": 8},
        "unlearn": {
            "sfr_on": {"alpha": 1.0, "beta_f": 0.3, "beta_r": 0.05, "t_in": 3,
                        "t_out": 8, "lambda_temp": 0.2, "gamma": 1.0,
                        "batch_f": 12, "batch_r": 24, "seed": 4},
        },
    }

    def run(tag):
        out = tmp_path / tag
        config["output_dir"] = str(out)
        cfg_path = tmp_path / f"cfg_{tag}.json"
        cfg_path.write_text(json.dumps(config))
        assert cli_main(["pretrain", "--config", str(cfg_path)]) == 0
        split = str(out / "split.json")
        assert cli_main(["retrain", "--config", str(cfg_path), "--split", split]) == 0
        assert cli_main(["unlearn", "--config", str(cfg_path), "--method", "sfr_on",
                         "--pretrained", str(out / "pretrain"), "--split", split]) == 0
        assert cli_main(["eval", "--model", str(out / "unlearn_sfr_on"),
                         "--reference", str(out / "retrain"), "--split", split,
                         "--out", str(out / "report.json")]) == 0
        return out

    a, b = run("first"), run("second")
    identical = True
    for ckpt in ("pretrain", "retrain", "unlearn_sfr_on"):
        identical &= (a / ckpt / "params.bin").read_bytes() == (b / ckpt / "params.bin").read_bytes()
    identical &= (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()
    identical &= (a / "split.json").read_bytes() == (b / "split.json").read_bytes()
    ra = json.loads((a / "report.json").read_text())
    rb = json.loads((b / "report.json").read_text())
    ra.pop("rte_seconds"), rb.pop("rte_seconds")
    identical &= ra == rb
    _report(
        "criterion 10 (pipeline determinism)",
        identical,
        "two full runs byte-identical excluding wall-clock fields",
    )


def test_verification_suite_gate():
    report = run_suite("all")
    _report(
        "verification suite (all)",
        report["pass"],
        "; ".join(f"{c['check_name']}={'ok' if c['pass'] else 'FAIL'}" for c in report["checks"]),
    )
