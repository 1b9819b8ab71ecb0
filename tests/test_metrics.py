"""Retrain-relative metrics: accuracies, entropy attack, KL, disparity."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unlearnlab import metrics
from unlearnlab.autodiff import softmax
from unlearnlab.data import Dataset, ForgetSplit, generate_blobs, make_random_subset_split
from unlearnlab.metrics import (
    MetricsReport,
    accuracy,
    avg_disparity,
    empirical_kl,
    entropy_attack,
    full_report,
)
from unlearnlab.model import (
    ModelConfig,
    flatten,
    forward_logits,
    init_params,
    param_count,
    predict_labels,
)
from unlearnlab.trainer import Checkpoint


@pytest.fixture(autouse=True)
def cold_reference_memo():
    """Every test starts without a remembered reference evaluation."""
    metrics._reference_memo.clear()


def _identity_checkpoint(scale: float, classes: int = 4) -> Checkpoint:
    cfg = ModelConfig(layer_sizes=(classes, classes))
    return Checkpoint(flatten([(scale * np.eye(classes), np.zeros(classes))]), cfg)


class TestAccuracy:
    def _setup(self):
        # Identity model: prediction equals argmax of the features.
        ckpt = _identity_checkpoint(1.0, classes=3)
        feats = np.eye(3)[[0, 1, 2, 1]]
        return ckpt, Dataset(feats, np.array([0, 1, 2, 1]), 3)

    def test_perfect(self):
        ckpt, d = self._setup()
        assert accuracy(ckpt.params, ckpt.model_config, d, np.arange(4)) == 1.0

    def test_anti_perfect(self):
        ckpt, _ = self._setup()
        feats = np.eye(3)[[0, 1, 2]]
        d = Dataset(feats, np.array([1, 2, 0]), 3)
        assert accuracy(ckpt.params, ckpt.model_config, d, np.arange(3)) == 0.0

    def test_empty_rejected(self):
        ckpt, d = self._setup()
        with pytest.raises(ValueError):
            accuracy(ckpt.params, ckpt.model_config, d, np.array([], dtype=int))

    def test_random_two_class_near_half(self):
        # Zero model gives uniform logits; argmax ties break to class 0, so
        # compare against balanced random labels: expect ~0.5 over 10k rows.
        rng = np.random.default_rng(0)
        cfg = ModelConfig(layer_sizes=(2, 2))
        d = Dataset(rng.standard_normal((10_000, 2)), rng.integers(0, 2, 10_000), 2)
        ckpt = Checkpoint(flatten([(np.eye(2), np.zeros(2))]), cfg)
        acc = accuracy(ckpt.params, cfg, d, np.arange(10_000))
        assert abs(acc - 0.5) < 0.02


class TestPredictionEntropy:
    def test_uniform(self):
        ckpt = _identity_checkpoint(0.0)
        probs = softmax(forward_logits(ckpt.params, ckpt.model_config, np.ones((2, 4))))
        h = metrics._entropy(probs)
        assert h == pytest.approx([np.log(4)] * 2, abs=1e-12)

    def test_one_hot_limit(self):
        ckpt = _identity_checkpoint(100.0)
        h = metrics._entropy(softmax(forward_logits(ckpt.params, ckpt.model_config, np.eye(4))))
        assert np.abs(h).max() <= 1e-10

    def test_bounds(self):
        rng = np.random.default_rng(1)
        cfg = ModelConfig(layer_sizes=(3, 5, 6), seed=2)
        theta = init_params(cfg) + rng.standard_normal(param_count(cfg))
        h = metrics._entropy(softmax(forward_logits(theta, cfg, rng.standard_normal((50, 3)))))
        assert (h >= 0).all() and (h <= np.log(6) + 1e-12).all()


class TestEntropyAttack:
    def test_forget_matching_members_scores_high(self):
        rng = np.random.default_rng(2)
        member = rng.normal(0.1, 0.02, 400)
        nonmember = rng.normal(1.2, 0.02, 400)
        rate, fallback = entropy_attack(member, nonmember, rng.normal(0.1, 0.02, 200))
        assert not fallback
        assert rate >= 0.99

    def test_forget_matching_nonmembers_scores_low(self):
        rng = np.random.default_rng(3)
        member = rng.normal(0.1, 0.02, 400)
        nonmember = rng.normal(1.2, 0.02, 400)
        rate, _ = entropy_attack(member, nonmember, rng.normal(1.2, 0.02, 200))
        assert rate <= 0.01

    def test_rate_bounded(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            rate, _ = entropy_attack(
                rng.uniform(0, 2, 50), rng.uniform(0, 2, 60), rng.uniform(0, 2, 40)
            )
            assert 0.0 <= rate <= 1.0

    def test_zero_variance_falls_back_to_majority(self):
        rate, fallback = entropy_attack(np.full(10, 0.5), np.full(4, 0.5), np.full(7, 0.5))
        assert fallback and rate == 1.0
        rate, fallback = entropy_attack(np.full(3, 0.5), np.full(9, 0.5), np.full(7, 0.5))
        assert fallback and rate == 0.0

    def test_constant_pools_with_a_rounding_level_spread_fall_back(self):
        member, nonmember = np.full(40, 0.06316241), np.full(3, 0.06316241)
        assert np.concatenate([member, nonmember]).std() > 0.0
        assert entropy_attack(member, nonmember, member) == (1.0, True)

    def test_monotone_under_entropy_shifts(self):
        # Lowering every forget entropy below the member mean cannot reduce
        # the attack's true-positive rate.
        rng = np.random.default_rng(5)
        member = rng.normal(0.3, 0.1, 500)
        nonmember = rng.normal(1.0, 0.1, 500)
        target = rng.normal(0.65, 0.3, 300)
        base_rate, _ = entropy_attack(member, nonmember, target)
        lowered = np.minimum(target, member.mean() - 0.05)
        low_rate, _ = entropy_attack(member, nonmember, lowered)
        assert low_rate >= base_rate


def _oracle_attack(member, nonmember, target):
    """The attacker as one plain loop: each step forms p, p - y and both
    gradient means afresh. Returns (rate, fallback, w, b)."""
    h_train = np.concatenate([member, nonmember]).astype(np.float64)
    y = np.concatenate([np.ones(len(member)), np.zeros(len(nonmember))])
    mu = h_train.mean()
    sigma = h_train.std()
    if sigma <= metrics.MIA_ZERO_SPREAD_EPS * np.finfo(np.float64).eps * np.abs(h_train).max():
        return (1.0 if len(member) >= len(nonmember) else 0.0), True, 0.0, 0.0
    z = (h_train - mu) / sigma
    w = 0.0
    b = 0.0
    for _ in range(metrics.MIA_GD_STEPS):
        p = 1.0 / (1.0 + np.exp(-(w * z + b)))
        err = p - y
        w -= metrics.MIA_GD_LR * float(np.mean(err * z))
        b -= metrics.MIA_GD_LR * float(np.mean(err))
    scores = w * ((np.asarray(target, dtype=np.float64) - mu) / sigma) + b
    return float(np.mean(scores >= 0.0)), False, w, b


@st.composite
def entropy_pools(draw):
    """Member and non-member entropy pools of 2-3 000 values in all, with a
    5-95 % member share; a quarter of them constant, the rest drawn around
    two means in [0, ln 4] with their own spreads."""
    n = draw(st.integers(2, 3000))
    share = draw(st.floats(0.05, 0.95))
    members = min(max(round(share * n), 1), n - 1)
    if draw(st.integers(0, 3)) == 0:
        value = draw(st.floats(0.0, np.log(4)))
        return np.full(members, value), np.full(n - members, value)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mean_m, mean_n = rng.uniform(0.0, np.log(4), 2)
    sd_m, sd_n = 10.0 ** rng.uniform(-3, 0, 2)
    return (np.abs(rng.normal(mean_m, sd_m, members)),
            np.abs(rng.normal(mean_n, sd_n, n - members)))


@settings(max_examples=40, deadline=None)
@given(entropy_pools())
def test_attack_matches_the_plain_loop(pools):
    member, nonmember = pools
    pooled = np.concatenate([member, nonmember])
    # A dense grid of targets across the pools: equal rates on it put the
    # decision threshold between the same two grid points. The count is even,
    # so no point sits at the pools' midpoint: with one member and one
    # non-member the threshold is there, and its side is rounding noise.
    grid = np.linspace(pooled.min() - 0.1, pooled.max() + 0.1, 20_000)
    for target in (member[: max(1, len(member) // 2)], nonmember, grid):
        rate, fallback = entropy_attack(member, nonmember, target)
        oracle_rate, oracle_fallback, w0, b0 = _oracle_attack(member, nonmember, target)
        assert (rate, fallback) == (oracle_rate, oracle_fallback)
    if not fallback:
        z = (pooled - pooled.mean()) / pooled.std()
        w, b = metrics._fit_attacker(z, len(member))
        assert np.hypot(w - w0, b - b0) <= 1e-12 * np.hypot(w0, b0)


class TestAttackInputs:
    POOLS = {"member": np.linspace(0.1, 0.3, 8), "non-member": np.linspace(0.5, 1.0, 6),
             "target": np.linspace(0.0, 1.0, 5)}

    def _attack(self, name, values):
        pools = {**self.POOLS, name: values}
        return entropy_attack(pools["member"], pools["non-member"], pools["target"])

    @pytest.mark.parametrize("name", ["member", "non-member", "target"])
    def test_empty_pool_is_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} entropies must be nonempty"):
            self._attack(name, np.array([]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["member", "non-member", "target"])
    def test_non_finite_entropy_is_rejected(self, name, bad):
        values = self.POOLS[name].copy()
        values[1] = bad
        with pytest.raises(ValueError, match=f"{name} entropies must be finite"):
            self._attack(name, values)


class TestEmpiricalKl:
    def _blob_split(self):
        dataset = generate_blobs(seed=52, n_per_class=30, class_count=4, dim=4, spread=1.0)
        split = make_random_subset_split(dataset, fraction=0.25, test_fraction=0.1, seed=1)
        return dataset, split

    def test_self_kl_is_zero(self):
        dataset, split = self._blob_split()
        cfg = ModelConfig(layer_sizes=(4, 6, 4), seed=1)
        ckpt = Checkpoint(init_params(cfg), cfg)
        assert abs(empirical_kl(ckpt, ckpt, dataset, split)) <= 1e-12

    def test_one_hot_reference_vs_uniform_model(self):
        # Reference saturates to one-hot on one-hot features, the evaluated
        # model is uniform: the divergence is ln(4) per sample.
        ref = _identity_checkpoint(50.0)
        uni = _identity_checkpoint(0.0)
        feats = np.eye(4)[[0, 1, 2, 3, 0, 1]]
        dataset = Dataset(feats, np.array([0, 1, 2, 3, 0, 1]), 4)
        split = make_random_subset_split(dataset, fraction=0.5, test_fraction=0.0, seed=0)
        kl = empirical_kl(uni, ref, dataset, split)
        assert kl == pytest.approx(np.log(4), abs=1e-9)

    def test_nonnegative_over_random_pairs(self):
        dataset, split = self._blob_split()
        for seed in range(10):
            cfg = ModelConfig(layer_sizes=(4, 6, 4), seed=seed)
            a = Checkpoint(init_params(cfg), cfg)
            b = Checkpoint(
                init_params(ModelConfig(layer_sizes=(4, 6, 4), seed=seed + 100)), cfg
            )
            assert empirical_kl(a, b, dataset, split) >= -1e-9

    def test_config_mismatch_rejected(self):
        dataset, split = self._blob_split()
        a = Checkpoint(init_params(ModelConfig(layer_sizes=(4, 6, 4), seed=0)),
                       ModelConfig(layer_sizes=(4, 6, 4), seed=0))
        b = Checkpoint(init_params(ModelConfig(layer_sizes=(4, 4), seed=0)),
                       ModelConfig(layer_sizes=(4, 4), seed=0))
        with pytest.raises(ValueError, match="config"):
            empirical_kl(a, b, dataset, split)


def _report_from_fractions(fa, ra, ta, mia):
    return MetricsReport(fa=fa, ra=ra, ta=ta, mia=mia, kl_to_ref=0.0, avg_d=0.0,
                         rte_seconds=0.0)


class TestAvgDisparity:
    def test_published_fine_tuning_row(self):
        ref = _report_from_fractions(0.0, 0.0, 0.0, 0.0)
        u = _report_from_fractions(0.0428, 0.0001, 0.0039, 0.1342)
        assert avg_disparity(u, ref) == pytest.approx(4.525, abs=0.01)

    def test_published_fast_slow_row(self):
        ref = _report_from_fractions(0.0, 0.0, 0.0, 0.0)
        u = _report_from_fractions(0.0096, 0.0012, 0.0115, 0.0258)
        assert avg_disparity(u, ref) == pytest.approx(1.2025, abs=0.01)

    def test_identical_reports_zero(self):
        r = _report_from_fractions(0.9, 0.8, 0.7, 0.6)
        assert avg_disparity(r, r) == 0.0

    def test_symmetric(self):
        a = _report_from_fractions(0.9, 0.8, 0.7, 0.6)
        b = _report_from_fractions(0.5, 0.9, 0.6, 0.9)
        assert avg_disparity(a, b) == avg_disparity(b, a)

    def test_zero_iff_all_gaps_zero(self):
        a = _report_from_fractions(0.9, 0.8, 0.7, 0.6)
        b = _report_from_fractions(0.9, 0.8, 0.7, 0.6001)
        assert avg_disparity(a, b) > 0.0


class TestFullReport:
    def _inputs(self):
        dataset = generate_blobs(seed=53, n_per_class=40, class_count=3, dim=4, spread=0.8)
        split = make_random_subset_split(dataset, fraction=0.2, test_fraction=0.2, seed=2)
        cfg = ModelConfig(layer_sizes=(4, 6, 3), seed=4)
        ckpt = Checkpoint(init_params(cfg), cfg, {"role": "retrain"})
        return ckpt, dataset, split

    def test_reference_against_itself(self):
        ckpt, dataset, split = self._inputs()
        report = full_report(ckpt, ckpt, dataset, split)
        assert report.avg_d == 0.0
        assert all(v == 0.0 for v in report.gaps.values())
        assert abs(report.kl_to_ref) <= 1e-12

    def test_json_roundtrip(self):
        ckpt, dataset, split = self._inputs()
        report = full_report(ckpt, ckpt, dataset, split, rte_seconds=1.25)
        restored = MetricsReport.from_dict(json.loads(report.to_json()))
        assert restored.to_dict() == report.to_dict()

    def test_mia_rate_on_untrained_model(self):
        # End to end through the entropy attack: the rate is a fraction, and
        # it is exactly what the attack scores on the per-subset entropies.
        dataset = generate_blobs(seed=51, n_per_class=60, class_count=3, dim=4, spread=0.7)
        split = make_random_subset_split(dataset, fraction=0.2, test_fraction=0.2, seed=0)
        cfg = ModelConfig(layer_sizes=(4, 8, 3), seed=3)
        ckpt = Checkpoint(init_params(cfg), cfg)
        report = full_report(ckpt, ckpt, dataset, split)
        assert 0.0 <= report.mia <= 1.0
        h = {name: metrics._entropy(softmax(forward_logits(ckpt.params, cfg, dataset.features[i])))
             for name, i in (("remain", split.remain_idx), ("test", split.test_idx),
                             ("forget", split.forget_idx))}
        rate, fallback = entropy_attack(h["remain"], h["test"], h["forget"])
        assert report.mia == rate
        assert report.provenance["mia_fallback"] == {"model": fallback, "reference": fallback}

    def test_fields_match_the_single_metric_functions(self):
        dataset = generate_blobs(seed=54, n_per_class=50, class_count=3, dim=4, spread=0.9)
        split = make_random_subset_split(dataset, fraction=0.3, test_fraction=0.2, seed=3)
        cfg = ModelConfig(layer_sizes=(4, 6, 3), seed=5)
        ref = Checkpoint(init_params(cfg), cfg, {"role": "retrain"})
        theta = init_params(cfg) + np.random.default_rng(6).standard_normal(param_count(cfg))
        u = Checkpoint(theta, cfg, {"method": "ft"})
        report = full_report(u, ref, dataset, split)
        for key, idx in (("fa", split.forget_idx), ("ra", split.remain_idx),
                         ("ta", split.test_idx)):
            assert getattr(report, key) == accuracy(theta, cfg, dataset, idx)
            assert report.provenance["reference"][key] == accuracy(ref.params, cfg, dataset, idx)
        # The KL reads the per-subset outputs; empirical_kl runs one pass over
        # remain + forget, and BLAS results may differ by a few ulps.
        assert report.kl_to_ref == pytest.approx(empirical_kl(u, ref, dataset, split), rel=1e-13)
        assert report.kl_to_ref > 0.0

    def test_one_forward_pass_per_checkpoint_and_subset(self, monkeypatch):
        ckpt, dataset, split = self._inputs()
        rows = []
        forward = metrics.forward_logits

        def counting(theta, cfg, x):
            rows.append(len(x))
            return forward(theta, cfg, x)

        monkeypatch.setattr(metrics, "forward_logits", counting)
        full_report(ckpt, ckpt, dataset, split)
        sizes = [len(split.forget_idx), len(split.remain_idx), len(split.test_idx)]
        assert rows == sizes + sizes
        # A second report against the same reference runs only the
        # unlearned model's passes.
        rows.clear()
        full_report(Checkpoint(ckpt.params + 0.5, ckpt.model_config), ckpt, dataset, split)
        assert rows == sizes

    def test_empty_test_set_rejected(self):
        ckpt, dataset, split = self._inputs()
        no_test = ForgetSplit(split.forget_idx, np.concatenate([split.remain_idx, split.test_idx]),
                              np.array([], dtype=np.int64))
        with pytest.raises(ValueError, match="test set must be nonempty"):
            full_report(ckpt, ckpt, dataset, no_test)

    def test_config_mismatch_rejected(self):
        ckpt, dataset, split = self._inputs()
        other = Checkpoint(ckpt.params, ModelConfig(layer_sizes=(4, 6, 3), seed=5))
        with pytest.raises(ValueError, match="config"):
            full_report(ckpt, other, dataset, split)

    def test_unknown_key_rejected_on_load(self):
        ckpt, dataset, split = self._inputs()
        payload = json.loads(full_report(ckpt, ckpt, dataset, split).to_json())
        payload["kl"] = 0.0
        with pytest.raises(ValueError, match=r"unknown report keys \['kl'\]"):
            MetricsReport.from_dict(payload)

    def test_markdown_row_has_seven_columns(self):
        ckpt, dataset, split = self._inputs()
        row = full_report(ckpt, ckpt, dataset, split).markdown_row()
        cells = [c for c in row.strip().strip("|").split("|")]
        assert len(cells) == 7


def _cold_report(u, ref, dataset, split) -> str:
    metrics._reference_memo.clear()
    return full_report(u, ref, dataset, split).to_json()


@st.composite
def report_inputs(draw):
    """A blobs dataset with a random split, a reference and three unlearned
    models of one random 4-h-3 architecture with perturbed parameters."""
    dataset = generate_blobs(seed=draw(st.integers(0, 2**16)),
                             n_per_class=draw(st.integers(10, 40)), class_count=3, dim=4,
                             spread=draw(st.floats(0.3, 2.0)))
    split = make_random_subset_split(dataset, fraction=draw(st.floats(0.1, 0.6)),
                                     test_fraction=draw(st.floats(0.2, 0.4)),
                                     seed=draw(st.integers(0, 2**16)))
    cfg = ModelConfig(layer_sizes=(4, draw(st.integers(1, 8)), 3), seed=draw(st.integers(0, 99)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ckpts = [Checkpoint(init_params(cfg) + rng.normal(0.0, draw(st.floats(0.0, 3.0)),
                                                     param_count(cfg)), cfg)
             for _ in range(4)]
    return dataset, split, ckpts[0], ckpts[1:]


@settings(max_examples=25, deadline=None)
@given(report_inputs())
def test_warm_reference_memo_gives_the_cold_report(inputs):
    dataset, split, ref, units = inputs
    metrics._reference_memo.clear()
    warm = [full_report(u, ref, dataset, split).to_json() for u in units]
    assert warm == [_cold_report(u, ref, dataset, split) for u in units]


class TestReferenceMemo:
    def _inputs(self):
        # Rows 114-119 belong to no set, so an index can move to a row no
        # set holds and change exactly one index array.
        dataset = generate_blobs(seed=55, n_per_class=40, class_count=3, dim=4, spread=0.9)
        split = make_random_subset_split(
            Dataset(dataset.features[:114], dataset.labels[:114], 3),
            fraction=0.3, test_fraction=0.25, seed=4)
        cfg = ModelConfig(layer_sizes=(4, 6, 3), seed=6)
        ref = Checkpoint(init_params(cfg), cfg, {"role": "retrain"})
        u = Checkpoint(init_params(cfg) + np.random.default_rng(8).standard_normal(
            param_count(cfg)), cfg, {"method": "ft"})
        return dataset, split, ref, u

    @staticmethod
    def _flipped_twin(dataset, ref, row):
        """Make spare row 114 a copy of ``row`` whose label flips whether the
        reference classifies it correctly; returns 114."""
        pred = predict_labels(ref.params, ref.model_config, dataset.features[row:row + 1])[0]
        dataset.features[114] = dataset.features[row]
        dataset.labels[114] = (pred + 1) % 3 if dataset.labels[row] == pred else pred
        return 114

    @pytest.mark.parametrize("change", ["features", "labels", "params", "forget_idx",
                                        "remain_idx", "test_idx"])
    def test_in_place_change_between_reports_is_seen(self, change):
        dataset, split, ref, u = self._inputs()
        if change.endswith("_idx"):
            idx = getattr(split, change)
            twin = self._flipped_twin(dataset, ref, idx[0])
        before = full_report(u, ref, dataset, split).to_json()
        if change == "features":
            dataset.features[split.remain_idx[0]] += 1.0
        elif change == "labels":
            dataset.labels[split.forget_idx[0]] = (dataset.labels[split.forget_idx[0]] + 1) % 3
        elif change == "params":
            ref.params[-1] += 1.0
        else:
            idx[0] = twin
        after = full_report(u, ref, dataset, split).to_json()
        assert after != before
        assert after == _cold_report(u, ref, dataset, split)

    def test_config_of_a_reference_with_the_same_bytes_is_seen(self):
        # (4, 8, 3) and (4, 2, 9, 3) both hold 67 parameters.
        dataset, split, _, _ = self._inputs()
        theta = np.random.default_rng(9).standard_normal(67)
        for sizes in ((4, 8, 3), (4, 2, 9, 3)):
            cfg = ModelConfig(layer_sizes=sizes)
            ref, u = Checkpoint(theta, cfg), Checkpoint(0.5 * theta, cfg)
            assert full_report(u, ref, dataset, split).to_json() == _cold_report(
                u, ref, dataset, split)

    def test_remembered_outputs_cannot_be_changed_by_a_caller(self):
        dataset, split, ref, u = self._inputs()
        first = full_report(u, ref, dataset, split).to_json()
        acc, _, _, probs = metrics._evaluate_reference(ref, dataset, split)
        assert not probs.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            probs[0, 0] = 1.0
        acc["fa"] = -1.0
        assert full_report(u, ref, dataset, split).to_json() == first
