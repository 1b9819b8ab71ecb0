"""SGD training, the retrain reference, and checkpoint persistence."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from unlearnlab.data import ForgetSplit, generate_blobs, make_random_subset_split
from unlearnlab.metrics import accuracy
from unlearnlab.model import ModelConfig, init_params, param_count
from unlearnlab.trainer import (
    Checkpoint,
    TrainConfig,
    load_checkpoint,
    retrain_oracle,
    save_checkpoint,
    sgd_train,
)


@pytest.fixture(scope="module")
def toy():
    dataset = generate_blobs(seed=21, n_per_class=60, class_count=3, dim=4, spread=0.4)
    split = make_random_subset_split(dataset, fraction=0.2, test_fraction=0.2, seed=3)
    return dataset, split


def test_train_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="momentom"):
        TrainConfig.from_dict({"lr": 0.1, "epochs": 1, "batch_size": 8, "momentom": 0.9})


def test_zero_epochs_returns_init(toy):
    dataset, split = toy
    cfg = ModelConfig(layer_sizes=(4, 3), seed=1)
    theta0 = init_params(cfg)
    ckpt = sgd_train(theta0, TrainConfig(lr=0.1, epochs=0, batch_size=16), cfg, dataset, split.train_idx)
    assert np.array_equal(ckpt.params, theta0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_convex_toy_reaches_high_accuracy(toy, seed):
    dataset, split = toy
    cfg = ModelConfig(layer_sizes=(4, 3), seed=seed)
    tcfg = TrainConfig(lr=0.5, epochs=60, batch_size=32, momentum=0.9, schedule="cosine", seed=seed)
    ckpt = sgd_train(init_params(cfg), tcfg, cfg, dataset, split.train_idx)
    assert accuracy(ckpt.params, cfg, dataset, split.train_idx) >= 0.99


def test_training_is_bit_deterministic(toy):
    dataset, split = toy
    cfg = ModelConfig(layer_sizes=(4, 6, 3), seed=5)
    tcfg = TrainConfig(lr=0.2, epochs=4, batch_size=16, momentum=0.5, seed=11)
    a = sgd_train(init_params(cfg), tcfg, cfg, dataset, split.train_idx)
    b = sgd_train(init_params(cfg), tcfg, cfg, dataset, split.train_idx)
    assert np.array_equal(a.params, b.params)


def test_epoch_loss_monotone_on_convex_full_batch(toy):
    dataset, split = toy
    # Full-batch plain gradient descent on a linear softmax model is convex;
    # the per-epoch mean loss must not increase.
    cfg = ModelConfig(layer_sizes=(4, 3), seed=2)
    tcfg = TrainConfig(lr=0.2, epochs=25, batch_size=10_000, momentum=0.0, seed=0)
    ckpt = sgd_train(init_params(cfg), tcfg, cfg, dataset, split.train_idx)
    losses = ckpt.provenance["epoch_mean_loss"]
    diffs = np.diff(losses)
    assert np.all(diffs <= 1e-9)


def test_nonfinite_loss_aborts_with_step_index(toy):
    dataset, split = toy
    cfg = ModelConfig(layer_sizes=(4, 3), seed=3)
    theta0 = init_params(cfg)
    theta0[0] = np.inf
    tcfg = TrainConfig(lr=0.1, epochs=2, batch_size=32, seed=0)
    with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="step 0"):
        sgd_train(theta0, tcfg, cfg, dataset, split.train_idx)


def test_cosine_schedule_shrinks_late_steps(toy):
    dataset, split = toy
    cfg = ModelConfig(layer_sizes=(4, 3), seed=4)
    constant = sgd_train(
        init_params(cfg), TrainConfig(lr=0.1, epochs=3, batch_size=16, seed=7), cfg, dataset, split.train_idx
    )
    cosine = sgd_train(
        init_params(cfg),
        TrainConfig(lr=0.1, epochs=3, batch_size=16, schedule="cosine", seed=7),
        cfg,
        dataset,
        split.train_idx,
    )
    assert not np.array_equal(constant.params, cosine.params)


class TestRetrainOracle:
    def test_never_reads_forget_rows(self, toy):
        dataset, split = toy
        cfg = ModelConfig(layer_sizes=(4, 3), seed=6)
        tcfg = TrainConfig(lr=0.2, epochs=3, batch_size=16, seed=1)
        forget = set(int(i) for i in split.forget_idx)
        touched = []
        retrain_oracle(cfg, tcfg, dataset, split, on_batch=lambda b: touched.extend(int(i) for i in b))
        assert len(set(touched) & forget) == 0
        assert set(touched) == set(int(i) for i in split.remain_idx)

    def test_guard_fires_on_a_split_that_slipped_past_validation(self, toy, monkeypatch):
        dataset, split = toy
        monkeypatch.setattr(ForgetSplit, "validate", lambda self: None)
        overlapping = ForgetSplit(split.forget_idx, np.sort(np.concatenate(
            [split.remain_idx, split.forget_idx[:3]])), split.test_idx)
        cfg = ModelConfig(layer_sizes=(4, 3), seed=6)
        tcfg = TrainConfig(lr=0.2, epochs=1, batch_size=16, seed=1)
        with pytest.raises(AssertionError, match=r"retrain touched forget indices \[\d"):
            retrain_oracle(cfg, tcfg, dataset, overlapping)

    def test_two_seeds_differ(self, toy):
        dataset, split = toy
        cfg = ModelConfig(layer_sizes=(4, 6, 3), seed=0)
        a = retrain_oracle(cfg, TrainConfig(lr=0.2, epochs=5, batch_size=16, seed=1), dataset, split)
        b = retrain_oracle(cfg, TrainConfig(lr=0.2, epochs=5, batch_size=16, seed=2), dataset, split)
        assert not np.array_equal(a.params, b.params)

    def test_generalization_pattern(self, toy):
        # On a random-subset split the retrained model generalizes to the
        # forgotten rows: forget accuracy tracks test accuracy.
        dataset, split = toy
        cfg = ModelConfig(layer_sizes=(4, 8, 3), seed=1)
        tcfg = TrainConfig(lr=0.3, epochs=40, batch_size=32, momentum=0.9, schedule="cosine", seed=5)
        ckpt = retrain_oracle(cfg, tcfg, dataset, split)
        fa = accuracy(ckpt.params, cfg, dataset, split.forget_idx)
        ta = accuracy(ckpt.params, cfg, dataset, split.test_idx)
        assert abs(fa - ta) <= 0.10


class TestCheckpointIO:
    def _ckpt(self):
        cfg = ModelConfig(layer_sizes=(3, 5, 2), seed=9)
        return Checkpoint(init_params(cfg), cfg, {"role": "pretrain", "seeds": {"model": 9}})

    def test_roundtrip_bit_identical(self, tmp_path):
        ckpt = self._ckpt()
        save_checkpoint(ckpt, str(tmp_path / "ck"))
        loaded = load_checkpoint(str(tmp_path / "ck"))
        assert np.array_equal(loaded.params, ckpt.params)
        assert loaded.model_config == ckpt.model_config
        assert loaded.provenance["role"] == "pretrain"
        assert sorted(os.listdir(tmp_path / "ck")) == ["manifest.json", "params.bin"]
        manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        assert sorted(manifest) == ["model_config", "provenance", "schema_version"]

    def test_truncated_blob_rejected(self, tmp_path):
        ckpt = self._ckpt()
        d = tmp_path / "ck"
        save_checkpoint(ckpt, str(d))
        blob = (d / "params.bin").read_bytes()
        (d / "params.bin").write_bytes(blob[:-8])
        with pytest.raises(ValueError, match="params.bin blob holds 248 bytes"):
            load_checkpoint(str(d))

    def test_unknown_schema_rejected(self, tmp_path):
        ckpt = self._ckpt()
        d = tmp_path / "ck"
        save_checkpoint(ckpt, str(d))
        manifest = json.loads((d / "manifest.json").read_text())
        manifest["schema_version"] = 99
        (d / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="schema_version"):
            load_checkpoint(str(d))

    def test_model_config_that_disagrees_with_params_bin_rejected(self, tmp_path):
        ckpt = self._ckpt()
        d = tmp_path / "ck"
        save_checkpoint(ckpt, str(d))
        manifest = json.loads((d / "manifest.json").read_text())
        manifest["model_config"]["layer_sizes"] = [3, 4, 2]
        (d / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=r"blob holds 256 bytes, but the model "
                                             r"config has 26 float64 parameters"):
            load_checkpoint(str(d))

    def test_non_finite_parameters_rejected(self, tmp_path):
        ckpt = self._ckpt()
        d = tmp_path / "ck"
        save_checkpoint(ckpt, str(d))
        params = np.frombuffer((d / "params.bin").read_bytes(), dtype="<f8").copy()
        params[3] = np.nan
        (d / "params.bin").write_bytes(params.tobytes())
        with pytest.raises(ValueError, match="non-finite parameters"):
            load_checkpoint(str(d))

    @pytest.mark.parametrize("blob", ["../outside.bin", "sub/params.bin", "..", ""])
    def test_earlier_manifest_loads_its_own_params(self, tmp_path, blob):
        # Earlier versions also wrote param_count, dtype and a blob name. The
        # loader ignores them and reads the directory's own params.bin, never
        # a well-formed file the name points at.
        ckpt = self._ckpt()
        d = tmp_path / "ck"
        save_checkpoint(ckpt, str(d))
        (tmp_path / "outside.bin").write_bytes((2.0 * ckpt.params).astype("<f8").tobytes())
        manifest = json.loads((d / "manifest.json").read_text())
        manifest.update(param_count=ckpt.params.size, dtype="f64", blob=blob)
        (d / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2))
        loaded = load_checkpoint(str(d))
        assert loaded.params.tobytes() == ckpt.params.tobytes()
        assert loaded.model_config == ckpt.model_config
        assert loaded.provenance == ckpt.provenance


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**40), 2**40)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=10,
)


@st.composite
def checkpoints(draw):
    sizes = draw(st.lists(st.integers(1, 6), min_size=2, max_size=4))
    cfg = ModelConfig(tuple(sizes), init_scale=draw(st.floats(1e-3, 10.0)),
                      seed=draw(st.integers(0, 2**31 - 1)))
    params = draw(arrays(np.float64, param_count(cfg),
                         elements=st.floats(allow_nan=False, allow_infinity=False)))
    provenance = draw(st.dictionaries(st.text(max_size=6), json_values, max_size=5))
    return Checkpoint(params, cfg, provenance)


@settings(max_examples=60, deadline=None)
@given(checkpoints())
def test_checkpoint_round_trip_is_bit_exact(ckpt):
    with tempfile.TemporaryDirectory() as tmp:
        directory = os.path.join(tmp, "ck")
        save_checkpoint(ckpt, directory)
        loaded = load_checkpoint(directory)
    assert loaded.params.tobytes() == ckpt.params.tobytes()
    assert loaded.model_config == ckpt.model_config
    assert loaded.provenance == ckpt.provenance
