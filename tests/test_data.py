"""Dataset generation, splits, and file round-trips."""

import hashlib
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from unlearnlab import data
from unlearnlab.data import (
    Dataset,
    ForgetSplit,
    _parse_csv_rows,
    generate_blobs,
    load_csv_dataset,
    load_split,
    make_classwise_split,
    make_random_subset_split,
    save_csv_dataset,
    save_split,
)


class TestBlobs:
    def test_counts_and_balance(self):
        d = generate_blobs(seed=0, n_per_class=50, class_count=4, dim=3, spread=1.0)
        assert len(d) == 200
        assert all(np.sum(d.labels == c) == 50 for c in range(4))

    def test_separable_limit(self):
        d = generate_blobs(seed=1, n_per_class=40, class_count=4, dim=8, spread=1e-4)
        means = np.stack([d.features[d.labels == c].mean(axis=0) for c in range(4)])
        dists = np.linalg.norm(d.features[:, None, :] - means[None], axis=2)
        assert np.mean(np.argmin(dists, axis=1) == d.labels) == 1.0

    def test_deterministic(self):
        a = generate_blobs(seed=3, n_per_class=10, class_count=3, dim=4, spread=0.5)
        b = generate_blobs(seed=3, n_per_class=10, class_count=3, dim=4, spread=0.5)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            generate_blobs(seed=0, n_per_class=0, class_count=2, dim=2, spread=1.0)
        with pytest.raises(ValueError):
            generate_blobs(seed=0, n_per_class=5, class_count=2, dim=2, spread=0.0)


class TestRandomSubsetSplit:
    def test_arithmetic(self):
        d = generate_blobs(seed=2, n_per_class=250, class_count=4, dim=2, spread=1.0)
        s = make_random_subset_split(d, fraction=0.1, test_fraction=0.2, seed=0)
        assert len(s.test_idx) == 200
        assert len(s.forget_idx) == 80
        assert len(s.remain_idx) == 720

    @pytest.mark.parametrize("seed", range(5))
    def test_disjoint_and_covering(self, seed):
        d = generate_blobs(seed=4, n_per_class=30, class_count=3, dim=2, spread=1.0)
        s = make_random_subset_split(d, fraction=0.25, test_fraction=0.1, seed=seed)
        sets = [set(s.forget_idx), set(s.remain_idx), set(s.test_idx)]
        assert not (sets[0] & sets[1]) and not (sets[0] & sets[2]) and not (sets[1] & sets[2])
        assert sets[0] | sets[1] | sets[2] == set(range(len(d)))

    def test_half_fraction_exact(self):
        d = generate_blobs(seed=5, n_per_class=50, class_count=2, dim=2, spread=1.0)
        s = make_random_subset_split(d, fraction=0.5, test_fraction=0.0, seed=1)
        assert len(s.forget_idx) == len(s.remain_idx) == 50

    def test_rejects_degenerate_fraction(self):
        d = generate_blobs(seed=5, n_per_class=3, class_count=2, dim=2, spread=1.0)
        with pytest.raises(ValueError):
            make_random_subset_split(d, fraction=0.01, test_fraction=0.0, seed=0)


class TestClasswiseSplit:
    def test_balanced_proportion(self):
        d = generate_blobs(seed=6, n_per_class=25, class_count=4, dim=2, spread=1.0)
        s = make_classwise_split(d, class_id=2, test_fraction=0.0, seed=0)
        assert len(s.forget_idx) == 25 and len(s.remain_idx) == 75

    def test_test_excludes_forgotten_class(self):
        d = generate_blobs(seed=7, n_per_class=40, class_count=4, dim=2, spread=1.0)
        s = make_classwise_split(d, class_id=1, test_fraction=0.2, seed=3)
        assert not np.any(d.labels[s.test_idx] == 1)
        assert np.all(d.labels[s.forget_idx] == 1)

    def test_union_covers_dataset(self):
        d = generate_blobs(seed=8, n_per_class=20, class_count=3, dim=2, spread=1.0)
        s = make_classwise_split(d, class_id=0, test_fraction=0.25, seed=1)
        covered = set(s.forget_idx) | set(s.remain_idx) | set(s.test_idx)
        assert covered == set(range(len(d)))

    def test_absent_class_rejected(self):
        d = generate_blobs(seed=9, n_per_class=10, class_count=3, dim=2, spread=1.0)
        with pytest.raises(ValueError, match="not present"):
            make_classwise_split(d, class_id=7, test_fraction=0.1, seed=0)


class TestCsvRoundTrip:
    def test_single_row(self, tmp_path):
        p = tmp_path / "tiny.csv"
        p.write_text("label,f0\n2,1.5\n")
        d = load_csv_dataset(str(p))
        assert len(d) == 1
        assert d.labels[0] == 2
        assert d.features[0, 0] == 1.5

    def test_roundtrip_identity(self, tmp_path):
        d = generate_blobs(seed=10, n_per_class=20, class_count=3, dim=5, spread=1.3)
        p = tmp_path / "blobs.csv"  # a Path, not a str: both are accepted
        save_csv_dataset(d, p)
        loaded = load_csv_dataset(p)
        assert np.array_equal(loaded.features, d.features)
        assert np.array_equal(loaded.labels, d.labels)
        assert loaded.class_count == d.class_count

    @pytest.mark.parametrize("label", ["99999999999999999999", "-9223372036854775809"])
    def test_label_outside_int64_reports_line(self, tmp_path, label):
        p = tmp_path / "big.csv"
        p.write_text(f"label,f0\n0,1.5\n{label},2.5\n")
        with pytest.raises(ValueError, match=f"line 3: label {label} is outside int64"):
            load_csv_dataset(str(p))

    def test_bad_label_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("label,f0\nx,1.5\n")
        with pytest.raises(ValueError, match="line 2"):
            load_csv_dataset(str(p))

    @pytest.mark.parametrize("label", ["1.5", "1.0"])
    def test_non_integer_label_reports_line(self, tmp_path, label):
        p = tmp_path / "float_label.csv"
        p.write_text(f"label,f0\n0,2.5\n{label},1.5\n")
        with pytest.raises(ValueError, match="line 3: invalid literal for int"):
            load_csv_dataset(str(p))

    def test_ragged_rows_with_a_matching_cell_count_are_rejected(self, tmp_path):
        # 3 + 1 cells fill two 2-column rows, but neither row has 2 columns.
        p = tmp_path / "ragged.csv"
        p.write_text("label,f0\n0,1,2\n1\n")
        with pytest.raises(ValueError, match="line 2: expected 2 columns, got 3"):
            load_csv_dataset(str(p))

    def test_whitespace_line_is_a_row_not_a_blank(self, tmp_path):
        p = tmp_path / "ws.csv"
        p.write_text("label,f0\n0,1\n \n1,2\n")
        with pytest.raises(ValueError, match="line 3: expected 2 columns, got 1"):
            load_csv_dataset(str(p))

    def test_values_follow_python_parsing(self, tmp_path):
        p = tmp_path / "python.csv"
        p.write_text("label,f0,f1\n 1_0 ,1_5, -2.5e-1 \n")
        d = load_csv_dataset(str(p))
        assert d.labels.tolist() == [10]
        assert d.features.tolist() == [[15.0, -0.25]]

    def test_no_data_rows(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("label,f0\n\n\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv_dataset(str(p))

    @pytest.mark.parametrize("value", ["nan", "-inf", "1e400"])
    def test_non_finite_feature_reports_line(self, tmp_path, value):
        p = tmp_path / "nonfinite.csv"
        p.write_text(f"label,f0,f1\n0,1,2\n\n1,{value},3\n")
        with pytest.raises(ValueError, match="line 4: features must be finite"):
            load_csv_dataset(str(p))

    def test_loaded_arrays_are_contiguous(self, tmp_path):
        d = generate_blobs(seed=12, n_per_class=5, class_count=2, dim=3, spread=1.0)
        p = tmp_path / "blobs.csv"
        save_csv_dataset(d, str(p))
        loaded = load_csv_dataset(str(p))
        assert loaded.features.flags.c_contiguous and loaded.labels.flags.c_contiguous
        assert loaded.features.dtype == np.float64 and loaded.labels.dtype == np.int64

    def test_writer_matches_per_value_formatting(self, tmp_path):
        rng = np.random.default_rng(13)
        special = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
        feats = np.concatenate(
            [np.array(special).reshape(2, 2), rng.standard_normal((50, 2)) * 1e3]
        )
        d = Dataset(feats, rng.integers(0, 3, size=len(feats)), class_count=3)
        p = tmp_path / "fmt.csv"
        save_csv_dataset(d, str(p))
        expected = "label,f0,f1\n" + "".join(
            str(int(label)) + "," + ",".join(f"{v:.17g}" for v in row) + "\n"
            for label, row in zip(d.labels, d.features)
        )
        assert p.read_bytes() == expected.encode("utf-8")

    def test_missing_header(self, tmp_path):
        p = tmp_path / "noheader.csv"
        p.write_text("2,1.5\n")
        with pytest.raises(ValueError, match="header"):
            load_csv_dataset(str(p))


def _edit_one_digit(path):
    """Rewrite the CSV in place with one feature digit changed: same byte
    length, same modification time, different bytes and values."""
    stat = os.stat(path)
    with open(path, "rb") as fh:
        text = fh.read()
    end = text.index(b"\n", text.index(b"\n") + 1) - 1  # last byte of line 2
    digit = b"%d" % ((int(text[end : end + 1]) + 1) % 10)
    with open(path, "r+b") as fh:
        fh.seek(end)
        fh.write(digit)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert os.stat(path).st_size == stat.st_size


class TestSidecar:
    def _saved(self, tmp_path):
        d = generate_blobs(seed=14, n_per_class=10, class_count=3, dim=4, spread=1.0)
        p = str(tmp_path / "d.csv")
        return d, p, save_csv_dataset(d, p)

    def test_digest_is_the_sha256_of_the_csv_bytes(self, tmp_path):
        _, p, digest = self._saved(tmp_path)
        with open(p, "rb") as fh:
            assert digest == hashlib.sha256(fh.read()).hexdigest()
        assert load_csv_dataset(p).sha256 == digest
        with np.load(p + ".npz") as entries:
            assert str(entries["sha256"]) == digest

    def test_rewrite_with_same_length_and_mtime_is_reparsed(self, tmp_path):
        d, p, digest = self._saved(tmp_path)
        _edit_one_digit(p)
        loaded = load_csv_dataset(p)
        assert loaded.sha256 != digest
        assert not np.array_equal(loaded.features[0], d.features[0])
        assert np.array_equal(loaded.features[1:], d.features[1:])
        assert loaded.features.tobytes() == _parse_csv_rows(p, 5)[1].tobytes()
        with np.load(p + ".npz") as entries:
            assert str(entries["sha256"]) == loaded.sha256

    def test_truncated_sidecar_is_an_error_naming_it(self, tmp_path):
        _, p, _ = self._saved(tmp_path)
        with open(p + ".npz", "r+b") as fh:
            fh.truncate(os.path.getsize(p + ".npz") // 2)
        with pytest.raises(ValueError, match=f"{p}.npz: unreadable dataset sidecar"):
            load_csv_dataset(p)

    @pytest.mark.parametrize("entries", ["no_sha256", "no_table", "wrong_dtype", "npy"])
    def test_malformed_sidecar_is_an_error_naming_it(self, tmp_path, entries):
        _, p, digest = self._saved(tmp_path)
        sha = np.array(digest)
        payload = {
            "no_sha256": {"table": np.zeros(3)},
            "no_table": {"sha256": sha},
            "wrong_dtype": {"sha256": sha, "table": np.zeros((30, 5))},
        }
        if entries == "npy":
            with open(p + ".npz", "wb") as fh:
                np.save(fh, np.zeros(3))
        else:
            np.savez(p + ".npz", **payload[entries])
        with pytest.raises(ValueError, match=f"{p}.npz: .*delete it to re-parse"):
            load_csv_dataset(p)

    def test_malformed_csv_leaves_no_sidecar(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("label,f0\n0,1.5\n\n1,x\n")
        with pytest.raises(ValueError, match="line 4: could not convert"):
            load_csv_dataset(str(p))
        assert os.listdir(tmp_path) == ["bad.csv"]

    def test_unwritable_sidecar_leaves_the_read_working(self, tmp_path, monkeypatch):
        p = tmp_path / "ok.csv"
        p.write_text("label,f0\n0,1.5\n1,2.5\n")

        def refuse(src, dst):
            raise PermissionError(dst)

        monkeypatch.setattr(data.os, "replace", refuse)
        for _ in range(2):
            d = load_csv_dataset(str(p))
            assert d.features.tolist() == [[1.5], [2.5]] and d.labels.tolist() == [0, 1]
        assert os.listdir(tmp_path) == ["ok.csv"]


class TestSplitRoundTrip:
    def _split(self):
        d = generate_blobs(seed=11, n_per_class=30, class_count=3, dim=2, spread=1.0)
        return make_random_subset_split(d, fraction=0.2, test_fraction=0.1, seed=2)

    def test_roundtrip_identity(self, tmp_path):
        s = self._split()
        p = tmp_path / "split.json"
        save_split(s, str(p))
        loaded = load_split(str(p))
        assert np.array_equal(loaded.forget_idx, s.forget_idx)
        assert np.array_equal(loaded.remain_idx, s.remain_idx)
        assert np.array_equal(loaded.test_idx, s.test_idx)
        assert loaded.mode == s.mode

    def test_overlap_rejected_on_load(self, tmp_path):
        p = tmp_path / "overlap.json"
        p.write_text(
            '{"forget_idx": [0, 1], "remain_idx": [1, 2], "test_idx": [3], "mode": {}}'
        )
        with pytest.raises(ValueError, match="overlap"):
            load_split(str(p))

    def test_duplicate_within_one_set_rejected_on_load(self, tmp_path):
        p = tmp_path / "duplicate.json"
        p.write_text(
            '{"forget_idx": [0, 1], "remain_idx": [2, 3, 3], "test_idx": [4], "mode": {}}'
        )
        with pytest.raises(ValueError, match="overlap"):
            load_split(str(p))

    def test_empty_forget_rejected(self, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text('{"forget_idx": [], "remain_idx": [1], "test_idx": [], "mode": {}}')
        with pytest.raises(ValueError, match="forget"):
            load_split(str(p))

    def test_index_past_last_row_rejected(self, tmp_path):
        p = tmp_path / "past.json"
        p.write_text('{"forget_idx": [0], "remain_idx": [1, 2], "test_idx": [3], "mode": {}}')
        assert len(load_split(str(p), n_rows=4).test_idx) == 1
        with pytest.raises(ValueError, match="index 3 is past the last row"):
            load_split(str(p), n_rows=3)

    def test_split_that_leaves_rows_out_rejected(self, tmp_path):
        p = tmp_path / "short.json"
        p.write_text('{"forget_idx": [0], "remain_idx": [1], "test_idx": [3], "mode": {}}')
        assert len(load_split(str(p)).test_idx) == 1
        with pytest.raises(ValueError, match="covers 3 of the dataset's 4 rows"):
            load_split(str(p), n_rows=4)


    @pytest.mark.parametrize("forget", ["[0, 1.7]", "[0, true]", "[0, 1.0]", '[0, "1"]'])
    def test_non_integer_index_rejected_on_load(self, tmp_path, forget):
        p = tmp_path / "frac.json"
        p.write_text(f'{{"forget_idx": {forget}, "remain_idx": [2, 3], "test_idx": [4, 5]}}')
        with pytest.raises(ValueError, match="forget_idx must hold integers only"):
            load_split(str(p), n_rows=6)

def test_dataset_label_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([0, 5]), class_count=2)


def test_dataset_rejects_non_finite_features():
    feats = np.zeros((3, 2))
    feats[1, 0] = np.inf
    with pytest.raises(ValueError, match="row 1"):
        Dataset(feats, np.array([0, 1, 0]), class_count=2)


def test_forget_split_validation():
    with pytest.raises(ValueError):
        ForgetSplit(np.array([0]), np.array([0]), np.array([], dtype=int))


def test_forget_split_rejects_float_and_bool_index_arrays():
    with pytest.raises(ValueError, match="remain_idx must hold integers only"):
        ForgetSplit(np.array([0]), np.array([1.0, 2.0]), np.array([], dtype=int))
    with pytest.raises(ValueError, match="test_idx must hold integers only"):
        ForgetSplit(np.array([0]), np.array([1]), np.array([True]))
    with pytest.raises(ValueError, match="forget_idx must hold integers only"):
        ForgetSplit((0, True), [1], [])


def test_forget_split_rejects_negative_index():
    with pytest.raises(ValueError, match=">= 0"):
        ForgetSplit([-1], [0, 1], [2])


# Property tests: the file formats round-trip exactly, and a bad CSV row is
# reported by its physical line number however many blank lines precede it.

finite_f64 = st.floats(allow_nan=False, allow_infinity=False, width=64)
edge_f64 = st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308])


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 12))
    dim = draw(st.integers(1, 5))
    class_count = draw(st.integers(1, 6))
    feats = draw(arrays(np.float64, (n, dim), elements=st.one_of(edge_f64, finite_f64)))
    labels = draw(arrays(np.int64, n, elements=st.integers(0, class_count - 1)))
    return Dataset(feats, labels, class_count)


@settings(max_examples=60, deadline=None)
@given(datasets())
def test_csv_round_trip_is_bit_exact(dataset):
    """The writer's sidecar, a parse, and the parse's sidecar all give the
    saved bits; the two sidecars are the same bytes."""
    no_parse = mock.patch.object(data, "_parse_csv_rows", side_effect=AssertionError)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.csv")
        digest = save_csv_dataset(dataset, path)
        with open(path + ".npz", "rb") as fh:
            written = fh.read()
        with no_parse:
            from_writer = load_csv_dataset(path, dataset.class_count)
        os.remove(path + ".npz")
        parsed = load_csv_dataset(path, dataset.class_count)
        with open(path + ".npz", "rb") as fh:
            rebuilt = fh.read()
        with no_parse:
            cached = load_csv_dataset(path, dataset.class_count)
    assert rebuilt == written
    for loaded in (from_writer, parsed, cached):
        assert loaded.features.tobytes() == dataset.features.tobytes()
        assert np.array_equal(loaded.labels, dataset.labels)
        assert loaded.sha256 == digest


BAD_ROWS = {
    "0,1.5,2,3": "expected 3 columns, got 4",
    "0,1.5": "expected 3 columns, got 2",
    "x,1.5,2": "invalid literal for int",
    "1.5,1.5,2": "invalid literal for int",
    "0,abc,2": "could not convert string to float",
    "0,1.5,nan": "features must be finite",
    "0,inf,2": "features must be finite",
}


@settings(max_examples=60, deadline=None)
@given(
    before=st.lists(st.sampled_from(["0,1.5,2", ""]), max_size=15),
    after=st.lists(st.sampled_from(["1,3,4", ""]), max_size=5),
    bad=st.sampled_from(sorted(BAD_ROWS)),
)
def test_bad_row_reports_its_physical_line(before, after, bad):
    text = "\n".join(["label,f0,f1", *before, bad, *after]) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bad.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with pytest.raises(ValueError) as exc:
            load_csv_dataset(path)
    assert str(exc.value).startswith(f"{path}: line {len(before) + 2}: {BAD_ROWS[bad]}")


@st.composite
def splits(draw):
    n = draw(st.integers(2, 40))
    perm = draw(st.permutations(range(n)))
    n_forget = draw(st.integers(1, n - 1))
    n_remain = draw(st.integers(1, n - n_forget))
    mode = draw(
        st.dictionaries(
            st.text(max_size=8),
            st.one_of(st.integers(-5, 5), finite_f64, st.text(max_size=8)),
            max_size=3,
        )
    )
    return ForgetSplit(
        perm[:n_forget], perm[n_forget:n_forget + n_remain],
        perm[n_forget + n_remain:], mode,
    )


@settings(max_examples=60, deadline=None)
@given(splits())
def test_split_json_round_trip(split):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "split.json")
        save_split(split, path)
        loaded = load_split(path, n_rows=len(split.train_idx) + len(split.test_idx))
    for name in ("forget_idx", "remain_idx", "test_idx"):
        assert np.array_equal(getattr(loaded, name), getattr(split, name))
        assert getattr(loaded, name).dtype == np.int64
    assert loaded.mode == split.mode
