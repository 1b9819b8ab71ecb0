"""Datasets, forget/remain/test splits, and their file formats.

The file formats are intentionally plain: CSV for features/labels (header
``label,f0,f1,...``, values written with 17 significant digits so float64
round-trips exactly) and JSON for index splits. Each CSV gets a binary
sidecar ``<csv>.npz`` keyed by the SHA-256 of the CSV bytes, so a file is
parsed once however many times it is read; the CSV stays the file of record.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import warnings
import zipfile
from dataclasses import dataclass, field

import numpy as np

SIDECAR_SUFFIX = ".npz"
_HASH_CHUNK = 1 << 20
_WRITE_ROWS = 1024


@dataclass
class Dataset:
    features: np.ndarray  # (N, dim) float64
    labels: np.ndarray  # (N,) int64
    class_count: int
    # SHA-256 of the CSV bytes this dataset was read from; None in memory.
    sha256: str | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or len(self.features) != len(self.labels):
            raise ValueError("features must be (N, dim) aligned with labels (N,)")
        if len(self.labels) < 1:
            raise ValueError("dataset must contain at least one sample")
        finite = np.isfinite(self.features).all(axis=1)
        if not finite.all():
            row = int(np.argmin(finite))
            raise ValueError(
                f"features must be finite; row {row} holds {self.features[row]}"
            )
        if self.labels.min() < 0 or self.labels.max() >= self.class_count:
            raise ValueError(
                f"labels must lie in [0, {self.class_count}), got "
                f"range [{self.labels.min()}, {self.labels.max()}]"
            )

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class ForgetSplit:
    """Disjoint partition of a dataset into forget/remain training sets plus
    a held-out test set. forget + remain + test covers every index."""

    forget_idx: np.ndarray
    remain_idx: np.ndarray
    test_idx: np.ndarray
    mode: dict = field(default_factory=dict)
    # SHA-256 of the split file's bytes this split was read from or written
    # to; None in memory.
    sha256: str | None = None

    def __post_init__(self):
        self.forget_idx = np.asarray(self.forget_idx, dtype=np.int64)
        self.remain_idx = np.asarray(self.remain_idx, dtype=np.int64)
        self.test_idx = np.asarray(self.test_idx, dtype=np.int64)
        self.validate()

    def validate(self):
        if len(self.forget_idx) == 0:
            raise ValueError("forget set must be nonempty")
        if len(self.remain_idx) == 0:
            raise ValueError("remain set must be nonempty")
        every = np.concatenate([self.forget_idx, self.remain_idx, self.test_idx])
        if every.min() < 0:
            raise ValueError(f"split indices must be >= 0, got {every.min()}")
        if len(np.unique(every)) != len(every):
            raise ValueError("split index sets overlap")

    @property
    def train_idx(self) -> np.ndarray:
        return np.concatenate([self.forget_idx, self.remain_idx])


def generate_blobs(
    seed: int, n_per_class: int, class_count: int, dim: int, spread: float
) -> Dataset:
    """Gaussian clusters whose seeded means sit on a radius-2 sphere."""
    if n_per_class < 1 or class_count < 1 or dim < 1:
        raise ValueError("counts and dimension must be >= 1")
    if spread <= 0:
        raise ValueError(f"spread must be positive, got {spread}")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((class_count, dim))
    means = 2.0 * raw / np.linalg.norm(raw, axis=1, keepdims=True)
    feats = []
    labels = []
    for c in range(class_count):
        feats.append(means[c] + spread * rng.standard_normal((n_per_class, dim)))
        labels.append(np.full(n_per_class, c, dtype=np.int64))
    return Dataset(np.vstack(feats), np.concatenate(labels), class_count)


def make_random_subset_split(
    dataset: Dataset, fraction: float, test_fraction: float, seed: int
) -> ForgetSplit:
    """Held-out test indices first, then the training pool splits into
    |forget| = round(fraction * pool)."""
    if not 0 < fraction < 1:
        raise ValueError(f"forget fraction must be in (0,1), got {fraction}")
    if not 0 <= test_fraction < 1:
        raise ValueError(f"test fraction must be in [0,1), got {test_fraction}")
    n = len(dataset)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_test = int(round(test_fraction * n))
    test_idx = perm[:n_test]
    pool = perm[n_test:]
    n_forget = int(round(fraction * len(pool)))
    if n_forget == 0 or n_forget == len(pool):
        raise ValueError(
            f"fraction {fraction} leaves an empty forget or remain set "
            f"(pool size {len(pool)})"
        )
    return ForgetSplit(
        forget_idx=np.sort(pool[:n_forget]),
        remain_idx=np.sort(pool[n_forget:]),
        test_idx=np.sort(test_idx),
        mode={"kind": "random_subset", "fraction": fraction},
    )


def make_classwise_split(
    dataset: Dataset, class_id: int, test_fraction: float, seed: int
) -> ForgetSplit:
    """Forget every sample of one class; the test set is drawn from the other
    classes only, so it never contains the forgotten class."""
    if not 0 <= test_fraction < 1:
        raise ValueError(f"test fraction must be in [0,1), got {test_fraction}")
    class_members = np.flatnonzero(dataset.labels == class_id)
    if len(class_members) == 0:
        raise ValueError(f"class {class_id} not present in dataset")
    others = np.flatnonzero(dataset.labels != class_id)
    if len(others) == 0:
        raise ValueError("dataset contains only the forgotten class")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(others)
    n_test = int(round(test_fraction * len(dataset)))
    if n_test >= len(others):
        raise ValueError(
            f"test fraction {test_fraction} exceeds the non-forgotten pool"
        )
    return ForgetSplit(
        forget_idx=np.sort(class_members),
        remain_idx=np.sort(perm[n_test:]),
        test_idx=np.sort(perm[:n_test]),
        mode={"kind": "classwise", "class_id": int(class_id)},
    )


def save_csv_dataset(dataset: Dataset, path: str) -> str:
    """Write ``dataset`` as CSV, and its sidecar from the same arrays, so a
    written file is never parsed. Returns the SHA-256 of the CSV bytes."""
    n, dim = dataset.features.shape
    line = "%d" + ",%.17g" * dim + "\n"
    header = ("label," + ",".join(f"f{i}" for i in range(dim)) + "\n").encode("utf-8")
    digest = hashlib.sha256(header)
    with _replaced_atomically(path) as fh:
        fh.write(header)
        # Rows are formatted a block at a time, so no Python copy of the
        # whole dataset is alive at once.
        for start in range(0, n, _WRITE_ROWS):
            block = slice(start, start + _WRITE_ROWS)
            rows = zip(dataset.labels[block].tolist(), dataset.features[block].tolist())
            text = "".join(line % (label, *values) for label, values in rows).encode("utf-8")
            digest.update(text)
            fh.write(text)
    sha256 = digest.hexdigest()
    _write_sidecar(path, sha256, _as_table(dataset.labels, dataset.features))
    return sha256


def load_csv_dataset(path: str, class_count: int | None = None) -> Dataset:
    """Load ``label,f0,f1,...`` CSV; malformed rows report their line number.

    The sidecar's table is used when it was built from CSV bytes with the
    same SHA-256; otherwise the body is parsed and the sidecar (re)written.
    The parse is one vectorized pass. Only when that pass fails, or finds a
    non-finite feature, does a row-by-row parse run; it reports the first bad
    row with its physical line number (blank lines are skipped but counted).
    Values follow Python's ``int``/``float`` parsing either way. The returned
    ``Dataset`` is validated on every read and carries the digest.
    """
    with open(path, "rb") as raw:
        digest = hashlib.sha256()
        for chunk in iter(lambda: raw.read(_HASH_CHUNK), b""):
            digest.update(chunk)
        sha256 = digest.hexdigest()
        raw.seek(0)
        with io.TextIOWrapper(raw, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            if not header.startswith("label,"):
                raise ValueError(f"{path}: missing 'label,f0,...' header row")
            n_cols = len(header.split(","))
            row = _row_dtype(n_cols - 1)
            table = _read_sidecar(path, sha256, row)
            if table is None:
                table = _parse_csv_body(fh, path, n_cols, row)
                _write_sidecar(path, sha256, table)
    labels = np.ascontiguousarray(table["label"])
    features = np.ascontiguousarray(table["features"])
    if class_count is None:
        class_count = int(labels.max()) + 1
    return Dataset(features, labels, class_count, sha256)


def _row_dtype(dim: int) -> np.dtype:
    return np.dtype([("label", np.int64), ("features", np.float64, (dim,))])


def _as_table(labels: np.ndarray, features: np.ndarray) -> np.ndarray:
    table = np.empty(len(labels), dtype=_row_dtype(features.shape[1]))
    table["label"] = labels
    table["features"] = features
    return table


def _parse_csv_body(fh, path: str, n_cols: int, row: np.dtype) -> np.ndarray:
    """The rows after the header as one ``row``-typed table."""
    try:
        with warnings.catch_warnings():
            # An empty body is reported by the row-by-row parse below.
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(fh, dtype=row, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        table = None
    if table is not None and len(table) and np.isfinite(table["features"]).all():
        return table
    return _as_table(*_parse_csv_rows(path, n_cols))


def _read_sidecar(path: str, sha256: str, row: np.dtype) -> np.ndarray | None:
    """The sidecar's table if it was built from CSV bytes with ``sha256``;
    None if there is no sidecar or it is stale. A sidecar that cannot be read
    or does not hold ``row``-typed rows is an error, not a miss."""
    sidecar = f"{path}{SIDECAR_SUFFIX}"
    try:
        # The handle is ours, so a sidecar np.load rejects is still closed.
        with open(sidecar, "rb") as fh, np.load(fh, allow_pickle=False) as entries:
            stored = entries["sha256"]
            if stored.shape != () or stored.dtype.kind != "U":
                raise ValueError(f"sha256 entry of dtype {stored.dtype} is not one string")
            if str(stored) != sha256:
                return None
            table = entries["table"]
    except FileNotFoundError:
        return None
    except (OSError, ValueError, KeyError, EOFError, TypeError, zipfile.BadZipFile) as exc:
        # TypeError: a plain .npy under the sidecar's name loads as one array.
        raise ValueError(
            f"{sidecar}: unreadable dataset sidecar ({exc}); delete it to re-parse {path}"
        ) from None
    if table.dtype != row or table.ndim != 1 or len(table) == 0:
        raise ValueError(
            f"{sidecar}: table of dtype {table.dtype} and shape {table.shape} does not "
            f"hold rows of the header's type {row}; delete it to re-parse {path}"
        )
    return table


def _write_sidecar(path: str, sha256: str, table: np.ndarray) -> None:
    """Best effort: a sidecar that cannot be written costs the next read a
    parse, nothing else."""
    with contextlib.suppress(OSError), _replaced_atomically(f"{path}{SIDECAR_SUFFIX}") as fh:
        np.savez(fh, sha256=np.array(sha256), table=table)


@contextlib.contextmanager
def _replaced_atomically(path: str):
    """A binary file that is renamed over ``path`` once written, so a reader
    sees the old file or the whole new one; a failed write is removed."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _parse_csv_rows(path: str, n_cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-by-row parse of the body; raises at the first bad row."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    labels = []
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != n_cols:
            raise ValueError(
                f"{path}: line {lineno}: expected {n_cols} columns, got {len(cells)}"
            )
        try:
            labels.append(int(cells[0]))
            rows.append([float(c) for c in cells[1:]])
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        if not -(2**63) <= labels[-1] < 2**63:
            raise ValueError(f"{path}: line {lineno}: label {labels[-1]} is outside int64")
        if not all(map(math.isfinite, rows[-1])):
            raise ValueError(f"{path}: line {lineno}: features must be finite")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(labels, dtype=np.int64), np.asarray(rows, dtype=np.float64)


def save_split(split: ForgetSplit, path: str) -> str:
    """Write ``split`` as JSON; returns the SHA-256 of the file's bytes, the
    ``sha256`` that ``load_split`` gives the split it reads back."""
    payload = {
        "forget_idx": [int(i) for i in split.forget_idx],
        "remain_idx": [int(i) for i in split.remain_idx],
        "test_idx": [int(i) for i in split.test_idx],
        "mode": split.mode,
    }
    # Streamed, not built as one string: json.dumps with indent holds every
    # chunk at once, 1.5 MB more at peak for a 20 000-row split.
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_split(path: str, n_rows: int | None = None) -> ForgetSplit:
    """Load a split; with ``n_rows``, also reject indices past the last row
    of an ``n_rows``-row dataset and a split that leaves rows out."""
    with open(path, "rb") as fh:
        raw = fh.read()
    payload = json.loads(raw.decode("utf-8"))
    split = ForgetSplit(
        forget_idx=np.asarray(payload["forget_idx"], dtype=np.int64),
        remain_idx=np.asarray(payload["remain_idx"], dtype=np.int64),
        test_idx=np.asarray(payload["test_idx"], dtype=np.int64),
        mode=dict(payload.get("mode", {})),
        sha256=hashlib.sha256(raw).hexdigest(),
    )
    if n_rows is not None:
        every = np.concatenate([split.train_idx, split.test_idx])
        top = int(every.max())
        if top >= n_rows:
            raise ValueError(
                f"{path}: index {top} is past the last row of a "
                f"{n_rows}-row dataset"
            )
        # The indices are disjoint, non-negative and below n_rows, so a
        # shorter list leaves rows out of training and of every metric.
        if len(every) != n_rows:
            raise ValueError(
                f"{path}: the split covers {len(every)} of the dataset's "
                f"{n_rows} rows"
            )
    return split
