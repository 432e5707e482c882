"""Dataset ingestion, encoding, scaling and device sharding."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import dp

TWO_PI = 2.0 * np.pi
ANGLE_MAX = TWO_PI * (1.0 - 1e-12)  # keep scaled features inside [0, 2*pi)

MNIST_IMAGE_MAGIC = 0x00000803
MNIST_LABEL_MAGIC = 0x00000801

IRIS_SPECIES = {"setosa": 0, "versicolor": 1, "virginica": 2}

NUCLEOTIDE_CODES = {"A": 0.25, "C": 0.5, "G": 0.75, "T": 1.0}


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,), ints in [0, class_count)
    class_count: int
    name: str = ""

    def __post_init__(self):
        features = np.atleast_2d(np.asarray(self.features, dtype=float))
        labels = np.asarray(self.labels, dtype=int)
        if features.shape[0] != labels.shape[0]:
            raise ValueError("features/labels length mismatch")
        if len(labels) and (labels.min() < 0 or labels.max() >= self.class_count):
            raise ValueError("labels outside [0, class_count)")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.features.shape[0]

    def subset(self, idx: np.ndarray, name: str | None = None) -> "Dataset":
        return Dataset(self.features[idx], self.labels[idx], self.class_count,
                       name if name is not None else self.name)


@dataclass(frozen=True)
class SplitPlan:
    device_count: int
    samples_per_device: int
    server_val_size: int
    server_test_size: int
    seed: int = 0

    def __post_init__(self):
        if self.device_count < 1 or self.samples_per_device < 1:
            raise ValueError("device_count and samples_per_device must be >= 1")
        if self.server_val_size < 0 or self.server_test_size < 0:
            raise ValueError("server sizes must be >= 0")


def bundled_iris_path() -> Path:
    return Path(resources.files("qflsim") / "assets" / "iris.csv")


def _parse_label(token: str, line_no: int) -> int:
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        pass
    key = token.lower().removeprefix("iris-")
    if key in IRIS_SPECIES:
        return IRIS_SPECIES[key]
    raise ValueError(f"line {line_no}: unknown label {token!r}")


def load_csv(path, name: str = "", class_count: int | None = None) -> Dataset:
    """CSV with header f0,...,f{d-1},label."""
    rows, labels = [], []
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        try:
            rows.append([float(v) for v in parts[:-1]])
        except ValueError as exc:
            raise ValueError(f"line {line_no}: malformed row ({exc})") from None
        labels.append(_parse_label(parts[-1], line_no))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    features = np.array(rows)
    labels = np.array(labels)
    if class_count is None:
        class_count = int(labels.max()) + 1
    return Dataset(features, labels, class_count, name or Path(str(path)).stem)


def load_iris(path=None) -> Dataset:
    ds = load_csv(path if path is not None else bundled_iris_path(), name="iris", class_count=3)
    if ds.features.shape[1] != 4:
        raise ValueError("iris CSV must have 4 feature columns")
    return ds


def save_csv(path, dataset: Dataset) -> None:
    d = dataset.features.shape[1]
    with open(path, "w") as fh:
        fh.write(",".join(f"f{j}" for j in range(d)) + ",label\n")
        for row, label in zip(dataset.features, dataset.labels):
            fh.write(",".join(f"{v:.17g}" for v in row) + f",{label}\n")


def _read_sequences(path) -> tuple[list[str], np.ndarray]:
    seqs, labels = [], []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                seq, label = line.split("\t")
            except ValueError:
                raise ValueError(f"line {line_no}: expected SEQUENCE<TAB>LABEL") from None
            seq = seq.strip().upper()
            bad = set(seq) - set(NUCLEOTIDE_CODES)
            if bad:
                raise ValueError(f"line {line_no}: non-ACGT character {bad.pop()!r}")
            seqs.append(seq)
            labels.append(int(label))
    return seqs, np.array(labels)


def _ordinal_encode(seqs: list[str], length: int | None = None) -> np.ndarray:
    if length is None:
        length = max(len(s) for s in seqs)
    out = np.zeros((len(seqs), length))
    for i, s in enumerate(seqs):
        codes = [NUCLEOTIDE_CODES[ch] for ch in s[:length]]
        out[i, : len(codes)] = codes
    return out


def plain_pca(X: np.ndarray, k: int) -> tuple[np.ndarray, dp.PcaModel]:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    mu = X.mean(axis=0)
    centered = X - mu
    cov = (centered.T @ centered) / X.shape[0]
    eigvals, components = dp.top_k_eigenvectors(cov, k)
    model = dp.PcaModel(mean=mu, components=components, eigenvalues=eigvals)
    return centered @ components, model


def encode_genomic(path, seq_length: int | None = None) -> Dataset:
    """Ordinal-encode ACGT sequences, one column per position."""
    seqs, labels = _read_sequences(path)
    if not seqs:
        raise ValueError(f"{path}: empty file")
    return Dataset(_ordinal_encode(seqs, seq_length), labels, 2, name="genomic")


def generate_genomic(
    count: int, seed: int, seq_length: int = 60
) -> tuple[list[str], np.ndarray]:
    """Two label-conditioned Markov chains over ACGT, balanced binary labels."""
    rng = np.random.default_rng(seed)
    alphabet = "ACGT"
    # row-stochastic transition matrices, one per label
    trans = {
        0: np.array([[0.5, 0.2, 0.2, 0.1],
                     [0.3, 0.4, 0.2, 0.1],
                     [0.2, 0.2, 0.4, 0.2],
                     [0.1, 0.3, 0.3, 0.3]]),
        1: np.array([[0.1, 0.3, 0.3, 0.3],
                     [0.2, 0.2, 0.4, 0.2],
                     [0.3, 0.4, 0.2, 0.1],
                     [0.5, 0.2, 0.2, 0.1]]),
    }
    labels = np.arange(count) % 2
    seqs = []
    for label in labels:
        chain = [int(rng.integers(0, 4))]
        for _ in range(seq_length - 1):
            chain.append(int(rng.choice(4, p=trans[int(label)][chain[-1]])))
        seqs.append("".join(alphabet[s] for s in chain))
    return seqs, labels


def write_genomic(path, count: int, seed: int, seq_length: int = 60) -> None:
    seqs, labels = generate_genomic(count, seed, seq_length)
    with open(path, "w") as fh:
        for seq, label in zip(seqs, labels):
            fh.write(f"{seq}\t{label}\n")


def _read_be32(fh, path) -> int:
    data = fh.read(4)
    if len(data) != 4:
        raise ValueError(f"{path}: truncated file")
    return struct.unpack(">I", data)[0]


def load_mnist_idx(images_path, labels_path, keep_digits=None) -> Dataset:
    with open(images_path, "rb") as fh:
        magic = _read_be32(fh, images_path)
        if magic != MNIST_IMAGE_MAGIC:
            raise ValueError(f"{images_path}: bad magic {magic:#010x}")
        count = _read_be32(fh, images_path)
        rows = _read_be32(fh, images_path)
        cols = _read_be32(fh, images_path)
        raw = fh.read(count * rows * cols)
        if len(raw) != count * rows * cols:
            raise ValueError(f"{images_path}: truncated file")
        images = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)
    with open(labels_path, "rb") as fh:
        magic = _read_be32(fh, labels_path)
        if magic != MNIST_LABEL_MAGIC:
            raise ValueError(f"{labels_path}: bad magic {magic:#010x}")
        n_labels = _read_be32(fh, labels_path)
        raw = fh.read(n_labels)
        if len(raw) != n_labels:
            raise ValueError(f"{labels_path}: truncated file")
        labels = np.frombuffer(raw, dtype=np.uint8).astype(int)
    if count != n_labels:
        raise ValueError("image/label count mismatch")
    features = images.astype(float) / 255.0
    if keep_digits is not None:
        keep = sorted(keep_digits)
        mask = np.isin(labels, keep)
        features = features[mask]
        remap = {d: i for i, d in enumerate(keep)}
        labels = np.array([remap[d] for d in labels[mask]])
        return Dataset(features, labels, len(keep), name="mnist")
    return Dataset(features, labels, 10, name="mnist")


def scale_to_angles(dataset: Dataset) -> Dataset:
    """Per-feature min-max scale into [0, 2*pi); constant features map to 0."""
    X = dataset.features
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    span = hi - lo
    scaled = np.zeros_like(X)
    nonconst = span > 0
    scaled[:, nonconst] = (X[:, nonconst] - lo[nonconst]) / span[nonconst] * ANGLE_MAX
    return Dataset(scaled, dataset.labels, dataset.class_count, dataset.name)


@dataclass(frozen=True)
class DeviceData:
    train: Dataset
    test: Dataset


def shard(
    dataset: Dataset, plan: SplitPlan, rng: np.random.Generator
) -> tuple[list[DeviceData], Dataset, Dataset]:
    """Shuffle, deal server val/test first, then equal contiguous device shards;
    each device splits 80/20 into local train/test."""
    n = len(dataset)
    needed = (plan.device_count * plan.samples_per_device
              + plan.server_val_size + plan.server_test_size)
    if needed > n:
        raise ValueError(f"plan needs {needed} samples, dataset has {n}")
    order = rng.permutation(n)
    pos = 0
    server_val = dataset.subset(order[pos : pos + plan.server_val_size], "server_val")
    pos += plan.server_val_size
    server_test = dataset.subset(order[pos : pos + plan.server_test_size], "server_test")
    pos += plan.server_test_size
    devices = []
    for k in range(plan.device_count):
        idx = order[pos : pos + plan.samples_per_device]
        pos += plan.samples_per_device
        cut = int(0.8 * len(idx))
        devices.append(
            DeviceData(
                train=dataset.subset(idx[:cut], f"device{k}_train"),
                test=dataset.subset(idx[cut:], f"device{k}_test"),
            )
        )
    return devices, server_val, server_test
