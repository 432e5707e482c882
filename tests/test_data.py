import numpy as np
import pytest

from qflsim import data
from qflsim.data import Dataset, SplitPlan


def test_bundled_iris_loads():
    ds = data.load_iris()
    assert ds.features.shape == (150, 4)
    assert ds.class_count == 3
    np.testing.assert_array_equal(np.bincount(ds.labels), [50, 50, 50])


def test_iris_species_names_case_insensitive(tmp_path):
    path = tmp_path / "iris.csv"
    path.write_text("f0,f1,f2,f3,label\n"
                    "5.1,3.5,1.4,0.2,Iris-Setosa\n"
                    "6.0,2.9,4.5,1.5,VERSICOLOR\n"
                    "6.3,3.3,6.0,2.5,2\n")
    ds = data.load_iris(path)
    np.testing.assert_array_equal(ds.labels, [0, 1, 2])


def test_csv_malformed_row_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,label\n1.0,0\noops,1\n")
    with pytest.raises(ValueError, match="line 3"):
        data.load_csv(path)


def test_csv_unknown_label_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,label\n1.0,tulip\n")
    with pytest.raises(ValueError, match="line 2"):
        data.load_csv(path)


def test_csv_empty_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError):
        data.load_csv(path)
    path.write_text("f0,label\n")
    with pytest.raises(ValueError):
        data.load_csv(path)


def test_save_csv_roundtrip(tmp_path, rng):
    ds = Dataset(rng.uniform(0, 2 * np.pi, (10, 3)), rng.integers(0, 2, 10), 2, "t")
    path = tmp_path / "out.csv"
    data.save_csv(path, ds)
    back = data.load_csv(path, class_count=2)
    np.testing.assert_array_equal(back.features, ds.features)  # 17g is lossless
    np.testing.assert_array_equal(back.labels, ds.labels)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(2, dtype=int), 2)
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([0, 5]), 2)


def test_ordinal_encoding_codes():
    X = data._ordinal_encode(["ACGT", "TT"])
    np.testing.assert_allclose(X[0], [0.25, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(X[1], [1.0, 1.0, 0.0, 0.0])  # padded with 0


def test_sequence_file_errors(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("ACGT\n")
    with pytest.raises(ValueError, match="line 1"):
        data._read_sequences(path)
    path.write_text("ACGT\t0\nACXT\t1\n")
    with pytest.raises(ValueError, match="line 2"):
        data._read_sequences(path)


def test_generate_genomic_balanced_and_deterministic():
    seqs, labels = data.generate_genomic(100, seed=3)
    assert len(seqs) == 100
    assert all(len(s) == 60 for s in seqs)
    assert all(set(s) <= set("ACGT") for s in seqs)
    np.testing.assert_array_equal(np.bincount(labels), [50, 50])
    seqs2, _ = data.generate_genomic(100, seed=3)
    assert seqs == seqs2


def test_encode_genomic_ordinal_codes(genomic_file):
    ds = data.encode_genomic(genomic_file)
    assert ds.features.shape == (400, 60)
    assert set(np.unique(ds.features)) == {0.25, 0.5, 0.75, 1.0}
    assert ds.class_count == 2


def test_plain_pca_recovers_dominant_direction(rng):
    direction = np.array([3.0, 4.0]) / 5.0
    X = np.outer(rng.normal(size=500), direction) + rng.normal(0, 0.01, (500, 2))
    _, model = data.plain_pca(X, 1)
    assert abs(abs(model.components[:, 0] @ direction) - 1.0) < 1e-3


def test_mnist_idx_roundtrip(mnist_idx):
    img, lab = mnist_idx
    ds = data.load_mnist_idx(img, lab)
    assert ds.features.shape == (2500, 784)
    assert ds.class_count == 10
    assert ds.features.max() <= 1.0


def test_mnist_keep_digits_remaps(mnist_idx):
    img, lab = mnist_idx
    full = data.load_mnist_idx(img, lab)
    kept = data.load_mnist_idx(img, lab, keep_digits={0, 1, 2})
    assert kept.class_count == 3
    expected = int(np.sum(np.isin(full.labels, [0, 1, 2])))
    assert len(kept) == expected
    assert set(kept.labels) == {0, 1, 2}


def test_mnist_bad_magic_rejected(tmp_path, mnist_idx):
    img, lab = mnist_idx
    bad = tmp_path / "bad-images"
    bad.write_bytes(b"\x00\x00\x08\x04" + img.read_bytes()[4:])
    with pytest.raises(ValueError, match="magic"):
        data.load_mnist_idx(bad, lab)


def test_mnist_truncated_rejected(tmp_path, mnist_idx):
    img, lab = mnist_idx
    cut = tmp_path / "cut-images"
    cut.write_bytes(img.read_bytes()[:1000])
    with pytest.raises(ValueError, match="truncated"):
        data.load_mnist_idx(cut, lab)


def test_scale_to_angles_examples():
    ds = Dataset(np.array([[0.0, 5.0], [1.0, 5.0], [0.5, 5.0]]), np.zeros(3, int), 1)
    scaled = data.scale_to_angles(ds)
    assert scaled.features[0, 0] == 0.0
    assert scaled.features[1, 0] == pytest.approx(2 * np.pi, rel=1e-11)
    assert scaled.features[1, 0] < 2 * np.pi  # strictly inside
    np.testing.assert_array_equal(scaled.features[:, 1], 0.0)  # constant column


def test_shard_partitions_without_overlap(rng):
    ds = Dataset(np.arange(100, dtype=float).reshape(100, 1), np.zeros(100, int), 1)
    plan = SplitPlan(device_count=3, samples_per_device=20, server_val_size=10,
                     server_test_size=10)
    devices, val, test = data.shard(ds, plan, rng)
    all_vals = np.concatenate([val.features[:, 0], test.features[:, 0]]
                              + [np.concatenate([d.train.features[:, 0],
                                                 d.test.features[:, 0]])
                                 for d in devices])
    assert len(all_vals) == 80
    assert len(np.unique(all_vals)) == 80  # disjoint
    for d in devices:
        assert len(d.train) == 16 and len(d.test) == 4  # 80/20 of 20


def test_shard_insufficient_samples(rng):
    ds = Dataset(np.zeros((10, 1)), np.zeros(10, int), 1)
    plan = SplitPlan(2, 10, 0, 0)
    with pytest.raises(ValueError):
        data.shard(ds, plan, rng)


def test_shard_deterministic_given_seed():
    ds = data.load_iris()
    plan = SplitPlan(3, 40, 15, 15)
    a = data.shard(ds, plan, np.random.default_rng(1))
    b = data.shard(ds, plan, np.random.default_rng(1))
    np.testing.assert_array_equal(a[0][0].train.features, b[0][0].train.features)
    np.testing.assert_array_equal(a[2].labels, b[2].labels)
