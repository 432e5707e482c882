import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qflsim import modelshare as ms
from qflsim import qkd


def test_prune_examples():
    np.testing.assert_array_equal(ms.prune(np.array([0.4, -0.6, 0.5]), 0.5),
                                  [0.0, -0.6, 0.5])
    theta = np.array([0.1, -2.0, 0.3])
    np.testing.assert_array_equal(ms.prune(theta, 0.0), theta)  # strict inequality
    np.testing.assert_array_equal(ms.prune(theta, np.inf), np.zeros(3))


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 32),
                  elements=st.floats(-10, 10)),
       st.floats(0, 5))
def test_prune_idempotent(theta, tau):
    once = ms.prune(theta, tau)
    np.testing.assert_array_equal(ms.prune(once, tau), once)


def test_prune_negative_tau_rejected():
    with pytest.raises(ValueError):
        ms.prune(np.zeros(3), -0.1)


def test_apply_global_modes():
    cur, glob = np.array([1.0, 3.0]), np.array([2.0, 1.0])
    np.testing.assert_array_equal(ms.apply_global(cur, glob, False), glob)
    np.testing.assert_array_equal(ms.apply_global(cur, glob, True), [1.5, 2.0])


def test_reshape_dims_examples():
    assert ms.reshape_dims(16) == (4, 4)
    assert ms.reshape_dims(12) == (3, 4)
    assert ms.reshape_dims(7) == (1, 7)
    assert ms.reshape_dims(1) == (1, 1)


def test_svd_split_reconstructs_full_matrix(rng):
    theta = rng.normal(size=16)
    U, sigma, Vt = ms.svd_split(theta, 4, 4)
    S = np.zeros((4, 4))
    np.fill_diagonal(S, sigma)
    np.testing.assert_allclose((U @ S @ Vt).reshape(-1), theta, atol=1e-12)
    np.testing.assert_allclose(U @ U.T, np.eye(4), atol=1e-12)
    assert np.all(np.diff(sigma) <= 1e-15)  # non-increasing


def test_svd_split_shape_mismatch():
    with pytest.raises(ValueError):
        ms.svd_split(np.zeros(16), 3, 4)


def test_truncation_error_is_eckart_young(rng):
    theta = rng.normal(size=16)
    U, sigma, Vt = ms.svd_split(theta, 4, 4)
    rebuilt = ms.reconstruct(U, sigma, Vt, 4, 4)
    expected = np.sqrt(sigma[2] ** 2 + sigma[3] ** 2)
    assert np.linalg.norm(theta - rebuilt) == pytest.approx(expected, abs=1e-9)


def test_reconstruct_exact_when_rank_small(rng):
    # a 1x4 matrix has rank 1 <= 2, so truncation loses nothing
    theta = rng.normal(size=4)
    U, sigma, Vt = ms.svd_split(theta, 1, 4)
    np.testing.assert_allclose(ms.reconstruct(U, sigma, Vt, 1, 4), theta, atol=1e-12)


def test_sigma_serialization_roundtrip(rng):
    sigma = rng.uniform(0, 5, 4)
    np.testing.assert_array_equal(ms.deserialize_sigma(ms.serialize_sigma(sigma)), sigma)
    # big-endian doubles: 1.0 -> 0x3FF0...
    assert ms.serialize_sigma(np.array([1.0])) == b"\x3f\xf0" + b"\x00" * 6


def test_encrypt_decrypt_sigma_with_bb84_keys(rng):
    sigma = rng.uniform(0, 5, 4)
    pair = qkd.bb84_exchange(8 * 8 * len(sigma), rng)
    blob = ms.encrypt_sigma(sigma, pair.sender_key)
    np.testing.assert_array_equal(ms.decrypt_sigma(blob, pair.receiver_key), sigma)


def test_federated_average_examples():
    avg = ms.federated_average([np.array([1.0, 2.0]), np.array([3.0, 4.0])])
    np.testing.assert_array_equal(avg, [2.0, 3.0])
    single = np.array([0.5, -0.5])
    np.testing.assert_array_equal(ms.federated_average([single]), single)


def test_federated_average_permutation_invariant_bitwise(rng):
    thetas = [rng.normal(size=16) for _ in range(7)]
    base = ms.federated_average(thetas)
    for _ in range(5):
        order = rng.permutation(7)
        np.testing.assert_array_equal(ms.federated_average([thetas[i] for i in order]), base)


def test_federated_average_validation():
    with pytest.raises(ValueError):
        ms.federated_average([])
    with pytest.raises(ValueError):
        ms.federated_average([np.zeros(2), np.zeros(3)])


def test_svd_package_byte_roundtrip(rng):
    theta = rng.normal(size=16)
    U, sigma, Vt = ms.svd_split(theta, 4, 4)
    pair = qkd.bb84_exchange(8 * 8 * len(sigma), rng)
    pkg = ms.SvdPackage(U=U, Vt=Vt, sigma_cipher=ms.encrypt_sigma(sigma, pair.sender_key),
                        m1=4, m2=4)
    back = ms.SvdPackage.from_bytes(pkg.to_bytes())
    np.testing.assert_array_equal(back.U, U)
    np.testing.assert_array_equal(back.Vt, Vt)
    assert back.sigma_cipher == pkg.sigma_cipher
    np.testing.assert_array_equal(ms.decrypt_sigma(back.sigma_cipher, pair.receiver_key), sigma)


def test_svd_package_encoding_is_canonical(rng):
    theta = rng.normal(size=16)
    U, sigma, Vt = ms.svd_split(theta, 4, 4)
    blob = qkd.otp_encrypt(ms.serialize_sigma(sigma), "0" * (64 * len(sigma)))
    pkg = ms.SvdPackage(U=U, Vt=Vt, sigma_cipher=blob, m1=4, m2=4)
    data = pkg.to_bytes()
    assert data == ms.SvdPackage.from_bytes(data).to_bytes()
    assert len(data) == 16 + len(blob.ciphertext) + 8 * (16 + 16)


def _small_package():
    # m1 = 1, m2 = 2; sigma = [5.0] under the key 1010...10
    blob = qkd.otp_encrypt(ms.serialize_sigma(np.array([5.0])), "10" * 32)
    return ms.SvdPackage(U=np.array([[-1.0]]), Vt=np.array([[0.5, 2.0], [-0.25, 1.0]]),
                         sigma_cipher=blob, m1=1, m2=2)


def test_svd_package_bytes_known_answer():
    assert _small_package().to_bytes().hex() == (
        "00000001" "00000002" "00000040" "00000008"  # m1, m2, bit length, cipher length
        "eabeaaaaaaaaaaaa"  # 5.0 = 0x4014... xor 0xaa...
        "bff0000000000000"  # U
        "3fe0000000000000" "4000000000000000" "bfd0000000000000" "3ff0000000000000"  # Vt
    )


def test_svd_package_refuses_malformed_packages():
    pkg = _small_package()
    data = pkg.to_bytes()
    with pytest.raises(ValueError):
        ms.SvdPackage.from_bytes(data + b"junk")
    for cut in (len(data) - 1, 15):
        with pytest.raises(ValueError):
            ms.SvdPackage.from_bytes(data[:cut])
    with pytest.raises(ValueError):
        ms.SvdPackage(U=np.eye(2), Vt=pkg.Vt, sigma_cipher=pkg.sigma_cipher, m1=1, m2=2)
    with pytest.raises(ValueError):
        ms.SvdPackage(U=pkg.U, Vt=pkg.Vt.reshape(-1), sigma_cipher=pkg.sigma_cipher, m1=1, m2=2)
