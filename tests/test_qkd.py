import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflsim import qkd, qsim


class _FixedDraws:
    """A generator stand-in whose uniform draws all equal `u`."""

    def __init__(self, u):
        self.u = u

    def random(self, n):
        return np.full(n, self.u)


def _oracle_p_one(bit, prep_basis, meas_basis):
    gates = [qsim.x(0)] if bit else []
    gates += [qsim.h(0)] if prep_basis == qkd.X_BASIS else []
    gates += [qsim.h(0)] if meas_basis == qkd.X_BASIS else []
    state = qsim.apply_circuit(qsim.zero_state(1), qsim.Circuit(1, tuple(gates)))
    return qsim.probabilities(state)[1]


def test_preparation_measurement_table():
    # an outcome is 1 exactly for draws below p(1), so draws 1e-12 either side
    # of the simulator's p(1) pin the closed form to within 1e-12 of it
    for bit, prep_basis, meas_basis in itertools.product((0, 1), repeat=3):
        p_one = _oracle_p_one(bit, prep_basis, meas_basis)
        for u, expected in ((p_one - 1e-12, 1), (p_one + 1e-12, 0)):
            if 0.0 <= u < 1.0:
                outcome = qkd._measure(np.array([bit]), np.array([prep_basis]),
                                       np.array([meas_basis]), _FixedDraws(u))
                assert outcome.tolist() == [expected], (bit, prep_basis, meas_basis, u)


def test_matching_bases_read_back_the_prepared_bit():
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2, 10_000)
    bases = rng.integers(0, 2, 10_000)
    np.testing.assert_array_equal(qkd._measure(bits, bases, bases, rng), bits)
    for u in (0.0, 0.5, np.nextafter(1.0, 0.0)):  # the lowest, middle and highest draw
        np.testing.assert_array_equal(qkd._measure(bits, bases, bases, _FixedDraws(u)), bits)


def test_honest_exchange_keys_agree(rng):
    pair = qkd.bb84_exchange(256, rng)
    assert pair.sender_key == pair.receiver_key
    assert len(pair.sender_key) == 256
    assert pair.qber == 0.0


def test_exchange_deterministic_given_seed():
    a = qkd.bb84_exchange(64, np.random.default_rng(5))
    b = qkd.bb84_exchange(64, np.random.default_rng(5))
    assert a == b


def test_exchange_known_answer():
    pair = qkd.bb84_exchange(64, np.random.default_rng(5))
    key = "0110101000010010101011001000001010000100110111011100011010101111"
    assert pair == qkd.KeyPair(key, key, 0.0)


def test_eavesdropped_exchange_known_answer():
    pair = qkd.bb84_exchange(64, np.random.default_rng(5), eavesdrop=True, abort_threshold=1.0)
    assert pair.sender_key == "0110100000001001100011000100110010010100110011110110011011011110"
    assert pair.receiver_key == "0011100000001101000111101110110011001010110111111110000010011100"
    assert pair.qber == 9 / 31


def test_sift_fraction_monte_carlo():
    # with random independent bases, half the raw bits survive sifting
    rng = np.random.default_rng(99)
    n = 200_000
    s = rng.integers(0, 2, n)
    r = rng.integers(0, 2, n)
    assert abs(np.mean(s == r) - 0.5) < 0.01


def test_eavesdropper_raises_qber(rng):
    # intercept-resend pushes QBER toward 0.25, above the default threshold
    with pytest.raises(qkd.KeyCompromisedError):
        qkd.bb84_exchange(512, rng, eavesdrop=True)


def test_eavesdrop_qber_near_quarter(rng):
    pair = qkd.bb84_exchange(2048, rng, eavesdrop=True, abort_threshold=1.0)
    assert 0.20 <= pair.qber <= 0.30


def test_exchange_argument_validation(rng):
    with pytest.raises(ValueError):
        qkd.bb84_exchange(0, rng)
    with pytest.raises(ValueError):
        qkd.bb84_exchange(8, rng, check_fraction=0.5)


def test_otp_known_answer():
    # 0xAB xor 11111111 = 0x54
    blob = qkd.otp_encrypt(b"\xab", "11111111")
    assert blob.ciphertext == b"\x54"
    assert blob.bit_length == 8
    assert qkd.otp_decrypt(blob, "11111111") == b"\xab"


def test_otp_zero_key_is_identity():
    blob = qkd.otp_encrypt(b"hello", "0" * 40)
    assert blob.ciphertext == b"hello"


def test_otp_key_too_short():
    with pytest.raises(ValueError):
        qkd.otp_encrypt(b"ab", "1" * 15)
    with pytest.raises(ValueError):
        qkd.otp_decrypt(qkd.CipherBlob(b"\x00\x00", 16), "1" * 15)


def test_cipher_blob_validation():
    with pytest.raises(ValueError):
        qkd.CipherBlob(b"\x00", 16)


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=0, max_size=64), st.integers(0, 2**32 - 1))
def test_otp_roundtrip_property(plain, seed):
    bits = np.random.default_rng(seed).integers(0, 2, 8 * len(plain))
    key = "".join(map(str, bits))
    assert qkd.otp_decrypt(qkd.otp_encrypt(plain, key), key) == plain


def test_otp_key_bits_are_msb_first():
    # key 10000000 flips only the most significant bit of the byte
    blob = qkd.otp_encrypt(b"\x00", "10000000")
    assert blob.ciphertext == b"\x80"


def test_end_to_end_exchange_and_encrypt(rng):
    payload = b"federated weights"
    pair = qkd.bb84_exchange(8 * len(payload), rng)
    blob = qkd.otp_encrypt(payload, pair.sender_key)
    assert qkd.otp_decrypt(blob, pair.receiver_key) == payload
