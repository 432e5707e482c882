"""BB84 key exchange (closed-form measurement) and one-time-pad encryption."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_ABORT_THRESHOLD = 0.15

Z_BASIS, X_BASIS = 0, 1


class KeyCompromisedError(RuntimeError):
    """Raised when the estimated QBER exceeds the abort threshold."""


@dataclass(frozen=True)
class KeyPair:
    sender_key: str
    receiver_key: str
    qber: float


@dataclass(frozen=True)
class CipherBlob:
    ciphertext: bytes
    bit_length: int

    def __post_init__(self):
        if len(self.ciphertext) * 8 < self.bit_length:
            raise ValueError("ciphertext shorter than bit_length")


def _measure(bits: np.ndarray, prep_bases: np.ndarray, meas_bases: np.ndarray,
             rng: np.random.Generator) -> np.ndarray:
    """Outcomes of measuring each prepared qubit in `meas_bases`.

    A matching basis reads the prepared bit back; a mismatched one gives a
    fair coin (|<b|H|b'>|^2 = 1/2), so p(1) is the bit or 1/2.
    """
    p_one = np.where(prep_bases == meas_bases, bits, 0.5)
    return (rng.random(len(bits)) < p_one).astype(int)


def _bit_string(bits: np.ndarray) -> str:
    return (bits.astype(np.uint8) + ord("0")).tobytes().decode("ascii")


def bb84_exchange(
    required_bits: int,
    rng: np.random.Generator,
    eavesdrop: bool = False,
    check_fraction: float = 0.25,
    abort_threshold: float = DEFAULT_ABORT_THRESHOLD,
) -> KeyPair:
    """Run BB84 until at least `required_bits` sifted bits survive checking."""
    if required_bits < 1:
        raise ValueError("required_bits must be >= 1")
    if not 0 <= check_fraction < 0.5:
        raise ValueError("check_fraction must be in [0, 0.5)")

    sender_parts: list[np.ndarray] = []
    receiver_parts: list[np.ndarray] = []
    kept = 0
    check_errors = 0
    check_total = 0

    while kept < required_bits:
        batch = 4 * (required_bits - kept)
        s_bits = rng.integers(0, 2, batch)
        s_bases = rng.integers(0, 2, batch)
        r_bases = rng.integers(0, 2, batch)
        if eavesdrop:
            e_bases = rng.integers(0, 2, batch)
            e_bits = _measure(s_bits, s_bases, e_bases, rng)
            # intercept-resend: Eve re-encodes her outcome in her basis
            r_bits = _measure(e_bits, e_bases, r_bases, rng)
        else:
            r_bits = _measure(s_bits, s_bases, r_bases, rng)

        keep = s_bases == r_bases
        sifted_s = s_bits[keep]
        sifted_r = r_bits[keep]
        n_sifted = len(sifted_s)
        n_check = int(math.floor(check_fraction * n_sifted))
        check_mask = np.zeros(n_sifted, dtype=bool)
        if n_check > 0:
            check_mask[rng.choice(n_sifted, size=n_check, replace=False)] = True
        check_errors += int(np.sum(sifted_s[check_mask] != sifted_r[check_mask]))
        check_total += n_check
        sender_parts.append(sifted_s[~check_mask])
        receiver_parts.append(sifted_r[~check_mask])
        kept += n_sifted - n_check

    qber = check_errors / check_total if check_total else 0.0
    if qber > abort_threshold:
        raise KeyCompromisedError(f"QBER {qber:.3f} exceeds threshold {abort_threshold}")
    sender = _bit_string(np.concatenate(sender_parts)[:required_bits])
    receiver = _bit_string(np.concatenate(receiver_parts)[:required_bits])
    return KeyPair(sender, receiver, qber)


def _xor_pad(data: bytes, key: str) -> bytes:
    """`data` XOR the first 8 * len(data) key bits, packed MSB-first per byte."""
    bits = np.frombuffer(key[: 8 * len(data)].encode("ascii"), dtype=np.uint8) - ord("0")
    return np.bitwise_xor(np.frombuffer(data, dtype=np.uint8), np.packbits(bits)).tobytes()


def otp_encrypt(plain: bytes, key: str) -> CipherBlob:
    if len(key) < 8 * len(plain):
        raise ValueError(f"key too short: need {8 * len(plain)} bits, have {len(key)}")
    return CipherBlob(_xor_pad(plain, key), 8 * len(plain))


def otp_decrypt(blob: CipherBlob, key: str) -> bytes:
    if len(key) < blob.bit_length:
        raise ValueError(f"key too short: need {blob.bit_length} bits, have {len(key)}")
    return _xor_pad(blob.ciphertext[: blob.bit_length // 8], key)
