"""Device-to-server parameter protocols: pruning, SVD split with
sigma-only encryption, rank-truncated reconstruction, and federated
averaging."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .qkd import CipherBlob, otp_decrypt, otp_encrypt

TRUNCATION_RANK = 2


@dataclass(frozen=True)
class PruneSpec:
    tau: float = 0.5
    avg_initial: bool = False

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError("tau must be >= 0")
        if not isinstance(self.avg_initial, bool):
            raise ValueError("avg_initial must be true or false")


def prune(theta: np.ndarray, tau: float) -> np.ndarray:
    """Zero every component with |theta_i| strictly below tau."""
    if tau < 0:
        raise ValueError("tau must be >= 0")
    theta = np.asarray(theta, dtype=float)
    return np.where(np.abs(theta) < tau, 0.0, theta)


def apply_global(
    theta_current: np.ndarray, theta_global: np.ndarray, avg_initial: bool
) -> np.ndarray:
    theta_current = np.asarray(theta_current, dtype=float)
    theta_global = np.asarray(theta_global, dtype=float)
    if avg_initial:
        return (theta_global + theta_current) / 2.0
    return theta_global.copy()


def reshape_dims(n: int) -> tuple[int, int]:
    """Most-square factorization m1*m2 == n with m1 <= m2."""
    m1 = int(math.isqrt(n))
    while n % m1:
        m1 -= 1
    return m1, n // m1


def svd_split(theta: np.ndarray, m1: int, m2: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    theta = np.asarray(theta, dtype=float)
    if m1 * m2 != theta.size:
        raise ValueError(f"cannot reshape {theta.size} parameters to {m1}x{m2}")
    A = theta.reshape(m1, m2)
    U, sigma, Vt = np.linalg.svd(A, full_matrices=True)
    # sign convention: largest-magnitude entry of each U column positive
    for j in range(len(sigma)):
        if U[np.argmax(np.abs(U[:, j])), j] < 0:
            U[:, j] = -U[:, j]
            Vt[j, :] = -Vt[j, :]
    return U, sigma, Vt


# the wire codec for every float (sigma, U, Vt): big-endian IEEE-754 doubles, row-major
_WIRE_FLOAT = np.dtype(">f8")
_HEADER = struct.Struct(">IIII")


def serialize_sigma(sigma: np.ndarray) -> bytes:
    return np.asarray(sigma, dtype=float).astype(_WIRE_FLOAT).tobytes()


def deserialize_sigma(data: bytes) -> np.ndarray:
    return np.frombuffer(data, dtype=_WIRE_FLOAT).astype(float)


def encrypt_sigma(sigma: np.ndarray, key: str) -> CipherBlob:
    return otp_encrypt(serialize_sigma(sigma), key)


def decrypt_sigma(blob: CipherBlob, key: str) -> np.ndarray:
    return deserialize_sigma(otp_decrypt(blob, key))


def reconstruct(
    U: np.ndarray, sigma: np.ndarray, Vt: np.ndarray, m1: int, m2: int
) -> np.ndarray:
    """Rank-truncated rebuild keeping the top r = min(min(m1, m2), 2) values."""
    r = min(min(m1, m2), TRUNCATION_RANK)
    S = np.zeros((m1, m2))
    S[:r, :r] = np.diag(np.asarray(sigma, dtype=float)[:r])
    return (U @ S @ Vt).reshape(-1)


def federated_average(thetas: list[np.ndarray]) -> np.ndarray:
    """Elementwise mean with exact summation (permutation-invariant)."""
    if not thetas:
        raise ValueError("no parameter vectors to average")
    stacked = np.stack([np.asarray(t, dtype=float) for t in thetas])
    if stacked.ndim != 2:
        raise ValueError("parameter vectors must be 1-D and equal length")
    k = stacked.shape[0]
    return np.array([math.fsum(stacked[:, j]) / k for j in range(stacked.shape[1])])


@dataclass(frozen=True)
class SvdPackage:
    U: np.ndarray
    Vt: np.ndarray
    sigma_cipher: CipherBlob
    m1: int
    m2: int

    def __post_init__(self):
        if np.shape(self.U) != (self.m1, self.m1) or np.shape(self.Vt) != (self.m2, self.m2):
            raise ValueError(f"U must be {self.m1}x{self.m1} and Vt {self.m2}x{self.m2}, "
                             f"got {np.shape(self.U)} and {np.shape(self.Vt)}")

    def to_bytes(self) -> bytes:
        """Canonical encoding: dims, bit length, ciphertext, row-major U, Vt."""
        cipher = self.sigma_cipher.ciphertext
        header = _HEADER.pack(self.m1, self.m2, self.sigma_cipher.bit_length, len(cipher))
        return header + cipher + serialize_sigma(self.U) + serialize_sigma(self.Vt)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SvdPackage":
        if len(data) < _HEADER.size:
            raise ValueError(f"package of {len(data)} bytes is shorter than its header")
        m1, m2, bit_length, clen = _HEADER.unpack_from(data)
        expected = _HEADER.size + clen + 8 * (m1 * m1 + m2 * m2)
        if len(data) != expected:
            raise ValueError(f"package is {len(data)} bytes; its header implies {expected}")
        u_start = _HEADER.size + clen
        floats = deserialize_sigma(data[u_start:])
        return cls(U=floats[: m1 * m1].reshape(m1, m1), Vt=floats[m1 * m1 :].reshape(m2, m2),
                   sigma_cipher=CipherBlob(data[_HEADER.size : u_start], bit_length),
                   m1=m1, m2=m2)
