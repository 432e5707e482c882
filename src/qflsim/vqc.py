"""Variational quantum classifier.

The circuit is the standard Z feature map (H layer then phase rotations
P(2*x_i)) followed by a RealAmplitudes-style ansatz (RY layers interleaved
with CX entanglement blocks). Basis-state index mod class_count maps
measurement outcomes to classes. Runs use the compiled kernel below;
`build_feature_map` and `build_ansatz` are the gate-level `qsim` reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import qsim

LOSS_CLAMP = 1e-12


@dataclass(frozen=True)
class VqcConfig:
    feature_count: int
    class_count: int
    feature_map_reps: int = 1
    ansatz_reps: int = 3
    entanglement: str = "full"

    def __post_init__(self):
        if self.feature_count < 1:
            raise ValueError("feature_count must be >= 1")
        if self.class_count < 2:
            raise ValueError("class_count must be >= 2")
        if self.entanglement not in ("full", "linear"):
            raise ValueError(f"unknown entanglement {self.entanglement!r}")

    @property
    def qubit_count(self) -> int:
        return self.feature_count

    @property
    def parameter_count(self) -> int:
        return self.qubit_count * (self.ansatz_reps + 1)


def build_feature_map(x: np.ndarray, qubit_count: int, reps: int = 1) -> qsim.Circuit:
    x = np.asarray(x, dtype=float)
    if x.shape != (qubit_count,):
        raise ValueError(f"expected {qubit_count} features, got shape {x.shape}")
    gates = []
    for _ in range(reps):
        gates.extend(qsim.h(q) for q in range(qubit_count))
        gates.extend(qsim.p(2.0 * x[q], q) for q in range(qubit_count))
    return qsim.Circuit(qubit_count, tuple(gates))


def _entangler_pairs(qubit_count: int, entanglement: str) -> list[tuple[int, int]]:
    if entanglement == "linear":
        return [(i, i + 1) for i in range(qubit_count - 1)]
    return [(i, j) for i in range(qubit_count) for j in range(i + 1, qubit_count)]


def build_ansatz(
    theta: np.ndarray, qubit_count: int, reps: int = 3, entanglement: str = "full"
) -> qsim.Circuit:
    theta = np.asarray(theta, dtype=float)
    expected = qubit_count * (reps + 1)
    if theta.shape != (expected,):
        raise ValueError(f"expected {expected} parameters, got shape {theta.shape}")
    gates = [qsim.ry(theta[q], q) for q in range(qubit_count)]
    for r in range(reps):
        gates.extend(qsim.cx(c, t) for c, t in _entangler_pairs(qubit_count, entanglement))
        offset = (r + 1) * qubit_count
        gates.extend(qsim.ry(theta[offset + q], q) for q in range(qubit_count))
    return qsim.Circuit(qubit_count, tuple(gates))


def _aggregate_mod_classes(probs: np.ndarray, class_count: int) -> np.ndarray:
    dim = probs.shape[-1]
    out = np.zeros(probs.shape[:-1] + (class_count,))
    for c in range(class_count):
        out[..., c] = probs[..., np.arange(c, dim, class_count)].sum(axis=-1)
    return out


# Compiled forward kernel: each CX block is one cached basis permutation and
# each single-qubit gate a 2x2 update on a reshaped view, with the same
# arithmetic as qsim, so both give bit-identical amplitudes.


@lru_cache(maxsize=None)
def _cx_block_permutation(qubit_count: int, entanglement: str) -> np.ndarray:
    """Index array `perm` such that amps[..., perm] applies one whole CX block."""
    idx = np.arange(2**qubit_count)
    perm = idx
    for c, t in _entangler_pairs(qubit_count, entanglement):
        perm = perm[np.where((idx >> c) & 1 == 1, idx ^ (1 << t), idx)]
    return perm


def _apply_single_qubit(amps: np.ndarray, qubit: int, m00, m01, m10, m11) -> np.ndarray:
    rows, dim = amps.shape
    view = amps.reshape(rows, dim >> (qubit + 1), 2, 1 << qubit)
    a0, a1 = view[:, :, 0, :], view[:, :, 1, :]
    out = np.empty_like(view)
    out[:, :, 0, :] = m00 * a0 + m01 * a1
    out[:, :, 1, :] = m10 * a0 + m11 * a1
    return out.reshape(rows, dim)


def encode_features(X: np.ndarray, config: VqcConfig) -> np.ndarray:
    """Feature-map states of the rows of X, shape (n, 2**q)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    q = config.qubit_count
    if X.shape[1] != q:
        raise ValueError(f"expected {q} features, got {X.shape[1]}")
    dim = 2**q
    amps = np.zeros((X.shape[0], dim), dtype=complex)
    amps[:, 0] = 1.0
    bits = (np.arange(dim)[None, :] >> np.arange(q)[:, None]) & 1  # (q, dim)
    r = 1.0 / math.sqrt(2.0)
    for _ in range(config.feature_map_reps):
        for qubit in range(q):
            amps = _apply_single_qubit(amps, qubit, r, r, r, -r)
        phase = X @ bits  # (n, dim): sum_i x_i * bit_i(j)
        amps = amps * np.exp(2j * phase)
    return amps


def apply_ansatz_batch(amps: np.ndarray, theta: np.ndarray, config: VqcConfig) -> np.ndarray:
    """The ansatz at one theta point on a (n, 2**q) block of states."""
    q = config.qubit_count
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (config.parameter_count,):
        raise ValueError(f"expected {config.parameter_count} parameters, got shape {theta.shape}")
    perm = _cx_block_permutation(q, config.entanglement)
    for i, angle in enumerate(theta):
        if i and i % q == 0:
            amps = amps[:, perm]
        c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
        amps = _apply_single_qubit(amps, i % q, c, -s, s, c)
    return amps


def class_probabilities_batch(
    encoded: np.ndarray, theta: np.ndarray, config: VqcConfig
) -> np.ndarray:
    """Class probabilities for pre-encoded feature states, shape (n, C)."""
    amps = apply_ansatz_batch(encoded, theta, config)
    return _aggregate_mod_classes(np.abs(amps) ** 2, config.class_count)


def _mean_cross_entropy(p_correct: np.ndarray) -> float:
    return float(np.mean(-np.log(np.maximum(p_correct, LOSS_CLAMP))))


class DatasetObjective:
    """Mean cross-entropy of the VQC on a fixed dataset, encoded once, as a function
    of theta."""

    def __init__(self, features: np.ndarray, labels: np.ndarray, config: VqcConfig):
        features = np.atleast_2d(np.asarray(features, dtype=float))
        labels = np.asarray(labels, dtype=int)
        if features.shape[0] == 0:
            raise ValueError("empty dataset")
        if labels.min() < 0 or labels.max() >= config.class_count:
            raise ValueError("labels out of range")
        self.labels = labels
        self.config = config
        self._encoded = encode_features(features, config)

    def _p_correct(self, theta: np.ndarray) -> np.ndarray:
        probs = class_probabilities_batch(self._encoded, theta, self.config)
        return probs[np.arange(len(self.labels)), self.labels]

    def __call__(self, theta: np.ndarray) -> float:
        return _mean_cross_entropy(self._p_correct(theta))

    def score(self, theta: np.ndarray) -> tuple[float, float]:
        """(accuracy, mean cross-entropy); argmax ties go to the lowest class."""
        probs = class_probabilities_batch(self._encoded, theta, self.config)
        accuracy = float(np.mean(np.argmax(probs, axis=1) == self.labels))
        return accuracy, _mean_cross_entropy(probs[np.arange(len(self.labels)), self.labels])

    def gradient(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """Exact analytic loss gradient.

        The pi/2 shift rule is exact for the class probabilities (expectations
        of projectors under single Pauli rotations); the chain rule through
        -log then gives the exact cross-entropy gradient.
        """
        theta = np.asarray(theta, dtype=float)
        n = theta.size
        shifts = (np.pi / 2.0) * np.eye(n)
        p0 = np.maximum(self._p_correct(theta), LOSS_CLAMP)
        value = _mean_cross_entropy(p0)
        grad = np.empty(n)
        for i in range(n):
            dp = (self._p_correct(theta + shifts[i]) - self._p_correct(theta - shifts[i])) / 2.0
            grad[i] = float(np.mean(-dp / p0))
        return value, grad
