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
from .optimizers import shift_points

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
    return _run_ansatz(amps, _as_theta(theta, config), config)


def _as_theta(theta: np.ndarray, config: VqcConfig) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (config.parameter_count,):
        raise ValueError(f"expected {config.parameter_count} parameters, got shape {theta.shape}")
    return theta


def _run_ansatz(amps: np.ndarray, theta: np.ndarray, config: VqcConfig,
                kept: list | None = None) -> np.ndarray:
    """The kernel loop of `apply_ansatz_batch`; appends the state just before each
    RY to `kept` when given."""
    q = config.qubit_count
    perm = _cx_block_permutation(q, config.entanglement)
    for i, angle in enumerate(theta):
        if i and i % q == 0:
            amps = amps[:, perm]
        if kept is not None:
            kept.append(amps)
        c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
        amps = _apply_single_qubit(amps, i % q, c, -s, s, c)
    return amps


def class_probabilities_batch(
    encoded: np.ndarray, theta: np.ndarray, config: VqcConfig
) -> np.ndarray:
    """Class probabilities for pre-encoded feature states, shape (n, C)."""
    amps = apply_ansatz_batch(encoded, theta, config)
    return _aggregate_mod_classes(np.abs(amps) ** 2, config.class_count)


def _mean_cross_entropy(p_correct: np.ndarray) -> np.ndarray:
    """Mean clamped -log over the last axis (rows)."""
    return np.mean(-np.log(np.maximum(p_correct, LOSS_CLAMP)), axis=-1)


# Widest state that takes the one-sweep shift points. Per AQGD step at 40 rows
# (3 classes, ansatz_reps 3, one BLAS thread, 2-core x86; mean of 10 calls),
# per-point loop -> sweep time and the sweep's extra peak RSS over the loop's:
#   4 qubits   6.96 ->   1.36 ms,   +1.1 MB
#   5 qubits   13.4 ->   2.08 ms,   +2.8 MB
#   6 qubits   29.1 ->   4.71 ms,   +5.1 MB
#   7 qubits   51.9 ->   13.5 ms,  +11.4 MB
#   8 qubits    109 ->   55.0 ms,  +25.7 MB
#  10 qubits    597 ->    856 ms,   +148 MB (mean of 3)
# From 6 qubits the extra memory is more than a tenth of a ~37 MB run, the
# benchmark's peak_rss_mb bound, so wider states run the ansatz once per point.
_SWEEP_MAX_DIM = 2**5


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

    def _correct(self, probs: np.ndarray) -> np.ndarray:
        """The label's column of (..., rows, C) class probabilities, C-contiguous:
        a mean over strided rows adds in another order than over a single point's."""
        return np.ascontiguousarray(probs[..., np.arange(len(self.labels)), self.labels])

    def _p_correct(self, theta: np.ndarray) -> np.ndarray:
        return self._correct(class_probabilities_batch(self._encoded, theta, self.config))

    def __call__(self, theta: np.ndarray) -> float:
        return float(_mean_cross_entropy(self._p_correct(theta)))

    def score(self, theta: np.ndarray) -> tuple[float, float]:
        """(accuracy, mean cross-entropy); argmax ties go to the lowest class."""
        probs = class_probabilities_batch(self._encoded, theta, self.config)
        accuracy = float(np.mean(np.argmax(probs, axis=1) == self.labels))
        return accuracy, float(_mean_cross_entropy(self._correct(probs)))

    def _shift_point_sweep(self, theta: np.ndarray) -> np.ndarray:
        """`shift_point_p_correct` from one forward sweep and one backward sweep.

        Forward, the compiled kernel keeps the state just before each RY.
        Backward, `suffix` is the map from the state just after gate i to the
        final state (final = after @ suffix.T); each shifted final state is
        one 2x2 update of a kept state and one matmul with it, and prepending
        gate i to the map is one more 2x2 update (of RY's transpose) and, where
        gate i opens a layer, the inverse CX-block permutation of its columns.
        """
        config = self.config
        q, n = config.qubit_count, theta.size
        rows, dim = self._encoded.shape
        before: list[np.ndarray] = []
        final = np.empty((2 * n + 1, rows, dim), dtype=complex)
        final[0] = _run_ansatz(self._encoded, theta, config, before)

        inverse = np.argsort(_cx_block_permutation(q, config.entanglement))
        suffix = np.eye(dim, dtype=complex)
        for i in range(n - 1, -1, -1):
            for point, angle in ((1 + i, theta[i] + math.pi / 2.0),
                                 (1 + n + i, theta[i] - math.pi / 2.0)):
                c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
                np.matmul(_apply_single_qubit(before[i], i % q, c, -s, s, c), suffix.T,
                          out=final[point])
            c, s = math.cos(theta[i] / 2.0), math.sin(theta[i] / 2.0)
            suffix = _apply_single_qubit(suffix, i % q, c, s, -s, c)
            if i and i % q == 0:
                suffix = suffix[:, inverse]
        return self._correct(_aggregate_mod_classes(np.abs(final) ** 2, config.class_count))

    def shift_point_p_correct(self, theta: np.ndarray) -> np.ndarray:
        """Correct-class probabilities at the 2n+1 `optimizers.shift_points` of
        theta, shape (2n+1, rows).

        States up to `_SWEEP_MAX_DIM` amplitudes take the one-sweep path; wider
        ones run the ansatz once per point.
        """
        theta = _as_theta(theta, self.config)
        if self._encoded.shape[1] <= _SWEEP_MAX_DIM:
            return self._shift_point_sweep(theta)
        return np.stack([self._p_correct(t) for t in shift_points(theta)])

    def shift_point_losses(self, theta: np.ndarray) -> np.ndarray:
        """Mean cross-entropy at the 2n+1 points of `shift_point_p_correct`."""
        return _mean_cross_entropy(self.shift_point_p_correct(theta))

    def gradient(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """Exact analytic loss gradient.

        The pi/2 shift rule is exact for the class probabilities (expectations
        of projectors under single Pauli rotations); the chain rule through
        -log then gives the exact cross-entropy gradient.
        """
        p = self.shift_point_p_correct(theta)
        n = (p.shape[0] - 1) // 2
        p0 = np.maximum(p[0], LOSS_CLAMP)
        dp = (p[1 : n + 1] - p[n + 1 :]) / 2.0
        return float(_mean_cross_entropy(p0)), np.mean(-dp / p0, axis=1)
