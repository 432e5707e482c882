"""Dense-unitary reference for qflsim's classifier, written apart from the package.

The ansatz is a full 2^q x 2^q matrix: each RY layer is the numpy ``kron`` of
2x2 rotations and each entangling block a product of CX permutation matrices.
The Z feature map is the kron of H gates followed by the kron of the diagonal
phase gates P(2 x_i). Qubit 0 is the least significant bit of a basis index,
and basis index j counts toward class j mod C. These are the circuit
conventions documented in README.md of the repository; nothing here calls
qflsim.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
LOSS_CLAMP = 1e-12
TIE_MARGIN = 1e-9


def _kron_layer(gates: list[np.ndarray]) -> np.ndarray:
    """gates[k] acts on qubit k; qubit 0 is the least significant bit."""
    return reduce(np.kron, gates[::-1])


def _ry(angle: float) -> np.ndarray:
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]])


def _cx(control: int, target: int, qubits: int) -> np.ndarray:
    dim = 2**qubits
    j = np.arange(dim)
    flipped = np.where((j >> control) & 1, j ^ (1 << target), j)
    m = np.zeros((dim, dim))
    m[flipped, j] = 1.0
    return m


def _pairs(qubits: int, entanglement: str) -> list[tuple[int, int]]:
    if entanglement == "linear":
        return [(i, i + 1) for i in range(qubits - 1)]
    return [(i, j) for i in range(qubits) for j in range(i + 1, qubits)]


class Circuit:
    """Reference classifier for one circuit shape."""

    def __init__(self, qubits: int, classes: int, ansatz_reps: int = 3,
                 feature_map_reps: int = 1, entanglement: str = "full"):
        self.qubits, self.classes = qubits, classes
        self.ansatz_reps, self.feature_map_reps = ansatz_reps, feature_map_reps
        block = np.eye(2**qubits)
        for c, t in _pairs(qubits, entanglement):
            block = _cx(c, t, qubits) @ block
        self._entangle = block
        self._h_layer = _kron_layer([H] * qubits)
        self._encoded: dict[bytes, np.ndarray] = {}

    def unitary(self, theta: np.ndarray) -> np.ndarray:
        q = self.qubits
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (q * (self.ansatz_reps + 1),):
            raise ValueError(f"theta has shape {theta.shape}")
        u = _kron_layer([_ry(a) for a in theta[:q]])
        for r in range(1, self.ansatz_reps + 1):
            u = _kron_layer([_ry(a) for a in theta[r * q:(r + 1) * q]]) @ (self._entangle @ u)
        return u

    def encode(self, features: np.ndarray) -> np.ndarray:
        """Feature-map states as columns, shape (2^q, n); cached per dataset."""
        key = features.tobytes()
        if key not in self._encoded:
            states = []
            for x in features:
                psi = np.zeros(2**self.qubits, dtype=complex)
                psi[0] = 1.0
                phases = _kron_layer([np.array([1.0, np.exp(2j * xi)]) for xi in x])
                for _ in range(self.feature_map_reps):
                    psi = phases * (self._h_layer @ psi)
                states.append(psi)
            self._encoded[key] = np.array(states).T
        return self._encoded[key]

    def class_probabilities(self, features: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Shape (n, C)."""
        amps = self.unitary(theta) @ self.encode(features)
        probs = np.abs(amps) ** 2
        dim = probs.shape[0]
        return np.stack([probs[c:dim:self.classes].sum(axis=0)
                         for c in range(self.classes)], axis=1)

    def loss(self, features, labels, theta) -> float:
        p = self.class_probabilities(features, theta)[np.arange(len(labels)), labels]
        return float(np.mean(-np.log(np.maximum(p, LOSS_CLAMP))))

    def accuracy_range(self, features, labels, theta) -> tuple[int, int, int]:
        """(lowest, highest) count of correct predictions and the row count.

        A row whose top-two class probabilities differ by less than
        TIE_MARGIN may go either way, so it widens the range by one.
        """
        probs = self.class_probabilities(features, theta)
        top2 = np.sort(probs, axis=1)[:, -2:]
        tie = (top2[:, 1] - top2[:, 0]) < TIE_MARGIN
        correct = np.argmax(probs, axis=1) == labels
        low = int(np.sum(correct & ~tie))
        return low, low + int(np.sum(tie)), len(labels)
