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
    """Each class's total over its basis states (indices c mod class_count),
    added left to right, so a row's sums do not depend on the rows beside it."""
    out = np.zeros(probs.shape[:-1] + (class_count,))
    for c in range(min(class_count, probs.shape[-1])):  # a class with no state stays 0
        out[..., c] = np.cumsum(probs[..., c::class_count], axis=-1)[..., -1]
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
    """The ansatz on a (rows, 2**q) block of states, at one theta point of shape
    (n,) or at one point per row, shape (rows, n)."""
    return _run_ansatz(amps, _as_theta(theta, config, len(amps)), config)


def _as_theta(theta: np.ndarray, config: VqcConfig, rows: int | None = None) -> np.ndarray:
    """theta as floats, of shape (n,) or, where a row count is given, (rows, n)."""
    theta = np.asarray(theta, dtype=float)
    n = config.parameter_count
    if theta.shape != (n,) and (rows is None or theta.shape != (rows, n)):
        raise ValueError(f"expected {n} parameters, got shape {theta.shape}")
    return theta


def _run_ansatz(amps: np.ndarray, theta: np.ndarray, config: VqcConfig) -> np.ndarray:
    """The kernel loop of `apply_ansatz_batch`. A shared theta gives each gate
    scalar coefficients; a per-row one gives it a (rows, 1, 1) column of them."""
    q = config.qubit_count
    perm = _cx_block_permutation(q, config.entanglement)
    half = theta.T / 2.0
    cos, sin = np.cos(half), np.sin(half)
    if theta.ndim == 1:
        cos, sin = cos.tolist(), sin.tolist()
    else:
        cos, sin = cos[:, :, None, None], sin[:, :, None, None]
    for i in range(len(cos)):
        if i and i % q == 0:
            amps = amps[:, perm]
        c, s = cos[i], sin[i]
        amps = _apply_single_qubit(amps, i % q, c, -s, s, c)
    return amps


def _pair_halves(buf: np.ndarray, block: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the two halves of a C-contiguous buffer's amplitude pairs, where
    a pair's members are `block` elements apart (one qubit's bit)."""
    view = buf.reshape(-1, 2, block)
    return view[:, 0], view[:, 1]


def class_probabilities_batch(
    encoded: np.ndarray, theta: np.ndarray, config: VqcConfig
) -> np.ndarray:
    """Class probabilities for pre-encoded feature states, shape (n, C)."""
    amps = apply_ansatz_batch(encoded, theta, config)
    return _aggregate_mod_classes(np.abs(amps) ** 2, config.class_count)


def _cross_entropy(p_correct: np.ndarray) -> np.ndarray:
    """Clamped -log of each correct-class probability."""
    return -np.log(np.maximum(p_correct, LOSS_CLAMP))


def _mean_cross_entropy(p_correct: np.ndarray) -> np.ndarray:
    """Mean clamped -log over the last axis (rows)."""
    return np.mean(_cross_entropy(p_correct), axis=-1)


# Widest state that takes the one-sweep shift points. Per AQGD step at 40 rows
# (3 classes, ansatz_reps 3, full entanglement, one BLAS thread, shared 2-core
# x86; fastest of 10 calls, of 3 at 10 qubits, over two runs), per-point loop
# -> sweep time and the sweep's extra peak RSS over the loop's:
#   4 qubits   7.19 ->  0.65 ms,   +0.4 MB
#   5 qubits   13.9 ->  1.02 ms,   +0.6 MB
#   6 qubits   25.9 ->  1.80 ms,   +0.7 MB
#   7 qubits   51.6 ->  3.39 ms,   +0.9 MB
#   8 qubits    106 ->  9.07 ms,   +1.5 MB
#   9 qubits    228 ->  43.1 ms,   +4.9 MB
#  10 qubits    589 ->   166 ms,  +17.5 MB
# The sweep holds the suffix map and one spare, each about dim x dim float64,
# plus a few (2 rows, dim) buffers, whatever the parameter count. From 9 qubits
# that is more than a tenth of a ~37 MB run, the benchmark's peak_rss_mb bound
# (the map alone is 128 MB at 12 qubits), so wider states run the ansatz once
# per point.
_SWEEP_MAX_DIM = 2**8


# Most amplitudes (rows x 2**q) in one kernel run whose rows are at different
# thetas. A per-row theta makes each gate multiply by a column of coefficients
# instead of a scalar, which costs more as the run grows, while pooling saves
# the fixed cost of each run it replaces. Per call (full entanglement,
# ansatz_reps 3, one BLAS thread, shared 2-core x86, fastest of 40 interleaved
# calls), K blocks at distinct thetas as K runs -> as one pooled run, by the
# pooled run's amplitudes:
#   amplitudes   4 qubits, K=2 / K=8   6 qubits, K=2 / K=8   8 qubits, K=2 / K=8
#      2048        0.92x / 0.30x         0.87x / 0.27x         0.88x / 0.32x
#      4096        1.08x / 0.43x         0.92x / 0.40x         1.00x / 0.40x
#      8192        1.51x / 0.74x         1.07x / 0.54x         1.19x / 0.52x
#     16384        4.27x / 2.73x         1.45x / 0.90x         1.41x / 0.85x
#     32768        3.08x / 2.43x         2.68x / 1.96x         2.54x / 1.87x
# Rows at one theta keep scalar coefficients, so they share a run at any size.
_POOL_MAX_AMPLITUDES = 2**12


def score_many(pairs) -> list[tuple[float, float]]:
    """(accuracy, mean cross-entropy) of each (objective, theta) pair, the
    objectives sharing one VqcConfig; argmax ties go to the lowest class.

    Pairs at equal thetas share a kernel run. Consecutive such groups also
    share one, each row at its own theta, while it holds at most
    `_POOL_MAX_AMPLITUDES` amplitudes. Each pair's means are taken over its own
    contiguous slice of rows, so they add in the same order as a pair scored
    alone.
    """
    pairs = [(obj, _as_theta(theta, obj.config)) for obj, theta in pairs]
    if any(obj.config != pairs[0][0].config for obj, _ in pairs):
        raise ValueError("score_many takes objectives of one VqcConfig")
    groups: dict[bytes, list[int]] = {}  # pair indices by theta, in order
    for j, (_, theta) in enumerate(pairs):
        groups.setdefault(theta.tobytes(), []).append(j)
    runs: list[list[list[int]]] = []  # each run's groups
    room = 0
    for group in groups.values():
        amplitudes = sum(pairs[j][0]._encoded.size for j in group)
        if amplitudes <= room:
            runs[-1].append(group)
            room -= amplitudes
        else:
            runs.append([group])
            room = _POOL_MAX_AMPLITUDES - amplitudes

    results = [(0.0, 0.0)] * len(pairs)
    for run in runs:
        members = [j for group in run for j in group]
        objectives = [pairs[j][0] for j in members]
        sizes = [len(obj.labels) for obj in objectives]
        theta = pairs[members[0]][1]
        if len(run) > 1:
            theta = np.repeat(np.stack([pairs[j][1] for j in members]), sizes, axis=0)
        encoded = np.concatenate([obj._encoded for obj in objectives])
        labels = np.concatenate([obj.labels for obj in objectives])
        probs = class_probabilities_batch(encoded, theta, objectives[0].config)
        bounds = np.cumsum([0, *sizes])
        hits = np.add.reduceat(np.argmax(probs, axis=1) == labels, bounds[:-1], dtype=int)
        losses = _cross_entropy(probs[np.arange(len(labels)), labels])
        for j, count, size, start in zip(members, hits, sizes, bounds):
            results[j] = (float(count / size), float(np.mean(losses[start : start + size])))
    return results


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
        return score_many([(self, theta)])[0][1]

    def score(self, theta: np.ndarray) -> tuple[float, float]:
        """(accuracy, mean cross-entropy); argmax ties go to the lowest class."""
        return score_many([(self, theta)])[0]

    def losses(self, thetas) -> np.ndarray:
        """Mean cross-entropy at each of several theta points, from pooled runs."""
        return np.array([loss for _, loss in score_many([(self, t) for t in thetas])])

    def _shift_point_sweep(self, theta: np.ndarray) -> np.ndarray:
        """`shift_point_p_correct` from one forward run and one backward walk.

        The compiled kernel runs forward once. The walk then goes back from the
        final state, undoing each RY and CX block, and holds only `after`, the
        state just after gate i, and `suffix`, the real orthogonal map from there
        to the final state (final = after @ suffix). With G = RY(pi),
        RY(a) = cos(a/2) I + sin(a/2) G, so both shifted final states of
        parameter i are (final +- (G after) @ suffix) / sqrt(2), and undoing
        RY(theta_i) is cos(theta_i/2) after - sin(theta_i/2) G after. Only the
        amplitudes of each row's class are needed: rows are sorted by label,
        a row's real and imaginary parts are adjacent, and the suffix keeps the
        columns of class c (indices c mod C) as block c, zero-padded to one
        width, so one real GEMM per class gives them. Memory does not grow
        with n.
        """
        config = self.config
        q, n, classes = config.qubit_count, theta.size, config.class_count
        rows, dim = self._encoded.shape
        p = np.empty((2 * n + 1, rows))
        final = _run_ansatz(self._encoded, theta, config)
        p[0] = self._correct(_aggregate_mod_classes(np.abs(final) ** 2, classes))

        order = np.argsort(self.labels, kind="stable")
        after = np.empty((rows, 2, dim))
        after[:, 0], after[:, 1] = final[order].real, final[order].imag
        after = after.reshape(2 * rows, dim)
        del final
        width = -(-dim // classes)
        final_class, shifted, summed = (np.zeros((2 * rows, width)) for _ in range(3))
        suffix, spare = np.zeros((dim, classes * width)), np.empty((dim, classes * width))
        work = np.empty_like(after)
        gemms = []  # per class present: its rows of G after, its suffix block, its output
        counts = np.bincount(self.labels, minlength=classes)
        bounds = 2 * np.concatenate([[0], np.cumsum(counts)])
        for c, (r0, r1) in enumerate(zip(bounds[:-1], bounds[1:])):
            size = len(range(c, dim, classes))
            suffix[np.arange(c, dim, classes), c * width + np.arange(size)] = 1.0
            final_class[r0:r1, :size] = after[r0:r1, c::classes]
            if r1 > r0:
                gemms.append((work[r0:r1], suffix[:, c * width : (c + 1) * width],
                              shifted[r0:r1]))
        row = suffix.shape[1]  # the suffix's amplitude axis is its rows
        halves = [(*_pair_halves(after, 1 << k), *_pair_halves(work, 1 << k),
                   *_pair_halves(suffix, row << k), *_pair_halves(spare, row << k))
                  for k in range(q)]
        pairs = summed.reshape(rows, 2, width)
        sorted_p = np.empty((2 * n, rows))
        inverse = np.argsort(_cx_block_permutation(q, config.entanglement))
        for i in range(n - 1, -1, -1):
            a0, a1, g0, g1, s0, s1, t0, t1 = halves[i % q]
            np.negative(a1, out=g0)
            np.copyto(g1, a0)
            for gafter, block, out in gemms:
                np.matmul(gafter, block, out=out)
            for point, combine in ((i, np.add), (n + i, np.subtract)):
                combine(final_class, shifted, out=summed)
                np.einsum("ikj,ikj->i", pairs, pairs, out=sorted_p[point])
            if i == 0:
                break
            # Step back over gate i: RY(-theta_i), then the inverse CX block
            # where gate i opens a layer; the suffix map takes gate i in front.
            c, s = math.cos(theta[i] / 2.0), math.sin(theta[i] / 2.0)
            work *= s
            after *= c
            after -= work
            np.multiply(s1, s, out=t0)
            np.multiply(s0, -s, out=t1)
            suffix *= c
            suffix += spare
            if i % q == 0:
                np.take(after, inverse, axis=1, out=work, mode="clip")
                np.copyto(after, work)
                np.take(suffix, inverse, axis=0, out=spare, mode="clip")
                np.copyto(suffix, spare)
        p[1:, order] = 0.5 * sorted_p
        return p

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
