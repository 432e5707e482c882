import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflsim import optimizers, qsim, vqc

CFG4 = vqc.VqcConfig(feature_count=4, class_count=3)


def oracle_state(x: np.ndarray, theta: np.ndarray, cfg: vqc.VqcConfig) -> np.ndarray:
    """Amplitudes from the gate-level circuits on the qsim reference simulator."""
    state = qsim.apply_circuit(qsim.zero_state(cfg.qubit_count),
                               vqc.build_feature_map(x, cfg.qubit_count, cfg.feature_map_reps))
    ansatz = vqc.build_ansatz(theta, cfg.qubit_count, cfg.ansatz_reps, cfg.entanglement)
    return qsim.apply_circuit(state, ansatz).amplitudes


def oracle_class_probabilities(X: np.ndarray, theta: np.ndarray,
                               cfg: vqc.VqcConfig) -> np.ndarray:
    probs = np.abs([oracle_state(x, theta, cfg) for x in X]) ** 2
    return np.stack([probs[:, c::cfg.class_count].sum(axis=1)
                     for c in range(cfg.class_count)], axis=1)


def kernel_class_probabilities(X: np.ndarray, theta: np.ndarray,
                               cfg: vqc.VqcConfig) -> np.ndarray:
    return vqc.class_probabilities_batch(vqc.encode_features(X, cfg), theta, cfg)


def test_parameter_count():
    assert CFG4.parameter_count == 16
    assert vqc.VqcConfig(1, 2, ansatz_reps=0).parameter_count == 1


def test_feature_map_zero_input_is_hadamards():
    circuit = vqc.build_feature_map(np.zeros(4), 4, reps=1)
    state = qsim.apply_circuit(qsim.zero_state(4), circuit)
    np.testing.assert_allclose(state.amplitudes, np.full(16, 0.25), atol=1e-12)


def test_feature_map_gate_count():
    circuit = vqc.build_feature_map(np.array([0.3, 1.1, 2.0, 0.7]), 4, reps=1)
    assert len(circuit.gates) == 8
    assert sum(g.kind == "H" for g in circuit.gates) == 4
    assert sum(g.kind == "P" for g in circuit.gates) == 4


def test_feature_map_phase_flip_at_pi_over_two():
    # P(2 * pi/2) = P(pi) = Z on qubit 0: sign flips where qubit-0 bit is 1
    circuit = vqc.build_feature_map(np.array([np.pi / 2, 0.0]), 2, reps=1)
    state = qsim.apply_circuit(qsim.zero_state(2), circuit)
    signs = np.sign(np.real(state.amplitudes * 2))
    np.testing.assert_allclose(signs, [1, -1, 1, -1])


def test_ansatz_single_qubit_no_reps():
    circuit = vqc.build_ansatz(np.array([0.4]), 1, reps=0)
    assert len(circuit.gates) == 1
    assert circuit.gates[0].kind == "RY"


def test_ansatz_consumes_sixteen_parameters():
    theta = np.arange(16, dtype=float)
    circuit = vqc.build_ansatz(theta, 4, reps=3)
    assert sum(g.kind == "RY" for g in circuit.gates) == 16
    with pytest.raises(ValueError):
        vqc.build_ansatz(theta[:-1], 4, reps=3)
    with pytest.raises(ValueError):
        vqc.apply_ansatz_batch(vqc.encode_features(np.zeros((1, 4)), CFG4), theta[:-1], CFG4)


def test_zero_ansatz_on_uniform_state_is_identity():
    # RY(0) = I and CX permutes the uniform superposition onto itself
    encoded = vqc.encode_features(np.zeros((1, 4)), CFG4)
    np.testing.assert_allclose(encoded[0], np.full(16, 0.25), atol=1e-12)
    np.testing.assert_allclose(vqc.apply_ansatz_batch(encoded, np.zeros(16), CFG4), encoded,
                               atol=1e-12)
    np.testing.assert_allclose(oracle_state(np.zeros(4), np.zeros(16), CFG4), encoded[0],
                               atol=1e-12)


def test_class_probabilities_uniform_binary():
    cfg = vqc.VqcConfig(2, 2, ansatz_reps=0)
    probs = kernel_class_probabilities(np.zeros((1, 2)), np.zeros(2), cfg)
    np.testing.assert_allclose(probs, [[0.5, 0.5]], atol=1e-12)


def test_class_probabilities_one_hot_basis_state():
    # |01> is basis index 1 -> class 1 mod 4
    state_probs = np.zeros(4)
    state_probs[1] = 1.0
    agg = vqc._aggregate_mod_classes(state_probs, 4)
    np.testing.assert_array_equal(agg, [0, 1, 0, 0])


def test_class_probabilities_three_classes_uniform():
    # indices 0..3 uniformly: class 0 gets {0, 3}, classes 1, 2 one index each
    agg = vqc._aggregate_mod_classes(np.full(4, 0.25), 3)
    np.testing.assert_allclose(agg, [0.5, 0.25, 0.25])


def test_class_probabilities_sum_to_one(rng):
    for _ in range(20):
        X = rng.uniform(0, 2 * np.pi, (10, 4))
        theta = rng.uniform(-np.pi, np.pi, 16)
        sums = kernel_class_probabilities(X, theta, CFG4).sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-10


def test_batch_path_matches_circuit_path(rng):
    X = rng.uniform(0, 2 * np.pi, (8, 4))
    theta = rng.uniform(-np.pi, np.pi, 16)
    np.testing.assert_allclose(kernel_class_probabilities(X, theta, CFG4),
                               oracle_class_probabilities(X, theta, CFG4), atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(qubits=st.integers(1, 8), entanglement=st.sampled_from(["full", "linear"]),
       ansatz_reps=st.integers(0, 3), feature_map_reps=st.integers(1, 2),
       class_count=st.integers(2, 4), rows=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_kernel_matches_qsim_oracle(qubits, entanglement, ansatz_reps, feature_map_reps,
                                    class_count, rows, seed):
    cfg = vqc.VqcConfig(qubits, class_count, feature_map_reps, ansatz_reps, entanglement)
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 2 * np.pi, (rows, qubits))
    theta = rng.uniform(-np.pi, np.pi, cfg.parameter_count)
    encoded = vqc.encode_features(X, cfg)
    amps = vqc.apply_ansatz_batch(encoded, theta, cfg)
    oracle = np.array([oracle_state(x, theta, cfg) for x in X])
    assert np.max(np.abs(amps - oracle)) < 1e-12
    probs = vqc.class_probabilities_batch(encoded, theta, cfg)
    assert np.max(np.abs(probs - oracle_class_probabilities(X, theta, cfg))) < 1e-12


@settings(max_examples=40, deadline=None)
@given(qubits=st.integers(1, 8), entanglement=st.sampled_from(["full", "linear"]),
       ansatz_reps=st.integers(0, 2), rows=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_per_row_theta_matches_row_by_row_calls(qubits, entanglement, ansatz_reps, rows, seed):
    cfg = vqc.VqcConfig(qubits, 2, ansatz_reps=ansatz_reps, entanglement=entanglement)
    rng = np.random.default_rng(seed)
    encoded = vqc.encode_features(rng.uniform(0, 2 * np.pi, (rows, qubits)), cfg)
    thetas = rng.uniform(-np.pi, np.pi, (rows, cfg.parameter_count))
    pooled = vqc.apply_ansatz_batch(encoded, thetas, cfg)
    single = np.concatenate([vqc.apply_ansatz_batch(encoded[r : r + 1], thetas[r], cfg)
                             for r in range(rows)])
    assert np.array_equal(pooled, single)


def test_per_row_theta_needs_one_row_per_state():
    encoded = vqc.encode_features(np.zeros((3, 4)), CFG4)
    with pytest.raises(ValueError):
        vqc.apply_ansatz_batch(encoded, np.zeros((2, 16)), CFG4)
    with pytest.raises(ValueError):
        vqc.apply_ansatz_batch(encoded, np.zeros((3, 15)), CFG4)


def _scored_alone(obj: vqc.DatasetObjective, theta: np.ndarray) -> tuple[float, float]:
    """(accuracy, loss) from one kernel run of this objective alone."""
    probs = vqc.class_probabilities_batch(obj._encoded, theta, obj.config)
    accuracy = float(np.mean(np.argmax(probs, axis=1) == obj.labels))
    return accuracy, float(vqc._mean_cross_entropy(obj._correct(probs)))


@settings(max_examples=60, deadline=None)
@given(qubits=st.integers(1, 8), entanglement=st.sampled_from(["full", "linear"]),
       ansatz_reps=st.integers(0, 3), class_count=st.integers(2, 4),
       sizes=st.lists(st.integers(1, 40), min_size=1, max_size=6),
       theta_picks=st.lists(st.integers(0, 2), min_size=6, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_pooled_scores_match_scoring_alone(qubits, entanglement, ansatz_reps, class_count,
                                           sizes, theta_picks, seed):
    cfg = vqc.VqcConfig(qubits, class_count, ansatz_reps=ansatz_reps,
                        entanglement=entanglement)
    rng = np.random.default_rng(seed)
    objectives = [vqc.DatasetObjective(rng.uniform(0, 2 * np.pi, (rows, qubits)),
                                       rng.integers(0, class_count, rows), cfg)
                  for rows in sizes]
    thetas = rng.uniform(-np.pi, np.pi, (3, cfg.parameter_count))
    # some pairs share a theta, and the first objective is also scored at a second one
    pairs = [(obj, thetas[pick]) for obj, pick in zip(objectives, theta_picks)]
    pairs.append((objectives[0], thetas[(theta_picks[0] + 1) % 3]))
    expected = [_scored_alone(obj, theta) for obj, theta in pairs]
    default = vqc._POOL_MAX_AMPLITUDES
    try:
        for limit in (0, default, 2**30):  # every pair alone, as shipped, all in one run
            vqc._POOL_MAX_AMPLITUDES = limit
            assert vqc.score_many(pairs) == expected
    finally:
        vqc._POOL_MAX_AMPLITUDES = default
    assert [obj.score(theta) for obj, theta in pairs] == expected
    assert [obj(theta) for obj, theta in pairs] == [loss for _, loss in expected]
    assert objectives[0].losses(thetas).tolist() == [objectives[0](t) for t in thetas]


def test_pooled_scores_share_runs(monkeypatch):
    cfg = vqc.VqcConfig(4, 3, ansatz_reps=1)
    rng = np.random.default_rng(3)
    objectives = [vqc.DatasetObjective(rng.uniform(0, 2 * np.pi, (10, 4)),
                                       rng.integers(0, 3, 10), cfg) for _ in range(3)]
    theta_a, theta_b = rng.uniform(-np.pi, np.pi, (2, cfg.parameter_count))
    real = vqc.apply_ansatz_batch
    calls = []

    def counting(amps, theta, config):
        calls.append(np.shape(theta))
        return real(amps, theta, config)

    monkeypatch.setattr(vqc, "apply_ansatz_batch", counting)
    pairs = [(objectives[0], theta_a), (objectives[1], theta_b), (objectives[2], theta_a)]
    vqc.score_many(pairs)
    assert calls == [(30, cfg.parameter_count)]  # 3 x 10 rows x 16 amplitudes, one run
    calls.clear()
    monkeypatch.setattr(vqc, "_POOL_MAX_AMPLITUDES", 0)
    vqc.score_many(pairs)  # the two pairs at theta_a still share a run
    assert calls == [(cfg.parameter_count,), (cfg.parameter_count,)]
    with pytest.raises(ValueError):
        vqc.score_many([(objectives[0], theta_a),
                        (vqc.DatasetObjective(np.zeros((1, 4)), [0], CFG4), theta_a)])


@settings(max_examples=40, deadline=None)
@given(qubits=st.integers(1, 8), entanglement=st.sampled_from(["full", "linear"]),
       ansatz_reps=st.integers(0, 3), feature_map_reps=st.integers(1, 2),
       class_count=st.integers(2, 4), rows=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_shift_point_losses_match_pointwise_calls(qubits, entanglement, ansatz_reps,
                                                  feature_map_reps, class_count, rows, seed):
    cfg = vqc.VqcConfig(qubits, class_count, feature_map_reps, ansatz_reps, entanglement)
    rng = np.random.default_rng(seed)
    obj = vqc.DatasetObjective(rng.uniform(0, 2 * np.pi, (rows, qubits)),
                               rng.integers(0, class_count, rows), cfg)
    theta = rng.uniform(-np.pi, np.pi, cfg.parameter_count)
    expected = np.array([obj(t) for t in optimizers.shift_points(theta)])
    # the sweep at every width, whichever path the width rule picks
    swept = vqc._mean_cross_entropy(obj._shift_point_sweep(theta))
    assert np.max(np.abs(swept - expected)) < 1e-13
    losses = obj.shift_point_losses(theta)
    assert losses.shape == (2 * cfg.parameter_count + 1,)
    assert np.max(np.abs(losses - expected)) < 1e-13


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("ansatz_reps", [0, 1])
def test_shift_point_losses_past_the_sweep_width_match_pointwise_calls(rows, ansatz_reps):
    # 9 qubits: wider than _SWEEP_MAX_DIM, so shift_point_losses runs the per-point loop
    cfg = vqc.VqcConfig(9, 3, ansatz_reps=ansatz_reps, entanglement="linear")
    rng = np.random.default_rng(rows + 10 * ansatz_reps)
    obj = vqc.DatasetObjective(rng.uniform(0, 2 * np.pi, (rows, 9)),
                               rng.integers(0, 3, rows), cfg)
    assert 2**9 > vqc._SWEEP_MAX_DIM
    theta = rng.uniform(-np.pi, np.pi, cfg.parameter_count)
    expected = np.array([obj(t) for t in optimizers.shift_points(theta)])
    losses = obj.shift_point_losses(theta)
    assert losses.shape == (2 * cfg.parameter_count + 1,)
    assert np.max(np.abs(losses - expected)) < 1e-13
    swept = vqc._mean_cross_entropy(obj._shift_point_sweep(theta))
    assert np.max(np.abs(swept - expected)) < 1e-13


def _traced_peak_of_shift_points(ansatz_reps: int) -> int:
    """Peak traced allocation, in bytes, of one shift_point_p_correct call at
    8 qubits and 40 rows."""
    cfg = vqc.VqcConfig(8, 2, ansatz_reps=ansatz_reps, entanglement="linear")
    rng = np.random.default_rng(ansatz_reps)
    obj = vqc.DatasetObjective(rng.uniform(0, 2 * np.pi, (40, 8)),
                               rng.integers(0, 2, 40), cfg)
    theta = rng.uniform(-np.pi, np.pi, cfg.parameter_count)
    obj.shift_point_p_correct(theta)  # fills the CX-permutation cache
    tracemalloc.start()
    try:
        obj.shift_point_p_correct(theta)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_shift_point_sweep_memory_does_not_grow_with_parameters():
    shallow, deep = _traced_peak_of_shift_points(1), _traced_peak_of_shift_points(6)
    assert deep < 2.5 * 2**20
    assert deep < 1.10 * shallow


def test_cross_entropy_examples(rng):
    # clamp: single sample with p_y = 0 -> -log(1e-12)
    cfg = vqc.VqcConfig(1, 2, ansatz_reps=0)
    # RY(-pi/2) rotates H|0> back to |0>: class 0 prob 1 -> loss 0
    theta = np.array([-np.pi / 2])
    assert vqc.DatasetObjective([[0.0]], [0], cfg)(theta) == pytest.approx(0.0, abs=1e-12)
    # label 1 has probability ~0 -> clamp active
    clamped = vqc.DatasetObjective([[0.0]], [1], cfg)
    assert clamped(theta) == pytest.approx(-np.log(1e-12))
    assert clamped.score(theta) == (0.0, clamped(theta))
    # p_y = 0.5 for all samples -> ln 2
    cfg2 = vqc.VqcConfig(2, 2, ansatz_reps=0)
    obj = vqc.DatasetObjective(np.zeros((4, 2)), [0, 1, 0, 1], cfg2)
    assert obj(np.zeros(2)) == pytest.approx(np.log(2.0), abs=1e-12)


def test_loss_invariant_under_sample_order(rng):
    X = rng.uniform(0, 2 * np.pi, (12, 4))
    y = rng.integers(0, 3, 12)
    theta = rng.uniform(-np.pi, np.pi, 16)
    base_acc, base_loss = vqc.DatasetObjective(X, y, CFG4).score(theta)
    perm = rng.permutation(12)
    acc, loss = vqc.DatasetObjective(X[perm], y[perm], CFG4).score(theta)
    assert acc == base_acc
    assert loss == pytest.approx(base_loss, abs=1e-12)


def test_empty_dataset_rejected():
    with pytest.raises(ValueError):
        vqc.DatasetObjective(np.zeros((0, 4)), np.zeros(0, dtype=int), CFG4)


def test_predict_tie_breaks_to_lowest_class():
    cfg = vqc.VqcConfig(2, 2, ansatz_reps=0)
    # uniform state -> exact (0.5, 0.5) tie, scored as a prediction of class 0
    assert vqc.DatasetObjective(np.zeros((1, 2)), [0], cfg).score(np.zeros(2))[0] == 1.0
    assert vqc.DatasetObjective(np.zeros((1, 2)), [1], cfg).score(np.zeros(2))[0] == 0.0


def test_accuracy_fraction(rng):
    X = rng.uniform(0, 2 * np.pi, (4, 4))
    theta = rng.uniform(-np.pi, np.pi, 16)
    labels = np.argmax(oracle_class_probabilities(X, theta, CFG4), axis=1)
    labels[0] = (labels[0] + 1) % 3  # force 3 of 4 correct
    obj = vqc.DatasetObjective(X, labels, CFG4)
    acc, loss = obj.score(theta)
    assert acc == pytest.approx(0.75)
    assert loss == obj(theta)


def test_exact_gradient_matches_finite_differences(rng):
    X = rng.uniform(0, 2 * np.pi, (5, 4))
    y = rng.integers(0, 3, 5)
    theta = rng.uniform(-np.pi, np.pi, 16)
    obj = vqc.DatasetObjective(X, y, CFG4)
    _, grad = obj.gradient(theta)
    h = 1e-5
    fd = np.array([(obj(theta + h * e) - obj(theta - h * e)) / (2 * h) for e in np.eye(16)])
    assert np.max(np.abs(grad - fd)) < 1e-4
