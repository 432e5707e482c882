import numpy as np
import pytest

from qflsim import optimizers, qsim, vqc
from qflsim.optimizers import AqgdSettings, DpSettings


def ry_expectation(theta):
    circuit = qsim.Circuit(1, (qsim.ry(float(theta[0]), 0),))
    return qsim.expectation_z(qsim.apply_circuit(qsim.zero_state(1), circuit), 0)


class CountingObjective:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, theta):
        self.calls += 1
        return self.fn(theta)


def test_shift_gradient_at_symmetry_point():
    _, grad = optimizers.parameter_shift_gradient(ry_expectation, np.array([0.0]))
    assert grad[0] == pytest.approx(0.0, abs=1e-12)


def test_shift_gradient_is_exact_for_cosine():
    value, grad = optimizers.parameter_shift_gradient(ry_expectation, np.array([0.3]))
    assert value == pytest.approx(np.cos(0.3), abs=1e-12)
    assert grad[0] == pytest.approx(-np.sin(0.3), abs=1e-12)


def test_shift_gradient_evaluation_count():
    f = CountingObjective(lambda t: float(np.sum(t**2)))
    optimizers.parameter_shift_gradient(f, np.zeros(3))
    assert f.calls == 2 * 3 + 1


class ShiftPointObjective:
    """Gives its 2n+1 shift-point values from one method call; never called per point."""

    def __init__(self, values):
        self.values = np.array(values, dtype=float)

    def __call__(self, theta):
        raise AssertionError("evaluated point by point")

    def shift_point_losses(self, theta):
        return self.values


def test_shift_gradient_rejects_non_finite():
    with pytest.raises(FloatingPointError):
        optimizers.parameter_shift_gradient(lambda t: float("nan"), np.zeros(2))
    with pytest.raises(FloatingPointError):
        optimizers.parameter_shift_gradient(ShiftPointObjective([0.0, np.inf, 1.0]), np.zeros(1))


def test_shift_gradient_takes_shift_point_losses_in_one_call():
    # values at theta, theta + pi/2 e_0, theta + pi/2 e_1, theta - pi/2 e_0, theta - pi/2 e_1
    f = ShiftPointObjective([1.0, 5.0, 2.0, 1.0, 4.0])
    value, grad = optimizers.parameter_shift_gradient(f, np.zeros(2))
    assert value == 1.0
    np.testing.assert_array_equal(grad, [2.0, -1.0])


def test_aqgd_on_dataset_objective_matches_pointwise_calls(rng):
    cfg = vqc.VqcConfig(3, 3, ansatz_reps=2)
    obj = vqc.DatasetObjective(rng.uniform(0, 2 * np.pi, (12, 3)), rng.integers(0, 3, 12), cfg)
    settings = AqgdSettings(maxiter=15, eta=0.3)
    theta0 = rng.uniform(-np.pi, np.pi, cfg.parameter_count)
    swept = optimizers.aqgd_minimize(obj, theta0, settings)
    pointwise = optimizers.aqgd_minimize(lambda t: obj(t), theta0, settings)
    assert swept.iterations_run == pointwise.iterations_run
    assert swept.eval_count == pointwise.eval_count
    np.testing.assert_allclose(swept.theta_final, pointwise.theta_final, rtol=0, atol=1e-12)
    np.testing.assert_allclose(swept.objective_trace, pointwise.objective_trace, rtol=0,
                               atol=1e-12)


def test_aqgd_single_step_on_quadratic():
    # shift gradient of theta^2 at 1 is ((1+pi/2)^2 - (1-pi/2)^2)/2 = pi
    settings = AqgdSettings(maxiter=1, eta=0.1, momentum=0.0)
    result = optimizers.aqgd_minimize(lambda t: float(t[0] ** 2), np.array([1.0]), settings)
    assert result.theta_final[0] == pytest.approx(1.0 - 0.1 * np.pi, abs=1e-12)


def test_momentum_fixed_point_under_constant_gradient():
    # m_t -> g geometrically, so update magnitude converges to eta*g
    settings = AqgdSettings(maxiter=60, eta=0.01, momentum=0.5, tol=0.0, param_tol=0.0)
    g = 2.0 / np.pi
    result = optimizers.aqgd_minimize(lambda t: float(g * t[0]), np.array([0.0]), settings)
    # shift gradient of linear f is its slope scaled by pi/2; at the fixed
    # point each additional iteration moves theta by eta * g * pi/2
    settings2 = AqgdSettings(maxiter=61, eta=0.01, momentum=0.5, tol=0.0, param_tol=0.0)
    result2 = optimizers.aqgd_minimize(lambda t: float(g * t[0]), np.array([0.0]), settings2)
    step = result2.theta_final[0] - result.theta_final[0]
    assert step == pytest.approx(-0.01 * g * np.pi / 2, rel=1e-9)


def test_aqgd_early_stop_at_minimum():
    settings = AqgdSettings(maxiter=50, eta=0.1, momentum=0.0, param_tol=1e-6)
    result = optimizers.aqgd_minimize(lambda t: float(np.cos(t[0])), np.array([np.pi]), settings)
    assert result.iterations_run == 1


def test_aqgd_eval_count_accounting():
    settings = AqgdSettings(maxiter=7, eta=0.01, momentum=0.0, tol=0.0, param_tol=0.0)
    f = CountingObjective(lambda t: float(np.sum(t**2)))
    result = optimizers.aqgd_minimize(f, np.ones(4), settings)
    n = 4
    assert result.eval_count == result.iterations_run * (2 * n + 1)
    assert f.calls == result.eval_count


def test_aqgd_converges_on_quadratic():
    settings = AqgdSettings(maxiter=100, eta=0.1, momentum=0.0, tol=0.0, param_tol=0.0)
    result = optimizers.aqgd_minimize(lambda t: float(t[0] ** 2), np.array([1.0]), settings)
    assert abs(result.theta_final[0]) < 1e-3


def test_dp_sigma_closed_form():
    dp = DpSettings(epsilon=1.0, delta=1e-5, sensitivity=1.0)
    assert dp.noise_sigma == pytest.approx(4.84480, abs=1e-4)


def test_dp_aqgd_zero_sigma_matches_plain_bitwise():
    settings = AqgdSettings(maxiter=10, eta=0.05, momentum=0.3, tol=0.0, param_tol=0.0)
    dp = DpSettings(epsilon=1.0, delta=1e-5, sensitivity=0.0)  # sigma = 0
    f = lambda t: float(np.sum((t - 0.5) ** 2))
    plain = optimizers.aqgd_minimize(f, np.ones(3), settings)
    noisy = optimizers.dp_aqgd_minimize(f, np.ones(3), settings, dp, np.random.default_rng(0))
    np.testing.assert_array_equal(plain.theta_final, noisy.theta_final)
    np.testing.assert_array_equal(plain.objective_trace, noisy.objective_trace)


def test_dp_aqgd_reproducible_with_seed():
    settings = AqgdSettings(maxiter=5, eta=0.05, momentum=0.0, tol=0.0, param_tol=0.0)
    dp = DpSettings(epsilon=1.0, delta=1e-5, sensitivity=1.0)
    f = lambda t: float(np.sum(t**2))
    a = optimizers.dp_aqgd_minimize(f, np.ones(3), settings, dp, np.random.default_rng(42))
    b = optimizers.dp_aqgd_minimize(f, np.ones(3), settings, dp, np.random.default_rng(42))
    np.testing.assert_array_equal(a.theta_final, b.theta_final)
    assert a.eval_count == b.eval_count


def test_spsa_constant_objective_leaves_theta():
    result = optimizers.spsa_minimize(lambda t: 1.0, np.array([0.3, -0.2]), 20,
                                      np.random.default_rng(0))
    np.testing.assert_array_equal(result.theta_final, [0.3, -0.2])


def test_spsa_descends_on_sphere():
    f = lambda t: float(np.sum(t**2))
    result = optimizers.spsa_minimize(f, np.full(4, 2.0), 200, np.random.default_rng(1), a=1.0)
    assert result.objective_trace[-1] < result.objective_trace[0]


def test_spsa_eval_count():
    f = CountingObjective(lambda t: float(np.sum(t**2)))
    result = optimizers.spsa_minimize(f, np.ones(3), 17, np.random.default_rng(2))
    assert result.eval_count == 2 * 17
    assert f.calls == 34


def test_spsa_on_dataset_objective_matches_pointwise_calls(rng):
    cfg = vqc.VqcConfig(4, 3, ansatz_reps=2)
    obj = vqc.DatasetObjective(rng.uniform(0, 2 * np.pi, (12, 4)), rng.integers(0, 3, 12), cfg)
    theta0 = rng.uniform(-np.pi, np.pi, cfg.parameter_count)
    pooled = optimizers.spsa_minimize(obj, theta0, 6, np.random.default_rng(5))
    pointwise = optimizers.spsa_minimize(lambda t: obj(t), theta0, 6, np.random.default_rng(5))
    np.testing.assert_array_equal(pooled.theta_final, pointwise.theta_final)
    np.testing.assert_array_equal(pooled.objective_trace, pointwise.objective_trace)
    assert pooled.eval_count == pointwise.eval_count == 12


def test_spsa_evaluates_both_points_in_one_losses_call():
    class LossesObjective:
        def __init__(self):
            self.batches = []

        def __call__(self, theta):
            raise AssertionError("evaluated point by point")

        def losses(self, thetas):
            self.batches.append(len(thetas))
            return [float(np.sum(t**2)) for t in thetas]

    f = LossesObjective()
    optimizers.spsa_minimize(f, np.ones(3), 4, np.random.default_rng(0))
    assert f.batches == [2, 2, 2, 2]


def _aqgd_runs(f, theta0, settings):
    """The same run through AQGD and through DP-AQGD with zero noise."""
    dp = DpSettings(epsilon=1.0, delta=1e-5, sensitivity=0.0)  # sigma = 0
    return [optimizers.aqgd_minimize(f, theta0, settings),
            optimizers.dp_aqgd_minimize(f, theta0, settings, dp, np.random.default_rng(0))]


def test_stop_reason_maxiter():
    settings = AqgdSettings(maxiter=4, eta=0.01, tol=0.0, param_tol=0.0)
    for result in _aqgd_runs(lambda t: float(np.sum(t**2)), np.ones(2), settings):
        assert (result.stop_reason, result.iterations_run) == ("maxiter", 4)
    spsa = optimizers.spsa_minimize(lambda t: 1.0, np.ones(2), 3, np.random.default_rng(0))
    assert spsa.stop_reason == "maxiter"


def test_stop_reason_param_tol():
    # at the minimum of cos the gradient, and so the update, is 0
    settings = AqgdSettings(maxiter=50, eta=0.1, momentum=0.0, param_tol=1e-6)
    for result in _aqgd_runs(lambda t: float(np.cos(t[0])), np.array([np.pi]), settings):
        assert (result.stop_reason, result.iterations_run) == ("param_tol", 1)


def test_stop_reason_tol():
    # a flat objective with param_tol 0: the averaged objective stops moving
    settings = AqgdSettings(maxiter=50, eta=0.1, tol=1e-6, param_tol=0.0, averaging=2)
    for result in _aqgd_runs(lambda t: 1.0, np.ones(2), settings):
        assert (result.stop_reason, result.iterations_run) == ("tol", 3)


def test_shift_matches_fd_on_vqc_loss(rng):
    cfg = vqc.VqcConfig(4, 3)
    for _ in range(20):
        X = rng.uniform(0, 2 * np.pi, (4, 4))
        y = rng.integers(0, 3, 4)
        theta = rng.uniform(-np.pi, np.pi, 16)
        obj = vqc.DatasetObjective(X, y, cfg)
        _, grad = obj.gradient(theta)
        h = 1e-5
        fd = np.array([(obj(theta + h * e) - obj(theta - h * e)) / (2 * h)
                       for e in np.eye(16)])
        assert np.max(np.abs(grad - fd)) < 1e-4
