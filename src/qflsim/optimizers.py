"""Optimizers: AQGD (parameter-shift + momentum), its DP variant, and SPSA."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dp import gaussian_sigma


@dataclass(frozen=True)
class AqgdSettings:
    maxiter: int = 100
    eta: float = 0.1
    momentum: float = 0.25
    tol: float = 1e-6
    param_tol: float = 1e-6
    averaging: int = 10

    def __post_init__(self):
        if self.maxiter < 1:
            raise ValueError("maxiter must be >= 1")
        if self.eta <= 0:
            raise ValueError("eta must be > 0")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")


@dataclass(frozen=True)
class DpSettings:
    epsilon: float
    delta: float
    sensitivity: float = 1.0

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if not 0 < self.delta < 1:
            raise ValueError("delta must be in (0, 1)")
        if self.sensitivity < 0:
            raise ValueError("sensitivity must be >= 0")

    @property
    def noise_sigma(self) -> float:
        return gaussian_sigma(self.epsilon, self.delta, self.sensitivity)


@dataclass
class OptimResult:
    theta_final: np.ndarray
    objective_final: float
    eval_count: int
    iterations_run: int
    objective_trace: np.ndarray = field(default_factory=lambda: np.array([]))


def _finite(values: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise FloatingPointError("objective returned a non-finite value")
    return values


def _evaluate(f, thetas: np.ndarray) -> np.ndarray:
    return _finite(np.array([float(f(t)) for t in thetas]))


def shift_points(theta: np.ndarray) -> np.ndarray:
    """The 2n+1 points theta, theta + pi/2 e_i and theta - pi/2 e_i (i = 0..n-1)."""
    shifts = (math.pi / 2.0) * np.eye(theta.size)
    return np.concatenate([theta[None, :], theta + shifts, theta - shifts])


def parameter_shift_gradient(f, theta: np.ndarray) -> tuple[float, np.ndarray]:
    """Objective value and the pi/2 shift rule applied to `f`, from its values at
    the 2n+1 `shift_points`.

    gradient_i = (f(theta + pi/2 e_i) - f(theta - pi/2 e_i)) / 2

    An objective with a `shift_point_losses(theta)` method (such as
    `vqc.DatasetObjective`) gives all 2n+1 values from one call; any other
    callable is evaluated once per point.

    This is AQGD's update. It is exact for expectation values, not for the
    mean cross-entropy, whose exact gradient is `vqc.DatasetObjective.gradient`.
    """
    theta = np.asarray(theta, dtype=float)
    n = theta.size
    shift_point_losses = getattr(f, "shift_point_losses", None)
    if shift_point_losses is not None:
        values = _finite(np.asarray(shift_point_losses(theta), dtype=float))
    else:
        values = _evaluate(f, shift_points(theta))
    grad = (values[1 : n + 1] - values[n + 1 :]) / 2.0
    return float(values[0]), grad


def _aqgd_core(
    f, theta0: np.ndarray, settings: AqgdSettings, noise_sigma: float, rng
) -> OptimResult:
    theta = np.asarray(theta0, dtype=float).copy()
    n = theta.size
    momentum_term = np.zeros(n)
    trace: list[float] = []
    eval_count = 0
    iterations = 0

    for _ in range(settings.maxiter):
        value, grad = parameter_shift_gradient(f, theta)
        eval_count += 2 * n + 1
        iterations += 1
        trace.append(value)

        if rng is not None:
            grad = grad + rng.normal(0.0, noise_sigma, n)

        momentum_term = settings.momentum * momentum_term + (1.0 - settings.momentum) * grad
        update = settings.eta * momentum_term
        theta = theta - update

        if float(np.max(np.abs(update))) < settings.param_tol:
            break
        if len(trace) >= settings.averaging + 1:
            prev_avg = float(np.mean(trace[-settings.averaging - 1 : -1]))
            cur_avg = float(np.mean(trace[-settings.averaging :]))
            if abs(cur_avg - prev_avg) < settings.tol:
                break

    return OptimResult(
        theta_final=theta,
        objective_final=trace[-1],
        eval_count=eval_count,
        iterations_run=iterations,
        objective_trace=np.array(trace),
    )


def aqgd_minimize(f, theta0: np.ndarray, settings: AqgdSettings) -> OptimResult:
    return _aqgd_core(f, theta0, settings, 0.0, None)


def dp_aqgd_minimize(
    f, theta0: np.ndarray, settings: AqgdSettings, dp: DpSettings, rng: np.random.Generator
) -> OptimResult:
    """AQGD with Gaussian gradient perturbation for (epsilon, delta)-DP."""
    return _aqgd_core(f, theta0, settings, dp.noise_sigma, rng)


def spsa_minimize(
    f,
    theta0: np.ndarray,
    maxiter: int,
    rng: np.random.Generator,
    a: float = 0.1,
    c: float = 0.1,
    A: float | None = None,
) -> OptimResult:
    """Simultaneous-perturbation approximation; 2 evaluations per iteration."""
    if maxiter < 1:
        raise ValueError("maxiter must be >= 1")
    if A is None:
        A = 0.1 * maxiter
    theta = np.asarray(theta0, dtype=float).copy()
    n = theta.size
    trace = []
    for k in range(maxiter):
        a_k = a / (k + 1 + A) ** 0.602
        c_k = c / (k + 1) ** 0.101
        delta = rng.integers(0, 2, n) * 2.0 - 1.0
        values = _evaluate(f, np.stack([theta + c_k * delta, theta - c_k * delta]))
        ghat = (values[0] - values[1]) / (2.0 * c_k) * delta
        theta = theta - a_k * ghat
        trace.append(float(values.mean()))
    return OptimResult(
        theta_final=theta,
        objective_final=trace[-1],
        eval_count=2 * maxiter,
        iterations_run=maxiter,
        objective_trace=np.array(trace),
    )
