"""Differential-privacy mechanisms: parameter noise and DP-PCA preprocessing."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def gaussian_sigma(epsilon: float, delta: float, sensitivity: float) -> float:
    """Noise std for the (epsilon, delta) Gaussian mechanism."""
    return sensitivity * math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


@dataclass(frozen=True)
class NoiseMechanism:
    kind: str  # "laplace" or "gaussian"
    epsilon: float
    sensitivity: float
    delta: float | None = None

    def __post_init__(self):
        kind = self.kind.lower() if isinstance(self.kind, str) else self.kind
        if kind not in ("laplace", "gaussian"):
            raise ValueError(f"unknown mechanism {self.kind!r}")
        object.__setattr__(self, "kind", kind)
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.sensitivity < 0:
            raise ValueError("sensitivity must be >= 0")
        if kind == "gaussian":
            if self.delta is None or not 0 < self.delta < 1:
                raise ValueError("gaussian mechanism requires 0 < delta < 1")


def add_parameter_noise(
    theta: np.ndarray, mech: NoiseMechanism, rng: np.random.Generator
) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta contains non-finite entries")
    scale = mech.sensitivity / mech.epsilon
    if mech.kind == "laplace":
        noise = rng.laplace(0.0, scale, theta.shape) if scale > 0 else np.zeros_like(theta)
    else:
        sigma = gaussian_sigma(mech.epsilon, mech.delta, mech.sensitivity)
        noise = rng.normal(0.0, sigma, theta.shape)
    return theta + noise


@dataclass(frozen=True)
class DpPcaSpec:
    n_components: int
    epsilon: float
    delta: float
    bounds: tuple[float, float] = (0.0, 1.0)
    data_norm: float = 1.0

    def __post_init__(self):
        if self.n_components < 1:
            raise ValueError("n_components must be >= 1")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if not 0 < self.delta < 1:
            raise ValueError("delta must be in (0, 1)")
        if self.data_norm <= 0:
            raise ValueError("data_norm must be > 0")
        bounds = tuple(self.bounds)
        if len(bounds) != 2:
            raise ValueError("bounds must be a pair (low, high)")
        if bounds[0] >= bounds[1]:
            raise ValueError("bounds must satisfy low < high")
        object.__setattr__(self, "bounds", bounds)


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray
    components: np.ndarray  # (d, k), orthonormal columns
    eigenvalues: np.ndarray  # length k, non-increasing

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.mean) @ self.components


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Scale each column so its largest-magnitude entry is positive."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        if out[np.argmax(np.abs(out[:, j])), j] < 0:
            out[:, j] = -out[:, j]
    return out


def top_k_eigenvectors(sym: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k eigenpairs of a symmetric matrix, eigenvalues non-increasing."""
    eigvals, eigvecs = np.linalg.eigh(sym)
    order = np.argsort(eigvals)[::-1][:k]
    return eigvals[order], _fix_signs(eigvecs[:, order])


def dp_pca_fit_transform(
    X: np.ndarray, y: np.ndarray, spec: DpPcaSpec, rng: np.random.Generator
) -> tuple[np.ndarray, PcaModel]:
    """Differentially private PCA via covariance perturbation.

    Half the (epsilon, delta) budget perturbs the mean, half the covariance;
    rows are clipped first so the sensitivity assumptions hold.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    m, d = X.shape
    if m < 2:
        raise ValueError("need at least 2 rows")
    if spec.n_components > d:
        raise ValueError("n_components exceeds feature dimension")

    Xc = np.clip(X, spec.bounds[0], spec.bounds[1])
    norms = np.linalg.norm(Xc, axis=1)
    over = norms > spec.data_norm
    Xc[over] = Xc[over] * (spec.data_norm / norms[over])[:, None]

    eps_half, delta_half = spec.epsilon / 2.0, spec.delta / 2.0
    sigma_mean = gaussian_sigma(eps_half, delta_half, spec.data_norm / m)
    mu = Xc.mean(axis=0) + rng.normal(0.0, sigma_mean, d)

    centered = Xc - mu
    cov = (centered.T @ centered) / m
    sigma_cov = gaussian_sigma(eps_half, delta_half, spec.data_norm**2 / m)
    upper = rng.normal(0.0, sigma_cov, (d, d))
    noise = np.triu(upper) + np.triu(upper, k=1).T  # exactly symmetric
    cov_noisy = cov + noise

    eigvals, components = top_k_eigenvectors(cov_noisy, spec.n_components)
    model = PcaModel(mean=mu, components=components, eigenvalues=eigvals)
    return centered @ components, model
