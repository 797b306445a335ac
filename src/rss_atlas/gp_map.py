"""Multi-output Gaussian process regression from 2-D locations to signal vectors.

One isotropic RBF kernel and one noise level are shared by all output
dimensions, so a fitted map predicts a d-vector mean and a single scalar
variance per query point. Solves go through a cached Cholesky factor;
the inverse is never formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import ConfigError, DataError, GpFitError

MODEL_FORMAT_VERSION = 2
_JITTER_SCALE = 1e-8
_VARIANCE_FLOOR = 1e-12


@dataclass(frozen=True)
class GpHyperparams:
    """Kernel and noise hyperparameters in the output's squared units."""

    signal_variance: float
    length_scale: float
    noise_variance: float = 0.0

    def __post_init__(self):
        if not self.signal_variance > 0:
            raise ConfigError(f"signal_variance must be > 0, got {self.signal_variance}")
        if not self.length_scale > 0:
            raise ConfigError(f"length_scale must be > 0, got {self.length_scale}")
        if self.noise_variance < 0:
            raise ConfigError(f"noise_variance must be >= 0, got {self.noise_variance}")


@dataclass(frozen=True)
class GpModel:
    """Fitted map: training inputs, Cholesky factor of (K + sn2*I), weights.

    W solves (K + sn2*I) W = Y, so the predictive mean at x* is k*^T W.
    """

    X_train: np.ndarray
    hyperparams: GpHyperparams
    chol_factor: np.ndarray
    W: np.ndarray

    @property
    def n(self) -> int:
        return self.X_train.shape[0]

    @property
    def output_dim(self) -> int:
        return self.W.shape[1]


def rbf_kernel(x_p, x_q, hp: GpHyperparams) -> float:
    """Squared exponential covariance between two locations."""
    d = np.asarray(x_p, dtype=float) - np.asarray(x_q, dtype=float)
    return float(hp.signal_variance * np.exp(-float(d @ d) / hp.length_scale**2))


def _sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of two 2-D location sets (n x k).

    Differences, not the expanded |a|^2+|b|^2-2ab form: exact symmetry and
    no cancellation for nearby points. Summed one axis at a time, in place,
    so no n x k x 2 temporary is built; dx*dx + dy*dy rounds exactly as a
    sum over the coordinate axis does.
    """
    D = A[:, 0, None] - B[None, :, 0]
    D *= D
    dy = A[:, 1, None] - B[None, :, 1]
    dy *= dy
    D += dy
    return D


def kernel_matrix(A: np.ndarray, B: np.ndarray, hp: GpHyperparams) -> np.ndarray:
    """Cross-covariance matrix between two location sets (no noise term).

    Built in place in the distance matrix; -d/l^2 rounds the same as d/(-l^2).
    """
    K = _sq_dists(A, B)
    K /= -(hp.length_scale**2)
    np.exp(K, out=K)
    K *= hp.signal_variance
    return K


def gram_matrix(X: np.ndarray, hp: GpHyperparams) -> np.ndarray:
    """Training covariance: kernel matrix plus noise variance on the diagonal."""
    X = np.asarray(X, dtype=float)
    K = kernel_matrix(X, X, hp)
    K[np.diag_indices(X.shape[0])] += hp.noise_variance
    return K


def _cholesky_with_jitter(K: np.ndarray, hp: GpHyperparams) -> np.ndarray:
    try:
        return np.linalg.cholesky(K)
    except np.linalg.LinAlgError:
        pass
    jitter = _JITTER_SCALE * hp.signal_variance
    try:
        return np.linalg.cholesky(K + jitter * np.eye(K.shape[0]))
    except np.linalg.LinAlgError:
        raise GpFitError(
            "covariance matrix is not positive definite even with jitter "
            f"{jitter:g}; increase noise_variance or drop duplicate locations"
        ) from None


def fit(X: np.ndarray, Y: np.ndarray, hp: GpHyperparams) -> GpModel:
    """Fit the map by factoring the Gram matrix and solving for W.

    A single retry with jitter 1e-8 * signal_variance is attempted when
    the plain factorization fails.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    if X.ndim != 2 or X.shape[1] != 2:
        raise DataError(f"X must be n x 2, got {X.shape}")
    if Y.shape[0] != X.shape[0]:
        raise DataError(f"X has {X.shape[0]} rows but Y has {Y.shape[0]}")
    L = _cholesky_with_jitter(gram_matrix(X, hp), hp)
    W = solve_triangular(L.T, solve_triangular(L, Y, lower=True), lower=False)
    return GpModel(X_train=X, hyperparams=hp, chol_factor=L, W=W)


def predict(model: GpModel, x_star) -> tuple[np.ndarray, float]:
    """Predictive mean vector and shared scalar variance at one location."""
    means, variances = predict_batch(model, np.asarray(x_star, dtype=float)[None, :])
    return means[0], float(variances[0])


def predict_batch(model: GpModel, X_star: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized predict over k query locations: (k x d means, k variances).

    The variance is clamped at 1e-12 when rounding drives it negative.
    """
    X_star = np.asarray(X_star, dtype=float)
    hp = model.hyperparams
    k_star = kernel_matrix(model.X_train, X_star, hp)
    means = k_star.T @ model.W
    v = solve_triangular(model.chol_factor, k_star, lower=True)
    # Squared in place with k_star freed, so at most two n x k arrays live.
    del k_star
    v *= v
    prior = hp.signal_variance + hp.noise_variance
    variances = prior - np.sum(v, axis=0)
    variances = np.where(variances < _VARIANCE_FLOOR, _VARIANCE_FLOOR, variances)
    return means, variances


def log_marginal_likelihood(X: np.ndarray, Y: np.ndarray, hp: GpHyperparams) -> float:
    """Gaussian evidence of the targets, summed over output columns."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    model = fit(X, Y, hp)
    n, d = Y.shape
    data_term = -0.5 * float(np.sum(Y * model.W))
    logdet_term = -d * float(np.sum(np.log(np.diag(model.chol_factor))))
    return data_term + logdet_term - 0.5 * n * d * math.log(2.0 * math.pi)


def select_hyperparams(
    X: np.ndarray, Y: np.ndarray, grid: list[GpHyperparams]
) -> GpHyperparams:
    """Grid search maximizing the evidence.

    Non-PD candidates are skipped; exact ties go to the smaller
    length_scale, then to the earlier grid position.
    """
    if not grid:
        raise ConfigError("hyperparameter grid is empty")
    best: GpHyperparams | None = None
    best_ev = -np.inf
    for hp in grid:
        try:
            ev = log_marginal_likelihood(X, Y, hp)
        except GpFitError:
            continue
        if best is None or ev > best_ev or (ev == best_ev and hp.length_scale < best.length_scale):
            best, best_ev = hp, ev
    if best is None:
        raise GpFitError("every hyperparameter candidate produced a non-PD Gram matrix")
    return best


def model_to_dict(model: GpModel) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "hyperparams": {
            "signal_variance": model.hyperparams.signal_variance,
            "length_scale": model.hyperparams.length_scale,
            "noise_variance": model.hyperparams.noise_variance,
        },
        "X_train": model.X_train.tolist(),
        "W": model.W.tolist(),
    }


def model_from_dict(doc: dict) -> GpModel:
    """Rebuild a map from model_to_dict output.

    The Cholesky factor is not stored: it is recomputed from the training
    locations and hyperparameters with the same call fit makes, so the
    rebuilt factor equals the fitted one.
    """
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise DataError(
            f"unsupported GP model format_version {doc.get('format_version')!r}"
            f" (expected {MODEL_FORMAT_VERSION}; rerun train to rewrite the file)"
        )
    hp = GpHyperparams(**doc["hyperparams"])
    X = np.array(doc["X_train"], dtype=float)
    return GpModel(
        X_train=X,
        hyperparams=hp,
        chol_factor=_cholesky_with_jitter(gram_matrix(X, hp), hp),
        W=np.array(doc["W"], dtype=float),
    )
