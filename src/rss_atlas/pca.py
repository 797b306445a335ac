"""Principal component analysis baseline compressor.

The symmetric eigenproblem of the sample covariance is solved with
LAPACK (numpy.linalg.eigh). Component signs follow a fixed convention:
the entry of largest magnitude in each component is made positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

_FIELDS = ("mean", "components", "eigenvalues")


@dataclass(frozen=True)
class PcaModel:
    """Column mean, top-c orthonormal components (m x c), eigenvalues (desc)."""

    mean: np.ndarray
    components: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        got = (self.mean.shape, self.components.shape, self.eigenvalues.shape)
        m, c = got[1] if len(got[1]) == 2 else (-1, -1)  # no array has shape (-1, -1)
        if got != ((m,), (m, c), (c,)):
            raise DataError(
                f"PCA mean, components, eigenvalues have shapes {got}, not (m,), (m, c), (c,)"
            )

    @property
    def input_dim(self) -> int:
        return self.components.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.components.shape[1]


def fit(Z: np.ndarray, c: int) -> PcaModel:
    """Fit on the sample covariance (1/(n-1)) of the centered data."""
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2:
        raise DataError(f"Z must be a matrix, got shape {Z.shape}")
    n, m = Z.shape
    if n < 2:
        raise DataError("PCA needs at least 2 rows")
    if not 1 <= c <= m:
        raise ConfigError(f"latent dim {c} out of range [1, {m}]")
    mean = Z.mean(axis=0)
    centered = Z - mean
    cov = (centered.T @ centered) / (n - 1)
    w, V = np.linalg.eigh(cov)
    order = np.argsort(-w, kind="stable")[:c]
    # C order, as a reloaded model's components are: the two layouts round
    # the projection differently.
    comps = np.ascontiguousarray(V[:, order])
    vals = w[order]
    # Fixed sign: largest-magnitude entry of each component positive.
    peaks = comps[np.argmax(np.abs(comps), axis=0), np.arange(c)]
    comps *= np.where(peaks < 0, -1.0, 1.0)
    return PcaModel(mean=mean, components=comps, eigenvalues=vals)


def transform(model: PcaModel, Z: np.ndarray) -> np.ndarray:
    Z = np.asarray(Z, dtype=float)
    if Z.shape[-1] != model.input_dim:
        raise DataError(f"expected {model.input_dim} columns, got {Z.shape[-1]}")
    return (Z - model.mean) @ model.components


def inverse_transform(model: PcaModel, L: np.ndarray) -> np.ndarray:
    L = np.asarray(L, dtype=float)
    if L.shape[-1] != model.latent_dim:
        raise DataError(f"expected {model.latent_dim} columns, got {L.shape[-1]}")
    return L @ model.components.T + model.mean


def model_to_dict(model: PcaModel) -> dict:
    return {name: getattr(model, name).tolist() for name in _FIELDS}


def model_from_dict(doc: dict) -> PcaModel:
    return PcaModel(**{name: np.array(doc[name], dtype=float) for name in _FIELDS})
