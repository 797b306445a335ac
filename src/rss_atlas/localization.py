"""Grid likelihood fields from signal maps, and KL scoring against an ideal.

A pipeline couples a compressor (identity, PCA, or autoencoder) with a
GP map fitted on the compressor's standardized output space. For a new
measurement the per-cell likelihood is a product of per-latent-dimension
Gaussian densities sharing the GP's scalar predictive variance; fields
are computed in log space and normalized with log-sum-exp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autoencoder as ae
from . import gp_map
from . import pca as pca_mod
from .dataset import SurveyDataset, atomic_write_text
from .errors import ConfigError, DataError, LikelihoodUnderflowError, RssAtlasError

LOG_2PI = math.log(2.0 * math.pi)
_Q_FLOOR = 1e-300


@dataclass(frozen=True)
class Grid:
    """Regular cell grid; origin is the lower-left corner of cell (0, 0)."""

    origin_x: float
    origin_y: float
    cell_size: float
    width: int
    height: int

    def __post_init__(self):
        if self.cell_size <= 0:
            raise ConfigError("cell_size must be positive")
        if self.width < 1 or self.height < 1:
            raise ConfigError("grid must have at least one cell per axis")

    @classmethod
    def cover(cls, points: np.ndarray, cell_size: float, margin_cells: int = 2) -> "Grid":
        """Smallest grid covering the points' bounding box plus a margin."""
        points = np.asarray(points, dtype=float)
        lo = points.min(axis=0) - margin_cells * cell_size
        hi = points.max(axis=0) + margin_cells * cell_size
        width = max(1, int(math.ceil((hi[0] - lo[0]) / cell_size)))
        height = max(1, int(math.ceil((hi[1] - lo[1]) / cell_size)))
        return cls(
            origin_x=float(lo[0]), origin_y=float(lo[1]),
            cell_size=cell_size, width=width, height=height,
        )

    @property
    def n_cells(self) -> int:
        return self.width * self.height

    def axis_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Cell-center x coordinates (width) and y coordinates (height)."""
        xs = self.origin_x + (np.arange(self.width) + 0.5) * self.cell_size
        ys = self.origin_y + (np.arange(self.height) + 0.5) * self.cell_size
        return xs, ys

    def cell_centers(self) -> np.ndarray:
        """(width*height) x 2 centers, x-major order (index = ix*height + iy)."""
        gx, gy = np.meshgrid(*self.axis_centers(), indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel()])

    def cell_center(self, ix: int, iy: int) -> tuple[float, float]:
        return (
            self.origin_x + (ix + 0.5) * self.cell_size,
            self.origin_y + (iy + 0.5) * self.cell_size,
        )

    def cell_of(self, location) -> tuple[int, int]:
        x, y = float(location[0]), float(location[1])
        ix = int(math.floor((x - self.origin_x) / self.cell_size))
        iy = int(math.floor((y - self.origin_y) / self.cell_size))
        return ix, iy


@dataclass(frozen=True)
class LikelihoodField:
    """Normalized probability mass over a grid; mass[ix, iy] sums to 1."""

    grid: Grid
    mass: np.ndarray

    def __post_init__(self):
        mass = np.asarray(self.mass, dtype=float)
        if mass.shape != (self.grid.width, self.grid.height):
            raise DataError(
                f"mass shape {mass.shape} does not match grid "
                f"({self.grid.width}, {self.grid.height})"
            )
        if np.any(mass < 0) or not np.all(np.isfinite(mass)):
            raise DataError("mass must be finite and non-negative")
        if abs(float(mass.sum()) - 1.0) > 1e-9:
            raise DataError(f"mass sums to {mass.sum()!r}, not 1")
        mass.setflags(write=False)
        object.__setattr__(self, "mass", mass)

    @classmethod
    def from_log(cls, grid: Grid, log_values: np.ndarray) -> "LikelihoodField":
        """Normalize flat per-cell log values with log-sum-exp."""
        lv = np.asarray(log_values, dtype=float).reshape(grid.width, grid.height)
        peak = float(lv.max())
        if not math.isfinite(peak):
            raise LikelihoodUnderflowError(
                "every cell's log likelihood is non-finite; field cannot be normalized"
            )
        shifted = np.exp(lv - peak)
        total = float(shifted.sum())
        mass = shifted / total
        # exp/sum rounding can leave the total a few ulp off 1.
        mass = mass / float(mass.sum())
        return cls(grid=grid, mass=mass)

    def argmax_center(self) -> tuple[float, float]:
        flat = int(np.argmax(self.mass))
        ix, iy = divmod(flat, self.grid.height)
        return self.grid.cell_center(ix, iy)


class IdentityCompressor:
    """Pass-through compressor: the latent space is the input space."""

    def __init__(self, input_dim: int):
        self.input_dim = input_dim
        self.latent_dim = input_dim

    def encode(self, Z: np.ndarray) -> np.ndarray:
        Z = np.asarray(Z, dtype=float)
        if Z.shape[-1] != self.input_dim:
            raise DataError(f"expected {self.input_dim} columns, got {Z.shape[-1]}")
        return Z


class PcaCompressor:
    def __init__(self, model: pca_mod.PcaModel):
        self.model = model
        self.input_dim = model.input_dim
        self.latent_dim = model.latent_dim

    def encode(self, Z: np.ndarray) -> np.ndarray:
        return pca_mod.transform(self.model, Z)


class AutoencoderCompressor:
    def __init__(self, params: ae.AutoencoderParams):
        self.params = params
        self.input_dim = params.input_dim
        self.latent_dim = params.latent_dim

    def encode(self, Z: np.ndarray) -> np.ndarray:
        return ae.encode(self.params, Z)


@dataclass
class Pipeline:
    """Compressor plus the GP map fitted on its standardized latent output.

    latent_mean/latent_std are the training-latent column statistics; the
    GP is fitted on (L - mean) / std so its zero-mean prior holds in any
    latent space.
    """

    label: str
    compressor: object
    gp: gp_map.GpModel
    latent_mean: np.ndarray
    latent_std: np.ndarray

    def __post_init__(self):
        if self.gp.output_dim != self.compressor.latent_dim:
            raise ConfigError(
                f"GP output dim {self.gp.output_dim} does not match "
                f"compressor latent dim {self.compressor.latent_dim}"
            )

    def encode(self, Z: np.ndarray) -> np.ndarray:
        """Measurements to standardized latent coordinates."""
        return (self.compressor.encode(Z) - self.latent_mean) / self.latent_std


class FieldBuilder:
    """Precomputed per-cell GP predictions for one pipeline on one grid.

    The predictions depend only on the grid and the pipeline, so building
    fields for many measurements reuses them. The precompute splits the
    grid into as many blocks of at least _BLOCK cells as fit, of nearly
    equal width, so its temporaries are a few n x block arrays for n
    training points.

    The blocks give the bits of one whole-grid predict_batch. OpenBLAS's
    triangular solve works on groups of 12 columns and rounds a partial
    group at the end of a call differently, so every block but the last
    is whole groups. Its matrix product takes another path for small
    products, so no block is narrower than _BLOCK.
    """

    _BLOCK = 2016
    _GROUP = 12

    def __init__(self, pipeline: Pipeline, grid: Grid):
        self.pipeline = pipeline
        self.grid = grid
        centers = grid.cell_centers()
        self._means = np.empty((grid.n_cells, pipeline.gp.output_dim))
        self._mean_sq = np.empty(grid.n_cells)
        self._variances = np.empty(grid.n_cells)
        n_blocks = max(1, grid.n_cells // self._BLOCK)
        groups = grid.n_cells // self._GROUP
        edges = [self._GROUP * (b * groups // n_blocks) for b in range(n_blocks)]
        for start, stop in zip(edges, edges[1:] + [grid.n_cells]):
            means, self._variances[start:stop] = gp_map.predict_batch(
                pipeline.gp, centers[start:stop]
            )
            self._means[start:stop] = means
            self._mean_sq[start:stop] = np.sum(means * means, axis=1)
        self._log_norm = -0.5 * pipeline.gp.output_dim * (LOG_2PI + np.log(self._variances))

    def log_likelihoods(self, z) -> np.ndarray:
        """Flat per-cell log of the product of per-dimension densities."""
        f = self.pipeline.encode(np.asarray(z, dtype=float))
        # |m - f|^2 expanded so the per-measurement work is one matvec.
        resid_sq = self._mean_sq - 2.0 * (self._means @ f) + float(f @ f)
        np.maximum(resid_sq, 0.0, out=resid_sq)
        return self._log_norm - 0.5 * resid_sq / self._variances

    def field_for(self, z) -> LikelihoodField:
        return LikelihoodField.from_log(self.grid, self.log_likelihoods(z))


def point_likelihood(pipeline: Pipeline, z, x_star) -> float:
    """Likelihood of one location for one measurement (log-space inside)."""
    mean, variance = gp_map.predict(pipeline.gp, x_star)
    f = pipeline.encode(np.asarray(z, dtype=float))
    resid = mean - f
    log_lik = -0.5 * float(
        pipeline.gp.output_dim * (LOG_2PI + math.log(variance))
        + float(resid @ resid) / variance
    )
    return math.exp(log_lik)


def likelihood_field(pipeline: Pipeline, z, grid: Grid) -> LikelihoodField:
    """Evaluate the measurement likelihood at every cell center, normalized."""
    return FieldBuilder(pipeline, grid).field_for(z)


def ideal_posterior(grid: Grid, x_true, sigma: float) -> LikelihoodField:
    """Isotropic Gaussian mass centered on the true location."""
    if sigma <= 0:
        raise ConfigError("sigma must be positive")
    xs, ys = grid.axis_centers()
    x_true = np.asarray(x_true, dtype=float)
    dx = xs - x_true[0]
    dy = ys - x_true[1]
    # Separable squared distance, same x-major order as cell_centers().
    sq_dist = ((dx * dx)[:, None] + (dy * dy)[None, :]).ravel()
    log_density = -sq_dist / (2.0 * sigma * sigma) - LOG_2PI - 2.0 * math.log(sigma)
    return LikelihoodField.from_log(grid, log_density)


def kl_divergence(p_ideal: LikelihoodField, q_est: LikelihoodField) -> float:
    """Sum of p * log(p/q) in nats; q floored at 1e-300, p = 0 cells skipped."""
    if p_ideal.grid != q_est.grid:
        raise DataError("likelihood fields live on different grids")
    p = p_ideal.mass
    q = np.maximum(q_est.mass, _Q_FLOOR)
    nz = p > 0
    return float(np.sum(p[nz] * (np.log(p[nz]) - np.log(q[nz]))))


@dataclass
class EvalResult:
    """Per-test-point scores for one pipeline, plus the fields kept as rasters."""

    label: str
    kl_values: np.ndarray
    argmax_errors_m: np.ndarray
    rasters: dict[int, LikelihoodField] = field(default_factory=dict)
    mean_kl: float = field(init=False)
    mean_argmax_error_m: float = field(init=False)

    def __post_init__(self):
        if np.any(np.asarray(self.kl_values) < -1e-12):
            raise DataError("negative KL value beyond tolerance")
        self.mean_kl = float(np.mean(self.kl_values))
        self.mean_argmax_error_m = float(np.mean(self.argmax_errors_m))


def evaluate(
    pipelines: list[Pipeline],
    test_set: SurveyDataset,
    grid: Grid,
    sigma: float,
    raster_indices: tuple[int, ...] = (),
) -> list[EvalResult]:
    """Score every pipeline on every test measurement.

    For each test row: build the likelihood field, score it by
    KL(ideal || field) against the ideal posterior at the true location,
    and record the distance from the field's argmax cell to the truth.
    The fields of the rows named in raster_indices are kept in each
    result's `rasters`. A package error while scoring a row is re-raised
    as the same class, its message prefixed with the row index.
    """
    if not test_set.normalized:
        raise DataError("test set must be normalized with the training statistics")

    keep = set(raster_indices)
    results = []
    # An overflowing field still raises LikelihoodUnderflowError in
    # from_log; numpy's overflow warning would only print before it.
    with np.errstate(over="ignore", invalid="ignore"):
        for pipeline in pipelines:
            builder = FieldBuilder(pipeline, grid)
            kl_values, errors, rasters = [], [], {}
            for i in range(test_set.n):
                try:
                    fld = builder.field_for(test_set.Z[i])
                    ideal = ideal_posterior(grid, test_set.X[i], sigma)
                except RssAtlasError as exc:
                    raise type(exc)(f"test point {i}: {exc}") from exc
                kl_values.append(kl_divergence(ideal, fld))
                ax, ay = fld.argmax_center()
                errors.append(math.hypot(ax - test_set.X[i, 0], ay - test_set.X[i, 1]))
                if i in keep:
                    rasters[i] = fld
            results.append(
                EvalResult(
                    label=pipeline.label,
                    kl_values=np.array(kl_values),
                    argmax_errors_m=np.array(errors),
                    rasters=rasters,
                )
            )
    return results


def save_field_pgm(fld: LikelihoodField, path) -> None:
    """16-bit ASCII PGM, mass scaled so the peak cell maps to 65535.

    Rows run north to south so the raster displays with y up.
    """
    peak = float(fld.mass.max())
    scaled = np.zeros_like(fld.mass, dtype=np.int64) if peak == 0 else np.rint(
        fld.mass / peak * 65535
    ).astype(np.int64)
    lines = [f"P2\n{fld.grid.width} {fld.grid.height}\n65535\n"]
    for iy in range(fld.grid.height - 1, -1, -1):
        lines.append(" ".join(str(int(v)) for v in scaled[:, iy]) + "\n")
    atomic_write_text(path, "".join(lines))


def save_eval_csv(result: EvalResult, test_set: SurveyDataset, path) -> None:
    """One row per test point plus a trailing summary row."""
    lines = ["index,x,y,kl,argmax_error_m\n"]
    for i in range(test_set.n):
        lines.append(
            f"{i},{float(test_set.X[i, 0])!r},{float(test_set.X[i, 1])!r},"
            f"{float(result.kl_values[i])!r},{float(result.argmax_errors_m[i])!r}\n"
        )
    lines.append(f"mean,,,{result.mean_kl!r},{result.mean_argmax_error_m!r}\n")
    atomic_write_text(path, "".join(lines))
