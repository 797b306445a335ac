"""Grid likelihood fields from signal maps, and KL scoring against an ideal.

A pipeline couples a compressor (identity, PCA, or autoencoder) with a
GP map fitted on the compressor's standardized output space. For a new
measurement the per-cell likelihood is a product of per-latent-dimension
Gaussian densities sharing the GP's scalar predictive variance; fields
are computed in log space and normalized with log-sum-exp.

`evaluate` scores a test set _POINTS measurements at a time, in log
space: one product with the means table per block gives the block's log
likelihoods, and each row's KL against the ideal posterior comes from its
normalized log values and the ideal's separable x and y marginals, with
no LikelihoodField built. Only the rows kept as rasters are built as
fields, through FieldBuilder.field_for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import autoencoder as ae
from . import gp_map
from . import pca as pca_mod
from .dataset import SurveyDataset, atomic_write_text, write_csv
from .errors import ConfigError, DataError, LikelihoodUnderflowError, RssAtlasError, check_array_size

LOG_2PI = math.log(2.0 * math.pi)
_Q_FLOOR = 1e-300
_LOG_Q_FLOOR = math.log(_Q_FLOOR)
_LOG_MASS_CLAMP = -746.0  # exp(-746.0) is 0.0, as exp of anything below it
_POINTS = 8  # test points scored per block: one product with the means table each
_UNNORMALIZABLE = "every cell's log likelihood is non-finite; field cannot be normalized"


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
        check_array_size("the grid", self.width, self.height)

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
            raise LikelihoodUnderflowError(_UNNORMALIZABLE)
        mass = lv - peak
        # exp is exactly 0.0 below about -745.13 either way; the clamp keeps
        # very negative arguments off exp's slow path.
        np.maximum(mass, _LOG_MASS_CLAMP, out=mass)
        np.exp(mass, out=mass)
        mass /= float(mass.sum())
        # exp/sum rounding can leave the total a few ulp off 1.
        mass /= float(mass.sum())
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
        self.latent_dim = model.latent_dim

    def encode(self, Z: np.ndarray) -> np.ndarray:
        return pca_mod.transform(self.model, Z)


class AutoencoderCompressor:
    def __init__(self, params: ae.AutoencoderParams):
        self.params = params
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
        d = self.gp.output_dim
        for name in ("latent_mean", "latent_std"):
            if getattr(self, name).shape != (d,):
                raise ConfigError(f"{name} has shape {getattr(self, name).shape}, expected ({d},)")

    def encode(self, Z: np.ndarray) -> np.ndarray:
        """Measurements to standardized latent coordinates."""
        return (self.compressor.encode(Z) - self.latent_mean) / self.latent_std


class FieldBuilder:
    """Precomputed per-cell GP predictions for one pipeline on one grid.

    The predictions depend only on the grid and the pipeline, so building
    fields for many measurements reuses them. `gp_map.predict_rows`
    predicts the cells in x-major order, each chunk's squared distances
    added from two axis tables, dx^2 (width x n) and dy^2 (height x n), and
    returns the means and variances tables the builder keeps; the squared
    means are then summed a chunk at a time. (b - a)^2 rounds exactly as
    (a - b)^2, so the tables equal predict_batch at cell_centers() bit for
    bit, and beyond them and the axis tables a builder holds only what
    `predict_rows` holds.
    """

    def __init__(self, pipeline: Pipeline, grid: Grid):
        self.pipeline = pipeline
        self.grid = grid
        gp = pipeline.gp
        xs, ys = grid.axis_centers()
        dx2 = xs[:, None] - gp.X_train[None, :, 0]
        dx2 *= dx2
        dy2 = ys[:, None] - gp.X_train[None, :, 1]
        dy2 *= dy2
        # Allocated before predict_rows makes the factor, as the means table
        # is: allocated after it, compare's peak RSS rose 0.4 MB (heap layout).
        self._mean_sq = np.empty(grid.n_cells)
        self._means, self._variances = gp_map.predict_rows(
            gp, grid.n_cells, partial(_cell_sq_dists, dx2, dy2)
        )
        for start in range(0, grid.n_cells, gp_map._ROWS):
            means = self._means[start : start + gp_map._ROWS]
            np.sum(means * means, axis=1, out=self._mean_sq[start : start + gp_map._ROWS])
        self._log_norm = -0.5 * gp.output_dim * (LOG_2PI + np.log(self._variances))

    def log_likelihoods(self, Z) -> np.ndarray:
        """Per-cell log of the product of per-dimension densities.

        A k x m block of measurements gives k x cells, one measurement
        (m,) gives cells. A one-row product equals the matrix-vector
        product bit for bit, so a single measurement's values do not
        depend on which form it came in.
        """
        F = self.pipeline.encode(np.asarray(Z, dtype=float))
        rows = np.atleast_2d(F)
        # |m - f|^2 expanded so a block's work is one product with the means
        # table; then log_norm - 0.5 * |m - f|^2 / variance, all in the
        # product's buffer. Each row's f.f is its own dot product.
        out = rows @ self._means.T
        out *= 2.0
        np.subtract(self._mean_sq, out, out=out)
        out += (rows[:, None, :] @ rows[:, :, None])[:, 0]
        np.maximum(out, 0.0, out=out)
        out *= 0.5
        out /= self._variances
        np.subtract(self._log_norm, out, out=out)
        return out if F.ndim == 2 else out[0]

    def field_for(self, z) -> LikelihoodField:
        return LikelihoodField.from_log(self.grid, self.log_likelihoods(z))


def _cell_sq_dists(dx2: np.ndarray, dy2: np.ndarray, start: int, stop: int, D: np.ndarray) -> None:
    """Squared distances of cells start..stop-1 (x-major) to the training points, into D.

    One row per cell: dx2[ix] + dy2[iy], added one grid column at a time.
    """
    height = dy2.shape[0]
    for ix in range(start // height, (stop - 1) // height + 1):
        lo, hi = max(start, ix * height), min(stop, (ix + 1) * height)
        np.add(dx2[ix], dy2[lo - ix * height : hi - ix * height], out=D[lo - start : hi - start])


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

    Each test row is scored by KL(ideal || field) against the ideal
    posterior at its true location, and by the distance from the field's
    argmax cell to the truth. The rows are scored _POINTS at a time, in
    log space, from one FieldBuilder.log_likelihoods block: per row,
    log q = lv - peak - log sum exp(lv - peak), floored at log 1e-300 as
    kl_divergence floors q. The ideal is computed once per test row for
    all pipelines, as its normalized x and y marginals p_x and p_y, so
    KL = sum p log p - p_x^T (log Q) p_y and no field is built to score a
    row. The rows named in raster_indices are built as fields through
    FieldBuilder.field_for, as a query is, and kept in each result's
    `rasters`. A package error while scoring a pipeline is re-raised as
    the same class, its message prefixed with the pipeline's label and,
    for a test row, the row index.
    """
    if not test_set.normalized:
        raise DataError("test set must be normalized with the training statistics")

    ideal = _ideal_marginals(grid, test_set.X, sigma)
    keep = sorted(set(raster_indices))
    results = []
    # An overflowing row still raises LikelihoodUnderflowError at its
    # non-finite peak; numpy's overflow warning would only print before it.
    with np.errstate(over="ignore", invalid="ignore"):
        for pipeline in pipelines:
            try:
                results.append(_score_pipeline(pipeline, test_set, grid, ideal, keep))
            except RssAtlasError as exc:
                raise type(exc)(f"pipeline {pipeline.label}: {exc}") from exc
    return results


def _ideal_marginals(grid: Grid, X: np.ndarray, sigma: float):
    """ideal_posterior of every row of X in separable form: (p_x, p_y, sum p log p).

    The ideal's mass is the outer product of its normalized marginals,
    p_x (n x width) and p_y (n x height), so per row
    sum p log p = sum p_x log p_x + sum p_y log p_y, zero cells skipped.
    """
    if sigma <= 0:
        raise ConfigError("sigma must be positive")
    marginals, p_log_p = [], np.zeros(len(X))
    for centers, coords in zip(grid.axis_centers(), np.asarray(X, dtype=float).T):
        mass = centers[None, :] - coords[:, None]
        mass *= mass
        mass /= -2.0 * sigma * sigma
        mass -= mass.max(axis=1, keepdims=True)
        np.exp(mass, out=mass)
        mass /= mass.sum(axis=1, keepdims=True)
        p_log_p += np.sum(mass * np.log(np.where(mass > 0.0, mass, 1.0)), axis=1)
        marginals.append(mass)
    return marginals[0], marginals[1], p_log_p


def _score_pipeline(
    pipeline: Pipeline, test_set: SurveyDataset, grid: Grid, ideal, keep: list[int]
) -> EvalResult:
    """One pipeline's EvalResult; its FieldBuilder is freed on return."""
    builder = FieldBuilder(pipeline, grid)
    px, py, p_log_p = ideal
    cross = np.empty(test_set.n)
    cells = np.empty(test_set.n, dtype=np.intp)
    for start in range(0, test_set.n, _POINTS):
        rows = slice(start, start + _POINTS)
        cross[rows], cells[rows] = _score_block(builder, start, test_set.Z[rows], px[rows], py[rows])
    errors = []
    for i, cell in enumerate(cells):
        ax, ay = grid.cell_center(*divmod(int(cell), grid.height))
        errors.append(math.hypot(ax - test_set.X[i, 0], ay - test_set.X[i, 1]))
    return EvalResult(
        label=pipeline.label,
        kl_values=p_log_p - cross,
        argmax_errors_m=np.array(errors),
        rasters={i: builder.field_for(test_set.Z[i]) for i in keep},
    )


def _score_block(
    builder: FieldBuilder, start: int, Z: np.ndarray, px: np.ndarray, py: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """p_x^T (log Q) p_y and the argmax cell of each row of Z (test points start, ...).

    Holds the block's log values, turned into log q in place, and one row
    of unnormalized mass.
    """
    try:
        lv = builder.log_likelihoods(Z)
    except RssAtlasError as exc:
        raise type(exc)(f"test point {start}: {exc}") from exc
    peak = lv.max(axis=1)
    bad = np.flatnonzero(~np.isfinite(peak))
    if bad.size:
        raise LikelihoodUnderflowError(f"test point {start + int(bad[0])}: {_UNNORMALIZABLE}")
    lv -= peak[:, None]
    cells = np.empty(len(lv), dtype=np.intp)
    mass = np.empty(lv.shape[1])
    for r, row in enumerate(lv):
        # from_log's clamped exp: its sum is the normalizer, its largest
        # cell the field's argmax.
        np.maximum(row, _LOG_MASS_CLAMP, out=mass)
        np.exp(mass, out=mass)
        cells[r] = mass.argmax()
        row -= np.log(mass.sum())
    np.maximum(lv, _LOG_Q_FLOOR, out=lv)
    log_q = lv.reshape(-1, builder.grid.width, builder.grid.height)
    cross = (px[:, None, :] @ (log_q @ py[:, :, None]))[:, 0, 0]
    return cross, cells


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
    rows = [
        [i, *test_set.X[i], result.kl_values[i], result.argmax_errors_m[i]]
        for i in range(test_set.n)
    ]
    rows.append(["mean", None, None, result.mean_kl, result.mean_argmax_error_m])
    write_csv(path, ["index", "x", "y", "kl", "argmax_error_m"], rows)
