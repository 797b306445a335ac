"""Survey datasets: CSV I/O, synthetic surveys, normalization and splitting.

A survey pairs robot locations (meters) with received signal strength
readings (dBm), one column per access point. The synthetic generator
stands in for a real site survey: log-distance path loss plus spatially
correlated shadowing, sampled along a configurable trajectory.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .gp_map import _sq_dists

DEFAULT_FLOOR_DBM = -100.0
# Thermal noise in 1 Hz at 290 K: no receiver reports a weaker signal.
MIN_RSS_DBM = -174.0

# ASCII decimal numbers, which covers repr() of every finite float; [0-9]
# because \d also matches non-ASCII digits in a str pattern.
_NUMBER = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def _frozen_array(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SurveyDataset:
    """Paired locations and RSS readings.

    X is n x 2 (meters), Z is n x m (dBm, or normalized units once
    `normalized` is set). ap_ids labels the m columns. Instances are
    immutable; the arrays are marked read-only.
    """

    X: np.ndarray
    Z: np.ndarray
    ap_ids: tuple[str, ...]
    normalized: bool = False

    def __post_init__(self):
        X = _frozen_array(self.X)
        Z = _frozen_array(self.Z)
        if X.ndim != 2 or X.shape[1] != 2:
            raise DataError(f"X must be n x 2, got shape {X.shape}")
        if Z.ndim != 2:
            raise DataError(f"Z must be a matrix, got shape {Z.shape}")
        if X.shape[0] != Z.shape[0]:
            raise DataError(
                f"row count mismatch: {X.shape[0]} locations vs {Z.shape[0]} readings"
            )
        if X.shape[0] < 1 or Z.shape[1] < 1:
            raise DataError("dataset needs at least one row and one access point")
        ap_ids = tuple(str(a) for a in self.ap_ids)
        if len(ap_ids) != Z.shape[1]:
            raise DataError(f"{len(ap_ids)} ap_ids for {Z.shape[1]} columns")
        if len(set(ap_ids)) != len(ap_ids):
            raise DataError("duplicate access point ids")
        if not np.all(np.isfinite(X)):
            raise DataError("non-finite location coordinates")
        if not np.all(np.isfinite(Z)):
            raise DataError("non-finite RSS values")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "ap_ids", ap_ids)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def m(self) -> int:
        return self.Z.shape[1]


@dataclass(frozen=True)
class NormalizationStats:
    """Per-AP standardization parameters, invertible exactly.

    constant_aps flags columns whose observed spread was zero; their std
    is recorded as 1 so the transform stays invertible.
    """

    per_ap_mean: np.ndarray
    per_ap_std: np.ndarray
    constant_aps: tuple[int, ...] = ()

    def __post_init__(self):
        mean = _frozen_array(self.per_ap_mean)
        std = _frozen_array(self.per_ap_std)
        if mean.shape != std.shape or mean.ndim != 1:
            raise DataError("mean/std must be vectors of equal length")
        if np.any(std <= 0):
            raise DataError("std entries must be strictly positive")
        object.__setattr__(self, "per_ap_mean", mean)
        object.__setattr__(self, "per_ap_std", std)
        object.__setattr__(self, "constant_aps", tuple(int(i) for i in self.constant_aps))


def _default_waypoints() -> tuple[tuple[float, float], ...]:
    return serpentine_waypoints((240.0, 140.0), margin_m=15.0, pass_gap_m=28.0)


@dataclass(frozen=True)
class SynthEnvConfig:
    """Synthetic survey environment.

    RSS at distance d from an AP transmitting at tx_power_dbm follows
    tx - 10 * gamma * log10(max(d, d_ref) / d_ref) plus zero-mean Gaussian
    shadowing with spatial correlation exp(-|xp - xq|^2 / lambda_c^2),
    clamped to [floor_dbm, 0] dBm. Samples are taken along the waypoint
    polyline every sample_spacing_m meters.

    The defaults describe an outdoor campus-scale survey: 91 APs over a
    240 x 140 m area, a serpentine drive of ~600 samples, and short-range
    multipath texture (correlation length 1 m) that behaves like
    measurement noise at the 1.55 m sample spacing.
    """

    area: tuple[float, float] = (240.0, 140.0)
    n_aps: int = 91
    tx_power_dbm: float = -30.0
    path_loss_exponent: float = 2.0
    reference_distance_m: float = 1.0
    shadowing_std_dbm: float = 3.0
    shadowing_correlation_length_m: float = 1.0
    floor_dbm: float = DEFAULT_FLOOR_DBM
    waypoints: tuple[tuple[float, float], ...] = field(default_factory=_default_waypoints)
    sample_spacing_m: float = 1.55

    def validate(self) -> None:
        w, h = self.area
        if w <= 0 or h <= 0:
            raise ConfigError(f"area sides must be positive, got {self.area}")
        if self.n_aps < 1:
            raise ConfigError("n_aps must be >= 1")
        if not 1.5 <= self.path_loss_exponent <= 6.0:
            raise ConfigError(
                f"path_loss_exponent must lie in [1.5, 6], got {self.path_loss_exponent}"
            )
        if self.reference_distance_m <= 0:
            raise ConfigError("reference_distance_m must be positive")
        if self.shadowing_std_dbm < 0:
            raise ConfigError("shadowing_std_dbm must be >= 0")
        if self.shadowing_correlation_length_m <= 0:
            raise ConfigError("shadowing_correlation_length_m must be positive")
        if not self.tx_power_dbm <= 0.0:
            raise ConfigError(
                f"tx_power_dbm must be at most 0 dBm, got {self.tx_power_dbm}"
            )
        if self.floor_dbm >= self.tx_power_dbm:
            raise ConfigError("floor_dbm must be below tx_power_dbm")
        if not self.floor_dbm >= MIN_RSS_DBM:
            raise ConfigError(f"floor_dbm must be at least {MIN_RSS_DBM:g} dBm")
        if len(self.waypoints) < 1:
            raise ConfigError("trajectory needs at least one waypoint")
        if self.sample_spacing_m <= 0:
            raise ConfigError("sample_spacing_m must be positive")


def serpentine_waypoints(
    area: tuple[float, float], margin_m: float = 10.0, pass_gap_m: float = 25.0
) -> tuple[tuple[float, float], ...]:
    """Boustrophedon sweep of the area, the usual survey drive pattern."""
    w, h = area
    x_lo, x_hi = margin_m, w - margin_m
    if x_lo >= x_hi or margin_m >= h - margin_m:
        raise ConfigError("margin too large for area")
    ys = np.arange(margin_m, h - margin_m + 1e-9, pass_gap_m)
    pts: list[tuple[float, float]] = []
    for i, y in enumerate(ys):
        if i % 2 == 0:
            pts += [(x_lo, float(y)), (x_hi, float(y))]
        else:
            pts += [(x_hi, float(y)), (x_lo, float(y))]
    return tuple(pts)


def trajectory_points(
    waypoints: tuple[tuple[float, float], ...], spacing_m: float
) -> np.ndarray:
    """Sample the waypoint polyline at fixed arc-length steps.

    Returns the points at distances 0, s, 2s, ... along the path,
    always including the start. A single waypoint yields one sample.
    """
    wp = np.asarray(waypoints, dtype=float)
    if wp.ndim != 2 or wp.shape[1] != 2:
        raise ConfigError("waypoints must be (x, y) pairs")
    if wp.shape[0] == 1:
        return wp.copy()
    seg = np.diff(wp, axis=0)
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    total = cum[-1]
    if total == 0.0:
        return wp[:1].copy()
    targets = np.arange(0.0, total + 1e-12, spacing_m)
    pts = np.empty((targets.size, 2))
    idx = np.minimum(np.searchsorted(cum, targets, side="right") - 1, len(seg_len) - 1)
    for k, (s, i) in enumerate(zip(targets, idx)):
        frac = (s - cum[i]) / seg_len[i] if seg_len[i] > 0 else 0.0
        pts[k] = wp[i] + frac * seg[i]
    return pts


def ap_positions(config: SynthEnvConfig, seed: int) -> np.ndarray:
    """Access point layout used by synthesize for the same config and seed.

    synthesize draws these positions first from its generator, so this
    helper reproduces them exactly.
    """
    config.validate()
    rng = np.random.default_rng(seed)
    w, h = config.area
    return rng.uniform(low=[0.0, 0.0], high=[w, h], size=(config.n_aps, 2))


def path_loss_dbm(config: SynthEnvConfig, distance_m: np.ndarray) -> np.ndarray:
    """Deterministic log-distance RSS before shadowing and clamping."""
    d = np.maximum(np.asarray(distance_m, dtype=float), config.reference_distance_m)
    return config.tx_power_dbm - 10.0 * config.path_loss_exponent * np.log10(
        d / config.reference_distance_m
    )


def synthesize(config: SynthEnvConfig, seed: int) -> SurveyDataset:
    """Generate a survey dataset; a pure function of (config, seed).

    Draw order is fixed: AP positions first, then one standard normal
    vector per AP for the correlated shadowing field.
    """
    config.validate()
    rng = np.random.default_rng(seed)
    w, h = config.area
    aps = rng.uniform(low=[0.0, 0.0], high=[w, h], size=(config.n_aps, 2))

    X = trajectory_points(config.waypoints, config.sample_spacing_m)
    n = X.shape[0]

    dist = np.sqrt(_sq_dists(X, aps))
    Z = path_loss_dbm(config, dist)

    if config.shadowing_std_dbm > 0:
        # One Cholesky factor serves every AP: the correlation depends only
        # on sample locations, shadowing draws are independent per AP.
        d2 = _sq_dists(X, X)
        corr = np.exp(-d2 / config.shadowing_correlation_length_m**2)
        corr[np.diag_indices(n)] += 1e-10
        chol = np.linalg.cholesky(corr)
        gauss = rng.standard_normal((n, config.n_aps))
        Z = Z + config.shadowing_std_dbm * (chol @ gauss)

    # Shadowing can lift a reading near an AP above tx_power_dbm; load_csv
    # refuses RSS above 0 dBm, so the survey stops there.
    Z = np.clip(Z, config.floor_dbm, 0.0)
    ids = tuple(f"ap{j:03d}" for j in range(config.n_aps))
    return SurveyDataset(X=X, Z=Z, ap_ids=ids)


def load_csv(path, floor_dbm: float = DEFAULT_FLOOR_DBM) -> SurveyDataset:
    """Read a survey CSV: header ``x,y,<ap ids>``, empty cell = not heard.

    Missing readings are filled with floor_dbm. Every other cell must be
    an ASCII decimal number (sign, digits, optional fraction and exponent;
    no `_`, `nan`, `inf` or non-ASCII digits), and an RSS reading must lie
    in [MIN_RSS_DBM, 0] dBm. Parse failures name the offending 1-based
    line number.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read survey CSV: {exc}") from None
    if not lines:
        raise DataError(f"{path}: empty file")
    header = [c.strip() for c in lines[0].split(",")]
    if len(header) < 3 or header[0] != "x" or header[1] != "y":
        raise DataError(f"{path}: line 1: header must be x,y,<ap_id_1>,...")
    ids = header[2:]
    if len(set(ids)) != len(ids):
        raise DataError(f"{path}: line 1: duplicate access point ids")
    ncols = len(header)

    rows_x, rows_z = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != ncols:
            raise DataError(
                f"{path}: line {lineno}: expected {ncols} columns, found {len(cells)}"
            )
        cells = [c.strip() for c in cells]
        if not (_NUMBER.fullmatch(cells[0]) and _NUMBER.fullmatch(cells[1])):
            raise DataError(f"{path}: line {lineno}: non-numeric coordinate")
        x, y = float(cells[0]), float(cells[1])
        z = np.empty(len(ids))
        for j, cell in enumerate(cells[2:]):
            if cell == "":
                z[j] = floor_dbm
            elif _NUMBER.fullmatch(cell):
                z[j] = float(cell)
            else:
                raise DataError(
                    f"{path}: line {lineno}: non-numeric RSS cell {header[2 + j]!r}"
                )
        if not (math.isfinite(x) and math.isfinite(y)) or not np.all(np.isfinite(z)):
            raise DataError(f"{path}: line {lineno}: non-finite value")
        if np.any(z > 0):
            raise DataError(f"{path}: line {lineno}: RSS above 0 dBm is not physical")
        if np.any(z < MIN_RSS_DBM):
            raise DataError(
                f"{path}: line {lineno}: RSS below {MIN_RSS_DBM:g} dBm is not physical"
            )
        rows_x.append((x, y))
        rows_z.append(z)
    if not rows_x:
        raise DataError(f"{path}: no data rows")
    return SurveyDataset(
        X=np.array(rows_x), Z=np.array(rows_z), ap_ids=tuple(ids)
    )


def atomic_write_text(path, text: str) -> None:
    """Write via a per-process temp file in the same directory, then rename.

    A failed write removes the temp file, so the target is left either as
    it was or with the complete new text. The temp file is fsync'd before
    the rename and the directory after it, so after a power loss the
    target holds the old or the new text, never an empty file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise DataError(f"output directory does not exist: {directory}")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_csv(ds: SurveyDataset, path) -> None:
    """Write the CSV schema read by load_csv. repr floats round-trip exactly."""
    lines = ["x,y," + ",".join(ds.ap_ids)]
    for i in range(ds.n):
        cells = [repr(float(ds.X[i, 0])), repr(float(ds.X[i, 1]))]
        cells += [repr(float(v)) for v in ds.Z[i]]
        lines.append(",".join(cells))
    atomic_write_text(path, "\n".join(lines) + "\n")


def normalize(ds: SurveyDataset) -> tuple[SurveyDataset, NormalizationStats]:
    """Standardize each AP column to mean 0, std 1 (population std).

    Constant columns get std 1 and are flagged in the returned stats.
    """
    if ds.normalized:
        raise DataError("dataset is already normalized")
    mean = ds.Z.mean(axis=0)
    std = ds.Z.std(axis=0)
    constant = tuple(int(j) for j in np.nonzero(std == 0.0)[0])
    std = np.where(std == 0.0, 1.0, std)
    Z = (ds.Z - mean) / std
    out = SurveyDataset(X=ds.X, Z=Z, ap_ids=ds.ap_ids, normalized=True)
    return out, NormalizationStats(per_ap_mean=mean, per_ap_std=std, constant_aps=constant)


def denormalize(ds: SurveyDataset, stats: NormalizationStats) -> SurveyDataset:
    if not ds.normalized:
        raise DataError("dataset is not normalized")
    Z = ds.Z * stats.per_ap_std + stats.per_ap_mean
    return SurveyDataset(X=ds.X, Z=Z, ap_ids=ds.ap_ids, normalized=False)


def apply_normalization(ds: SurveyDataset, stats: NormalizationStats) -> SurveyDataset:
    """Standardize with previously fitted stats (for held-out data)."""
    if ds.normalized:
        raise DataError("dataset is already normalized")
    Z = (ds.Z - stats.per_ap_mean) / stats.per_ap_std
    return SurveyDataset(X=ds.X, Z=Z, ap_ids=ds.ap_ids, normalized=True)


def split(
    ds: SurveyDataset, test_fraction: float, seed: int, mode: str = "random"
) -> tuple[SurveyDataset, SurveyDataset]:
    """Partition rows into train/test.

    random mode shuffles with the seed; block mode takes the trailing
    rows, mimicking a separate second survey run. Test size is
    floor(n * test_fraction); an empty side is an error.
    """
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    if ds.n < 2:
        raise DataError("need at least 2 rows to split")
    n_test = int(math.floor(ds.n * test_fraction))
    if n_test == 0 or n_test == ds.n:
        raise DataError(
            f"test_fraction {test_fraction} yields an empty partition for n={ds.n}"
        )
    if mode == "random":
        perm = np.random.default_rng(seed).permutation(ds.n)
        test_idx = np.sort(perm[:n_test])
        train_idx = np.sort(perm[n_test:])
    elif mode == "block":
        train_idx = np.arange(0, ds.n - n_test)
        test_idx = np.arange(ds.n - n_test, ds.n)
    else:
        raise ConfigError(f"unknown split mode {mode!r}")
    mk = lambda idx: SurveyDataset(
        X=ds.X[idx], Z=ds.Z[idx], ap_ids=ds.ap_ids, normalized=ds.normalized
    )
    return mk(train_idx), mk(test_idx)
