"""Multi-output Gaussian process regression from 2-D locations to signal vectors.

One isotropic RBF kernel and one noise level are shared by all output
dimensions, so a fitted map predicts a d-vector mean and a single scalar
variance per query point. A map is its stored data: training locations,
hyperparameters and the n x d targets Y. A prediction makes the Gram
matrix's Cholesky factor L and V = L^-1 Y from them, and with S = L^-1 k*
the mean is S^T V and the variance the prior minus |S|^2 (GPML
Algorithm 2.1); neither the Gram matrix's inverse nor a back-substitution
is ever formed.

Unit-kernel entries exp(-d/l^2) below _KERNEL_FLOOR = 1e-100, i.e. at
distances beyond 15.2 l, are stored as exact zeros. Each is about 84
orders of magnitude below double epsilon: on every survey tested no
evidence, mean or variance changes by a bit, only the Cholesky factor's
tiny fill-in does.
Left in, such entries make the factorization and the triangular solves
multiply numbers near the underflow threshold, which on the Xeon it was
measured on takes a slow microcode path per multiply: at l = 2 m the grid
predict's solve ran 4x slower than at l = 20 m for the same flop count.
The exponent is clamped at _EXP_CLAMP = -240 before exp, whose result there
(6.6e-105) is floored as well, so the clamp changes no entry; it only keeps
exp off arguments far below -745, where it is several times slower.
rbf_kernel, the scalar oracle, keeps the untruncated formula.

Every triangular solve is one blocked forward substitution, `_solve_rows`,
built on numpy's own matrix product: the factor's diagonal blocks of
_SOLVE_BLOCK columns are inverted once per factor (`block_inverses`), and
each block of the solution is one product into a preallocated panel and
one product by that block's inverse. The right-hand sides are the rows of
a C-order array, solved in place. So the package needs no LAPACK solve
beyond numpy's, and loads one BLAS.

Every prediction is `predict_rows`: the query points _ROWS = 256 at a
time from row 0, one C-order row each in one reused _ROWS x n buffer, in
which the kernel is formed and the solve runs in place. `predict_batch`
and the grid precompute cut the same chunks, so they issue the same
products on the same rows and agree bit for bit at any BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, GpFitError, check_numbers

_JITTER_SCALE = 1e-8
_VARIANCE_FLOOR = 1e-12
_KERNEL_FLOOR = 1e-100
_EXP_CLAMP = -240.0  # exp(_EXP_CLAMP) < _KERNEL_FLOOR
_SOLVE_BLOCK = 32  # columns of the factor per block of the triangular solves
_ROWS = 256  # query points per chunk of every prediction


@dataclass(frozen=True)
class GpHyperparams:
    """Kernel and noise hyperparameters in the output's squared units."""

    signal_variance: float = field(metadata={"gt": 0})
    length_scale: float = field(metadata={"gt": 0})
    noise_variance: float = field(default=0.0, metadata={"ge": 0})

    def __post_init__(self):
        check_numbers(self)


@dataclass(frozen=True)
class GpModel:
    """Fitted map: training locations, hyperparameters and the n x d targets Y.

    Nothing solved is stored: `predict_rows` makes the factor of
    K + sn2*I (`cholesky_factor`) and L^-1 Y from these fields.
    """

    X_train: np.ndarray
    hyperparams: GpHyperparams
    Y: np.ndarray

    def __post_init__(self):
        _check_rows(self.X_train, self.Y, "Y")

    @property
    def n(self) -> int:
        return self.X_train.shape[0]

    @property
    def output_dim(self) -> int:
        return self.Y.shape[1]


def rbf_kernel(x_p, x_q, hp: GpHyperparams) -> float:
    """Squared exponential covariance between two locations."""
    d = np.asarray(x_p, dtype=float) - np.asarray(x_q, dtype=float)
    return float(hp.signal_variance * np.exp(-float(d @ d) / hp.length_scale**2))


def _sq_dists(A: np.ndarray, B: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Squared distances between the rows of two 2-D location sets (n x k),
    written into `out` when it is given.

    Differences, not the expanded |a|^2+|b|^2-2ab form: exact symmetry and
    no cancellation for nearby points. Summed one axis at a time, in place,
    so no n x k x 2 temporary is built; dx*dx + dy*dy rounds exactly as a
    sum over the coordinate axis does.
    """
    D = np.subtract(A[:, 0, None], B[None, :, 0], out=out)
    D *= D
    dy = A[:, 1, None] - B[None, :, 1]
    dy *= dy
    D += dy
    return D


def _exp_kernel(D: np.ndarray, length_scale: float) -> np.ndarray:
    """exp(-d/l^2) in place over squared distances D: the kernel at signal variance 1.

    -d/l^2 rounds the same as d/(-l^2). Exponents below _EXP_CLAMP are
    raised to it, and entries below _KERNEL_FLOOR are set to exactly 0,
    so a clamped exponent gives the 0 its own exp would (see the module
    docstring).
    """
    D /= -(length_scale**2)
    np.maximum(D, _EXP_CLAMP, out=D)
    np.exp(D, out=D)
    np.copyto(D, 0.0, where=D < _KERNEL_FLOOR)
    return D


def _unit_kernel(A: np.ndarray, B: np.ndarray, length_scale: float) -> np.ndarray:
    """The unit kernel between two location sets (n x k)."""
    return _exp_kernel(_sq_dists(A, B), length_scale)


def kernel_matrix(A: np.ndarray, B: np.ndarray, hp: GpHyperparams) -> np.ndarray:
    """Cross-covariance matrix between two location sets (no noise term)."""
    K = _unit_kernel(A, B, hp.length_scale)
    K *= hp.signal_variance
    return K


def _gram(unit: np.ndarray, hp: GpHyperparams, out: np.ndarray | None = None) -> np.ndarray:
    """s2 * unit + sn2 * I from an n x n unit kernel, written into `out` when given.

    Every Gram matrix, the search's included, is built here from `_unit_kernel`.
    """
    G = np.multiply(unit, hp.signal_variance, out=out)
    G[np.diag_indices(G.shape[0])] += hp.noise_variance
    return G


def gram_matrix(X: np.ndarray, hp: GpHyperparams) -> np.ndarray:
    """Training covariance: kernel matrix plus noise variance on the diagonal."""
    X = np.asarray(X, dtype=float)
    unit = _unit_kernel(X, X, hp.length_scale)
    return _gram(unit, hp, out=unit)


def _cholesky_with_jitter(K: np.ndarray, hp: GpHyperparams) -> np.ndarray:
    """Lower Cholesky factor of K, retried once with jitter on the diagonal.

    The retry adds the jitter to K's diagonal in place (K is overwritten),
    which rounds exactly as K + jitter * I does without two more n x n arrays.
    Every factor is made here, with np.linalg.cholesky, so the search and
    every prediction solve with the same bits of the same factor.
    """
    try:
        return np.linalg.cholesky(K)
    except np.linalg.LinAlgError:
        pass
    jitter = _JITTER_SCALE * hp.signal_variance
    K[np.diag_indices(K.shape[0])] += jitter
    try:
        return np.linalg.cholesky(K)
    except np.linalg.LinAlgError:
        raise GpFitError(
            "covariance matrix is not positive definite even with jitter "
            f"{jitter:g}; increase noise_variance or drop duplicate locations"
        ) from None


def _check_rows(X: np.ndarray, Y: np.ndarray, name: str) -> None:
    """X is finite n x 2 and Y (called `name`) finite n x d; anything else is a DataError."""
    if X.ndim != 2 or X.shape[1] != 2:
        raise DataError(f"X must be n x 2, got {X.shape}")
    if Y.ndim != 2 or Y.shape[0] != X.shape[0]:
        raise DataError(f"X has {X.shape[0]} rows but {name} has shape {Y.shape}")
    for array, label in ((X, "X"), (Y, name)):
        if not np.isfinite(array).all():
            raise DataError(f"{label} has a non-finite entry")


def _targets(X: np.ndarray, Y, name: str = "Y") -> np.ndarray:
    """Y as an n x d float array for the n x 2 locations X (see _check_rows)."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    _check_rows(X, Y, name)
    return Y


def block_inverses(L: np.ndarray) -> np.ndarray:
    """Inverses of the lower factor L's diagonal blocks of _SOLVE_BLOCK columns.

    Returned as one (blocks, _SOLVE_BLOCK, _SOLVE_BLOCK) array. A last block
    narrower than _SOLVE_BLOCK is padded with the identity, so its inverse
    is the leading corner of its entry. All blocks are inverted together by
    row-wise substitution: _SOLVE_BLOCK batched products per factor, and
    every inverse exactly lower triangular.
    """
    n, b = L.shape[0], _SOLVE_BLOCK
    diag = np.zeros((-(-n // b), b, b))
    for j, s in enumerate(range(0, n, b)):
        w = min(b, n - s)
        diag[j, :w, :w] = L[s : s + w, s : s + w]
        diag[j, range(w, b), range(w, b)] = 1.0
    inv = np.zeros_like(diag)
    for i in range(b):
        row = np.matmul(diag[:, i, None, :i], inv[:, :i, : i + 1])[:, 0]
        np.negative(row, out=row)
        row[:, i] += 1.0
        row /= diag[:, i, i, None]
        inv[:, i, : i + 1] = row
    return inv


def _solve_rows(L: np.ndarray, inverses: np.ndarray, B: np.ndarray) -> None:
    """Solve L x = b for every row b of B, in place.

    B is a C-order k x n array and `inverses` is `block_inverses(L)`. Block
    J of every row, from the first, is solved as (b_J - the solved blocks
    times L's part) times the inverse of L's block J. Each is two matrix
    products over all k rows: the first into one k x _SOLVE_BLOCK panel,
    the second straight into B's columns. A row is only ever combined with
    itself, so a NaN row leaves every other row as it is.
    """
    k, n, b = B.shape[0], L.shape[0], _SOLVE_BLOCK
    panel = np.empty(k * min(b, n))
    for j, s in enumerate(range(0, n, b)):
        e = min(s + b, n)
        # C order for a narrow last block too: numpy buffers a strided
        # output of the subtraction, at 3x the strided input's buffer.
        p = panel[: k * (e - s)].reshape(k, e - s)
        np.matmul(B[:, :s], L[s:e, :s].T, out=p)  # zeros for the first block
        np.subtract(B[:, s:e], p, out=p)
        np.matmul(p, inverses[j, : e - s, : e - s].T, out=B[:, s:e])


def _whiten(L: np.ndarray, inverses: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """V = L^-1 Y for n x d targets Y, returned as its d x n C-order rows."""
    V = np.array(Y.T, order="C")
    _solve_rows(L, inverses, V)
    return V


def _evidence(V: np.ndarray, L: np.ndarray) -> float:
    """Log evidence of n x d targets Y, summed over columns, from `_whiten`'s V and L.

    Y^T (L L^T)^-1 Y = V^T V, so the data term needs the forward solve only.
    """
    d, n = V.shape
    data_term = -0.5 * float(np.sum(V * V))
    logdet_term = -d * float(np.sum(np.log(np.diag(L))))
    return data_term + logdet_term - 0.5 * n * d * math.log(2.0 * math.pi)


def fit(X: np.ndarray, Y: np.ndarray, hp: GpHyperparams) -> GpModel:
    """The map of targets Y at locations X under hp, checked by the model.

    Nothing is factored here: a Gram matrix that cannot be factored fails
    where the map first predicts.
    """
    X = np.asarray(X, dtype=float)
    return GpModel(X_train=X, hyperparams=hp, Y=_targets(X, Y))


def cholesky_factor(model: GpModel) -> np.ndarray:
    """Lower Cholesky factor of the map's Gram matrix, made as the search makes it.

    A single retry with jitter 1e-8 * signal_variance is attempted when
    the plain factorization fails; a second failure is a GpFitError.
    """
    hp = model.hyperparams
    return _cholesky_with_jitter(gram_matrix(model.X_train, hp), hp)


def predict(model: GpModel, x_star) -> tuple[np.ndarray, float]:
    """Predictive mean vector and shared scalar variance at one location."""
    means, variances = predict_batch(model, np.asarray(x_star, dtype=float)[None, :])
    return means[0], float(variances[0])


def predict_batch(model: GpModel, X_star: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized predict over k query locations: (k x d means, k variances).

    `predict_rows` with each chunk's squared distances from `_sq_dists`.
    """
    X_star = np.asarray(X_star, dtype=float)
    k = X_star.shape[0]
    means = np.empty((k, model.output_dim))
    variances = predict_rows(
        model, k, lambda start, stop, D: _sq_dists(X_star[start:stop], model.X_train, out=D), means
    )
    return means, variances


def predict_rows(model: GpModel, k: int, sq_dists, means: np.ndarray) -> np.ndarray:
    """Predict k query points _ROWS at a time; return their k variances.

    The map's factor L, its block inverses and V = L^-1 Y are made first
    and dropped on return. `sq_dists(start, stop, D)` writes the squared
    distances of query points start..stop-1 to the training locations into
    the C-order (stop - start) x n buffer D. D becomes the cross-kernel,
    and the forward solve in place turns each row k* into S = L^-1 k*. The
    means S^T V go into `means[start:stop]` (a C-order k x d table) by one
    matrix product, and the variances are the prior minus |S|^2, clamped
    at 1e-12 where rounding drives them lower.
    """
    hp = model.hyperparams
    L = cholesky_factor(model)
    inverses = block_inverses(L)
    V = _whiten(L, inverses, model.Y)
    prior = hp.signal_variance + hp.noise_variance
    variances = np.empty(k)
    buffer = np.empty((min(k, _ROWS), model.n))
    for start in range(0, k, _ROWS):
        stop = min(start + _ROWS, k)
        Kt = buffer[: stop - start]
        sq_dists(start, stop, Kt)
        _exp_kernel(Kt, hp.length_scale)
        Kt *= hp.signal_variance
        # No finiteness scan: the factor is finite, and a NaN query location
        # only makes its own row NaN, which the solve carries through.
        _solve_rows(L, inverses, Kt)
        np.matmul(Kt, V.T, out=means[start:stop])
        Kt *= Kt
        v = np.sum(Kt, axis=1, out=variances[start:stop])
        np.subtract(prior, v, out=v)
        np.copyto(v, _VARIANCE_FLOOR, where=v < _VARIANCE_FLOOR)
    return variances


def log_marginal_likelihood(X: np.ndarray, Y: np.ndarray, hp: GpHyperparams) -> float:
    """Gaussian evidence of the targets, summed over output columns."""
    X = np.asarray(X, dtype=float)
    Y = _targets(X, Y)
    L = _cholesky_with_jitter(gram_matrix(X, hp), hp)
    return _evidence(_whiten(L, block_inverses(L), Y), L)


def fit_by_evidence(X: np.ndarray, Ys: list, grid: list[GpHyperparams]) -> list[GpModel]:
    """Fit one map per target matrix in Ys, each at its evidence-maximizing candidate.

    Every target shares the locations X, so each candidate's Gram matrix
    is built and factored once for all of them, into one n x n buffer
    reused across candidates, and the unit kernel exp(-d/l^2) is rebuilt
    only when the length scale differs from the previous candidate's.
    A target's evidence needs only the forward solve (`_evidence`), and
    each target keeps only its best candidate's evidence and
    hyperparameters: its map is (X, that candidate, its targets). Non-PD
    candidates are skipped; exact ties go to the smaller length_scale,
    then to the earlier grid position.
    """
    if not grid:
        raise ConfigError("hyperparameter grid is empty")
    X = np.asarray(X, dtype=float)
    Ys = [_targets(X, Y, f"target {t}") for t, Y in enumerate(Ys)]
    # Per target: (evidence, hyperparams) of the best candidate so far.
    best: list[tuple | None] = [None] * len(Ys)
    unit, unit_scale, G = None, None, None
    for hp in grid:
        if hp.length_scale != unit_scale:
            unit = None  # freed before the next one is built
            unit, unit_scale = _unit_kernel(X, X, hp.length_scale), hp.length_scale
        G = _gram(unit, hp, out=G)
        try:
            L = _cholesky_with_jitter(G, hp)
        except GpFitError:
            continue
        inverses = block_inverses(L)
        for t, Y in enumerate(Ys):
            ev = _evidence(_whiten(L, inverses, Y), L)
            b = best[t]
            if b is None or ev > b[0] or (ev == b[0] and hp.length_scale < b[1].length_scale):
                best[t] = (ev, hp)
        L = None  # freed before the next candidate is factored
    if any(b is None for b in best):
        raise GpFitError("every hyperparameter candidate produced a non-PD Gram matrix")
    return [GpModel(X_train=X, hyperparams=hp, Y=Y) for (_, hp), Y in zip(best, Ys)]


def select_hyperparams(
    X: np.ndarray, Y: np.ndarray, grid: list[GpHyperparams]
) -> GpHyperparams:
    """Grid search maximizing the evidence: `fit_by_evidence` for one target."""
    return fit_by_evidence(X, [Y], grid)[0].hyperparams
