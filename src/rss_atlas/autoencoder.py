"""Distance-invariant sparse autoencoder, trained with plain numpy.

Both halves are two dense layers. The hidden layer of each half runs
dense -> tanh -> batch norm -> dropout; the latent and reconstruction
heads are linear so neither latent distances nor dBm-scale outputs get
range-clipped. Training minimizes the sum of a squared-L2 reconstruction
loss, an L1 penalty on the latent activations, and a pairwise distance
invariance penalty that pulls latent geometry toward input geometry.

Backpropagation is written out by hand, including the pass through the
batch statistics, and is verified against central finite differences in
the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import SurveyDataset, NormalizationStats
from .errors import ConfigError, DataError, TrainingDivergedError, check_numbers

BN_EPS = 1e-5
BN_MOMENTUM = 0.9
# Adam's step constants, the defaults of Kingma & Ba, "Adam" (ICLR 2015).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

PARAM_KEYS = (
    "enc_hidden.weights", "enc_hidden.biases", "enc_hidden.bn_gamma", "enc_hidden.bn_beta",
    "enc_out.weights", "enc_out.biases",
    "dec_hidden.weights", "dec_hidden.biases", "dec_hidden.bn_gamma", "dec_hidden.bn_beta",
    "dec_out.weights", "dec_out.biases",
)
_LAYERS = ("enc_hidden", "enc_out", "dec_hidden", "dec_out")
_BN_KEYS = ("bn_gamma", "bn_beta", "bn_running_mean", "bn_running_var")


@dataclass
class LayerParams:
    """One dense layer; batch-norm tensors are present on hidden layers only."""

    weights: np.ndarray  # (out, in)
    biases: np.ndarray   # (out,)
    bn_gamma: np.ndarray | None = None
    bn_beta: np.ndarray | None = None
    bn_running_mean: np.ndarray | None = None
    bn_running_var: np.ndarray | None = None


@dataclass
class AutoencoderParams:
    """Encoder and decoder weights plus batch-norm state.

    Dimension chain: input_dim -> hidden_dim -> latent_dim -> hidden_dim
    -> input_dim, with latent_dim < input_dim enforced. The widths are read
    from the encoder's two weight matrices; construction checks every tensor
    against the chain: hidden layers hold all four batch-norm vectors, heads none.
    """

    enc_hidden: LayerParams
    enc_out: LayerParams
    dec_hidden: LayerParams
    dec_out: LayerParams
    input_dim: int = field(init=False)
    latent_dim: int = field(init=False)
    hidden_dim: int = field(init=False)

    def __post_init__(self):
        for name in ("enc_hidden", "enc_out"):
            shape = np.shape(getattr(self, name).weights)
            if len(shape) != 2:
                raise ConfigError(f"{name}.weights has shape {shape}, expected a matrix")
        self.hidden_dim, self.input_dim = self.enc_hidden.weights.shape
        self.latent_dim = self.enc_out.weights.shape[0]
        if not self.latent_dim < self.input_dim:
            raise ConfigError(
                f"latent_dim {self.latent_dim} must be smaller than input_dim {self.input_dim}"
            )
        h = self.hidden_dim
        chain = (("enc_hidden", h, self.input_dim), ("enc_out", self.latent_dim, h),
                 ("dec_hidden", h, self.latent_dim), ("dec_out", self.input_dim, h))
        for name, width, fan_in in chain:
            bn = (width,) if name.endswith("hidden") else None
            want = {"weights": (width, fan_in), "biases": (width,), **dict.fromkeys(_BN_KEYS, bn)}
            for key, shape in want.items():
                got = getattr(getattr(getattr(self, name), key), "shape", None)
                if got != shape:
                    raise ConfigError(f"{name}.{key} has shape {got}, expected {shape}")

    def get_tensor(self, key: str) -> np.ndarray:
        layer_name, attr = key.split(".")
        return getattr(getattr(self, layer_name), attr)

    def set_tensor(self, key: str, value: np.ndarray) -> None:
        layer_name, attr = key.split(".")
        setattr(getattr(self, layer_name), attr, value)

    def tensor_keys(self) -> tuple[str, ...]:
        return PARAM_KEYS


@dataclass(frozen=True)
class TrainConfig:
    """Optimization and architecture settings; every field has a default."""

    latent_dim: int = field(default=10, metadata={"ge": 1})
    hidden_dim: int = field(default=60, metadata={"ge": 1})
    lambda_r: float = field(default=1e-4, metadata={"ge": 0})
    lambda_d: float = field(default=1e-3, metadata={"ge": 0})
    batch_size: int = field(default=64, metadata={"ge": 2})  # batch norm needs two rows
    epochs: int = field(default=2000, metadata={"ge": 0})
    learning_rate: float = field(default=1e-3, metadata={"gt": 0})
    dropout_rate: float = field(default=0.1, metadata={"ge": 0, "lt": 1})
    seed: int = field(default=0, metadata={"ge": 0})

    def __post_init__(self):
        check_numbers(self)


@dataclass
class TrainReport:
    """Per-epoch loss totals as seen by the optimizer, plus summary numbers.

    The distance term is recorded with its 1/batch_size^2 scaling applied,
    i.e. exactly what was minimized. heldout_mse has one entry per epoch
    run: the held-out rows' reconstruction MSE where a check ran, None
    elsewhere. best_epoch is the epoch whose state train returned.
    final_rmse is over every row train was given, in the training data's
    units; final_rmse_dbm is filled in when normalization stats are given.
    """

    recon_losses: list[float] = field(default_factory=list)
    sparsity_losses: list[float] = field(default_factory=list)
    distance_losses: list[float] = field(default_factory=list)
    heldout_mse: list[float | None] = field(default_factory=list)
    best_epoch: int = 0
    final_rmse: float = float("nan")
    final_rmse_dbm: float | None = None


def init_params(input_dim: int, config: TrainConfig) -> AutoencoderParams:
    """Seeded Glorot-uniform weights, zero biases, identity batch norm."""
    rng = np.random.default_rng(config.seed)
    h, c = config.hidden_dim, config.latent_dim

    def dense(out_dim, in_dim, with_bn):
        bound = math.sqrt(6.0 / (in_dim + out_dim))
        layer = LayerParams(
            weights=rng.uniform(-bound, bound, size=(out_dim, in_dim)),
            biases=np.zeros(out_dim),
        )
        if with_bn:
            layer.bn_gamma = np.ones(out_dim)
            layer.bn_beta = np.zeros(out_dim)
            layer.bn_running_mean = np.zeros(out_dim)
            layer.bn_running_var = np.ones(out_dim)
        return layer

    return AutoencoderParams(
        enc_hidden=dense(h, input_dim, True),
        enc_out=dense(c, h, False),
        dec_hidden=dense(h, c, True),
        dec_out=dense(input_dim, h, False),
    )


def _half_forward(hidden: LayerParams, head: LayerParams, x, mode, dropout_rate, rng):
    """dense -> tanh -> batch norm -> dropout -> dense(linear).

    Each operation is done in place where its input is not kept, on the
    same operands and in the same order as the plain expressions. The
    batch statistics are mu = sum(t)/b and var = sum((t - mu)^2)/b over
    the batch axis, the operations t.mean(axis=0) and t.var(axis=0) run,
    with t - mu computed once for both and for xhat.
    """
    t = x @ hidden.weights.T
    t += hidden.biases
    np.tanh(t, out=t)
    if mode == "training":
        b = t.shape[0]
        mu = t.sum(axis=0) / b
        xhat = t - mu
        d = xhat * xhat  # squared deviations; the buffer then holds d
        var = d.sum(axis=0) / b
    else:
        mu, var = hidden.bn_running_mean, hidden.bn_running_var
        xhat = t - mu
        d = np.empty_like(t)
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv_std
    np.multiply(hidden.bn_gamma, xhat, out=d)
    d += hidden.bn_beta
    mask = None
    if mode == "training" and dropout_rate > 0.0:
        mask = (rng.random(d.shape) >= dropout_rate) / (1.0 - dropout_rate)
        d *= mask
    out = d @ head.weights.T
    out += head.biases
    cache = {
        "x": x, "t": t, "xhat": xhat, "inv_std": inv_std, "mask": mask, "d": d,
        "batch_mean": mu if mode == "training" else None,
        "batch_var": var if mode == "training" else None,
        "mode": mode,
    }
    return out, cache


def forward(
    params: AutoencoderParams,
    batch: np.ndarray,
    mode: str = "inference",
    seed: int = 0,
    dropout_rate: float = 0.0,
):
    """Run the full network; returns (latent, reconstruction, cache).

    Training mode standardizes with batch statistics and applies inverted
    dropout using masks drawn from the seed; inference mode uses the
    running statistics and no dropout, so it is deterministic and
    row-independent.
    """
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 2 or batch.shape[1] != params.input_dim:
        raise DataError(f"batch must be b x {params.input_dim}, got {batch.shape}")
    if mode not in ("training", "inference"):
        raise ConfigError(f"unknown mode {mode!r}")
    if mode == "training" and batch.shape[0] < 2:
        raise DataError("training mode needs batch_size >= 2 for batch statistics")
    rng = np.random.default_rng(seed) if mode == "training" and dropout_rate > 0.0 else None
    latent, enc_cache = _half_forward(
        params.enc_hidden, params.enc_out, batch, mode, dropout_rate, rng
    )
    recon, dec_cache = _half_forward(
        params.dec_hidden, params.dec_out, latent, mode, dropout_rate, rng
    )
    cache = {"enc": enc_cache, "dec": dec_cache, "latent": latent, "recon": recon}
    return latent, recon, cache


def reconstruction_loss(z: np.ndarray, z_hat: np.ndarray) -> float:
    """Squared L2 norm of the residual, summed over the batch."""
    if z.shape != z_hat.shape:
        raise DataError(f"shape mismatch {z.shape} vs {z_hat.shape}")
    r = z - z_hat
    return float(np.sum(r * r))


def sparsity_loss(latent: np.ndarray, lambda_r: float) -> float:
    """L1 penalty on latent activations, summed over the batch."""
    return float(lambda_r * np.sum(np.abs(latent)))


# Entries of the (m x rows x n) difference block _pairwise_sq_dists holds at a
# time: 2 MiB of doubles, so a minibatch (10 latent x 64 x 64) is one block.
_BLOCK_ELEMS = 1 << 18


def _pairwise_sq_dists(P: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between all row pairs of P (n x n).

    Each entry has the bits of np.sum((P[i] - P[j])**2): numpy sums a
    contiguous axis in its pairwise order, and the m squared differences
    are added here in that order, one whole (rows x n) plane at a time.
    Fewer than 8 terms are added in sequence. Up to 128 go to eight
    accumulators, the j-th taking terms j, j+8, j+16, ... of the largest
    multiple of 8; they are combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))
    and the remaining terms added in sequence. More than 128 are split at
    half the count rounded down to a multiple of 8, and the two halves'
    sums added. So the distance between two rows has the same bits in a
    minibatch as in the full n x n matrix, whatever the block size.

    The differences come from a contiguous P^T, block by block, into one
    (m x rows x n) buffer of at most _BLOCK_ELEMS entries (one row's m x n
    if that is more), where they are squared and summed in place.
    """

    def pairwise_sum(d):
        k = d.shape[0]
        if k > 128:
            half = k // 2 - (k // 2) % 8
            acc = pairwise_sum(d[:half])
            acc += pairwise_sum(d[half:])
            return acc
        rest = 1
        if k >= 8:
            rest = k - k % 8
            for i in range(8, rest, 8):
                d[:8] += d[i:i + 8]
            d[0:8:2] += d[1:8:2]
            d[0:8:4] += d[2:8:4]
            d[0] += d[4]
        for i in range(rest, k):
            d[0] += d[i]
        return d[0]

    n, m = P.shape
    rows = max(1, _BLOCK_ELEMS // max(1, n * m))
    PT = np.ascontiguousarray(P.T)
    D = np.empty((n, n))
    block = np.empty((m, min(rows, n), n))
    for a in range(0, n, rows):
        d = block[:, :min(rows, n - a)]
        np.subtract(PT[:, a:a + rows, None], PT[:, None, :], out=d)
        d *= d
        D[a:a + rows] = pairwise_sum(d)
    return D


def _distance_loss_from(Dz: np.ndarray, Dl: np.ndarray, lambda_d: float) -> float:
    """Isometry penalty from input (Dz) and latent (Dl) squared distances."""
    diff = Dz - Dl
    diff *= diff
    return float(lambda_d * np.sum(diff))


def _distance_grad_from(
    Dz: np.ndarray, Dl: np.ndarray, latent: np.ndarray, lambda_d: float
) -> np.ndarray:
    """d _distance_loss_from / d latent, given the distances it was computed from.

    Each unordered pair appears twice in the ordered sum, which doubles the
    textbook single-count gradient:
    g_k = 8 * lambda_d * sum_j (|l_k-l_j|^2 - |z_k-z_j|^2) (l_k - l_j).
    """
    coef = Dl - Dz  # symmetric
    g = coef.sum(axis=1)[:, None] * latent
    g -= coef @ latent
    g *= 8.0 * lambda_d
    return g


def distance_loss(z: np.ndarray, latent: np.ndarray, lambda_d: float) -> float:
    """Isometry penalty: (|z_i-z_j|^2 - |l_i-l_j|^2)^2 summed over all ordered row pairs."""
    if z.shape[0] != latent.shape[0]:
        raise DataError("z and latent must have equal batch sizes")
    return _distance_loss_from(_pairwise_sq_dists(z), _pairwise_sq_dists(latent), lambda_d)


def total_loss(z, latent, z_hat, config: TrainConfig) -> float:
    return (
        reconstruction_loss(z, z_hat)
        + sparsity_loss(latent, config.lambda_r)
        + distance_loss(z, latent, config.lambda_d)
    )


def _half_backward(hidden: LayerParams, head: LayerParams, cache, g_out, grads, input_grad=True):
    """Backprop through one half into grads; returns the grad wrt the half's input.

    grads holds the half's six tensor gradients in PARAM_KEYS order (hidden
    w, b, bn_gamma, bn_beta, head w, b); each is written with out=. With
    input_grad False the input gradient is not computed and None returned.
    """
    g_hidden_w, g_hidden_b, g_gamma, g_beta, g_head_w, g_head_b = grads
    np.matmul(g_out.T, cache["d"], out=g_head_w)
    np.sum(g_out, axis=0, out=g_head_b)
    g = g_out @ head.weights  # g_d, then g_y, g_xhat, g_t and g_a in place

    if cache["mask"] is not None:
        g *= cache["mask"]
    xhat = cache["xhat"]
    tmp = g * xhat
    np.sum(tmp, axis=0, out=g_gamma)
    np.sum(g, axis=0, out=g_beta)
    g *= hidden.bn_gamma

    inv_std = cache["inv_std"]
    if cache["mode"] == "training":
        # Batch statistics are functions of t; push gradients through them:
        # g_t = (inv_std / b) * (b * g_xhat - sum(g_xhat) - xhat * sum(g_xhat * xhat)).
        b = xhat.shape[0]
        g_sum = g.sum(axis=0)
        np.multiply(g, xhat, out=tmp)
        np.multiply(xhat, tmp.sum(axis=0), out=tmp)
        g *= b
        g -= g_sum
        g -= tmp
        g *= inv_std / b
    else:
        g *= inv_std

    t = cache["t"]
    np.multiply(t, t, out=tmp)
    np.subtract(1.0, tmp, out=tmp)
    g *= tmp
    np.matmul(g.T, cache["x"], out=g_hidden_w)
    np.sum(g, axis=0, out=g_hidden_b)
    return g @ hidden.weights if input_grad else None


def _backward_from_cache(
    params: AutoencoderParams, batch: np.ndarray, config: TrainConfig, cache,
    g_dist: np.ndarray | None = None, grads: list[np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """Backprop the reconstruction and sparsity terms of config.

    g_dist is the distance penalty's gradient with respect to the latent
    (see _distance_grad_from); None adds no distance term. grads, one
    array per tensor in PARAM_KEYS order, receives the gradients (new
    arrays when None); the returned dict maps each key to its array.
    """
    if grads is None:
        grads = [np.empty_like(params.get_tensor(k)) for k in PARAM_KEYS]
    latent, recon = cache["latent"], cache["recon"]
    g_recon = recon - batch
    g_recon *= 2.0
    g_latent = _half_backward(params.dec_hidden, params.dec_out, cache["dec"], g_recon, grads[6:])
    g_sparse = np.sign(latent)
    g_sparse *= config.lambda_r
    g_latent += g_sparse
    if g_dist is not None:
        g_latent += g_dist
    _half_backward(
        params.enc_hidden, params.enc_out, cache["enc"], g_latent, grads[:6], input_grad=False,
    )
    return dict(zip(PARAM_KEYS, grads))


def gradients(
    params: AutoencoderParams, batch: np.ndarray, config: TrainConfig,
    seed: int = 0, mode: str = "training",
) -> dict[str, np.ndarray]:
    """Analytic gradient of total_loss for every parameter tensor.

    mode selects the forward semantics the gradient is taken under:
    training differentiates through batch statistics and a fixed dropout
    mask drawn from the seed; inference treats the running batch-norm
    statistics as constants and uses no dropout.
    """
    batch = np.asarray(batch, dtype=float)
    Dz = _pairwise_sq_dists(batch) if config.lambda_d != 0.0 else None
    return _training_step(params, batch, Dz, config.lambda_d, config, seed, mode)[1]


def _tensor_views(vec: np.ndarray, params: AutoencoderParams) -> list[np.ndarray]:
    """Consecutive views of vec shaped like params' tensors, in PARAM_KEYS order."""
    ends = np.cumsum([params.get_tensor(k).size for k in PARAM_KEYS])[:-1]
    return [v.reshape(params.get_tensor(k).shape) for k, v in zip(PARAM_KEYS, np.split(vec, ends))]


def _update_running_stats(layer: LayerParams, cache) -> None:
    mom = BN_MOMENTUM
    layer.bn_running_mean = mom * layer.bn_running_mean + (1.0 - mom) * cache["batch_mean"]
    layer.bn_running_var = mom * layer.bn_running_var + (1.0 - mom) * cache["batch_var"]


def _training_step(
    params: AutoencoderParams, batch: np.ndarray, Dz: np.ndarray | None, lambda_d: float,
    config: TrainConfig, seed: int, mode: str = "training",
    grads: list[np.ndarray] | None = None,
) -> tuple[tuple[float, float, float], dict[str, np.ndarray], dict]:
    """One forward pass in `mode` (see gradients) and its backward pass.

    Dz holds the batch's input-space squared distances and lambda_d the
    distance weight used for this batch; with Dz None the distance term is
    skipped and reported as 0.0. Returns the (recon, sparsity, distance)
    losses, the gradients (written into grads when given, see
    _backward_from_cache) and the forward cache.
    """
    latent, recon, cache = forward(
        params, batch, mode=mode, seed=seed, dropout_rate=config.dropout_rate,
    )
    dist, g_dist = 0.0, None
    if Dz is not None:
        Dl = _pairwise_sq_dists(latent)
        dist = _distance_loss_from(Dz, Dl, lambda_d)
        g_dist = _distance_grad_from(Dz, Dl, latent, lambda_d)
    losses = (reconstruction_loss(batch, recon), sparsity_loss(latent, config.lambda_r), dist)
    return losses, _backward_from_cache(params, batch, config, cache, g_dist, grads), cache


# Early stopping on the held-out rows (Prechelt 1998; Goodfellow et al.,
# Deep Learning, Algorithm 7.1): hold out _HOLDOUT_FRACTION of the rows,
# check every _CHECK_EVERY epochs and at the last, stop after _PATIENCE
# checks in a row without a strict improvement.
_HOLDOUT_FRACTION = 0.15
_CHECK_EVERY = 10
_PATIENCE = 10


def _split_rows(n: int, config: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """Sorted (fit, held-out) row indices of an n-row training set.

    The first k rows of a permutation drawn from default_rng([seed, 99])
    are held out, k = round(_HOLDOUT_FRACTION * n) but never more than
    n - batch_size: a survey of one batch or little more keeps every row it
    cannot spare for fitting (at k = 0 no check runs). A survey smaller than
    batch_size is a DataError.
    """
    if n < config.batch_size:
        raise DataError(f"{n} rows are fewer than batch_size={config.batch_size}")
    n_held = min(round(_HOLDOUT_FRACTION * n), n - config.batch_size)
    perm = np.random.default_rng([config.seed, 99]).permutation(n)
    return np.sort(perm[n_held:]), np.sort(perm[:n_held])


def train(
    ds: SurveyDataset,
    config: TrainConfig,
    stats: NormalizationStats | None = None,
) -> tuple[AutoencoderParams, TrainReport]:
    """Minibatch Adam over shuffled epochs with held-out early stopping.

    _HOLDOUT_FRACTION of the rows are held out (see _split_rows) and
    every step draws its minibatch from the rest, the fit rows. Every
    _CHECK_EVERY epochs and at epoch config.epochs, the inference-mode
    reconstruction MSE of the held-out rows is taken; each strict
    improvement keeps a copy of the tensors and the batch-norm running
    statistics, training stops after _PATIENCE checks without one, and
    the kept state is returned. epochs is the cap. When no row is held out,
    no check runs and every epoch's state is kept.
    Deterministic given config.seed.

    The distance weight is divided by the square of each minibatch's size
    so the pairwise sum does not grow with batch size. Passing the
    normalization stats adds a dBm-scale RMSE to the report. The trained
    tensors are views of one vector theta and each step writes its
    gradients into views of one vector g, so an Adam step is m = b1*m +
    (1-b1)*g, v = b2*v + (1-b2)*g*g and theta -= scale*m / (sqrt(v) + eps)
    over whole vectors, evaluated in place in two scratch vectors, with
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS.

    Fit rows do not change between epochs, so when lambda_d is nonzero
    their squared distances are computed once per call (8*n^2 bytes: 1.0 MB
    at 355 fit rows) and each step indexes its batch out of them. With
    lambda_d 0 no distances are computed and every distance loss is 0.0;
    a diverging latent still shows as a non-finite sparsity total. A
    non-finite epoch total raises, so overflow warnings are silenced.
    """
    if not ds.normalized:
        raise DataError("train expects a normalized dataset")
    fit_rows, held_rows = _split_rows(ds.n, config)

    Z, Z_held = ds.Z[fit_rows], ds.Z[held_rows]
    n = Z.shape[0]
    params = init_params(ds.m, config)
    report = TrainReport()
    Dz = _pairwise_sq_dists(Z) if config.lambda_d != 0.0 else None

    rng = np.random.default_rng(config.seed)
    theta = np.concatenate([params.get_tensor(k).ravel() for k in PARAM_KEYS])
    for key, view in zip(PARAM_KEYS, _tensor_views(theta, params)):
        params.set_tensor(key, view)
    g = np.empty_like(theta)
    grads = _tensor_views(g, params)
    m, v, s1, s2 = (np.zeros_like(theta) for _ in range(4))
    step = 0
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    bn_layers = (params.enc_hidden, params.dec_hidden)
    best_mse, best, misses = math.inf, None, 0

    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs + 1):
            perm = rng.permutation(n)
            ep_recon = ep_sparse = ep_dist = 0.0
            for start in range(0, n, config.batch_size):
                idx = perm[start:start + config.batch_size]
                if idx.size < 2:
                    continue  # batch norm is undefined on a single row
                mask_seed = int(rng.integers(0, 2**63 - 1))
                (recon, sparse, dist), _, cache = _training_step(
                    params, Z[idx], None if Dz is None else Dz[idx][:, idx],
                    config.lambda_d / float(idx.size) ** 2, config, mask_seed, grads=grads,
                )
                ep_recon += recon
                ep_sparse += sparse
                ep_dist += dist
                _update_running_stats(params.enc_hidden, cache["enc"])
                _update_running_stats(params.dec_hidden, cache["dec"])

                step += 1
                scale = config.learning_rate * math.sqrt(1.0 - b2**step) / (1.0 - b1**step)
                m *= b1
                np.multiply(g, 1.0 - b1, out=s1)
                m += s1
                v *= b2
                np.multiply(g, g, out=s1)
                s1 *= 1.0 - b2
                v += s1
                np.multiply(m, scale, out=s1)
                np.sqrt(v, out=s2)
                s2 += eps
                s1 /= s2
                theta -= s1

            total = ep_recon + ep_sparse + ep_dist
            if not math.isfinite(total):
                raise TrainingDivergedError(
                    f"non-finite training loss at epoch {epoch} "
                    f"(recon={ep_recon:g}, sparsity={ep_sparse:g}, distance={ep_dist:g})"
                )
            report.recon_losses.append(ep_recon)
            report.sparsity_losses.append(ep_sparse)
            report.distance_losses.append(ep_dist)

            mse = None
            if held_rows.size and (epoch % _CHECK_EVERY == 0 or epoch == config.epochs):
                mse = _reconstruction_mse(params, Z_held)
            report.heldout_mse.append(mse)
            if mse is None:
                continue
            if mse < best_mse:
                best_mse, misses = mse, 0
                # Running statistics are rebound each step, never written in place.
                running = [(layer.bn_running_mean, layer.bn_running_var) for layer in bn_layers]
                best = (epoch, theta.copy(), running)
            else:
                misses += 1
                if misses == _PATIENCE:
                    break

    report.best_epoch = len(report.recon_losses)
    if best is not None:
        report.best_epoch, best_theta, running = best
        np.copyto(theta, best_theta)
        for layer, (mean, var) in zip(bn_layers, running):
            layer.bn_running_mean, layer.bn_running_var = mean, var
    report.final_rmse = reconstruction_rmse(params, ds.Z)
    if stats is not None:
        report.final_rmse_dbm = reconstruction_rmse(params, ds.Z, stats)
    return params, report


def _reconstruction_mse(
    params: AutoencoderParams, Z: np.ndarray, stats: NormalizationStats | None = None
) -> float:
    """Mean squared round-trip error over all entries; stats rescale errors to dBm."""
    err = Z - decode(params, encode(params, Z))
    if stats is not None:
        err = err * stats.per_ap_std
    return float(np.mean(err * err))


def reconstruction_rmse(
    params: AutoencoderParams, Z: np.ndarray, stats: NormalizationStats | None = None
) -> float:
    """Round-trip RMSE over all entries; stats rescale errors to dBm."""
    return math.sqrt(_reconstruction_mse(params, Z, stats))


def encode(params: AutoencoderParams, Z: np.ndarray) -> np.ndarray:
    """Deterministic inference-mode encoding; rows are independent."""
    Z = np.asarray(Z, dtype=float)
    squeeze = Z.ndim == 1
    if squeeze:
        Z = Z[None, :]
    latent, _ = _half_forward(params.enc_hidden, params.enc_out, Z, "inference", 0.0, None)
    return latent[0] if squeeze else latent


def decode(params: AutoencoderParams, L: np.ndarray) -> np.ndarray:
    L = np.asarray(L, dtype=float)
    squeeze = L.ndim == 1
    if squeeze:
        L = L[None, :]
    if L.shape[1] != params.latent_dim:
        raise DataError(f"latent dim mismatch: {L.shape[1]} vs {params.latent_dim}")
    recon, _ = _half_forward(params.dec_hidden, params.dec_out, L, "inference", 0.0, None)
    return recon[0] if squeeze else recon


def params_to_dict(params: AutoencoderParams) -> dict:
    """Each layer's tensors in LayerParams field order (absent batch norm omitted)."""
    return {
        name: {k: v.tolist() for k, v in vars(getattr(params, name)).items() if v is not None}
        for name in _LAYERS
    }


def params_from_dict(doc: dict) -> AutoencoderParams:
    """Rebuild params_to_dict output; a layer key LayerParams does not have is a TypeError."""
    return AutoencoderParams(**{
        name: LayerParams(**{k: np.array(v, dtype=float) for k, v in doc[name].items()})
        for name in _LAYERS
    })
