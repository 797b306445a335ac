import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rss_atlas import autoencoder as ae
from rss_atlas import dataset as dsm
from rss_atlas.errors import ConfigError, DataError, TrainingDivergedError

TOY_CFG = ae.TrainConfig(
    latent_dim=3, hidden_dim=4, lambda_r=0.3, lambda_d=0.7,
    batch_size=4, dropout_rate=0.0, seed=1,
)


def toy_params(rng, input_dim=6, cfg=TOY_CFG, perturb_bn=True):
    params = ae.init_params(input_dim, cfg)
    if perturb_bn:
        for layer in (params.enc_hidden, params.dec_hidden):
            h = layer.weights.shape[0]
            layer.bn_gamma = rng.uniform(0.5, 1.5, size=h)
            layer.bn_beta = rng.normal(size=h) * 0.2
            layer.bn_running_mean = rng.normal(size=h) * 0.3
            layer.bn_running_var = rng.uniform(0.5, 2.0, size=h)
    return params


def fd_gradient(params, batch, cfg, key, mode, seed, step=1e-5):
    """Central finite differences of total_loss along one tensor."""
    tensor = params.get_tensor(key)
    grad = np.zeros_like(tensor)
    it = np.nditer(tensor, flags=["multi_index"])

    def loss():
        latent, recon, _ = ae.forward(
            params, batch, mode=mode, seed=seed,
            dropout_rate=cfg.dropout_rate if mode == "training" else 0.0,
        )
        return ae.total_loss(batch, latent, recon, cfg)

    for _ in it:
        i = it.multi_index
        orig = tensor[i]
        tensor[i] = orig + step
        lp = loss()
        tensor[i] = orig - step
        lm = loss()
        tensor[i] = orig
        grad[i] = (lp - lm) / (2.0 * step)
    return grad


class TestForward:
    def test_zero_network_outputs_zero(self, rng):
        params = toy_params(rng, perturb_bn=False)
        for key in params.tensor_keys():
            if key.endswith("weights") or key.endswith("biases"):
                params.set_tensor(key, np.zeros_like(params.get_tensor(key)))
        batch = rng.normal(size=(4, 6))
        latent, recon, _ = ae.forward(params, batch)
        assert np.all(latent == 0.0) and np.all(recon == 0.0)

    def test_inference_deterministic(self, rng):
        params = toy_params(rng)
        batch = rng.normal(size=(5, 6))
        a = ae.forward(params, batch, mode="inference", seed=1)
        b = ae.forward(params, batch, mode="inference", seed=99)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_matches_hand_computed_dense_tanh_dense(self):
        # BN frozen to identity and no dropout: the half reduces to
        # dense -> tanh -> dense, checked with explicit loops.
        cfg = replace(TOY_CFG, latent_dim=2, hidden_dim=3)
        params = ae.init_params(3, cfg)
        rng = np.random.default_rng(0)
        for key in params.tensor_keys():
            if key.endswith("weights"):
                params.set_tensor(key, rng.normal(size=params.get_tensor(key).shape))
            elif key.endswith("biases"):
                params.set_tensor(key, rng.normal(size=params.get_tensor(key).shape))
        batch = rng.normal(size=(2, 3))
        latent, recon, _ = ae.forward(params, batch, mode="inference")

        def half(x, hidden, head):
            h = np.tanh(hidden.weights @ x + hidden.biases)
            h = (h - hidden.bn_running_mean) / np.sqrt(hidden.bn_running_var + ae.BN_EPS)
            h = hidden.bn_gamma * h + hidden.bn_beta
            return head.weights @ h + head.biases

        for i in range(2):
            want_latent = half(batch[i], params.enc_hidden, params.enc_out)
            want_recon = half(want_latent, params.dec_hidden, params.dec_out)
            np.testing.assert_allclose(latent[i], want_latent, rtol=1e-12)
            np.testing.assert_allclose(recon[i], want_recon, rtol=1e-12)

    def test_training_single_row_rejected(self, rng):
        params = toy_params(rng)
        with pytest.raises(DataError, match="batch"):
            ae.forward(params, rng.normal(size=(1, 6)), mode="training")

    def test_dropout_mask_seeded(self, rng):
        params = toy_params(rng)
        batch = rng.normal(size=(4, 6))
        a = ae.forward(params, batch, mode="training", seed=7, dropout_rate=0.5)
        b = ae.forward(params, batch, mode="training", seed=7, dropout_rate=0.5)
        c = ae.forward(params, batch, mode="training", seed=8, dropout_rate=0.5)
        assert np.array_equal(a[1], b[1])
        assert not np.array_equal(a[1], c[1])

    def test_generator_built_only_when_a_mask_is_drawn(self, rng, monkeypatch):
        params = toy_params(rng)
        batch = rng.normal(size=(4, 6))
        seeds = []
        default_rng = np.random.default_rng

        def recording_rng(seed=None):
            seeds.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        ae.forward(params, batch, mode="inference", seed=3, dropout_rate=0.5)
        ae.forward(params, batch, mode="training", seed=4, dropout_rate=0.0)
        ae.gradients(params, batch, replace(TOY_CFG, dropout_rate=0.5), mode="inference", seed=5)
        assert seeds == []
        ae.forward(params, batch, mode="training", seed=6, dropout_rate=0.5)
        assert seeds == [6]


class TestLosses:
    def test_reconstruction_zero_at_match(self, rng):
        z = rng.normal(size=(3, 5))
        assert ae.reconstruction_loss(z, z) == 0.0

    def test_reconstruction_direct(self):
        z = np.array([[1.0, 2.0]])
        z_hat = np.zeros((1, 2))
        assert ae.reconstruction_loss(z, z_hat) == 5.0

    def test_reconstruction_brute_force(self, rng):
        z = rng.normal(size=(5, 7))
        z_hat = rng.normal(size=(5, 7))
        want = sum(
            (z[i, j] - z_hat[i, j]) ** 2 for i in range(5) for j in range(7)
        )
        assert ae.reconstruction_loss(z, z_hat) == pytest.approx(want, rel=1e-12)

    def test_sparsity_zero_latent(self):
        assert ae.sparsity_loss(np.zeros((4, 3)), 0.5) == 0.0

    def test_sparsity_direct(self):
        assert ae.sparsity_loss(np.array([[-1.0, 2.0]]), 0.5) == 1.5

    def test_sparsity_brute_force(self, rng):
        latent = rng.normal(size=(8, 3))
        want = 0.25 * sum(abs(latent[i, j]) for i in range(8) for j in range(3))
        assert ae.sparsity_loss(latent, 0.25) == pytest.approx(want, rel=1e-12)

    def test_distance_isometric_zero(self, rng):
        z = rng.normal(size=(6, 4))
        assert ae.distance_loss(z, z, 1.0) == 0.0

    def test_distance_two_rows_direct(self):
        # Squared pair distances 4 (input) and 1 (latent); both ordered
        # pairs contribute (4 - 1)^2 = 9 each.
        z = np.array([[0.0, 0.0], [2.0, 0.0]])
        latent = np.array([[0.0], [1.0]])
        assert ae.distance_loss(z, latent, 1.0) == 18.0

    def test_distance_brute_force(self, rng):
        z = rng.normal(size=(6, 5))
        latent = rng.normal(size=(6, 2))
        lam = 0.3
        want = 0.0
        for i in range(6):
            for j in range(6):
                dz = np.sum((z[i] - z[j]) ** 2)
                dl = np.sum((latent[i] - latent[j]) ** 2)
                want += (dz - dl) ** 2
        assert ae.distance_loss(z, latent, lam) == pytest.approx(lam * want, rel=1e-12)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_distance_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(5, 3))
        latent = rng.normal(size=(5, 2))
        perm = rng.permutation(5)
        a = ae.distance_loss(z, latent, 1.0)
        b = ae.distance_loss(z[perm], latent[perm], 1.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_total_is_sum_of_terms(self, rng):
        z = rng.normal(size=(4, 6))
        latent = rng.normal(size=(4, 3))
        z_hat = rng.normal(size=(4, 6))
        want = (
            ae.reconstruction_loss(z, z_hat)
            + ae.sparsity_loss(latent, TOY_CFG.lambda_r)
            + ae.distance_loss(z, latent, TOY_CFG.lambda_d)
        )
        assert ae.total_loss(z, latent, z_hat, TOY_CFG) == pytest.approx(want, rel=1e-12)

    def test_total_reduces_to_reconstruction(self, rng):
        cfg = replace(TOY_CFG, lambda_r=0.0, lambda_d=0.0)
        z = rng.normal(size=(4, 6))
        latent = rng.normal(size=(4, 3))
        z_hat = rng.normal(size=(4, 6))
        assert ae.total_loss(z, latent, z_hat, cfg) == ae.reconstruction_loss(z, z_hat)


class TestGradients:
    @pytest.mark.parametrize("mode", ["inference", "training"])
    def test_finite_difference_all_tensors(self, rng, mode):
        params = toy_params(rng)
        batch = rng.normal(size=(4, 6))
        grads = ae.gradients(params, batch, TOY_CFG, seed=3, mode=mode)
        for key in params.tensor_keys():
            fd = fd_gradient(params, batch, TOY_CFG, key, mode, seed=3)
            denom = max(float(np.abs(fd).max()), 1e-8)
            rel = float(np.abs(grads[key] - fd).max()) / denom
            assert rel < 1e-5, f"{key} rel err {rel:.2e} in {mode} mode"

    def test_perfect_reconstruction_gives_zero_recon_gradient(self, rng):
        # With lambda_r = lambda_d = 0 and recon == batch the whole
        # gradient vanishes: the output error signal is zero.
        cfg = replace(TOY_CFG, lambda_r=0.0, lambda_d=0.0)
        params = toy_params(rng)
        latent, recon, cache = ae.forward(params, rng.normal(size=(4, 6)))
        grads = ae._backward_from_cache(params, recon, cfg, cache)
        # Trick: treating the actual reconstruction as the target batch
        # only zeroes the head error, so check the head bias gradient.
        assert np.allclose(grads["dec_out.biases"], 0.0)

    def test_distance_gradient_matches_hand_formula(self, rng):
        # Ordered pairs double the single-count gradient:
        # g_k = 8 lam sum_j (|l_k-l_j|^2 - |z_k-z_j|^2)(l_k - l_j).
        z = rng.normal(size=(3, 4))
        latent = rng.normal(size=(3, 2))
        lam = 0.7
        Dz, Dl = ae._pairwise_sq_dists(z), ae._pairwise_sq_dists(latent)
        got = ae._distance_grad_from(Dz, Dl, latent, lam)
        want = np.zeros_like(latent)
        for k in range(3):
            for j in range(3):
                dl = np.sum((latent[k] - latent[j]) ** 2)
                dz = np.sum((z[k] - z[j]) ** 2)
                want[k] += 8.0 * lam * (dl - dz) * (latent[k] - latent[j])
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_distance_gradient_by_finite_differences(self, rng):
        z = rng.normal(size=(4, 5))
        latent = rng.normal(size=(4, 2))
        Dz, Dl = ae._pairwise_sq_dists(z), ae._pairwise_sq_dists(latent)
        got = ae._distance_grad_from(Dz, Dl, latent, 0.9)
        fd = np.zeros_like(latent)
        for i in range(4):
            for j in range(2):
                orig = latent[i, j]
                latent[i, j] = orig + 1e-6
                lp = ae.distance_loss(z, latent, 0.9)
                latent[i, j] = orig - 1e-6
                lm = ae.distance_loss(z, latent, 0.9)
                latent[i, j] = orig
                fd[i, j] = (lp - lm) / 2e-6
        np.testing.assert_allclose(got, fd, rtol=1e-4, atol=1e-7)

    def test_dropout_gradient_fixed_mask(self, rng):
        # With an active dropout mask the analytic gradient must match
        # finite differences computed under the same seed.
        cfg = replace(TOY_CFG, dropout_rate=0.4)
        params = toy_params(rng)
        batch = rng.normal(size=(4, 6))
        grads = ae.gradients(params, batch, cfg, seed=11, mode="training")
        for key in ("enc_hidden.weights", "dec_out.weights", "enc_hidden.bn_gamma"):
            fd = fd_gradient(params, batch, cfg, key, "training", seed=11)
            denom = max(float(np.abs(fd).max()), 1e-8)
            assert float(np.abs(grads[key] - fd).max()) / denom < 1e-5


class TestPrecomputedDistances:
    def test_blocked_matrix_indexed_by_batch_equals_batch_distances(self, rng):
        # 300 x 91 spans many row blocks; a 64-row batch is a single block.
        Z = rng.normal(size=(300, 91))
        Dz = ae._pairwise_sq_dists(Z)
        d = Z[:, None, :] - Z[None, :, :]
        assert np.array_equal(Dz, np.sum(d * d, axis=2))
        for _ in range(5):
            idx = rng.permutation(300)[:64]
            assert np.array_equal(Dz[np.ix_(idx, idx)], ae._pairwise_sq_dists(Z[idx]))

    # Both sides of each branch edge of numpy's pairwise sum (8 and 128
    # terms), a remainder of 1 and 7 past a multiple of 8, and two levels
    # of the split above 128.
    @pytest.mark.parametrize("m", [1, 7, 8, 9, 15, 16, 17, 91, 127, 128, 129, 200, 300])
    def test_equals_numpy_sum_at_every_branch_edge(self, rng, m):
        # Enough rows for at least three blocks of _BLOCK_ELEMS entries.
        n = math.isqrt(3 * ae._BLOCK_ELEMS // m) + 2
        assert n > 2 * (ae._BLOCK_ELEMS // (n * m))
        P = rng.normal(size=(n, m)) * rng.lognormal(sigma=2.0, size=m)
        d = P[:, None, :] - P[None, :, :]
        assert np.array_equal(ae._pairwise_sq_dists(P), np.sum(d * d, axis=2))

    def test_difference_block_stays_within_block_elems(self, rng):
        # numpy reports its buffers to tracemalloc. Beyond the n x n result
        # and the transposed copy of P, only one difference block of at most
        # _BLOCK_ELEMS doubles is alive at a time.
        P = rng.normal(size=(4096, 3))
        tracemalloc.start()
        try:
            D = ae._pairwise_sq_dists(P)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - D.nbytes - P.nbytes <= 8 * ae._BLOCK_ELEMS + 64 * 1024

    def test_training_step_matches_gradients(self, rng):
        cfg = ae.TrainConfig(latent_dim=5, hidden_dim=12, seed=2)
        params = toy_params(rng, input_dim=20, cfg=cfg)
        Z = rng.normal(size=(100, 20))
        Dz = ae._pairwise_sq_dists(Z)
        idx = rng.permutation(100)[:32]
        lam = cfg.lambda_d / 32.0**2
        (recon, sparse, dist), grads, _ = ae._training_step(
            params, Z[idx], Dz[np.ix_(idx, idx)], lam, cfg, seed=7
        )
        want = ae.gradients(params, Z[idx], replace(cfg, lambda_d=lam), seed=7, mode="training")
        for key in params.tensor_keys():
            assert np.array_equal(grads[key], want[key]), key
        latent, _, _ = ae.forward(params, Z[idx], "training", seed=7, dropout_rate=cfg.dropout_rate)
        assert dist == ae.distance_loss(Z[idx], latent, lam)

    def test_zero_distance_weight_reports_zero_distance_loss(self, small_survey_normalized):
        norm, _ = small_survey_normalized
        cfg = ae.TrainConfig(latent_dim=4, hidden_dim=8, epochs=5, batch_size=32, lambda_d=0.0)
        _, report = ae.train(norm, cfg)
        assert len(report.distance_losses) == 5
        assert all(v == 0.0 for v in report.distance_losses)


def per_key_adam_train(ds, config):
    """train as a per-tensor Adam loop over _training_step, before theta existed."""
    Z = ds.Z
    params = ae.init_params(ds.m, config)
    Dz = ae._pairwise_sq_dists(Z) if config.lambda_d != 0.0 else None
    rng = np.random.default_rng(config.seed)
    adam_m = {k: np.zeros_like(params.get_tensor(k)) for k in ae.PARAM_KEYS}
    adam_v = {k: np.zeros_like(params.get_tensor(k)) for k in ae.PARAM_KEYS}
    b1, b2, eps, mom = 0.9, 0.999, 1e-8, 0.9  # Kingma & Ba's Adam defaults; batch-norm momentum
    losses, step = [], 0
    for _ in range(config.epochs):
        perm = rng.permutation(ds.n)
        epoch = [0.0, 0.0, 0.0]
        for start in range(0, ds.n, config.batch_size):
            idx = perm[start:start + config.batch_size]
            if idx.size < 2:
                continue
            mask_seed = int(rng.integers(0, 2**63 - 1))
            step_losses, grads, cache = ae._training_step(
                params, Z[idx], None if Dz is None else Dz[np.ix_(idx, idx)],
                config.lambda_d / float(idx.size) ** 2, config, mask_seed,
            )
            epoch = [a + b for a, b in zip(epoch, step_losses)]
            for layer, c in ((params.enc_hidden, cache["enc"]), (params.dec_hidden, cache["dec"])):
                layer.bn_running_mean = mom * layer.bn_running_mean + (1.0 - mom) * c["batch_mean"]
                layer.bn_running_var = mom * layer.bn_running_var + (1.0 - mom) * c["batch_var"]
            step += 1
            scale = config.learning_rate * math.sqrt(1.0 - b2**step) / (1.0 - b1**step)
            for key in ae.PARAM_KEYS:
                g = grads[key]
                adam_m[key] = b1 * adam_m[key] + (1.0 - b1) * g
                adam_v[key] = b2 * adam_v[key] + (1.0 - b2) * (g * g)
                tensor = params.get_tensor(key)
                params.set_tensor(key, tensor - scale * adam_m[key] / (np.sqrt(adam_v[key]) + eps))
        losses.append(epoch)
    return params, losses


def frozen_half_forward(hidden, head, x, dropout_rate, rng):
    """Reference for training-mode _half_forward, in allocating numpy expressions."""
    a = x @ hidden.weights.T + hidden.biases
    t = np.tanh(a)
    mu = t.mean(axis=0)
    var = t.var(axis=0)
    inv_std = 1.0 / np.sqrt(var + ae.BN_EPS)
    xhat = (t - mu) * inv_std
    y = hidden.bn_gamma * xhat + hidden.bn_beta
    if dropout_rate > 0.0:
        mask = (rng.random(y.shape) >= dropout_rate) / (1.0 - dropout_rate)
        d = y * mask
    else:
        mask = None
        d = y
    out = d @ head.weights.T + head.biases
    cache = {"x": x, "t": t, "xhat": xhat, "inv_std": inv_std, "mask": mask, "d": d,
             "batch_mean": mu, "batch_var": var}
    return out, cache


def frozen_half_backward(hidden, head, cache, g_out):
    """Reference for training-mode _half_backward, in allocating numpy expressions."""
    d = cache["d"]
    g_head_w = g_out.T @ d
    g_head_b = g_out.sum(axis=0)
    g_d = g_out @ head.weights
    g_y = g_d if cache["mask"] is None else g_d * cache["mask"]
    xhat = cache["xhat"]
    g_gamma = np.sum(g_y * xhat, axis=0)
    g_beta = np.sum(g_y, axis=0)
    g_xhat = g_y * hidden.bn_gamma
    b = xhat.shape[0]
    g_t = (cache["inv_std"] / b) * (
        b * g_xhat - g_xhat.sum(axis=0) - xhat * np.sum(g_xhat * xhat, axis=0)
    )
    t = cache["t"]
    g_a = g_t * (1.0 - t * t)
    x = cache["x"]
    return g_a @ hidden.weights, (g_a.T @ x, g_a.sum(axis=0), g_gamma, g_beta, g_head_w, g_head_b)


def frozen_pairwise_sq_dists(P):
    """Reference for _pairwise_sq_dists: (rows x n x m) blocks summed by np.sum."""
    n, m = P.shape
    rows = max(1, ae._BLOCK_ELEMS // max(1, n * m))
    D = np.empty((n, n))
    for a in range(0, n, rows):
        d = P[a:a + rows, None, :] - P[None, :, :]
        d *= d
        np.sum(d, axis=2, out=D[a:a + rows])
    return D


def frozen_reference_train(ds, config):
    """Reference for train: allocating forward and backward, np.ix_ batch
    distances and Adam on a concatenated gradient; train must equal it bit
    for bit."""
    Z = ds.Z
    params = ae.init_params(ds.m, config)
    Dz = frozen_pairwise_sq_dists(Z) if config.lambda_d != 0.0 else None
    rng = np.random.default_rng(config.seed)
    theta = np.concatenate([params.get_tensor(k).ravel() for k in ae.PARAM_KEYS])
    ends = np.cumsum([params.get_tensor(k).size for k in ae.PARAM_KEYS])[:-1]
    for key, view in zip(ae.PARAM_KEYS, np.split(theta, ends)):
        params.set_tensor(key, view.reshape(params.get_tensor(key).shape))
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    b1, b2, eps, mom = 0.9, 0.999, 1e-8, 0.9  # Kingma & Ba's Adam defaults; batch-norm momentum
    losses, step = [], 0
    for _ in range(config.epochs):
        perm = rng.permutation(ds.n)
        epoch = [0.0, 0.0, 0.0]
        for start in range(0, ds.n, config.batch_size):
            idx = perm[start:start + config.batch_size]
            if idx.size < 2:
                continue
            mask_rng = np.random.default_rng(int(rng.integers(0, 2**63 - 1)))
            batch = Z[idx]
            latent, enc = frozen_half_forward(
                params.enc_hidden, params.enc_out, batch, config.dropout_rate, mask_rng
            )
            recon, dec = frozen_half_forward(
                params.dec_hidden, params.dec_out, latent, config.dropout_rate, mask_rng
            )
            dist, g_dist = 0.0, None
            if Dz is not None:
                lam = config.lambda_d / float(idx.size) ** 2
                Dzb = Dz[np.ix_(idx, idx)]
                Dl = frozen_pairwise_sq_dists(latent)
                diff = Dzb - Dl
                dist = float(lam * np.sum(diff * diff))
                coef = Dl - Dzb
                g_dist = 8.0 * lam * (coef.sum(axis=1)[:, None] * latent - coef @ latent)
            r = batch - recon
            epoch[0] += float(np.sum(r * r))
            epoch[1] += float(config.lambda_r * np.sum(np.abs(latent)))
            epoch[2] += dist

            g_latent, dec_grads = frozen_half_backward(
                params.dec_hidden, params.dec_out, dec, 2.0 * (recon - batch)
            )
            g_latent = g_latent + config.lambda_r * np.sign(latent)
            if g_dist is not None:
                g_latent = g_latent + g_dist
            _, enc_grads = frozen_half_backward(params.enc_hidden, params.enc_out, enc, g_latent)
            for layer, c in ((params.enc_hidden, enc), (params.dec_hidden, dec)):
                layer.bn_running_mean = mom * layer.bn_running_mean + (1.0 - mom) * c["batch_mean"]
                layer.bn_running_var = mom * layer.bn_running_var + (1.0 - mom) * c["batch_var"]

            step += 1
            scale = config.learning_rate * math.sqrt(1.0 - b2**step) / (1.0 - b1**step)
            g = np.concatenate([t.ravel() for t in enc_grads + dec_grads])
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            theta -= (scale * m) / (np.sqrt(v) + eps)
        losses.append(tuple(epoch))
    return params, losses


@pytest.fixture(scope="module")
def wide_survey_normalized(small_synth_config):
    """The small survey with 24 APs, so latent_dim can reach 17."""
    return dsm.normalize(dsm.synthesize(replace(small_synth_config, n_aps=24), seed=11))[0]


class TestTrain:
    @pytest.mark.parametrize("lambda_d", [0.0, 1e-3])
    @pytest.mark.parametrize("dropout_rate", [0.0, 0.2])
    @pytest.mark.parametrize("latent_dim", [1, 4, 7, 8, 9, 16, 17])
    def test_step_equals_frozen_reference(
        self, wide_survey_normalized, latent_dim, dropout_rate, lambda_d, monkeypatch
    ):
        # With no row held out, 193 rows in 48-row batches leave one row,
        # which is skipped. The latent sizes straddle the 8-term branch of
        # the pairwise sum.
        monkeypatch.setattr(ae, "_HOLDOUT_FRACTION", 0.0)
        norm = wide_survey_normalized
        assert norm.n % 48 == 1 and norm.m > 17
        cfg = ae.TrainConfig(
            latent_dim=latent_dim, hidden_dim=12, epochs=3, batch_size=48,
            lambda_d=lambda_d, dropout_rate=dropout_rate, seed=6,
        )
        params, report = ae.train(norm, cfg)
        want, want_losses = frozen_reference_train(norm, cfg)
        for key in ae.PARAM_KEYS:
            assert np.array_equal(params.get_tensor(key), want.get_tensor(key)), key
        for layer in ("enc_hidden", "dec_hidden"):
            got, ref = getattr(params, layer), getattr(want, layer)
            assert np.array_equal(got.bn_running_mean, ref.bn_running_mean)
            assert np.array_equal(got.bn_running_var, ref.bn_running_var)
        got_losses = list(zip(report.recon_losses, report.sparsity_losses, report.distance_losses))
        assert got_losses == want_losses

    def test_train_calls_forward_once_per_step_in_training_mode(
        self, small_survey_normalized, monkeypatch
    ):
        # perfbench counts autoencoder.steps from calls of the module's
        # forward in training mode, positional or keyword.
        norm, _ = small_survey_normalized
        real, modes = ae.forward, []

        def counting_forward(*args, **kwargs):
            modes.append(args[2] if len(args) > 2 else kwargs.get("mode", "inference"))
            return real(*args, **kwargs)

        monkeypatch.setattr(ae, "forward", counting_forward)
        ae.train(norm, ae.TrainConfig(latent_dim=4, hidden_dim=8, epochs=3, batch_size=48, seed=0))
        # 164 fit rows of 193 (29 held out): four 48-row batches per epoch.
        # The held-out check runs through encode and decode, not forward.
        assert modes == ["training"] * 12

    @pytest.mark.parametrize("lambda_d", [1e-3, 0.0])
    def test_flat_adam_equals_per_key_adam(self, small_survey_normalized, lambda_d, monkeypatch):
        # With no row held out, 193 rows in 48-row batches leave one row,
        # which is skipped.
        monkeypatch.setattr(ae, "_HOLDOUT_FRACTION", 0.0)
        norm, _ = small_survey_normalized
        cfg = ae.TrainConfig(
            latent_dim=4, hidden_dim=12, epochs=3, batch_size=48, lambda_d=lambda_d,
            dropout_rate=0.2, seed=4,
        )
        params, report = ae.train(norm, cfg)
        want, want_losses = per_key_adam_train(norm, cfg)
        for key in ae.PARAM_KEYS:
            assert np.array_equal(params.get_tensor(key), want.get_tensor(key)), key
        for layer in ("enc_hidden", "dec_hidden"):
            got, ref = getattr(params, layer), getattr(want, layer)
            assert np.array_equal(got.bn_running_mean, ref.bn_running_mean)
            assert np.array_equal(got.bn_running_var, ref.bn_running_var)
        got_losses = list(zip(report.recon_losses, report.sparsity_losses, report.distance_losses))
        assert got_losses == [tuple(e) for e in want_losses]
        assert (lambda_d == 0.0) == all(e[2] == 0.0 for e in want_losses)

    def test_zero_epochs_returns_init(self, small_survey_normalized):
        norm, _ = small_survey_normalized
        cfg = ae.TrainConfig(latent_dim=4, hidden_dim=8, epochs=0, batch_size=16, seed=3)
        params, report = ae.train(norm, cfg)
        init = ae.init_params(norm.m, cfg)
        for key in params.tensor_keys():
            assert np.array_equal(params.get_tensor(key), init.get_tensor(key))
        assert report.recon_losses == []

    def test_loss_decreases(self, small_survey_normalized):
        norm, _ = small_survey_normalized
        cfg = ae.TrainConfig(latent_dim=4, hidden_dim=12, epochs=60, batch_size=32, seed=0)
        _, report = ae.train(norm, cfg)
        first = report.recon_losses[0] + report.sparsity_losses[0] + report.distance_losses[0]
        last = report.recon_losses[-1] + report.sparsity_losses[-1] + report.distance_losses[-1]
        assert last <= first

    def test_deterministic(self, small_survey_normalized):
        norm, _ = small_survey_normalized
        cfg = ae.TrainConfig(latent_dim=3, hidden_dim=8, epochs=5, batch_size=32, seed=9)
        p1, _ = ae.train(norm, cfg)
        p2, _ = ae.train(norm, cfg)
        for key in p1.tensor_keys():
            assert np.array_equal(p1.get_tensor(key), p2.get_tensor(key))

    def test_distance_weight_improves_isometry(self, small_survey_normalized):
        norm, _ = small_survey_normalized
        base = ae.TrainConfig(latent_dim=4, hidden_dim=16, epochs=250, batch_size=32, seed=1)
        with_d = replace(base, lambda_d=1e-2)
        without_d = replace(base, lambda_d=0.0)
        corr = {}
        for name, cfg in (("on", with_d), ("off", without_d)):
            params, _ = ae.train(norm, cfg)
            latent = ae.encode(params, norm.Z)
            din = np.sqrt(np.sum((norm.Z[:, None] - norm.Z[None, :]) ** 2, axis=2))
            dlat = np.sqrt(np.sum((latent[:, None] - latent[None, :]) ** 2, axis=2))
            iu = np.triu_indices(norm.n, k=1)
            corr[name] = np.corrcoef(din[iu], dlat[iu])[0, 1]
        assert corr["on"] > corr["off"]
        assert corr["on"] > 0.9

    def test_requires_normalized(self, small_survey):
        with pytest.raises(DataError, match="normalized"):
            ae.train(small_survey, ae.TrainConfig(epochs=1, batch_size=16))

    def test_divergence_reports_epoch(self, small_survey_normalized):
        # Adam steps scale with the learning rate, so a pathological rate
        # overflows the squared losses within the first epochs.
        norm, _ = small_survey_normalized
        cfg = ae.TrainConfig(
            latent_dim=4, hidden_dim=8, epochs=3, batch_size=32,
            learning_rate=1e160, seed=0,
        )
        with pytest.raises(TrainingDivergedError, match="epoch"):
            ae.train(norm, cfg)


def assert_same_state(got, want):
    """Every tensor and both layers' batch-norm running statistics agree bit for bit."""
    for key in ae.PARAM_KEYS:
        assert np.array_equal(got.get_tensor(key), want.get_tensor(key)), key
    for layer in ("enc_hidden", "dec_hidden"):
        a, b = getattr(got, layer), getattr(want, layer)
        assert np.array_equal(a.bn_running_mean, b.bn_running_mean), layer
        assert np.array_equal(a.bn_running_var, b.bn_running_var), layer


# A learning rate 30x the default overfits the small survey's 164 fit rows
# early, so the held-out rule stops the run far below its cap.
FAST_CFG = ae.TrainConfig(
    latent_dim=4, hidden_dim=12, epochs=1000, batch_size=32, learning_rate=0.03, seed=3,
)


class TestEarlyStopping:
    @pytest.fixture(scope="class")
    def stopped(self, small_survey_normalized):
        norm, stats = small_survey_normalized
        return ae.train(norm, FAST_CFG, stats)

    def test_stopped_run_equals_run_to_its_best_epoch(self, small_survey_normalized, stopped):
        norm, stats = small_survey_normalized
        params, report = stopped
        b = report.best_epoch
        run = len(report.recon_losses)
        assert run == b + ae._CHECK_EVERY * ae._PATIENCE < FAST_CFG.epochs
        checked = [e for e, mse in enumerate(report.heldout_mse, 1) if mse is not None]
        assert checked == list(range(ae._CHECK_EVERY, run + 1, ae._CHECK_EVERY))
        assert report.heldout_mse[b - 1] == min(mse for mse in report.heldout_mse if mse is not None)
        assert all(mse > report.heldout_mse[b - 1] for mse in report.heldout_mse[b:] if mse is not None)

        short, short_report = ae.train(norm, replace(FAST_CFG, epochs=b), stats)
        assert_same_state(params, short)
        assert short_report.best_epoch == b
        assert short_report.recon_losses == report.recon_losses[:b]
        assert short_report.heldout_mse == report.heldout_mse[:b]
        assert (short_report.final_rmse, short_report.final_rmse_dbm) == (
            report.final_rmse, report.final_rmse_dbm
        )

    def test_final_rmse_covers_every_row(self, small_survey_normalized, stopped):
        norm, stats = small_survey_normalized
        params, report = stopped
        assert report.final_rmse == ae.reconstruction_rmse(params, norm.Z)
        assert report.final_rmse_dbm == ae.reconstruction_rmse(params, norm.Z, stats)

    def test_same_seed_reruns_are_identical(self, small_survey_normalized, stopped):
        norm, stats = small_survey_normalized
        params, report = stopped
        again, again_report = ae.train(norm, FAST_CFG, stats)
        assert_same_state(again, params)
        assert again_report == report

    def test_heldout_rows_never_enter_a_step(self, small_survey_normalized, rng):
        norm, _ = small_survey_normalized
        cfg = replace(FAST_CFG, epochs=9)
        fit, held = ae._split_rows(norm.n, cfg)
        assert held.size == round(ae._HOLDOUT_FRACTION * norm.n) and fit.size + held.size == norm.n
        assert np.array_equal(np.sort(np.concatenate([fit, held])), np.arange(norm.n))
        assert np.all(np.diff(fit) > 0) and np.all(np.diff(held) > 0)
        Z = norm.Z.copy()
        Z[held] = rng.normal(size=(held.size, norm.m))
        base, _ = ae.train(norm, cfg)
        moved, _ = ae.train(replace(norm, Z=Z), cfg)
        assert_same_state(moved, base)
        Z[fit[0]] += 1.0
        touched, _ = ae.train(replace(norm, Z=Z), cfg)
        assert not np.array_equal(touched.enc_hidden.weights, base.enc_hidden.weights)

    def test_zero_fraction_runs_every_epoch_unchecked(self, small_survey_normalized, monkeypatch):
        monkeypatch.setattr(ae, "_HOLDOUT_FRACTION", 0.0)
        norm, _ = small_survey_normalized
        _, report = ae.train(norm, replace(FAST_CFG, epochs=25))
        assert report.heldout_mse == [None] * 25
        assert report.best_epoch == 25 == len(report.recon_losses)

    def test_survey_smaller_than_batch_size(self, small_survey_normalized):
        norm, _ = small_survey_normalized
        with pytest.raises(DataError, match=rf"^{norm.n} rows are fewer than batch_size={norm.n + 1}$"):
            ae.train(norm, replace(FAST_CFG, batch_size=norm.n + 1))

    @pytest.mark.parametrize("fraction", [0.15, 0.9])
    def test_held_out_split_leaves_at_least_one_batch(self, small_survey_normalized, fraction, monkeypatch):
        monkeypatch.setattr(ae, "_HOLDOUT_FRACTION", fraction)
        norm, _ = small_survey_normalized
        batch = norm.n - 20
        fit, held = ae._split_rows(norm.n, replace(FAST_CFG, batch_size=batch))
        assert (fit.size, held.size) == (batch, 20)

    def test_survey_of_one_batch_trains_as_with_no_holdout(self, small_survey_normalized, monkeypatch):
        norm, _ = small_survey_normalized
        cfg = replace(FAST_CFG, epochs=12, batch_size=norm.n)
        params, report = ae.train(norm, cfg)
        monkeypatch.setattr(ae, "_HOLDOUT_FRACTION", 0.0)
        want, want_report = ae.train(norm, cfg)
        assert_same_state(params, want)
        assert report == want_report
        assert report.heldout_mse == [None] * 12

    @pytest.mark.parametrize("n", [2, 3])
    def test_tiny_survey_of_one_batch_trains_every_row(self, small_survey_normalized, n):
        # round(0.15 * 3) is 0 and the cap n - batch_size is 0 too: no row
        # is held out, no check runs and every epoch is kept.
        norm, _ = small_survey_normalized
        tiny = replace(norm, X=norm.X[:n], Z=norm.Z[:n])
        fit, held = ae._split_rows(n, replace(FAST_CFG, batch_size=n))
        assert (fit.size, held.size) == (n, 0)
        _, report = ae.train(tiny, replace(FAST_CFG, epochs=5, batch_size=n))
        assert report.heldout_mse == [None] * 5
        assert report.best_epoch == 5 == len(report.recon_losses)


@pytest.fixture(scope="module")
def trained(small_survey_normalized):
    norm, stats = small_survey_normalized
    cfg = ae.TrainConfig(latent_dim=4, hidden_dim=12, epochs=40, batch_size=32, seed=5)
    params, _ = ae.train(norm, cfg, stats)
    return params, norm


class TestEncodeDecode:

    def test_single_row_matches_batch(self, trained):
        params, norm = trained
        full = ae.encode(params, norm.Z)
        one = ae.encode(params, norm.Z[7])
        np.testing.assert_allclose(one, full[7], rtol=1e-12, atol=1e-15)

    def test_encode_deterministic(self, trained):
        params, norm = trained
        assert np.array_equal(ae.encode(params, norm.Z), ae.encode(params, norm.Z))

    def test_decode_dim_check(self, trained):
        params, _ = trained
        with pytest.raises(DataError):
            ae.decode(params, np.zeros((2, params.latent_dim + 1)))

    def test_undercomplete_enforced(self):
        cfg = ae.TrainConfig(latent_dim=6, hidden_dim=8)
        with pytest.raises(ConfigError):
            ae.init_params(6, cfg)


class TestSerialization:
    @staticmethod
    def roundtrip(params):
        return ae.params_from_dict(json.loads(json.dumps(ae.params_to_dict(params))))

    def test_roundtrip_exact(self, rng):
        params = toy_params(rng)
        back = self.roundtrip(params)
        for key in params.tensor_keys():
            assert np.array_equal(params.get_tensor(key), back.get_tensor(key))
        for layer in ("enc_hidden", "dec_hidden"):
            a, b = getattr(params, layer), getattr(back, layer)
            assert np.array_equal(a.bn_running_mean, b.bn_running_mean)
            assert np.array_equal(a.bn_running_var, b.bn_running_var)
        assert (back.input_dim, back.latent_dim, back.hidden_dim) == (6, 3, 4)

    @pytest.mark.parametrize("edit,fragment", [
        (lambda d: d["enc_hidden"]["biases"].pop(), "enc_hidden.biases"),
        (lambda d: d["dec_hidden"]["bn_running_var"].pop(), "dec_hidden.bn_running_var"),
        (lambda d: d["enc_hidden"].pop("bn_gamma"), "enc_hidden.bn_gamma"),
        (lambda d: d["dec_out"].update(bn_beta=[0.0] * 6), "dec_out.bn_beta"),
        # The latent width is enc_out's row count, so its biases disagree.
        (lambda d: d["enc_out"]["weights"].pop(), r"enc_out.biases has shape \(3,\), expected \(2,\)"),
        (lambda d: [row.pop() for row in d["dec_out"]["weights"]],
         r"dec_out.weights has shape \(6, 3\), expected \(6, 4\)"),
    ], ids=["biases_short", "running_var_short", "hidden_without_gamma", "head_with_batchnorm",
            "weights_row_short", "hidden_dim_disagrees"])
    def test_shapes_checked(self, edit, fragment, rng):
        doc = json.loads(json.dumps(ae.params_to_dict(toy_params(rng))))
        edit(doc)
        with pytest.raises(ConfigError, match=fragment):
            ae.params_from_dict(doc)

    def test_behavioral_roundtrip(self, rng):
        params = toy_params(rng)
        Z = rng.normal(size=(5, 6))
        before = ae.encode(params, Z)
        after = ae.encode(self.roundtrip(params), Z)
        assert np.array_equal(before, after)
