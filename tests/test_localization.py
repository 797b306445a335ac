import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rss_atlas import dataset as dsm
from rss_atlas import gp_map, localization as loc
from rss_atlas.errors import ConfigError, DataError


def far_prior_pipeline(d, sigma_s2=1.0):
    """Pipeline whose GP reverts to the prior at the queried location:
    one training point placed far away, so mean -> 0 and var -> sigma_s2."""
    hp = gp_map.GpHyperparams(signal_variance=sigma_s2, length_scale=1.0, noise_variance=0.0)
    X = np.array([[1000.0, 1000.0]])
    Y = np.zeros((1, d))
    gp = gp_map.fit(X, Y, hp)
    return loc.Pipeline(
        label="prior", compressor=loc.IdentityCompressor(d), gp=gp,
        latent_mean=np.zeros(d), latent_std=np.ones(d),
    )


class TestGrid:
    def test_cover_includes_margin(self):
        pts = np.array([[0.0, 0.0], [10.0, 6.0]])
        grid = loc.Grid.cover(pts, cell_size=1.0, margin_cells=2)
        assert grid.origin_x == -2.0 and grid.origin_y == -2.0
        assert grid.width >= 14 and grid.height >= 10

    def test_cell_centers_order(self):
        grid = loc.Grid(origin_x=0.0, origin_y=0.0, cell_size=1.0, width=2, height=3)
        centers = grid.cell_centers()
        # x-major: index = ix * height + iy
        np.testing.assert_allclose(centers[0], [0.5, 0.5])
        np.testing.assert_allclose(centers[1], [0.5, 1.5])
        np.testing.assert_allclose(centers[3], [1.5, 0.5])

    def test_cell_of_inverts_center(self):
        grid = loc.Grid(origin_x=-3.0, origin_y=2.0, cell_size=0.5, width=8, height=5)
        for ix in (0, 3, 7):
            for iy in (0, 2, 4):
                assert grid.cell_of(grid.cell_center(ix, iy)) == (ix, iy)

    def test_invalid(self):
        with pytest.raises(ConfigError):
            loc.Grid(0.0, 0.0, cell_size=0.0, width=2, height=2)


class TestPipeline:
    @pytest.mark.parametrize("name", ["latent_mean", "latent_std"])
    def test_latent_stats_must_have_output_dim_entries(self, name):
        pipe = far_prior_pipeline(d=3)
        kwargs = dict(vars(pipe), **{name: np.zeros(2)})
        with pytest.raises(ConfigError, match=f"{name} has shape \\(2,\\), expected \\(3,\\)"):
            loc.Pipeline(**kwargs)


class TestPointLikelihood:
    def test_single_dim_standard_normal_mode(self):
        pipe = far_prior_pipeline(d=1, sigma_s2=1.0)
        got = loc.point_likelihood(pipe, np.zeros(1), [0.0, 0.0])
        assert got == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-9)

    def test_two_dims_product_of_modes(self):
        pipe = far_prior_pipeline(d=2, sigma_s2=1.0)
        got = loc.point_likelihood(pipe, np.zeros(2), [0.0, 0.0])
        assert got == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-9)

    def test_matches_density_product_oracle(self, rng):
        d = 3
        hp = gp_map.GpHyperparams(signal_variance=0.8, length_scale=4.0, noise_variance=0.05)
        X = rng.uniform(0, 10, size=(8, 2))
        Y = rng.normal(size=(8, d))
        gp = gp_map.fit(X, Y, hp)
        pipe = loc.Pipeline(
            label="id", compressor=loc.IdentityCompressor(d), gp=gp,
            latent_mean=np.zeros(d), latent_std=np.ones(d),
        )
        z = rng.normal(size=d)
        x_star = rng.uniform(0, 10, size=2)
        mean, var = gp_map.predict(gp, x_star)
        want = 1.0
        for k in range(d):
            wantk = math.exp(-((mean[k] - z[k]) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)
            want *= wantk
        assert loc.point_likelihood(pipe, z, x_star) == pytest.approx(want, rel=1e-10)


class TestLikelihoodField:
    def test_sums_to_one(self, rng):
        pipe = far_prior_pipeline(d=2)
        grid = loc.Grid(0.0, 0.0, 1.0, 12, 9)
        fld = loc.likelihood_field(pipe, rng.normal(size=2), grid)
        assert abs(fld.mass.sum() - 1.0) <= 1e-9

    def test_scale_invariance_of_normalization(self, rng):
        grid = loc.Grid(0.0, 0.0, 1.0, 5, 4)
        lv = rng.normal(size=20)
        a = loc.LikelihoodField.from_log(grid, lv)
        b = loc.LikelihoodField.from_log(grid, lv + math.log(2.0))
        np.testing.assert_allclose(a.mass, b.mass, rtol=1e-12)

    def test_log_space_matches_direct_product(self, rng):
        # Where no underflow occurs, exp of the log-space value equals the
        # direct per-dimension product.
        pipe = far_prior_pipeline(d=2)
        grid = loc.Grid(990.0, 990.0, 2.0, 4, 4)
        z = rng.normal(size=2) * 0.3
        builder = loc.FieldBuilder(pipe, grid)
        lv = builder.log_likelihoods(z)
        for idx, center in enumerate(grid.cell_centers()):
            direct = loc.point_likelihood(pipe, z, center)
            assert math.exp(lv[idx]) == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize("offset", [0.0, 123.4, -5e4])
    def test_from_log_equals_the_unclamped_formula(self, rng, offset):
        # Log values spanning [-1e5, 0] below the peak, a third of them
        # around exp's underflow edge (about -745.13) and the -746 clamp.
        grid = loc.Grid(0.0, 0.0, 1.0, 40, 25)
        lv = np.concatenate([
            -rng.uniform(0.0, 1e5, 400),
            -rng.uniform(744.0, 747.0, 300),
            -rng.uniform(0.0, 40.0, 296),
            [0.0, -745.13, -746.0, -np.inf],
        ]) + offset
        rng.shuffle(lv)
        before = lv.copy()
        got = loc.LikelihoodField.from_log(grid, lv).mass
        shifted = np.exp(lv - lv.max())
        mass = shifted / float(shifted.sum())
        want = mass / float(mass.sum())
        assert np.array_equal(got, want.reshape(grid.width, grid.height))
        assert np.array_equal(lv, before)
        assert 0 < np.count_nonzero(got) < grid.n_cells

    def test_underflow_everywhere_is_error(self):
        grid = loc.Grid(0.0, 0.0, 1.0, 2, 2)
        with pytest.raises(loc.LikelihoodUnderflowError):
            loc.LikelihoodField.from_log(grid, np.full(4, -np.inf))

    def test_argmax_near_training_point_on_dense_noiseless_survey(self):
        area = (30.0, 20.0)
        cfg = dsm.SynthEnvConfig(
            area=area, n_aps=10, shadowing_std_dbm=0.0,
            waypoints=dsm.serpentine_waypoints(area, 3.0, 4.0), sample_spacing_m=1.0,
        )
        ds = dsm.synthesize(cfg, seed=4)
        norm, _ = dsm.normalize(ds)
        hp = gp_map.GpHyperparams(signal_variance=1.0, length_scale=5.0, noise_variance=0.01)
        gp = gp_map.fit(norm.X, norm.Z, hp)
        pipe = loc.Pipeline(
            label="id", compressor=loc.IdentityCompressor(norm.m), gp=gp,
            latent_mean=np.zeros(norm.m), latent_std=np.ones(norm.m),
        )
        grid = loc.Grid.cover(norm.X, 1.0, 2)
        for i in (5, 20, 40):
            fld = loc.likelihood_field(pipe, norm.Z[i], grid)
            ax, ay = fld.argmax_center()
            err = math.hypot(ax - norm.X[i, 0], ay - norm.X[i, 1])
            assert err <= grid.cell_size * math.sqrt(2.0)


def random_pipeline(n, d, hp, seed=0):
    """Identity pipeline whose GP is fitted on n random points in a 90 x 50 m area."""
    rng = np.random.default_rng(seed)
    X = rng.uniform([0.0, 0.0], [90.0, 50.0], size=(n, 2))
    gp = gp_map.fit(X, rng.normal(size=(n, d)), hp)
    return loc.Pipeline(
        label="rand", compressor=loc.IdentityCompressor(d), gp=gp,
        latent_mean=np.zeros(d), latent_std=np.ones(d),
    )


BLOCK_NS = [60, 150, 300, 418]
BLOCK_HPS = {
    "l10": gp_map.GpHyperparams(signal_variance=1.0, length_scale=10.0, noise_variance=0.05),
    "l40": gp_map.GpHyperparams(signal_variance=0.5, length_scale=40.0, noise_variance=0.01),
}
# Grids whose cells end in a partial last chunk of gp_map._ROWS (the first
# two), fill less than one chunk, fill three chunks exactly, and fill two
# chunks and one cell.
BLOCK_SHAPES = [(100, 60), (41, 101), (10, 20), (32, 24), (27, 19)]
BLAS_THREADS = (1, 2)


def blocked_vs_whole_mismatches(n, hp_id, shape):
    """Names of the FieldBuilder tables that differ from one whole-grid predict_batch."""
    pipe = random_pipeline(n, 5, BLOCK_HPS[hp_id])
    grid = loc.Grid(-5.0, -5.0, 1.0, *shape)
    builder = loc.FieldBuilder(pipe, grid)
    means, variances = gp_map.predict_batch(pipe.gp, grid.cell_centers())
    want = {
        "_means": means,
        "_mean_sq": np.sum(means * means, axis=1),
        "_variances": variances,
        "_log_norm": -0.5 * 5 * (loc.LOG_2PI + np.log(variances)),
    }
    return [name for name, table in want.items() if not np.array_equal(getattr(builder, name), table)]


# Runs blocked_vs_whole_mismatches on every case in a fresh process, so that
# OPENBLAS_NUM_THREADS takes effect, and prints one JSON list per case.
MISMATCH_CHILD = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("test_localization", sys.argv[1])
tests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tests)
print(json.dumps([
    [n, hp, list(shape), tests.blocked_vs_whole_mismatches(n, hp, shape)]
    for n in tests.BLOCK_NS for hp in tests.BLOCK_HPS for shape in tests.BLOCK_SHAPES
]))
"""


@pytest.fixture(scope="module")
def mismatches_by_threads():
    """{threads: {(n, hp, shape): mismatching table names}} from one child per thread count."""
    src = str(Path(loc.__file__).resolve().parents[1])
    out = {}
    for threads in BLAS_THREADS:
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        child = subprocess.run(
            [sys.executable, "-c", MISMATCH_CHILD, __file__],
            capture_output=True, text=True, env=env, timeout=600,
        )
        assert child.returncode == 0, child.stderr
        cases = json.loads(child.stdout.splitlines()[-1])
        out[threads] = {(n, hp, tuple(shape)): names for n, hp, shape, names in cases}
    return out


def dense_solve_predict_batch(model, X_star):
    """predict_batch from LAPACK's general solve with the Gram matrix, the
    cross-kernel laid out n x k: an oracle that shares no solve with it."""
    hp = model.hyperparams
    k_star = gp_map.kernel_matrix(model.X_train, X_star, hp)
    v = np.linalg.solve(gp_map.gram_matrix(model.X_train, hp), k_star)
    means = v.T @ model.Y
    variances = hp.signal_variance + hp.noise_variance - np.sum(k_star * v, axis=0)
    return means, np.where(variances < 1e-12, 1e-12, variances)


# Largest deviation from the dense-solve oracle, relative to the prior
# variance s2 + sn2 (variances) and to the largest mean (means). Measured
# on the maps below: at most 2.7e-15 for the variances and 1.0e-13 for the
# means, both at l = 40 m. There each mean of these random targets is a sum
# of terms about 750 times its size, and the package's means and the
# oracle's each lie about 9e-14 from an iteratively refined solve, so the
# means get MEAN_RTOL.
ORACLE_RTOL = 1e-13
MEAN_RTOL = 1e-12


def assert_near_oracle(model, X_star, means, variances):
    want_means, want_variances = dense_solve_predict_batch(model, X_star)
    hp = model.hyperparams
    prior = hp.signal_variance + hp.noise_variance
    assert np.max(np.abs(variances - want_variances)) <= ORACLE_RTOL * prior
    assert np.max(np.abs(means - want_means)) <= MEAN_RTOL * np.max(np.abs(want_means))


class TestFieldBuilder:
    def test_block_shapes_end_their_chunks_every_way(self):
        rows = gp_map._ROWS
        cells = [loc.Grid(-5.0, -5.0, 1.0, *shape).n_cells for shape in BLOCK_SHAPES]
        for partial in cells[:2]:
            assert partial > 2 * rows
            assert partial % rows > 1
        assert cells[2] < rows
        assert cells[3] % rows == 0 and cells[3] > rows
        assert cells[4] % rows == 1 and cells[4] > rows

    @pytest.mark.parametrize("n", BLOCK_NS)
    @pytest.mark.parametrize("hp", list(BLOCK_HPS))
    @pytest.mark.parametrize("shape", BLOCK_SHAPES)
    def test_blocks_equal_one_whole_grid_prediction(self, n, hp, shape, mismatches_by_threads):
        got = {threads: mismatches_by_threads[threads][(n, hp, shape)] for threads in BLAS_THREADS}
        assert got == {threads: [] for threads in BLAS_THREADS}

    @pytest.mark.parametrize("length_scale", [2.0, 10.0, 40.0])
    def test_tables_and_predictions_equal_the_n_by_k_oracle(self, length_scale):
        hp = gp_map.GpHyperparams(signal_variance=0.5, length_scale=length_scale, noise_variance=0.05)
        pipe = random_pipeline(300, 10, hp)
        grid = loc.Grid(-25.0, -20.0, 1.5, 103, 61)
        starts = range(0, grid.n_cells, gp_map._ROWS)
        assert len(starts) > 2 and all(start % grid.height for start in starts[1:])
        builder = loc.FieldBuilder(pipe, grid)
        centers = grid.cell_centers()
        # Chunk by chunk, the same products on the same rows: bit for bit.
        for start in starts:
            stop = start + gp_map._ROWS
            means, variances = gp_map.predict_batch(pipe.gp, centers[start:stop])
            assert np.array_equal(builder._means[start:stop], means)
            assert np.array_equal(builder._mean_sq[start:stop], np.sum(means * means, axis=1))
            assert np.array_equal(builder._variances[start:stop], variances)

        assert_near_oracle(pipe.gp, centers, builder._means, builder._variances)
        for x_star in centers[:: grid.n_cells // 7]:
            mean, variance = gp_map.predict(pipe.gp, x_star)
            assert_near_oracle(pipe.gp, x_star[None, :], mean[None, :], np.array([variance]))

    def test_log_likelihoods_equal_the_plain_expression(self, rng):
        hp = gp_map.GpHyperparams(signal_variance=0.5, length_scale=10.0, noise_variance=0.05)
        pipe = random_pipeline(120, 6, hp)
        builder = loc.FieldBuilder(pipe, loc.Grid(-10.0, -10.0, 1.0, 30, 20))
        for z in rng.normal(size=(5, 6)) * [[0.1], [1.0], [3.0], [10.0], [100.0]]:
            f = pipe.encode(z)
            resid_sq = builder._mean_sq - 2.0 * (builder._means @ f) + float(f @ f)
            np.maximum(resid_sq, 0.0, out=resid_sq)
            want = builder._log_norm - 0.5 * resid_sq / builder._variances
            assert np.array_equal(builder.log_likelihoods(z), want)

    def test_precompute_memory_is_bounded_by_the_block(self):
        # numpy reports its buffers to tracemalloc. Beyond the per-cell tables,
        # the dx^2 / dy^2 axis tables, the map's n x n factor and its d x n
        # V = L^-1 Y, the precompute holds one n x _ROWS buffer for all chunks. `tables` also counts
        # _log_norm, which is built after the chunks: until then its room
        # holds the factor's block inverses, the solve's panel and numpy's
        # buffer for the solve's strided subtraction; the kernel floor's
        # boolean mask takes 1/8 of a buffer. Measured at numpy 2.4: 1.096
        # buffers over the tables.
        # A buffer allocated per chunk holds two n x _ROWS arrays while the
        # next is made, and _mean_sq taken over the whole means table makes
        # a cells x d temporary: either breaks the bound of 1.125.
        n, d = 300, 16
        hp = gp_map.GpHyperparams(signal_variance=1.0, length_scale=10.0, noise_variance=0.05)
        pipe = random_pipeline(n, d, hp)
        grid = loc.Grid(0.0, 0.0, 1.0, 200, 100)
        tables = 8 * grid.n_cells * (d + 3) + 8 * n * (grid.width + grid.height) + 8 * n * n + 8 * n * d
        tracemalloc.start()
        try:
            loc.FieldBuilder(pipe, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= tables + 8 * 1.125 * n * gp_map._ROWS


def scoring_case(n_test, seed=0, d=5, noise=0.3):
    """A random identity pipeline, a small grid and a normalized test set of
    n_test rows whose readings are the map's means at the true locations
    plus noise of the given scale. Row 0 lies on a cell corner, row 1 on a
    vertical cell edge and row 2 outside the grid."""
    hp = gp_map.GpHyperparams(signal_variance=1.0, length_scale=10.0, noise_variance=0.05)
    pipe = random_pipeline(60, d, hp, seed=seed)
    grid = loc.Grid(-5.0, -4.0, 2.0, 51, 29)
    rng = np.random.default_rng(seed + 100)
    X = rng.uniform([0.0, 0.0], [90.0, 50.0], size=(n_test, 2))
    X[:3] = [
        [grid.origin_x + 17 * grid.cell_size, grid.origin_y + 9 * grid.cell_size],
        [grid.origin_x + 30 * grid.cell_size, 21.3],
        [120.0, -30.0],
    ][:n_test]
    means, _ = gp_map.predict_batch(pipe.gp, X)
    Z = means + rng.normal(scale=noise, size=means.shape)
    test_set = dsm.SurveyDataset(X=X, Z=Z, ap_ids=[f"ap{j}" for j in range(d)], normalized=True)
    return pipe, grid, test_set


def field_scores(pipe, grid, test_set, sigma):
    """Per-point KL and argmax error from field_for, ideal_posterior and kl_divergence."""
    builder = loc.FieldBuilder(pipe, grid)
    kls, errors = [], []
    for x, z in zip(test_set.X, test_set.Z):
        fld = builder.field_for(z)
        kls.append(loc.kl_divergence(loc.ideal_posterior(grid, x, sigma), fld))
        ax, ay = fld.argmax_center()
        errors.append(math.hypot(ax - x[0], ay - x[1]))
    return np.array(kls), np.array(errors)


SCORING_SIZES = [1, loc._POINTS - 1, loc._POINTS, loc._POINTS + 1, 2 * loc._POINTS + 1]


class TestBlockScoring:
    @pytest.mark.parametrize("n_test", SCORING_SIZES)
    @pytest.mark.parametrize("sigma", [1.5, 10.0])
    def test_equals_the_field_oracle(self, n_test, sigma):
        pipe, grid, test_set = scoring_case(n_test)
        want_kl, want_errors = field_scores(pipe, grid, test_set, sigma)
        got = loc.evaluate([pipe], test_set, grid, sigma)[0]
        assert got.kl_values.shape == (n_test,)
        assert np.min(want_kl) > 0.1
        np.testing.assert_allclose(got.kl_values, want_kl, rtol=1e-12, atol=0.0)
        assert np.array_equal(got.argmax_errors_m, want_errors)

    def test_cells_below_the_q_floor_score_as_kl_divergence_floors_them(self):
        # Noisy readings make sharp fields: every row has cells whose q is
        # below 1e-300 (at least 2% of the grid), where the ideal still has mass.
        pipe, grid, test_set = scoring_case(loc._POINTS + 3, noise=10.0)
        builder = loc.FieldBuilder(pipe, grid)
        floored = [np.mean(builder.field_for(z).mass < loc._Q_FLOOR) for z in test_set.Z]
        assert min(floored) > 0.01
        want_kl, want_errors = field_scores(pipe, grid, test_set, 10.0)
        got = loc.evaluate([pipe], test_set, grid, 10.0)[0]
        np.testing.assert_allclose(got.kl_values, want_kl, rtol=1e-12, atol=0.0)
        assert np.array_equal(got.argmax_errors_m, want_errors)

    def test_boundary_and_off_grid_rows_are_what_they_claim(self):
        _, grid, test_set = scoring_case(3)
        (x0, y0), (x1, y1), (x2, y2) = test_set.X
        assert ((x0 - grid.origin_x) / grid.cell_size, (y0 - grid.origin_y) / grid.cell_size) == (17, 9)
        assert (x1 - grid.origin_x) / grid.cell_size == 30
        assert x2 > grid.origin_x + grid.width * grid.cell_size and y2 < grid.origin_y

    def test_single_rows_keep_the_matrix_vector_bits(self):
        # field_for, a one-row block and a plain measurement give the same
        # log values; a row inside a block agrees to rounding. A value near
        # 0 (one reads -0.0101) is the difference of terms near the row's
        # largest, so the bound also allows 1e-13 of the row's largest value.
        pipe, grid, test_set = scoring_case(loc._POINTS + 1)
        builder = loc.FieldBuilder(pipe, grid)
        block = builder.log_likelihoods(test_set.Z)
        assert block.shape == (test_set.n, grid.n_cells)
        for i, z in enumerate(test_set.Z):
            one = builder.log_likelihoods(z)
            assert np.array_equal(builder.log_likelihoods(test_set.Z[i : i + 1]), one[None, :])
            np.testing.assert_allclose(block[i], one, rtol=1e-13, atol=1e-13 * np.max(np.abs(one)))

    @pytest.mark.parametrize("bad", [[5], [11, 13], [16]])
    def test_a_non_finite_row_is_named_by_its_own_index(self, bad):
        # latent_std 1e-300 sends every nonzero reading's |f|^2 to inf, so
        # only the zero rows have a finite peak.
        pipe, grid, test_set = scoring_case(2 * loc._POINTS + 1)
        pipe = replace(pipe, latent_std=np.full(pipe.gp.output_dim, 1e-300))
        Z = np.zeros_like(test_set.Z)
        Z[bad] = 1.0
        test_set = replace(test_set, Z=Z)
        with pytest.raises(
            loc.LikelihoodUnderflowError,
            match=f"^pipeline rand: test point {bad[0]}: every cell's log likelihood is non-finite",
        ):
            loc.evaluate([pipe], test_set, grid, sigma=10.0)

    def test_evaluate_makes_one_product_per_block_and_raster(self, monkeypatch):
        # A per-point loop would call log_likelihoods once per test row.
        pipe, grid, test_set = scoring_case(2 * loc._POINTS + 1)
        rows = []
        log_likelihoods = loc.FieldBuilder.log_likelihoods

        def counting(self, Z):
            rows.append(np.shape(Z))
            return log_likelihoods(self, Z)

        monkeypatch.setattr(loc.FieldBuilder, "log_likelihoods", counting)
        rasters = (9, 0)
        loc.evaluate([pipe, replace(pipe, label="again")], test_set, grid, 10.0, rasters)
        blocks = -(-test_set.n // loc._POINTS)
        assert len(rows) == 2 * (blocks + len(rasters))
        d = test_set.m
        per_pipeline = [(loc._POINTS, d), (loc._POINTS, d), (1, d), (d,), (d,)]
        assert rows == 2 * per_pipeline

    def test_scoring_memory_is_one_block_and_the_marginals(self, monkeypatch):
        # numpy reports its buffers to tracemalloc. Beyond the builder's
        # tables, scoring holds a block's log values, one row of its exp, the
        # block's (log Q) p_y products and the ideal's x and y marginals of
        # every test row; the rest is per-row scalars and Python's own
        # objects (measured at numpy 2.4: 4.6 KB). A product that copied
        # the means table (d = 20 columns, 3.8 MB), an exp of the whole block
        # or one block of the whole test set breaks the bound.
        n, d = 40, 20
        pipe, _, test_set = scoring_case(n, d=d)
        grid = loc.Grid(-5.0, -5.0, 0.5, 200, 120)
        builder = loc.FieldBuilder(pipe, grid)
        monkeypatch.setattr(loc, "FieldBuilder", lambda pipeline, grid: builder)
        block = (loc._POINTS + 1) * grid.n_cells + loc._POINTS * grid.width
        budget = 8 * (block + n * (grid.width + grid.height))
        tracemalloc.start()
        try:
            loc.evaluate([pipe], test_set, grid, sigma=10.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= budget + 16 * 1024, (peak, budget)


def meshgrid_ideal_posterior(grid, x_true, sigma):
    """ideal_posterior as a distance from every row of cell_centers()."""
    d = grid.cell_centers() - np.asarray(x_true, dtype=float)
    log_density = (
        -np.sum(d * d, axis=1) / (2.0 * sigma * sigma) - loc.LOG_2PI - 2.0 * math.log(sigma)
    )
    return loc.LikelihoodField.from_log(grid, log_density)


class TestIdealPosterior:
    @pytest.mark.parametrize("where", ["on_cell", "off_cell", "off_grid"])
    def test_separable_form_equals_meshgrid_oracle(self, where, rng):
        grid = loc.Grid(-3.7, 12.25, 0.8, 37, 23)
        points = {
            "on_cell": [grid.cell_center(ix, iy) for ix, iy in ((0, 0), (17, 9), (36, 22))],
            "off_cell": list(rng.uniform([-3.7, 12.25], [25.9, 30.65], size=(5, 2))),
            "off_grid": [(-40.2, 3.3), (100.0, 20.0), (10.0, -1e3)],
        }[where]
        for x_true in points:
            for sigma in (0.7, 10.0):
                got = loc.ideal_posterior(grid, x_true, sigma)
                want = meshgrid_ideal_posterior(grid, x_true, sigma)
                assert np.array_equal(got.mass, want.mass)

    def test_argmax_cell_contains_truth(self, rng):
        grid = loc.Grid(0.0, 0.0, 1.0, 20, 15)
        for _ in range(10):
            x_true = rng.uniform([1.0, 1.0], [19.0, 14.0])
            fld = loc.ideal_posterior(grid, x_true, sigma=3.0)
            flat = int(np.argmax(fld.mass))
            ix, iy = divmod(flat, grid.height)
            assert (ix, iy) == grid.cell_of(x_true)

    def test_reflection_symmetry(self):
        grid = loc.Grid(0.0, 0.0, 1.0, 11, 11)
        center = grid.cell_center(5, 5)
        fld = loc.ideal_posterior(grid, center, sigma=2.5)
        np.testing.assert_allclose(fld.mass, fld.mass[::-1, :], rtol=1e-12)
        np.testing.assert_allclose(fld.mass, fld.mass[:, ::-1], rtol=1e-12)

    def test_matches_per_cell_oracle(self):
        grid = loc.Grid(0.0, 0.0, 2.0, 6, 5)
        x_true = np.array([4.3, 3.7])
        sigma = 5.0
        fld = loc.ideal_posterior(grid, x_true, sigma)
        dens = np.empty((6, 5))
        for ix in range(6):
            for iy in range(5):
                cx, cy = grid.cell_center(ix, iy)
                r2 = (cx - x_true[0]) ** 2 + (cy - x_true[1]) ** 2
                dens[ix, iy] = math.exp(-r2 / (2 * sigma**2))
        dens /= dens.sum()
        np.testing.assert_allclose(fld.mass, dens, rtol=1e-10)

    def test_sigma_positive_required(self):
        grid = loc.Grid(0.0, 0.0, 1.0, 3, 3)
        with pytest.raises(ConfigError):
            loc.ideal_posterior(grid, [1.0, 1.0], sigma=0.0)


class TestKlDivergence:
    def test_self_divergence_zero(self, rng):
        grid = loc.Grid(0.0, 0.0, 1.0, 6, 6)
        fld = loc.ideal_posterior(grid, [3.0, 3.0], 2.0)
        assert loc.kl_divergence(fld, fld) == 0.0

    def test_two_cell_hand_computation(self):
        grid = loc.Grid(0.0, 0.0, 1.0, 2, 1)
        p = loc.LikelihoodField(grid, np.array([[0.5], [0.5]]))
        q = loc.LikelihoodField(grid, np.array([[0.75], [0.25]]))
        want = 0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
        got = loc.kl_divergence(p, q)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(0.14384, abs=5e-6)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_non_negative(self, seed):
        rng = np.random.default_rng(seed)
        grid = loc.Grid(0.0, 0.0, 1.0, 4, 3)
        a = rng.uniform(0.01, 1.0, size=(4, 3))
        b = rng.uniform(0.01, 1.0, size=(4, 3))
        p = loc.LikelihoodField(grid, a / a.sum())
        q = loc.LikelihoodField(grid, b / b.sum())
        assert loc.kl_divergence(p, q) >= -1e-12

    def test_zero_p_cells_contribute_nothing(self):
        grid = loc.Grid(0.0, 0.0, 1.0, 3, 1)
        p = loc.LikelihoodField(grid, np.array([[0.5], [0.5], [0.0]]))
        q = loc.LikelihoodField(grid, np.array([[0.25], [0.25], [0.5]]))
        want = 0.5 * math.log(2.0) + 0.5 * math.log(2.0)
        assert loc.kl_divergence(p, q) == pytest.approx(want, rel=1e-12)

    def test_grid_mismatch_rejected(self):
        g1 = loc.Grid(0.0, 0.0, 1.0, 2, 2)
        g2 = loc.Grid(0.0, 0.0, 2.0, 2, 2)
        u = np.full((2, 2), 0.25)
        with pytest.raises(DataError):
            loc.kl_divergence(loc.LikelihoodField(g1, u), loc.LikelihoodField(g2, u))


class TestField:
    def test_mass_must_normalize(self):
        grid = loc.Grid(0.0, 0.0, 1.0, 2, 2)
        with pytest.raises(DataError):
            loc.LikelihoodField(grid, np.full((2, 2), 0.3))

    def test_mass_shape_check(self):
        grid = loc.Grid(0.0, 0.0, 1.0, 2, 2)
        with pytest.raises(DataError):
            loc.LikelihoodField(grid, np.full((4,), 0.25))

    def test_pgm_export(self, tmp_path):
        grid = loc.Grid(0.0, 0.0, 1.0, 3, 2)
        mass = np.array([[0.1, 0.2], [0.05, 0.4], [0.05, 0.2]])
        fld = loc.LikelihoodField(grid, mass)
        p = tmp_path / "field.pgm"
        loc.save_field_pgm(fld, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "3 2"
        assert lines[2] == "65535"
        # Top raster row is the highest iy; peak 0.4 maps to 65535.
        assert lines[3].split() == ["32768", "65535", "32768"]


@pytest.fixture(scope="module")
def eval_setup():
    area = (40.0, 25.0)
    cfg = dsm.SynthEnvConfig(
        area=area, n_aps=12, shadowing_std_dbm=2.0,
        shadowing_correlation_length_m=3.0,
        waypoints=dsm.serpentine_waypoints(area, 4.0, 5.0), sample_spacing_m=1.2,
    )
    ds = dsm.synthesize(cfg, seed=8)
    train_raw, test_raw = dsm.split(ds, 0.25, seed=1)
    train_norm, stats = dsm.normalize(train_raw)
    test_norm = dsm.apply_normalization(test_raw, stats)
    hp = gp_map.GpHyperparams(signal_variance=1.0, length_scale=5.0, noise_variance=0.05)
    gp = gp_map.fit(train_norm.X, train_norm.Z, hp)
    pipe = loc.Pipeline(
        label="id", compressor=loc.IdentityCompressor(train_norm.m), gp=gp,
        latent_mean=np.zeros(train_norm.m), latent_std=np.ones(train_norm.m),
    )
    grid = loc.Grid.cover(np.vstack([train_raw.X, test_raw.X]), 1.0, 2)
    return pipe, test_norm, grid


class TestEvaluate:

    def test_identity_pipeline_localizes(self, eval_setup):
        pipe, test_norm, grid = eval_setup
        results = loc.evaluate([pipe], test_norm, grid, sigma=10.0)
        assert len(results) == 1
        r = results[0]
        assert r.label == "id"
        assert r.kl_values.shape == (test_norm.n,)
        assert np.all(r.kl_values >= -1e-12)
        assert r.mean_argmax_error_m < 2.0 * grid.cell_size

    def test_identical_pipelines_identical_results(self, eval_setup):
        pipe, test_norm, grid = eval_setup
        results = loc.evaluate([pipe, pipe], test_norm, grid, sigma=10.0)
        assert np.array_equal(results[0].kl_values, results[1].kl_values)
        assert np.array_equal(results[0].argmax_errors_m, results[1].argmax_errors_m)

    def test_requires_normalized_test_set(self, eval_setup):
        pipe, _, grid = eval_setup
        raw = dsm.synthesize(
            dsm.SynthEnvConfig(
                area=(40.0, 25.0), n_aps=12,
                waypoints=((5.0, 5.0), (30.0, 5.0)), sample_spacing_m=5.0,
            ),
            seed=1,
        )
        with pytest.raises(DataError, match="normalized"):
            loc.evaluate([pipe], raw, grid, sigma=10.0)

    def test_keeps_raster_fields_of_named_rows(self, eval_setup):
        pipe, test_norm, grid = eval_setup
        plain = loc.evaluate([pipe], test_norm, grid, sigma=10.0)[0]
        kept = loc.evaluate([pipe], test_norm, grid, sigma=10.0, raster_indices=(3, 0))[0]
        assert plain.rasters == {}
        assert sorted(kept.rasters) == [0, 3]
        assert np.array_equal(kept.kl_values, plain.kl_values)
        builder = loc.FieldBuilder(pipe, grid)
        for i, fld in kept.rasters.items():
            assert np.array_equal(fld.mass, builder.field_for(test_norm.Z[i]).mass)

    def test_holds_one_pipeline_at_a_time(self, eval_setup, monkeypatch):
        # Each pipeline and its FieldBuilder are freed before the next
        # pipeline is requested, so an on-demand iterable keeps one alive.
        pipe, test_norm, grid = eval_setup
        builders, pipes, alive = [], [], []
        init = loc.FieldBuilder.__init__

        def recording_init(self, pipeline, grid):
            init(self, pipeline, grid)
            builders.append(weakref.ref(self))

        def load(k):
            p = replace(pipe, label=f"p{k}")
            pipes.append(weakref.ref(p))
            return p

        def on_demand():
            for k in range(3):
                alive.append([ref() is not None for ref in builders + pipes])
                yield load(k)

        monkeypatch.setattr(loc.FieldBuilder, "__init__", recording_init)
        results = loc.evaluate(on_demand(), test_norm, grid, sigma=10.0)
        assert alive == [[], [False, False], [False, False, False, False]]
        assert [r.label for r in results] == ["p0", "p1", "p2"]
        want = loc.evaluate([pipe], test_norm, grid, sigma=10.0)[0]
        for r in results:
            assert np.array_equal(r.kl_values, want.kl_values)
            assert np.array_equal(r.argmax_errors_m, want.argmax_errors_m)

    def test_mean_matches_per_point(self, eval_setup):
        pipe, test_norm, grid = eval_setup
        r = loc.evaluate([pipe], test_norm, grid, sigma=10.0)[0]
        assert r.mean_kl == pytest.approx(float(np.mean(r.kl_values)), abs=1e-12)
