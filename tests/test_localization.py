import math
import tracemalloc

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


class TestFieldBuilder:
    @pytest.mark.parametrize("n", [60, 150, 300, 418])
    @pytest.mark.parametrize(
        "hp",
        [
            gp_map.GpHyperparams(signal_variance=1.0, length_scale=10.0, noise_variance=0.05),
            gp_map.GpHyperparams(signal_variance=0.5, length_scale=40.0, noise_variance=0.01),
        ],
        ids=["l10", "l40"],
    )
    @pytest.mark.parametrize("shape", [(100, 60), (41, 101)])
    def test_blocks_equal_one_whole_grid_prediction(self, n, hp, shape):
        pipe = random_pipeline(n, 5, hp)
        grid = loc.Grid(-5.0, -5.0, 1.0, *shape)
        assert grid.n_cells > 2 * loc.FieldBuilder._BLOCK
        assert grid.n_cells % loc.FieldBuilder._BLOCK != 0
        builder = loc.FieldBuilder(pipe, grid)
        means, variances = gp_map.predict_batch(pipe.gp, grid.cell_centers())
        assert np.array_equal(builder._means, means)
        assert np.array_equal(builder._mean_sq, np.sum(means * means, axis=1))
        assert np.array_equal(builder._variances, variances)
        log_norm = -0.5 * 5 * (loc.LOG_2PI + np.log(variances))
        assert np.array_equal(builder._log_norm, log_norm)

    def test_precompute_memory_is_bounded_by_the_block(self):
        # numpy reports its buffers to tracemalloc. The grid is split evenly,
        # so no block reaches twice the block width. The bound allows the
        # per-cell tables plus four n x (2 * block) temporaries of the GP
        # prediction; 16,384-cell blocks need about three times that here.
        n, d, block = 300, 16, 2048
        assert loc.FieldBuilder._BLOCK <= block
        hp = gp_map.GpHyperparams(signal_variance=1.0, length_scale=10.0, noise_variance=0.05)
        pipe = random_pipeline(n, d, hp)
        grid = loc.Grid(0.0, 0.0, 1.0, 200, 100)
        tables = 8 * grid.n_cells * (d + 3 + 2)  # means, mean_sq, variances, log_norm, centers
        temporaries = 8 * 4 * n * (2 * block)
        tracemalloc.start()
        try:
            loc.FieldBuilder(pipe, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= tables + temporaries


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

    def test_mean_matches_per_point(self, eval_setup):
        pipe, test_norm, grid = eval_setup
        r = loc.evaluate([pipe], test_norm, grid, sigma=10.0)[0]
        assert r.mean_kl == pytest.approx(float(np.mean(r.kl_values)), abs=1e-12)
