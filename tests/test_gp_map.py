import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rss_atlas import dataset as dsm
from rss_atlas import experiment as ex
from rss_atlas import gp_map
from rss_atlas import localization as loc
from rss_atlas import pca
from rss_atlas.errors import ConfigError, DataError, GpFitError
from rss_atlas.gp_map import GpHyperparams


HP = GpHyperparams(signal_variance=1.0, length_scale=3.0, noise_variance=0.1)


def dense_predict(X, Y, hp, x_star):
    """Oracle: predictive moments via explicit matrix inversion."""
    K = gp_map.gram_matrix(X, hp)
    K_inv = np.linalg.inv(K)
    k_star = np.array([gp_map.rbf_kernel(x, x_star, hp) for x in X])
    mean = k_star @ K_inv @ Y
    var = (hp.signal_variance + hp.noise_variance) - k_star @ K_inv @ k_star
    return mean, var


class TestRbfKernel:
    def test_zero_distance(self):
        hp = GpHyperparams(signal_variance=4.0, length_scale=2.0)
        assert gp_map.rbf_kernel([1.0, 2.0], [1.0, 2.0], hp) == 4.0

    def test_unit_normalized_distance(self):
        hp = GpHyperparams(signal_variance=2.5, length_scale=7.0)
        val = gp_map.rbf_kernel([0.0, 0.0], [7.0, 0.0], hp)
        assert val == pytest.approx(2.5 * math.exp(-1.0), rel=1e-12)

    def test_symmetry(self, rng):
        for _ in range(20):
            p, q = rng.uniform(-10, 10, size=(2, 2))
            assert gp_map.rbf_kernel(p, q, HP) == gp_map.rbf_kernel(q, p, HP)

    def test_bounds(self, rng):
        # Distances kept inside the float64-representable range of exp;
        # far beyond it the kernel underflows to exactly 0.
        for _ in range(50):
            p, q = rng.uniform(-10, 10, size=(2, 2))
            k = gp_map.rbf_kernel(p, q, HP)
            assert 0.0 < k <= HP.signal_variance

    def test_invalid_hyperparams(self):
        with pytest.raises(ConfigError):
            GpHyperparams(signal_variance=0.0, length_scale=1.0)
        with pytest.raises(ConfigError):
            GpHyperparams(signal_variance=1.0, length_scale=-1.0)

    @pytest.mark.parametrize("field", ["signal_variance", "length_scale", "noise_variance"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_hyperparams_rejected(self, field, value):
        kwargs = {"signal_variance": 1.0, "length_scale": 1.0, "noise_variance": 0.1, field: value}
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            GpHyperparams(**kwargs)


def broadcast_sq_dists(A, B):
    """Reference: the coordinate-axis sum over an n x k x 2 difference array."""
    d = A[:, None, :] - B[None, :, :]
    return np.sum(d * d, axis=2)


class TestSqDists:
    @pytest.mark.parametrize("case", ["random", "large_coordinates", "duplicates"])
    def test_per_axis_equals_broadcast_sum(self, rng, case):
        if case == "random":
            A, B = rng.uniform(0, 100, (200, 2)), rng.uniform(0, 100, (137, 2))
        elif case == "large_coordinates":
            A = 1e9 + rng.uniform(-1e7, 1e7, (120, 2))
            B = 1e9 + rng.uniform(-1e7, 1e7, (90, 2))
        else:
            A = np.repeat(rng.normal(size=(15, 2)), 4, axis=0)
            B = np.repeat(rng.normal(size=(8, 2)), 3, axis=0)
        assert np.array_equal(gp_map._sq_dists(A, B), broadcast_sq_dists(A, B))
        assert np.array_equal(gp_map._sq_dists(A, A), broadcast_sq_dists(A, A))

    def test_kernel_matrix_equals_expression(self, rng):
        # At l = 5 m the floor cuts beyond 15.2 l = 76 m: points within 60 m
        # never reach it, points up to 300 m apart often do.
        hp = GpHyperparams(signal_variance=0.7, length_scale=5.0, noise_variance=0.05)
        for span, floored_any in ((60, False), (300, True)):
            A, B = rng.uniform(0, span, (80, 2)), rng.uniform(0, span, (50, 2))
            unit = np.exp(-broadcast_sq_dists(A, B) / hp.length_scale**2)
            floored = unit < gp_map._KERNEL_FLOOR
            assert floored.any() == floored_any
            want = hp.signal_variance * np.where(floored, 0.0, unit)
            assert np.array_equal(gp_map.kernel_matrix(A, B, hp), want)


class TestKernelFloor:
    @settings(max_examples=200, deadline=None)
    @given(
        points=st.lists(st.tuples(st.floats(-300, 300), st.floats(-300, 300)), min_size=2, max_size=24),
        length_scale=st.floats(0.05, 100.0),
    )
    def test_entries_are_zero_or_the_kernel_above_the_floor(self, points, length_scale):
        P = np.array(points)
        A, B = P[: len(P) // 2], P[len(P) // 2 :]
        K = gp_map._unit_kernel(A, B, length_scale)
        assert np.all((K == 0.0) | (K >= gp_map._KERNEL_FLOOR))
        unit = np.exp(-broadcast_sq_dists(A, B) / length_scale**2)
        assert np.array_equal(K, np.where(unit >= gp_map._KERNEL_FLOOR, unit, 0.0))

    @pytest.mark.parametrize("length_scale", [1.0, 2.0, 7.3])
    def test_clamped_exponent_equals_exp_then_floor(self, length_scale):
        # Points at squared distance l^2 t from the origin, for t within a few
        # ulp of -ln(1e-100), where the floor decides, around the clamp, and
        # beyond exp's underflow at 745, where only the clamp acts.
        edge = -math.log(gp_map._KERNEL_FLOOR)
        ts = [edge, -gp_map._EXP_CLAMP, 745.2, 800.0, 1e4, 1e300]
        for t in ts[:2]:
            up = down = t
            for _ in range(6):
                up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
                ts += [up, down]
        A = np.zeros((1, 2))
        B = np.column_stack([np.sqrt(np.array(ts)) * length_scale, np.zeros(len(ts))])
        K = gp_map._unit_kernel(A, B, length_scale)
        exponents = -broadcast_sq_dists(A, B) / length_scale**2
        unit = np.exp(exponents)
        assert np.array_equal(K, np.where(unit < gp_map._KERNEL_FLOOR, 0.0, unit))
        near_edge = np.abs(exponents + edge) < 1e-12
        assert (K[near_edge] == 0.0).any() and (K[near_edge] > 0.0).any()
        assert (exponents < -745.0).sum() >= 3

    @pytest.fixture(scope="class")
    def default_survey(self):
        """The default synthetic survey (seed 0, A4's split) and its 1 m evaluation grid."""
        ds = dsm.synthesize(dsm.SynthEnvConfig(), 0)
        train_raw, test_raw = dsm.split(ds, 0.3, 1)
        train_norm, stats = dsm.normalize(train_raw)
        test_norm = dsm.apply_normalization(test_raw, stats)
        grid = loc.Grid.cover(np.vstack([train_raw.X, test_raw.X]), 1.0, 2)
        compressors = [
            ("input", loc.IdentityCompressor(train_norm.m)),
            ("pca30", loc.PcaCompressor(pca.fit(train_norm.Z, 30))),
            ("pca10", loc.PcaCompressor(pca.fit(train_norm.Z, 10))),
        ]
        return train_norm, test_norm, grid, compressors

    @staticmethod
    def _run(survey):
        """The search, then for pca30 (l = 2 m): every candidate's evidence,
        predictions at the test locations and grid fields of five test rows."""
        train_norm, test_norm, grid, compressors = survey
        gp_grid = ex.default_gp_grid()
        pipes = ex.build_pipelines(compressors, train_norm, gp_grid)
        pca30 = pipes[1]
        Y = pca30.encode(train_norm.Z)
        evidences = [gp_map.log_marginal_likelihood(train_norm.X, Y, hp) for hp in gp_grid]
        means, variances = gp_map.predict_batch(pca30.gp, test_norm.X)
        builder = loc.FieldBuilder(pca30, grid)
        fields = [builder.log_likelihoods(z) for z in test_norm.Z[:5]]
        return pipes, evidences, means, variances, fields

    def test_floor_leaves_every_output_bit_unchanged(self, default_survey, monkeypatch):
        train_norm, _, grid, _ = default_survey
        pipes, evidences, means, variances, fields = self._run(default_survey)
        assert pipes[1].gp.hyperparams.length_scale == 2.0

        cross = gp_map._unit_kernel(train_norm.X, grid.cell_centers(), 2.0)
        monkeypatch.setattr(gp_map, "_KERNEL_FLOOR", 0.0)  # the untruncated,
        monkeypatch.setattr(gp_map, "_EXP_CLAMP", -np.inf)  # unclamped kernel
        exact = gp_map._unit_kernel(train_norm.X, grid.cell_centers(), 2.0)
        zeroed = np.mean((cross == 0.0) & (exact > 0.0))
        assert zeroed > 0.1, zeroed

        pipes_exact, evidences_exact, means_exact, variances_exact, fields_exact = self._run(
            default_survey
        )
        for got, want in zip(pipes, pipes_exact):
            assert got.gp.hyperparams == want.gp.hyperparams
            assert np.array_equal(got.gp.Y, want.gp.Y)
        assert evidences == evidences_exact
        assert np.array_equal(means, means_exact)
        assert np.array_equal(variances, variances_exact)
        assert all(np.array_equal(g, w) for g, w in zip(fields, fields_exact))


class TestGramMatrix:
    def test_single_point(self):
        hp = GpHyperparams(signal_variance=2.0, length_scale=1.0, noise_variance=0.5)
        K = gp_map.gram_matrix(np.array([[0.0, 0.0]]), hp)
        assert K.shape == (1, 1) and K[0, 0] == 2.5

    def test_duplicate_rows_noiseless_singular(self):
        hp = GpHyperparams(signal_variance=1.0, length_scale=1.0, noise_variance=0.0)
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        K = gp_map.gram_matrix(X, hp)
        assert np.linalg.matrix_rank(K) < 3

    def test_matches_scalar_kernel(self, rng):
        X = rng.uniform(0, 5, size=(3, 2))
        K = gp_map.gram_matrix(X, HP)
        for p in range(3):
            for q in range(3):
                want = gp_map.rbf_kernel(X[p], X[q], HP)
                if p == q:
                    want += HP.noise_variance
                assert K[p, q] == pytest.approx(want, rel=1e-15)

    def test_symmetric_positive_definite(self, rng):
        X = rng.uniform(0, 20, size=(15, 2))
        K = gp_map.gram_matrix(X, HP)
        assert np.array_equal(K, K.T)
        assert np.linalg.eigvalsh(K).min() > 0


def dense_solve_oracle(model, X_star, jitter=0.0):
    """predict_batch from LAPACK's general solve with the Gram matrix (plus
    `jitter` on its diagonal): an oracle that shares no solve with it."""
    hp = model.hyperparams
    G = gp_map.gram_matrix(model.X_train, hp) + jitter * np.eye(model.n)
    k_star = gp_map.kernel_matrix(model.X_train, X_star, hp)
    means = k_star.T @ np.linalg.solve(G, model.Y)
    variances = hp.signal_variance + hp.noise_variance - np.sum(k_star * np.linalg.solve(G, k_star), axis=0)
    return means, np.where(variances < 1e-12, 1e-12, variances)


def assert_matches_oracle(model, X_star, rtol, jitter=0.0):
    """predict_batch within rtol of the oracle: means relative to the largest
    oracle mean, variances relative to the prior variance."""
    means, variances = gp_map.predict_batch(model, X_star)
    want_means, want_variances = dense_solve_oracle(model, X_star, jitter)
    hp = model.hyperparams
    assert np.max(np.abs(means - want_means)) <= rtol * np.max(np.abs(want_means))
    assert np.max(np.abs(variances - want_variances)) <= rtol * (hp.signal_variance + hp.noise_variance)


class TestFit:
    def test_single_point_scalar_solve(self):
        # k* = 2/e at 1 m, so the mean is k* * 3 / 2 and the variance 2 - k*^2 / 2.
        hp = GpHyperparams(signal_variance=2.0, length_scale=1.0, noise_variance=0.0)
        model = gp_map.fit(np.array([[0.0, 0.0]]), np.array([3.0]), hp)
        mean, var = gp_map.predict(model, [1.0, 0.0])
        assert mean[0] == pytest.approx(3.0 * math.exp(-1.0), rel=1e-15)
        assert var == pytest.approx(2.0 - 2.0 * math.exp(-2.0), rel=1e-15)

    def test_residual_small_on_random_problems(self, rng):
        for _ in range(5):
            X = rng.uniform(0, 30, size=(20, 2))
            model = gp_map.fit(X, rng.normal(size=(20, 4)), HP)
            assert_matches_oracle(model, np.vstack([X, rng.uniform(0, 30, size=(30, 2))]), SOLVE_RTOL)

    def test_cholesky_reconstructs_gram(self, rng):
        X = rng.uniform(0, 30, size=(12, 2))
        model = gp_map.fit(X, rng.normal(size=(12, 2)), HP)
        K = gp_map.gram_matrix(X, HP)
        L = gp_map.cholesky_factor(model)
        rel = np.abs(L @ L.T - K).max() / np.abs(K).max()
        assert rel < 1e-8

    def test_zero_targets_zero_means(self, rng):
        X = rng.uniform(0, 10, size=(6, 2))
        model = gp_map.fit(X, np.zeros((6, 3)), HP)
        means, _ = gp_map.predict_batch(model, rng.uniform(0, 10, size=(9, 2)))
        assert np.all(means == 0.0)

    def test_jitter_retry_on_duplicates(self):
        hp = GpHyperparams(signal_variance=1.0, length_scale=1.0, noise_variance=0.0)
        X = np.array([[0.0, 0.0], [0.0, 0.0]])
        model = gp_map.fit(X, np.array([[1.0], [1.0]]), hp)
        means, variances = gp_map.predict_batch(model, np.array([[0.0, 0.0], [0.5, 0.5]]))
        assert np.all(np.isfinite(means)) and np.all(np.isfinite(variances))

    @pytest.mark.parametrize("where", ["Y", "X"])
    def test_non_finite_input_is_data_error(self, rng, where):
        X, Y = rng.uniform(0, 10, size=(6, 2)), rng.normal(size=(6, 3))
        if where == "Y":
            Y[4, 1] = np.nan
        else:
            X[2, 0] = np.inf
        with pytest.raises(DataError, match=f"^{where} has a non-finite entry"):
            gp_map.fit(X, Y, HP)
        with pytest.raises(DataError, match=f"^{where} has a non-finite entry"):
            gp_map.GpModel(X, HP, Y)

    @pytest.mark.parametrize("key,value", [
        ("X_train", [[1.0]] * 6), ("X_train", []), ("X_train", [[1.0, 2.0, 3.0]] * 6),
        ("Y", [[0.0, 0.0]] * 5), ("Y", [0.0] * 6), ("Y", 0.0),
    ], ids=["x_one_coordinate", "x_empty", "x_third_coordinate", "y_row_short", "y_flat", "y_scalar"])
    def test_shapes_checked_before_factor(self, key, value, rng):
        arrays = {"X_train": rng.uniform(0, 10, size=(6, 2)), "Y": rng.normal(size=(6, 2))}
        arrays[key] = np.array(value, dtype=float)
        with pytest.raises(DataError, match="X must be n x 2|rows but Y"):
            gp_map.GpModel(arrays["X_train"], HP, arrays["Y"])


def package_factor(X, hp):
    """The factor of a Gram matrix built as the package builds it: `_gram`
    of `_unit_kernel`, factored by `_cholesky_with_jitter`."""
    unit = gp_map._unit_kernel(X, X, hp.length_scale)
    return gp_map._cholesky_with_jitter(gp_map._gram(unit, hp, out=unit), hp)


def solve_case(name):
    """(locations, hyperparameters) of one factor the blocked solve is checked on."""
    b = gp_map._SOLVE_BLOCK
    rng = np.random.default_rng(7)
    if name == "jitter":  # a duplicated location and no noise: the retry's factor
        X = rng.uniform(0, 40, size=(2 * b + 3, 2))
        X[1] = X[0]
        return X, GpHyperparams(1.0, 5.0, 0.0)
    if name == "l2":  # 120 m across at l = 2 m: most unit-kernel entries are floored to 0
        return rng.uniform(0, 120, size=(4 * b + 9, 2)), GpHyperparams(1.0, 2.0, 0.1)
    n = {"n1": 1, "below": b - 7, "equal": b, "multiple": 3 * b, "not_multiple": 3 * b + 5}[name]
    return rng.uniform(0, 40, size=(n, 2)), GpHyperparams(0.5, 10.0, 0.05)


SOLVE_CASES = ["n1", "below", "equal", "multiple", "not_multiple", "jitter", "l2"]
# Largest entry of the difference from np.linalg.solve, relative to the
# largest entry of its solution, or for predictions to the largest oracle
# mean and to the prior variance. Measured on these cases: at most 1.1e-15
# for one solve, 2.0e-15 for the means and 3.3e-15 for the variances.
SOLVE_RTOL = 1e-13


class TestBlockedSolve:
    @pytest.mark.parametrize("case", SOLVE_CASES)
    @pytest.mark.parametrize("rows", [1, 9, 300], ids=lambda rows: f"L-{rows}")
    def test_matches_numpy_solve(self, case, rows):
        X, hp = solve_case(case)
        L = package_factor(X, hp)
        if case == "jitter":
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(gp_map.gram_matrix(X, hp))
        if case == "l2":
            assert np.mean(gp_map._unit_kernel(X, X, hp.length_scale) == 0.0) > 0.5
        rhs = np.random.default_rng(rows).normal(size=(rows, X.shape[0]))
        got = rhs.copy()
        gp_map._solve_rows(L, gp_map.block_inverses(L), got)
        want = np.linalg.solve(L, rhs.T).T
        assert np.max(np.abs(got - want)) <= SOLVE_RTOL * np.max(np.abs(want))

    @pytest.mark.parametrize("case", SOLVE_CASES)
    def test_block_inverses_are_lower_triangular_inverses(self, case):
        L = package_factor(*solve_case(case))
        b, n = gp_map._SOLVE_BLOCK, L.shape[0]
        inverses = gp_map.block_inverses(L)
        assert inverses.shape == (-(-n // b), b, b)
        for j, s in enumerate(range(0, n, b)):
            w = min(b, n - s)
            inv = inverses[j, :w, :w]
            assert np.array_equal(inv, np.tril(inv))
            np.testing.assert_allclose(L[s : s + w, s : s + w] @ inv, np.eye(w), atol=1e-10)

    @pytest.mark.parametrize("case", SOLVE_CASES)
    @pytest.mark.parametrize("rows", [1, 9, 300])
    def test_predictions_match_dense_solve(self, case, rows):
        # Forward solves only: means S^T V and variances prior - |S|^2 from
        # one factor, against LAPACK's general solve with the Gram matrix.
        # The jitter case's factor is of the Gram matrix plus the retry's
        # jitter, so its oracle solves with that matrix. The targets are
        # functions of location, so its duplicated location reads the same
        # twice; noise-free targets that differ there leave the means
        # undetermined along the duplicate's direction, and any two solvers
        # then differ by about 1e-9 of the largest mean.
        X, hp = solve_case(case)
        rng = np.random.default_rng(rows)
        Y = np.column_stack([np.sin(X[:, 0] / 7), np.cos(X[:, 1] / 5), np.sin((X[:, 0] + X[:, 1]) / 11)])
        model = gp_map.fit(X, Y, hp)
        X_star = rng.uniform(0, X.max(), size=(rows, 2))
        jitter = gp_map._JITTER_SCALE * hp.signal_variance if case == "jitter" else 0.0
        assert_matches_oracle(model, X_star, SOLVE_RTOL, jitter)

    def test_nan_row_stays_in_its_row(self):
        X, hp = solve_case("not_multiple")
        L = package_factor(X, hp)
        inverses = gp_map.block_inverses(L)
        k = 300
        rhs = np.random.default_rng(0).normal(size=(k, X.shape[0]))
        for row in (2, k - 3):
            dirty = rhs.copy()
            dirty[row, 40] = np.nan
            clean, got = rhs.copy(), dirty.copy()
            gp_map._solve_rows(L, inverses, clean)
            gp_map._solve_rows(L, inverses, got)
            assert np.isnan(got[row]).any()
            others = np.arange(k) != row
            assert np.array_equal(got[others], clean[others])

    def test_nan_query_location_stays_in_its_row(self, rng):
        X, hp = solve_case("not_multiple")
        model = gp_map.fit(X, rng.normal(size=(X.shape[0], 3)), hp)
        stars = rng.uniform(0, 40, size=(5, 2))
        means, variances = gp_map.predict_batch(model, stars)
        stars[3, 0] = np.nan
        nan_means, nan_variances = gp_map.predict_batch(model, stars)
        assert np.isnan(nan_means[3]).all() and np.isnan(nan_variances[3])
        others = [0, 1, 2, 4]
        assert np.array_equal(nan_means[others], means[others])
        assert np.array_equal(nan_variances[others], variances[others])


class TestPredict:
    def test_noiseless_interpolation(self, rng):
        hp = GpHyperparams(signal_variance=1.0, length_scale=5.0, noise_variance=0.0)
        X = rng.uniform(0, 40, size=(12, 2))
        Y = rng.normal(size=(12, 3))
        model = gp_map.fit(X, Y, hp)
        for i in range(12):
            mean, var = gp_map.predict(model, X[i])
            np.testing.assert_allclose(mean, Y[i], atol=1e-6)
            assert var <= 1e-6

    def test_prior_recovery_far_away(self, rng):
        X = rng.uniform(0, 5, size=(8, 2))
        Y = rng.normal(size=(8, 2))
        model = gp_map.fit(X, Y, HP)
        mean, var = gp_map.predict(model, [1000.0, 1000.0])
        np.testing.assert_allclose(mean, 0.0, atol=1e-12)
        assert var == pytest.approx(HP.signal_variance + HP.noise_variance, rel=1e-12)

    def test_matches_dense_inverse_oracle(self, rng):
        X = rng.uniform(0, 10, size=(5, 2))
        Y = rng.normal(size=(5, 2))
        model = gp_map.fit(X, Y, HP)
        for _ in range(10):
            x_star = rng.uniform(-2, 12, size=2)
            mean, var = gp_map.predict(model, x_star)
            mean_o, var_o = dense_predict(X, Y, HP, x_star)
            np.testing.assert_allclose(mean, mean_o, rtol=1e-8, atol=1e-10)
            assert var == pytest.approx(var_o, rel=1e-8, abs=1e-10)

    def test_variance_bounds(self, rng):
        X = rng.uniform(0, 10, size=(25, 2))
        model = gp_map.fit(X, rng.normal(size=(25, 1)), HP)
        stars = rng.uniform(-5, 15, size=(200, 2))
        _, variances = gp_map.predict_batch(model, stars)
        assert np.all(variances >= 0.0)
        assert np.all(variances <= HP.signal_variance + HP.noise_variance + 1e-12)

    def test_rigid_motion_invariance(self, rng):
        theta = 0.7
        R = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        shift = np.array([13.0, -4.0])
        X = rng.uniform(0, 10, size=(10, 2))
        Y = rng.normal(size=(10, 2))
        x_star = rng.uniform(0, 10, size=2)
        m1, v1 = gp_map.predict(gp_map.fit(X, Y, HP), x_star)
        m2, v2 = gp_map.predict(gp_map.fit(X @ R.T + shift, Y, HP), R @ x_star + shift)
        np.testing.assert_allclose(m1, m2, atol=1e-9)
        assert v1 == pytest.approx(v2, abs=1e-9)

    def test_linearity_in_targets(self, rng):
        X = rng.uniform(0, 10, size=(9, 2))
        Y1 = rng.normal(size=(9, 2))
        Y2 = rng.normal(size=(9, 2))
        a, b = 2.5, -1.25
        x_star = rng.uniform(0, 10, size=2)
        m1, _ = gp_map.predict(gp_map.fit(X, Y1, HP), x_star)
        m2, _ = gp_map.predict(gp_map.fit(X, Y2, HP), x_star)
        m3, _ = gp_map.predict(gp_map.fit(X, a * Y1 + b * Y2, HP), x_star)
        np.testing.assert_allclose(m3, a * m1 + b * m2, atol=1e-9)

    def test_batch_matches_pointwise(self, rng):
        X = rng.uniform(0, 10, size=(7, 2))
        model = gp_map.fit(X, rng.normal(size=(7, 3)), HP)
        stars = rng.uniform(0, 10, size=(6, 2))
        means, variances = gp_map.predict_batch(model, stars)
        for i in range(6):
            m, v = gp_map.predict(model, stars[i])
            np.testing.assert_allclose(m, means[i], rtol=1e-12, atol=1e-15)
            assert v == pytest.approx(variances[i], rel=1e-12)


class TestLogMarginalLikelihood:
    def test_scalar_zero_target(self):
        hp = GpHyperparams(signal_variance=1.5, length_scale=1.0, noise_variance=0.5)
        got = gp_map.log_marginal_likelihood(np.array([[0.0, 0.0]]), np.array([0.0]), hp)
        want = -0.5 * math.log(2.0) - 0.5 * math.log(2.0 * math.pi)
        assert got == pytest.approx(want, rel=1e-12)

    def test_column_permutation_invariant(self, rng):
        X = rng.uniform(0, 10, size=(6, 2))
        Y = rng.normal(size=(6, 4))
        a = gp_map.log_marginal_likelihood(X, Y, HP)
        b = gp_map.log_marginal_likelihood(X, Y[:, [3, 1, 0, 2]], HP)
        assert a == pytest.approx(b, rel=1e-12)

    def test_matches_dense_gaussian_density(self, rng):
        # Oracle: direct multivariate normal log density with explicit
        # inverse and slogdet, per output column.
        X = rng.uniform(0, 8, size=(4, 2))
        Y = rng.normal(size=(4, 3))
        K = gp_map.gram_matrix(X, HP)
        K_inv = np.linalg.inv(K)
        _, logdet = np.linalg.slogdet(K)
        want = sum(
            -0.5 * Y[:, d] @ K_inv @ Y[:, d] - 0.5 * logdet - 2.0 * math.log(2 * math.pi)
            for d in range(3)
        )
        got = gp_map.log_marginal_likelihood(X, Y, HP)
        assert got == pytest.approx(want, rel=1e-10)


class TestSelectHyperparams:
    def test_single_candidate(self, rng):
        X = rng.uniform(0, 10, size=(5, 2))
        Y = rng.normal(size=(5, 1))
        assert gp_map.select_hyperparams(X, Y, [HP]) == HP

    def test_generating_hyperparams_win_evidence(self, rng):
        gen = GpHyperparams(signal_variance=1.0, length_scale=6.0, noise_variance=0.05)
        X = rng.uniform(0, 40, size=(40, 2))
        K = gp_map.gram_matrix(X, gen)
        Y = np.linalg.cholesky(K) @ rng.normal(size=(40, 3))
        grid = [
            gen,
            GpHyperparams(1.0, 0.5, 0.05),
            GpHyperparams(1.0, 60.0, 0.05),
            GpHyperparams(20.0, 6.0, 2.0),
        ]
        best = gp_map.select_hyperparams(X, Y, grid)
        ev = {hp: gp_map.log_marginal_likelihood(X, Y, hp) for hp in grid}
        assert ev[best] >= max(ev.values()) - 1e-12

    def test_tie_prefers_smaller_length_scale(self):
        # With a single zero target the evidence depends only on the total
        # variance, so these two candidates tie exactly.
        X = np.array([[0.0, 0.0]])
        Y = np.array([0.0])
        a = GpHyperparams(signal_variance=1.0, length_scale=5.0, noise_variance=0.0)
        b = GpHyperparams(signal_variance=0.5, length_scale=2.0, noise_variance=0.5)
        assert gp_map.select_hyperparams(X, Y, [a, b]) == b
        assert gp_map.select_hyperparams(X, Y, [b, a]) == b

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            gp_map.select_hyperparams(np.zeros((1, 2)), np.zeros(1), [])


def oracle_fits(X, Ys, grid):
    """Reference search: per target, the argmax of log_marginal_likelihood
    over the grid (ties to the smaller length scale, then the earlier
    position), refitted with `fit`."""
    models = []
    for Y in Ys:
        best, best_ev = None, -np.inf
        for hp in grid:
            try:
                ev = gp_map.log_marginal_likelihood(X, Y, hp)
            except GpFitError:
                continue
            if best is None or ev > best_ev or (
                ev == best_ev and hp.length_scale < best.length_scale
            ):
                best, best_ev = hp, ev
        if best is None:
            raise GpFitError("no candidate factors")
        models.append(gp_map.fit(X, Y, best))
    return models


def gp_targets(rng, X, widths_and_scales):
    """Targets drawn from the GP prior, one matrix per (width, length scale)."""
    Ys = []
    for d, l in widths_and_scales:
        K = gp_map.gram_matrix(X, GpHyperparams(1.0, l, 0.05))
        Ys.append(np.linalg.cholesky(K) @ rng.normal(size=(X.shape[0], d)))
    return Ys


def assert_same_maps(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.hyperparams == w.hyperparams
        assert np.array_equal(g.Y, w.Y)
        assert np.array_equal(g.X_train, w.X_train)


# Length scales deliberately not grouped, so the unit kernel is rebuilt on
# every change, including back to a value seen before.
UNGROUPED_GRID = [
    GpHyperparams(s2, l, n2)
    for l in (5.0, 2.0, 5.0, 12.0)
    for s2 in (0.5, 1.0)
    for n2 in (0.0, 0.05, 0.2)
]


class TestFitByEvidence:
    @pytest.fixture()
    def survey(self, rng):
        # The duplicated location makes every noise-free candidate need the jitter retry.
        X = rng.uniform(0, 40, size=(70, 2))
        X[1] = X[0]
        Ys = gp_targets(rng, X, [(1, 2.0), (3, 5.0), (7, 12.0)])
        Ys.append(0.3 * rng.normal(size=(70, 2)))  # pure noise: prefers the largest noise
        return X, Ys

    def test_matches_per_target_oracle(self, survey):
        X, Ys = survey
        got = gp_map.fit_by_evidence(X, Ys, UNGROUPED_GRID)
        assert_same_maps(got, oracle_fits(X, Ys, UNGROUPED_GRID))
        # The targets do not all pick the same candidate.
        assert len({m.hyperparams for m in got}) > 1

    def test_jitter_candidate_matches_oracle(self, survey):
        X, Ys = survey
        hp = GpHyperparams(1.0, 5.0, 0.0)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(gp_map.gram_matrix(X, hp))
        got = gp_map.fit_by_evidence(X, Ys, [hp])
        assert all(m.hyperparams == hp for m in got)
        assert_same_maps(got, oracle_fits(X, Ys, [hp]))

    def test_non_pd_candidates_skipped(self, survey, monkeypatch):
        X, Ys = survey
        winners = {m.hyperparams for m in gp_map.fit_by_evidence(X, Ys, UNGROUPED_GRID)}
        real = gp_map._cholesky_with_jitter

        def refuse_winners(K, hp):
            if hp in winners:
                raise GpFitError("not positive definite")
            return real(K, hp)

        monkeypatch.setattr(gp_map, "_cholesky_with_jitter", refuse_winners)
        got = gp_map.fit_by_evidence(X, Ys, UNGROUPED_GRID)
        assert not winners & {m.hyperparams for m in got}
        assert_same_maps(got, oracle_fits(X, Ys, UNGROUPED_GRID))

    def test_all_non_pd_raises(self, survey, monkeypatch):
        X, Ys = survey

        def refuse(K, hp):
            raise GpFitError("not positive definite")

        monkeypatch.setattr(gp_map, "_cholesky_with_jitter", refuse)
        with pytest.raises(GpFitError, match="every hyperparameter candidate"):
            gp_map.fit_by_evidence(X, Ys, UNGROUPED_GRID)

    def test_exact_ties(self):
        # One location and zero targets: the evidence depends only on the
        # total variance, so a, b and c tie exactly.
        X = np.array([[0.0, 0.0]])
        Ys = [np.zeros((1, 1)), np.zeros((1, 4))]
        a = GpHyperparams(signal_variance=1.0, length_scale=5.0, noise_variance=0.0)
        b = GpHyperparams(signal_variance=0.5, length_scale=2.0, noise_variance=0.5)
        c = GpHyperparams(signal_variance=0.5, length_scale=5.0, noise_variance=0.5)
        for grid, winner in (([a, b], b), ([b, a], b), ([a, c], a), ([c, a], c), ([c, a, b], b)):
            got = gp_map.fit_by_evidence(X, Ys, grid)
            assert [m.hyperparams for m in got] == [winner, winner]
            assert_same_maps(got, oracle_fits(X, Ys, grid))

    def test_select_hyperparams_is_the_one_target_search(self, survey):
        X, Ys = survey
        for Y in Ys:
            want = oracle_fits(X, [Y], UNGROUPED_GRID)[0].hyperparams
            assert gp_map.select_hyperparams(X, Y, UNGROUPED_GRID) == want

    def test_bad_target_shape_is_data_error(self, survey):
        X, Ys = survey
        with pytest.raises(DataError, match="rows"):
            gp_map.fit_by_evidence(X, [Ys[0], Ys[1][:-1]], UNGROUPED_GRID)

    def test_nan_target_is_data_error(self, survey):
        # Before the check, the NaN target took the grid's first candidate.
        X, Ys = survey
        Ys[2][5, 0] = np.nan
        with pytest.raises(DataError, match="^target 2 has a non-finite entry"):
            gp_map.fit_by_evidence(X, Ys, UNGROUPED_GRID)

    def test_memory_bound(self, rng):
        # The search holds the unit kernel, one Gram buffer and the
        # candidate's factor, however many targets there are, and returns
        # no factor. In units of n*n*8 bytes, with 4 targets choosing 4
        # distinct candidates: peak 3.23, the three arrays plus a boolean
        # mask and the targets' temporaries. Any factor kept beyond the
        # candidate's adds 1: factoring each distinct winner after the walk,
        # as the search once did, peaked at 5.2.
        n = 300
        X = rng.uniform(0, 60, size=(n, 2))
        X[1] = X[0]
        Ys = gp_targets(rng, X, [(1, 2.0), (2, 5.0), (4, 12.0)])
        Ys.append(0.3 * rng.normal(size=(n, 2)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            models = gp_map.fit_by_evidence(X, Ys, UNGROUPED_GRID)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len({m.hyperparams for m in models}) > 1
        assert peak <= 3.5 * n * n * 8

