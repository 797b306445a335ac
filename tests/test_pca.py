import json

import numpy as np
import pytest

from rss_atlas import pca
from rss_atlas.errors import ConfigError, DataError


def char_poly_eigenpairs(A):
    """Oracle for 3x3 symmetric matrices: roots of the characteristic
    polynomial, eigenvectors from the null space via SVD."""
    assert A.shape == (3, 3)
    c2 = -np.trace(A)
    c1 = 0.5 * (np.trace(A) ** 2 - np.trace(A @ A))
    c0 = -np.linalg.det(A)
    roots = np.roots([1.0, c2, c1, c0])
    roots = np.sort(roots.real)[::-1]
    vecs = []
    for lam in roots:
        _, _, Vt = np.linalg.svd(A - lam * np.eye(3))
        vecs.append(Vt[-1])
    return roots, np.column_stack(vecs)


class TestFit:
    def test_rank_one_data(self, rng):
        direction = np.array([1.0, 2.0, -1.0])
        direction /= np.linalg.norm(direction)
        t = rng.normal(size=30)
        Z = np.outer(t, direction) + np.array([5.0, -3.0, 2.0])
        model = pca.fit(Z, 3)
        total = model.eigenvalues.sum()
        assert model.eigenvalues[0] / total == pytest.approx(1.0, abs=1e-12)
        assert model.eigenvalues[1] == pytest.approx(0.0, abs=1e-10)

    def test_full_basis_reconstructs(self, rng):
        Z = rng.normal(size=(20, 6))
        model = pca.fit(Z, 6)
        recon = pca.inverse_transform(model, pca.transform(model, Z))
        assert np.abs(recon - Z).max() < 1e-8

    def test_eigenpairs_vs_char_poly_oracle(self, rng):
        for _ in range(10):
            B = rng.normal(size=(3, 3))
            cov_target = B @ B.T
            # Build data whose sample covariance is exactly cov_target.
            L = np.linalg.cholesky(cov_target + 1e-12 * np.eye(3))
            G = rng.normal(size=(40, 3))
            G -= G.mean(axis=0)
            # Whiten G so its sample covariance is the identity.
            cg = (G.T @ G) / 39
            G = G @ np.linalg.inv(np.linalg.cholesky(cg)).T
            Z = G @ L.T
            model = pca.fit(Z, 3)
            want_vals, want_vecs = char_poly_eigenpairs(cov_target)
            np.testing.assert_allclose(model.eigenvalues, want_vals, rtol=1e-8, atol=1e-10)
            for j in range(3):
                dot = abs(model.components[:, j] @ want_vecs[:, j])
                assert dot == pytest.approx(1.0, abs=1e-8)

    def test_eigenvalues_descending_nonnegative(self, rng):
        Z = rng.normal(size=(25, 8))
        model = pca.fit(Z, 8)
        assert np.all(np.diff(model.eigenvalues) <= 1e-12)
        assert np.all(model.eigenvalues >= -1e-10)

    def test_sign_convention(self, rng):
        Z = rng.normal(size=(15, 4))
        model = pca.fit(Z, 4)
        for j in range(4):
            comp = model.components[:, j]
            assert comp[np.argmax(np.abs(comp))] > 0

    def test_signs_equal_the_per_component_loop(self, rng):
        """The components equal eigh's, negated one column at a time where the
        largest-magnitude entry is negative, bit for bit."""
        flipped = 0
        for _ in range(5):
            Z = rng.normal(size=(30, 6))
            centered = Z - Z.mean(axis=0)
            w, V = np.linalg.eigh((centered.T @ centered) / 29)
            want = np.ascontiguousarray(V[:, np.argsort(-w, kind="stable")[:4]])
            for j in range(4):
                if want[np.argmax(np.abs(want[:, j])), j] < 0:
                    want[:, j] = -want[:, j]
                    flipped += 1
            assert pca.fit(Z, 4).components.tobytes() == want.tobytes()
        assert flipped > 0

    def test_c_out_of_range(self, rng):
        Z = rng.normal(size=(10, 3))
        with pytest.raises(ConfigError):
            pca.fit(Z, 0)
        with pytest.raises(ConfigError):
            pca.fit(Z, 4)

    def test_needs_two_rows(self):
        with pytest.raises(DataError):
            pca.fit(np.zeros((1, 3)), 1)


class TestTransform:
    def test_mean_row_maps_to_zero(self, rng):
        Z = rng.normal(size=(12, 5))
        model = pca.fit(Z, 3)
        np.testing.assert_allclose(pca.transform(model, model.mean), 0.0, atol=1e-12)

    def test_residual_orthogonal_to_span(self, rng):
        Z = rng.normal(size=(30, 7))
        model = pca.fit(Z, 3)
        recon = pca.inverse_transform(model, pca.transform(model, Z))
        residual = Z - recon
        proj = residual @ model.components
        assert np.abs(proj).max() < 1e-10

    def test_components_orthonormal(self, rng):
        Z = rng.normal(size=(30, 9))
        model = pca.fit(Z, 5)
        gram = model.components.T @ model.components
        assert np.abs(gram - np.eye(5)).max() < 1e-8

    def test_latent_columns_uncorrelated(self, rng):
        Z = rng.normal(size=(60, 6)) @ rng.normal(size=(6, 6))
        model = pca.fit(Z, 4)
        latent = pca.transform(model, Z)
        cov = np.cov(latent.T)
        off = cov - np.diag(np.diag(cov))
        assert np.abs(off).max() / np.abs(np.diag(cov)).max() < 1e-6

    def test_mse_non_increasing_in_c(self, rng):
        Z = rng.normal(size=(30, 12)) @ rng.normal(size=(12, 12))
        prev = np.inf
        for c in range(1, 13):
            model = pca.fit(Z, c)
            recon = pca.inverse_transform(model, pca.transform(model, Z))
            mse = float(np.mean((Z - recon) ** 2))
            assert mse <= prev + 1e-12
            prev = mse

    def test_dimension_mismatch(self, rng):
        model = pca.fit(rng.normal(size=(10, 4)), 2)
        with pytest.raises(DataError):
            pca.transform(model, np.zeros((3, 5)))
        with pytest.raises(DataError):
            pca.inverse_transform(model, np.zeros((3, 3)))


class TestSerialization:
    def test_roundtrip(self, rng):
        model = pca.fit(rng.normal(size=(20, 5)), 3)
        back = pca.model_from_dict(json.loads(json.dumps(pca.model_to_dict(model))))
        assert np.array_equal(back.mean, model.mean)
        assert np.array_equal(back.components, model.components)
        assert np.array_equal(back.eigenvalues, model.eigenvalues)

    def test_reloaded_model_encodes_bit_identically(self, rng):
        """A fitted model and its reloaded copy give the same projection bits;
        F-ordered components would round it differently from the C-ordered
        ones a reload makes."""
        Z = rng.normal(size=(60, 16))
        model = pca.fit(Z, 4)
        back = pca.model_from_dict(json.loads(json.dumps(pca.model_to_dict(model))))
        assert np.array_equal(pca.transform(back, Z), pca.transform(model, Z))

    @pytest.mark.parametrize("key,edit", [
        ("mean", lambda a: a[:-1]), ("components", lambda a: a[:-1]),
        ("components", lambda a: [row + [0.0] for row in a]), ("eigenvalues", lambda a: a[:-1]),
        ("eigenvalues", lambda a: 1.0), ("components", lambda a: []),
    ], ids=["mean_short", "components_row_short", "components_extra_column", "eigenvalues_short",
            "eigenvalues_scalar", "components_empty"])
    def test_shapes_checked(self, key, edit, rng):
        doc = pca.model_to_dict(pca.fit(rng.normal(size=(20, 5)), 3))
        doc[key] = edit(doc[key])
        with pytest.raises(DataError, match="shapes"):
            pca.model_from_dict(doc)
