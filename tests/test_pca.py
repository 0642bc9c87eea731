import numpy as np
import pytest

from conftest import dataset_from_rows, random_dataset, row_lists
from pudroid.features import dense_matrix
from pudroid.pca import pca_project, projection_csv, top_components


class TestTopComponents:
    def test_matches_eigendecomposition(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((200, 12)) @ rng.standard_normal((12, 12))
        X = X - X.mean(axis=0)
        comps, variances = top_components(X, 2)
        cov = X.T @ X / len(X)
        eigvals, eigvecs = np.linalg.eigh(cov)
        for i in range(2):
            truth_val = eigvals[-1 - i]
            truth_vec = eigvecs[:, -1 - i]
            assert variances[i] == pytest.approx(truth_val, rel=1e-6)
            assert abs(float(comps[i] @ truth_vec)) == pytest.approx(1.0, abs=1e-6)

    def test_components_orthonormal(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((100, 8))
        X = X - X.mean(axis=0)
        comps, _ = top_components(X, 2)
        assert float(comps[0] @ comps[0]) == pytest.approx(1.0)
        assert float(comps[1] @ comps[1]) == pytest.approx(1.0)
        assert float(comps[0] @ comps[1]) == pytest.approx(0.0, abs=1e-6)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((50, 6))
        a, _ = top_components(X, 2)
        b, _ = top_components(X, 2)
        assert np.array_equal(a, b)


class TestProjection:
    def test_rank_two_data_preserves_distances(self):
        # binary data spanning exactly two directions
        rows = [(0,), (1,), (0, 1), ()] * 10
        ds = dataset_from_rows(rows[:20], rows[20:], 2)
        projection = pca_project(ds)
        coords = np.array([(x, y) for _, x, y, _ in projection.rows])
        X = dense_matrix(ds.samples, 2)
        X = X - X.mean(axis=0)
        for i in range(0, 40, 7):
            for j in range(0, 40, 5):
                d_orig = np.linalg.norm(X[i] - X[j])
                d_proj = np.linalg.norm(coords[i] - coords[j])
                assert d_proj == pytest.approx(d_orig, abs=1e-8)

    def test_groups_follow_discovery(self):
        ds = dataset_from_rows([(0,)], [(1,)], 2)
        projection = pca_project(ds)
        assert [r[3] for r in projection.rows] == ["positive", "unlabeled"]

    def test_zero_variance_flagged(self):
        ds = dataset_from_rows([(0,)] * 3, [(0,)] * 3, 2)
        projection = pca_project(ds)
        assert projection.zero_variance
        assert all(x == 0.0 and y == 0.0 for _, x, y, _ in projection.rows)

    def test_empty_dataset_is_an_error(self):
        with pytest.raises(ValueError):
            pca_project(dataset_from_rows([], [], 1))

    def test_duplicated_dataset_projects_identically(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, 10, 10, 15)
        doubled = dataset_from_rows(
            row_lists(ds.positives) * 2,
            row_lists(ds.unlabeled) * 2,
            15,
        )
        a = pca_project(ds)
        b = pca_project(doubled)
        coords_a = np.array([(x, y) for _, x, y, _ in a.rows])
        coords_b = np.array([(x, y) for _, x, y, _ in b.rows])
        n = len(ds.positives)
        assert np.allclose(coords_a[:n], coords_b[:n], atol=1e-6)


class TestCsv:
    def test_format(self):
        ds = dataset_from_rows([(0,)], [(1,)], 2)
        text = projection_csv(pca_project(ds))
        lines = text.splitlines()
        assert lines[0] == "id,x,y,group"
        assert len(lines) == 3
        assert text.endswith("\n")
        for line in lines[1:]:
            sid, x, y, group = line.split(",")
            float(x), float(y)
            assert group in ("positive", "unlabeled")
