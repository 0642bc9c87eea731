import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dataset_from_rows, random_dataset, row_lists
from pudroid import pca
from pudroid.cli import run
from pudroid.datasets import save_dataset
from pudroid.features import dense_matrix
from pudroid.pca import pca_project, projection_csv, top_components
from pudroid.synthetic import SyntheticSpec, generate_synthetic

# a divide-by-zero or invalid value in a breakdown or zero-variance path is a bug
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def covariance_of(X):
    """The operator v -> XᵀX v / n, as top_components takes it."""
    return lambda v: X.T @ (X @ v) / len(X)


class TestTopComponents:
    def test_matches_eigendecomposition(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((200, 12)) @ rng.standard_normal((12, 12))
        X = X - X.mean(axis=0)
        comps, variances, _ = top_components(covariance_of(X), 12, 2)
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
        comps, _, _ = top_components(covariance_of(X), 8, 2)
        assert float(comps[0] @ comps[0]) == pytest.approx(1.0)
        assert float(comps[1] @ comps[1]) == pytest.approx(1.0)
        assert float(comps[0] @ comps[1]) == pytest.approx(0.0, abs=1e-6)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((50, 6))
        a, _, _ = top_components(covariance_of(X), 6, 2)
        b, _, _ = top_components(covariance_of(X), 6, 2)
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

    @pytest.mark.parametrize("rows_p, rows_u, d", [
        ([(0, 1, 2), (2,)] * 2, [(0, 1, 2), (2,)] * 3, 3),
        ([(0,), (1,)] * 2, [(0,), (1,)] * 3, 2),
    ])
    def test_rank_one_data_has_no_second_axis(self, rows_p, rows_u, d):
        projection = pca_project(dataset_from_rows(rows_p, rows_u, d))
        assert projection.variances[0] > 0.1
        assert projection.variances[1] == pytest.approx(0.0, abs=1e-12)
        assert all(abs(y) <= 1e-12 for _, _, y, _ in projection.rows)
        assert projection.unconverged == ()

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

    def test_peak_is_the_basis_and_less_than_the_csr_block(self):
        spec = SyntheticSpec(n_positive=2000, n_negative=6000, dimension=480, seed=4)
        ds = generate_synthetic(spec).dataset  # about 400k stored ones
        size = min(pca.MAX_BASIS, spec.dimension)
        basis = 8 * (2 * size * spec.dimension + size * size)  # V, W and T, reserved whole
        csr = ds.samples.indptr.nbytes + ds.samples.indices.nbytes
        tracemalloc.start()
        try:
            pca_project(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 2-byte row index, a product's two chunks and the projection's
        # rows: 0.74x the CSR bytes over the basis (3.09x when the products
        # gathered every one at once and the row index was int64)
        assert peak < basis + 1.5 * csr


class TestNotConverged:
    def test_basis_cap_is_reported_per_component(self, tmp_path, monkeypatch, capsys):
        ds = random_dataset(np.random.default_rng(4), 20, 20, 15)
        save_dataset(ds, tmp_path / "ds.json")
        argv = ["pca", "--dataset", str(tmp_path / "ds.json"), "--out", str(tmp_path / "p.csv")]
        assert run(argv) == 0
        assert capsys.readouterr().err == ""
        monkeypatch.setattr(pca, "MAX_BASIS", pca.BLOCK)  # 4 of 15 directions
        assert run(argv) == 0
        lines = capsys.readouterr().err.splitlines()
        found = [re.fullmatch(r"warning: PCA component (\d) did not converge "
                              r"\(residual (\S+)\)", line) for line in lines]
        assert all(found) and [m[1] for m in found] == ["1", "2"]
        variances = pca_project(ds).variances
        for m in found:
            assert float(m[2]) > pca.TOLERANCE * variances[0]


@st.composite
def binary_matrices(draw):
    """Small 0/1 matrices: plain random ones, ones whose top eigenvalue is exactly
    repeated (two independent copies of the same columns: every row pair of a
    base block), and those with one bit flipped (near-degenerate)."""
    kind = draw(st.sampled_from(["random", "degenerate", "near"]))
    if kind == "random":
        n, d = draw(st.integers(1, 40)), draw(st.integers(1, 12))
        bits = draw(st.lists(st.booleans(), min_size=n * d, max_size=n * d))
        return np.array(bits, dtype=float).reshape(n, d)
    r, d0 = draw(st.integers(2, 6)), draw(st.integers(1, 6))
    bits = draw(st.lists(st.booleans(), min_size=r * d0, max_size=r * d0))
    base = np.array(bits, dtype=float).reshape(r, d0)
    X = np.hstack([np.repeat(base, r, axis=0), np.tile(base, (r, 1))])
    if kind == "near":
        i, j = draw(st.integers(0, len(X) - 1)), draw(st.integers(0, X.shape[1] - 1))
        X[i, j] = 1 - X[i, j]
    return X


class TestEighOracle:
    """pca_project against the dense eigendecomposition of the centered covariance."""

    @settings(max_examples=300, deadline=None)
    @given(X=binary_matrices(), split=st.integers(0, 40))
    def test_matches_dense_eigh(self, X, split):
        n, d = X.shape
        rows = [tuple(np.flatnonzero(x).tolist()) for x in X]
        ds = dataset_from_rows(rows[:split], rows[split:], d)
        projection = pca_project(ds)
        Xc = dense_matrix(ds.samples, d)
        Xc -= Xc.mean(axis=0)
        lam, E = np.linalg.eigh(Xc.T @ Xc / n)
        lam, E = np.append(lam[::-1], [0.0, 0.0]), np.hstack([E[:, ::-1], np.zeros((d, 2))])
        scale = max(1.0, lam[0])
        coords = np.array([(x, y) for _, x, y, _ in projection.rows])
        assert projection.unconverged == ()
        if projection.zero_variance:
            assert np.abs(Xc).max() == 0 and not coords.any()
            return
        assert np.abs(np.array(projection.variances) - lam[:2]).max() <= 1e-10 * scale
        vectors, _, _ = top_components(covariance_of(Xc), d)
        assert all(v[np.argmax(np.abs(v))] >= 0 for v in vectors)

        def angle(gap):
            """Bound on the sine of a computed subspace's angle: residual / gap (Davis–Kahan)."""
            return 1e-9 + 4e-12 * lam[0] / gap  # the solver stops at residual 1e-12·λ1

        if lam[1] - lam[2] <= 1e-6 * lam[0]:
            return
        P_ref = E[:, :2] @ E[:, :2].T
        assert np.abs(vectors.T @ vectors - P_ref).max() <= angle(lam[1] - lam[2])
        # the 2-D coordinates up to a rotation, which a repeated top eigenvalue leaves free
        reach = max(1.0, np.linalg.norm(Xc, axis=1).max())
        gram = Xc @ P_ref @ Xc.T
        assert np.abs(coords @ coords.T - gram).max() <= 2 * angle(lam[1] - lam[2]) * reach**2
        if lam[0] - lam[1] <= 1e-6 * lam[0]:
            return
        for i in range(2):
            ref = Xc @ E[:, i]
            got = coords[:, i] * (1.0 if coords[:, i] @ ref >= 0 else -1.0)
            bound = 2 * angle(min(lam[0] - lam[1], lam[1] - lam[2])) * reach
            assert np.abs(got - ref).max() <= bound * np.maximum(1.0, np.abs(ref)).max()

    def test_larger_set_matches_dense_eigh(self):
        # 400×120 at 8% density: λ2 − λ3 is 2% of λ1, and the basis stops well
        # short of the whole space, so the residual test decides the accuracy
        ds = random_dataset(np.random.default_rng(0), 150, 250, 120, density=0.08)
        projection = pca_project(ds)
        Xc = dense_matrix(ds.samples, 120)
        Xc -= Xc.mean(axis=0)
        lam, E = np.linalg.eigh(Xc.T @ Xc / len(Xc))
        assert projection.unconverged == ()
        assert np.abs(np.array(projection.variances) - lam[:-3:-1]).max() <= 1e-10
        coords = np.array([(x, y) for _, x, y, _ in projection.rows])
        for i in range(2):
            v = E[:, -1 - i]
            ref = Xc @ (v if v[np.argmax(np.abs(v))] > 0 else -v)
            assert np.all(np.abs(coords[:, i] - ref) <= 1e-8 * np.maximum(1.0, np.abs(ref)))


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
