import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dataset_from_rows, random_dataset
from pudroid.classifiers import (
    Learner,
    LinearParams,
    ProbabilisticClassifier,
    TrainConfig,
    TreeParams,
)
from pudroid.datasets import dataset_to_dict
from pudroid.pu import (
    PUModel,
    SplitError,
    apply_rescale_heuristic,
    clean_and_retrain,
    dense_matrix,
    detect_contaminants,
    estimate_e,
    split_validation,
    training_arrays,
)
from pudroid.synthetic import SyntheticSpec, generate_synthetic


class StubModel(ProbabilisticClassifier):
    """Scores each row by a fixed affine map of its first feature."""

    def __init__(self, dimension, on_score, off_score):
        self.dimension = dimension
        self.on_score = on_score
        self.off_score = off_score

    def score_matrix(self, X):
        X = self._check_dim(X)
        return np.where(X.bool_rows[:, 0], self.on_score, self.off_score)


class TestArrays:
    def test_training_arrays(self):
        ds = dataset_from_rows([(0,)], [(1,), ()], 2)
        X, z = training_arrays(ds)
        assert X.shape == (3, 2)
        assert np.array_equal(X.bool_rows, dense_matrix(ds.samples, 2))
        assert z.tolist() == [1, 0, 0]

    def test_dense_matrix_is_float(self):
        ds = dataset_from_rows([(0,)], [], 2)
        assert dense_matrix(ds.positives, 2).dtype == np.float64


class TestSplit:
    def _z(self, n_p=10, n_u=30):
        return np.array([1] * n_p + [0] * n_u)

    def test_sizes_and_partition(self):
        z = self._z()
        train_rows, p_rows = split_validation(z, 0.25, seed=0)
        assert len(train_rows) == 30  # 10 of 40 rows go to V
        assert train_rows.tolist() == sorted(train_rows.tolist())
        assert p_rows.tolist() == sorted(p_rows.tolist())
        assert not set(train_rows.tolist()) & set(p_rows.tolist())
        assert all(z[p_rows] == 1)

    def test_deterministic(self):
        z = self._z()
        a = split_validation(z, 0.25, seed=4)
        b = split_validation(z, 0.25, seed=4)
        assert [r.tolist() for r in a] == [r.tolist() for r in b]
        c = split_validation(z, 0.25, seed=5)
        assert c[0].tolist() != a[0].tolist()

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.3])
    def test_fraction_bounds(self, fraction):
        with pytest.raises(SplitError):
            split_validation(self._z(), fraction, seed=0)

    def test_no_validation_positives_is_an_error(self):
        z = self._z(1, 9)
        outcomes = set()
        for seed in range(40):
            try:
                split_validation(z, 0.2, seed)
                outcomes.add("ok")
            except SplitError:
                outcomes.add("error")
        assert outcomes == {"ok", "error"}


class TestEstimator:
    def test_mean_over_validation_positives(self):
        assert estimate_e(np.array([0.8, 0.6])) == pytest.approx(0.7)

    def test_clamped_away_from_zero(self):
        assert estimate_e(np.array([0.0])) == 1e-6

    def test_rejects_empty_or_non_finite_input(self):
        for scores in ([], [0.5, np.nan], [np.inf]):
            with pytest.raises(ValueError, match="estimate e"):
                estimate_e(np.array(scores))


class TestAdjustedModel:
    def test_g_divides_by_e(self):
        pu = PUModel(StubModel(2, 0.4, 0.1), e=0.5)
        assert pu.g_matrix(np.array([[1.0, 0.0]])) == pytest.approx([0.8])

    def test_g_clamps_at_one(self):
        pu = PUModel(StubModel(2, 0.9, 0.1), e=0.5)
        X = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert pu.g_matrix(X).tolist() == [1.0, 0.2]

    def test_rescale_triggers_below_threshold(self):
        # mean g over P' is 0.5 < 0.7, so rescale = 1.0 / 0.5
        pu = PUModel(StubModel(2, 0.25, 0.0), e=0.5)
        assert apply_rescale_heuristic(pu, 0.5).rescale == pytest.approx(2.0)

    def test_rescale_skipped_at_or_above_trigger(self):
        pu = PUModel(StubModel(2, 0.475, 0.0), e=0.5)
        assert apply_rescale_heuristic(pu, 0.95).rescale == 1.0
        assert apply_rescale_heuristic(pu, 0.7).rescale == 1.0

    def test_rescale_rejects_zero_mean_g(self):
        pu = PUModel(StubModel(2, 0.0, 0.0), e=1e-6)
        for mean_g in (0.0, 1e-320):  # the second overflows target / mean_g
            with pytest.raises(ValueError, match="rescale"):
                apply_rescale_heuristic(pu, mean_g)


class TestDetection:
    def test_strictly_above_half_sorted(self):
        pu = PUModel(StubModel(2, 0.6, 0.25), e=1.0)
        X_u = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])  # g = 0.6, 0.6, 0.25
        assert detect_contaminants(pu, X_u, ["zz", "aa", "mm"]) == ["aa", "zz"]

    def test_boundary_not_flagged(self):
        pu = PUModel(StubModel(2, 0.5, 0.5), e=1.0)  # g exactly 0.5
        assert detect_contaminants(pu, np.array([[1.0, 0.0]]), ["a"]) == []

    def test_empty_group(self):
        pu = PUModel(StubModel(2, 0.9, 0.9), e=1.0)
        assert detect_contaminants(pu, np.zeros((0, 2)), []) == []


@pytest.fixture(scope="module")
def contaminated():
    spec = SyntheticSpec(
        n_positive=150,
        n_negative=300,
        dimension=40,
        signal_features=5,
        n_families=2,
        label_frequency_c=0.6,
        seed=1,
    )
    return generate_synthetic(spec)


@pytest.fixture(scope="module")
def cfg():
    return TrainConfig(learner=Learner.LINEAR, linear=LinearParams(1.0, 300, 1e-3))


class TestCleanAndRetrain:

    def test_relabel_moves_contaminants_into_p(self, contaminated, cfg):
        ds = contaminated.dataset
        result = clean_and_retrain(ds, cfg, seed=2)
        assert result.contaminant_ids
        cleaned_p = result.cleaned.positives
        moved = set(cleaned_p.ids) - set(ds.positives.ids)
        assert moved == set(result.contaminant_ids)
        hidden = dict(zip(cleaned_p.ids, cleaned_p.hidden.tolist()))
        for cid in result.contaminant_ids:
            assert hidden[cid] == -1  # verdict carries no truth claim
        assert len(result.cleaned.samples) == len(ds.samples)

    def test_discard_drops_contaminants(self, contaminated, cfg):
        ds = contaminated.dataset
        result = clean_and_retrain(ds, cfg, seed=2, discard=True)
        cleaned = dataset_to_dict(result.cleaned)
        assert cleaned["positives"] == dataset_to_dict(ds)["positives"]
        kept = set(result.cleaned.unlabeled.ids)
        assert kept == set(ds.unlabeled.ids) - set(result.contaminant_ids)

    def test_deterministic(self, contaminated, cfg):
        a = clean_and_retrain(contaminated.dataset, cfg, seed=3)
        b = clean_and_retrain(contaminated.dataset, cfg, seed=3)
        assert a.contaminant_ids == b.contaminant_ids
        assert a.final_model.serialize() == b.final_model.serialize()
        assert a.diagnostics == b.diagnostics

    def test_diagnostics_ranges(self, contaminated, cfg):
        result = clean_and_retrain(contaminated.dataset, cfg, seed=2)
        assert 1e-6 <= result.diagnostics.e <= 1.0
        assert result.diagnostics.rescale >= 1.0
        assert 0.0 <= result.diagnostics.mean_g_over_pm <= 1.0


class TestCleanProperty:
    """No random small input ends in non-finite diagnostics or a non-ValueError."""

    @settings(deadline=None, max_examples=80)
    @given(
        seed=st.integers(0, 2**16),
        n_p=st.integers(1, 12),
        n_u=st.integers(1, 30),
        d=st.integers(1, 6),
        cfg=st.one_of(
            st.builds(
                lambda lr, epochs: TrainConfig(
                    learner=Learner.LINEAR, linear=LinearParams(lr, epochs)
                ),
                st.floats(min_value=1e-3, max_value=1e4),
                st.integers(1, 50),
            ),
            st.just(TrainConfig(learner=Learner.TREE, tree=TreeParams(min_leaf=1))),
        ),
    )
    def test_finite_diagnostics_or_value_error(self, seed, n_p, n_u, d, cfg):
        ds = random_dataset(np.random.default_rng(seed), n_p, n_u, d)
        try:
            result = clean_and_retrain(ds, cfg, seed=seed)
        except ValueError:
            return
        diag = result.diagnostics
        assert all(math.isfinite(v) for v in (diag.e, diag.rescale, diag.mean_g_over_pm))


class TestRankingInvariance:
    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=2, max_size=12),
        st.floats(min_value=0.1, max_value=1.0),
    )
    def test_g_preserves_f_order_when_unclamped(self, scores, e):
        f = np.array(scores)
        g = np.minimum(1.0, f / e)
        if np.any(g >= 1.0):
            return  # clamped scores may collapse ties
        assert np.argsort(f, kind="stable").tolist() == np.argsort(g, kind="stable").tolist()
