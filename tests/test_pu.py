import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dataset_from_rows, sample
from pudroid.classifiers import Learner, LinearParams, ProbabilisticClassifier, TrainConfig
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
        return np.where(X[:, 0] > 0.5, self.on_score, self.off_score)


class TestArrays:
    def test_training_arrays(self):
        ds = dataset_from_rows([(0,)], [(1,), ()], 2)
        X, z = training_arrays(ds)
        assert X.tolist() == [[1, 0], [0, 1], [0, 0]]
        assert z.tolist() == [1, 0, 0]

    def test_dense_matrix_is_float(self):
        ds = dataset_from_rows([(0,)], [], 2)
        assert dense_matrix(ds.positives, 2).dtype == np.float64


class TestSplit:
    def _ds(self, n_p=10, n_u=30):
        return dataset_from_rows([(0,)] * n_p, [(1,)] * n_u, 2)

    def test_sizes_and_partition(self):
        ds = self._ds()
        split = split_validation(ds, 0.25, seed=0)
        all_ids = {s.id for s in ds.samples}
        val_ids = {s.id for s in split.validation_part.samples}
        train_ids = {s.id for s in split.train_part.samples}
        assert len(val_ids) == 10
        assert val_ids | train_ids == all_ids
        assert not val_ids & train_ids
        assert all(s.discovery == 1 for s in split.positive_validation)

    def test_deterministic(self):
        ds = self._ds()
        a = split_validation(ds, 0.25, seed=4)
        b = split_validation(ds, 0.25, seed=4)
        assert a == b
        c = split_validation(ds, 0.25, seed=5)
        assert {s.id for s in c.validation_part.samples} != {
            s.id for s in a.validation_part.samples
        }

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.3])
    def test_fraction_bounds(self, fraction):
        with pytest.raises(SplitError):
            split_validation(self._ds(), fraction, seed=0)

    def test_empty_positive_validation_is_an_error(self):
        ds = dataset_from_rows([(0,)], [(1,)] * 9, 2)
        outcomes = set()
        for seed in range(40):
            try:
                split_validation(ds, 0.2, seed)
                outcomes.add("ok")
            except SplitError:
                outcomes.add("error")
        assert outcomes == {"ok", "error"}


class TestEstimator:
    def test_mean_over_validation_positives(self):
        p_prime = [sample("a", (0,), 1), sample("b", (), 1)]
        est = estimate_e(StubModel(2, 0.8, 0.6), p_prime)
        assert est.e == pytest.approx(0.7)
        assert est.n == 2
        assert est.per_sample_scores == (0.8, 0.6)

    def test_clamped_away_from_zero(self):
        est = estimate_e(StubModel(2, 0.0, 0.0), [sample("a", (0,), 1)])
        assert est.e == 1e-6

    def test_rejects_empty_or_unlabeled_input(self):
        with pytest.raises(ValueError):
            estimate_e(StubModel(2, 0.5, 0.5), [])
        with pytest.raises(ValueError):
            estimate_e(StubModel(2, 0.5, 0.5), [sample("a", (), 0)])


class TestAdjustedModel:
    def test_g_divides_by_e(self):
        pu = PUModel(StubModel(2, 0.4, 0.1), e=0.5)
        assert pu.g_matrix(np.array([[1.0, 0.0]])) == pytest.approx([0.8])

    def test_g_clamps_at_one(self):
        pu = PUModel(StubModel(2, 0.9, 0.1), e=0.5)
        X = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert pu.g_matrix(X).tolist() == [1.0, 0.2]

    def test_rescale_triggers_below_threshold(self):
        # mean g over the subset is 0.5 < 0.7, so rescale = 1.0 / 0.5
        pu = PUModel(StubModel(2, 0.25, 0.0), e=0.5)
        out = apply_rescale_heuristic(pu, [sample("a", (0,), 1)])
        assert out.rescale == pytest.approx(2.0)

    def test_rescale_skipped_at_or_above_trigger(self):
        pu = PUModel(StubModel(2, 0.475, 0.0), e=0.5)  # mean g = 0.95
        assert apply_rescale_heuristic(pu, [sample("a", (0,), 1)]).rescale == 1.0
        pu = PUModel(StubModel(2, 0.35, 0.0), e=0.5)  # mean g exactly 0.7
        assert apply_rescale_heuristic(pu, [sample("a", (0,), 1)]).rescale == 1.0

    def test_rescale_rejects_bad_subset(self):
        pu = PUModel(StubModel(2, 0.5, 0.5), e=0.5)
        with pytest.raises(ValueError):
            apply_rescale_heuristic(pu, [])
        with pytest.raises(ValueError):
            apply_rescale_heuristic(pu, [sample("a", (), 0)])


class TestDetection:
    def test_strictly_above_half_sorted(self):
        pu = PUModel(StubModel(2, 0.6, 0.25), e=1.0)
        u_group = [
            sample("zz", (0,), 0),  # g = 0.6 -> flagged
            sample("aa", (0,), 0),  # g = 0.6 -> flagged
            sample("mm", (), 0),  # g = 0.25
        ]
        assert detect_contaminants(pu, u_group) == ["aa", "zz"]

    def test_boundary_not_flagged(self):
        pu = PUModel(StubModel(2, 0.5, 0.5), e=1.0)  # g exactly 0.5
        assert detect_contaminants(pu, [sample("a", (0,), 0)]) == []

    def test_empty_group(self):
        pu = PUModel(StubModel(2, 0.9, 0.9), e=1.0)
        assert detect_contaminants(pu, []) == []


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
        moved = {s.id for s in result.cleaned.positives} - {s.id for s in ds.positives}
        assert moved == set(result.contaminant_ids)
        by_id = {s.id: s for s in result.cleaned.positives}
        for cid in result.contaminant_ids:
            assert by_id[cid].discovery == 1
            assert by_id[cid].hidden is None  # verdict carries no truth claim
        assert len(result.cleaned.samples) == len(ds.samples)

    def test_discard_drops_contaminants(self, contaminated, cfg):
        ds = contaminated.dataset
        result = clean_and_retrain(ds, cfg, seed=2, discard=True)
        assert result.cleaned.positives == ds.positives
        kept = {s.id for s in result.cleaned.unlabeled}
        assert kept == {s.id for s in ds.unlabeled} - set(result.contaminant_ids)

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
