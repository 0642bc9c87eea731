import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pudroid.classifiers import (
    ForestModel,
    ForestParams,
    Learner,
    LinearModel,
    LinearParams,
    TrainConfig,
    TrainingError,
    TreeModel,
    TreeParams,
    deserialize,
    logistic_loss_and_grad,
    train,
)
from pudroid.features import DimensionError


def _xor_free_problem(rng, n=80, d=6):
    """Linearly separable toy problem: label = feature 0."""
    X = (rng.random((n, d)) < 0.4).astype(float)
    y = X[:, 0].astype(int)
    return X, y


def _split_order(model: TreeModel) -> list[int]:
    """Feature indices of the serialized tree's internal nodes, in pre-order."""
    out: list[int] = []

    def walk(node: dict) -> None:
        if "feature" in node:
            out.append(node["feature"])
            walk(node["absent"])
            walk(node["present"])

    walk(model.to_dict()["root"])
    return out


class TestLinear:
    def test_zero_model_scores_half(self):
        model = LinearModel(np.zeros(3), 0.0)
        assert model.score_matrix(np.array([[0.0, 1.0, 0.0]])).tolist() == [0.5]

    def test_fit_separable(self):
        rng = np.random.default_rng(0)
        X, y = _xor_free_problem(rng)
        model = LinearModel.fit(X, y, LinearParams(1.0, 400, 1e-3))
        scores = model.score_matrix(X)
        assert ((scores > 0.5).astype(int) == y).all()

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        X = (rng.random((12, 4)) < 0.5).astype(float)
        y = rng.integers(0, 2, size=12).astype(float)
        w = rng.standard_normal(4)
        b = 0.3
        l2 = 0.01
        _, dw, db = logistic_loss_and_grad(w, b, X, y, l2)
        h = 1e-6
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            lp = logistic_loss_and_grad(w + e, b, X, y, l2)[0]
            lm = logistic_loss_and_grad(w - e, b, X, y, l2)[0]
            assert abs((lp - lm) / (2 * h) - dw[j]) < 1e-5
        lp = logistic_loss_and_grad(w, b + h, X, y, l2)[0]
        lm = logistic_loss_and_grad(w, b - h, X, y, l2)[0]
        assert abs((lp - lm) / (2 * h) - db) < 1e-5

    def test_intercept_not_penalized(self):
        X = np.zeros((4, 2))
        y = np.array([0.0, 1.0, 0.0, 1.0])
        loss_small_b, _, _ = logistic_loss_and_grad(np.zeros(2), 0.0, X, y, 10.0)
        loss_large_w, _, _ = logistic_loss_and_grad(np.ones(2), 0.0, X, y, 10.0)
        assert loss_large_w > loss_small_b  # penalty hits weights only


class TestTree:
    def test_laplace_leaf_probabilities(self):
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0, 0, 1, 1])
        model = TreeModel.fit(X, y, TreeParams(max_depth=3, min_leaf=1))
        assert _split_order(model) == [0]
        # each side holds 2 samples: (0+1)/(2+2) and (2+1)/(2+2)
        assert model.score_matrix(X).tolist() == [0.25, 0.25, 0.75, 0.75]

    def test_degenerate_target_rejected(self):
        X = np.array([[0.0], [1.0]])
        with pytest.raises(TrainingError):
            TreeModel.fit(X, np.array([1, 1]), TreeParams())

    def test_min_leaf_blocks_split(self):
        X = np.array([[0.0], [0.0], [0.0], [1.0]])
        y = np.array([0, 0, 0, 1])
        model = TreeModel.fit(X, y, TreeParams(max_depth=3, min_leaf=2))
        # the only split would isolate a single sample
        assert _split_order(model) == []
        assert model.score_matrix(X).tolist() == [(1 + 1) / (4 + 2)] * 4

    def test_split_ties_go_to_lowest_feature_index(self):
        rng = np.random.default_rng(2)
        col = (rng.random(40) < 0.5).astype(float)
        X = np.column_stack([col, col, col])  # identical candidates
        y = col.astype(int)
        model = TreeModel.fit(X, y, TreeParams(max_depth=2, min_leaf=1))
        assert _split_order(model) == [0]

    def test_max_depth_zero_is_a_single_leaf(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        model = TreeModel.fit(X, y, TreeParams(max_depth=0, min_leaf=1))
        assert _split_order(model) == []

    @settings(deadline=None, max_examples=30)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_scores_are_probabilities(self, seed):
        rng = np.random.default_rng(seed)
        X = (rng.random((30, 5)) < 0.5).astype(float)
        y = rng.integers(0, 2, size=30)
        if len(np.unique(y)) < 2:
            y[0] = 1 - y[0]
        model = TreeModel.fit(X, y, TreeParams())
        scores = model.score_matrix(X)
        assert ((scores > 0.0) & (scores < 1.0)).all()


class TestForest:
    def test_same_seed_same_model(self):
        rng = np.random.default_rng(3)
        X, y = _xor_free_problem(rng)
        params = ForestParams(n_trees=5)
        a = ForestModel.fit(X, y, params, TreeParams(), seed=7)
        b = ForestModel.fit(X, y, params, TreeParams(), seed=7)
        assert a.serialize() == b.serialize()

    def test_different_seed_different_model(self):
        rng = np.random.default_rng(3)
        X, y = _xor_free_problem(rng)
        params = ForestParams(n_trees=5)
        a = ForestModel.fit(X, y, params, TreeParams(), seed=7)
        b = ForestModel.fit(X, y, params, TreeParams(), seed=8)
        assert a.serialize() != b.serialize()

    def test_tree_streams_independent_of_count(self):
        # growing a bigger forest keeps earlier trees identical
        rng = np.random.default_rng(4)
        X, y = _xor_free_problem(rng)
        small = ForestModel.fit(X, y, ForestParams(n_trees=3), TreeParams(), seed=1)
        big = ForestModel.fit(X, y, ForestParams(n_trees=6), TreeParams(), seed=1)
        for ta, tb in zip(small.trees, big.trees):
            assert ta.serialize() == tb.serialize()

    def test_score_is_mean_of_trees(self):
        rng = np.random.default_rng(5)
        X, y = _xor_free_problem(rng)
        model = ForestModel.fit(X, y, ForestParams(n_trees=4), TreeParams(), seed=0)
        expected = np.mean([t.score_matrix(X) for t in model.trees], axis=0)
        assert np.allclose(model.score_matrix(X), expected)

    def test_features_per_split_exceeding_dimension_is_an_error(self):
        rng = np.random.default_rng(6)
        X, y = _xor_free_problem(rng, d=4)
        with pytest.raises(TrainingError):
            ForestModel.fit(X, y, ForestParams(features_per_split=9), TreeParams(), 0)


class TestCommonSurface:
    def test_train_dispatch(self):
        rng = np.random.default_rng(7)
        X, y = _xor_free_problem(rng)
        assert isinstance(train(X, y, TrainConfig(learner=Learner.LINEAR)), LinearModel)
        assert isinstance(train(X, y, TrainConfig(learner=Learner.TREE)), TreeModel)
        cfg = TrainConfig(learner=Learner.FOREST, forest=ForestParams(n_trees=3))
        assert isinstance(train(X, y, cfg), ForestModel)

    def test_single_class_target_is_an_error(self):
        X = np.ones((4, 2))
        with pytest.raises(TrainingError, match="degenerate"):
            train(X, np.ones(4), TrainConfig(learner=Learner.LINEAR))

    @pytest.mark.parametrize("make, named", [
        (lambda: LinearParams(learning_rate=float("inf")), "learning_rate"),
        (lambda: LinearParams(epochs=0), "epochs"),
        (lambda: LinearParams(l2=float("nan")), "l2"),
        (lambda: TreeParams(max_depth=-1), "max_depth"),
        (lambda: TreeParams(min_leaf=0), "min_leaf"),
        (lambda: ForestParams(n_trees=0), "n_trees"),
        (lambda: ForestParams(features_per_split="log2"), "features_per_split"),
        (lambda: ForestParams(features_per_split=0), "features_per_split"),
    ])
    def test_params_reject_bad_values(self, make, named):
        with pytest.raises(ValueError, match=named):
            make()

    def test_dimension_mismatch_is_an_error(self):
        model = LinearModel(np.zeros(3), 0.0)
        with pytest.raises(DimensionError):
            model.score_matrix(np.zeros((2, 4)))

    @pytest.mark.parametrize("learner", list(Learner))
    def test_serialization_round_trip(self, learner):
        rng = np.random.default_rng(8)
        X, y = _xor_free_problem(rng)
        cfg = TrainConfig(learner=learner, forest=ForestParams(n_trees=3))
        model = train(X, y, cfg)
        clone = deserialize(model.serialize())
        assert np.array_equal(model.score_matrix(X), clone.score_matrix(X))
        assert clone.serialize() == model.serialize()

    def test_deserialize_rejects_unknown_version(self):
        with pytest.raises(ValueError):
            deserialize('{"version": "pudroid-model/9", "type": "linear"}')
