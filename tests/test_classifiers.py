import contextlib
import hashlib
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import logistic_loss_and_grad, matrix_of, pu_datasets

from pudroid import classifiers
from pudroid.classifiers import (
    LEARNERS,
    ForestModel,
    ForestParams,
    LinearModel,
    LinearParams,
    TrainConfig,
    TrainingError,
    TreeModel,
    TreeParams,
    train,
)
from pudroid.features import BinaryMatrix, DimensionError, dense_matrix, offsets
from pudroid.pu import training_arrays


def _xor_free_problem(rng, n=80, d=6):
    """Linearly separable toy problem: label = feature 0."""
    X = (rng.random((n, d)) < 0.4).astype(float)
    return matrix_of(X), X[:, 0].astype(int)


# ---------------------------------------------------------------------------
# Reference grower: the original recursive, copying CART, which slices the full
# float matrix at every node and per bootstrap. The package grower must produce
# the same serialized trees, node for node and bit for bit.
#
# The package grows a depth at a time and draws the candidate sets of all of a
# depth's nodes in one `_draw_candidates` call, left to right. The reference
# grows in pre-order, and in pre-order the nodes of one depth come left to
# right too; so it replays the recorded draws, handing each depth's rows out in
# the order its nodes reach the draw.


def _ref_gini(n, pos):
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(n > 0, pos / np.maximum(n, 1), 0.0)
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


def _ref_best_split(X, y, candidates, min_leaf):
    n = len(y)
    pos = float(y.sum())
    ones = X[:, candidates]
    n1 = ones.sum(axis=0).astype(np.float64)
    pos1 = (y @ ones).astype(np.float64)
    n0 = n - n1
    pos0 = pos - pos1
    weighted = (n0 * _ref_gini(n0, pos0) + n1 * _ref_gini(n1, pos1)) / n
    p_parent = pos / n
    parent = 1.0 - p_parent * p_parent - (1.0 - p_parent) * (1.0 - p_parent)
    gain = parent - weighted
    valid = (n0 >= min_leaf) & (n1 >= min_leaf) & (gain > 1e-12)
    if not valid.any():
        return None
    gain = np.where(valid, gain, -np.inf)
    return int(candidates[int(np.argmax(gain))])


class _Replay:
    """One tree's recorded candidate draws, one (m, k) array per depth.

    `taken[depth]` counts the nodes of that depth that have reached the draw;
    in pre-order that count is the node's left-to-right index among them.
    """

    def __init__(self, levels: list[np.ndarray]):
        self.levels = levels
        self.taken = [0] * len(levels)

    def draw(self, depth: int) -> np.ndarray:
        i = self.taken[depth]
        self.taken[depth] += 1
        return self.levels[depth][i]

    def all_taken(self) -> bool:
        return self.taken == [len(level) for level in self.levels]


def _ref_grow(X, y, depth, params, k, replay) -> dict:
    n = len(y)
    pos = int(y.sum())
    if depth >= params.max_depth or n < 2 * params.min_leaf or pos in (0, n):
        return {"leaf": repr((pos + 1) / (n + 2))}
    d = X.shape[1]
    candidates = np.arange(d) if k is None or k >= d else replay.draw(depth)
    feat = _ref_best_split(X, y, candidates, params.min_leaf)
    if feat is None:
        return {"leaf": repr((pos + 1) / (n + 2))}
    mask = X[:, feat] > 0.5
    return {
        "feature": feat,
        "absent": _ref_grow(X[~mask], y[~mask], depth + 1, params, k, replay),
        "present": _ref_grow(X[mask], y[mask], depth + 1, params, k, replay),
    }


def _ref_dumps(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _ref_tree(X, y, params: TreeParams) -> str:
    root = _ref_grow(X, y, 0, params, None, None)
    return _ref_dumps(
        {"version": "pudroid-model/1", "type": "tree", "dimension": X.shape[1], "root": root}
    )


def _state_key(rng: np.random.Generator) -> tuple:
    state = rng.bit_generator.state
    return state["state"]["state"], state["state"]["inc"], state["has_uint32"], state["uinteger"]


@contextlib.contextmanager
def _recorded_draws():
    """Record every `_draw_candidates` call of the package grower.

    Yields a dict from the generator's state at its first draw to the list of
    that generator's draws, one per depth: the trees of a forest have distinct
    generators, and a tree's n-th draw is its depth n-1's.
    """
    real = classifiers._draw_candidates
    by_rng: dict = {}  # generator -> its draws; holds each generator, so no id is reused
    by_start: dict = {}

    def record(rng, m, d, k):
        if rng not in by_rng:
            by_rng[rng] = by_start[_state_key(rng)] = []
        out = real(rng, m, d, k)
        assert out.shape == (m, k)
        by_rng[rng].append(out)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classifiers, "_draw_candidates", record)
        yield by_start


def _ref_forest(X, y, params: ForestParams, tree_params: TreeParams, seed: int, draws: dict):
    """(serialized forest, number of trees whose resample fell back to full data).

    Each tree replays the draws of the package tree whose generator started
    its draws in the state this tree's generator is in after the resample.
    """
    n, d = X.shape
    k = math.ceil(math.sqrt(d)) if params.features_per_split == "sqrt" else params.features_per_split
    trees, fallbacks = [], 0
    for t in range(params.n_trees):
        rng = np.random.default_rng([seed, t])
        Xt, yt = X, y
        if params.bootstrap:
            idx = rng.integers(0, n, size=n)
            if len(np.unique(y[idx])) < 2:
                fallbacks += 1
            else:
                Xt, yt = X[idx], y[idx]
        replay = _Replay(draws.get(_state_key(rng), []))
        trees.append(_ref_grow(Xt, yt, 0, tree_params, k, replay))
        assert replay.all_taken()  # the package drew for exactly the nodes that reach a draw
    data = {"version": "pudroid-model/1", "type": "forest", "dimension": d, "trees": trees}
    return _ref_dumps(data), fallbacks


def _fit_and_replay(X, y, params: ForestParams, tree_params: TreeParams, seed: int):
    """(package forest, replayed reference forest, reference fallback count)."""
    with _recorded_draws() as draws:
        got = ForestModel.fit(matrix_of(X), y, params, tree_params, seed)
    return (got, *_ref_forest(X, y, params, tree_params, seed, draws))


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
        assert model.score_matrix(matrix_of([[0.0, 1.0, 0.0]])).tolist() == [0.5]

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
        X = matrix_of([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0, 0, 1, 1])
        model = TreeModel.fit(X, y, TreeParams(max_depth=3, min_leaf=1))
        assert _split_order(model) == [0]
        # each side holds 2 samples: (0+1)/(2+2) and (2+1)/(2+2)
        assert model.score_matrix(X).tolist() == [0.25, 0.25, 0.75, 0.75]

    def test_degenerate_target_rejected(self):
        X = matrix_of([[0.0], [1.0]])
        with pytest.raises(TrainingError):
            TreeModel.fit(X, np.array([1, 1]), TreeParams())

    def test_min_leaf_blocks_split(self):
        X = matrix_of([[0.0], [0.0], [0.0], [1.0]])
        y = np.array([0, 0, 0, 1])
        model = TreeModel.fit(X, y, TreeParams(max_depth=3, min_leaf=2))
        # the only split would isolate a single sample
        assert _split_order(model) == []
        assert model.score_matrix(X).tolist() == [(1 + 1) / (4 + 2)] * 4

    def test_split_ties_go_to_lowest_feature_index(self):
        rng = np.random.default_rng(2)
        col = (rng.random(40) < 0.5).astype(float)
        X = matrix_of(np.column_stack([col, col, col]))  # identical candidates
        y = col.astype(int)
        model = TreeModel.fit(X, y, TreeParams(max_depth=2, min_leaf=1))
        assert _split_order(model) == [0]

    def test_max_depth_zero_is_a_single_leaf(self):
        X = matrix_of([[0.0], [1.0]])
        y = np.array([0, 1])
        model = TreeModel.fit(X, y, TreeParams(max_depth=0, min_leaf=1))
        assert _split_order(model) == []

    @settings(deadline=None, max_examples=30)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_scores_are_probabilities(self, seed):
        rng = np.random.default_rng(seed)
        X = matrix_of(rng.random((30, 5)) < 0.5)
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

    def test_without_bootstrap_every_tree_grows_on_all_rows(self):
        rng = np.random.default_rng(6)
        X, y = _xor_free_problem(rng)
        model = ForestModel.fit(X, y, ForestParams(n_trees=5, bootstrap=False), TreeParams(), 0)
        # a root holds the Laplace probability of its rows: here all n, in every tree
        assert [t.levels[0][1][0] for t in model.trees] == [(y.sum() + 1) / (len(y) + 2)] * 5
        bagged = ForestModel.fit(X, y, ForestParams(n_trees=5), TreeParams(), 0)
        assert len({t.levels[0][1][0] for t in bagged.trees}) > 1

    def test_features_per_split_exceeding_dimension_is_an_error(self):
        rng = np.random.default_rng(6)
        X, y = _xor_free_problem(rng, d=4)
        with pytest.raises(TrainingError):
            ForestModel.fit(X, y, ForestParams(features_per_split=9), TreeParams(), 0)


@st.composite
def _grow_problem(draw):
    """A random small 0/1 matrix with both classes and grower settings."""
    n = draw(st.integers(min_value=2, max_value=80))
    d = draw(st.integers(min_value=1, max_value=16))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    X = (rng.random((n, d)) < draw(st.floats(min_value=0.05, max_value=0.95))).astype(float)
    y = (rng.random(n) < draw(st.floats(min_value=0.05, max_value=0.95))).astype(np.int64)
    y[rng.choice(n, size=2, replace=False)] = [0, 1]
    tree = TreeParams(
        max_depth=draw(st.integers(min_value=0, max_value=8)),
        min_leaf=draw(st.integers(min_value=1, max_value=6)),
    )
    fps = draw(st.one_of(st.just("sqrt"), st.integers(min_value=1, max_value=d)))
    forest = ForestParams(
        n_trees=draw(st.integers(min_value=1, max_value=4)),
        features_per_split=fps,
        bootstrap=draw(st.booleans()),
    )
    return X, y, tree, forest, draw(st.integers(min_value=0, max_value=2**31 - 1))


class TestGrowerOracle:
    """The package grower against the copying reference grower above."""

    @settings(deadline=None, max_examples=200)
    @given(_grow_problem())
    def test_same_serialized_models_as_reference(self, problem):
        X, y, tree, forest, seed = problem
        assert TreeModel.fit(matrix_of(X), y, tree).serialize() == _ref_tree(X, y, tree)
        got, expected, _ = _fit_and_replay(X, y, forest, tree, seed)
        assert got.serialize() == expected

    def test_degenerate_resample_falls_back_to_full_data(self):
        X = np.array([[0.0, 1.0, 1.0, 0.0], [1.0, 0.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0]])
        y = np.array([1, 0, 0])
        forest, tree = ForestParams(n_trees=20), TreeParams(max_depth=3, min_leaf=1)
        got, expected, fallbacks = _fit_and_replay(X, y, forest, tree, seed=0)
        assert fallbacks > 0
        assert got.serialize() == expected

    @settings(deadline=None, max_examples=100)
    @given(_grow_problem(), st.integers(min_value=2, max_value=6000))
    def test_block_size_moves_no_byte(self, problem, block):
        # one tree per block, a drawn cap on a block's root (row, candidate)
        # pairs, and every tree in one block; _ref_forest also asserts that
        # each tree's replay took every draw the package made. A single tree
        # counts its features in column chunks of at most the same cap
        X, y, tree, forest, seed = problem
        for size in (1, block, 1 << 62):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(classifiers, "_GROW_BLOCK", size)
                got, expected, _ = _fit_and_replay(X, y, forest, tree, seed)
                single = TreeModel.fit(matrix_of(X), y, tree).serialize()
            assert got.serialize() == expected
            assert single == _ref_tree(X, y, tree)

    @pytest.mark.parametrize("seed, digest", [
        (0, "65f632efbc84f0121e7fb8132e5263c4a73b28b1d3744a921581498613dfbcfb"),
        (1, "8eeaaa8b520b4411d3acde3322e28e572bee2efe581acbf6c2088c3dd8bf1360"),
    ])
    def test_forest_pin_at_benchmark_like_shape(self, seed, digest):
        # 2000x200, ~5% dense, labels from 8 planted features plus 10% noise:
        # deep bootstrap trees with sqrt(d) candidates, as in `clean`
        rng = np.random.default_rng(seed)
        X = (rng.random((2000, 200)) < 0.05).astype(float)
        X[:, :8] = rng.random((2000, 8)) < 0.3
        y = (X[:, :8].sum(axis=1) >= 2).astype(np.int64) ^ (rng.random(2000) < 0.1)
        model = ForestModel.fit(matrix_of(X), y, ForestParams(n_trees=10), TreeParams(), seed)
        assert hashlib.sha256(model.serialize().encode()).hexdigest() == digest


def _benchmark_like(n: int):
    """(matrix with its bool rows cached, labels): n x 200, about 12% dense,
    labels from 8 planted features plus 10% noise."""
    rng = np.random.default_rng(0)
    X = rng.random((n, 200)) < 0.11
    X[:, :8] = rng.random((n, 8)) < 0.3
    y = (X[:, :8].sum(axis=1) >= 2).astype(np.int64) ^ (rng.random(n) < 0.1)
    X = matrix_of(X)
    X.bool_rows  # the learner's cached input, not its transient memory
    return X, y


class TestBlockGrower:
    @pytest.mark.parametrize("low, high", [(1, 255), (256, 65535), (65536, 70000)])
    def test_narrow_counts_stay_exact(self, low, high):
        # bootstrap counts held in uint8 (whose sums pass 255), uint16 and uint32:
        # the tree is the reference tree of the matrix with each row repeated
        rng = np.random.default_rng(high)
        X = (rng.random((8, 3)) < 0.5).astype(float)
        X[:2] = [[0, 0, 0], [1, 1, 1]]  # every feature takes both values
        y = np.array([0, 1] * 4)
        weight = rng.integers(low, high, size=8, endpoint=True)
        params = TreeParams(max_depth=3, min_leaf=1)
        sample = np.arange(8), weight, None
        [levels] = classifiers._grow_levels(matrix_of(X).bool_rows, y, [sample], params, None)
        assert len(levels) > 1  # the root splits, so the counts shape its children
        expected = _ref_tree(np.repeat(X, weight, axis=0), np.repeat(y, weight), params)
        assert TreeModel(levels, 3).serialize() == expected

    @pytest.mark.parametrize("total", [255, 256, 65535, 65536])
    def test_counts_at_the_accumulator_boundaries(self, total):
        # the counts are summed in the narrowest type that holds the root's
        # weighted size: uint8 up to 255, uint16 up to 65535, then uint32. Row
        # 1, a positive with every feature, carries all but 7 of the weight, so
        # the root's positive counts come within a few of its size
        rng = np.random.default_rng(total)
        X = (rng.random((8, 3)) < 0.5).astype(float)
        X[:2] = [[0, 0, 0], [1, 1, 1]]
        y = np.array([0, 1] * 4)
        weight = np.ones(8, dtype=np.int64)
        weight[1] = total - 7
        params = TreeParams(max_depth=3, min_leaf=1)
        sample = np.arange(8), weight, None
        [levels] = classifiers._grow_levels(matrix_of(X).bool_rows, y, [sample], params, None)
        assert len(levels) > 1 and levels[0][1][0] == (weight @ y + 1) / (total + 2)
        expected = _ref_tree(np.repeat(X, weight, axis=0), np.repeat(y, weight), params)
        assert TreeModel(levels, 3).serialize() == expected

    def test_tree_transient_memory_is_bounded(self):
        # 6400x200, about 12% dense: every feature is a candidate at every node,
        # and its 0/1 block is counted without a wide copy (14.4 MB when the
        # block was cast to int64 to be counted)
        X, y = _benchmark_like(6400)
        tracemalloc.start()
        try:
            TreeModel.fit(X, y, TreeParams())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_wide_tree_counts_in_column_chunks(self):
        # 2000x2000, about 1% dense, bool rows built inside the fit (4 MB): the
        # counts read at most _GROW_BLOCK cells at a time (16.4 MB when the
        # root's whole row block was copied and cast to uint16)
        rng = np.random.default_rng(0)
        X = rng.random((2000, 2000)) < 0.01
        y = (X[:, :8].sum(axis=1) >= 1).astype(np.int64) ^ (rng.random(2000) < 0.1)
        X = matrix_of(X)
        tracemalloc.start()
        try:
            TreeModel.fit(X, y, TreeParams())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_transient_memory_is_bounded(self):
        # 6400x200, about 12% dense, 100 bootstrap trees with sqrt(d) candidates:
        # blocks of at most _GROW_BLOCK root pairs peak near 6 MB here, and one
        # block of all 100 trees near 80 MB
        X, y = _benchmark_like(6400)
        tracemalloc.start()
        try:
            ForestModel.fit(X, y, ForestParams(n_trees=100), TreeParams(), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestCandidateDraw:
    @settings(deadline=None, max_examples=100)
    @given(
        m=st.integers(1, 40), d=st.integers(2, 300), data=st.data(),
        seed=st.integers(0, 2**32 - 1), block=st.integers(1, 2000),
    )
    def test_sorted_subsets_whatever_the_block_size(self, m, d, data, seed, block):
        k = data.draw(st.integers(1, d - 1))
        whole = classifiers._draw_candidates(np.random.default_rng(seed), m, d, k)
        assert whole.shape == (m, k)
        assert ((np.diff(whole, axis=1) > 0).all() and whole.min() >= 0 and whole.max() < d)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classifiers, "_CHUNK", block)
            blocks = classifiers._draw_candidates(np.random.default_rng(seed), m, d, k)
        assert np.array_equal(blocks, whole)

    def test_draw_blocks_stay_bounded_at_large_dimension(self):
        # 600 rows with random labels over d = 20000 features, sqrt(d) = 142
        # candidates per node: in one block, a depth's draw would take m x 20000
        # uniforms
        n, d = 600, 20000
        rng = np.random.default_rng(0)
        X = rng.random((n, d)) < 0.002
        X[:, :d:100] = rng.random((n, 200)) < 0.5  # dense enough for balanced splits
        X = matrix_of(X)
        y = rng.integers(0, 2, size=n)
        calls, real = [], classifiers._draw_candidates  # per draw: (m, its block shapes)

        def record(rng, m, d, k):
            shapes = []

            class Recording:
                def random(self, size):
                    shapes.append(size)
                    return rng.random(size)

            calls.append((m, shapes))
            return real(Recording(), m, d, k)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classifiers, "_draw_candidates", record)
            ForestModel.fit(X, y, ForestParams(n_trees=2), TreeParams(min_leaf=20), 0)
        blocks = [shape for _, shapes in calls for shape in shapes]
        assert all(cols == d and rows * cols <= classifiers._CHUNK for rows, cols in blocks)
        assert all(sum(rows for rows, _ in shapes) == m for m, shapes in calls)
        assert max(m for m, _ in calls) > classifiers._CHUNK // d  # a depth took several blocks


def _walk(tree: dict, X) -> list[float]:
    """Per row, the leaf probability a plain walk of a serialized tree reaches."""
    out = []
    for row in np.asarray(X):
        node = tree
        while "feature" in node:
            node = node["present" if row[node["feature"]] else "absent"]
        out.append(float(node["leaf"]))
    return out


class TestLevelScorer:
    """Trees are their level arrays; scoring walks them depth by depth."""

    @settings(deadline=None, max_examples=150)
    @given(problem=_grow_problem(), extra=st.integers(0, 2**32 - 1))
    def test_scores_are_a_walk_of_the_serialized_trees(self, problem, extra):
        X, y, tree, forest, seed = problem
        rng = np.random.default_rng(extra)
        Z = np.vstack([X, rng.random((10, X.shape[1])) < 0.5])  # rows the fit never saw
        M, MZ = matrix_of(X), matrix_of(Z)
        model = TreeModel.fit(M, y, tree)
        assert model.score_matrix(MZ).tolist() == _walk(model.to_dict()["root"], Z)
        model = ForestModel.fit(M, y, forest, tree, seed)
        total = [0.0] * len(Z)
        for t in json.loads(model.serialize())["trees"]:
            total = [a + b for a, b in zip(total, _walk(t, Z))]
        expected = [v / forest.n_trees for v in total]
        assert model.score_matrix(MZ).tolist() == expected

    @settings(deadline=None, max_examples=50)
    @given(_grow_problem())
    def test_every_node_holds_the_laplace_probability_of_its_rows(self, problem):
        X, y, tree, _, _ = problem
        model = TreeModel.fit(matrix_of(X), y, tree)
        nodes = [np.arange(len(y))]  # each node's training rows, left to right
        for feature, prob in model.levels:
            assert len(feature) == len(nodes)
            assert ((prob > 0) & (prob < 1)).all()
            assert prob.tolist() == [(y[rows].sum() + 1) / (len(rows) + 2) for rows in nodes]
            nodes = [
                rows[X[rows, f] == side]
                for rows, f in zip(nodes, feature.tolist()) if f >= 0
                for side in (0, 1)
            ]
        assert nodes == []  # the last depth holds leaves only

    def test_chain_deeper_than_the_recursion_limit(self):
        # depth D: node k splits on feature k, its absent child is a leaf of
        # probability (k + 1) / (D + 2) and its present child goes on; row i has
        # features 0..i-1, so it leaves the chain at depth i + 1 with score
        # (i + 1) / (D + 2). A recursive scorer needs D nested calls here.
        D = sys.getrecursionlimit() + 100
        levels = [(np.array([0]), np.array([math.nan]))]
        for k in range(1, D):
            levels.append((np.array([-1, k]), np.array([k / (D + 2), math.nan])))
        levels.append((np.array([-1, -1]), np.array([D / (D + 2), (D + 1) / (D + 2)])))
        model = TreeModel(levels, D)
        staircase = np.concatenate([np.arange(i) for i in range(D + 1)])
        X = BinaryMatrix(offsets(np.arange(D + 1)), staircase, D)
        expected = (np.arange(D + 1) + 1) / (D + 2)
        assert np.array_equal(model.score_matrix(X), expected)
        assert np.array_equal(ForestModel([model, model], D).score_matrix(X), expected)
        some = np.r_[0:D + 1:97, D]
        assert _walk(model.to_dict()["root"], X.bool_rows[some]) == expected[some].tolist()

    @settings(deadline=None, max_examples=100)
    @given(problem=_grow_problem(), block=st.integers(2, 2000), extra=st.integers(0, 2**32 - 1))
    def test_score_block_size_moves_no_byte(self, problem, block, extra):
        # trees and forests share one node-table scorer, here with one (tree,
        # row) pair per pass, a drawn cap on them, and every tree in one pass
        X, y, tree, forest, seed = problem
        rng = np.random.default_rng(extra)
        Z = np.vstack([X, rng.random((10, X.shape[1])) < 0.5])  # rows the fit never saw
        MZ, empty = matrix_of(Z), matrix_of(np.zeros((0, X.shape[1])))
        single = TreeModel.fit(matrix_of(X), y, tree)
        bagged = ForestModel.fit(matrix_of(X), y, forest, tree, seed)
        walks = [_walk(t, Z) for t in json.loads(bagged.serialize())["trees"]]
        expected = [sum(v) / forest.n_trees for v in zip(*walks)]  # summed in tree order
        for size in (1, block, 1 << 62):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(classifiers, "_SCORE_BLOCK", size)
                assert single.score_matrix(MZ).tolist() == _walk(single.to_dict()["root"], Z)
                assert bagged.score_matrix(MZ).tolist() == expected
                for model in (single, bagged):
                    assert model.score_matrix(empty).shape == (0,)


class TestCommonSurface:
    def test_train_dispatch(self):
        rng = np.random.default_rng(7)
        X, y = _xor_free_problem(rng)
        assert isinstance(train(X, y, TrainConfig(learner="linear")), LinearModel)
        assert isinstance(train(X, y, TrainConfig(learner="tree")), TreeModel)
        cfg = TrainConfig(learner="forest", forest=ForestParams(n_trees=3))
        assert isinstance(train(X, y, cfg), ForestModel)

    @pytest.mark.parametrize("learner", ["Forest", "", "svm", None])
    def test_unknown_learner_is_refused_where_it_enters(self, learner):
        # "tree" once trained a forest, and an unknown name failed only in to_dict
        with pytest.raises(ValueError) as err:
            TrainConfig(learner=learner)
        assert str(err.value) == f"learner must be one of linear, tree, forest, got {learner!r}"

    def test_single_class_target_is_an_error(self):
        X = matrix_of(np.ones((4, 2)))
        with pytest.raises(TrainingError, match="degenerate"):
            train(X, np.ones(4), TrainConfig(learner="linear"))

    # the case ids keep the spelling they had when learners were enum members
    @pytest.mark.parametrize("learner", LEARNERS, ids=lambda l: f"Learner.{l.upper()}")
    @pytest.mark.parametrize("bad, named", [(2, "2"), (-1, "-1"), (0.5, "0.5"), (math.nan, "nan")])
    def test_targets_must_be_zero_or_one(self, learner, bad, named):
        # a tree once scored every row 0.95 on y in {0, 2}, and a forest failed
        # with a numpy broadcast error on y in {-1, 0, 1}; the first bad value is named
        X, y = _xor_free_problem(np.random.default_rng(8))
        y = y.astype(type(bad))
        y[[3, 5]] = bad, 3
        cfg = TrainConfig(learner=learner, forest=ForestParams(n_trees=2))
        with pytest.raises(TrainingError, match=f"0 or 1, got {named}$"):
            train(X, y, cfg)

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
            model.score_matrix(matrix_of(np.zeros((2, 4))))


def _ref_linear_descent(X, y, params: LinearParams):
    """Per epoch, (w, b, dw, db) of the dense full-batch descent the linear
    learner ran before it took CSR input, with numpy's products on the float64
    matrix: the point an epoch starts from and the gradient it steps by."""
    w, b, y = np.zeros(X.shape[1]), 0.0, y.astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(params.epochs):
            resid = 1.0 / (1.0 + np.exp(-(X @ w + b))) - y
            dw, db = X.T @ resid / len(y) + params.l2 * w, float(np.mean(resid))
            yield w.copy(), b, dw, db
            w -= params.learning_rate * dw
            b -= params.learning_rate * db


class TestMatrixInput:
    """Every learner on the CSR matrix of a dataset against its dense twin."""

    @settings(deadline=None, max_examples=150)
    @given(
        ds=pu_datasets(),
        params=st.builds(
            LinearParams,
            st.sampled_from([0.1, 1.0, 5.0]), st.integers(1, 60), st.sampled_from([0.0, 1e-3]),
        ),
    )
    def test_linear_fit_matches_dense_descent(self, ds, params):
        # The CSR sums add in another order than numpy's dense products, so the
        # two descents agree per step up to rounding, not bit for bit. Whole
        # trajectories are not compared: at learning rate 5 the step is
        # unstable along directions whose gradient cancels to 0, and there
        # rounding noise doubles every epoch in the dense descent itself
        # (a weight that is exactly 0 in real arithmetic reaches 2e-9 after
        # 23 epochs). So the CSR gradient is checked at every point of the
        # dense trajectory, and the fit is checked to be the CSR descent.
        assume(len(ds.positives) and len(ds.unlabeled))
        M, z = training_arrays(ds)
        X = dense_matrix(ds.samples, ds.space.dimension)
        yf = z.astype(np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            for w, b, dw, db in _ref_linear_descent(X, z, params):
                if not (np.isfinite(w).all() and math.isfinite(b)):
                    break
                # each resid entry moves by at most 0.25 times the rounding of
                # its logit, which is a few ulps of sum|w| + |b|
                tol = 1e-12 * (1.0 + np.abs(w).sum() + abs(b))
                got_dw, got_db = classifiers._logistic_grad(w, b, M, yf, params.l2)
                assert np.abs(got_dw - dw).max(initial=0.0) <= tol
                assert abs(got_db - db) <= tol
            model = LinearModel.fit(M, z, params)
            w, b = np.zeros(M.shape[1]), 0.0
            for _ in range(params.epochs):
                dw, db = classifiers._logistic_grad(w, b, M, yf, params.l2)
                w = w - params.learning_rate * dw
                b = b - params.learning_rate * db
        assert np.array_equal(model.weights, w, equal_nan=True)
        assert model.bias == b or (math.isnan(model.bias) and math.isnan(b))
        if np.isfinite(w).all() and math.isfinite(b):
            ref_scores = 1.0 / (1.0 + np.exp(-(X @ w + b)))
            tol = 1e-12 * (1.0 + np.abs(w).sum() + abs(b))
            assert np.abs(model.score_matrix(M) - ref_scores).max(initial=0.0) <= tol

    @settings(deadline=None, max_examples=150)
    @given(ds=pu_datasets(), seed=st.integers(0, 2**31 - 1), depth=st.integers(0, 6))
    def test_tree_and_forest_same_from_matrix_and_dense(self, ds, seed, depth):
        assume(len(ds.positives) and len(ds.unlabeled))
        M, z = training_arrays(ds)
        X = dense_matrix(ds.samples, ds.space.dimension)
        tree = TreeParams(max_depth=depth, min_leaf=1)
        assert TreeModel.fit(M, z, tree).serialize() == _ref_tree(X, z, tree)
        forest = ForestParams(n_trees=3)
        got = ForestModel.fit(M, z, forest, tree, seed)
        replayed, expected, _ = _fit_and_replay(X, z, forest, tree, seed)
        assert got.serialize() == replayed.serialize() == expected
