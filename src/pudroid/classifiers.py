"""From-scratch probabilistic binary classifiers on 0/1 feature matrices.

Every learner trains and scores on one representation, the CSR
`features.BinaryMatrix`, and takes no other.
Three learners share the score_matrix(X) -> [0, 1]^n contract:
  * logistic linear model, full-batch gradient descent with L2 penalty
  * CART-style decision tree with Gini splits and Laplace-smoothed leaves
  * bagged random forest of such trees with per-node feature subsampling

Trees grow level by level, as in XGBoost (Chen & Guestrin, KDD 2016) and
LightGBM (Ke et al., NeurIPS 2017): all nodes of a depth are split by one set
of array operations over (distinct row, bootstrap count) pairs, with integer
split counts, so a single tree is the one a node-by-node grower builds, bit
for bit. The per-depth arrays the grower builds are the tree model itself:
scoring and the nested model JSON both run depth by depth, with no node
objects and no recursion. Models are written (serialize), never read back.

Training is fully determined by (data, config, seed); each forest tree draws
its RNG stream from (seed, tree_index) so tree-level parallelism could never
change results. Within a tree, the candidate features of a depth's nodes are
drawn in one call, left to right, depth after depth. Earlier versions drew
them node by node in pre-order, so a forest differs from theirs for the same
seed; no level-wise order can replay a pre-order stream.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union

import numpy as np

from .features import BinaryMatrix, DimensionError

FORMAT_VERSION = "pudroid-model/1"


class TrainingError(ValueError):
    pass


class Learner(Enum):
    LINEAR = "linear"
    TREE = "tree"
    FOREST = "forest"


def _require(ok: bool, name: str, rule: str, value) -> None:
    if not ok:
        raise ValueError(f"{name} must be {rule}, got {value!r}")


@dataclass(frozen=True)
class LinearParams:
    learning_rate: float = 0.1
    epochs: int = 200
    l2: float = 1e-3

    def __post_init__(self) -> None:
        lr, l2 = self.learning_rate, self.l2
        _require(math.isfinite(lr) and lr > 0, "learning_rate", "finite and > 0", lr)
        _require(self.epochs >= 1, "epochs", ">= 1", self.epochs)
        _require(math.isfinite(l2) and l2 >= 0, "l2", "finite and >= 0", l2)


@dataclass(frozen=True)
class TreeParams:
    max_depth: int = 12
    min_leaf: int = 5

    def __post_init__(self) -> None:
        _require(self.max_depth >= 0, "max_depth", ">= 0", self.max_depth)
        _require(self.min_leaf >= 1, "min_leaf", ">= 1", self.min_leaf)


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    features_per_split: Union[int, str] = "sqrt"
    bootstrap: bool = True

    def __post_init__(self) -> None:
        fps = self.features_per_split
        _require(self.n_trees >= 1, "n_trees", ">= 1", self.n_trees)
        ok = fps == "sqrt" or (type(fps) is int and fps >= 1)
        _require(ok, "features_per_split", "'sqrt' or an integer >= 1", fps)


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 0
    learner: Learner = Learner.FOREST
    linear: LinearParams = field(default_factory=LinearParams)
    tree: TreeParams = field(default_factory=TreeParams)
    forest: ForestParams = field(default_factory=ForestParams)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "learner": self.learner.value,
            "linear": vars(self.linear).copy(),
            "tree": vars(self.tree).copy(),
            "forest": vars(self.forest).copy(),
        }


def _validate_training_input(X: BinaryMatrix, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=np.int64)
    if len(y) != X.shape[0]:
        raise TrainingError("X must be (n, d) with one target per row")
    if X.shape[0] == 0:
        raise TrainingError("empty training set")
    if len(np.unique(y)) < 2:
        raise TrainingError("degenerate target: only one class present")
    return y


class ProbabilisticClassifier:
    """Common scoring surface; subclasses implement score_matrix."""

    dimension: int

    def score_matrix(self, X: BinaryMatrix) -> np.ndarray:
        raise NotImplementedError

    def _check_dim(self, X: BinaryMatrix) -> None:
        if X.shape[1] != self.dimension:
            raise DimensionError(
                f"input has {X.shape[1]} features, model expects {self.dimension}"
            )

    def to_dict(self) -> dict:
        raise NotImplementedError

    def serialize(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# logistic linear model


def _sigmoid(X: BinaryMatrix, w: np.ndarray, b: float) -> np.ndarray:
    z = X @ w + b
    with np.errstate(over="ignore"):  # exp(-z) overflows to inf, and 1/(1+inf) is 0
        return 1.0 / (1.0 + np.exp(-z))


def _logistic_grad(
    w: np.ndarray, b: float, X: BinaryMatrix, y: np.ndarray, l2: float
) -> tuple[np.ndarray, float]:
    """(dw, db) of the mean cross-entropy plus 0.5*l2*||w||^2; the fit's one step.

    The intercept is not penalized.
    """
    resid = _sigmoid(X, w, b) - y
    return X.rmatvec(resid) / len(y) + l2 * w, float(np.mean(resid))


class LinearModel(ProbabilisticClassifier):
    def __init__(self, weights: np.ndarray, bias: float):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.bias = float(bias)
        self.dimension = len(self.weights)

    def score_matrix(self, X: BinaryMatrix) -> np.ndarray:
        self._check_dim(X)
        return _sigmoid(X, self.weights, self.bias)

    def to_dict(self) -> dict:
        return {
            "version": FORMAT_VERSION,
            "type": "linear",
            "weights": [repr(float(v)) for v in self.weights],
            "bias": repr(self.bias),
        }

    @classmethod
    def fit(cls, X: BinaryMatrix, y: np.ndarray, params: LinearParams) -> "LinearModel":
        y = _validate_training_input(X, y)
        w = np.zeros(X.shape[1])
        b = 0.0
        yf = y.astype(np.float64)
        # a huge learning rate overflows w to inf and then NaN; that is left to
        # the caller's finiteness check (estimate_e), not printed as warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(params.epochs):
                dw, db = _logistic_grad(w, b, X, yf, params.l2)
                w -= params.learning_rate * dw
                b -= params.learning_rate * db
        return cls(w, b)


# ---------------------------------------------------------------------------
# decision tree


# A tree is its levels: per depth, per node left to right, the split feature
# (-1 for a leaf) and the Laplace probability (pos + 1) / (size + 2). A depth's
# split nodes own the next depth's nodes in pairs, absent child first.
Levels = list[tuple[np.ndarray, np.ndarray]]


def _child_index(split: np.ndarray, node: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Each row's node at the next depth from its split node at this one: split
    node j's children are 2 * (split nodes left of j), absent, and the next one."""
    return 2 * (np.cumsum(split) - 1)[node] + present


def _gini(n: np.ndarray, pos: np.ndarray) -> np.ndarray:
    p = pos / np.maximum(n, 1)  # an empty side has pos == 0, so p == 0 there
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


# the most uniforms one block of a candidate draw holds, unless one row needs more
_DRAW_BLOCK = 1 << 16


def _draw_candidates(rng: np.random.Generator, m: int, d: int, k: int) -> np.ndarray:
    """(m, k) candidate features for the m nodes of a depth, each row a sorted
    uniform k-subset of range(d): the positions of the k smallest of d uniforms.

    The uniforms come in row blocks of at most max(d, _DRAW_BLOCK) values; the
    blocks consume the generator's stream in order, so their size moves no draw.
    """
    step = max(1, _DRAW_BLOCK // d)
    out = np.empty((m, k), dtype=np.int64)
    for start in range(0, m, step):
        u = rng.random((min(step, m - start), d))
        out[start:start + len(u)] = np.sort(np.argpartition(u, k - 1, axis=1)[:, :k], axis=1)
    return out


def _grow_levels(
    XR: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    weight: np.ndarray,
    params: TreeParams,
    k: Optional[int],
    rng: Optional[np.random.Generator],
) -> Levels:
    """Grow a tree's levels one depth at a time on `rows`, distinct row indices of the
    fit's data, row rows[i] standing for weight[i] copies (its bootstrap count).

    XR is the (n, d) row-major bool data and y its 0/1 labels. With k None (or
    k >= d) every feature is a candidate at every node; else the nodes of a
    depth that may split draw k features each, in one _draw_candidates call,
    left to right. Every count is an integer sum, so the gains are those a
    node-by-node grower computes, bit for bit, and ties go to the lowest
    feature index.
    """
    d = XR.shape[1]
    flat = XR.reshape(-1)
    all_features = k is None or k >= d
    node = np.zeros(len(rows), dtype=np.int64)  # each row's node, in its depth's order
    sizes = np.array([weight.sum()])  # per node: rows with multiplicity, and positives
    pos = np.array([weight @ y[rows]])
    levels: Levels = []
    for depth in itertools.count():
        feature = np.full(len(sizes), -1)
        levels.append((feature, (pos + 1) / (sizes + 2)))
        grows = (pos > 0) & (pos < sizes) & (sizes >= 2 * params.min_leaf)
        if depth >= params.max_depth or d == 0 or not grows.any():  # d == 0: nothing to split on
            break
        # the rows of the growing nodes, sorted by (node, label): with 0 < pos < size
        # in each, the 2m (node, label) segments are all non-empty
        g = np.flatnonzero(grows)
        m = len(g)
        keep = grows[node]
        rows, weight = rows[keep], weight[keep]
        key = _child_index(grows, node[keep], y[rows])  # as if each split on its label
        if 2 * m <= 1 << 16:  # numpy's stable sort of 16-bit keys is a radix sort
            key = key.astype(np.uint16)
        order = np.argsort(key, kind="stable")
        rows, weight, key = rows[order], weight[order], key[order]
        member = key >> 1
        seg = np.bincount(key)
        starts = np.cumsum(seg) - seg
        # per (node, candidate): the rows with the candidate present, and the
        # positive ones among them
        if all_features:
            cand = None
            block = XR.take(rows, axis=0)
        else:
            cand = _draw_candidates(rng, m, d, k)
            at = cand.take(member, axis=0)
            at += (rows * d)[:, None]
            block = flat.take(at)
        counts = np.add.reduceat(block * weight[:, None], starts, axis=0)
        pos1 = counts[1::2]
        n1 = counts[::2] + pos1
        n, p = sizes[g, None], pos[g, None]
        n0, pos0 = n - n1, p - pos1
        gain = _gini(n, p) - (n0 * _gini(n0, pos0) + n1 * _gini(n1, pos1)) / n
        valid = (n0 >= params.min_leaf) & (n1 >= params.min_leaf) & (gain > 1e-12)
        # argmax's first hit along the ascending candidates: ties go to the lowest feature
        best = np.where(valid, gain, -np.inf).argmax(axis=1)
        chosen = np.arange(m), best
        splits = valid[chosen]
        if not splits.any():  # the next depth would be empty
            break
        feat = best if cand is None else cand[chosen]
        feature[g[splits]] = feat[splits]
        # children: each split node's absent then present child, left to right
        sizes = np.column_stack([n0[chosen], n1[chosen]])[splits].ravel()
        pos = np.column_stack([pos0[chosen], pos1[chosen]])[splits].ravel()
        keep = splits[member]
        rows, weight, member = rows[keep], weight[keep], member[keep]
        present = flat.take(rows * d + feat[member])
        node = _child_index(splits, member, present)
    return levels


def _tree_dict(levels: Levels) -> dict:
    """The nested JSON of a tree, built bottom-up."""
    below: list[dict] = []
    for feature, prob in reversed(levels):
        child = iter(below)
        below = [
            {"leaf": repr(p)} if f < 0
            else {"feature": f, "absent": next(child), "present": next(child)}
            for f, p in zip(feature.tolist(), prob.tolist())
        ]
    return below[0]


class TreeModel(ProbabilisticClassifier):
    def __init__(self, levels: Levels, dimension: int):
        self.levels = levels
        self.dimension = dimension

    def score_matrix(self, X: BinaryMatrix) -> np.ndarray:
        """Depth by depth, the rows at a leaf take its probability and the
        others move to their child, as in the grower: no recursion."""
        self._check_dim(X)
        flat = X.bool_rows.reshape(-1)
        out = np.empty(X.shape[0])
        rows = np.arange(X.shape[0])
        node = np.zeros(X.shape[0], dtype=np.int64)
        for feature, prob in self.levels:
            f = feature.take(node)
            leaf = f < 0
            if leaf.any():
                out[rows[leaf]] = prob.take(node[leaf])
                inner = np.flatnonzero(~leaf)
                rows, node, f = rows.take(inner), node.take(inner), f.take(inner)
            node = _child_index(feature >= 0, node, flat.take(rows * self.dimension + f))
        return out

    def to_dict(self) -> dict:
        return {
            "version": FORMAT_VERSION,
            "type": "tree",
            "dimension": self.dimension,
            "root": _tree_dict(self.levels),
        }

    @classmethod
    def fit(cls, X: BinaryMatrix, y: np.ndarray, params: TreeParams) -> "TreeModel":
        y = _validate_training_input(X, y)
        n = len(y)
        ones = np.ones(n, dtype=np.int64)
        levels = _grow_levels(X.bool_rows, y, np.arange(n), ones, params, None, None)
        return cls(levels, X.shape[1])


# ---------------------------------------------------------------------------
# random forest


class ForestModel(ProbabilisticClassifier):
    def __init__(self, trees: list[TreeModel], dimension: int):
        self.trees = trees
        self.dimension = dimension

    def score_matrix(self, X: BinaryMatrix) -> np.ndarray:
        self._check_dim(X)  # every tree reads the one cached X.bool_rows
        total = np.zeros(X.shape[0])
        for tree in self.trees:
            total += tree.score_matrix(X)
        return total / len(self.trees)

    def to_dict(self) -> dict:
        return {
            "version": FORMAT_VERSION,
            "type": "forest",
            "dimension": self.dimension,
            "trees": [_tree_dict(t.levels) for t in self.trees],
        }

    @classmethod
    def fit(
        cls,
        X: BinaryMatrix,
        y: np.ndarray,
        params: ForestParams,
        tree_params: TreeParams,
        seed: int,
    ) -> "ForestModel":
        y = _validate_training_input(X, y)
        n, d = X.shape
        if params.features_per_split == "sqrt":
            k = math.ceil(math.sqrt(d))
        else:
            k = params.features_per_split
            if k > d:
                raise TrainingError("features_per_split exceeds the dimension")
        trees: list[TreeModel] = []
        for t in range(params.n_trees):
            rng = np.random.default_rng([seed, t])
            rows, weight = np.arange(n), np.ones(n, dtype=np.int64)
            if params.bootstrap:
                idx = rng.integers(0, n, size=n)
                if len(np.unique(y[idx])) >= 2:  # else degenerate: keep the full data
                    weight = np.bincount(idx, minlength=n)
                    rows = np.flatnonzero(weight)
                    weight = weight[rows]
            levels = _grow_levels(X.bool_rows, y, rows, weight, tree_params, k, rng)
            trees.append(TreeModel(levels, d))
        return cls(trees, d)


# ---------------------------------------------------------------------------
# front door


def train(X: BinaryMatrix, y: np.ndarray, cfg: TrainConfig) -> ProbabilisticClassifier:
    """Train the configured learner on a 0/1 matrix with binary targets."""
    if cfg.learner is Learner.LINEAR:
        return LinearModel.fit(X, y, cfg.linear)
    if cfg.learner is Learner.TREE:
        return TreeModel.fit(X, y, cfg.tree)
    return ForestModel.fit(X, y, cfg.forest, cfg.tree, cfg.seed)
