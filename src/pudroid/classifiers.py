"""From-scratch probabilistic binary classifiers on 0/1 feature matrices.

Every learner trains and scores on one representation, the CSR
`features.BinaryMatrix`; a dense 0/1 array is converted to it on the way in.
Three learners share the score_matrix(X) -> [0, 1]^n contract:
  * logistic linear model, full-batch gradient descent with L2 penalty
  * CART-style decision tree with Gini splits and Laplace-smoothed leaves
  * bagged random forest of such trees with per-node feature subsampling

Training is fully determined by (data, config, seed); each forest tree draws
its RNG stream from (seed, tree_index) so tree-level parallelism could never
change results.
"""

from __future__ import annotations

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


Matrix = Union[BinaryMatrix, np.ndarray]


def _as_matrix(X: Matrix) -> BinaryMatrix:
    """A BinaryMatrix as it is; a dense array converted, and rejected unless 0/1."""
    return X if isinstance(X, BinaryMatrix) else BinaryMatrix.from_dense(X)


def _validate_training_input(X: Matrix, y: np.ndarray) -> tuple[BinaryMatrix, np.ndarray]:
    X = _as_matrix(X)
    y = np.asarray(y, dtype=np.int64)
    if len(y) != X.shape[0]:
        raise TrainingError("X must be (n, d) with one target per row")
    if X.shape[0] == 0:
        raise TrainingError("empty training set")
    if len(np.unique(y)) < 2:
        raise TrainingError("degenerate target: only one class present")
    return X, y


class ProbabilisticClassifier:
    """Common scoring surface; subclasses implement score_matrix."""

    dimension: int

    def score_matrix(self, X: Matrix) -> np.ndarray:
        raise NotImplementedError

    def _check_dim(self, X: Matrix) -> BinaryMatrix:
        X = _as_matrix(X)
        if X.shape[1] != self.dimension:
            raise DimensionError(
                f"input has {X.shape[1]} features, model expects {self.dimension}"
            )
        return X

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


def logistic_loss_and_grad(
    w: np.ndarray, b: float, X: Matrix, y: np.ndarray, l2: float
) -> tuple[float, np.ndarray, float]:
    """(loss, dw, db): the objective _logistic_grad descends, and its gradient."""
    X = _as_matrix(X)
    p = _sigmoid(X, w, b)
    eps = 1e-12
    loss = float(-np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)))
    loss += 0.5 * l2 * float(w @ w)
    return (loss, *_logistic_grad(w, b, X, y, l2))


class LinearModel(ProbabilisticClassifier):
    def __init__(self, weights: np.ndarray, bias: float):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.bias = float(bias)
        self.dimension = len(self.weights)

    def score_matrix(self, X: Matrix) -> np.ndarray:
        return _sigmoid(self._check_dim(X), self.weights, self.bias)

    def to_dict(self) -> dict:
        return {
            "version": FORMAT_VERSION,
            "type": "linear",
            "weights": [repr(float(v)) for v in self.weights],
            "bias": repr(self.bias),
        }

    @classmethod
    def fit(cls, X: Matrix, y: np.ndarray, params: LinearParams) -> "LinearModel":
        X, y = _validate_training_input(X, y)
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


@dataclass(frozen=True)
class _Leaf:
    prob: float


@dataclass(frozen=True)
class _Split:
    feature: int
    absent: "_Leaf | _Split"
    present: "_Leaf | _Split"


def _gini(n: np.ndarray, pos: np.ndarray) -> np.ndarray:
    p = pos / np.maximum(n, 1)  # an empty side has pos == 0, so p == 0 there
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


def _best_split(
    XT: np.ndarray, W: np.ndarray, rows: np.ndarray, pos: int,
    candidates: Optional[np.ndarray], min_leaf: int,
) -> Optional[int]:
    """Candidate feature with the largest Gini gain; ties go to the lowest index.

    candidates None means every feature. Returns None when no candidate yields
    a valid split with positive gain.
    """
    n = len(rows)
    # (k, n) 0/1 block times the rows' [1, y] pairs: per candidate, the number
    # of rows with the feature present and how many of them are positive;
    # integer sums, so the float64 products are exact
    block = XT.take(rows, axis=1) if candidates is None else XT[candidates].take(rows, axis=1)
    counts = block @ W.take(rows, axis=0)
    n1, pos1 = counts[:, 0], counts[:, 1]
    n0 = n - n1
    pos0 = pos - pos1
    weighted = (n0 * _gini(n0, pos0) + n1 * _gini(n1, pos1)) / n
    p_parent = pos / n
    parent = 1.0 - p_parent * p_parent - (1.0 - p_parent) * (1.0 - p_parent)
    gain = parent - weighted
    valid = (n0 >= min_leaf) & (n1 >= min_leaf) & (gain > 1e-12)
    if not valid.any():
        return None
    gain = np.where(valid, gain, -np.inf)
    # candidates are sorted ascending, so argmax's first-hit rule breaks ties
    # toward the lowest feature index
    best = int(np.argmax(gain))
    return best if candidates is None else int(candidates[best])


def _grow(
    XT: np.ndarray,
    W: np.ndarray,
    rows: np.ndarray,
    depth: int,
    params: TreeParams,
    k: Optional[int],
    rng: Optional[np.random.Generator],
) -> "_Leaf | _Split":
    """Grow the subtree on `rows`, a multiset of row indices of the fit's data.

    XT is the (d, n) bool matrix and W the (n, 2) float64 [1, y] matrix built
    once per fit by `_grow_arrays`; a node holds only its row indices.
    """
    n = len(rows)
    pos = int(W[rows, 1].sum())
    if depth >= params.max_depth or n < 2 * params.min_leaf or pos in (0, n):
        return _Leaf((pos + 1) / (n + 2))
    d = XT.shape[0]
    if k is None or k >= d:
        candidates = None
    else:
        candidates = np.sort(rng.choice(d, size=k, replace=False))
    feat = _best_split(XT, W, rows, pos, candidates, params.min_leaf)
    if feat is None:
        return _Leaf((pos + 1) / (n + 2))
    present = XT[feat].take(rows)
    absent = _grow(XT, W, rows[~present], depth + 1, params, k, rng)
    present = _grow(XT, W, rows[present], depth + 1, params, k, rng)
    return _Split(feat, absent, present)


def _grow_arrays(X: BinaryMatrix, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The grower's view of a training set: (d, n) bool XT and (n, 2) [1, y]."""
    W = np.column_stack([np.ones(len(y)), y.astype(np.float64)])
    return X.XT, W


def _score_into(node: "_Leaf | _Split", XT: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
    if isinstance(node, _Leaf):
        out[rows] = node.prob
        return
    present = XT[node.feature].take(rows)
    _score_into(node.absent, XT, rows[~present], out)
    _score_into(node.present, XT, rows[present], out)


def _node_to_dict(node: "_Leaf | _Split") -> dict:
    if isinstance(node, _Leaf):
        return {"leaf": repr(node.prob)}
    return {
        "feature": node.feature,
        "absent": _node_to_dict(node.absent),
        "present": _node_to_dict(node.present),
    }


class TreeModel(ProbabilisticClassifier):
    def __init__(self, root: "_Leaf | _Split", dimension: int):
        self.root = root
        self.dimension = dimension

    def score_matrix(self, X: Matrix) -> np.ndarray:
        X = self._check_dim(X)
        out = np.empty(X.shape[0])
        _score_into(self.root, X.XT, np.arange(X.shape[0]), out)
        return out

    def to_dict(self) -> dict:
        return {
            "version": FORMAT_VERSION,
            "type": "tree",
            "dimension": self.dimension,
            "root": _node_to_dict(self.root),
        }

    @classmethod
    def fit(cls, X: Matrix, y: np.ndarray, params: TreeParams) -> "TreeModel":
        X, y = _validate_training_input(X, y)
        XT, W = _grow_arrays(X, y)
        root = _grow(XT, W, np.arange(len(y)), 0, params, None, None)
        return cls(root, X.shape[1])


# ---------------------------------------------------------------------------
# random forest


class ForestModel(ProbabilisticClassifier):
    def __init__(self, trees: list[TreeModel], dimension: int):
        self.trees = trees
        self.dimension = dimension

    def score_matrix(self, X: Matrix) -> np.ndarray:
        X = self._check_dim(X)  # converted once, so the trees share its XT
        total = np.zeros(X.shape[0])
        for tree in self.trees:
            total += tree.score_matrix(X)
        return total / len(self.trees)

    def to_dict(self) -> dict:
        return {
            "version": FORMAT_VERSION,
            "type": "forest",
            "dimension": self.dimension,
            "trees": [_node_to_dict(t.root) for t in self.trees],
        }

    @classmethod
    def fit(
        cls,
        X: Matrix,
        y: np.ndarray,
        params: ForestParams,
        tree_params: TreeParams,
        seed: int,
    ) -> "ForestModel":
        X, y = _validate_training_input(X, y)
        n, d = X.shape
        if params.features_per_split == "sqrt":
            k = math.ceil(math.sqrt(d))
        else:
            k = params.features_per_split
            if k > d:
                raise TrainingError("features_per_split exceeds the dimension")
        XT, W = _grow_arrays(X, y)
        trees: list[TreeModel] = []
        for t in range(params.n_trees):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, t])))
            rows = np.arange(n)
            if params.bootstrap:
                idx = rng.integers(0, n, size=n)
                if len(np.unique(y[idx])) >= 2:  # else degenerate: keep the full data
                    rows = idx
            root = _grow(XT, W, rows, 0, tree_params, k, rng)
            trees.append(TreeModel(root, d))
        return cls(trees, d)


# ---------------------------------------------------------------------------
# front door


def train(X: Matrix, y: np.ndarray, cfg: TrainConfig) -> ProbabilisticClassifier:
    """Train the configured learner on a 0/1 matrix with binary targets."""
    if cfg.learner is Learner.LINEAR:
        return LinearModel.fit(X, y, cfg.linear)
    if cfg.learner is Learner.TREE:
        return TreeModel.fit(X, y, cfg.tree)
    return ForestModel.fit(X, y, cfg.forest, cfg.tree, cfg.seed)


def _node_from_dict(data: dict) -> "_Leaf | _Split":
    if "leaf" in data:
        return _Leaf(float(data["leaf"]))
    return _Split(
        int(data["feature"]),
        _node_from_dict(data["absent"]),
        _node_from_dict(data["present"]),
    )


def deserialize(text: str) -> ProbabilisticClassifier:
    data = json.loads(text)
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported model format: {data.get('version')!r}")
    if data["type"] == "linear":
        return LinearModel(np.array([float(v) for v in data["weights"]]), float(data["bias"]))
    if data["type"] == "tree":
        return TreeModel(_node_from_dict(data["root"]), int(data["dimension"]))
    if data["type"] == "forest":
        d = int(data["dimension"])
        return ForestModel([TreeModel(_node_from_dict(t), d) for t in data["trees"]], d)
    raise ValueError(f"unknown model type {data['type']!r}")
