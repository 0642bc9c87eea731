"""From-scratch probabilistic binary classifiers on 0/1 feature matrices.

Every learner trains and scores on one representation, the CSR
`features.BinaryMatrix`, and takes no other.
Three learners share the score_matrix(X) -> [0, 1]^n contract:
  * logistic linear model, full-batch gradient descent with L2 penalty
  * CART-style decision tree with Gini splits and Laplace-smoothed leaves
  * bagged random forest of such trees with per-node feature subsampling

Trees grow level by level, as in XGBoost (Chen & Guestrin, KDD 2016) and
LightGBM (Ke et al., NeurIPS 2017), and a forest grows them in blocks: one set
of array operations splits all nodes of a depth, of every tree in the block,
over (distinct row, bootstrap count) pairs. The split counts are summed in the
narrowest unsigned type that holds a root's weighted size, which no count
exceeds, and only the per-depth sums are widened to int64: they are exact
integers, so a single tree is the one a node-by-node grower builds, bit for
bit. A block holds as many trees as keep its root's (row, candidate) pairs
under a fixed cap, and a tree that splits on every feature counts column
chunks under the same cap, which bounds the grower's transient memory; neither
changes a byte of the model. The per-depth arrays the grower builds are the
tree model itself, and the nested model JSON is built from them depth by
depth. Trees and forests score through one node table, built from the levels
on first use (each node's feature, probability and two children, a leaf its
own children), which a block of trees walks together one depth per step:
no node objects and no recursion. A tree scores as a forest of one. Models
are written (serialize), never read back.

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
from functools import cached_property
from typing import NamedTuple, Optional, Union

import numpy as np

from .features import _CHUNK, BinaryMatrix, DimensionError, check_ranges

FORMAT_VERSION = "pudroid-model/1"


class TrainingError(ValueError):
    pass


LEARNERS = ("linear", "tree", "forest")


# each field's "range" is checked here and by the CLI's flags
@dataclass(frozen=True)
class LinearParams:
    learning_rate: float = field(
        default=0.1, metadata={"range": "(0, inf)", "help": "linear learning rate"}
    )
    epochs: int = field(default=200, metadata={"range": "[1, inf)"})
    l2: float = field(default=1e-3, metadata={"range": "[0, inf)"})

    def __post_init__(self) -> None:
        check_ranges(self)


@dataclass(frozen=True)
class TreeParams:
    max_depth: int = field(default=12, metadata={"range": "[0, inf)"})
    min_leaf: int = field(default=5, metadata={"range": "[1, inf)"})

    def __post_init__(self) -> None:
        check_ranges(self)


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = field(default=100, metadata={"range": "[1, inf)"})
    features_per_split: Union[int, str] = "sqrt"
    bootstrap: bool = True

    def __post_init__(self) -> None:
        check_ranges(self)
        fps = self.features_per_split
        if not (fps == "sqrt" or (type(fps) is int and fps >= 1)):
            raise ValueError(f"features_per_split must be 'sqrt' or an integer >= 1, got {fps!r}")


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 0
    learner: str = "forest"  # one of LEARNERS
    linear: LinearParams = field(default_factory=LinearParams)
    tree: TreeParams = field(default_factory=TreeParams)
    forest: ForestParams = field(default_factory=ForestParams)

    def __post_init__(self) -> None:
        if self.learner not in LEARNERS:
            raise ValueError(f"learner must be one of {', '.join(LEARNERS)}, got {self.learner!r}")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "learner": self.learner,
            "linear": vars(self.linear).copy(),
            "tree": vars(self.tree).copy(),
            "forest": vars(self.forest).copy(),
        }


def _validate_training_input(X: BinaryMatrix, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y)
    if len(y) != X.shape[0]:
        raise TrainingError("X must be (n, d) with one target per row")
    if X.shape[0] == 0:
        raise TrainingError("empty training set")
    bad = (y != 0) & (y != 1)  # NaN included
    if bad.any():
        raise TrainingError(f"targets must be 0 or 1, got {y[bad.argmax()].item()!r}")
    y = y.astype(np.int64)
    if not 0 < y.sum() < len(y):
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


def _draw_candidates(rng: np.random.Generator, m: int, d: int, k: int) -> np.ndarray:
    """(m, k) candidate features for the m nodes of a depth, each row a sorted
    uniform k-subset of range(d): the positions of the k smallest of d uniforms.

    The uniforms come in row blocks of at most max(d, _CHUNK) values; the
    blocks consume the generator's stream in order, so their size moves no draw.
    """
    step = max(1, _CHUNK // d)
    out = np.empty((m, k), dtype=np.int64)
    for start in range(0, m, step):
        u = rng.random((min(step, m - start), d))
        out[start:start + len(u)] = np.sort(np.argpartition(u, k - 1, axis=1)[:, :k], axis=1)
    return out


def _gather(flat: np.ndarray, d: int, rows: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """flat[rows[i] * d + cand[i, j]], row i's candidate features, in cand's shape.

    cand is a fresh gather and is overwritten with the flat indices, which are
    freed on return, before the block is counted.
    """
    cand += (rows * d)[:, None]
    return flat.take(cand)


# the most (row, candidate) pairs one block of trees gathers at its root, unless
# one tree needs more, and the most cells one count of an every-feature tree
# reads, unless one column holds more; it bounds the grower's transient memory
# (4 trees of the default 6400x200 fit)
_GROW_BLOCK = 3 << 17


def _grow_levels(
    XR: np.ndarray,
    y: np.ndarray,
    trees: list[tuple[np.ndarray, np.ndarray, Optional[np.random.Generator]]],
    params: TreeParams,
    k: Optional[int],
) -> list[Levels]:
    """Grow a block of trees together, one depth at a time, and return each
    tree's levels. Tree t grows on trees[t] = (rows, weight, rng): distinct
    row indices of the fit's data, row rows[i] standing for weight[i] copies
    (its bootstrap count), and the generator of its candidate draws.

    XR is the (n, d) row-major bool data and y its 0/1 labels. A depth's nodes
    are all of the block's, tree after tree, each tree's left to right; `owner`
    maps each node to its tree, and a tree's level is a slice of the depth's
    arrays. With k None (or k >= d) every feature is a candidate at every node;
    else each tree with nodes that may split draws k features for each of them
    in one _draw_candidates call on its own generator, left to right, so no
    tree's draws depend on the block it grows in; with every feature a
    candidate, the rows are counted in column chunks of at most _GROW_BLOCK
    cells (one column, if it holds more), never copied whole. The split
    counts sum each row's weight (the 0/1 block itself when every weight is
    1) in the narrowest unsigned type that holds the largest root size, which
    no count exceeds, and only the (2m, k) sums are widened to int64: every count is
    an exact integer, so the gains are those a node-by-node grower computes,
    bit for bit, and ties go to the lowest feature index.
    """
    d = XR.shape[1]
    flat = XR.reshape(-1)
    all_features = k is None or k >= d
    lengths = [len(rows) for rows, _, _ in trees]
    rows = np.concatenate([rows for rows, _, _ in trees])
    weight = np.concatenate([weight for _, weight, _ in trees])
    node = np.repeat(np.arange(len(trees)), lengths)  # each row's node, in its depth's order
    owner = np.arange(len(trees))  # each node's tree
    first = np.cumsum(lengths) - lengths
    sizes = np.add.reduceat(weight, first)  # per node: rows with multiplicity, and positives
    pos = np.add.reduceat(weight * y[rows], first)
    unit = weight.max() == 1  # every row counts once: the block is its own product
    weight = weight.astype(np.min_scalar_type(weight.max()))
    count_type = np.min_scalar_type(sizes.max())  # no count exceeds its tree's root size
    levels: list[Levels] = [[] for _ in trees]
    for depth in itertools.count():
        feature = np.full(len(sizes), -1)
        prob = (pos + 1) / (sizes + 2)
        bounds = np.searchsorted(owner, np.arange(len(trees) + 1)).tolist()
        for tree, a, b in zip(levels, bounds, bounds[1:]):
            if a < b:
                tree.append((feature[a:b], prob[a:b]))
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
        if all_features:  # a generator: one chunk is alive at a time
            cand = None
            step = max(1, _GROW_BLOCK // len(rows))
            blocks = (XR[rows, j:j + step] for j in range(0, d, step))
        else:
            per_tree = np.bincount(owner[g], minlength=len(trees)).tolist()
            cand = np.concatenate([
                _draw_candidates(rng, count, d, k)
                for (_, _, rng), count in zip(trees, per_tree) if count
            ])
            blocks = [_gather(flat, d, rows, cand.take(member, axis=0))]
        counts = np.concatenate([
            np.add.reduceat(block.view(np.uint8) if unit else block * weight[:, None],
                            starts, axis=0, dtype=count_type)
            for block in blocks
        ], axis=1).astype(np.int64)
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
        owner = np.repeat(owner[g[splits]], 2)
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


class _NodeTable(NamedTuple):
    """The nodes of some trees, numbered tree after tree, depth after depth,
    left to right. Node i reads feature[i] and moves to child[2 * i + present];
    a leaf reads feature 0 and is both of its children, so a walk that goes on
    past it stays there."""

    feature: np.ndarray
    prob: np.ndarray
    child: np.ndarray
    root: np.ndarray  # each tree's root node
    depth: np.ndarray  # each tree's depth: the steps that take every row to a leaf


def _node_table(trees: list[Levels]) -> _NodeTable:
    """The node table of trees, each given by its levels."""
    levels = [level for tree in trees for level in tree]
    sizes = np.array([len(f) for f, _ in levels])
    feature = np.concatenate([f for f, _ in levels])
    split = feature >= 0
    first = np.cumsum(sizes) - sizes  # each level's first node
    left = np.cumsum(split) - split  # the split nodes before each node
    rank = left - np.repeat(left[first], sizes)  # ... in its own level
    # a level's split nodes own the next level's nodes in pairs, absent child first
    absent = np.where(split, np.repeat(first + sizes, sizes) + 2 * rank, np.arange(len(split)))
    depth = np.array([len(tree) - 1 for tree in trees])
    nodes = np.add.reduceat(sizes, np.cumsum(depth + 1) - depth - 1)  # per tree
    return _NodeTable(
        np.maximum(feature, 0),
        np.concatenate([p for _, p in levels]),
        np.column_stack([absent, absent + split]).ravel(),
        np.cumsum(nodes) - nodes,
        depth,
    )


# the most (tree, row) pairs one scoring pass walks, unless one tree's rows are more
_SCORE_BLOCK = 1 << 15


def _score_trees(table: _NodeTable, X: BinaryMatrix) -> np.ndarray:
    """The mean of the trees' leaf probabilities per row of X.

    A pass walks a block of trees over all rows, every (tree, row) pair one
    step per depth of the block's deepest tree; each tree's probabilities are
    added in tree order, so the block size moves no bit of a score.
    """
    n, d = X.shape
    flat = X.bool_rows.reshape(-1)
    total = np.zeros(n)
    step = max(1, _SCORE_BLOCK // max(1, n))
    starts = np.arange(n) * d
    for a in range(0, len(table.root), step):
        root, depth = table.root[a:a + step], table.depth[a:a + step]
        node = np.repeat(root, n)
        at = np.tile(starts, len(root))
        for _ in range(depth.max()):
            present = flat.take(at + table.feature.take(node))
            node = table.child.take(2 * node + present)
        for prob in table.prob.take(node).reshape(len(root), n):
            total += prob
    return total / len(table.root)


class TreeModel(ProbabilisticClassifier):
    def __init__(self, levels: Levels, dimension: int):
        self.levels = levels
        self.dimension = dimension

    @cached_property
    def _nodes(self) -> _NodeTable:
        return _node_table([self.levels])

    def score_matrix(self, X: BinaryMatrix) -> np.ndarray:
        self._check_dim(X)
        return _score_trees(self._nodes, X)

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
        tree = np.arange(n), np.ones(n, dtype=np.int64), None
        return cls(_grow_levels(X.bool_rows, y, [tree], params, None)[0], X.shape[1])


# ---------------------------------------------------------------------------
# random forest


def _resample(
    y: np.ndarray, seed: int, t: int, bootstrap: bool
) -> tuple[np.ndarray, np.ndarray, np.random.Generator]:
    """Tree t's rows and bootstrap counts, drawn from its own stream (seed, t)."""
    n = len(y)
    rng = np.random.default_rng([seed, t])
    rows, weight = np.arange(n), np.ones(n, dtype=np.int64)
    if bootstrap:
        idx = rng.integers(0, n, size=n)
        counts = np.bincount(idx, minlength=n)
        if 0 < counts @ y < n:  # both classes drawn; else degenerate: keep the full data
            rows = np.flatnonzero(counts)
            weight = counts[rows]
    return rows, weight, rng


class ForestModel(ProbabilisticClassifier):
    def __init__(self, trees: list[TreeModel], dimension: int):
        self.trees = trees
        self.dimension = dimension

    @cached_property
    def _nodes(self) -> _NodeTable:
        return _node_table([tree.levels for tree in self.trees])

    def score_matrix(self, X: BinaryMatrix) -> np.ndarray:
        self._check_dim(X)
        return _score_trees(self._nodes, X)

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
        # a block's trees gather at most n * k (row, candidate) pairs each at the root
        step = max(1, _GROW_BLOCK // max(1, n * k))
        trees: list[TreeModel] = []
        for start in range(0, params.n_trees, step):
            block = [_resample(y, seed, t, params.bootstrap)
                     for t in range(start, min(start + step, params.n_trees))]
            trees += [TreeModel(levels, d)
                      for levels in _grow_levels(X.bool_rows, y, block, tree_params, k)]
        return cls(trees, d)


# ---------------------------------------------------------------------------
# front door


def train(X: BinaryMatrix, y: np.ndarray, cfg: TrainConfig) -> ProbabilisticClassifier:
    """Train the configured learner on a 0/1 matrix with binary targets."""
    if cfg.learner == "linear":
        return LinearModel.fit(X, y, cfg.linear)
    if cfg.learner == "tree":
        return TreeModel.fit(X, y, cfg.tree)
    return ForestModel.fit(X, y, cfg.forest, cfg.tree, cfg.seed)
