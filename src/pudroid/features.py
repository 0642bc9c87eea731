"""Core domain types: feature space, CSR sample rows, datasets, and the CSR
0/1 matrix the learners work on.

Everything here is immutable after construction and safe to share between
threads; a matrix caches views derived from its arrays on first use. A
dataset is one P-then-U block of rows and P's row count: `PUDataset` stores
the block it is given and makes its arrays read-only, and its `positives` and
`unlabeled` are views of the block's two row ranges. No I/O.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np


class DimensionError(ValueError):
    """A vector index does not fit the feature space it is used with."""


class DatasetError(ValueError):
    """A sample or dataset violates a structural invariant."""


class FeatureKind(Enum):
    PERMISSION = "permission"
    API = "api"
    IP_ADDRESS = "ip"


# value -> kind; a dict lookup, where FeatureKind(value) goes through the enum machinery
KIND_OF = {kind.value: kind for kind in FeatureKind}


@dataclass(frozen=True)
class FeatureSpace:
    """Ordered universe of (name, kind) features; order defines vector indices.

    Order is lexicographic by (kind, name) so identical inputs always produce
    identical index assignments.
    """

    features: tuple[tuple[str, FeatureKind], ...]

    @classmethod
    def build(cls, keys: Iterable[tuple[str, str]]) -> "FeatureSpace":
        """The space of the distinct (kind value, name) keys, in key order."""
        return cls(tuple((name, KIND_OF[kind]) for kind, name in sorted(set(keys))))

    def __post_init__(self) -> None:
        if len(set(self.features)) != self.dimension:
            index = self.index_of()
            n, k = next(f for i, f in enumerate(self.features) if index[f[1].value, f[0]] != i)
            raise DatasetError(f"feature {n!r} of kind {k.value!r} occurs twice")

    @property
    def dimension(self) -> int:
        return len(self.features)

    def index_of(self) -> dict[tuple[str, str], int]:
        """Vector index of each feature by its (kind value, name) key."""
        return {(kind.value, name): i for i, (name, kind) in enumerate(self.features)}


def offsets(lengths: Sequence[int]) -> np.ndarray:
    """The indptr of rows with the given lengths."""
    return np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)])


def _gather(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of the given CSR rows, in the given order."""
    lengths = np.diff(indptr)[rows]
    out = offsets(lengths)
    at = np.arange(out[-1]) + np.repeat(indptr[rows] - out[:-1], lengths)
    return out, indices[at]


@dataclass(frozen=True, eq=False)
class SampleRows:
    """Samples as CSR rows: sample ids[i] has the strictly increasing on-indices
    indices[indptr[i]:indptr[i + 1]] and the ground truth hidden[i] (-1: absent).

    hidden exists only on harness-generated data; the learning pipeline never
    reads it. Compare instances through datasets.dataset_to_dict.
    """

    ids: tuple[str, ...]
    indptr: np.ndarray  # int64, len(ids) + 1
    indices: np.ndarray  # int64
    hidden: np.ndarray  # int64

    @classmethod
    def build(cls, ids: Sequence[str], rows: Sequence[Sequence[int]],
              hidden: Sequence[int]) -> SampleRows:
        """Rows from per-sample id, on-index and hidden sequences."""
        indptr = offsets(list(map(len, rows)))
        try:
            indices = np.fromiter(chain.from_iterable(rows), np.int64, indptr[-1])
        except OverflowError:  # checked as Python ints, an index beyond int64 never validates
            indices = np.array(list(chain.from_iterable(rows)), dtype=object)
        return cls(tuple(ids), indptr, indices, np.array(hidden, dtype=np.int64))

    def __post_init__(self) -> None:
        idx, starts = self.indices, self.indptr[1:-1]
        bad_hidden = self.hidden[(self.hidden < -1) | (self.hidden > 1)]
        if len(bad_hidden):
            raise DatasetError(f"hidden must be 0, 1 or absent, got {bad_hidden[0]}")
        if len(idx) and idx.min() < 0:
            raise DimensionError("negative feature index")
        step_down = idx[1:] <= idx[:-1]
        # each row's first index may step down from the previous row's last
        step_down[starts[(starts > 0) & (starts < len(idx))] - 1] = False
        if step_down.any():
            raise DimensionError("indices must be strictly increasing")

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, rows: Sequence[int]) -> SampleRows:
        """The given rows, in the given order."""
        rows = np.asarray(rows, dtype=np.int64)
        indptr, indices = _gather(self.indptr, self.indices, rows)
        ids = tuple(map(self.ids.__getitem__, rows.tolist()))
        return SampleRows(ids, indptr, indices, self.hidden[rows])

    def between(self, start: int, stop: int) -> SampleRows:
        """Rows start to stop - 1, sharing this block's indices and hidden; only
        indptr is rebased into a new array when start > 0."""
        a, b = self.indptr[start], self.indptr[stop]
        indptr = self.indptr[start:stop + 1] - a if a else self.indptr[start:stop + 1]
        return SampleRows(self.ids[start:stop], indptr, self.indices[a:b], self.hidden[start:stop])


@dataclass(frozen=True, eq=False)
class PUDataset:
    """Samples partitioned into positive group P (z=1) and unlabeled group U (z=0).

    Group membership is the label z: a sample's group is all the learner sees.
    The rows are held once, in `samples`: the first n_positive rows are P, the
    rest U. Its arrays are made read-only, and `positives` and `unlabeled` are
    views of its two row ranges.
    """

    space: FeatureSpace
    samples: SampleRows
    n_positive: int

    def __post_init__(self) -> None:
        rows, n_p, d = self.samples, self.n_positive, self.space.dimension
        if not 0 <= n_p <= len(rows):
            raise DatasetError(f"{n_p} positives do not fit a block of {len(rows)} samples")
        benign = np.flatnonzero(rows.hidden[:n_p] == 0)
        if len(benign):
            raise DatasetError(
                f"sample {rows.ids[benign[0]]!r}: "
                "a known-benign sample cannot be labeled positive"
            )
        if len(set(rows.ids)) != len(rows):
            raise DatasetError("sample ids must be unique across P and U")
        outside = np.flatnonzero(rows.indices >= d)
        if len(outside):
            row = np.searchsorted(rows.indptr, outside[0], side="right") - 1
            raise DimensionError(
                f"sample {rows.ids[row]!r} has feature index outside space of dimension {d}"
            )
        for array in (rows.indptr, rows.indices, rows.hidden):
            array.flags.writeable = False

    @cached_property
    def positives(self) -> SampleRows:
        return self.samples.between(0, self.n_positive)

    @cached_property
    def unlabeled(self) -> SampleRows:
        group = self.samples.between(self.n_positive, len(self.samples))
        group.indptr.flags.writeable = False  # rebased into a new array when P is non-empty
        return group


def dense_matrix(rows: SampleRows, dimension: int) -> np.ndarray:
    """(len(rows), dimension) float64 0/1 rows: the dense reference the tests check
    BinaryMatrix and PCA against. Nothing in the package calls it; `pu` and
    `protocols` import it because the benchmark tracer patches those names."""
    out = np.zeros((len(rows), dimension), dtype=np.float64)
    out[np.repeat(np.arange(len(rows)), np.diff(rows.indptr)), rows.indices] = 1.0
    return out


def _segment_sums(values: np.ndarray, nonempty: np.ndarray, starts: np.ndarray,
                  size: int) -> np.ndarray:
    """(size,) sums: slot nonempty[k] sums values[starts[k]:starts[k + 1]], others are 0.

    reduceat would return an element, not 0, for an empty segment, and raises
    on a start equal to len(values), so only non-empty segments are passed.
    """
    if len(nonempty) == size:
        return np.add.reduceat(values, starts)
    out = np.zeros(size)
    if len(nonempty):
        out[nonempty] = np.add.reduceat(values, starts)
    return out


@dataclass(frozen=True, eq=False)
class BinaryMatrix:
    """An (n, dimension) 0/1 matrix as CSR rows: the one input the learners
    train and score on. Row i is 1 at indices[indptr[i]:indptr[i + 1]].

    The products and the bool view are built from the CSR arrays on first use
    and cached, so the sparse-to-matrix step costs no copy; the row index of
    each stored one that they need is built per use and not kept.
    """

    indptr: np.ndarray  # int64, n + 1
    indices: np.ndarray  # int64
    dimension: int

    @classmethod
    def from_rows(cls, rows: SampleRows, dimension: int) -> BinaryMatrix:
        return cls(rows.indptr, rows.indices, dimension)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.indptr) - 1, self.dimension

    def __getitem__(self, rows: Sequence[int]) -> BinaryMatrix:
        """The given rows, in the given order."""
        indptr, indices = _gather(self.indptr, self.indices, np.asarray(rows, dtype=np.int64))
        return BinaryMatrix(indptr, indices, self.dimension)

    # The products gather with take(mode="wrap"), numpy's fastest gather here;
    # every index is in range, so nothing wraps.

    def __matmul__(self, w: np.ndarray) -> np.ndarray:
        """X @ w."""
        rows, starts = self._row_segments
        return _segment_sums(w.take(self.indices, mode="wrap"), rows, starts, self.shape[0])

    def rmatvec(self, r: np.ndarray) -> np.ndarray:
        """X.T @ r."""
        cols, starts, row_of = self._column_segments
        return _segment_sums(r.take(row_of, mode="wrap"), cols, starts, self.dimension)

    @cached_property
    def bool_rows(self) -> np.ndarray:
        """(n, dimension) C-contiguous bool matrix, for the tree grower and scorer."""
        out = np.zeros(self.shape, dtype=bool)
        out[self._row_of(), self.indices] = True
        return out

    def _row_of(self) -> np.ndarray:
        """Row index of each stored one, a fresh array per call."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    @cached_property
    def _row_segments(self) -> tuple[np.ndarray, np.ndarray]:
        """(non-empty rows, their start offsets into indices)."""
        rows = np.flatnonzero(np.diff(self.indptr))
        return rows, self.indptr[rows]

    @cached_property
    def _column_segments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(non-empty columns, their start offsets, the row of each one in column order)."""
        order = np.argsort(self.indices, kind="stable")
        colptr = offsets(np.bincount(self.indices, minlength=self.dimension))
        cols = np.flatnonzero(np.diff(colptr))
        return cols, colptr[cols], self._row_of()[order]
