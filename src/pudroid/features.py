"""Core domain types: feature space, CSR sample rows, datasets.

Everything here is immutable after construction and safe to share between
threads. No I/O.
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
        names = [n for n, _ in self.features]
        if len(set(names)) != len(names):
            raise DatasetError("feature names must be unique within a space")

    @property
    def dimension(self) -> int:
        return len(self.features)

    def index_of(self) -> dict[tuple[str, str], int]:
        """Vector index of each feature by its (kind value, name) key."""
        return {(kind.value, name): i for i, (name, kind) in enumerate(self.features)}


def offsets(lengths: Sequence[int]) -> np.ndarray:
    """The indptr of rows with the given lengths."""
    return np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)])


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

    def __add__(self, other: SampleRows) -> SampleRows:
        return SampleRows(
            self.ids + other.ids,
            np.concatenate([self.indptr, other.indptr[1:] + self.indptr[-1]]),
            np.concatenate([self.indices, other.indices]),
            np.concatenate([self.hidden, other.hidden]),
        )

    def take(self, rows: Sequence[int]) -> SampleRows:
        """The given rows, in the given order."""
        rows = np.asarray(rows, dtype=np.int64)
        lengths = np.diff(self.indptr)[rows]
        indptr = offsets(lengths)
        at = np.arange(indptr[-1]) + np.repeat(self.indptr[rows] - indptr[:-1], lengths)
        ids = tuple(map(self.ids.__getitem__, rows.tolist()))
        return SampleRows(ids, indptr, self.indices[at], self.hidden[rows])


@dataclass(frozen=True, eq=False)
class PUDataset:
    """Samples partitioned into positive group P (z=1) and unlabeled group U (z=0).

    Group membership is the label z: a sample's group is all the learner sees.
    """

    space: FeatureSpace
    positives: SampleRows
    unlabeled: SampleRows

    def __post_init__(self) -> None:
        benign = np.flatnonzero(self.positives.hidden == 0)
        if len(benign):
            raise DatasetError(
                f"sample {self.positives.ids[benign[0]]!r}: "
                "a known-benign sample cannot be labeled positive"
            )
        rows, d = self.samples, self.space.dimension
        if len(set(rows.ids)) != len(rows):
            raise DatasetError("sample ids must be unique across P and U")
        outside = np.flatnonzero(rows.indices >= d)
        if len(outside):
            row = np.searchsorted(rows.indptr, outside[0], side="right") - 1
            raise DimensionError(
                f"sample {rows.ids[row]!r} has feature index outside space of dimension {d}"
            )

    @cached_property
    def samples(self) -> SampleRows:
        """P then U."""
        return self.positives + self.unlabeled


def dense_matrix(rows: SampleRows, dimension: int) -> np.ndarray:
    """(len(rows), dimension) float64 0/1 rows: the one sparse-to-dense boundary."""
    out = np.zeros((len(rows), dimension), dtype=np.float64)
    out[np.repeat(np.arange(len(rows)), np.diff(rows.indptr)), rows.indices] = 1.0
    return out
