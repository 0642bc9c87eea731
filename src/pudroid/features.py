"""Core domain types: feature space, sparse binary vectors, samples, datasets.

Everything here is immutable after construction and safe to share between
threads. No I/O.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

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


@dataclass(frozen=True)
class SparseBinaryVector:
    """Set-of-ones representation of a 0/1 vector; indices strictly increasing."""

    indices: tuple[int, ...]

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "SparseBinaryVector":
        return cls(tuple(sorted(set(map(int, indices)))))

    def __post_init__(self) -> None:
        idx = self.indices
        if idx and min(idx) < 0:
            raise DimensionError("negative feature index")
        if not all(map(operator.lt, idx, idx[1:])):
            raise DimensionError("indices must be strictly increasing")


@dataclass(frozen=True)
class AppSample:
    """One app: id, binary feature vector, discovery state z, optional hidden y.

    hidden is ground truth and exists only on harness-generated data; the
    learning pipeline never reads it.
    """

    id: str
    features: SparseBinaryVector
    discovery: int
    hidden: Optional[int] = None

    def __post_init__(self) -> None:
        if self.discovery not in (0, 1):
            raise DatasetError(f"discovery must be 0 or 1, got {self.discovery}")
        if self.hidden not in (None, 0, 1):
            raise DatasetError(f"hidden must be 0, 1 or absent, got {self.hidden}")
        if self.discovery == 1 and self.hidden == 0:
            raise DatasetError(
                f"sample {self.id!r}: a known-benign sample cannot be labeled positive"
            )


@dataclass(frozen=True)
class PUDataset:
    """Samples partitioned into positive group P (z=1) and unlabeled group U (z=0)."""

    space: FeatureSpace
    positives: tuple[AppSample, ...]
    unlabeled: tuple[AppSample, ...]

    def __post_init__(self) -> None:
        for s in self.positives:
            if s.discovery != 1:
                raise DatasetError(f"sample {s.id!r} in P must have discovery=1")
        for s in self.unlabeled:
            if s.discovery != 0:
                raise DatasetError(f"sample {s.id!r} in U must have discovery=0")
        ids = [s.id for s in self.positives] + [s.id for s in self.unlabeled]
        if len(set(ids)) != len(ids):
            raise DatasetError("sample ids must be unique across P and U")
        d = self.space.dimension
        for s in self.positives + self.unlabeled:
            if s.features.indices and s.features.indices[-1] >= d:
                raise DimensionError(
                    f"sample {s.id!r} has feature index outside space of dimension {d}"
                )

    @property
    def samples(self) -> tuple[AppSample, ...]:
        return self.positives + self.unlabeled


def dense_matrix(samples: Sequence[AppSample], dimension: int) -> np.ndarray:
    """(n, dimension) float64 0/1 rows: the one sparse-to-dense boundary."""
    out = np.zeros((len(samples), dimension), dtype=np.float64)
    for row, s in enumerate(samples):
        if s.features.indices:
            out[row, list(s.features.indices)] = 1.0
    return out
