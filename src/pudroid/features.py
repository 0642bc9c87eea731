"""Core domain types: feature space, CSR sample rows, datasets, and the CSR
0/1 matrix the learners work on.

Everything here is immutable after construction and safe to share between
threads; a matrix caches views derived from its arrays on first use. A
dataset is one P-then-U block of rows and P's row count: `PUDataset` stores
the block it is given and makes its arrays read-only, and its `positives` and
`unlabeled` are views of the block's two row ranges. No I/O.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np


class DimensionError(ValueError):
    """A vector index does not fit the feature space it is used with."""


class DatasetError(ValueError):
    """A sample or dataset violates a structural invariant."""


def within(value, interval: str) -> bool:
    """Whether value lies in an interval written "[low, high)" and the like; NaN lies in none."""
    low, high = map(float, interval[1:-1].split(","))
    above = low < value if interval[0] == "(" else low <= value
    return above and (value < high if interval[-1] == ")" else value <= high)


def check_ranges(params, error: type[ValueError] = ValueError) -> None:
    """Raise `error` naming the first field of the dataclass `params` whose value
    is outside the interval its metadata declares as "range"."""
    for f in fields(params):
        value, interval = getattr(params, f.name), f.metadata.get("range")
        if interval and not within(value, interval):
            raise error(f"{f.name} must be in {interval}, got {value!r}")


class FeatureKind(Enum):
    PERMISSION = "permission"
    API = "api"
    IP_ADDRESS = "ip"


# value -> kind; a dict lookup, where FeatureKind(value) goes through the enum machinery
KIND_OF = {kind.value: kind for kind in FeatureKind}


@dataclass(frozen=True)
class FeatureSpace:
    """Ordered universe of distinct (name, kind) features; order defines vector
    indices. The space keeps the order it is given (ingest gives it in
    (kind value, name) order)."""

    features: tuple[tuple[str, FeatureKind], ...]

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


_CHUNK = 1 << 16  # about this many stored ones are gathered at once by the products


class _Segments(NamedTuple):
    """A matrix's non-empty rows or columns as runs of its stored ones, in chunks
    of whole runs: the plan of one product."""

    slots: np.ndarray  # the non-empty rows or columns, ascending
    starts: np.ndarray  # where each run starts, counted from its chunk's first one
    chunks: tuple[tuple[int, int, int, int], ...]  # (first run, end run, first one, end one)

    @classmethod
    def of(cls, slots: np.ndarray, starts: np.ndarray, total: int) -> _Segments:
        """Run k of slots[k] from starts[k] to the next start (total for the last);
        a chunk opens at the first run that starts at or past each multiple of _CHUNK."""
        first = np.flatnonzero(np.diff(starts // _CHUNK, prepend=-1))
        end = np.append(first[1:], len(starts))
        bounds = np.append(starts, total)
        local = starts - np.repeat(starts[first], end - first)
        chunks = zip(first.tolist(), end.tolist(), bounds[first].tolist(), bounds[end].tolist())
        return cls(slots, local, tuple(chunks))


def _segment_sums(values: np.ndarray, index: np.ndarray, segments: _Segments,
                  size: int) -> np.ndarray:
    """(size,) sums: slot segments.slots[k] sums values.take(index) over run k, others are 0.

    take copies its index before it gathers unless the index is a writeable
    intp array: a dataset block's `indices` is read-only, and the column
    product's row index is narrow. So the runs are gathered and reduced a
    chunk at a time, and no temporary is longer than a chunk (or its one run,
    when a run is longer). Each run is still summed by one reduceat
    call over the same values in the same order, so the chunking moves no bit.
    reduceat would return an element, not 0, for an empty run, and raises on a
    start equal to len(values), so only non-empty runs are segments.
    take(mode="wrap") is numpy's fastest gather; every index is in range, so
    nothing wraps.
    """
    out = np.zeros(size)
    slots, starts = segments.slots, segments.starts
    for lo, hi, a, b in segments.chunks:
        out[slots[lo:hi]] = np.add.reduceat(values.take(index[a:b], mode="wrap"), starts[lo:hi])
    return out


@dataclass(frozen=True, eq=False)
class BinaryMatrix:
    """An (n, dimension) 0/1 matrix as CSR rows: the one input the learners
    train and score on. Row i is 1 at indices[indptr[i]:indptr[i + 1]].

    The bool view and each product's plan are built from the CSR arrays on
    first use and cached, so the sparse-to-matrix step costs no copy. X @ w
    gathers through `indices` itself. X.T @ r gathers through a cached row
    index of the stored ones in column order, in the narrowest unsigned type
    that holds a row number (2 bytes per one below 65,536 rows): the one
    array as long as `indices` that the matrix adds. A product holds no
    temporary longer than a chunk of about `_CHUNK` stored ones.
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

    def __matmul__(self, w: np.ndarray) -> np.ndarray:
        """X @ w."""
        return _segment_sums(w, self.indices, self._row_segments, self.shape[0])

    def rmatvec(self, r: np.ndarray) -> np.ndarray:
        """X.T @ r."""
        segments, row_of = self._column_segments
        return _segment_sums(r, row_of, segments, self.dimension)

    @cached_property
    def bool_rows(self) -> np.ndarray:
        """(n, dimension) C-contiguous bool matrix, for the tree grower and scorer."""
        out = np.zeros(self.shape, dtype=bool)
        out[np.repeat(np.arange(self.shape[0]), np.diff(self.indptr)), self.indices] = True
        return out

    @cached_property
    def _row_segments(self) -> _Segments:
        """The non-empty rows' segments."""
        rows = np.flatnonzero(np.diff(self.indptr))
        return _Segments.of(rows, self.indptr[rows], len(self.indices))

    @cached_property
    def _column_segments(self) -> tuple[_Segments, np.ndarray]:
        """(the non-empty columns' segments, the row of each stored one in column order).

        Each stored one is keyed as index * n + row in the narrowest type that
        holds n * max(d, 1): one in-place sort puts the keys in column order, each
        column's rows ascending, as a stable sort of the ones by column would.
        Column j starts at the first key at or past j * n, and a key's row is
        its remainder by n. (np.bincount would copy a read-only `indices`.)
        """
        n, d = self.shape
        key = np.min_scalar_type(n * max(d, 1))
        keys = np.empty(len(self.indices), dtype=key)
        np.multiply(self.indices, n, out=keys, casting="unsafe")
        keys += np.repeat(np.arange(n, dtype=key), np.diff(self.indptr))
        keys.sort()
        colptr = np.append(np.searchsorted(keys, (np.arange(d) * n).astype(key)), len(keys))
        row_of = np.empty(len(keys), dtype=np.min_scalar_type(max(n - 1, 0)))
        np.remainder(keys, n, out=row_of, casting="unsafe")
        del keys
        cols = np.flatnonzero(np.diff(colptr))
        return _Segments.of(cols, colptr[cols], len(row_of)), row_of
