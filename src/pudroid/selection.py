"""Unbalanced occurrence-threshold feature selection.

A feature survives if it occurs at least tm times among the positive group
or at least tb times among the unlabeled group, where tm defaults to the
threshold coefficient eta (rounded) and tb scales with the group-size ratio:
tb = ceil(tm * |U| / |P|). The OR combination keeps features that are
frequent in either class, which is what makes them discriminative.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .features import _CHUNK, DimensionError, FeatureSpace, PUDataset, SampleRows


class ConfigError(ValueError):
    pass


# Echoed in every report so downstream readers can tell which convention
# produced the thresholds; a rival convention scales tm by |U|/|P| instead of
# tb. This implementation gives the larger threshold to the larger group and
# combines the two thresholds with OR.
THRESHOLD_RULE = {
    "implemented": "tm=round(eta); tb=ceil(tm*|U|/|P|)",
    "combination": "or",
    "printed_alternative": "tm/tb = eta*|U|/|P|",
}


@dataclass(frozen=True)
class SelectionThresholds:
    eta: float
    tm: int
    tb: int

    def __post_init__(self) -> None:
        if self.tm < 1 or self.tb < 1:
            raise ConfigError("thresholds must be >= 1")


@dataclass(frozen=True)
class OccurrenceCounts:
    count_p: tuple[int, ...]
    count_u: tuple[int, ...]


def count_occurrences(ds: PUDataset) -> OccurrenceCounts:
    """Per-feature occurrence counts over P and over U."""

    def count(group: SampleRows) -> tuple[int, ...]:
        # bincount copies a read-only array whole, so it gets _CHUNK ones at a time
        counts, on = np.zeros(ds.space.dimension, dtype=np.int64), group.indices
        for start in range(0, len(on), _CHUNK):
            counts += np.bincount(on[start:start + _CHUNK], minlength=len(counts))
        return tuple(counts.tolist())

    return OccurrenceCounts(count(ds.positives), count(ds.unlabeled))


def compute_thresholds(ds: PUDataset, eta: float = 2.0) -> SelectionThresholds:
    """tm = round(eta); tb = ceil(tm * |U| / |P|)."""
    n_p, n_u = len(ds.positives), len(ds.unlabeled)
    if n_p == 0 or n_u == 0:
        raise ConfigError("threshold computation needs non-empty P and U")
    if eta < 1:
        raise ConfigError("eta must be >= 1")
    tm = max(1, round(eta))
    tb = max(1, -(-(tm * n_u) // n_p))  # exact ceiling: tm may be beyond float range
    return SelectionThresholds(eta=eta, tm=tm, tb=tb)


def select_features(counts: OccurrenceCounts, th: SelectionThresholds) -> list[int]:
    """Indices retained under the OR rule, sorted ascending."""
    pairs = enumerate(zip(counts.count_p, counts.count_u))
    return [i for i, (cp, cu) in pairs if cp >= th.tm or cu >= th.tb]


def project_dataset(ds: PUDataset, retained: Sequence[int]) -> PUDataset:
    """Restrict the dataset to the retained features, re-indexing vectors."""
    d = ds.space.dimension
    for i in retained:
        if not 0 <= i < d:
            raise DimensionError(f"retained index {i} out of range for dimension {d}")
    retained_sorted = sorted(retained)
    new_space = FeatureSpace(tuple(ds.space.features[i] for i in retained_sorted))
    remap = np.full(d, -1, dtype=np.int64)  # old index -> new index, -1 for a dropped feature
    remap[retained_sorted] = np.arange(len(retained_sorted))
    rows = ds.samples
    kept = np.flatnonzero(remap[rows.indices] >= 0)  # positions of the kept ones
    # a row's new start is the number of kept ones before its old start; the
    # remap is increasing, so the kept indices stay sorted
    indptr = np.searchsorted(kept, rows.indptr)
    rows = replace(rows, indptr=indptr, indices=remap[rows.indices[kept]])
    return PUDataset(new_space, rows, ds.n_positive)
