"""Shared builders for small hand-constructed datasets and matrices."""

from __future__ import annotations

import numpy as np
from hypothesis import settings, strategies as st

from pudroid import classifiers
from pudroid.features import BinaryMatrix, FeatureSpace, PUDataset, SampleRows, offsets

# `pytest --hypothesis-profile=ci`: a failing property prints the blob that
# replays its example with @reproduce_failure
settings.register_profile("ci", print_blob=True)


def space_of(n: int, kind: str = "api") -> FeatureSpace:
    return FeatureSpace(tuple((f"f{i:03d}", kind) for i in range(n)))


def rows_of(ids, rows, hidden=None) -> SampleRows:
    """SampleRows from ids and on-index sequences; hidden defaults to absent."""
    return SampleRows.build(ids, rows, [-1] * len(ids) if hidden is None else hidden)


def row_lists(rows: SampleRows) -> list[list[int]]:
    """The on-indices of each row, as plain lists."""
    on, bounds = rows.indices.tolist(), rows.indptr.tolist()
    return [on[a:b] for a, b in zip(bounds, bounds[1:])]


def dataset_from_rows(rows_p, rows_u, d: int) -> PUDataset:
    """Build a PUDataset from lists of on-index tuples for P and U."""
    ids = [f"p{i}" for i in range(len(rows_p))] + [f"u{i}" for i in range(len(rows_u))]
    return PUDataset(space_of(d), rows_of(ids, [*rows_p, *rows_u]), len(rows_p))


def random_dataset(
    rng: np.random.Generator, n_p: int, n_u: int, d: int, density: float = 0.3
) -> PUDataset:
    rows_p = [tuple(int(j) for j in np.flatnonzero(rng.random(d) < density)) for _ in range(n_p)]
    rows_u = [tuple(int(j) for j in np.flatnonzero(rng.random(d) < density)) for _ in range(n_u)]
    return dataset_from_rows(rows_p, rows_u, d)


@st.composite
def pu_datasets(draw, max_dimension: int = 12) -> PUDataset:
    """Small datasets with empty rows anywhere and hidden labels present or absent."""
    d = draw(st.integers(0, max_dimension))
    on = st.sets(st.integers(0, d - 1)).map(sorted) if d else st.just([])

    def group(prefix: str, hidden: list[int]) -> tuple[list, list, list]:
        rows = draw(st.lists(on, max_size=6))
        labels = draw(st.lists(st.sampled_from(hidden), min_size=len(rows), max_size=len(rows)))
        return [f"{prefix}{i}" for i in range(len(rows))], rows, labels

    p_ids, p_rows, p_hidden = group("p", [-1, 1])
    u_ids, u_rows, u_hidden = group("u", [-1, 0, 1])
    block = rows_of(p_ids + u_ids, p_rows + u_rows, p_hidden + u_hidden)
    return PUDataset(space_of(d), block, len(p_ids))


def matrix_of(X) -> BinaryMatrix:
    """The learner input of a dense 0/1 array."""
    X = np.asarray(X)
    assert X.ndim == 2 and np.isin(X, (0, 1)).all()
    rows, cols = np.nonzero(X)
    indptr = offsets(np.bincount(rows, minlength=len(X)))
    return BinaryMatrix(indptr, cols.astype(np.int64), X.shape[1])


def logistic_loss_and_grad(w, b, X, y, l2) -> tuple[float, np.ndarray, float]:
    """(loss, dw, db): the mean cross-entropy plus 0.5*l2*||w||^2 on the dense
    0/1 array X, and the gradient step LinearModel.fit takes on its matrix."""
    X = np.asarray(X, dtype=np.float64)
    with np.errstate(over="ignore"):
        p = 1.0 / (1.0 + np.exp(-(X @ w + b)))
    eps = 1e-12
    loss = float(-np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)))
    loss += 0.5 * l2 * float(w @ w)
    return (loss, *classifiers._logistic_grad(w, b, matrix_of(X), y, l2))
