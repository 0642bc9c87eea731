"""Two-component PCA by power iteration with deflation.

Only the top two principal directions are needed for the 2-D projection, so
power iteration on the covariance matrix beats a full eigendecomposition
when the selected feature space is large.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import PUDataset, dense_matrix

TOLERANCE = 1e-8
MAX_ITERATIONS = 1000


@dataclass(frozen=True)
class PcaProjection:
    rows: tuple[tuple[str, float, float, str], ...]  # (id, x, y, group)
    zero_variance: bool


def _power_iteration(cov: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    d = cov.shape[0]
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    for _ in range(MAX_ITERATIONS):
        w = cov @ v
        norm = np.linalg.norm(w)
        if norm < TOLERANCE:
            break
        w /= norm
        if np.linalg.norm(w - v) < TOLERANCE or np.linalg.norm(w + v) < TOLERANCE:
            v = w
            break
        v = w
    # deterministic sign: largest-magnitude component is positive
    pivot = int(np.argmax(np.abs(v)))
    if v[pivot] < 0:
        v = -v
    return v, float(v @ cov @ v)


def top_components(X: np.ndarray, k: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """(k, d) principal directions and their variances for centered data."""
    n, d = X.shape
    cov = X.T @ X / n
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([0])))
    comps = np.zeros((k, d))
    variances = np.zeros(k)
    for i in range(k):
        v, lam = _power_iteration(cov, rng)
        comps[i] = v
        variances[i] = lam
        cov = cov - lam * np.outer(v, v)
    return comps, variances


def pca_project(ds: PUDataset) -> PcaProjection:
    """Project every sample onto the top principal directions."""
    samples = ds.samples
    if not len(samples):
        raise ValueError("cannot project an empty dataset")
    X = dense_matrix(samples, ds.space.dimension)
    X = X - X.mean(axis=0)
    zero_variance = not np.any(X)
    coords = np.zeros((len(X), 2)) if zero_variance else X @ top_components(X)[0].T
    groups = ["positive"] * len(ds.positives) + ["unlabeled"] * len(ds.unlabeled)
    rows = zip(samples.ids, coords[:, 0].tolist(), coords[:, 1].tolist(), groups)
    return PcaProjection(tuple(rows), zero_variance=zero_variance)


def projection_csv(projection: PcaProjection) -> str:
    lines = ["id,x,y,group"]
    for sid, x, y, group in projection.rows:
        lines.append(f"{sid},{x:.9g},{y:.9g},{group}")
    return "\n".join(lines) + "\n"
