"""Two-component PCA of the 0/1 samples by block Krylov iteration.

The covariance of the centered rows, C = XᵀX / n − μμᵀ with μ the column
means, is only ever applied to a vector, through the CSR matrix
(`features.BinaryMatrix`): C v = Xᵀ(X v) / n − μ (μ·v). Neither a dense X, a
centered copy of it, nor the d×d covariance is formed.

`top_components` grows an orthonormal basis of the block Krylov space
span{Q, C Q, C² Q, ...} from a seeded random block Q, re-orthogonalising
every new vector against the whole basis, and takes the Rayleigh–Ritz pairs
of C on that basis (Halko, Martinsson & Tropp, "Finding structure with
randomness", SIAM Review 2011). A block, not one vector, finds every
direction of a repeated top eigenvalue. It stops when every wanted pair has
residual ‖C v − λ v‖ ≤ TOLERANCE·λ1, when no new direction is left (the basis
spans an invariant subspace, the whole space when d is small, so the pairs
are exact), or at MAX_BASIS vectors; the residuals it returns tell the last
case apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .features import BinaryMatrix, PUDataset

TOLERANCE = 1e-12  # residual bound, relative to the largest variance
BLOCK = 4  # start vectors: the two wanted components plus two
MAX_BASIS = 600  # basis vectors before the solver gives up
BREAKDOWN = 1e-14  # a new vector this small relative to its source adds no direction


@dataclass(frozen=True)
class PcaProjection:
    rows: tuple[tuple[str, float, float, str], ...]  # (id, x, y, group)
    zero_variance: bool
    variances: tuple[float, float]  # along x and y
    unconverged: tuple[tuple[int, float], ...]  # (component number, residual) above the bound


def _append(V: np.ndarray, m: int, candidates: np.ndarray) -> int:
    """Orthonormalise the candidates against V[:m] and each other into V; the new m."""
    for w in candidates:
        if m == len(V):
            break
        r = w.copy()
        for _ in range(2):  # twice is enough for orthogonality to rounding
            r -= V[:m].T @ (V[:m] @ r)
        norm = np.linalg.norm(r)
        if norm > BREAKDOWN * np.linalg.norm(w):
            V[m] = r / norm
            m += 1
    return m


def _unconverged(variances: np.ndarray, residuals: np.ndarray) -> np.ndarray:
    """Indices of the components whose residual is above the bound."""
    return np.flatnonzero(residuals > TOLERANCE * variances[0])


def top_components(
    cov: Callable[[np.ndarray], np.ndarray], d: int, k: int = 2
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(k, d) leading eigenvectors of the symmetric positive semi-definite
    operator `cov` on R^d, their eigenvalues (descending) and residuals
    ‖cov(v) − λ v‖. Each vector's largest-magnitude entry is positive; where
    fewer than k directions exist, the rest are zero.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([0])))
    size = min(MAX_BASIS, d)
    V = np.empty((size, d))  # orthonormal basis rows
    W = np.empty((size, d))  # W[i] = cov(V[i])
    T = np.empty((size, size))  # V C Vᵀ
    vectors, variances, residuals = np.zeros((k, d)), np.zeros(k), np.zeros(k)
    m, candidates = 0, rng.standard_normal((BLOCK, d))
    while True:
        start, m = m, _append(V, m, candidates)
        if m == start:
            break
        for i in range(start, m):
            W[i] = cov(V[i])
        B = V[:m] @ W[start:m].T  # the new columns of T
        B[start:] = (B[start:] + B[start:].T) / 2
        T[:m, start:m], T[start:m, :m] = B, B.T
        theta, Y = np.linalg.eigh(T[:m, :m])
        top = np.arange(m - 1, -1, -1)[:k]
        j = len(top)
        vectors[:j] = Y[:, top].T @ V[:m]
        variances[:j] = theta[top]
        residuals[:j] = np.linalg.norm(Y[:, top].T @ W[:m] - theta[top, None] * vectors[:j], axis=1)
        if m == size or not len(_unconverged(variances, residuals)):
            break
        candidates = W[start:m]
    pivots = np.argmax(np.abs(vectors), axis=1)
    vectors *= np.where(vectors[np.arange(k), pivots] < 0, -1.0, 1.0)[:, None]
    return vectors, variances, residuals


def pca_project(ds: PUDataset) -> PcaProjection:
    """Project every sample onto the top two principal directions."""
    samples = ds.samples
    n, d = len(samples), ds.space.dimension
    if not n:
        raise ValueError("cannot project an empty dataset")
    X = BinaryMatrix.from_rows(samples, d)
    mu = np.bincount(samples.indices, minlength=d) / n
    zero_variance = bool(np.all((mu == 0) | (mu == 1)))
    coords, variances, unconverged = np.zeros((2, n)), np.zeros(2), ()
    if not zero_variance:
        vectors, variances, residuals = top_components(
            lambda v: X.rmatvec(X @ v) / n - mu * (mu @ v), d
        )
        coords = [X @ v - mu @ v for v in vectors]
        unconverged = tuple(
            (int(i) + 1, float(residuals[i])) for i in _unconverged(variances, residuals)
        )
    groups = ["positive"] * len(ds.positives) + ["unlabeled"] * len(ds.unlabeled)
    rows = zip(samples.ids, coords[0].tolist(), coords[1].tolist(), groups)
    return PcaProjection(tuple(rows), zero_variance, tuple(variances.tolist()), unconverged)


def projection_csv(projection: PcaProjection) -> str:
    lines = ["id,x,y,group"]
    for sid, x, y, group in projection.rows:
        lines.append(f"{sid},{x:.9g},{y:.9g},{group}")
    return "\n".join(lines) + "\n"
