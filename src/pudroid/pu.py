"""PU learning engine: label-frequency estimation, adjusted scoring, cleaning.

The engine works on the rows of one matrix: `training_arrays` turns P ∪ U
into (X, z) once, X being the CSR `features.BinaryMatrix` over the dataset's
own arrays, and every later step gathers rows of X by index.
The classifier f of z given x is trained on group labels only. The label
frequency e = p(z=1 | y=1) is estimated as the mean of f over the positive
rows P' of a held-out validation split, and the adjusted score
g(x) = f(x) / e recovers the true posterior under the discovered-at-random
assumption. Unlabeled samples with g > 0.5 are flagged as contaminants and
relabeled into P (or discarded): the result is the cleaned dataset, on which
a caller trains its detector. Hidden ground truth is never read here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .classifiers import ProbabilisticClassifier, TrainConfig, TrainingError, train
from .features import BinaryMatrix, PUDataset
# not called here: perfbench/tracing.py wraps this name until ROADMAP item 1
from .features import dense_matrix  # noqa: F401

E_EPSILON = 1e-6


class SplitError(ValueError):
    pass


def training_arrays(ds: PUDataset) -> tuple[BinaryMatrix, np.ndarray]:
    """(X, z) over P then U; the z labels (a sample's group) are the training targets."""
    X = BinaryMatrix.from_rows(ds.samples, ds.space.dimension)
    z = np.repeat(np.array([1, 0], dtype=np.int64), [len(ds.positives), len(ds.unlabeled)])
    return X, z


def split_validation(z: np.ndarray, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded uniform split of the rows into validation set V and training rest.

    Returns (training rows, validation positive rows P'), both ascending.
    """
    if not 0.0 < fraction < 1.0:
        raise SplitError("split: fraction must be in (0, 1)")
    n = len(z)
    n_v = int(round(fraction * n))
    if n_v < 1 or n_v >= n:
        raise SplitError(f"split: fraction {fraction} leaves a degenerate split for n={n}")
    rng = np.random.default_rng([seed])
    in_v = np.zeros(n, dtype=bool)
    in_v[rng.permutation(n)[:n_v]] = True
    p_rows = np.flatnonzero(in_v & (z == 1))
    if not len(p_rows):
        raise SplitError(
            "split: validation set contains no positives; increase the fraction or reseed"
        )
    return np.flatnonzero(~in_v), p_rows


def estimate_e(f_scores: np.ndarray) -> float:
    """Label-frequency estimate: mean f over the validation positives P'."""
    mean_f = float(np.mean(f_scores)) if len(f_scores) else math.nan
    if not math.isfinite(mean_f):
        raise ValueError(f"estimate e: mean f over {len(f_scores)} validation positives is {mean_f}")
    return float(np.clip(mean_f, E_EPSILON, 1.0))


@dataclass(frozen=True)
class PUModel:
    """Adjusted classifier g(x) = min(1, rescale * f(x) / e)."""

    base: ProbabilisticClassifier
    e: float
    rescale: float = 1.0

    def g_matrix(self, X: BinaryMatrix) -> np.ndarray:
        return np.minimum(1.0, self.rescale * self.base.score_matrix(X) / self.e)


def apply_rescale_heuristic(
    pu: PUModel, mean_g: float, target: float = 1.0, trigger: float = 0.7
) -> PUModel:
    """Boost scores when known malware averages well below 1 under g.

    If mean_g, the mean adjusted score over P', falls below the trigger, the
    model is rescaled so that mean reaches the target; otherwise it is
    returned unchanged.
    """
    if mean_g < trigger:
        rescale = target / mean_g if mean_g > 0 else math.inf
        if not math.isfinite(rescale):
            raise ValueError(
                f"rescale: mean g over the validation positives is {mean_g:g}; "
                f"no finite factor lifts it to {target:g}"
            )
        return replace(pu, rescale=rescale)
    return pu


def detect_contaminants(pu: PUModel, X_u: BinaryMatrix) -> np.ndarray:
    """Per unlabeled row, whether g classifies it malicious (g > 0.5)."""
    return pu.g_matrix(X_u) > 0.5


@dataclass(frozen=True)
class CleanDiagnostics:
    e: float
    rescale: float
    mean_g_over_pm: float


@dataclass(frozen=True)
class CleanResult:
    contaminant_ids: tuple[str, ...]
    cleaned: PUDataset
    diagnostics: CleanDiagnostics


def clean_and_retrain(
    ds: PUDataset,
    cfg: TrainConfig,
    split_fraction: float = 0.2,
    seed: int = 0,
    discard: bool = False,
    rescale_trigger: float = 0.7,
    rescale_target: float = 1.0,
) -> CleanResult:
    """Full pipeline: train f, estimate e, rescale, detect, relabel.

    Detected contaminants are moved from U into P by default (their hidden
    field, if any, is dropped: the pipeline treats its own verdict as the new
    label and carries no ground-truth claim). With discard=True they are
    removed instead; a cleaned set of one class is an error. The caller fits
    the detector; the name keeps "retrain" until ROADMAP item 1.
    """
    X, z = training_arrays(ds)
    train_rows, p_rows = split_validation(z, split_fraction, seed)
    try:
        base = train(X[train_rows], z[train_rows], cfg)
    except TrainingError as exc:
        raise TrainingError(f"fit f: {exc}") from exc
    f_pm = base.score_matrix(X[p_rows])
    e = estimate_e(f_pm)
    mu = float(np.mean(np.minimum(1.0, f_pm / e)))  # mean g over P' before any rescale
    pu = apply_rescale_heuristic(
        PUModel(base, e), mu, target=rescale_target, trigger=rescale_trigger
    )
    u = ds.unlabeled
    is_flagged = detect_contaminants(pu, X[np.arange(len(ds.positives), len(z))])
    if is_flagged.all():  # P is non-empty, so only an all-flagged U leaves one class
        raise TrainingError(f"retrain: all {len(u)} unlabeled samples were flagged; "
                            "the cleaned set has one class")

    moved = u.take(np.flatnonzero(is_flagged))
    p = ds.positives if discard else ds.positives + replace(moved, hidden=np.full(len(moved), -1))
    return CleanResult(
        contaminant_ids=tuple(sorted(moved.ids)),
        cleaned=PUDataset(ds.space, p, u.take(np.flatnonzero(~is_flagged))),
        diagnostics=CleanDiagnostics(e=e, rescale=pu.rescale, mean_g_over_pm=mu),
    )
