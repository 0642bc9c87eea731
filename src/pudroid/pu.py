"""PU learning engine: label-frequency estimation, adjusted scoring, cleaning.

The discovery classifier f is trained on z labels only. The label frequency
e = p(z=1 | y=1) is estimated as the mean of f over the positive part of a
held-out validation split, and the adjusted score g(x) = f(x) / e recovers
the true posterior under the discovered-at-random assumption. Unlabeled
samples with g > 0.5 are flagged as contaminants, then the final detector is
retrained on the corrected labels. Ground-truth hidden labels are never read
by any step here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .classifiers import ProbabilisticClassifier, TrainConfig, train
from .features import AppSample, PUDataset, dense_matrix

E_EPSILON = 1e-6


class SplitError(ValueError):
    pass


def training_arrays(ds: PUDataset) -> tuple[np.ndarray, np.ndarray]:
    """(X, z) over P then U; the z labels are the training targets."""
    samples = ds.samples
    X = dense_matrix(samples, ds.space.dimension)
    y = np.array([s.discovery for s in samples], dtype=np.int64)
    return X, y


@dataclass(frozen=True)
class ValidationSplit:
    train_part: PUDataset
    validation_part: PUDataset
    positive_validation: tuple[AppSample, ...]

    @property
    def n(self) -> int:
        return len(self.positive_validation)


def split_validation(ds: PUDataset, fraction: float, seed: int) -> ValidationSplit:
    """Seeded uniform split of P ∪ U into validation set V and training rest."""
    if not 0.0 < fraction < 1.0:
        raise SplitError("fraction must be in (0, 1)")
    samples = ds.samples
    n = len(samples)
    n_v = int(round(fraction * n))
    if n_v < 1 or n_v >= n:
        raise SplitError(f"fraction {fraction} leaves a degenerate split for n={n}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))
    chosen = set(rng.permutation(n)[:n_v].tolist())
    val = [s for i, s in enumerate(samples) if i in chosen]
    rest = [s for i, s in enumerate(samples) if i not in chosen]
    p_prime = tuple(s for s in val if s.discovery == 1)
    if not p_prime:
        raise SplitError(
            "validation set contains no positives; increase the fraction or reseed"
        )

    def as_dataset(part: list[AppSample]) -> PUDataset:
        return PUDataset(
            ds.space,
            tuple(s for s in part if s.discovery == 1),
            tuple(s for s in part if s.discovery == 0),
        )

    return ValidationSplit(as_dataset(rest), as_dataset(val), p_prime)


@dataclass(frozen=True)
class EstimatorResult:
    e: float
    n: int
    per_sample_scores: tuple[float, ...]


def estimate_e(
    model: ProbabilisticClassifier, p_prime: Sequence[AppSample]
) -> EstimatorResult:
    """Label-frequency estimate: mean f over the validation positives."""
    if not p_prime:
        raise ValueError("estimator needs a non-empty positive validation set")
    if any(s.discovery != 1 for s in p_prime):
        raise ValueError("estimator input must be positively labeled")
    scores = model.score_matrix(dense_matrix(p_prime, model.dimension))
    e = float(np.clip(np.mean(scores), E_EPSILON, 1.0))
    return EstimatorResult(e, len(p_prime), tuple(float(v) for v in scores))


@dataclass(frozen=True)
class PUModel:
    """Adjusted classifier g(x) = min(1, rescale * f(x) / e)."""

    base: ProbabilisticClassifier
    e: float
    rescale: float = 1.0

    def g_matrix(self, X: np.ndarray) -> np.ndarray:
        return np.minimum(1.0, self.rescale * self.base.score_matrix(X) / self.e)


def apply_rescale_heuristic(
    pu: PUModel,
    p_m: Sequence[AppSample],
    target: float = 1.0,
    trigger: float = 0.7,
) -> PUModel:
    """Boost scores when known malware averages well below 1 under g.

    If the mean adjusted score over p_m falls below the trigger, the model is
    rescaled so that mean reaches the target; otherwise it is returned
    unchanged.
    """
    if not p_m:
        raise ValueError("rescale heuristic needs a non-empty positive subset")
    if any(s.discovery != 1 for s in p_m):
        raise ValueError("rescale subset must be positively labeled")
    mu = float(np.mean(pu.g_matrix(dense_matrix(p_m, pu.base.dimension))))
    if mu < trigger:
        return replace(pu, rescale=target / mu)
    return pu


def detect_contaminants(pu: PUModel, u_group: Sequence[AppSample]) -> list[str]:
    """Ids of unlabeled samples classified malicious by g (g > 0.5), sorted."""
    if not u_group:
        return []
    g = pu.g_matrix(dense_matrix(u_group, pu.base.dimension))
    return sorted(s.id for s, gs in zip(u_group, g) if gs > 0.5)


@dataclass(frozen=True)
class CleanDiagnostics:
    e: float
    rescale: float
    mean_g_over_pm: float


@dataclass(frozen=True)
class CleanResult:
    contaminant_ids: tuple[str, ...]
    cleaned: PUDataset
    final_model: ProbabilisticClassifier
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
    """Full pipeline: train f, estimate e, rescale, detect, relabel, retrain.

    Detected contaminants are moved from U into P by default (their hidden
    field, if any, is dropped: the pipeline treats its own verdict as the new
    label and carries no ground-truth claim). With discard=True they are
    removed instead.
    """
    split = split_validation(ds, split_fraction, seed)
    X, y = training_arrays(split.train_part)
    base = train(X, y, cfg)
    est = estimate_e(base, split.positive_validation)
    # mean g over P' before any rescale, from the f scores e was estimated on
    mu = float(np.mean(np.minimum(1.0, np.asarray(est.per_sample_scores) / est.e)))
    pu = PUModel(base, est.e)
    pu = apply_rescale_heuristic(
        pu, split.positive_validation, target=rescale_target, trigger=rescale_trigger
    )
    contaminants = detect_contaminants(pu, ds.unlabeled)
    flagged = set(contaminants)

    kept_u = tuple(s for s in ds.unlabeled if s.id not in flagged)
    if discard:
        cleaned = PUDataset(ds.space, ds.positives, kept_u)
    else:
        moved = tuple(
            AppSample(s.id, s.features, 1, None)
            for s in ds.unlabeled
            if s.id in flagged
        )
        cleaned = PUDataset(ds.space, ds.positives + moved, kept_u)

    Xc, yc = training_arrays(cleaned)
    final_model = train(Xc, yc, cfg)
    return CleanResult(
        contaminant_ids=tuple(contaminants),
        cleaned=cleaned,
        final_model=final_model,
        diagnostics=CleanDiagnostics(e=est.e, rescale=pu.rescale, mean_g_over_pm=mu),
    )
