"""Seeded synthetic dataset generator with known ground truth.

True positives belong to one of n_families subgroups; each family owns a
disjoint block of signal features. By default every positive carries every
signal feature at the signal rate (0.8), so families are statistically
identical and the block assignment is bookkeeping. With
family_exclusive=True a positive carries only its own family's block at the
signal rate, which gives each family a distinguishable signature for
unknown-contaminant experiments. Negatives carry only the background rate
(0.05) everywhere.
Bit-flip noise is folded into the per-feature Bernoulli rates, and each true
positive is labeled (z = 1) with probability label_frequency_c independently
of its features, so the labeling is selected-completely-at-random by
construction. Because the generative model is fully known, the exact
posterior p(y=1 | x) is available for oracle checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .features import FeatureKind, FeatureSpace, PUDataset, SampleRows, offsets

SIGNAL_RATE = 0.8
BACKGROUND_RATE = 0.05


class SpecError(ValueError):
    def __init__(self, message: str, fields: tuple[str, ...] = ()):  # of a check across fields
        super().__init__(message)
        self.fields = fields


def within(value, interval: str) -> bool:
    """Whether value lies in an interval written "[low, high)" and the like; NaN lies in none."""
    low, high = map(float, interval[1:-1].split(","))
    above = low < value if interval[0] == "(" else low <= value
    return above and (value < high if interval[-1] == ")" else value <= high)


@dataclass(frozen=True)
class SyntheticSpec:
    # each field's "range" is checked here and by the CLI's flags and spec-file keys
    n_positive: int = field(default=2000, metadata={"range": "[1, inf)"})
    n_negative: int = field(default=6000, metadata={"range": "[1, inf)"})
    dimension: int = field(default=200, metadata={"range": "[0, inf)"})
    signal_features: int = field(default=8, metadata={"range": "[0, inf)"})  # per family
    flip_noise: float = field(default=0.05, metadata={"range": "[0, 0.5)"})
    label_frequency_c: float = field(default=1.0, metadata={"range": "(0, 1]"})
    n_families: int = field(default=4, metadata={"range": "[1, inf)"})
    family_exclusive: bool = field(
        default=False, metadata={"help": "give each family its own disjoint signal block"}
    )
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            value, interval = getattr(self, f.name), f.metadata.get("range")
            if interval and not within(value, interval):
                raise SpecError(f"{f.name} must be in {interval}, got {value!r}")
        if self.n_families > self.n_positive:
            raise SpecError("n_families must be at most n_positive", ("n_families", "n_positive"))
        if self.signal_features * self.n_families > self.dimension:
            raise SpecError("signal_features x n_families must be at most dimension",
                            ("signal_features", "n_families", "dimension"))


@dataclass(frozen=True)
class SyntheticData:
    dataset: PUDataset
    family_of: dict  # positive sample id -> family index
    spec: SyntheticSpec


def _effective_rate(p: float, flip: float) -> float:
    return p * (1.0 - flip) + (1.0 - p) * flip


def _class_rates(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray]:
    """(K, d) per-family positive rates and (d,) negative rates, noise folded in."""
    d, m, k = spec.dimension, spec.signal_features, spec.n_families
    pos = np.full((k, d), _effective_rate(BACKGROUND_RATE, spec.flip_noise))
    signal = _effective_rate(SIGNAL_RATE, spec.flip_noise)
    for fam in range(k):
        if spec.family_exclusive:
            pos[fam, fam * m : (fam + 1) * m] = signal
        else:
            pos[fam, : m * k] = signal
    neg = np.full(d, _effective_rate(BACKGROUND_RATE, spec.flip_noise))
    return pos, neg


def _feature_space(dimension: int) -> FeatureSpace:
    names = tuple((f"f{i:04d}", FeatureKind.API) for i in range(dimension))
    return FeatureSpace(names)


def generate_synthetic(spec: SyntheticSpec) -> SyntheticData:
    """Draw a PUDataset with hidden labels from the generative model."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([spec.seed])))
    pos_rates, neg_rates = _class_rates(spec)
    families = np.arange(spec.n_positive) % spec.n_families

    pos_X = rng.random((spec.n_positive, spec.dimension)) < pos_rates[families]
    neg_X = rng.random((spec.n_negative, spec.dimension)) < neg_rates
    labeled = rng.random(spec.n_positive) < spec.label_frequency_c

    # one CSR block of all samples, positives first; P and U are gathered from it
    n_pos, n = spec.n_positive, spec.n_positive + spec.n_negative
    ids = [f"pos-{i:05d}" for i in range(n_pos)] + [f"neg-{i:05d}" for i in range(n - n_pos)]
    row_of, on = np.nonzero(np.concatenate([pos_X, neg_X]))
    hidden = (np.arange(n) < n_pos).astype(np.int64)
    rows = SampleRows(tuple(ids), offsets(np.bincount(row_of, minlength=n)), on, hidden)
    p_rows = np.flatnonzero(labeled)
    u_rows = np.concatenate([np.flatnonzero(~labeled), np.arange(n_pos, n)])
    dataset = PUDataset(_feature_space(spec.dimension), rows.take(p_rows), rows.take(u_rows))
    return SyntheticData(dataset, dict(zip(ids, families.tolist())), spec)


def analytic_posterior(spec: SyntheticSpec, X: np.ndarray) -> np.ndarray:
    """Exact p(y=1 | x) under the generative model, for oracle checks."""
    X = np.asarray(X, dtype=np.float64)
    pos_rates, neg_rates = _class_rates(spec)

    def loglik(rates: np.ndarray) -> np.ndarray:
        return X @ np.log(rates) + (1.0 - X) @ np.log(1.0 - rates)

    ll_pos_fam = np.stack([loglik(r) for r in pos_rates], axis=1)  # (n, K)
    top = ll_pos_fam.max(axis=1)
    ll_pos = top + np.log(np.mean(np.exp(ll_pos_fam - top[:, None]), axis=1))
    ll_neg = loglik(neg_rates)
    prior_pos = spec.n_positive / (spec.n_positive + spec.n_negative)
    log_odds = np.log(prior_pos) + ll_pos - (np.log(1.0 - prior_pos) + ll_neg)
    return 1.0 / (1.0 + np.exp(-log_odds))


def planted_contaminant_ids(data: SyntheticData) -> list[str]:
    """Ids of true positives sitting in the unlabeled group."""
    u = data.dataset.unlabeled
    return sorted(u.ids[i] for i in np.flatnonzero(u.hidden == 1))
