"""Contamination experiment protocols over synthetic data with known truth.

Each protocol holds out one third of each true class as a fixed test set,
builds a contaminated training dataset, then compares the cleaned-and-
retrained detector (PU) against the same learner trained directly on the
contaminated labels (NPU). Contamination never touches the test set, and
every protocol is a pure function of (data, config, seed).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from .classifiers import Learner, TrainConfig, train
from .features import AppSample, PUDataset, dense_matrix
from .metrics import Metrics, compute_metrics
from .pu import clean_and_retrain, training_arrays
from .report import ExperimentReport, ReportRow
from .synthetic import SyntheticData


class ProtocolError(ValueError):
    pass


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *key])))


def _child_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def split_test(
    data: SyntheticData, seed: int
) -> tuple[list[AppSample], list[AppSample], list[AppSample]]:
    """(training true positives, training true negatives, test samples).

    One third of each true class goes to the test set, chosen by seed.
    """
    samples = data.dataset.samples
    pos = [s for s in samples if s.hidden == 1]
    neg = [s for s in samples if s.hidden == 0]
    rng = _rng(seed, 0)

    def take_third(group: list[AppSample]) -> tuple[list[AppSample], list[AppSample]]:
        n_test = len(group) // 3
        chosen = set(rng.permutation(len(group))[:n_test].tolist())
        test = [s for i, s in enumerate(group) if i in chosen]
        rest = [s for i, s in enumerate(group) if i not in chosen]
        return rest, test

    pos_tr, pos_te = take_third(pos)
    neg_tr, neg_te = take_third(neg)
    return pos_tr, neg_tr, pos_te + neg_te


def _held_out(base: SyntheticData, seed: int) -> tuple[list, list, np.ndarray, list]:
    """(training true positives, training true negatives, X_test, y_test)."""
    pos_tr, neg_tr, test = split_test(base, seed)
    X_test = dense_matrix(test, base.dataset.space.dimension)
    return pos_tr, neg_tr, X_test, [s.hidden for s in test]


def _as_unlabeled(s: AppSample) -> AppSample:
    return AppSample(s.id, s.features, 0, s.hidden)


def _move_positives(
    base: SyntheticData, pos_tr: list, neg_tr: list, k: int, rng: np.random.Generator
) -> PUDataset:
    """Training set with k random true positives hidden in U after the negatives."""
    moved_idx = set(rng.permutation(len(pos_tr))[:k].tolist())
    p_group = tuple(s for i, s in enumerate(pos_tr) if i not in moved_idx)
    moved = tuple(_as_unlabeled(s) for i, s in enumerate(pos_tr) if i in moved_idx)
    return PUDataset(base.dataset.space, p_group, tuple(neg_tr) + moved)


def _evaluate(scores: np.ndarray, truth: Sequence[int]) -> Metrics:
    predicted = (scores > 0.5).astype(int)
    return compute_metrics(list(truth), predicted.tolist(), scores.tolist())


def _run_pair(
    ds: PUDataset,
    cfg: TrainConfig,
    X_test: np.ndarray,
    y_test: Sequence[int],
    split_fraction: float,
    seed: int,
) -> tuple[Metrics, Metrics]:
    """(PU metrics, NPU metrics) on the shared test set."""
    result = clean_and_retrain(ds, cfg, split_fraction=split_fraction, seed=seed)
    pu_metrics = _evaluate(result.final_model.score_matrix(X_test), y_test)
    X, z = training_arrays(ds)
    npu_model = train(X, z, cfg)
    npu_metrics = _evaluate(npu_model.score_matrix(X_test), y_test)
    return pu_metrics, npu_metrics


def protocol_rq1(
    base: SyntheticData,
    cfg: TrainConfig,
    iterations: int,
    step: int = 100,
    seed: int = 0,
    split_fraction: float = 0.2,
) -> ExperimentReport:
    """Move step*N random training positives into the unlabeled group, N = 0..iterations."""
    pos_tr, neg_tr, X_test, y_test = _held_out(base, seed)
    if step * iterations > len(pos_tr):
        raise ProtocolError(
            f"cannot move {step * iterations} positives; only {len(pos_tr)} available"
        )

    rows = []
    for n in range(iterations + 1):
        ds = _move_positives(base, pos_tr, neg_tr, step * n, _rng(seed, 1, n))
        pu_m, npu_m = _run_pair(
            ds, cfg, X_test, y_test, split_fraction, _child_seed(seed, 2, n)
        )
        rows.append(ReportRow(f"N={n}", pu_m, npu_m))

    config = {"step": step, "iterations": iterations, "train": cfg.to_dict()}
    return ExperimentReport("RQ1", tuple(rows), config, seed)


def protocol_rq2(
    base: SyntheticData,
    ratios: Sequence[float],
    cfg: TrainConfig,
    seed: int = 0,
    learners: Sequence[Learner] = (Learner.FOREST, Learner.TREE),
    split_fraction: float = 0.2,
) -> ExperimentReport:
    """Contaminate U with r times as many hidden positives as remain in P."""
    pos_tr, neg_tr, X_test, y_test = _held_out(base, seed)

    rows = []
    for ci, ratio in enumerate(ratios):
        if ratio < 0:
            raise ProtocolError(f"ratio must be non-negative, got {ratio}")
        k = int(round(len(pos_tr) * ratio / (1.0 + ratio)))
        if len(pos_tr) - k < 1:
            raise ProtocolError(f"ratio {ratio} leaves no positives in P")
        ds = _move_positives(base, pos_tr, neg_tr, k, _rng(seed, 1, ci))
        for learner in learners:
            cfg_l = replace(cfg, learner=learner)
            pu_m, npu_m = _run_pair(
                ds, cfg_l, X_test, y_test, split_fraction, _child_seed(seed, 2, ci)
            )
            rows.append(ReportRow(f"{ratio:g}:1/{learner.value}", pu_m, npu_m))

    config = {
        "ratios": [float(r) for r in ratios],
        "learners": [l.value for l in learners],
        "train": cfg.to_dict(),
    }
    return ExperimentReport("RQ2", tuple(rows), config, seed)


def protocol_rq3(
    base: SyntheticData,
    cfg: TrainConfig,
    seed: int = 0,
    holdout_family: Optional[int] = None,
    split_fraction: float = 0.2,
) -> ExperimentReport:
    """Hold one family out of P and inject it into U, 1:1 with benign samples."""
    families = sorted(set(base.family_of.values()))
    if len(families) < 2:
        raise ProtocolError("family holdout needs at least two families")
    if holdout_family is not None:
        if holdout_family not in families:
            raise ProtocolError(f"unknown family id {holdout_family}")
        targets = [holdout_family]
    else:
        targets = families

    pos_tr, neg_tr, X_test, y_test = _held_out(base, seed)
    cfg_lin = replace(cfg, learner=Learner.LINEAR)

    rows = []
    for fam in targets:
        fam_pos = [s for s in pos_tr if base.family_of[s.id] == fam]
        other_pos = [s for s in pos_tr if base.family_of[s.id] != fam]
        if not fam_pos or not other_pos:
            raise ProtocolError(f"family {fam} leaves an empty training group")
        n_mix = min(len(fam_pos), len(neg_tr))
        rng = _rng(seed, 1, fam)
        contaminants = [
            _as_unlabeled(fam_pos[i])
            for i in sorted(rng.permutation(len(fam_pos))[:n_mix].tolist())
        ]
        benign = [
            neg_tr[i] for i in sorted(rng.permutation(len(neg_tr))[:n_mix].tolist())
        ]
        ds = PUDataset(base.dataset.space, tuple(other_pos), tuple(benign + contaminants))
        pu_m, npu_m = _run_pair(
            ds, cfg_lin, X_test, y_test, split_fraction, _child_seed(seed, 2, fam)
        )
        rows.append(ReportRow(f"family-{fam}", pu_m, npu_m))

    config = {
        "holdout_family": holdout_family,
        "families": families,
        "train": cfg_lin.to_dict(),
    }
    return ExperimentReport("RQ3", tuple(rows), config, seed)


def protocol_rq4(
    base: SyntheticData,
    cfg: TrainConfig,
    ratio: float = 8.0,
    seed: int = 0,
    learners: Sequence[Learner] = (Learner.LINEAR, Learner.TREE, Learner.FOREST),
    split_fraction: float = 0.2,
) -> ExperimentReport:
    """Reverse contamination: benign apps mislabeled into the positive group.

    Here the mislabeled group is the malicious one, so group roles are swapped
    before running the cleaning pipeline: the pure benign set plays "positive"
    and the contaminated malicious set plays "unlabeled". The adjustment is
    symmetric in which class is treated as positive, so one code path serves
    both directions; reported scores are flipped back to the malware task.
    """
    if ratio < 0:
        raise ProtocolError(f"ratio must be non-negative, got {ratio}")
    pos_tr, neg_tr, X_test, y_test = _held_out(base, seed)

    if ratio == 0:
        m, k = len(pos_tr), 0
    else:
        # sized so mislabeled benign outnumber retained benign by m; at exact
        # parity tie leaves all tip to the benign side and the no-PU baseline
        # is far better than the random guessing this regime should show
        m = min(len(pos_tr), int(len(neg_tr) // (2.0 * ratio - 1.0)))
        k = int(round(ratio * m))
    if m < 1 or k >= len(neg_tr):
        raise ProtocolError(f"ratio {ratio} is infeasible for this dataset")

    rng = _rng(seed, 1)
    malware = [pos_tr[i] for i in sorted(rng.permutation(len(pos_tr))[:m].tolist())]
    mislabeled_idx = set(rng.permutation(len(neg_tr))[:k].tolist())
    mislabeled = [s for i, s in enumerate(neg_tr) if i in mislabeled_idx]
    benign_rest = [s for i, s in enumerate(neg_tr) if i not in mislabeled_idx]

    # swapped view: benign is the positive class
    swapped_p = tuple(AppSample(s.id, s.features, 1, 1) for s in benign_rest)
    swapped_u = tuple(
        [AppSample(s.id, s.features, 0, 0) for s in malware]
        + [AppSample(s.id, s.features, 0, 1) for s in mislabeled]
    )
    swapped_ds = PUDataset(base.dataset.space, swapped_p, swapped_u)

    # NPU sees the corrupted original labels, in the same row order as the
    # swapped dataset so the clean case degenerates identically
    npu_samples = benign_rest + malware + mislabeled
    X_npu = dense_matrix(npu_samples, base.dataset.space.dimension)
    z_npu = np.array([0] * len(benign_rest) + [1] * (len(malware) + len(mislabeled)))

    rows = []
    for learner in learners:
        cfg_l = replace(cfg, learner=learner)
        result = clean_and_retrain(
            swapped_ds, cfg_l, split_fraction=split_fraction, seed=_child_seed(seed, 2)
        )
        benign_scores = result.final_model.score_matrix(X_test)
        pu_m = _evaluate(1.0 - benign_scores, y_test)
        npu_model = train(X_npu, z_npu, cfg_l)
        npu_m = _evaluate(npu_model.score_matrix(X_test), y_test)
        rows.append(ReportRow(f"{ratio:g}:1/{learner.value}", pu_m, npu_m))

    config = {
        "ratio": float(ratio),
        "learners": [l.value for l in learners],
        "train": cfg.to_dict(),
    }
    return ExperimentReport("RQ4", tuple(rows), config, seed)
