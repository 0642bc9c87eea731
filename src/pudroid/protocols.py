"""Contamination experiment protocols over synthetic data with known truth.

Each protocol holds out one third of each true class as a fixed test set,
builds contaminated training datasets, then compares the detector trained on
each cleaned set (PU) against the same learner trained directly on the
contaminated labels (NPU): `_report` scores each such pair with `_run_pair`.
Contamination never touches the test set, and every protocol is a pure
function of (data, config, seed).
"""

from __future__ import annotations

from dataclasses import asdict, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .classifiers import Learner, TrainConfig, train
from .features import BinaryMatrix, PUDataset
# not called here: perfbench/tracing.py wraps this name until ROADMAP item 1
from .features import dense_matrix  # noqa: F401
from .metrics import compute_metrics
from .pu import clean_and_retrain, training_arrays
from .report import ExperimentReport, ReportRow
from .synthetic import SyntheticData


class ProtocolError(ValueError):
    pass


def _child_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def split_test(data: SyntheticData, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(training true positives, training true negatives, test samples), as
    ascending row indices of data.dataset.samples per true class.

    One third of each true class goes to the test set, chosen by seed.
    """
    hidden = data.dataset.samples.hidden
    rng = np.random.default_rng([seed, 0])

    def take_third(group: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        chosen = np.sort(rng.permutation(len(group))[: len(group) // 3])
        return np.delete(group, chosen), group[chosen]

    pos_tr, pos_te = take_third(np.flatnonzero(hidden == 1))
    neg_tr, neg_te = take_third(np.flatnonzero(hidden == 0))
    return pos_tr, neg_tr, np.concatenate([pos_te, neg_te])


def _dataset(base: SyntheticData, p_rows: np.ndarray, u_rows: np.ndarray) -> PUDataset:
    rows = base.dataset.samples.take(np.concatenate([p_rows, u_rows]))
    return PUDataset(base.dataset.space, rows, len(p_rows))


def _move_positives(
    base: SyntheticData, pos_tr: np.ndarray, neg_tr: np.ndarray, k: int, rng: np.random.Generator
) -> PUDataset:
    """Training set with k random true positives hidden in U after the negatives."""
    moved = np.sort(rng.permutation(len(pos_tr))[:k])
    return _dataset(base, np.delete(pos_tr, moved), np.concatenate([neg_tr, pos_tr[moved]]))


def _run_pair(
    condition: str,
    ds: PUDataset,
    cfg: TrainConfig,
    X_test: BinaryMatrix,
    y_test: np.ndarray,
    split_fraction: float,
    seed: int,
    swapped: bool = False,
) -> ReportRow:
    """The condition's PU and NPU metrics on the shared test set. With swapped,
    ds's P is benign: the PU scores are flipped, and the NPU detector learns 1 - z."""
    result = clean_and_retrain(ds, cfg, split_fraction=split_fraction, seed=seed)
    pu_scores = train(*training_arrays(result.cleaned), cfg).score_matrix(X_test)
    X, z = training_arrays(ds)
    npu_scores = train(X, 1 - z if swapped else z, cfg).score_matrix(X_test)
    pu = compute_metrics(y_test, 1.0 - pu_scores if swapped else pu_scores)
    return ReportRow(condition, pu, compute_metrics(y_test, npu_scores))


def _report(name: str, base: SyntheticData, test: np.ndarray, pairs: Iterable[tuple],
            config: dict, seed: int, split_fraction: float) -> ExperimentReport:
    """Each (condition, dataset, cfg, seed[, swapped]) pair, drawn as it runs, scored by
    `_run_pair` on the test rows; the config gains the generator spec and the split."""
    X_test = BinaryMatrix.from_rows(base.dataset.samples, base.dataset.space.dimension)[test]
    y_test = base.dataset.samples.hidden[test]
    rows = []
    for condition, ds, cfg, pair_seed, *swapped in pairs:
        try:
            row = _run_pair(condition, ds, cfg, X_test, y_test, split_fraction, pair_seed, *swapped)
        except ValueError as exc:  # the same class, so the CLI's exit code holds
            raise type(exc)(f"{condition}: {exc}") from exc
        rows.append(row)
    config = {**config, "generator": asdict(base.spec), "split_fraction": split_fraction}
    return ExperimentReport(name, tuple(rows), config, seed)


def protocol_rq1(
    base: SyntheticData,
    cfg: TrainConfig,
    iterations: int,
    step: int = 100,
    seed: int = 0,
    split_fraction: float = 0.2,
) -> ExperimentReport:
    """Move step*N random training positives into the unlabeled group, N = 0..iterations."""
    pos_tr, neg_tr, test = split_test(base, seed)
    if step * iterations > len(pos_tr):
        raise ProtocolError(
            f"cannot move {step * iterations} positives; only {len(pos_tr)} available"
        )

    def pairs():
        for n in range(iterations + 1):
            rng = np.random.default_rng([seed, 1, n])
            ds = _move_positives(base, pos_tr, neg_tr, step * n, rng)
            yield f"N={n}", ds, cfg, _child_seed(seed, 2, n)

    config = {"step": step, "iterations": iterations, "train": cfg.to_dict()}
    return _report("RQ1", base, test, pairs(), config, seed, split_fraction)


def protocol_rq2(
    base: SyntheticData,
    ratios: Sequence[float],
    cfg: TrainConfig,
    seed: int = 0,
    learners: Sequence[Learner] = (Learner.FOREST, Learner.TREE),
    split_fraction: float = 0.2,
) -> ExperimentReport:
    """Contaminate U with r times as many hidden positives as remain in P."""
    pos_tr, neg_tr, test = split_test(base, seed)

    def pairs():
        for ci, ratio in enumerate(ratios):
            if ratio < 0:
                raise ProtocolError(f"ratio must be non-negative, got {ratio}")
            k = int(round(len(pos_tr) * ratio / (1.0 + ratio)))
            if len(pos_tr) - k < 1:
                raise ProtocolError(f"ratio {ratio} leaves no positives in P")
            ds = _move_positives(base, pos_tr, neg_tr, k, np.random.default_rng([seed, 1, ci]))
            for learner in learners:
                condition = f"{ratio:g}:1/{learner.value}"
                yield condition, ds, replace(cfg, learner=learner), _child_seed(seed, 2, ci)

    config = {
        "ratios": [float(r) for r in ratios],
        "learners": [l.value for l in learners],
        "train": {k: v for k, v in cfg.to_dict().items() if k != "learner"},
    }
    return _report("RQ2", base, test, pairs(), config, seed, split_fraction)


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

    pos_tr, neg_tr, test = split_test(base, seed)
    cfg_lin = replace(cfg, learner=Learner.LINEAR)
    ids = base.dataset.samples.ids
    family = np.array([base.family_of[ids[r]] for r in pos_tr.tolist()])

    def pairs():
        for fam in targets:
            fam_pos, other_pos = pos_tr[family == fam], pos_tr[family != fam]
            if not len(fam_pos) or not len(other_pos):
                raise ProtocolError(f"family {fam} leaves an empty training group")
            n_mix = min(len(fam_pos), len(neg_tr))
            rng = np.random.default_rng([seed, 1, fam])
            contaminants = fam_pos[np.sort(rng.permutation(len(fam_pos))[:n_mix])]
            benign = neg_tr[np.sort(rng.permutation(len(neg_tr))[:n_mix])]
            ds = _dataset(base, other_pos, np.concatenate([benign, contaminants]))
            yield f"family-{fam}", ds, cfg_lin, _child_seed(seed, 2, fam)

    config = {"holdout_family": holdout_family, "families": families, "train": cfg_lin.to_dict()}
    return _report("RQ3", base, test, pairs(), config, seed, split_fraction)


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
    pos_tr, neg_tr, test = split_test(base, seed)

    if ratio == 0:
        m, k = len(pos_tr), 0
    elif ratio <= 0.5:  # no m > 0 lets mislabeled benign outnumber the retained ones
        m, k = 0, 0
    else:
        # sized so mislabeled benign outnumber retained benign by m; at exact
        # parity tie leaves all tip to the benign side and the no-PU baseline
        # is far better than the random guessing this regime should show
        m = min(len(pos_tr), int(len(neg_tr) // (2.0 * ratio - 1.0)))
        k = int(round(ratio * m))
    if m < 1 or k >= len(neg_tr):
        raise ProtocolError(f"ratio {ratio} is infeasible for this dataset")

    rng = np.random.default_rng([seed, 1])
    malware = pos_tr[np.sort(rng.permutation(len(pos_tr))[:m])]
    mislabeled = np.sort(rng.permutation(len(neg_tr))[:k])
    benign_rest = np.delete(neg_tr, mislabeled)
    block = base.dataset.samples.take(np.concatenate([benign_rest, malware, neg_tr[mislabeled]]))

    # swapped view: benign is the positive class (P the retained benign, U the
    # malware and the mislabeled benign), so the hidden truth flips too
    swapped_ds = PUDataset(
        base.dataset.space, replace(block, hidden=1 - block.hidden), len(benign_rest)
    )

    pairs = (
        (f"{ratio:g}:1/{l.value}", swapped_ds, replace(cfg, learner=l), _child_seed(seed, 2), True)
        for l in learners
    )
    config = {
        "ratio": float(ratio),
        "learners": [l.value for l in learners],
        "train": {k: v for k, v in cfg.to_dict().items() if k != "learner"},
    }
    return _report("RQ4", base, test, pairs, config, seed, split_fraction)
