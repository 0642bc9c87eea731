"""Evaluation metrics: accuracy, F-measure, detection rate, rank-based AUC.

`compute_metrics(truth, scores)` predicts malware where a score exceeds 0.5,
the package's one threshold. AUC is the Mann-Whitney statistic computed from
average ranks. The rank sum is accumulated in integer arithmetic (doubled
ranks) so the result is the exactly rounded value of the underlying rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    auc: float  # NaN when undefined (single-class truth); reports write it as "undefined"
    f_measure: float
    detection_rate: float
    tp: int
    fp: int
    tn: int
    fn: int

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "auc": self.auc,
            "f_measure": self.f_measure,
            "detection_rate": self.detection_rate,
            "confusion": {"tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn},
        }


def rank_auc(truth: Sequence[int], scores: Sequence[float]) -> float:
    """AUC from the Mann-Whitney rank statistic with average ranks for ties.

    Returns NaN when either class is absent.
    """
    truth = np.asarray(truth, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int(truth.sum())
    n_neg = len(truth) - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    # tie groups at 0-based positions start..end-1, that is 1-based i..j with
    # i = start + 1 and j = end: each positive in one contributes i + j to the
    # doubled rank sum
    start = np.flatnonzero(np.concatenate([[True], sorted_scores[1:] != sorted_scores[:-1]]))
    end = np.append(start[1:], len(scores))
    pos_in_group = np.add.reduceat(truth[order], start)
    double_rank_sum = int(pos_in_group @ (start + 1 + end))
    numerator = double_rank_sum - n_pos * (n_pos + 1)
    return numerator / (2 * n_pos * n_neg)


def compute_metrics(truth: Sequence[int], scores: Sequence[float]) -> Metrics:
    truth = np.asarray(truth, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if len(truth) != len(scores) or len(truth) == 0:
        raise ValueError("truth and scores must have equal non-zero length")
    predicted = scores > 0.5
    tp = int(np.sum((truth == 1) & predicted))
    fp = int(np.sum((truth == 0) & predicted))
    tn = int(np.sum((truth == 0) & ~predicted))
    fn = int(np.sum((truth == 1) & ~predicted))
    total = tp + fp + tn + fn
    accuracy = (tp + tn) / total
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f_measure = (
        2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    )
    return Metrics(
        accuracy=accuracy,
        auc=rank_auc(truth, scores),
        f_measure=f_measure,
        detection_rate=recall,
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
    )
