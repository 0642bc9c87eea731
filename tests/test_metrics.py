import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pudroid.metrics import compute_metrics, rank_auc
from pudroid.report import dumps


def pairwise_auc(truth, scores):
    """Exhaustive (positive, negative) pair comparison in exact arithmetic."""
    pos = [Fraction(s).limit_denominator(10**9) for t, s in zip(truth, scores) if t == 1]
    neg = [Fraction(s).limit_denominator(10**9) for t, s in zip(truth, scores) if t == 0]
    total = Fraction(0)
    for p in pos:
        for n in neg:
            if p > n:
                total += 1
            elif p == n:
                total += Fraction(1, 2)
    return total / (len(pos) * len(neg))


class TestRankAuc:
    def test_perfect_ranking(self):
        assert rank_auc([1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1]) == 1.0

    def test_reversed_ranking(self):
        assert rank_auc([1, 0], [0.3, 0.7]) == 0.0

    def test_all_ties(self):
        assert rank_auc([1, 0, 1, 0], [0.4, 0.4, 0.4, 0.4]) == 0.5

    def test_partial_ties(self):
        # one positive above, one tied with the negative
        truth = [1, 1, 0]
        scores = [0.9, 0.5, 0.5]
        assert rank_auc(truth, scores) == 0.75

    def test_undefined_when_single_class(self):
        assert math.isnan(rank_auc([1, 1], [0.5, 0.2]))
        assert math.isnan(rank_auc([0, 0], [0.5, 0.2]))

    @settings(deadline=None, max_examples=80)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1),
                st.integers(min_value=0, max_value=8),
            ),
            min_size=2,
            max_size=30,
        )
    )
    def test_matches_pairwise_oracle_exactly(self, rows):
        truth = [t for t, _ in rows]
        if len(set(truth)) < 2:
            return
        scores = [s / 8.0 for _, s in rows]  # coarse grid forces ties
        assert rank_auc(truth, scores) == float(pairwise_auc(truth, scores))


class TestComputeMetrics:
    def test_confusion_and_rates(self):
        m = compute_metrics([1, 1, 0, 0, 1], [0.9, 0.4, 0.2, 0.6, 0.8])
        assert (m.tp, m.fp, m.tn, m.fn) == (2, 1, 1, 1)
        assert m.accuracy == pytest.approx(0.6)
        assert m.detection_rate == pytest.approx(2 / 3)
        assert m.f_measure == pytest.approx(2 * (2 / 3) * (2 / 3) / (4 / 3))

    def test_predicts_malware_only_above_one_half(self):
        m = compute_metrics([1, 1, 0], [0.5, 0.5000001, 0.5])
        assert (m.tp, m.fp, m.tn, m.fn) == (1, 0, 1, 1)

    def test_f_measure_zero_when_nothing_predicted(self):
        m = compute_metrics([1, 0], [0.1, 0.1])
        assert m.f_measure == 0.0
        assert m.detection_rate == 0.0

    def test_length_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            compute_metrics([1, 0], [0.5])
        with pytest.raises(ValueError):
            compute_metrics([], [])

    def test_undefined_auc_serializes_as_marker(self):
        m = compute_metrics([1, 1], [0.9, 0.1])
        assert math.isnan(m.auc)
        assert json.loads(dumps(m.to_dict()))["auc"] == "undefined"

    def test_defined_auc_round_trips_to_dict(self):
        m = compute_metrics([1, 0], [0.9, 0.1])
        d = m.to_dict()
        assert d["auc"] == 1.0
        assert d["confusion"] == {"tp": 1, "fp": 0, "tn": 1, "fn": 0}
