import dataclasses
import weakref

import numpy as np
import pytest

from pudroid import protocols
from pudroid.classifiers import ForestParams, LinearParams, TrainConfig
from pudroid.protocols import (
    ProtocolError,
    protocol_rq1,
    protocol_rq2,
    protocol_rq3,
    protocol_rq4,
    split_test,
)
from pudroid.pu import SplitError
from pudroid.synthetic import SyntheticSpec, generate_synthetic

SPEC = SyntheticSpec(
    n_positive=150,
    n_negative=450,
    dimension=40,
    signal_features=5,
    n_families=2,
    seed=2,
)
CFG = TrainConfig(
    learner="linear",
    linear=LinearParams(1.0, 200, 1e-3),
    forest=ForestParams(n_trees=5),
)


@pytest.fixture(scope="module")
def base():
    return generate_synthetic(SPEC)


class TestSplitTest:
    def test_one_third_per_true_class(self, base):
        pos_tr, neg_tr, test = split_test(base, seed=0)
        assert len(pos_tr) == 100 and len(neg_tr) == 300
        assert len(test) == 50 + 150
        assert base.dataset.samples.hidden[test].sum() == 50

    def test_disjoint_and_complete(self, base):
        pos_tr, neg_tr, test = split_test(base, seed=0)
        ids = [base.dataset.samples.ids[r] for r in np.concatenate([pos_tr, neg_tr, test])]
        assert len(ids) == len(set(ids)) == 600

    def test_seed_changes_selection(self, base):
        _, _, a = split_test(base, seed=0)
        _, _, b = split_test(base, seed=1)
        assert set(a.tolist()) != set(b.tolist())


class TestRq1:
    def test_rows_and_labels(self, base):
        report = protocol_rq1(base, CFG, iterations=2, step=10, seed=0)
        assert report.protocol == "RQ1"
        assert [r.condition for r in report.rows] == ["N=0", "N=1", "N=2"]
        assert report.config["step"] == 10

    def test_too_many_moves_is_an_error(self, base):
        with pytest.raises(ProtocolError):
            protocol_rq1(base, CFG, iterations=11, step=10, seed=0)

    def test_deterministic(self, base):
        a = protocol_rq1(base, CFG, iterations=1, step=10, seed=3)
        b = protocol_rq1(base, CFG, iterations=1, step=10, seed=3)
        assert a == b

    def test_pairs_are_built_as_they_run(self, base, monkeypatch):
        built, alive = [], []
        move, run_pair = protocols._move_positives, protocols._run_pair

        def recording_move(*args):
            ds = move(*args)
            built.append(weakref.ref(ds))
            return ds

        def counting_run_pair(*args):
            alive.append(sum(ref() is not None for ref in built))
            return run_pair(*args)

        monkeypatch.setattr(protocols, "_move_positives", recording_move)
        monkeypatch.setattr(protocols, "_run_pair", counting_run_pair)
        protocol_rq1(base, CFG, iterations=4, step=10, seed=0)
        assert len(built) == 5 and len(alive) == 5
        assert max(alive) <= 2, alive

    def test_config_echoes_generator_and_split(self, base):
        report = protocol_rq1(base, CFG, iterations=0, seed=0, split_fraction=0.25)
        assert report.config["generator"] == dataclasses.asdict(SPEC)
        assert report.config["split_fraction"] == 0.25

    def test_pair_failure_names_its_condition(self, base):
        # N=1 moves every training positive into U, so P has none to validate on
        with pytest.raises(SplitError, match=r"^N=1: split: "):
            protocol_rq1(base, CFG, iterations=1, step=100, seed=0)


class TestRq2:
    def test_rows_cover_ratio_learner_grid(self, base):
        report = protocol_rq2(
            base, [1.0, 2.0], CFG, seed=0, learners=("linear", "tree")
        )
        assert [r.condition for r in report.rows] == [
            "1:1/linear", "1:1/tree", "2:1/linear", "2:1/tree",
        ]
        # the rows name each learner, and cfg.learner trains none of them
        assert report.config["learners"] == ["linear", "tree"]
        assert "learner" not in report.config["train"]

    def test_negative_ratio_is_an_error(self, base):
        with pytest.raises(ProtocolError):
            protocol_rq2(base, [-1.0], CFG, seed=0, learners=("linear",))

    def test_zero_ratio_means_clean(self, base):
        report = protocol_rq2(base, [0.0], CFG, seed=0, learners=("linear",))
        row = report.rows[0]
        assert abs(row.pu.accuracy - row.npu.accuracy) <= 0.02
        assert abs(row.pu.auc - row.npu.auc) <= 0.01


class TestRq3:
    def test_rows_per_family_and_forced_linear(self, base):
        report = protocol_rq3(base, CFG, seed=0)
        assert [r.condition for r in report.rows] == ["family-0", "family-1"]
        assert report.config["train"]["learner"] == "linear"

    def test_single_family_holdout(self, base):
        report = protocol_rq3(base, CFG, seed=0, holdout_family=1)
        assert [r.condition for r in report.rows] == ["family-1"]

    def test_unknown_family_is_an_error(self, base):
        with pytest.raises(ProtocolError):
            protocol_rq3(base, CFG, seed=0, holdout_family=7)

    def test_single_family_generator_is_an_error(self):
        solo = generate_synthetic(
            SyntheticSpec(n_positive=60, n_negative=120, dimension=20,
                          signal_features=4, n_families=1, seed=0)
        )
        with pytest.raises(ProtocolError):
            protocol_rq3(solo, CFG, seed=0)


class TestRq4:
    def test_rows_per_learner(self, base):
        report = protocol_rq4(
            base, CFG, ratio=2.0, seed=0, learners=("linear", "tree")
        )
        assert [r.condition for r in report.rows] == ["2:1/linear", "2:1/tree"]
        assert report.config["learners"] == ["linear", "tree"]
        assert "learner" not in report.config["train"]

    def test_clean_case_matches_no_pu_baseline(self, base):
        report = protocol_rq4(base, CFG, ratio=0.0, seed=0, learners=("linear",))
        row = report.rows[0]
        assert abs(row.pu.accuracy - row.npu.accuracy) <= 0.01

    def test_negative_ratio_is_an_error(self, base):
        with pytest.raises(ProtocolError):
            protocol_rq4(base, CFG, ratio=-2.0, seed=0)

    def test_infeasible_ratio_is_an_error(self, base):
        with pytest.raises(ProtocolError):
            protocol_rq4(base, CFG, ratio=500.0, seed=0)
