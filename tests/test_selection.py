import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dataset_from_rows, pu_datasets, random_dataset, row_lists
from pudroid.datasets import dataset_to_dict
from pudroid.selection import (
    ConfigError,
    OccurrenceCounts,
    SelectionThresholds,
    compute_thresholds,
    count_occurrences,
    project_dataset,
    select_features,
)
from pudroid.synthetic import SyntheticSpec, generate_synthetic


class TestThresholds:
    def test_default_eta_example(self):
        ds = dataset_from_rows([()] * 500, [()] * 1000, 1)
        th = compute_thresholds(ds, eta=2.0)
        assert (th.tm, th.tb) == (2, 4)  # tb = ceil(2 * 1000 / 500)

    def test_uneven_ratio_rounds_up(self):
        ds = dataset_from_rows([()] * 3, [()] * 7, 1)
        th = compute_thresholds(ds, eta=2.0)
        assert (th.tm, th.tb) == (2, 5)  # ceil(14 / 3)

    def test_more_positives_than_unlabeled(self):
        ds = dataset_from_rows([()] * 10, [()] * 5, 1)
        th = compute_thresholds(ds, eta=2.0)
        assert (th.tm, th.tb) == (2, 1)

    def test_empty_group_is_an_error(self):
        with pytest.raises(ConfigError):
            compute_thresholds(dataset_from_rows([], [()], 1))
        with pytest.raises(ConfigError):
            compute_thresholds(dataset_from_rows([()], [], 1))

    def test_eta_below_one_is_an_error(self):
        with pytest.raises(ConfigError):
            compute_thresholds(dataset_from_rows([()], [()], 1), eta=0.5)

    def test_thresholds_must_be_positive(self):
        with pytest.raises(ConfigError):
            SelectionThresholds(eta=1.0, tm=0, tb=1)


class TestSelection:
    def test_count_occurrences(self):
        ds = dataset_from_rows([(0, 1), (1,)], [(2,), (1, 2)], 3)
        counts = count_occurrences(ds)
        assert counts.count_p == (1, 2, 0)
        assert counts.count_u == (0, 1, 2)

    def test_counts_hold_a_chunk_not_a_copy_of_the_indices(self):
        # a read-only int64 index array, as every dataset holds, of about 400k
        # ones: np.bincount over it whole copies it first (2.3 MB for U)
        spec = SyntheticSpec(n_positive=1000, n_negative=3000, dimension=1000, seed=2)
        ds = generate_synthetic(spec).dataset
        tracemalloc.start()
        try:
            counts = count_occurrences(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for group, got in ((ds.positives, counts.count_p), (ds.unlabeled, counts.count_u)):
            assert got == tuple(np.bincount(group.indices.copy(), minlength=1000).tolist())
        assert peak < ds.unlabeled.indices.nbytes / 2

    def test_or_rule(self):
        counts = OccurrenceCounts(count_p=(2, 0, 1, 0), count_u=(0, 4, 0, 3))
        th = SelectionThresholds(eta=2.0, tm=2, tb=4)
        # f0 frequent in P, f1 frequent in U, f2/f3 below both thresholds
        assert select_features(counts, th) == [0, 1]

    def test_raising_tm_never_adds_features(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, 20, 40, 30)
        counts = count_occurrences(ds)
        previous = None
        for tm in range(1, 8):
            kept = set(select_features(counts, SelectionThresholds(2.0, tm, 4)))
            if previous is not None:
                assert kept <= previous
            previous = kept

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            ds = random_dataset(
                rng, int(rng.integers(1, 30)), int(rng.integers(1, 60)), 25
            )
            th = compute_thresholds(ds, eta=float(rng.uniform(1, 4)))
            expected = []
            for i in range(25):
                cp = sum(i in row for row in row_lists(ds.positives))
                cu = sum(i in row for row in row_lists(ds.unlabeled))
                if cp >= th.tm or cu >= th.tb:
                    expected.append(i)
            assert select_features(count_occurrences(ds), th) == expected


class TestProjection:
    def test_reindexes_and_preserves_labels(self):
        ds = dataset_from_rows([(0, 2, 4)], [(1, 2)], 5)
        out = project_dataset(ds, [2, 4])
        assert out.space.dimension == 2
        assert row_lists(out.positives) == [[0, 1]]
        assert row_lists(out.unlabeled) == [[0]]
        assert out.positives.ids == ("p0",)

    def test_out_of_range_index_is_an_error(self):
        ds = dataset_from_rows([(0,)], [(1,)], 2)
        with pytest.raises(ValueError):
            project_dataset(ds, [0, 2])

    def test_full_projection_is_identity(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, 5, 5, 12)
        assert dataset_to_dict(project_dataset(ds, range(12))) == dataset_to_dict(ds)


def _reference_project(data: dict, retained) -> dict:
    """The per-sample remap project_dataset replaced, on dataset_to_dict output."""
    retained_sorted = sorted(retained)
    remap = [-1] * len(data["features"])
    for new, old in enumerate(retained_sorted):
        remap[old] = new

    def sample(s: dict) -> dict:
        return {**s, "on": [remap[i] for i in s["on"] if remap[i] >= 0]}

    return {
        **data,
        "features": [data["features"][i] for i in retained_sorted],
        "positives": list(map(sample, data["positives"])),
        "unlabeled": list(map(sample, data["unlabeled"])),
    }


class TestSelectionOracle:
    @settings(max_examples=200, deadline=None)
    @given(ds=pu_datasets())
    def test_counts_match_counter(self, ds):
        counts = count_occurrences(ds)
        for group, got in ((ds.positives, counts.count_p), (ds.unlabeled, counts.count_u)):
            expected = Counter(i for row in row_lists(group) for i in row)
            assert list(got) == [expected[i] for i in range(ds.space.dimension)]

    @settings(max_examples=200, deadline=None)
    @given(ds=pu_datasets(), data=st.data())
    def test_projection_matches_per_sample_remap(self, ds, data):
        d = ds.space.dimension
        retained = data.draw(st.sets(st.integers(0, max(d - 1, 0))) if d else st.just(set()))
        got = dataset_to_dict(project_dataset(ds, list(retained)))
        assert got == _reference_project(dataset_to_dict(ds), retained)
