import numpy as np
import pytest

from conftest import dataset_from_rows, sample, space_of
from pudroid.features import (
    AppSample,
    DatasetError,
    DimensionError,
    FeatureKind,
    FeatureSpace,
    PUDataset,
    SparseBinaryVector,
    dense_matrix,
)


class TestFeatureSpace:
    def test_build_orders_by_kind_then_name(self):
        space = FeatureSpace.build(
            [
                ("permission", "SEND_SMS"),
                ("api", "getDeviceId"),
                ("ip", "1.2.3.x"),
                ("permission", "INTERNET"),
            ]
        )
        assert space.features == (
            ("getDeviceId", FeatureKind.API),
            ("1.2.3.x", FeatureKind.IP_ADDRESS),
            ("INTERNET", FeatureKind.PERMISSION),
            ("SEND_SMS", FeatureKind.PERMISSION),
        )
        assert space.dimension == 4

    def test_build_collapses_duplicates(self):
        space = FeatureSpace.build([("api", "a"), ("api", "a"), ("api", "b")])
        assert space.dimension == 2

    def test_duplicate_names_rejected(self):
        with pytest.raises(DatasetError):
            FeatureSpace.build([("api", "a"), ("permission", "a")])

    def test_index_of_is_inverse_of_order(self):
        space = space_of(5)
        index = space.index_of()
        for i, (name, kind) in enumerate(space.features):
            assert index[kind.value, name] == i


class TestSparseBinaryVector:
    def test_from_indices_sorts_and_dedupes(self):
        v = SparseBinaryVector.from_indices([4, 1, 4, 2])
        assert v.indices == (1, 2, 4)

    def test_rejects_negative_index(self):
        with pytest.raises(DimensionError):
            SparseBinaryVector((-1, 2))

    def test_rejects_unsorted_indices(self):
        with pytest.raises(DimensionError):
            SparseBinaryVector((2, 1))
        with pytest.raises(DimensionError):
            SparseBinaryVector((1, 1))


class TestAppSample:
    def test_valid_states(self):
        sample("a", (0,), 1, 1)
        sample("b", (), 0, 0)
        sample("c", (), 0, None)

    def test_rejects_bad_discovery(self):
        with pytest.raises(DatasetError):
            sample("a", (), 2)

    def test_rejects_bad_hidden(self):
        with pytest.raises(DatasetError):
            sample("a", (), 0, 3)

    def test_rejects_labeled_positive_with_benign_truth(self):
        with pytest.raises(DatasetError):
            sample("a", (), 1, 0)


class TestPUDataset:
    def test_groups_must_match_discovery(self):
        space = space_of(3)
        with pytest.raises(DatasetError):
            PUDataset(space, (sample("a", (), 0),), ())
        with pytest.raises(DatasetError):
            PUDataset(space, (), (sample("a", (), 1, 1),))

    def test_rejects_duplicate_ids(self):
        space = space_of(3)
        with pytest.raises(DatasetError):
            PUDataset(space, (sample("a", (), 1),), (sample("a", (), 0),))

    def test_rejects_out_of_space_index(self):
        with pytest.raises(DimensionError):
            PUDataset(space_of(2), (sample("a", (2,), 1),), ())

    def test_samples_order_and_dense_matrix(self):
        ds = dataset_from_rows([(0, 2)], [(1,), ()], 3)
        assert [s.id for s in ds.samples] == ["p0", "u0", "u1"]
        out = dense_matrix(ds.samples, 3)
        assert out.dtype == np.float64
        assert out.tolist() == [[1, 0, 1], [0, 1, 0], [0, 0, 0]]

    def test_dense_matrix_subset(self):
        ds = dataset_from_rows([(0,)], [(1,)], 2)
        out = dense_matrix(ds.unlabeled, 2)
        assert out.tolist() == [[0, 1]]
