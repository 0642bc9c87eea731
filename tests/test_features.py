import operator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dataset_from_rows, matrix_of, pu_datasets, row_lists, rows_of, space_of
from pudroid.features import (
    BinaryMatrix,
    DatasetError,
    DimensionError,
    FeatureKind,
    FeatureSpace,
    PUDataset,
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

    def test_name_in_two_kinds_is_two_features(self):
        space = FeatureSpace.build([("api", "a"), ("permission", "a")])
        assert space.index_of() == {("api", "a"): 0, ("permission", "a"): 1}

    def test_repeated_feature_rejected(self):
        features = (("a", FeatureKind.API), ("a", FeatureKind.PERMISSION), ("a", FeatureKind.API))
        with pytest.raises(DatasetError, match="feature 'a' of kind 'api' occurs twice"):
            FeatureSpace(features)

    def test_index_of_is_inverse_of_order(self):
        space = space_of(5)
        index = space.index_of()
        for i, (name, kind) in enumerate(space.features):
            assert index[kind.value, name] == i


class TestSparseBinaryVector:
    """The rule on one sample's on-indices, checked by SampleRows on every row."""

    def test_rejects_negative_index(self):
        with pytest.raises(DimensionError, match="negative feature index"):
            rows_of(["a", "b"], [(), (-1, 2)])

    def test_rejects_unsorted_indices(self):
        with pytest.raises(DimensionError, match="strictly increasing"):
            rows_of(["a"], [(2, 1)])
        with pytest.raises(DimensionError, match="strictly increasing"):
            rows_of(["a", "b"], [(0,), (1, 1)])


class TestAppSample:
    """The rules on one sample's hidden label, checked by SampleRows and PUDataset."""

    def test_valid_states(self):
        PUDataset(space_of(1), rows_of(["a"], [(0,)], [1]), rows_of(["b", "c"], [(), ()], [0, -1]))

    def test_rejects_bad_hidden(self):
        with pytest.raises(DatasetError, match="hidden must be 0, 1 or absent, got 3"):
            rows_of(["a"], [()], [3])

    def test_rejects_labeled_positive_with_benign_truth(self):
        with pytest.raises(DatasetError, match="'b': a known-benign sample"):
            PUDataset(space_of(1), rows_of(["a", "b"], [(), ()], [1, 0]), rows_of([], []))


class TestPUDataset:
    def test_rejects_duplicate_ids(self):
        with pytest.raises(DatasetError, match="unique across P and U"):
            PUDataset(space_of(3), rows_of(["a"], [()]), rows_of(["a"], [()]))

    def test_rejects_out_of_space_index(self):
        with pytest.raises(DimensionError, match="'u1' has feature index outside"):
            dataset_from_rows([(0,)], [(1,), (0, 2)], 2)

    def test_samples_order_and_dense_matrix(self):
        ds = dataset_from_rows([(0, 2)], [(1,), ()], 3)
        assert ds.samples.ids == ("p0", "u0", "u1")
        out = dense_matrix(ds.samples, 3)
        assert out.dtype == np.float64
        assert out.tolist() == [[1, 0, 1], [0, 1, 0], [0, 0, 0]]

    def test_dense_matrix_subset(self):
        ds = dataset_from_rows([(0,)], [(1,)], 2)
        out = dense_matrix(ds.unlabeled, 2)
        assert out.tolist() == [[0, 1]]


def _old_row_rule(row) -> str | None:
    """The per-sample index check SampleRows replaced: its error, or None."""
    if row and min(row) < 0:
        return "negative feature index"
    if not all(map(operator.lt, row, row[1:])):
        return "indices must be strictly increasing"
    return None


# row lists with empty rows first, in the middle and last
EDGE_ROWS = [[], [3, 1], [], [0, 2], []]
ROWS = st.lists(
    st.sets(st.integers(0, 9)).map(sorted) | st.lists(st.integers(-2, 9), max_size=4),
    max_size=8,
)


class TestRowsOracle:
    """SampleRows and dense_matrix against the per-row code they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(rows=ROWS)
    @example(rows=EDGE_ROWS)
    @example(rows=[[], [], [-1]])
    def test_accepts_and_rejects_as_the_row_rule(self, rows):
        errors = [e for e in map(_old_row_rule, rows) if e]
        try:
            built = rows_of([str(i) for i in range(len(rows))], rows)
        except DimensionError as exc:
            assert str(exc) in errors
        else:
            assert not errors
            assert row_lists(built) == [list(r) for r in rows]

    @settings(max_examples=200, deadline=None)
    @given(ds=pu_datasets(), data=st.data())
    def test_take_and_add_match_list_operations(self, ds, data):
        p, u = ds.positives, ds.unlabeled
        both = p + u
        assert both.ids == p.ids + u.ids
        assert row_lists(both) == row_lists(p) + row_lists(u)
        assert both.hidden.tolist() == p.hidden.tolist() + u.hidden.tolist()
        order = data.draw(st.lists(st.integers(0, max(len(both) - 1, 0)), max_size=10))
        order = order if len(both) else []
        taken = both.take(order)
        assert taken.ids == tuple(both.ids[i] for i in order)
        assert row_lists(taken) == [row_lists(both)[i] for i in order]
        assert taken.hidden.tolist() == [both.hidden[i] for i in order]

    @settings(max_examples=200, deadline=None)
    @given(ds=pu_datasets())
    def test_dense_matrix_matches_row_loop(self, ds):
        d = ds.space.dimension
        expected = np.zeros((len(ds.samples), d))
        for r, row in enumerate(row_lists(ds.samples)):
            expected[r, row] = 1.0
        assert np.array_equal(dense_matrix(ds.samples, d), expected)


def _padded(ds: PUDataset) -> tuple[BinaryMatrix, np.ndarray]:
    """(matrix, dense twin) of ds.samples with empty rows at the start, middle and
    end and all-zero first and last columns."""
    rows = [[j + 1 for j in row] for row in row_lists(ds.samples)]
    mid = len(rows) // 2
    rows = [[], *rows[:mid], [], *rows[mid:], []]
    block, d = rows_of([str(i) for i in range(len(rows))], rows), ds.space.dimension + 2
    return BinaryMatrix.from_rows(block, d), dense_matrix(block, d)


class TestBinaryMatrixOracle:
    """The CSR products, gather and bool view against numpy on the dense matrix."""

    @settings(max_examples=200, deadline=None)
    @given(ds=pu_datasets(), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_products_gather_and_transpose_match_dense(self, ds, seed, data):
        M, X = _padded(ds)
        n, d = X.shape
        assert M.shape == (n, d)
        rng = np.random.default_rng(seed)
        w, r = rng.standard_normal(d), rng.standard_normal(n)
        np.testing.assert_allclose(M @ w, X @ w, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(M.rmatvec(r), X.T @ r, rtol=1e-12, atol=1e-12)
        assert M.bool_rows.flags.c_contiguous and np.array_equal(M.bool_rows, X > 0)
        order = data.draw(st.lists(st.integers(0, n - 1), max_size=12))
        assert np.array_equal(M[order].bool_rows, X[order])
        twin = matrix_of(X)
        assert np.array_equal(twin.indptr, M.indptr) and np.array_equal(twin.indices, M.indices)
