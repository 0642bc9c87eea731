import operator
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pudroid.features
from conftest import dataset_from_rows, matrix_of, pu_datasets, row_lists, rows_of, space_of
from pudroid.datasets import dataset_from_dict, dataset_to_dict
from pudroid.features import (
    BinaryMatrix,
    DatasetError,
    DimensionError,
    FeatureSpace,
    PUDataset,
    dense_matrix,
    offsets,
)
from pudroid.synthetic import SyntheticSpec, generate_synthetic


class TestFeatureSpace:
    def test_repeated_feature_rejected(self):
        features = (("a", "api"), ("a", "permission"), ("a", "api"))
        with pytest.raises(DatasetError, match="feature 'a' of kind 'api' occurs twice"):
            FeatureSpace(features)

    def test_index_of_is_inverse_of_order(self):
        space = space_of(5)
        index = space.index_of()
        for i, (name, kind) in enumerate(space.features):
            assert index[kind, name] == i


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
        PUDataset(space_of(1), rows_of(["a", "b", "c"], [(0,), (), ()], [1, 0, -1]), 1)

    def test_rejects_bad_hidden(self):
        with pytest.raises(DatasetError, match="hidden must be 0, 1 or absent, got 3"):
            rows_of(["a"], [()], [3])

    def test_rejects_labeled_positive_with_benign_truth(self):
        with pytest.raises(DatasetError, match="'b': a known-benign sample"):
            PUDataset(space_of(1), rows_of(["a", "b"], [(), ()], [1, 0]), 2)


class TestPUDataset:
    def test_rejects_duplicate_ids(self):
        with pytest.raises(DatasetError, match="unique across P and U"):
            PUDataset(space_of(3), rows_of(["a", "a"], [(), ()]), 1)

    @pytest.mark.parametrize("n_positive", [-1, 3])
    def test_split_count_must_fit_the_block(self, n_positive):
        with pytest.raises(DatasetError, match=f"{n_positive} positives do not fit a block of 2"):
            PUDataset(space_of(1), rows_of(["a", "b"], [(), ()]), n_positive)

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

    def test_holds_its_rows_once(self):
        base = generate_synthetic(SyntheticSpec(n_positive=500, n_negative=1500, seed=3)).dataset
        rows = base.samples
        tracemalloc.start()
        try:
            ds = PUDataset(base.space, rows.take(np.arange(len(rows))), base.n_positive)
            ds.positives, ds.unlabeled  # the group views are built on first use
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        block = ds.samples
        # the rest is the groups' id tuples and U's rebased indptr (2.08x when
        # the dataset kept the groups and their concatenation)
        assert retained <= 1.25 * (block.indptr.nbytes + block.indices.nbytes + block.hidden.nbytes)
        for group in (ds.positives, ds.unlabeled):
            assert np.shares_memory(group.indices, block.indices)
            assert np.shares_memory(group.hidden, block.hidden)
            for array in (block.indptr, block.indices, block.hidden,
                          group.indptr, group.indices, group.hidden):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0

    @settings(max_examples=200, deadline=None)
    @given(ds=pu_datasets(), data=st.data())
    def test_groups_are_views_of_the_block(self, ds, data):
        # the rows in a random order, split at a random count; either group may
        # be empty, and P takes no known-benign sample
        block = ds.samples.take(data.draw(st.permutations(range(len(ds.samples)))))
        benign = np.flatnonzero(block.hidden == 0)
        n_p = data.draw(st.integers(0, benign[0] if len(benign) else len(block)))
        split = PUDataset(ds.space, block, n_p)
        assert split.samples is block
        lists = row_lists(block)
        for group, a, b in ((split.positives, 0, n_p), (split.unlabeled, n_p, len(block))):
            assert group.ids == block.ids[a:b]
            assert row_lists(group) == lists[a:b]
            assert group.hidden.tolist() == block.hidden[a:b].tolist()
            if len(group.indices):
                assert np.shares_memory(group.indices, block.indices)
            if len(group):
                assert np.shares_memory(group.hidden, block.hidden)
            for array in (block.indptr, block.indices, block.hidden,
                          group.indptr, group.indices, group.hidden):
                assert array.dtype == np.int64
                assert not array.flags.writeable
        doc = dataset_to_dict(split)
        assert [s["id"] for s in doc["positives"] + doc["unlabeled"]] == list(block.ids)
        loaded = dataset_from_dict(doc)
        assert loaded.n_positive == n_p
        assert dataset_to_dict(loaded) == doc


def _old_row_rule(sid: str, row) -> str | None:
    """The per-sample index check SampleRows replaced: its error, or None."""
    if row and min(row) < 0:
        return f"sample {sid!r}: negative feature index"
    if not all(map(operator.lt, row, row[1:])):
        return f"sample {sid!r}: indices must be strictly increasing"
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
        ids = [str(i) for i in range(len(rows))]
        errors = [e for e in map(_old_row_rule, ids, rows) if e]
        try:
            built = rows_of(ids, rows)
        except DimensionError as exc:
            assert str(exc) in errors
        else:
            assert not errors
            assert row_lists(built) == [list(r) for r in rows]

    @settings(max_examples=200, deadline=None)
    @given(ds=pu_datasets(), data=st.data())
    def test_take_matches_list_operations(self, ds, data):
        both = ds.samples
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


def _unchunked(M: BinaryMatrix, w: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X @ w and X.T @ r as the products computed them before they were chunked:
    one gather over every stored one and one reduceat over the non-empty rows,
    and the same over the ones in column order (a stable argsort of the
    indices) for the columns."""
    (n, d), lengths = M.shape, np.diff(M.indptr)
    xw, xtr = np.zeros(n), np.zeros(d)
    rows = np.flatnonzero(lengths)
    if len(rows):
        xw[rows] = np.add.reduceat(w[M.indices], M.indptr[rows])
    colptr = offsets(np.bincount(M.indices, minlength=d))
    cols = np.flatnonzero(np.diff(colptr))
    if len(cols):
        row_of = np.repeat(np.arange(n), lengths)[np.argsort(M.indices, kind="stable")]
        xtr[cols] = np.add.reduceat(r[row_of], colptr[cols])
    return xw, xtr


# rows over d = 7 columns, column 3 never set; the last row has every other
# column, so columns 0, 1, 2, 4, 5 and 6 can hold runs longer than a chunk
CHUNK_ROWS = st.lists(st.sets(st.sampled_from([0, 1, 2, 4, 5, 6])).map(sorted), max_size=40)


class TestChunkedProducts:
    """X @ w and X.T @ r, gathered and reduced a chunk at a time, against one
    reduceat over every stored one, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(rows=CHUNK_ROWS, chunk=st.integers(1, 64), n_p=st.integers(0, 3),
           seed=st.integers(0, 2**32 - 1), gathered=st.booleans())
    def test_bit_identical_to_one_reduceat(self, rows, chunk, n_p, seed, gathered):
        rows = [[], *rows[: len(rows) // 2], [], *rows[len(rows) // 2:], [0, 1, 2, 4, 5, 6]]
        ds = PUDataset(space_of(7), rows_of([str(i) for i in range(len(rows))], rows),
                       min(n_p, len(rows)))
        M = BinaryMatrix.from_rows(ds.samples, 7)
        if gathered:  # a writeable block, as the learners' training rows are
            M = M[np.arange(len(rows))]
        assert M.indices.flags.writeable == gathered
        rng = np.random.default_rng(seed)
        # magnitudes far apart, so that a sum in another order shows in the bits
        w = rng.standard_normal(7) * 10.0 ** rng.integers(-8, 9, 7)
        r = rng.standard_normal(len(rows)) * 10.0 ** rng.integers(-8, 9, len(rows))
        with mock.patch.object(pudroid.features, "_CHUNK", chunk):
            xw, xtr = M @ w, M.rmatvec(r)
            segments = M._row_segments, M._column_segments[0]
        want_xw, want_xtr = _unchunked(M, w, r)
        assert xw.tobytes() == want_xw.tobytes()
        assert xtr.tobytes() == want_xtr.tobytes()
        run_lengths = np.diff(M.indptr), np.bincount(M.indices, minlength=7)
        for plan, lengths in zip(segments, run_lengths):
            # whole runs, in order, tiling the stored ones; none longer than a
            # chunk unless its longest run is
            ends = [(a, b) for _, _, a, b in plan.chunks]
            assert [a for a, _ in ends] == [0] + [b for _, b in ends[:-1]]
            assert (ends[-1][1] if ends else 0) == len(M.indices)
            assert all(b - a < chunk + lengths.max() for a, b in ends)

    def test_column_row_index_is_narrow(self):
        M = BinaryMatrix.from_rows(rows_of(["a", "b", "c"], [[1], [0, 1], []]), 2)
        row_of = M._column_segments[1]
        assert row_of.dtype == np.uint8 and row_of.tolist() == [1, 0, 1]

    @pytest.mark.parametrize("d", [0, 1])
    def test_keys_hold_the_row_count_when_d_is_below_two(self, d):
        # 256 rows: n * d - 1 fits a uint8 but n does not
        M = BinaryMatrix.from_rows(rows_of([str(i) for i in range(256)], [[0] * d] * 256), d)
        assert M.rmatvec(np.ones(256)).tolist() == [256.0] * d
        assert (M @ np.ones(d)).tolist() == [float(d)] * 256


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_products_hold_no_index_long_temporary():
    spec = SyntheticSpec(n_positive=2000, n_negative=6000, dimension=480, seed=4)
    X = BinaryMatrix.from_rows(generate_synthetic(spec).dataset.samples, spec.dimension)
    assert 380_000 < len(X.indices) < 420_000 and not X.indices.flags.writeable
    n, d = X.shape
    one_int64_per_one = 8 * len(X.indices)
    w, r = np.ones(d), np.ones(n)
    # the row index in column order: 4-byte keys and the rows they add, then the
    # 2-byte index (3.0x when it was a stable argsort and two int64 gathers)
    assert _traced_peak(lambda: X._column_segments) < 1.25 * one_int64_per_one
    # a product: a chunk of the index (copied, as take copies a read-only or a
    # narrow index) and a chunk of gathered values (2.0x and 1.0x when each
    # product gathered every one at once)
    assert _traced_peak(lambda: X @ w) < 0.5 * one_int64_per_one
    assert _traced_peak(lambda: X.rmatvec(r)) < 0.5 * one_int64_per_one
