"""The dataset JSON writer against its reference: report.dumps(dataset_to_dict(ds))."""

import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from pudroid.datasets import dataset_to_dict, load_dataset, save_dataset
from pudroid.features import FeatureKind, FeatureSpace, PUDataset, SampleRows
from pudroid.report import dumps
from pudroid.synthetic import SyntheticSpec, generate_synthetic

# quotes, backslashes, control characters and non-ASCII text, besides any character
TEXT = st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7f\x85é€ 😀a') | st.characters(), max_size=6)


@st.composite
def datasets(draw) -> PUDataset:
    names = draw(st.lists(TEXT, unique=True, max_size=10))
    kinds = draw(st.lists(st.sampled_from(FeatureKind), min_size=len(names), max_size=len(names)))
    n_p, n_u = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    ids = draw(st.lists(TEXT, unique=True, min_size=n_p + n_u, max_size=n_p + n_u))
    on = st.sets(st.integers(0, len(names) - 1)) if names else st.just(set())

    rows = [sorted(draw(on)) for _ in ids]
    hidden = [draw(st.sampled_from([-1, 1] if i < n_p else [-1, 0, 1])) for i in range(len(ids))]
    space = FeatureSpace(tuple(zip(names, kinds)))
    return PUDataset(space, SampleRows.build(ids, rows, hidden), n_p)


def _assert_written_as_reference(ds: PUDataset, path) -> None:
    save_dataset(ds, path)
    assert path.read_bytes() == dumps(dataset_to_dict(ds)).encode("utf-8")
    assert dataset_to_dict(load_dataset(path)) == dataset_to_dict(ds)


class TestWriterOracle:
    @settings(max_examples=300, deadline=None)
    @given(ds=datasets())
    def test_bytes_equal_reference(self, ds, tmp_path_factory):
        _assert_written_as_reference(ds, tmp_path_factory.mktemp("w") / "ds.json")

    def test_edge_datasets(self, tmp_path):
        space = FeatureSpace((('a"b\\c', FeatureKind.API), ("\x01é😀", FeatureKind.IP_ADDRESS)))
        both = SampleRows.build(["p\n0", "u\t0"], [(), (0, 1)], [1, -1])
        for ds in (
            PUDataset(space, both, 1),
            PUDataset(space, both.between(1, 2), 0),  # empty P
            PUDataset(space, both.between(0, 1), 1),  # empty U
            PUDataset(FeatureSpace(()), SampleRows.build([], [], []), 0),
        ):
            _assert_written_as_reference(ds, tmp_path / "ds.json")

    def test_synthetic_set(self, tmp_path):
        spec = SyntheticSpec(n_positive=80, n_negative=160, dimension=40, seed=5)
        _assert_written_as_reference(generate_synthetic(spec).dataset, tmp_path / "ds.json")


def test_writer_holds_one_sample_not_the_file(tmp_path):
    spec = SyntheticSpec(n_positive=1000, n_negative=2000, dimension=200, seed=1)
    ds, path = generate_synthetic(spec).dataset, tmp_path / "ds.json"
    tracemalloc.start()
    try:
        save_dataset(ds, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 1.2 MB written; a writer that builds the whole text peaks above twice that
    assert peak < 0.25 * path.stat().st_size
