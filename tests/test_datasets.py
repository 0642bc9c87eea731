"""The dataset JSON writer against its reference, report.dumps(dataset_to_dict(ds)),
and the reader against its own, dataset_from_dict(json.loads(text))."""

import json
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pudroid.datasets
from pudroid.datasets import dataset_from_dict, dataset_to_dict, load_dataset, save_dataset
from pudroid.features import FeatureKind, FeatureSpace, PUDataset, SampleRows
from pudroid.report import DATASET_SCHEMA, dumps
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


# --------------------------------------------------------------------------
# the reader: load_dataset reads one element at a time; what it refuses goes
# through json.loads and dataset_from_dict, which name the fault


def _reference(text: str) -> dict:
    return dataset_to_dict(dataset_from_dict(json.loads(text)))


class _Layout:
    """Renders a JSON value with drawn whitespace, key order and string escapes."""

    SPACES = ["", " ", "\n", "\t", "\r\n", "\n    ", " \r\n\t "]

    def __init__(self, rnd: random.Random):
        self.rnd = rnd

    def ws(self) -> str:
        return self.rnd.choice(self.SPACES)

    def string(self, s: str) -> str:
        out = []
        for c in s:  # some characters as \uXXXX, the rest raw or escaped as json.dumps does
            if ord(c) < 0x10000 and self.rnd.random() < 0.3:
                out.append(f"\\u{ord(c):04x}")
            else:  # a lone surrogate has no UTF-8 form, so it is always escaped
                raw = self.rnd.random() < 0.5 and not "\ud800" <= c <= "\udfff"
                out.append(json.dumps(c, ensure_ascii=not raw)[1:-1])
        return '"' + "".join(out) + '"'

    def value(self, v, keys=None) -> str:
        if isinstance(v, dict):
            keys = keys or self.rnd.sample(list(v), len(v))
            items = (f"{self.ws()}{self.string(k)}{self.ws()}:{self.ws()}{self.value(v[k])}"
                     for k in keys)
            return "{" + f"{self.ws()},".join(items) + self.ws() + "}"
        if isinstance(v, list):
            return "[" + ",".join(self.ws() + self.value(x) + self.ws() for x in v) + "]"
        return self.string(v) if isinstance(v, str) else json.dumps(v)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=6,
)


def _load(path, window: int):
    """load_dataset with the given window, and whether it read the file whole."""
    module = pudroid.datasets
    with mock.patch.object(module, "_WINDOW", window), \
            mock.patch.object(module, "_load_whole", wraps=module._load_whole) as whole:
        return load_dataset(path), whole.called


class TestReaderOracle:
    @settings(max_examples=200, deadline=None)
    @given(ds=datasets(), window=st.sampled_from([1, 2, 3, 5, 8, 64, 1 << 20]))
    def test_writer_output(self, ds, window, tmp_path_factory):
        path = tmp_path_factory.mktemp("r") / "ds.json"
        save_dataset(ds, path)
        loaded, whole = _load(path, window)
        assert not whole
        assert dataset_to_dict(loaded) == _reference(path.read_text(encoding="utf-8"))

    @settings(max_examples=150, deadline=None)
    @given(ds=datasets(), rnd=st.randoms(use_true_random=False),
           extra=st.dictionaries(st.sampled_from(["note", "version", "é"]), JSON_VALUES,
                                 max_size=2),
           window=st.sampled_from([1, 2, 3, 7, 64, 1 << 20]))
    def test_hand_edited_layouts(self, ds, rnd, extra, window, tmp_path_factory):
        # reordered keys, other whitespace, \uXXXX escapes, extra top-level keys:
        # a text that is not save_dataset's bytes, with or without the final
        # newline, is read whole, to the same result
        data = {**dataset_to_dict(ds), **extra}
        keys = rnd.sample(list(data), len(data))
        text = _Layout(rnd).ws() + _Layout(rnd).value(data, keys) + _Layout(rnd).ws()
        path = tmp_path_factory.mktemp("r") / "ds.json"
        save_dataset(ds, path)
        saved = path.read_bytes()
        path.write_bytes(text.encode("utf-8"))
        loaded, whole = _load(path, window)
        assert whole == (text.encode("utf-8") not in (saved, saved[:-1]))
        assert dataset_to_dict(loaded) == _reference(text) == dataset_to_dict(ds)

    @pytest.mark.parametrize("window", [1, pudroid.datasets._WINDOW])
    def test_benchmark_input_layout_streams(self, tmp_path, window):
        # json.dumps(sort_keys=True, indent=2) with the hidden labels dropped, as
        # the benchmark writes the clean-forest input: save_dataset's own bytes
        spec = SyntheticSpec(n_positive=60, n_negative=120, dimension=40, seed=3)
        data = dataset_to_dict(generate_synthetic(spec).dataset)
        for entry in data["positives"] + data["unlabeled"]:
            entry.pop("hidden", None)
        text = json.dumps(data, sort_keys=True, indent=2) + "\n"
        path = tmp_path / "ds.json"
        path.write_text(text, encoding="utf-8")
        loaded, whole = _load(path, window)
        assert not whole
        assert dataset_to_dict(loaded) == _reference(text)

    @pytest.mark.parametrize("window", [1, 2, pudroid.datasets._WINDOW])
    def test_saved_layout_without_final_newline_streams(self, tmp_path, window):
        # json.dump(data, fh, sort_keys=True, indent=2) leaves the final newline out
        spec = SyntheticSpec(n_positive=60, n_negative=120, dimension=40, seed=3)
        path = tmp_path / "ds.json"
        save_dataset(generate_synthetic(spec).dataset, path)
        text = path.read_text(encoding="utf-8")[:-1]
        path.write_text(text, encoding="utf-8")
        loaded, whole = _load(path, window)
        assert not whole
        assert dataset_to_dict(loaded) == _reference(text)

    def test_repeated_key_is_read_whole(self, tmp_path):
        # json.loads keeps the last of a repeated key; the reader leaves it to it
        text = dumps({"schema": DATASET_SCHEMA, "features": [["a", "api"]],
                      "positives": [{"id": "p", "on": [0]}], "unlabeled": []})
        text = text.replace('"features"', '"schema": "x",\n  "features"')
        path = tmp_path / "ds.json"
        path.write_text(text, encoding="utf-8")
        loaded, whole = _load(path, 1 << 20)
        assert whole
        assert dataset_to_dict(loaded) == _reference(text)


def _doc(**groups) -> str:
    data = {"schema": DATASET_SCHEMA, "features": [["a", "api"], ["b", "permission"]],
            "positives": [{"hidden": 1, "id": "p", "on": [0, 1]}],
            "unlabeled": [{"id": "u", "on": [1]}]}
    return dumps({**data, **groups})


BASE = _doc()


def _first_on(token: str) -> str:
    """BASE with P's first index written as `token`."""
    return BASE.replace('"on": [\n        0,', f'"on": [\n        {token},')


# each message as the loader printed it before it read element by element
MALFORMED = {
    "utf8": (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    "json": ('{"schema": }', "Expecting value: line 1 column 12 (char 11)"),
    "schema": ('{"schema": "x"}', "unsupported dataset schema: 'x'"),
    "no-positives": (json.dumps({"schema": DATASET_SCHEMA, "features": [], "unlabeled": []}),
                     "dataset JSON: missing $.positives"),
    "unsorted-on": (_doc(positives=[{"id": "p", "on": [1, 0]}]),
                    "indices must be strictly increasing"),
    "deep": ("[" * 100000 + "]" * 100000, "dataset JSON: $ is nested too deeply to parse"),
    "repeated-key": (BASE.replace('"schema": "pudroid-dataset/1"',
                                  '"schema": "pudroid-dataset/1",\n  "schema": "x"'),
                     "unsupported dataset schema: 'x'"),
    "bom": ("﻿" + BASE,
            "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    "trailing": (BASE + "x\n", "Extra data: line 32 column 1 (char 331)"),
    "cut-character": (BASE.encode() + b"\xc3", "'utf-8' codec can't decode byte 0xc3 in "
                      "position 331: unexpected end of data"),
    "true-in-on": (_first_on("true"), "dataset JSON: $.positives[0].on must hold only integers"),
    "float-in-on": (_first_on("1.0"), "dataset JSON: $.positives[0].on must hold only integers"),
    "nan-in-on": (_first_on("NaN"), "dataset JSON: $.positives[0].on must hold only integers"),
    "2**70-in-on": (_first_on(str(2**70)), "indices must be strictly increasing"),
    "negative-on": (_first_on("-1"), "negative feature index"),
    "out-of-range": (_doc(unlabeled=[{"id": "u", "on": [2]}]),
                     "sample 'u' has feature index outside space of dimension 2"),
    "duplicate-id": (_doc(unlabeled=[{"id": "p", "on": [1]}]),
                     "sample ids must be unique across P and U"),
    "benign-positive": (_doc(positives=[{"hidden": 0, "id": "p", "on": [0]}]),
                        "sample 'p': a known-benign sample cannot be labeled positive"),
    "duplicate-feature": (_doc(features=[["a", "api"], ["a", "api"]]),
                          "feature 'a' of kind 'api' occurs twice"),
    "duplicate-feature-first": (_doc(features=[["a", "api"], ["a", "api"]],
                                     unlabeled=[{"id": "u", "on": [1.5]}]),
                                "feature 'a' of kind 'api' occurs twice"),
    "unknown-kind": (_doc(features=[["a", "api"], ["b", "url"]]),
                     "dataset JSON: $.features[1][1] must be one of ['api', 'ip', 'permission'],"
                     " got 'url'"),
    "hidden-2": (_doc(unlabeled=[{"hidden": 2, "id": "u", "on": [1]}]),
                 "dataset JSON: $.unlabeled[0].hidden must be 0 or 1, got 2"),
    "hidden-true": (_doc(unlabeled=[{"hidden": True, "id": "u", "on": [1]}]),
                    "dataset JSON: $.unlabeled[0].hidden must be 0 or 1, got true"),
    "id-not-str": (_doc(positives=[{"id": 5, "on": []}]),
                   "dataset JSON: $.positives[0].id must be str, got int"),
    "entry-not-object": (_doc(unlabeled=[[1]]),
                         "dataset JSON: $.unlabeled[0] must be dict, got list"),
    "u-first-fault": ('{"schema": "%s", "features": [], "unlabeled": [{"id": "u", "on": 3}], '
                      '"positives": [{"id": "p"}]}' % DATASET_SCHEMA,
                      "dataset JSON: missing $.positives[0].on"),
    "empty": ("", "Expecting value: line 1 column 1 (char 0)"),
}


class TestReaderErrors:
    @pytest.mark.parametrize("window", [3, 1 << 20])
    @pytest.mark.parametrize("name", MALFORMED)
    def test_message_as_before(self, tmp_path, name, window):
        data, message = MALFORMED[name]
        path = tmp_path / "ds.json"
        path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
        with mock.patch.object(pudroid.datasets, "_WINDOW", window), \
                pytest.raises(ValueError) as err:
            load_dataset(path)
        assert str(err.value) == f"{path}: {message}"

    def test_truncated_file_names_the_json_fault(self, tmp_path):
        text = BASE
        path = tmp_path / "ds.json"
        for cut in range(len(text.rstrip()) - 1):
            path.write_text(text[:cut], encoding="utf-8")
            with pytest.raises(json.JSONDecodeError) as expected:
                json.loads(text[:cut])
            with mock.patch.object(pudroid.datasets, "_WINDOW", 4), \
                    pytest.raises(ValueError) as err:
                load_dataset(path)
            assert str(err.value) == f"{path}: {expected.value}"


def test_reader_holds_the_arrays_and_a_window_not_the_text(tmp_path):
    # 1000 features, so that most indices are not cached small ints: json.loads
    # holds the text and a 36-byte int per index, the reader 8 bytes per index
    spec = SyntheticSpec(n_positive=1000, n_negative=2000, dimension=1000, seed=1)
    path = tmp_path / "ds.json"
    save_dataset(generate_synthetic(spec).dataset, path)
    peaks = {}
    for load in (load_dataset, pudroid.datasets._load_whole):
        tracemalloc.start()
        try:
            rows = load(path).samples
            peaks[load] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    arrays = rows.indptr.nbytes + rows.indices.nbytes + rows.hidden.nbytes  # 2.5 MB
    # the window is held as bytes, as the old text and as the new one at a refill
    bound = 2 * arrays + 3 * pudroid.datasets._WINDOW
    assert peaks[load_dataset] < bound < peaks[pudroid.datasets._load_whole]
