from dataclasses import dataclass
import random
import tempfile
import tracemalloc
from pathlib import Path
from typing import Iterable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import row_lists
from pudroid.datasets import dataset_to_dict, load_dataset, save_dataset
from pudroid.features import DatasetError, FeatureSpace, PUDataset, SampleRows
from pudroid.ingest import (
    KIND_TAGS,
    ManifestRow,
    ParseError,
    build_dataset,
    load_manifest,
    load_resolver_map,
    truncate_ip,
)


# The three-stage parser that ingest's line-by-line pass replaced, kept as its reference.
@dataclass(frozen=True)
class RawFeatureLine:
    kind_tag: str
    value: str


def parse_feature_file(text: str) -> list[RawFeatureLine]:
    """One RawFeatureLine per non-blank, non-comment line; duplicates collapse."""
    out: list[RawFeatureLine] = []
    seen: set[tuple[str, str]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "::" not in line:
            raise ParseError(f"line {lineno}: missing '::' separator: {line!r}")
        kind_tag, value = line.split("::", 1)
        kind_tag = kind_tag.strip()
        value = value.strip()
        if kind_tag not in KIND_TAGS:
            raise ParseError(f"line {lineno}: unknown kind tag {kind_tag!r}")
        if not value:
            raise ParseError(f"line {lineno}: empty feature value")
        key = (kind_tag, value)
        if key not in seen:
            seen.add(key)
            out.append(RawFeatureLine(kind_tag, value))
    return out


def resolve_urls(
    lines: Iterable[RawFeatureLine], resolver: dict[str, str]
) -> list[RawFeatureLine]:
    """Replace resolvable url lines with ip lines; drop unresolvable urls."""
    out: list[RawFeatureLine] = []
    seen: set[tuple[str, str]] = set()
    for line in lines:
        if line.kind_tag == "url":
            ip = resolver.get(line.value)
            if ip is None:
                continue
            line = RawFeatureLine("ip", ip)
        key = (line.kind_tag, line.value)
        if key not in seen:
            seen.add(key)
            out.append(line)
    return out


def feature_pairs(lines: Iterable[RawFeatureLine]) -> set[tuple[str, str]]:
    """(name, kind) pairs after IP truncation; url lines must be resolved first."""
    pairs: set[tuple[str, str]] = set()
    for line in lines:
        if line.kind_tag == "url":
            raise ParseError("url lines must be resolved before vectorization")
        name = truncate_ip(line.value) if line.kind_tag == "ip" else line.value
        pairs.add((name, line.kind_tag))
    return pairs


def reference_keys(text: str, resolver: dict[str, str]) -> set[tuple[str, str]]:
    pairs = feature_pairs(resolve_urls(parse_feature_file(text), resolver))
    return {(kind, name) for name, kind in pairs}


def outcome(parse, *args):
    """The key set, or the message of the ParseError raised instead."""
    try:
        return parse(*args)
    except ParseError as exc:
        return f"ParseError: {exc}"


RESOLVER = {
    "a.example": "1.2.3.4",
    "b.example": "1.2.3.200",  # same /24 as a.example
    "c.example": "10.0.0.1",
    "pad.example": " 10.0.0.9 ",  # truncate_ip strips it
    "bad.example": "300.1.2.3",  # resolves to a malformed address
}
VALUES = st.sampled_from([
    "SEND_SMS", "x", "a::b", "a::b::c", "1.2.3.4", "1.2.3.77", "10.0.0.5", "1.2.3",
    "1.2.3.256", "a.b.c.d", "a.example", "b.example", "c.example", "pad.example",
    "bad.example", "gone.example", "é", ":",
])
PAD = st.sampled_from(["", " ", "\t", "  "])


@st.composite
def feature_lines(draw) -> str:
    # faults are rare enough that most files parse and some have several
    shape = draw(st.sampled_from(["feature"] * 24 + ["comment", "blank"] * 2 + ["no-sep", "empty"]))
    tag = draw(st.sampled_from(KIND_TAGS * 8 + ("intent", "API", "")))
    if shape == "comment":
        return draw(PAD) + "# " + draw(VALUES)
    if shape == "blank":
        return draw(PAD)
    if shape == "no-sep":
        return draw(PAD) + tag + " " + draw(VALUES).replace("::", "")
    value = "" if shape == "empty" else draw(VALUES)
    return draw(PAD) + tag + draw(PAD) + "::" + draw(PAD) + value + draw(PAD)


FILES = st.lists(feature_lines(), max_size=12).map(lambda lines: "\n".join(lines) + "\n")


def ingest_keys(text: str, resolver: dict[str, str]) -> set[tuple[str, str]]:
    """The (kind, name) keys of the space of a one-app ingest of `text`."""
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "app.txt").write_text(text, encoding="utf-8")
        ds = build_dataset([ManifestRow("app", "app.txt", "positive")], resolver, tmp)
    return set(ds.space.index_of())


def one_app(build, text: str):
    """ingest_outcome of build on a manifest of one positive app with file `text`."""
    return ingest_outcome(build, [text], ["positive"])


class TestFeatureKeysOracle:
    @settings(max_examples=500, deadline=None)
    @given(texts=st.lists(FILES, min_size=1, max_size=3))
    def test_same_keys_or_same_error_as_reference(self, texts):
        for text in texts:
            assert one_app(ingested, text) == one_app(reference_dataset, text)

    @pytest.mark.parametrize("text, error", [
        ("ip::1.2.3\nbroken\n", "line 2: missing '::' separator"),
        ("ip::1.2.3\nurl::bad.example\nintent::x\n", "line 3: unknown kind tag"),
        ("url::bad.example\nip::1.2.3\n", "malformed IPv4 address: '300.1.2.3'"),
        ("api::\napi::ok\nbroken\n", "line 1: empty feature value"),
    ])
    def test_several_faults_report_the_reference_error(self, text, error):
        with pytest.raises(ParseError, match=error):
            ingest_keys(text, RESOLVER)
        assert one_app(ingested, text) == one_app(reference_dataset, text)


class TestParseFeatureFile:
    def test_basic_lines(self):
        text = "permission::SEND_SMS\napi::getDeviceId\nurl::evil.example\nip::1.2.3.4\n"
        assert ingest_keys(text, {"evil.example": "5.6.7.8"}) == {
            ("permission", "SEND_SMS"),
            ("api", "getDeviceId"),
            ("ip", "5.6.7.x"),
            ("ip", "1.2.3.x"),
        }

    def test_comments_blanks_and_duplicates(self):
        text = "# header\n\n  api::x  \napi::x\npermission::P\n"
        assert ingest_keys(text, {}) == {("api", "x"), ("permission", "P")}

    def test_missing_separator_reports_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            ingest_keys("api::ok\nbroken line\n", {})

    def test_unknown_kind_tag_is_an_error(self):
        with pytest.raises(ParseError, match="unknown kind tag"):
            ingest_keys("intent::android.intent.action.MAIN\n", {})

    def test_empty_value_is_an_error(self):
        with pytest.raises(ParseError, match="empty feature value"):
            ingest_keys("api::   \n", {})

    def test_value_may_contain_separator(self):
        assert ingest_keys("api::a::b\n", {}) == {("api", "a::b")}


class TestTruncateIp:
    def test_keeps_three_octets(self):
        assert truncate_ip("216.59.192.44") == "216.59.192.x"

    def test_idempotent_input_shape(self):
        assert truncate_ip("0.0.0.255") == "0.0.0.x"

    @pytest.mark.parametrize(
        "bad", ["1.2.3", "1.2.3.4.5", "a.b.c.d", "1.2.3.256", "", "1.2.3.\u00b2", "\u0661.2.3.4",
                "1.2.03.4", "001.2.3.4", "1.2.3.+4", "1.2. 3.4", "1.2.3.0x4"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ParseError):
            truncate_ip(bad)


class TestResolverMap:
    def test_load(self, tmp_path):
        p = tmp_path / "map.tsv"
        p.write_text("evil.example\t1.2.3.4\nother.example\t5.6.7.8\n")
        assert load_resolver_map(p) == {
            "evil.example": "1.2.3.4",
            "other.example": "5.6.7.8",
        }

    def test_rejects_wrong_column_count(self, tmp_path):
        p = tmp_path / "map.tsv"
        p.write_text("evil.example 1.2.3.4\n")
        with pytest.raises(ParseError):
            load_resolver_map(p)

    def test_rejects_bad_ip(self, tmp_path):
        p = tmp_path / "map.tsv"
        p.write_text("ok.example\t1.2.3.4\nevil.example\tnot-an-ip\n")
        with pytest.raises(ParseError, match=f"{p}: line 2: malformed IPv4 address: 'not-an-ip'"):
            load_resolver_map(p)

    def test_rejects_non_ascii_digits(self, tmp_path):
        p = tmp_path / "map.tsv"
        p.write_text("h\t1.2.\u00b2.4\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"{p}: line 1: malformed IPv4 address: '1.2.\u00b2.4'"):
            load_resolver_map(p)


class TestResolveUrls:
    def test_resolvable_urls_become_ip_lines(self):
        keys = ingest_keys("url::evil.example\napi::x\n", {"evil.example": "1.2.3.4"})
        assert keys == {("ip", "1.2.3.x"), ("api", "x")}

    def test_unresolvable_urls_are_dropped(self):
        assert ingest_keys("url::gone.example\n", {}) == set()

    def test_resolution_collisions_collapse(self):
        text = "url::a.example\nurl::b.example\nip::1.2.3.4\n"
        resolver = {"a.example": "1.2.3.4", "b.example": "1.2.3.4"}
        assert ingest_keys(text, resolver) == {("ip", "1.2.3.x")}


class TestFeaturePairs:
    def test_truncates_ip_names(self):
        keys = ingest_keys("ip::1.2.3.4\napi::x\n", {})
        assert keys == {("ip", "1.2.3.x"), ("api", "x")}

    def test_unresolved_url_is_never_a_feature(self):
        assert ingest_keys("url::evil.example\n", {}) == set()
        assert ingest_keys("url::evil.example\n", {"evil.example": "1.2.3.4"}) == {
            ("ip", "1.2.3.x")
        }


class TestManifest:
    def test_load(self, tmp_path):
        p = tmp_path / "manifest.csv"
        p.write_text("app_id,path,group\nmal-1,a.txt,positive\nben-1,b.txt,unlabeled\n")
        rows = load_manifest(p)
        assert rows == [
            ManifestRow("mal-1", "a.txt", "positive"),
            ManifestRow("ben-1", "b.txt", "unlabeled"),
        ]

    def test_rejects_wrong_header(self, tmp_path):
        p = tmp_path / "manifest.csv"
        p.write_text("id,file,label\nmal-1,a.txt,positive\n")
        with pytest.raises(ParseError, match="header"):
            load_manifest(p)

    def test_rejects_unknown_group(self, tmp_path):
        p = tmp_path / "manifest.csv"
        p.write_text("app_id,path,group\nmal-1,a.txt,malware\n")
        with pytest.raises(ParseError, match="unknown group"):
            load_manifest(p)

    def test_rejects_duplicate_app_id(self, tmp_path):
        p = tmp_path / "manifest.csv"
        p.write_text("app_id,path,group\na,x.txt,positive\na,y.txt,unlabeled\n")
        with pytest.raises(DatasetError, match="duplicate"):
            load_manifest(p)

    @pytest.mark.parametrize("row, count", [("b,b.txt", 2), ("b,b.txt,unlabeled,extra", 4)])
    def test_rejects_wrong_column_count(self, tmp_path, row, count):
        p = tmp_path / "manifest.csv"
        p.write_text(f"app_id,path,group\na,a.txt,positive\n\n{row}\n")
        expected = f"line 4: expected 3 columns app_id,path,group, got {count}"
        with pytest.raises(ParseError, match=expected):
            load_manifest(p)

    def test_header_only_lists_no_apps(self, tmp_path):
        p = tmp_path / "manifest.csv"
        p.write_text("app_id,path,group\n\n")
        with pytest.raises(ParseError, match="manifest lists no apps"):
            load_manifest(p)

    def test_blank_lines_are_skipped(self, tmp_path):
        p = tmp_path / "manifest.csv"
        p.write_text("app_id,path,group\n\na, a.txt ,Positive\n\n")
        assert load_manifest(p) == [ManifestRow("a", "a.txt", "positive")]


def _write_corpus(tmp_path):
    (tmp_path / "mal.txt").write_text(
        "permission::SEND_SMS\napi::getDeviceId\nurl::evil.example\n"
    )
    (tmp_path / "ben.txt").write_text("permission::INTERNET\nurl::nowhere.example\n")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "app_id,path,group\nmal-1,mal.txt,positive\nben-1,ben.txt,unlabeled\n"
    )
    return load_manifest(manifest), {"evil.example": "9.8.7.6"}


class TestBuildDataset:
    def test_end_to_end(self, tmp_path):
        manifest, resolver = _write_corpus(tmp_path)
        ds = build_dataset(manifest, resolver, tmp_path)
        names = [name for name, _ in ds.space.features]
        # canonical (kind, name) order: api, ip, permission
        assert names == ["getDeviceId", "9.8.7.x", "INTERNET", "SEND_SMS"]
        assert ds.positives.ids == ("mal-1",)
        assert row_lists(ds.positives) == [[0, 1, 3]]
        assert row_lists(ds.unlabeled) == [[2]]  # unresolvable url dropped

    def test_same_name_in_two_kinds(self, tmp_path):
        (tmp_path / "a.txt").write_text("permission::foo\n")
        (tmp_path / "b.txt").write_text("api::foo\npermission::foo\n")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("app_id,path,group\napp-a,a.txt,positive\napp-b,b.txt,unlabeled\n")
        ds = build_dataset(load_manifest(manifest), {}, tmp_path)
        assert ds.space.features == (("foo", "api"), ("foo", "permission"))
        assert row_lists(ds.positives) == [[1]] and row_lists(ds.unlabeled) == [[0, 1]]
        save_dataset(ds, tmp_path / "ds.json")
        assert dataset_to_dict(load_dataset(tmp_path / "ds.json")) == dataset_to_dict(ds)

    def test_deterministic(self, tmp_path):
        manifest, resolver = _write_corpus(tmp_path)
        assert dataset_to_dict(build_dataset(manifest, resolver, tmp_path)) == dataset_to_dict(
            build_dataset(manifest, resolver, tmp_path)
        )

    def test_missing_feature_file_is_io_error(self, tmp_path):
        manifest, resolver = _write_corpus(tmp_path)
        (tmp_path / "ben.txt").unlink()
        with pytest.raises(OSError, match="ben.txt"):
            build_dataset(manifest, resolver, tmp_path)

    def test_io_and_parse_errors_keep_manifest_order(self, tmp_path):
        (tmp_path / "bad.txt").write_text("api::x\nbroken\n")
        rows = [
            ManifestRow("a", "gone.txt", "positive"),
            ManifestRow("b", "bad.txt", "unlabeled"),
        ]
        with pytest.raises(OSError, match="gone.txt"):
            build_dataset(rows, {}, tmp_path)
        with pytest.raises(ParseError, match="bad.txt"):
            build_dataset(rows[::-1], {}, tmp_path)

    def test_holds_the_block_not_an_object_per_one(self, tmp_path):
        # 400 apps of 250 features each out of 1000, groups interleaved: 100,000 ones.
        # A Python list of feature numbers costs 8 to 36 bytes per one before any
        # array is built; the block's int64 indices cost 8
        rnd = random.Random(3)
        manifest = []
        for i in range(400):
            lines = (f"api::Lcom/x/C{j};->m()V\n" for j in rnd.sample(range(1000), 250))
            (tmp_path / f"a{i}.txt").write_text("".join(lines))
            group = "positive" if i % 3 == 0 else "unlabeled"
            manifest.append(ManifestRow(f"app-{i}", f"a{i}.txt", group))
        tracemalloc.start()
        try:
            rows = build_dataset(manifest, {}, tmp_path).samples
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.ids[:3] == ("app-0", "app-3", "app-6")
        assert peak < 3 * (rows.indptr.nbytes + rows.indices.nbytes)  # 0.8 MB


GROUPS = ("positive", "unlabeled")


def reference_dataset(texts: list[str], manifest: list[ManifestRow], base: Path) -> dict:
    """build_dataset, file by file: reference_keys per file, then the space of
    their union in (kind, name) order, then each app's sorted indices."""
    per_app = []
    for text, row in zip(texts, manifest):
        try:
            per_app.append(reference_keys(text, RESOLVER))
        except ParseError as exc:
            raise ParseError(f"{base / row.path} (app {row.app_id!r}): {exc}") from None
    keys = sorted(set().union(*per_app))
    space = FeatureSpace(tuple((name, kind) for kind, name in keys))
    index = space.index_of()
    rows = SampleRows.build(
        [row.app_id for row in manifest],
        [sorted(index[key] for key in keys) for keys in per_app],
        [-1] * len(manifest),
    )
    groups = [[i for i, row in enumerate(manifest) if row.group == g] for g in GROUPS]
    return dataset_to_dict(PUDataset(space, rows.take(groups[0] + groups[1]), len(groups[0])))


def ingested(texts: list[str], manifest: list[ManifestRow], base: Path) -> dict:
    return dataset_to_dict(build_dataset(manifest, RESOLVER, base))


def ingest_outcome(build, texts: list[str], groups: list[str]):
    """What build(texts, manifest, base) returns once the files are written, or
    the message of the ParseError it raises."""
    manifest = [ManifestRow(f"app-{i}", f"f{i}.txt", g) for i, g in enumerate(groups)]
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        for text, row in zip(texts, manifest):
            (base / row.path).write_text(text, encoding="utf-8")
        try:
            return build(texts, manifest, base)
        except ParseError as exc:
            return f"ParseError: {str(exc).replace(tmp, '<base>')}"


CLEAN_LINES = feature_lines().filter(
    lambda line: not isinstance(outcome(reference_keys, line, RESOLVER), str)
)


@st.composite
def corpora(draw) -> list[str]:
    """1-5 feature files whose lines come from a pool shared by the corpus, so
    lines recur across files (padding variants and URL collisions too), and
    from fresh draws. Half the corpora may hold faults: their pool may hold a
    faulty line, which then recurs, and FILES files join in."""
    faults = draw(st.booleans())
    lines = feature_lines() if faults else CLEAN_LINES
    pool = draw(st.lists(lines, min_size=1, max_size=8))
    pooled = st.lists(st.one_of(st.sampled_from(pool), lines), max_size=10).map(
        lambda ls: "\n".join(ls) + "\n"
    )
    return draw(st.lists(st.one_of(pooled, FILES) if faults else pooled, min_size=1, max_size=5))


class TestBuildDatasetOracle:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_same_dataset_or_same_error_as_per_file_reference(self, data):
        texts = data.draw(corpora())
        n = len(texts)
        groups = data.draw(st.lists(st.sampled_from(GROUPS), min_size=n, max_size=n))
        expected = ingest_outcome(reference_dataset, texts, groups)
        assert ingest_outcome(ingested, texts, groups) == expected

    @pytest.mark.parametrize(
        "bad", ["intent::x", "broken", "api::", "ip::1.2.3", "url::bad.example"]
    )
    def test_faulty_line_in_two_files_fails_the_first(self, bad):
        texts = [
            "api::a\nurl::a.example\n", f"api::a\n{bad}\nurl::b.example\n", f"{bad}\napi::b\n"
        ]
        groups = ["positive", "unlabeled", "unlabeled"]
        got = ingest_outcome(ingested, texts, groups)
        assert got.startswith("ParseError: <base>/f1.txt (app 'app-1'): ")
        assert got == ingest_outcome(reference_dataset, texts, groups)
