from dataclasses import dataclass
from typing import Iterable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import row_lists
from pudroid.datasets import dataset_to_dict, load_dataset, save_dataset
from pudroid.features import DatasetError, FeatureKind
from pudroid.ingest import (
    KIND_TAGS,
    Group,
    ManifestRow,
    ParseError,
    build_dataset,
    feature_keys,
    load_manifest,
    load_resolver_map,
    truncate_ip,
)


# The three-stage parser that feature_keys replaced, kept as its reference.
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


_KIND_BY_TAG = {
    "permission": FeatureKind.PERMISSION,
    "api": FeatureKind.API,
    "ip": FeatureKind.IP_ADDRESS,
}


def feature_pairs(lines: Iterable[RawFeatureLine]) -> set[tuple[str, FeatureKind]]:
    """(name, kind) pairs after IP truncation; url lines must be resolved first."""
    pairs: set[tuple[str, FeatureKind]] = set()
    for line in lines:
        if line.kind_tag == "url":
            raise ParseError("url lines must be resolved before vectorization")
        name = truncate_ip(line.value) if line.kind_tag == "ip" else line.value
        pairs.add((name, _KIND_BY_TAG[line.kind_tag]))
    return pairs


def reference_keys(text: str, resolver: dict[str, str]) -> set[tuple[str, str]]:
    pairs = feature_pairs(resolve_urls(parse_feature_file(text), resolver))
    return {(kind.value, name) for name, kind in pairs}


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


class TestFeatureKeysOracle:
    @settings(max_examples=500, deadline=None)
    @given(texts=st.lists(FILES, min_size=1, max_size=3))
    def test_same_keys_or_same_error_as_reference(self, texts):
        truncated: dict[str, str] = {}  # shared, as build_dataset shares it across files
        for text in texts:
            expected = outcome(reference_keys, text, RESOLVER)
            assert outcome(feature_keys, text, RESOLVER, truncated) == expected
            assert outcome(feature_keys, text, RESOLVER, {}) == expected

    @pytest.mark.parametrize("text, error", [
        ("ip::1.2.3\nbroken\n", "line 2: missing '::' separator"),
        ("ip::1.2.3\nurl::bad.example\nintent::x\n", "line 3: unknown kind tag"),
        ("url::bad.example\nip::1.2.3\n", "malformed IPv4 address: '300.1.2.3'"),
        ("api::\napi::ok\nbroken\n", "line 1: empty feature value"),
    ])
    def test_several_faults_report_the_reference_error(self, text, error):
        with pytest.raises(ParseError, match=error):
            feature_keys(text, RESOLVER, {})
        assert outcome(reference_keys, text, RESOLVER) == outcome(feature_keys, text, RESOLVER, {})


class TestParseFeatureFile:
    def test_basic_lines(self):
        text = "permission::SEND_SMS\napi::getDeviceId\nurl::evil.example\nip::1.2.3.4\n"
        assert feature_keys(text, {"evil.example": "5.6.7.8"}, {}) == {
            ("permission", "SEND_SMS"),
            ("api", "getDeviceId"),
            ("ip", "5.6.7.x"),
            ("ip", "1.2.3.x"),
        }

    def test_comments_blanks_and_duplicates(self):
        text = "# header\n\n  api::x  \napi::x\npermission::P\n"
        assert feature_keys(text, {}, {}) == {("api", "x"), ("permission", "P")}

    def test_missing_separator_reports_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            feature_keys("api::ok\nbroken line\n", {}, {})

    def test_unknown_kind_tag_is_an_error(self):
        with pytest.raises(ParseError, match="unknown kind tag"):
            feature_keys("intent::android.intent.action.MAIN\n", {}, {})

    def test_empty_value_is_an_error(self):
        with pytest.raises(ParseError, match="empty feature value"):
            feature_keys("api::   \n", {}, {})

    def test_value_may_contain_separator(self):
        assert feature_keys("api::a::b\n", {}, {}) == {("api", "a::b")}


class TestTruncateIp:
    def test_keeps_three_octets(self):
        assert truncate_ip("216.59.192.44") == "216.59.192.x"

    def test_idempotent_input_shape(self):
        assert truncate_ip("0.0.0.255") == "0.0.0.x"

    @pytest.mark.parametrize("bad", ["1.2.3", "1.2.3.4.5", "a.b.c.d", "1.2.3.256", ""])
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
        p.write_text("evil.example\tnot-an-ip\n")
        with pytest.raises(ParseError):
            load_resolver_map(p)


class TestResolveUrls:
    def test_resolvable_urls_become_ip_lines(self):
        keys = feature_keys("url::evil.example\napi::x\n", {"evil.example": "1.2.3.4"}, {})
        assert keys == {("ip", "1.2.3.x"), ("api", "x")}

    def test_unresolvable_urls_are_dropped(self):
        assert feature_keys("url::gone.example\n", {}, {}) == set()

    def test_resolution_collisions_collapse(self):
        text = "url::a.example\nurl::b.example\nip::1.2.3.4\n"
        resolver = {"a.example": "1.2.3.4", "b.example": "1.2.3.4"}
        assert feature_keys(text, resolver, {}) == {("ip", "1.2.3.x")}


class TestFeaturePairs:
    def test_truncates_ip_names(self):
        truncated: dict[str, str] = {}
        keys = feature_keys("ip::1.2.3.4\napi::x\n", {}, truncated)
        assert keys == {("ip", "1.2.3.x"), ("api", "x")}
        assert truncated == {"1.2.3.4": "1.2.3.x"}

    def test_unresolved_url_is_never_a_feature(self):
        assert feature_keys("url::evil.example\n", {}, {}) == set()
        assert feature_keys("url::evil.example\n", {"evil.example": "1.2.3.4"}, {}) == {
            ("ip", "1.2.3.x")
        }


class TestManifest:
    def test_load(self, tmp_path):
        p = tmp_path / "manifest.csv"
        p.write_text("app_id,path,group\nmal-1,a.txt,positive\nben-1,b.txt,unlabeled\n")
        rows = load_manifest(p)
        assert rows == [
            ManifestRow("mal-1", "a.txt", Group.POSITIVE),
            ManifestRow("ben-1", "b.txt", Group.UNLABELED),
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
        assert ds.space.features == (("foo", FeatureKind.API), ("foo", FeatureKind.PERMISSION))
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
