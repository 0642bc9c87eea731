"""Parse per-app feature files and manifests into a PUDataset.

File formats:
  feature file  -- UTF-8 text, one "kind::value" per line, "#" starts a comment
  manifest      -- CSV with header app_id,path,group (group: positive|unlabeled)
  resolver map  -- TSV, host<TAB>ipv4, no header

URL features are normalized offline: each URL host is looked up in the
resolver map and replaced by its IPv4 address truncated to the /24 prefix
("a.b.c.x"). Unresolvable URLs are dropped as invalid.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .features import DatasetError, FeatureSpace, PUDataset, SampleRows

KIND_TAGS = ("permission", "api", "url", "ip")


class ParseError(ValueError):
    """Malformed feature file, manifest or resolver map."""


class Group(Enum):
    POSITIVE = "positive"
    UNLABELED = "unlabeled"


@dataclass(frozen=True)
class ManifestRow:
    app_id: str
    path: str
    group: Group


def feature_keys(
    text: str, resolver: dict[str, str], truncated: dict[str, str]
) -> set[tuple[str, str]]:
    """The (kind value, name) keys of one feature file, in one pass.

    Blank and "#" lines are skipped and duplicates collapse. A url value is
    looked up in `resolver` and becomes an ip key (or is dropped when it has no
    entry); an ip value is truncated to its /24 name. `truncated` caches
    ip -> name across files. A file with several faults reports the first
    malformed line, else the first malformed IPv4 address, in line order.
    """
    keys: set[tuple[str, str]] = set()
    bad_ip: ParseError | None = None
    for lineno, line in enumerate(map(str.strip, text.splitlines()), start=1):
        if not line or line[0] == "#":
            continue
        kind_tag, sep, value = line.partition("::")
        if not sep:
            raise ParseError(f"line {lineno}: missing '::' separator: {line!r}")
        kind_tag = kind_tag.strip()
        value = value.strip()
        if kind_tag not in KIND_TAGS:
            raise ParseError(f"line {lineno}: unknown kind tag {kind_tag!r}")
        if not value:
            raise ParseError(f"line {lineno}: empty feature value")
        if kind_tag == "url":
            value = resolver.get(value)
            if value is None:
                continue
            kind_tag = "ip"
        if kind_tag == "ip":
            name = truncated.get(value)
            if name is None:
                try:
                    name = truncated[value] = truncate_ip(value)
                except ParseError as exc:
                    bad_ip = bad_ip or exc
                    continue
            value = name
        keys.add((kind_tag, value))
    if bad_ip is not None:
        raise bad_ip
    return keys


def truncate_ip(ip: str) -> str:
    """Keep the three most significant octets: "216.59.192.44" -> "216.59.192.x"."""
    parts = ip.strip().split(".")
    if len(parts) != 4:
        raise ParseError(f"malformed IPv4 address: {ip!r}")
    for p in parts:
        if not p.isdigit() or not 0 <= int(p) <= 255:
            raise ParseError(f"malformed IPv4 address: {ip!r}")
    return ".".join(parts[:3]) + ".x"


def load_resolver_map(path: str | Path) -> dict[str, str]:
    """host -> dotted-quad map from a two-column TSV."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        cols = line.split("\t")
        if len(cols) != 2:
            raise ParseError(f"{path}: line {lineno}: expected host<TAB>ip")
        host, ip = cols[0].strip(), cols[1].strip()
        truncate_ip(ip)  # validates the dotted quad
        entries[host] = ip
    return entries


def load_manifest(path: str | Path) -> list[ManifestRow]:
    rows: list[ManifestRow] = []
    seen: set[str] = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["app_id", "path", "group"]:
            raise ParseError(f"{path}: manifest header must be app_id,path,group")
        for row in reader:
            app_id = row["app_id"].strip()
            group_tag = row["group"].strip().lower()
            if group_tag not in ("positive", "unlabeled"):
                raise ParseError(f"{path}: unknown group {row['group']!r} for {app_id!r}")
            if app_id in seen:
                raise DatasetError(f"{path}: duplicate app_id {app_id!r}")
            seen.add(app_id)
            rows.append(ManifestRow(app_id, row["path"].strip(), Group(group_tag)))
    return rows


def build_dataset(
    manifest: list[ManifestRow],
    resolver: dict[str, str],
    base_dir: str | Path = ".",
) -> PUDataset:
    """Read every app's feature file and assemble the full PUDataset.

    The FeatureSpace is the union of observed (kind, name) keys after URL
    resolution and IP truncation, in the canonical (kind, name) order.
    """
    base = Path(base_dir)
    per_app: list[set[tuple[str, str]]] = []
    all_keys: set[tuple[str, str]] = set()
    truncated: dict[str, str] = {}
    for row in manifest:
        path = base / row.path
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise IOError(f"cannot read feature file {path}: {exc}") from exc
        try:
            keys = feature_keys(text, resolver, truncated)
        except ParseError as exc:
            raise ParseError(f"{path} (app {row.app_id!r}): {exc}") from exc
        per_app.append(keys)
        all_keys |= keys

    space = FeatureSpace.build(all_keys)
    index = space.index_of()
    rows = SampleRows.build(
        [row.app_id for row in manifest],
        [sorted(map(index.__getitem__, keys)) for keys in per_app],
        [-1] * len(manifest),
    )
    members = {g: [i for i, row in enumerate(manifest) if row.group is g] for g in Group}
    return PUDataset(space, rows.take(members[Group.POSITIVE]), rows.take(members[Group.UNLABELED]))
