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
from array import array
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .features import KIND_OF, DatasetError, FeatureSpace, PUDataset, SampleRows, offsets

KIND_TAGS = ("permission", "api", "url", "ip")
# each tag as one string object, so that the keys of many lines share it
_SHARED_TAG = dict(zip(KIND_TAGS, KIND_TAGS))


class ParseError(ValueError):
    """Malformed feature file, manifest or resolver map."""


class AddressError(ParseError):
    """Malformed IPv4 address."""


class Group(Enum):
    POSITIVE = "positive"
    UNLABELED = "unlabeled"


@dataclass(frozen=True)
class ManifestRow:
    app_id: str
    path: str
    group: Group


def line_key(line: str, resolver: dict[str, str]) -> tuple[str, str] | None:
    """The (kind value, name) key of one feature-file line, or None when it adds
    none: a blank or "#" line, or a url with no resolver entry.

    A url value is looked up in `resolver` and becomes an ip key; an ip value
    is truncated to its /24 name. A malformed line raises ParseError, a
    malformed IPv4 address (given or resolved) AddressError.
    """
    line = line.strip()
    if not line or line[0] == "#":
        return None
    kind_tag, sep, value = line.partition("::")
    if not sep:
        raise ParseError(f"missing '::' separator: {line!r}")
    tag = kind_tag.strip()
    kind_tag = _SHARED_TAG.get(tag)
    if kind_tag is None:
        raise ParseError(f"unknown kind tag {tag!r}")
    value = value.strip()
    if not value:
        raise ParseError("empty feature value")
    if kind_tag == "url":
        value = resolver.get(value)
        if value is None:
            return None
        kind_tag = "ip"
    if kind_tag == "ip":
        value = truncate_ip(value)
    return kind_tag, value


def truncate_ip(ip: str) -> str:
    """Keep the three most significant octets: "216.59.192.44" -> "216.59.192.x"."""
    parts = ip.strip().split(".")
    if len(parts) != 4:
        raise AddressError(f"malformed IPv4 address: {ip!r}")
    for p in parts:
        if not (p.isascii() and p.isdigit()) or not 0 <= int(p) <= 255:  # str.isdigit takes '²'
            raise AddressError(f"malformed IPv4 address: {ip!r}")
    return ".".join(parts[:3]) + ".x"


def load_resolver_map(path: str | Path) -> dict[str, str]:
    """host -> dotted-quad map from a two-column TSV."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        cols = line.split("\t")
        if len(cols) != 2:
            raise ParseError(f"{path}: line {lineno}: expected host<TAB>ip")
        host, ip = cols[0].strip(), cols[1].strip()
        try:
            truncate_ip(ip)  # validates the dotted quad
        except AddressError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from None
        entries[host] = ip
    return entries


def load_manifest(path: str | Path) -> list[ManifestRow]:
    """The apps of a CSV manifest with the header app_id,path,group, in file order."""
    rows: list[ManifestRow] = []
    seen: set[str] = set()
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != ["app_id", "path", "group"]:
                raise ParseError(f"{path}: manifest header must be app_id,path,group")
            for cols in reader:
                if not cols:  # a blank line
                    continue
                if len(cols) != 3:
                    raise ParseError(
                        f"{path}: line {reader.line_num}: expected 3 columns "
                        f"app_id,path,group, got {len(cols)}"
                    )
                app_id, rel_path, group_tag = (col.strip() for col in cols)
                group_tag = group_tag.lower()
                if group_tag not in ("positive", "unlabeled"):
                    raise ParseError(f"{path}: unknown group {cols[2]!r} for {app_id!r}")
                if app_id in seen:
                    raise DatasetError(f"{path}: duplicate app_id {app_id!r}")
                seen.add(app_id)
                rows.append(ManifestRow(app_id, rel_path, Group(group_tag)))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not rows:  # else an empty dataset would be written
        raise ParseError(f"{path}: manifest lists no apps")
    return rows


def build_dataset(
    manifest: list[ManifestRow],
    resolver: dict[str, str],
    base_dir: str | Path = ".",
) -> PUDataset:
    """Read every app's feature file and assemble the full PUDataset.

    The FeatureSpace is the union of observed (kind value, name) keys after URL
    resolution and IP truncation, ordered by (kind value, name), so identical
    inputs always produce identical index assignments.

    Features recur from app to app, so each distinct raw line is parsed once:
    `memo` maps it to its feature number, or -1 when it adds no key. A file
    with a line the memo does not hold is walked once, in line order, past the
    lines it does: the first malformed line fails the file at once, else the
    first malformed IPv4 address fails it after the pass. A line that fails is
    never memoised.
    """
    base = Path(base_dir)
    memo: dict[str, int] = {}
    numbers: dict[tuple[str, str], int] = {}  # key -> feature number, in order of first sight
    flat = array("q")  # the apps' feature numbers, app after app in manifest order
    lengths: list[int] = []
    for row in manifest:
        path = base / row.path
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise IOError(f"cannot read feature file {path}: {exc}") from exc
        try:
            lines = data.decode("utf-8").splitlines()
            found = set(map(memo.get, lines))
            if None in found:
                found.discard(None)
                bad_ip: AddressError | None = None
                for lineno, line in enumerate(lines, 1):
                    if line in memo:
                        continue
                    try:
                        key = line_key(line, resolver)
                    except AddressError as exc:
                        bad_ip = bad_ip or exc
                        continue
                    except ParseError as exc:
                        raise ParseError(f"line {lineno}: {exc}") from None
                    number = -1 if key is None else numbers.setdefault(key, len(numbers))
                    memo[line] = number
                    found.add(number)
                if bad_ip is not None:
                    raise bad_ip
        except (ParseError, UnicodeDecodeError) as exc:
            raise ParseError(f"{path} (app {row.app_id!r}): {exc}") from exc
        found.discard(-1)
        flat.extend(found)
        lengths.append(len(found))
    del memo  # every raw line it holds is dead now: free them before the space is built

    keys = list(numbers)
    del numbers
    by_key = sorted(range(len(keys)), key=keys.__getitem__)  # index -> number
    space = FeatureSpace(tuple((keys[i][1], KIND_OF[keys[i][0]]) for i in by_key))
    del keys
    # each stored one is keyed by its app's row in the P-then-U block and its
    # index, as row * d + index in the narrowest type that holds n * d: one
    # in-place sort puts the block in row order and each row's indices in order
    is_positive = np.array([row.group is Group.POSITIVE for row in manifest])
    order = np.argsort(~is_positive, kind="stable")  # block row -> manifest row
    d = max(space.dimension, 1)
    cell = np.min_scalar_type(len(manifest) * d)
    rank = np.empty(len(by_key), dtype=cell)  # number -> index
    rank[by_key] = np.arange(len(by_key), dtype=cell)
    del by_key
    cells = rank.take(np.frombuffer(flat, dtype=np.int64))
    del flat, rank
    row_start = np.empty(len(manifest), dtype=cell)
    row_start[order] = np.arange(len(manifest), dtype=cell) * cell.type(d)
    cells += np.repeat(row_start, lengths)
    cells.sort()
    indices = np.empty(len(cells), dtype=np.int64)
    np.remainder(cells, d, out=indices)
    rows = SampleRows(
        tuple(manifest[i].app_id for i in order.tolist()),
        offsets(np.asarray(lengths)[order]),
        indices,
        np.full(len(manifest), -1, dtype=np.int64),
    )
    return PUDataset(space, rows, int(is_positive.sum()))
