"""JSON round-tripping of PUDataset so CLI stages can be chained.

save_dataset writes one layout, and load_dataset streams exactly that one,
with or without its final newline; it reads any other text whole, to the
same dataset or the same message.
"""

from __future__ import annotations

import codecs
import json
from array import array
from collections.abc import Iterable, Iterator
from itertools import starmap
from json.encoder import encode_basestring_ascii as _quote
from json.scanner import make_scanner
from pathlib import Path
from typing import BinaryIO, TextIO

import numpy as np

from .features import KIND_OF, FeatureKind, FeatureSpace, PUDataset, SampleRows
from .report import DATASET_SCHEMA

_MISSING = object()


def _row_slices(rows: SampleRows):
    """(id, on-indices, hidden or None) per row, as plain Python values."""
    on, bounds = rows.indices.tolist(), rows.indptr.tolist()
    for sid, hidden, a, b in zip(rows.ids, rows.hidden.tolist(), bounds, bounds[1:]):
        yield sid, on[a:b], None if hidden < 0 else hidden


def dataset_to_dict(ds: PUDataset) -> dict:
    def sample_dict(sid: str, on: list[int], hidden: int | None) -> dict:
        return {"id": sid, "on": on, **({} if hidden is None else {"hidden": hidden})}

    return {
        "schema": DATASET_SCHEMA,
        "features": [[name, kind.value] for name, kind in ds.space.features],
        "positives": list(starmap(sample_dict, _row_slices(ds.positives))),
        "unlabeled": list(starmap(sample_dict, _row_slices(ds.unlabeled))),
    }


def _at(container, key, kind: type, path: str):
    """container[key] if it exists and is a `kind`; else a ValueError naming its
    JSON path (`path` is the container's; the key's is built only on error)."""
    try:
        value = container[key]
    except (KeyError, IndexError):
        value = _MISSING
    if not isinstance(value, kind):
        path += f".{key}" if isinstance(key, str) else f"[{key}]"
        if value is _MISSING:
            raise ValueError(f"dataset JSON: missing {path}")
        raise ValueError(f"dataset JSON: {path} must be {kind.__name__}, got {type(value).__name__}")
    return value


def dataset_from_dict(data: dict) -> PUDataset:
    """Inverse of dataset_to_dict; a missing key or a wrong type raises a
    ValueError naming its JSON path ($ is the document root)."""
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema != DATASET_SCHEMA:
        raise ValueError(f"unsupported dataset schema: {schema!r}")

    def feature(pairs: list, i: int) -> tuple[str, FeatureKind]:
        pair, path = _at(pairs, i, list, "$.features"), f"$.features[{i}]"
        kind = _at(pair, 1, str, path)
        if kind not in KIND_OF:
            raise ValueError(f"dataset JSON: {path}[1] must be one of {sorted(KIND_OF)}, got {kind!r}")
        return _at(pair, 0, str, path), KIND_OF[kind]

    pairs, pos, unl = (_at(data, k, list, "$") for k in ("features", "positives", "unlabeled"))
    space = FeatureSpace(tuple(feature(pairs, i) for i in range(len(pairs))))
    ids, rows, hidden = [], [], []  # P's entries, then U's
    for entries, path in ((pos, "$.positives"), (unl, "$.unlabeled")):
        for i in range(len(entries)):
            entry, at = _at(entries, i, dict, path), f"{path}[{i}]"
            on = _at(entry, "on", list, at)
            if not set(map(type, on)) <= {int}:
                raise ValueError(f"dataset JSON: {at}.on must hold only integers")
            h = entry.get("hidden", -1)
            if "hidden" in entry and not (type(h) is int and h in (0, 1)):
                raise ValueError(f"dataset JSON: {at}.hidden must be 0 or 1, got {json.dumps(h)}")
            ids.append(_at(entry, "id", str, at))
            rows.append(on)
            hidden.append(h)
    return PUDataset(space, SampleRows.build(ids, rows, hidden), len(pos))


def _write_array(fh: TextIO, items: Iterable[str]) -> None:
    """Write a JSON array of encoded items, laid out as json.dumps(indent=2)
    lays out a value of the document's top-level object."""
    sep, close = "[\n    ", "[]"
    for item in items:
        fh.write(sep)
        fh.write(item)
        sep, close = ",\n    ", "\n  ]"
    fh.write(close)


def _samples(rows: SampleRows, on_tokens: list[str]) -> Iterator[str]:
    """Each sample's encoded object; its on-list is joined from on_tokens[i],
    the ",\n        {i}" that precedes index i in a list."""
    bounds = rows.indptr.tolist()
    for sid, hidden, a, b in zip(rows.ids, rows.hidden.tolist(), bounds, bounds[1:]):
        on = "".join(map(on_tokens.__getitem__, rows.indices[a:b].tolist()))
        on = f"[{on[1:]}\n      ]" if on else "[]"
        hidden = "" if hidden < 0 else f'      "hidden": {hidden},\n'
        yield f'{{\n{hidden}      "id": {_quote(sid)},\n      "on": {on}\n    }}'


def save_dataset(ds: PUDataset, path: str | Path) -> None:
    """Write the bytes of report.dumps(dataset_to_dict(ds)) directly: datasets
    hold no floats, so the layout (indent 2, sorted keys, ASCII-escaped
    strings) is written per feature and per sample, straight to the open
    file: memory holds one sample's text at a time, never the document's."""
    kinds = {kind: _quote(kind.value) for kind in FeatureKind}
    on_tokens = [f",\n        {i}" for i in range(ds.space.dimension)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n  "features": ')
        _write_array(fh, (
            f"[\n      {_quote(name)},\n      {kinds[kind]}\n    ]"
            for name, kind in ds.space.features
        ))
        fh.write(',\n  "positives": ')
        _write_array(fh, _samples(ds.positives, on_tokens))
        fh.write(f',\n  "schema": {_quote(DATASET_SCHEMA)},\n  "unlabeled": ')
        _write_array(fh, _samples(ds.unlabeled, on_tokens))
        fh.write("\n}\n")


# bytes the reader takes from the file per refill; a refill holds the bytes, the
# old text and the new one. Loading a 9.3 MB file peaked 2.6 MB higher with a
# 1 MiB window than with this one in a fresh process, and 7.4 MB higher in a
# process that had built other data first
_WINDOW = 1 << 18
_SCAN = make_scanner(json.JSONDecoder())  # (value, end) of the JSON value at an offset
_ENTRY_KEYS, _HIDDEN_ENTRY_KEYS = {"id", "on"}, {"hidden", "id", "on"}


class _Refused(Exception):
    """The text is not a dataset as save_dataset writes one."""


class _Reader:
    """Reads a dataset file one array element at a time, through a window of
    its text. The text between elements must be save_dataset's bytes, matched
    as literals; an element (a feature pair or a sample) is decoded by the
    JSON scanner, so it may hold any whitespace and string escapes. A sample's
    id, on-indices and hidden go straight into the arrays of one P-then-U
    block, so neither the parse tree nor the whole text is ever held.
    Anything else raises _Refused."""

    def __init__(self, fh: BinaryIO):
        self.fh, self.text, self.at, self.literals = fh, "", 0, False
        self.decode = codecs.getincrementaldecoder("utf-8")().decode
        self.features: list[tuple[str, FeatureKind]] = []
        self.ids: list[str] = []
        self.indptr, self.indices, self.hidden = array("q", [0]), array("q"), array("q")

    def _more(self) -> bool:
        """Drop the text before the cursor and append the next chunk of the file,
        at least as long as what is kept; False at the end of the file."""
        data = self.fh.read(max(_WINDOW, len(self.text) - self.at))
        if not data:
            self.decode(b"", True)  # raises on a character cut short by the end
            return False
        chunk = self.decode(data)
        del data  # the bytes, the old window and the new one are never all held
        rest, self.text = self.text[self.at:], ""
        self.text, self.at = rest + chunk, 0
        # fromlist takes a JSON true or false as an integer, so the rows of a
        # window that spells either are checked index by index; "u" and "l" go
        # first, as a one-character search is far quicker than a word search
        text = self.text
        self.literals = "u" in text and "true" in text or "l" in text and "false" in text
        return True

    def _skip(self, literal: str) -> bool:
        """Whether `literal` is the text at the cursor, which then moves past it."""
        while len(self.text) - self.at < len(literal) and self._more():
            pass
        found = self.text.startswith(literal, self.at)
        self.at += len(literal) if found else 0
        return found

    def _array(self, before: str, store) -> None:
        """Skip `before` and pass each element of the array after it to store.
        A value cut short, or one that leaves fewer than 6 characters (the
        longer separator) in the window, is scanned again on more text."""
        if self._skip(before + "[]"):
            return
        if not self._skip(before + "[\n    "):
            raise _Refused
        text, at = self.text, self.at
        while True:
            try:
                value, stop = _SCAN(text, at)
            except (StopIteration, ValueError):  # no value here, or one cut short
                stop = len(text)
            if len(text) - stop < 6:
                self.at = at
                if not self._more():
                    raise _Refused
                text, at = self.text, self.at
                continue
            store(value)
            if text.startswith(",\n    ", stop):
                at = stop + 6
            elif text.startswith("\n  ]", stop):
                self.at = stop + 4
                return
            else:
                raise _Refused

    def _feature(self, pair) -> None:
        if not (type(pair) is list and len(pair) == 2 and type(pair[0]) is str
                and type(pair[1]) is str and pair[1] in KIND_OF):
            raise _Refused
        self.features.append((pair[0], KIND_OF[pair[1]]))

    def _sample(self, entry) -> None:
        if type(entry) is not dict:
            raise _Refused
        keys, h = entry.keys(), entry.get("hidden", -1)
        if not (keys == _ENTRY_KEYS
                or keys == _HIDDEN_ENTRY_KEYS and type(h) is int and h in (0, 1)):
            raise _Refused
        sid, on = entry["id"], entry["on"]
        if not (type(sid) is str and type(on) is list):
            raise _Refused
        if self.literals and on and set(map(type, on)) != {int}:  # true or false in on
            raise _Refused
        try:
            self.indices.fromlist(on)  # all or nothing
        except (TypeError, OverflowError):  # not an integer, or one beyond int64
            raise _Refused from None
        self.indptr.append(len(self.indices))
        self.hidden.append(h)
        self.ids.append(sid)

    def read(self) -> None:
        """Read the whole file; refuse it, or set n_positive."""
        self._array('{\n  "features": ', self._feature)
        self._array(',\n  "positives": ', self._sample)
        self.n_positive = len(self.ids)
        self._array(f',\n  "schema": {_quote(DATASET_SCHEMA)},\n  "unlabeled": ', self._sample)
        ended = self._skip("\n}")
        self._skip("\n")  # json.dump(indent=2) leaves the final newline out
        if not ended or self.at < len(self.text) or self._more():
            raise _Refused  # not the document's end, or text after it

    def dataset(self) -> PUDataset:
        space = FeatureSpace(tuple(self.features))  # checked first, as dataset_from_dict does
        indptr, indices, hidden = (np.frombuffer(a, dtype=np.int64)
                                   for a in (self.indptr, self.indices, self.hidden))
        rows = SampleRows(tuple(self.ids), indptr, indices, hidden)
        return PUDataset(space, rows, self.n_positive)


def _load_whole(path: str | Path) -> PUDataset:
    """json.loads and dataset_from_dict over the whole text, for a file the
    reader refuses: they load it, or name its fault as they always have."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:  # the parser recurses once per nesting level, before any check
        raise ValueError(f"{path}: dataset JSON: $ is nested too deeply to parse") from None
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"{path}: {exc}") from None
    try:
        return dataset_from_dict(data)
    except ValueError as exc:  # a structural fault; its class is kept
        raise type(exc)(f"{path}: {exc}") from None


def load_dataset(path: str | Path) -> PUDataset:
    """The dataset in the file at `path`; every data fault names the file.

    A file laid out as save_dataset writes it, with or without its final
    newline, is read one element at a time (_Reader); any other, faulty or
    merely laid out otherwise, is read again whole, and json.loads and
    dataset_from_dict name its fault or load it.
    """
    try:
        with open(path, "rb") as fh:
            reader = _Reader(fh)
            reader.read()
    except (_Refused, UnicodeDecodeError, RecursionError):
        reader = None  # frees the window and the arrays before the whole text is read
    if reader is None:
        return _load_whole(path)
    try:
        return reader.dataset()
    except ValueError as exc:  # an index, id or feature fault, as dataset_from_dict raises it
        raise type(exc)(f"{path}: {exc}") from None
