"""JSON round-tripping of PUDataset so CLI stages can be chained."""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from itertools import starmap
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import TextIO

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


def load_dataset(path: str | Path) -> PUDataset:
    """The dataset in the file at `path`; every data fault names the file."""
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
