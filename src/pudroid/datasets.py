"""JSON round-tripping of PUDataset so CLI stages can be chained."""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .features import KIND_OF, AppSample, FeatureKind, FeatureSpace, PUDataset, SparseBinaryVector
from .report import DATASET_SCHEMA

_MISSING = object()


def dataset_to_dict(ds: PUDataset) -> dict:
    def sample_dict(s: AppSample) -> dict:
        out = {"id": s.id, "on": list(s.features.indices)}
        if s.hidden is not None:
            out["hidden"] = s.hidden
        return out

    return {
        "schema": DATASET_SCHEMA,
        "features": [[name, kind.value] for name, kind in ds.space.features],
        "positives": [sample_dict(s) for s in ds.positives],
        "unlabeled": [sample_dict(s) for s in ds.unlabeled],
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

    def sample(entries: list, i: int, path: str, discovery: int) -> AppSample:
        entry = _at(entries, i, dict, path)
        path += f"[{i}]"
        on = _at(entry, "on", list, path)
        if not set(map(type, on)) <= {int}:
            raise ValueError(f"dataset JSON: {path}.on must hold only integers")
        hidden = entry.get("hidden")
        if "hidden" in entry and not (type(hidden) is int and hidden in (0, 1)):
            raise ValueError(f"dataset JSON: {path}.hidden must be 0 or 1, got {json.dumps(hidden)}")
        return AppSample(_at(entry, "id", str, path), SparseBinaryVector(tuple(on)), discovery, hidden)

    pairs, pos, unl = (_at(data, key, list, "$") for key in ("features", "positives", "unlabeled"))
    return PUDataset(
        FeatureSpace(tuple(feature(pairs, i) for i in range(len(pairs)))),
        tuple(sample(pos, i, "$.positives", 1) for i in range(len(pos))),
        tuple(sample(unl, i, "$.unlabeled", 0) for i in range(len(unl))),
    )


def _array(items: list[str], indent: str) -> str:
    """A JSON array of encoded items, laid out as json.dumps(indent=2) lays it
    out when its opening bracket sits on a line indented by `indent`."""
    if not items:
        return "[]"
    inner = indent + "  "
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"


def _sample(s: AppSample) -> str:
    hidden = "" if s.hidden is None else f'      "hidden": {s.hidden},\n'
    on = _array(list(map(str, s.features.indices)), "      ")
    return f'{{\n{hidden}      "id": {_quote(s.id)},\n      "on": {on}\n    }}'


def save_dataset(ds: PUDataset, path: str | Path) -> None:
    """Write the bytes of report.dumps(dataset_to_dict(ds)) directly: datasets
    hold no floats, so the layout (indent 2, sorted keys, ASCII-escaped
    strings) is written per feature and per sample, not per value."""
    kinds = {kind: _quote(kind.value) for kind in FeatureKind}
    features = [
        f"[\n      {_quote(name)},\n      {kinds[kind]}\n    ]" for name, kind in ds.space.features
    ]
    text = (
        f'{{\n  "features": {_array(features, "  ")},\n'
        f'  "positives": {_array(list(map(_sample, ds.positives)), "  ")},\n'
        f'  "schema": {_quote(DATASET_SCHEMA)},\n'
        f'  "unlabeled": {_array(list(map(_sample, ds.unlabeled)), "  ")}\n}}\n'
    )
    Path(path).write_text(text, encoding="utf-8")


def load_dataset(path: str | Path) -> PUDataset:
    return dataset_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
