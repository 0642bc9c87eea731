"""JSON round-tripping of PUDataset so CLI stages can be chained."""

from __future__ import annotations

import json
from pathlib import Path

from .features import AppSample, FeatureKind, FeatureSpace, PUDataset, SparseBinaryVector
from .report import DATASET_SCHEMA, dumps

KINDS = {kind.value for kind in FeatureKind}


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
    """container[key] if it exists and is a `kind`; else a ValueError naming its JSON path."""
    path += f".{key}" if isinstance(key, str) else f"[{key}]"
    try:
        value = container[key]
    except (KeyError, IndexError):
        raise ValueError(f"dataset JSON: missing {path}") from None
    if not isinstance(value, kind):
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
        if kind not in KINDS:
            raise ValueError(f"dataset JSON: {path}[1] must be one of {sorted(KINDS)}, got {kind!r}")
        return _at(pair, 0, str, path), FeatureKind(kind)

    def sample(entries: list, i: int, path: str, discovery: int) -> AppSample:
        entry = _at(entries, i, dict, path)
        path += f"[{i}]"
        on = _at(entry, "on", list, path)
        if not all(type(j) is int for j in on):
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


def save_dataset(ds: PUDataset, path: str | Path) -> None:
    Path(path).write_text(dumps(dataset_to_dict(ds)), encoding="utf-8")


def load_dataset(path: str | Path) -> PUDataset:
    return dataset_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
