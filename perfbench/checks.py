"""Output checks. Each returns a list of problems; an empty list is a pass.

The checks read reports as plain JSON/CSV against the formats the README
documents, reload datasets with the program's own loader, and never compare
against hashes of earlier outputs. Expected schema strings are the program's
own constants, so a deliberate schema bump is not a failure, but an artifact
that disagrees with its program is.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Iterable


def _load_json(path: Path) -> tuple[object, list[str]]:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8")), []
    except (OSError, ValueError) as exc:
        return None, [f"{path.name}: unreadable JSON ({exc})"]


def _finite(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def check_dataset(path: Path, n_samples: int) -> list[str]:
    """The dataset reloads with the program's own loader and has `n_samples` samples."""
    from pudroid.datasets import load_dataset

    try:
        ds = load_dataset(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{path.name}: does not reload ({exc!r})"]
    if len(ds.samples) != n_samples:
        return [f"{path.name}: {len(ds.samples)} samples, input has {n_samples}"]
    return []


def check_clean_report(path: Path, unlabeled_ids: Iterable[str], schema: str) -> list[str]:
    """Schema, e finite in (0, 1], and every contaminant id drawn from U."""
    report, problems = _load_json(path)
    if problems:
        return problems
    if not isinstance(report, dict) or report.get("schema") != schema:
        return [f"{path.name}: schema is not {schema!r}"]
    e = (report.get("diagnostics") or {}).get("e")
    if not (_finite(e) and 0.0 < e <= 1.0):
        problems.append(f"{path.name}: e = {e!r} is not finite in (0, 1]")
    ids = report.get("contaminant_ids")
    if not isinstance(ids, list):
        return problems + [f"{path.name}: contaminant_ids missing"]
    foreign = sorted(set(ids) - set(unlabeled_ids))
    if foreign:
        problems.append(
            f"{path.name}: {len(foreign)} contaminant ids not in U, e.g. {foreign[0]!r}"
        )
    if len(set(ids)) != len(ids):
        problems.append(f"{path.name}: duplicate contaminant ids")
    return problems


def check_rq2_report(path: Path, schema: str, rows: int = 6) -> list[str]:
    """Schema and `rows` rows whose PU and NPU metrics are all defined."""
    report, problems = _load_json(path)
    if problems:
        return problems
    if not isinstance(report, dict) or report.get("schema") != schema:
        return [f"{path.name}: schema is not {schema!r}"]
    got = report.get("rows")
    if not isinstance(got, list) or len(got) != rows:
        n = len(got) if isinstance(got, list) else 0
        return [f"{path.name}: {n} rows, expected {rows}"]
    for row in got:
        for side in ("pu", "npu"):
            m = row.get(side) if isinstance(row, dict) else None
            keys = ("accuracy", "auc", "f_measure", "detection_rate")
            if not isinstance(m, dict) or not all(_finite(m.get(k)) for k in keys):
                condition = row.get("condition")
                problems.append(f"{path.name}: row {condition!r} {side} metrics undefined")
    return problems


def check_projection(path: Path, n_samples: int) -> list[str]:
    """PCA CSV: header, one row per sample, finite coordinates."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return [f"{path.name}: unreadable ({exc})"]
    if not rows or rows[0] != ["id", "x", "y", "group"]:
        return [f"{path.name}: bad header"]
    if len(rows) - 1 != n_samples:
        return [f"{path.name}: {len(rows) - 1} rows, input has {n_samples}"]
    for row in rows[1:]:
        try:
            ok = len(row) == 4 and math.isfinite(float(row[1])) and math.isfinite(float(row[2]))
        except ValueError:
            ok = False
        if not ok:
            return [f"{path.name}: bad row {row!r}"]
    return []
