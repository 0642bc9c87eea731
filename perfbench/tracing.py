"""Span tracing of one pudroid process, from outside the program.

`install` replaces public functions with timing wrappers at each name through
which the program calls them (`pudroid.cli.clean_and_retrain` and
`pudroid.protocols.clean_and_retrain` are two names for one function), plus
the three learners' `fit`/`score_matrix` and `PUDataset.__post_init__`. Each
span records its name, its parent, and wall and CPU start/end; spans stay in
memory until the process exports them.

A span's self time is its duration minus the time its child spans cover. The
root span `cli` runs from process spawn to the moment the command returned,
so the self times of all spans of a process add up to its wall time, and
`cli.self_s` is the time no layer span covers (interpreter start, imports,
argument parsing).
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict
from typing import Callable, Iterable, NamedTuple

ROOT = "cli"

# traced span names; the per-layer metric `<name>_s` is their summed self time
SPAN_NAMES = (
    "classifiers.forest_fit",
    "classifiers.tree_fit",
    "classifiers.linear_fit",
    "classifiers.score",
    "pu.split",
    "pu.dense",
    "pu.estimate",
    "pu.rescale",
    "pu.detect",
    "pu.clean_self",
    "features.validate",
    "ingest.build",
    "selection.count",
    "selection.project",
    "pca.project",
    "datasets.load",
    "datasets.save",
    "report.write",
    "metrics.compute",
    "synthetic.generate",
    "protocols.self",
)
FIT_SPANS = ("classifiers.forest_fit", "classifiers.tree_fit", "classifiers.linear_fit")


class Span(NamedTuple):
    name: str
    parent: int  # index into the span list, -1 for a root
    wall0: float
    wall1: float
    cpu0: float
    cpu1: float


class Recorder:
    """In-memory span stack of one process; the root span starts at spawn."""

    def __init__(self, spawn: float):
        self._spans: list[list] = [[ROOT, -1, spawn, 0.0, 0.0, 0.0]]
        self._stack = [0]
        self.counters: Counter = Counter()
        self.forests: list = []  # fitted forests, node-counted after the run
        self.missing: list[str] = []  # hooks that did not match the program

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._stack.append(len(self._spans))
            parent = self._stack[-2]
            self._spans.append([name, parent, time.monotonic(), 0.0, time.process_time(), 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self._spans[self._stack.pop()]
                span[3] = time.monotonic()
                span[5] = time.process_time()
            if after is not None:
                try:
                    after(self, args, result)
                except (AttributeError, TypeError, IndexError, KeyError, OSError):
                    self.missing.append(f"counter:{name}")
            return result

        return traced

    def finish(self, end: float) -> list[Span]:
        """Close the root span at `end` and count forest nodes (untimed)."""
        root = self._spans[0]
        root[3], root[5] = end, time.process_time()
        for forest in self.forests:
            self.counters["classifiers.forest_nodes"] += sum(
                _count_nodes(tree) for tree in forest.to_dict()["trees"]
            )
        self.forests.clear()
        return [Span(*s) for s in self._spans]


def _count_nodes(node: dict) -> int:
    if "leaf" in node:
        return 1
    return 1 + _count_nodes(node["absent"]) + _count_nodes(node["present"])


def _patch(rec: Recorder, owner, attr: str, name: str, after: Callable | None = None) -> None:
    raw = owner.__dict__.get(attr)
    if raw is None:
        rec.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return
    if isinstance(raw, classmethod):
        setattr(owner, attr, staticmethod(rec.wrap(name, getattr(owner, attr), after)))
    else:
        setattr(owner, attr, rec.wrap(name, raw, after))


def _add(key: str, value: Callable) -> Callable:
    def after(rec: Recorder, args: tuple, result) -> None:
        rec.counters[key] += value(args, result)

    return after


def _size(index: int) -> Callable:
    return lambda args, result: os.path.getsize(args[index])


def _fit_after(rec: Recorder, args: tuple, result) -> None:
    rec.counters["classifiers.fit_rows"] += len(args[1])


def _forest_after(rec: Recorder, args: tuple, result) -> None:
    _fit_after(rec, args, result)
    rec.forests.append(result)


def _project_after(rec: Recorder, args: tuple, result) -> None:
    rec.counters["selection.candidates"] += args[0].space.dimension
    rec.counters["selection.retained"] += len(args[1])


def _ingest_after(rec: Recorder, args: tuple, result) -> None:
    rec.counters["ingest.files"] += len(args[0])
    rec.counters["ingest.raw_dimension"] += result.space.dimension


def install(rec: Recorder) -> None:
    """Wrap every traced call site of the imported program."""
    from pudroid import classifiers, cli, features, protocols, pu

    dense_mb = _add("pu.dense_mb", lambda a, r: len(a[0]) * a[1] * 8 / 1e6)
    flagged = _add("pu.flagged", lambda a, r: len(r.contaminant_ids))
    for module in (pu, protocols):
        _patch(rec, module, "dense_matrix", "pu.dense", dense_mb)
        _patch(rec, module, "training_arrays", "pu.dense")
    for module in (cli, protocols):
        _patch(rec, module, "clean_and_retrain", "pu.clean_self", flagged)
    _patch(rec, pu, "split_validation", "pu.split")
    _patch(rec, pu, "estimate_e", "pu.estimate")
    _patch(
        rec, pu, "apply_rescale_heuristic", "pu.rescale",
        _add("pu.rescale_fired", lambda a, r: int(r.rescale != a[0].rescale)),
    )
    _patch(rec, pu, "detect_contaminants", "pu.detect")
    _patch(rec, protocols, "compute_metrics", "metrics.compute")

    _patch(rec, classifiers.ForestModel, "fit", "classifiers.forest_fit", _forest_after)
    _patch(rec, classifiers.TreeModel, "fit", "classifiers.tree_fit", _fit_after)
    _patch(rec, classifiers.LinearModel, "fit", "classifiers.linear_fit", _fit_after)
    for model in (classifiers.ForestModel, classifiers.TreeModel, classifiers.LinearModel):
        _patch(rec, model, "score_matrix", "classifiers.score")
    _patch(rec, features.PUDataset, "__post_init__", "features.validate")

    for attr in ("load_manifest", "load_resolver_map"):
        _patch(rec, cli, attr, "ingest.build")
    _patch(rec, cli, "build_dataset", "ingest.build", _ingest_after)
    for attr in ("count_occurrences", "compute_thresholds", "select_features"):
        _patch(rec, cli, attr, "selection.count")
    _patch(rec, cli, "project_dataset", "selection.project", _project_after)
    _patch(
        rec, cli, "pca_project", "pca.project",
        _add("pca.dense_mb", lambda a, r: len(r.rows) * a[0].space.dimension * 8 / 1e6),
    )
    _patch(rec, cli, "projection_csv", "pca.project")
    _patch(rec, cli, "load_dataset", "datasets.load", _add("datasets.bytes_read", _size(0)))
    _patch(rec, cli, "save_dataset", "datasets.save", _add("datasets.bytes_written", _size(1)))
    for attr in ("write_json", "write_report"):
        _patch(rec, cli, attr, "report.write", _add("report.bytes_written", _size(1)))
    _patch(rec, cli, "generate_synthetic", "synthetic.generate")
    rows = _add("protocols.rows", lambda a, r: len(r.rows))
    for attr in ("protocol_rq1", "protocol_rq2", "protocol_rq3", "protocol_rq4"):
        _patch(rec, cli, attr, "protocols.self", rows)


def _covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, end)
        if hi > lo:
            total += hi - lo
            end = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for i, span in enumerate(spans):
        inside = (
            (max(c.wall0, span.wall0), min(c.wall1, span.wall1)) for c in children[i]
        )
        out.append((span.wall1 - span.wall0) - _covered(inside))
    return out


def layer_metrics(spans: list[Span], counters: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced run (all of its processes' spans)."""
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    fit_cpu = 0.0
    for span, own in zip(spans, self_times(spans)):
        self_s[span.name] += own
        calls[span.name] += 1
        if span.name in FIT_SPANS:
            fit_cpu += span.cpu1 - span.cpu0
    out = {f"{name}_s": self_s[name] for name in SPAN_NAMES}
    out[f"{ROOT}.self_s"] = self_s[ROOT]
    out["classifiers.fit_cpu_s"] = fit_cpu
    out["classifiers.fits"] = sum(calls[name] for name in FIT_SPANS)
    out["features.datasets_built"] = calls["features.validate"]
    out["metrics.calls"] = calls["metrics.compute"]
    for key in (
        "classifiers.fit_rows", "classifiers.forest_nodes", "pu.dense_mb", "pu.flagged",
        "pu.rescale_fired", "ingest.files", "ingest.raw_dimension", "selection.retained",
        "pca.dense_mb", "datasets.bytes_read", "datasets.bytes_written",
        "report.bytes_written", "protocols.rows",
    ):
        out[key] = counters[key]
    build_s = self_s["ingest.build"]
    out["ingest.files_per_s"] = counters["ingest.files"] / build_s if build_s > 0 else 0.0
    candidates = counters["selection.candidates"]
    out["selection.kept_ratio"] = counters["selection.retained"] / candidates if candidates else 0.0
    return out
