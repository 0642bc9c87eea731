"""Tests of the benchmark itself: inputs, span arithmetic, metric names, checks.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


# ---------------------------------------------------------------------------
# seeded inputs


@pytest.mark.parametrize("make", [inputs.forest_inputs, inputs.corpus_inputs])
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(make, tmp_path):
    a = make(tmp_path / "a", 3)
    b = make(tmp_path / "b", 3)
    c = make(tmp_path / "c", 4)
    assert a.sha256 == b.sha256
    assert a.truth_ids == b.truth_ids
    for key in a.sha256:
        assert a.sha256[key] != c.sha256[key], key
    assert a.truth_ids <= a.unlabeled_ids
    assert 900 <= len(a.truth_ids) <= 1100


def test_rq2_input_hash_follows_the_seed():
    assert inputs.rq2_inputs(5).sha256 == inputs.rq2_inputs(5).sha256
    assert inputs.rq2_inputs(5).sha256 != inputs.rq2_inputs(6).sha256


def test_truth_stays_out_of_the_program_inputs(tmp_path):
    inp = inputs.forest_inputs(tmp_path, 0)
    assert '"hidden"' not in inp.files["dataset"].read_text(encoding="utf-8")
    corpus = inputs.corpus_inputs(tmp_path / "corpus", 0)
    manifest = corpus.files["manifest"].read_text(encoding="utf-8")
    assert "truth" not in manifest and "hidden" not in manifest


# ---------------------------------------------------------------------------
# span arithmetic


def _span(name, parent, w0, w1, c0=0.0, c1=0.0):
    return tracing.Span(name, parent, w0, w1, c0, c1)


def test_self_time_of_a_hand_built_span_tree():
    spans = [
        _span("cli", -1, 0.0, 10.0),
        _span("pu.clean_self", 0, 1.0, 6.0),
        _span("classifiers.forest_fit", 1, 2.0, 4.0, 0.5, 2.5),
        _span("pu.dense", 1, 4.0, 4.5),
        _span("report.write", 0, 7.0, 9.0),
        _span("features.validate", 4, 8.5, 9.5),  # overruns its parent by 0.5
    ]
    got = tracing.self_times(spans)
    assert got == pytest.approx([10 - 5 - 2, 5 - 2 - 0.5, 2.0, 0.5, 2 - 0.5, 1.0])

    metrics = tracing.layer_metrics(spans[:5], Counter())
    assert metrics["cli.self_s"] == pytest.approx(3.0)
    assert metrics["pu.clean_self_s"] == pytest.approx(2.5)
    assert metrics["classifiers.forest_fit_s"] == pytest.approx(2.0)
    assert metrics["classifiers.fit_cpu_s"] == pytest.approx(2.0)
    assert metrics["classifiers.fits"] == 1
    seconds = [v for k, v in metrics.items() if k.endswith("_s") and k != "classifiers.fit_cpu_s"]
    assert sum(seconds) == pytest.approx(10.0)


def test_overlapping_children_count_once():
    spans = [
        _span("cli", -1, 0.0, 4.0),
        _span("pu.dense", 0, 1.0, 3.0),
        _span("pu.detect", 0, 2.0, 3.5),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(1.5)


def test_recorder_nests_wrapped_calls():
    rec = tracing.Recorder(spawn=0.0)
    inner = rec.wrap("pu.dense", lambda: 1)
    outer = rec.wrap("pu.clean_self", lambda: inner() + 1)
    assert outer() == 2
    spans = rec.finish(end=1e12)
    assert [(s.name, s.parent) for s in spans] == [
        ("cli", -1), ("pu.clean_self", 0), ("pu.dense", 1)
    ]


# ---------------------------------------------------------------------------
# metric names and the benchmark declaration


def test_metric_names_are_well_formed_and_declared_once():
    spec = run.load_spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))


def test_declared_workloads_and_metrics_match_the_code():
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    proc = {
        "setup_s": 0.2, "wall_s": 2.0, "cpu_s": 1.5, "peak_rss_mb": 9.0,
        "spans": [["cli", -1, 0.0, 2.0, 0.0, 1.5]], "counters": {},
    }
    reps = [run.Rep("trace", [proc]), run.Rep("plain", [proc])]
    raw = {"reps": reps, "setup": [0.1], "quality": {}}
    assert set(run.end_to_end(raw)) == {m["name"] for m in spec["end_to_end"]}
    assert set(run.per_layer(raw)) == {m["name"] for m in spec["per_layer"]}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert max(m["bound"] for m in spec["end_to_end"]) == setup["bound"] <= 0.25


# ---------------------------------------------------------------------------
# output checks


def _clean_report(e=0.5, ids=("u1", "u2")):
    return {
        "schema": "pudroid-clean/1",
        "contaminant_ids": list(ids),
        "diagnostics": {"e": e, "rescale": 1.0, "mean_g_over_pm": 0.9},
    }


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


U = {"u1", "u2", "u3"}


def test_clean_report_check_accepts_a_good_report(tmp_path):
    path = _write(tmp_path, "r.json", _clean_report())
    assert checks.check_clean_report(path, U, "pudroid-clean/1") == []


@pytest.mark.parametrize(
    "report",
    [
        _clean_report(e="undefined"),  # how the program writes a NaN e
        _clean_report(e=0.0),
        _clean_report(e=1.5),
        _clean_report(ids=("u1", "p9")),  # p9 is not in U
        {**_clean_report(), "schema": "pudroid-clean/0"},
    ],
)
def test_clean_report_check_rejects_corruption(tmp_path, report):
    path = _write(tmp_path, "r.json", report)
    assert checks.check_clean_report(path, U, "pudroid-clean/1")


def test_clean_report_check_rejects_a_nan_literal(tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(_clean_report(e=math.nan)), encoding="utf-8")
    assert "NaN" in path.read_text(encoding="utf-8")
    assert checks.check_clean_report(path, U, "pudroid-clean/1")


def _metrics(auc=0.9):
    return {
        "accuracy": 0.9, "auc": auc, "f_measure": 0.8, "detection_rate": 0.7,
        "confusion": {"tp": 7, "fp": 1, "tn": 9, "fn": 3},
    }


def _rq2_report(n_rows=6, auc=0.9):
    rows = [{"condition": f"c{i}", "pu": _metrics(auc), "npu": _metrics()} for i in range(n_rows)]
    return {"schema": "pudroid-report/1", "protocol": "RQ2", "rows": rows}


def test_rq2_check_accepts_six_defined_rows(tmp_path):
    path = _write(tmp_path, "rq2.json", _rq2_report())
    assert checks.check_rq2_report(path, "pudroid-report/1") == []


@pytest.mark.parametrize("report", [_rq2_report(n_rows=5), _rq2_report(auc="undefined")])
def test_rq2_check_rejects_missing_rows_and_undefined_metrics(tmp_path, report):
    path = _write(tmp_path, "rq2.json", report)
    assert checks.check_rq2_report(path, "pudroid-report/1")


def _dataset(n_unlabeled=2):
    return {
        "schema": "pudroid-dataset/1",
        "features": [["a", "api"], ["b", "api"]],
        "positives": [{"id": "p1", "on": [0, 1]}],
        "unlabeled": [{"id": f"u{i}", "on": [1]} for i in range(n_unlabeled)],
    }


def test_dataset_check_counts_samples_and_validates_indices(tmp_path):
    good = _write(tmp_path, "d.json", _dataset())
    assert checks.check_dataset(good, 3) == []
    assert checks.check_dataset(good, 4)
    bad = _dataset()
    bad["positives"][0]["on"] = [1, 0]
    assert checks.check_dataset(_write(tmp_path, "b.json", bad), 3)
    bad["positives"][0]["on"] = [0, 2]  # index outside the two features
    assert checks.check_dataset(_write(tmp_path, "c.json", bad), 3)
    bad = _dataset()
    bad["schema"] = "pudroid-dataset/0"
    assert checks.check_dataset(_write(tmp_path, "e.json", bad), 3)
    bad = _dataset()
    bad["unlabeled"][1]["id"] = "u0"
    assert checks.check_dataset(_write(tmp_path, "f.json", bad), 3)


def test_projection_check(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("id,x,y,group\na,1.5,-2,positive\nb,0,0,unlabeled\n", encoding="utf-8")
    assert checks.check_projection(path, 2) == []
    assert checks.check_projection(path, 3)
    path.write_text("id,x,y,group\na,nan,0,positive\nb,0,0,unlabeled\n", encoding="utf-8")
    assert checks.check_projection(path, 2)
