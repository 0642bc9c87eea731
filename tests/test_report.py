import json
import math

from pudroid.datasets import dataset_to_dict, load_dataset, save_dataset
from pudroid.metrics import compute_metrics
from pudroid.report import ExperimentReport, ReportRow, dumps, write_report
from pudroid.synthetic import SyntheticSpec, generate_synthetic


def _metrics():
    return compute_metrics([1, 0], [0.9, 0.1])


def _undefined_auc_metrics():
    return compute_metrics([1, 1], [0.9, 0.1])


class TestCanonicalJson:
    def test_sorted_keys_and_trailing_newline(self):
        text = dumps({"b": 1, "a": 2})
        assert text == '{\n  "a": 2,\n  "b": 1\n}\n'

    def test_floats_limited_to_nine_significant_digits(self):
        text = dumps({"x": 0.12345678912345})
        assert json.loads(text)["x"] == 0.123456789

    def test_nan_becomes_undefined(self):
        assert json.loads(dumps({"x": float("nan")}))["x"] == "undefined"

    def test_nested_structures(self):
        payload = {"rows": [{"v": float("nan")}, {"v": (1.0, 2.0)}]}
        out = json.loads(dumps(payload))
        assert out["rows"][0]["v"] == "undefined"
        assert out["rows"][1]["v"] == [1.0, 2.0]


class TestExperimentReport:
    def test_round_trip_structure(self, tmp_path):
        report = ExperimentReport(
            protocol="RQ1",
            rows=(
                ReportRow("N=0", _metrics(), _metrics()),
                ReportRow("N=1", _undefined_auc_metrics(), _metrics()),
            ),
            config={"step": 100},
            seed=3,
        )
        path = tmp_path / "report.json"
        write_report(report, path)
        data = json.loads(path.read_text())
        assert data["schema"] == "pudroid-report/1"
        assert [r["condition"] for r in data["rows"]] == ["N=0", "N=1"]
        assert data["rows"][1]["pu"]["auc"] == "undefined"
        assert data["seed"] == 3

    def test_serialization_is_byte_stable(self, tmp_path):
        report = ExperimentReport("RQ2", (ReportRow("1:1", _metrics(), _metrics()),), {}, 0)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        write_report(report, a)
        write_report(report, b)
        assert a.read_bytes() == b.read_bytes()


class TestDatasetRoundTrip:
    def test_save_load_identity(self, tmp_path):
        spec = SyntheticSpec(
            n_positive=20, n_negative=40, dimension=20, signal_features=4,
            n_families=2, label_frequency_c=0.7, seed=9,
        )
        ds = generate_synthetic(spec).dataset
        path = tmp_path / "ds.json"
        save_dataset(ds, path)
        assert dataset_to_dict(load_dataset(path)) == dataset_to_dict(ds)

    def test_hidden_labels_survive_round_trip(self, tmp_path):
        ds = generate_synthetic(
            SyntheticSpec(n_positive=5, n_negative=5, dimension=10,
                          signal_features=2, n_families=1, seed=0)
        ).dataset
        path = tmp_path / "ds.json"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.samples.hidden.tolist() == ds.samples.hidden.tolist()

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "ds.json"
        path.write_text('{"schema": "other/1", "features": [], "positives": [], "unlabeled": []}')
        try:
            load_dataset(path)
        except ValueError as exc:
            assert "schema" in str(exc)
        else:
            raise AssertionError("expected a schema error")
