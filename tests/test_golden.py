"""Golden artifacts: sha256 of small fixed-seed CLI runs.

These pin the exact bytes `clean` and `experiment` write for fixed seeds, so
a refactor that claims to keep behaviour can prove it across commits (the
CLI determinism check only compares two runs of the same code). Forest and
tree scores are means of Laplace leaf fractions and need no BLAS reductions,
so the hashes do not depend on the host. Change a hash only together with a
change that says why the output moved.
"""

import hashlib

import pytest

from pudroid.cli import run
from pudroid.datasets import save_dataset
from pudroid.synthetic import SyntheticSpec, generate_synthetic

GOLDEN = {
    "clean-forest/report": "ff21107b66577f138b1176a2cead83745eb6b76b81cec54ac96f22ae5db2c539",
    "clean-forest/cleaned": "d44e10abd0511f8a48d4d56aedea274e21348126caec28951fe15e432786d5b4",
    "clean-tree/report": "082a356a327efdbd2f82752a05f70cec629321f41a2ee881eca9608e501e818b",
    "clean-tree/cleaned": "4ecb39a885507a2e0b47a08aaab8e29b7101e9ea2e0ffba0116b0ed0fe9f6617",
    "rq2/report": "8c825d9b8ffbe59736b094af971a3c869c10989e590ca8c5f6366ca12181f47e",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    spec = SyntheticSpec(
        n_positive=150, n_negative=300, dimension=40, signal_features=4,
        n_families=2, label_frequency_c=0.5, seed=11,
    )
    path = tmp_path_factory.mktemp("golden") / "ds.json"
    save_dataset(generate_synthetic(spec).dataset, path)
    return path


@pytest.mark.parametrize("learner, flags", [
    ("forest", ["--n-trees", "5"]),
    ("tree", []),
])
def test_clean_artifacts(dataset_file, tmp_path, capsys, learner, flags):
    report, cleaned = tmp_path / "report.json", tmp_path / "cleaned.json"
    code = run([
        "clean", "--dataset", str(dataset_file), "--learner", learner, *flags,
        "--seed", "3", "--out", str(report), "--cleaned-out", str(cleaned),
    ])
    assert code == 0
    assert _sha256(report) == GOLDEN[f"clean-{learner}/report"]
    assert _sha256(cleaned) == GOLDEN[f"clean-{learner}/cleaned"]


def test_rq2_report(tmp_path, capsys):
    report = tmp_path / "rq2.json"
    code = run([
        "experiment", "--protocol", "rq2", "--ratios", "1,3", "--n-trees", "5",
        "--n-positive", "150", "--n-negative", "300", "--dimension", "40",
        "--signal-features", "4", "--n-families", "2", "--seed", "5", "--out", str(report),
    ])
    assert code == 0
    assert _sha256(report) == GOLDEN["rq2/report"]
