"""Golden artifacts: sha256 of small fixed-seed CLI runs.

These pin the exact bytes `ingest`, `select-features`, `clean` and
`experiment` write for fixed seeds and a fixed corpus, so
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
    "rq2/report": "5771bd12ffbca8b4714930661c74c047766c9433fde5c611eedfc6cec624802d",
    "rq3/report": "89ef10729526b16d4b80035dcdf55b8ba46c5786a384e878f2698e0022c4ce36",
    "rq4/report": "b490eb4e4a9907cd1301070672464b8e83375e18f0add77becd98969237fd8eb",
    "ingest/raw": "cbb5446925883c7801f25d4c472502097c02fbe70939859be7ee46a7fd9f8444",
    "select/selected": "b5c5dc3397c898db8467af274da77ad183ef9616e62647df080dc679f8290880",
    "clean-selected/report": "b0b36007bfb51a32a608b4a19cb12eb209bfe08ea43cf13937428e3dac79b96f",
    "clean-selected/cleaned": "ba500c6c43198fc6fa8c0a086fdcab509c00a31d32f8aa65e6167bbb897864be",
    "clean-selected-discard/report": "ce193ba1a994728a0cc1dd8cfe970953750b7b56f15dfb7a2a8d713718c9d369",
    "clean-selected-discard/cleaned": "df0dd13a80d293e3dda4ff97a7d1b182fadc72fba235110f99a5c083683cda23",
    "rq1-tree/report": "a5f2f73807472bcf72bebfb6efa49cba23d2126fa2751fca7795633731d11cec",
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


def _experiment_sha256(tmp_path, protocol: str, flags: list[str]) -> str:
    report = tmp_path / f"{protocol}.json"
    code = run([
        "experiment", "--protocol", protocol, *flags,
        "--n-positive", "150", "--n-negative", "300", "--dimension", "40",
        "--signal-features", "4", "--n-families", "2", "--seed", "5", "--out", str(report),
    ])
    assert code == 0
    return _sha256(report)


def test_rq2_report(tmp_path, capsys):
    sha = _experiment_sha256(tmp_path, "rq2", ["--ratios", "1,3", "--n-trees", "5"])
    assert sha == GOLDEN["rq2/report"]


@pytest.mark.parametrize("protocol, flags", [
    ("rq3", ["--family-exclusive"]),
    ("rq4", ["--ratio", "3", "--n-trees", "5"]),
])
def test_rq3_rq4_reports(tmp_path, capsys, protocol, flags):
    assert _experiment_sha256(tmp_path, protocol, flags) == GOLDEN[f"{protocol}/report"]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """(manifest, ipmap) of 90 apps, apps 0-44 malicious: 30 of them labeled
    positive, the rest hidden in U among the 45 benign. The manifest lists the
    apps out of group order, so ingest gathers both groups from scattered rows."""
    root = tmp_path_factory.mktemp("corpus")
    for i in range(90):
        lines = [f"permission::P{i * j % 11}" for j in range(1, 4)]
        lines += [f"api::call{(i * i + 3 * j) % 29}" for j in range(4 + i % 5)]
        if i < 45:
            lines += ["permission::SEND_SMS", "api::getDeviceId", f"api::exec{i % 4}"]
        lines += ["# comment", f"url::host{i % 6}.example", f"ip::10.{i % 4}.{i % 7}.{i}"]
        (root / f"app{i}.txt").write_text("\n".join(lines) + "\n")
    order = [i * 37 % 90 for i in range(90)]
    manifest = root / "manifest.csv"
    manifest.write_text("app_id,path,group\n" + "".join(
        f"app-{i},app{i}.txt,{'positive' if i < 30 else 'unlabeled'}\n" for i in order
    ))
    ipmap = root / "ipmap.tsv"
    ipmap.write_text("".join(f"host{h}.example\t192.0.{h}.{h + 7}\n" for h in range(4)))
    return manifest, ipmap


@pytest.fixture(scope="module")
def selected_file(corpus, tmp_path_factory):
    """(raw, selected): the corpus ingested, then its features selected."""
    manifest, ipmap = corpus
    out = tmp_path_factory.mktemp("selected")
    raw, selected = out / "raw.json", out / "selected.json"
    assert run(["ingest", "--manifest", str(manifest), "--ipmap", str(ipmap),
                "--out", str(raw)]) == 0
    assert run(["select-features", "--dataset", str(raw), "--out", str(selected)]) == 0
    return raw, selected


def test_ingest_and_select_artifacts(selected_file):
    raw, selected = selected_file
    assert _sha256(raw) == GOLDEN["ingest/raw"]
    assert _sha256(selected) == GOLDEN["select/selected"]


@pytest.mark.parametrize("name, flags", [
    ("clean-selected", []),
    ("clean-selected-discard", ["--discard"]),
])
def test_clean_selected_artifacts(selected_file, tmp_path, capsys, name, flags):
    report, cleaned = tmp_path / "report.json", tmp_path / "cleaned.json"
    code = run([
        "clean", "--dataset", str(selected_file[1]), "--learner", "tree", *flags,
        "--seed", "3", "--out", str(report), "--cleaned-out", str(cleaned),
    ])
    assert code == 0
    assert _sha256(report) == GOLDEN[f"{name}/report"]
    assert _sha256(cleaned) == GOLDEN[f"{name}/cleaned"]


def test_rq1_tree_report(tmp_path, capsys):
    report = tmp_path / "rq1.json"
    code = run([
        "experiment", "--protocol", "rq1", "--learner", "tree", "--iterations", "2",
        "--step", "30", "--n-positive", "150", "--n-negative", "300", "--dimension", "40",
        "--signal-features", "4", "--n-families", "2", "--seed", "5", "--out", str(report),
    ])
    assert code == 0
    assert _sha256(report) == GOLDEN["rq1-tree/report"]
