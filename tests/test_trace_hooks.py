"""The call sites perfbench/tracing.py wraps by name still exist.

The benchmark's traced runs patch pudroid functions by module and name; a
renamed or re-signatured one shows up in `Recorder.missing`, and a hook the
program no longer calls records no span. This runs small commands under those
patches in a separate process, so they leak into no other test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pudroid
from pudroid.datasets import save_dataset
from pudroid.synthetic import SyntheticSpec, generate_synthetic

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from tracing import Recorder, install
rec = Recorder(time.monotonic())
install(rec)
from pudroid.cli import run
codes = [run(argv) for argv in json.loads(sys.argv[2])]
spans = rec.finish(time.monotonic())
print(json.dumps({"codes": codes, "missing": rec.missing, "spans": [s.name for s in spans]}))
"""


def test_every_traced_hook_resolves(tmp_path):
    feats = tmp_path / "feats"
    feats.mkdir()
    (feats / "a.txt").write_text("permission::SEND_SMS\napi::getDeviceId\nurl::evil.example\n")
    (feats / "b.txt").write_text("permission::INTERNET\napi::getDeviceId\n")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("app_id,path,group\na,feats/a.txt,positive\nb,feats/b.txt,unlabeled\n")
    ipmap = tmp_path / "ipmap.tsv"
    ipmap.write_text("evil.example\t9.8.7.6\n")
    spec = SyntheticSpec(n_positive=60, n_negative=120, dimension=20, signal_features=4,
                         n_families=2, label_frequency_c=0.6, seed=1)
    dataset = tmp_path / "synthetic.json"
    save_dataset(generate_synthetic(spec).dataset, dataset)

    def out(name: str) -> str:
        return str(tmp_path / name)

    commands = [
        ["ingest", "--manifest", str(manifest), "--ipmap", str(ipmap), "--out", out("ds.json")],
        ["select-features", "--dataset", out("ds.json"), "--eta", "1", "--out", out("sel.json")],
        ["pca", "--dataset", str(dataset), "--out", out("pca.csv")],
        ["clean", "--dataset", str(dataset), "--n-trees", "3", "--seed", "1",
         "--out", out("forest.json"), "--cleaned-out", out("cleaned.json")],
        ["clean", "--dataset", str(dataset), "--learner", "linear", "--lr", "1.0", "--epochs", "50",
         "--seed", "1", "--out", out("linear.json")],
        *(["experiment", "--protocol", protocol, *flags, "--n-trees", "3",
           "--n-positive", "60", "--n-negative", "120", "--dimension", "20",
           "--signal-features", "4", "--n-families", "2", "--seed", "1",
           "--out", out(f"{protocol}.json")]
          for protocol, flags in (
              ("rq1", ["--iterations", "1", "--step", "5"]),
              ("rq2", ["--ratios", "1"]),
              ("rq3", ["--holdout-family", "1"]),
              ("rq4", ["--ratio", "2"]),
          )),
    ]
    paths = [str(Path(pudroid.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * len(commands), proc.stderr
    assert result["missing"] == []
    # each of the four experiments calls its protocol through the traced name, once
    assert result["spans"].count("protocols.self") == 4, result["spans"]
