"""Seeded inputs for the benchmark workloads.

Every input is a pure function of the workload seed. The ground truth (which
unlabeled samples are really positive) goes to a sidecar file that is never
passed to the program, and every input file is recorded by its sha256 so that
a change to the program's generator shows up as a different input rather
than as a change in speed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

N_SAMPLES = 8000

# analyst-linear corpus shape: 2000 malicious apps, half of them labeled (P),
# the other half hidden in U among 6000 benign apps. The vocabulary sizes and
# Zipf exponent give about 24k raw features after URL resolution, of which
# about 1.8k survive `select-features --eta 6`.
N_MALICIOUS = 2000
N_LABELED = 1000
N_PERMISSIONS = 400
N_APIS = 22000
N_HOSTS = 8000
ZIPF_EXPONENT = 1.0
ZIPF_OFFSET = 2.0
DRAWS = {"permission": 8, "api": 55, "url": 6}  # Poisson mean draws per app
UNRESOLVABLE_SHARE = 0.10
N_SIGNAL = 60  # malicious-only vocabulary
SIGNAL_RATE_MALICIOUS = 0.2
SIGNAL_RATE_BENIGN = 0.01


@dataclass
class Inputs:
    """What one workload's run reads, plus what only the benchmark may read."""

    files: dict[str, Path] = field(default_factory=dict)  # program inputs
    unlabeled_ids: frozenset[str] = frozenset()
    truth_ids: frozenset[str] = frozenset()  # true positives hidden in U
    sha256: dict[str, str] = field(default_factory=dict)


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: Path) -> str:
    return sha256_bytes(Path(path).read_bytes())


def _write_truth(path: Path, truth: list[str]) -> str:
    data = (json.dumps(sorted(truth), indent=0) + "\n").encode("utf-8")
    path.write_bytes(data)
    return sha256_bytes(data)


def _synthetic_dict(seed: int, label_frequency_c: float) -> dict:
    """The program's own synthetic set, as its dataset JSON dictionary."""
    from pudroid.datasets import dataset_to_dict
    from pudroid.synthetic import SyntheticSpec, generate_synthetic

    spec = SyntheticSpec(label_frequency_c=label_frequency_c, seed=seed)
    return dataset_to_dict(generate_synthetic(spec).dataset)


def forest_inputs(out_dir: Path, seed: int) -> Inputs:
    """clean-forest: the default 8000x200 synthetic set with c = 0.5.

    The hidden labels are moved from the dataset JSON into the truth sidecar.
    """
    data = _synthetic_dict(seed, 0.5)
    truth = [s["id"] for s in data["unlabeled"] if s.pop("hidden", None) == 1]
    for s in data["positives"]:
        s.pop("hidden", None)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = out_dir / "dataset.json"
    dataset.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return Inputs(
        files={"dataset": dataset},
        unlabeled_ids=frozenset(s["id"] for s in data["unlabeled"]),
        truth_ids=frozenset(truth),
        sha256={
            "dataset": sha256_file(dataset),
            "truth": _write_truth(out_dir / "truth.json", truth),
        },
    )


def rq2_inputs(seed: int) -> Inputs:
    """rq2-sweep: the program draws its own set from the seed; hash that set."""
    text = json.dumps(_synthetic_dict(seed, 1.0), sort_keys=True)
    return Inputs(sha256={"synthetic": sha256_bytes(text.encode("utf-8"))})


def _zipf(n: int) -> np.ndarray:
    p = 1.0 / (np.arange(n) + ZIPF_OFFSET) ** ZIPF_EXPONENT
    return p / p.sum()


def _draw(rng: np.random.Generator, vocab: int, mean: int) -> list[np.ndarray]:
    """Per-app draws (with repeats) from a Zipf-ranked vocabulary."""
    counts = rng.poisson(mean, size=N_SAMPLES) + 1
    tokens = rng.choice(vocab, size=int(counts.sum()), p=_zipf(vocab))
    return np.split(tokens, np.cumsum(counts)[:-1])


def corpus_inputs(out_dir: Path, seed: int) -> Inputs:
    """analyst-linear: 8000 per-app feature files, a manifest and a resolver map."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 7])))
    permissions = [f"android.permission.P{i:03d}" for i in range(N_PERMISSIONS)]
    apis = [f"Lcom/p{i // 64}/C{i % 64};->run()V" for i in range(N_APIS)]
    hosts = [f"h{i}.n{i % 97}.example" for i in range(N_HOSTS)]
    signal = (
        [f"permission::android.permission.M{k:02d}" for k in range(N_SIGNAL // 3)]
        + [f"api::Lmal/Payload{k};->exec()V" for k in range(N_SIGNAL // 3)]
        + [f"url::c2-{k}.bad.example" for k in range(N_SIGNAL - 2 * (N_SIGNAL // 3))]
    )
    signal_hosts = [line.split("::", 1)[1] for line in signal if line.startswith("url::")]

    # resolver map: hosts share /24 prefixes; a tenth of the hosts has no entry
    prefixes = rng.integers(0, N_HOSTS // 2, size=N_HOSTS)
    resolvable = rng.random(N_HOSTS) >= UNRESOLVABLE_SHARE
    last_octet = rng.integers(1, 255, size=N_HOSTS)
    ipmap_lines = []
    for i in np.flatnonzero(resolvable):
        j = int(prefixes[i])
        ipmap_lines.append(
            f"{hosts[i]}\t{11 + j // 62500}.{(j // 250) % 250}.{j % 250}.{last_octet[i]}"
        )
    for k, host in enumerate(signal_hosts):
        ipmap_lines.append(f"{host}\t9.9.{k}.1")

    malicious = np.zeros(N_SAMPLES, dtype=bool)
    malicious[rng.permutation(N_SAMPLES)[:N_MALICIOUS]] = True
    labeled = np.zeros(N_SAMPLES, dtype=bool)
    labeled[rng.permutation(np.flatnonzero(malicious))[:N_LABELED]] = True
    draws = {
        "permission": _draw(rng, N_PERMISSIONS, DRAWS["permission"]),
        "api": _draw(rng, N_APIS, DRAWS["api"]),
        "url": _draw(rng, N_HOSTS, DRAWS["url"]),
    }
    names = {"permission": permissions, "api": apis, "url": hosts}
    signal_rate = np.where(malicious, SIGNAL_RATE_MALICIOUS, SIGNAL_RATE_BENIGN)
    signal_on = rng.random((N_SAMPLES, N_SIGNAL)) < signal_rate[:, None]

    apps_dir = out_dir / "apps"
    apps_dir.mkdir(parents=True, exist_ok=True)
    corpus_hash = hashlib.sha256()
    manifest_lines = ["app_id,path,group"]
    unlabeled, truth = [], []
    for i in range(N_SAMPLES):
        app_id = f"app-{i:05d}"
        lines = ["# generated feature file"]
        for kind in ("permission", "api", "url"):
            pool = names[kind]
            lines.extend(f"{kind}::{pool[t]}" for t in np.unique(draws[kind][i]))
        lines.extend(signal[k] for k in np.flatnonzero(signal_on[i]))
        data = ("\n".join(lines) + "\n").encode("utf-8")
        (apps_dir / f"{app_id}.txt").write_bytes(data)
        corpus_hash.update(data)
        manifest_lines.append(
            f"{app_id},apps/{app_id}.txt,{'positive' if labeled[i] else 'unlabeled'}"
        )
        if not labeled[i]:
            unlabeled.append(app_id)
            if malicious[i]:
                truth.append(app_id)

    manifest = out_dir / "manifest.csv"
    manifest.write_text("\n".join(manifest_lines) + "\n", encoding="utf-8")
    ipmap = out_dir / "ipmap.tsv"
    ipmap.write_text("\n".join(ipmap_lines) + "\n", encoding="utf-8")
    return Inputs(
        files={"manifest": manifest, "ipmap": ipmap},
        unlabeled_ids=frozenset(unlabeled),
        truth_ids=frozenset(truth),
        sha256={
            "feature_files": corpus_hash.hexdigest(),
            "manifest": sha256_file(manifest),
            "ipmap": sha256_file(ipmap),
            "truth": _write_truth(out_dir / "truth.json", truth),
        },
    )
