"""Each pudroid command's own memory peak, one fresh process per command.

    python3 tools/own_peaks.py [--runs 1]

Imports the benchmark's `perfbench/run.py` (never changed) and, for each of
its workloads, builds the seed-7 inputs with the workload's `prepare` and
runs the commands its `stages` list, in order, in one output directory per
workload. Each command runs in a new process whose output streams go to one
file, as the benchmark's do (a pipe instead moved the pca command's peak by
3 MB), and reads its own VmHWM from /proc/self/status after
`pudroid.cli.run` returns. The script prints a markdown table of them in MB
of 2^20 bytes, with the median over the runs. Unlike `ru_maxrss`, VmHWM is
not inherited from the parent across exec, so it is the command's own peak
however much memory the caller holds. A second table gives the first 8 hex
digits of the sha256 of every file each workload wrote, so a change that
moves an artifact's bytes shows. Exits 1 when a command fails. Linux only.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402  (perfbench/run.py)

SEED = 7

CHILD = """
import sys
from pudroid.cli import run
code = run(sys.argv[1:])
with open("/proc/self/status", encoding="ascii") as fh:
    hwm_kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(f"\\nown-peak {code} {hwm_kib}")
"""


def commands(work: Path) -> list[tuple[str, list[str]]]:
    """(label, argv) of every benchmark command, on inputs built under work."""
    todo = []
    for name, workload in run.WORKLOADS.items():
        inp = workload.prepare(work / name / "inputs", SEED)
        out = work / name / "out"
        out.mkdir(parents=True)
        todo += [(f"{name} {argv[0]}", argv) for argv in workload.stages(inp, out, SEED)]
    return todo


def artifact_hashes(work: Path) -> list[tuple[str, str, str]]:
    """(workload, file name, first 8 hex digits of its sha256) of every output file."""
    return [
        (name, path.name, hashlib.sha256(path.read_bytes()).hexdigest()[:8])
        for name in run.WORKLOADS
        for path in sorted((work / name / "out").iterdir())
    ]


def own_peak_mb(argv: list[str]) -> float:
    """The VmHWM of a fresh process running `pudroid argv`; raises when it fails."""
    env = dict(os.environ)
    env.pop("PUDROID_SEED", None)  # as the benchmark's children run
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryFile("w+", encoding="utf-8") as log:
        done = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env,
                              stdout=log, stderr=subprocess.STDOUT, check=False)
        log.seek(0)
        text = log.read().rstrip()
    last = text.rsplit("\n", 1)[-1].split()
    if done.returncode or last[:2] != ["own-peak", "0"]:
        raise RuntimeError(f"pudroid {argv[0]} failed: {text[-500:]}")
    return int(last[2]) / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=1, help="runs of every command")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        todo = commands(Path(tmp))
        peaks: dict[str, list[float]] = {label: [] for label, _ in todo}
        try:
            for _ in range(args.runs):
                for label, command in todo:
                    peaks[label].append(own_peak_mb(command))
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
        hashes = artifact_hashes(Path(tmp))
    print(f"Own VmHWM per command, seed {SEED}, MB of 2^20 bytes\n")
    print("| workload command | runs | median |")
    print("|---|---|---|")
    for label, values in peaks.items():
        runs = ", ".join(f"{v:.2f}" for v in values)
        print(f"| `{label}` | {runs} | {statistics.median(values):.2f} |")
    print(f"\nsha256 of every file each workload wrote, seed {SEED}, first 8 hex digits\n")
    print("| workload | file | sha256 |")
    print("|---|---|---|")
    for name, file, digest in hashes:
        print(f"| {name} | `{file}` | `{digest}` |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
