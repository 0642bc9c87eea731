"""pudroid benchmark: CLI workloads with end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is clean-forest, analyst-linear, rq2-sweep, or `all` (each in turn,
with a table of every metric by name and unit). The run makes its inputs
from the seed under `.perfbench_out/` in the repository root, drives the
`pudroid` command exactly as a user types it (`pudroid.cli.run(argv)` in a
fresh process per command, one process at a time), repeats the workload
while another repetition fits in `--seconds`, checks every artifact, and
prints one JSON result as its last line. With `--trace 0` it reports the end-to-end metrics
of the untraced repetitions; with `--trace 1` it first makes one traced
repetition and reports per-layer metrics from it. Details, provenance and
the input hashes go to `.perfbench_out/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

import checks  # noqa: E402  (sibling modules; this directory is sys.path[0])
import inputs  # noqa: E402
import tracing  # noqa: E402

N_PROBES = 5  # import-only processes per run, on top of one warm-up
PROCESS_TIMEOUT_S = 120  # a command takes ~10 s; a run must end within 180 s
N = inputs.N_SAMPLES

LIMITS = [
    "ingest reads its corpus with a warm page cache: dropping caches is not allowed here",
    "no hardware counters: CPU time is user+sys from getrusage",
    "shared host: other tenants' load changes CPU speed over minutes; it shows in wall_s "
    "and cpu_s alike, and the guest's steal time does not account for it",
    "cpu_s includes OpenBLAS worker threads, spinning ones too",
]


# ---------------------------------------------------------------------------
# workloads


def _schemas() -> dict[str, str]:
    from pudroid import report

    return {
        "clean": report.CLEAN_SCHEMA,
        "report": report.REPORT_SCHEMA,
    }


def _clean_quality(inp: inputs.Inputs, report: Path) -> dict[str, float]:
    """Flagged ids against the planted truth the program never saw."""
    flagged = set(json.loads(report.read_text(encoding="utf-8"))["contaminant_ids"])
    hit = len(flagged & inp.truth_ids)
    return {
        "recall": hit / len(inp.truth_ids),
        "precision": hit / len(flagged) if flagged else 0.0,
    }


def _rq2_quality(inp: inputs.Inputs, report: Path) -> dict[str, float]:
    """Means over rows: PU test detection rate and precision, PU-NPU gap, PU AUC."""
    rows = json.loads(report.read_text(encoding="utf-8"))["rows"]
    pu = [r["pu"] for r in rows]

    def precision(m: dict) -> float:
        tp, fp = m["confusion"]["tp"], m["confusion"]["fp"]
        return tp / (tp + fp) if tp + fp else 0.0

    return {
        "recall": statistics.fmean(m["detection_rate"] for m in pu),
        "precision": statistics.fmean(precision(m) for m in pu),
        "protocols.detection_gap": statistics.fmean(
            r["pu"]["detection_rate"] - r["npu"]["detection_rate"] for r in rows
        ),
        "protocols.pu_auc": statistics.fmean(m["auc"] for m in pu),
    }


def load_spec() -> dict:
    """BENCHMARK.json: the one declaration of metric names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# Why each workload exists is recorded in BENCHMARK.json.
@dataclass(frozen=True)
class Workload:
    prepare: Callable[[Path, int], inputs.Inputs]
    stages: Callable[[inputs.Inputs, Path, int], list[list[str]]]
    check: Callable[[inputs.Inputs, Path, dict], list[str]]
    quality: Callable[[inputs.Inputs, Path], dict[str, float]]


def _clean_argv(dataset: Path, learner: str, out: Path, seed: int) -> list[str]:
    return [
        "clean", "--dataset", str(dataset), "--learner", learner, "--seed", str(seed),
        "--out", str(out / "report.json"), "--cleaned-out", str(out / "cleaned.json"),
    ]


def _check_clean(inp: inputs.Inputs, out: Path, schemas: dict) -> list[str]:
    return checks.check_clean_report(
        out / "report.json", inp.unlabeled_ids, schemas["clean"]
    ) + checks.check_dataset(out / "cleaned.json", N)


def _analyst_stages(inp: inputs.Inputs, out: Path, seed: int) -> list[list[str]]:
    return [
        ["ingest", "--manifest", str(inp.files["manifest"]),
         "--ipmap", str(inp.files["ipmap"]), "--out", str(out / "raw.json")],
        ["select-features", "--dataset", str(out / "raw.json"), "--eta", "6",
         "--out", str(out / "selected.json")],
        ["pca", "--dataset", str(out / "selected.json"), "--out", str(out / "projection.csv")],
        _clean_argv(out / "selected.json", "linear", out, seed),
    ]


def _check_analyst(inp: inputs.Inputs, out: Path, schemas: dict) -> list[str]:
    problems = _check_clean(inp, out, schemas)
    for name in ("raw.json", "selected.json"):
        problems += checks.check_dataset(out / name, N)
    return problems + checks.check_projection(out / "projection.csv", N)


WORKLOADS = {
    "clean-forest": Workload(
        prepare=inputs.forest_inputs,
        stages=lambda inp, out, seed: [_clean_argv(inp.files["dataset"], "forest", out, seed)],
        check=_check_clean,
        quality=lambda inp, out: _clean_quality(inp, out / "report.json"),
    ),
    "analyst-linear": Workload(
        prepare=inputs.corpus_inputs,
        stages=_analyst_stages,
        check=_check_analyst,
        quality=lambda inp, out: _clean_quality(inp, out / "report.json"),
    ),
    "rq2-sweep": Workload(
        prepare=lambda work, seed: inputs.rq2_inputs(seed),
        stages=lambda inp, out, seed: [[
            "experiment", "--protocol", "rq2", "--ratios", "1,3,8", "--n-trees", "30",
            "--seed", str(seed), "--out", str(out / "rq2.json"),
        ]],
        check=lambda inp, out, schemas: checks.check_rq2_report(
            out / "rq2.json", schemas["report"]
        ),
        quality=lambda inp, out: _rq2_quality(inp, out / "rq2.json"),
    ),
}


# ---------------------------------------------------------------------------
# processes and repetitions


class BenchError(Exception):
    """The benchmark cannot run at all (as opposed to the program failing)."""


def spawn(mode: str, argv: list[str], meta: Path, tag: str) -> dict:
    """One child process, run to completion; its stats, or why it failed."""
    stats_path, log_path = meta / f"{tag}.stats.json", meta / f"{tag}.log"
    env = dict(os.environ)
    env.pop("PUDROID_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "child.py"), str(stats_path), mode, *argv]
    with open(log_path, "wb") as log:
        env["PERFBENCH_SPAWN"] = repr(time.monotonic())
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        try:
            proc.wait(timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass  # killed below; the missing stats file marks the failure
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or not stats_path.exists():
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        return {"exit_code": proc.returncode, "log": tail}
    stats = json.loads(stats_path.read_text(encoding="utf-8"))
    if stats.get("exit_code", 0) != 0:
        stats["log"] = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
    return stats


@dataclass
class Rep:
    mode: str
    procs: list[dict] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(p.get("wall_s", 0.0) for p in self.procs)

    @property
    def cpu_s(self) -> float:
        return sum(p.get("cpu_s", 0.0) for p in self.procs)

    @property
    def peak_rss_mb(self) -> float:
        return max((p.get("peak_rss_mb", 0.0) for p in self.procs), default=0.0)

    def spans(self) -> list[tracing.Span]:
        """All processes' spans in one list, parent indices rebased."""
        out: list[tracing.Span] = []
        for proc in self.procs:
            base = len(out)
            for s in proc.get("spans", []):
                span = tracing.Span(*s)
                out.append(span._replace(parent=span.parent + base if span.parent >= 0 else -1))
        return out


def run_rep(wl: Workload, inp: inputs.Inputs, rep_dir: Path, seed: int, mode: str) -> Rep:
    """One repetition: the workload's commands in order, then artifact hashes."""
    out = rep_dir / "out"
    out.mkdir(parents=True)
    rep = Rep(mode)
    for i, argv in enumerate(wl.stages(inp, out, seed)):
        stats = spawn(mode, argv, rep_dir, f"stage{i}")
        rep.procs.append(stats)
        if stats.get("exit_code") != 0:
            rep.problems.append(
                f"`pudroid {argv[0]}` exited with {stats.get('exit_code')}: {stats.get('log', '')}"
            )
            break
        if stats.get("missing_hooks"):
            rep.problems.append(f"trace hooks not found: {stats['missing_hooks']}")
    rep.hashes = {p.name: inputs.sha256_file(p) for p in sorted(out.iterdir())}
    if mode == "trace" and not rep.problems:
        spans = rep.spans()
        total = sum(tracing.self_times(spans))
        if abs(total - rep.wall_s) > 1e-6 * len(spans):
            rep.problems.append(f"span self times sum to {total}, traced wall is {rep.wall_s}")
    return rep


def measure(wl: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Inputs, set-up probes and repetitions of one workload; the raw results."""
    load_before = os.getloadavg()
    inp = wl.prepare(work / "inputs", seed)
    meta = work / "probes"
    meta.mkdir(parents=True)
    warm = spawn("probe", [], meta, "warm")
    if "blas" not in warm:
        raise BenchError(f"pudroid does not import: {warm.get('log', '')}")
    setup = [spawn("probe", [], meta, f"probe{i}").get("setup_s") for i in range(N_PROBES)]

    schemas = _schemas()
    reps: list[Rep] = []
    quality: dict[str, float] = {}
    durations: list[float] = []
    start = time.monotonic()
    modes = ["trace"] if trace else []
    while True:
        mode = modes.pop() if modes else "plain"
        rep_dir = work / f"rep{len(reps)}"
        began = time.monotonic()
        rep = run_rep(wl, inp, rep_dir, seed, mode)
        if mode == "plain":
            durations.append(time.monotonic() - began)
        if not rep.problems:
            # artifacts identical to an already checked first repetition
            # share its verdict; anything else is checked in full
            if reps and rep.hashes != reps[0].hashes:
                rep.problems.append("artifacts differ from the first (traced, if any) repetition")
            if not reps or rep.problems:
                rep.problems += wl.check(inp, rep_dir / "out", schemas)
            else:
                rep.problems = list(reps[0].problems)
            if not rep.problems and not quality:
                quality = wl.quality(inp, rep_dir / "out")
        reps.append(rep)
        shutil.rmtree(rep_dir)
        # start another repetition only if it should end within --seconds
        if durations and time.monotonic() - start + statistics.median(durations) > seconds:
            break
    return {
        "inputs": inp,
        "warm": warm,
        "setup": [s for s in setup if s is not None],
        "reps": reps,
        "quality": quality,
        "load_before": load_before,
        "load_after": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# metrics and provenance


def end_to_end(raw: dict) -> dict[str, float]:
    reps: list[Rep] = raw["reps"]
    plain = [r for r in reps if r.mode == "plain"]
    timed = [r for r in plain if not r.problems] or plain
    setup = raw["setup"] + [p["setup_s"] for r in reps for p in r.procs if "setup_s" in p]
    wall = statistics.median(r.wall_s for r in timed)
    return {
        "wall_s": wall,
        "cpu_s": statistics.median(r.cpu_s for r in timed),
        "samples_per_s": N / wall if wall > 0 else 0.0,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in timed),
        "ok_share": sum(not r.problems for r in reps) / len(reps),
        "recall": raw["quality"].get("recall", 0.0),
        "precision": raw["quality"].get("precision", 0.0),
    }


def per_layer(raw: dict) -> dict[str, float]:
    traced = raw["reps"][0]
    counters: Counter = Counter()
    for proc in traced.procs:
        counters.update(proc.get("counters", {}))
    out = tracing.layer_metrics(traced.spans(), counters)
    plain = [r.wall_s for r in raw["reps"] if r.mode == "plain"]
    out["trace.overhead_s"] = traced.wall_s - statistics.median(plain)
    for key in ("protocols.detection_gap", "protocols.pu_auc"):
        out[key] = raw["quality"].get(key, 0.0)
    return out


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "pudroid").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(name: str, seed: int, seconds: float, trace: bool, raw: dict) -> dict:
    blas = raw["warm"]["blas"]
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": blas["numpy"],
        "blas": {k: blas.get(k) for k in ("library", "config", "threads")},
        "load_before": raw["load_before"],
        "load_after": raw["load_after"],
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "inputs_sha256": raw["inputs"].sha256,
        "repetitions": [
            {"mode": r.mode, "wall_s": r.wall_s, "cpu_s": r.cpu_s, "peak_rss_mb": r.peak_rss_mb}
            for r in raw["reps"]
        ],
        "setup_samples": len(raw["setup"]) + sum(len(r.procs) for r in raw["reps"]),
        "limits": LIMITS,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """Measure one workload; write its details file; return the result object."""
    work = OUT / "work" / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        raw = measure(WORKLOADS[name], seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    values = per_layer(raw) if trace else end_to_end(raw)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(values) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    reps: list[Rep] = raw["reps"]
    failed = sum(bool(r.problems) for r in reps)
    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    details = {
        "result": result,
        "provenance": provenance(name, seed, seconds, trace, raw),
        "problems": [p for r in reps for p in r.problems],
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(details, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    for problem in details["problems"]:
        print(f"{name}: FAILED CHECK: {problem}", file=sys.stderr)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that `spawn` kills its child and the work directory goes
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "pudroid" / "cli.py").is_file():
        print(f"error: no pudroid source at {SRC / 'pudroid'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = load_spec()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
            results[name] = result
            print(f"== {name}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, v in result["metrics"].items():
                print(f"  {metric:32s} {v['value']:>16.6f} {v['unit']}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": v
                for name, r in results.items()
                for metric, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
