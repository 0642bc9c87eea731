"""Command-line front end: ingest, select-features, clean, experiment, pca.

Exit codes: 0 success, 1 usage error, 2 data or validation error, 3 I/O
error. Diagnostics go to stderr; every output artifact echoes the effective
configuration and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

from . import __version__
from .classifiers import ForestParams, Learner, LinearParams, TrainConfig, TreeParams
from .datasets import load_dataset, save_dataset
from .features import PUDataset
from .ingest import build_dataset, load_manifest, load_resolver_map
from .pca import pca_project, projection_csv
from .protocols import protocol_rq1, protocol_rq2, protocol_rq3, protocol_rq4
from .pu import clean_and_retrain
from .report import CLEAN_SCHEMA, write_json, write_report
from .selection import (
    THRESHOLD_RULE,
    SelectionThresholds,
    compute_thresholds,
    count_occurrences,
    project_dataset,
    select_features,
)
from .synthetic import SyntheticSpec, generate_synthetic


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 instead of argparse's 2
        raise UsageError(message)


def _at_least(low: float, kind: type = float):
    """argparse type: a finite `kind` >= low; a bad value exits 1 naming its flag."""
    rule = "finite" if low == -math.inf else f"finite and >= {low:g}"

    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value) and value >= low):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid float value"
    return parse


def _ratio(text: str) -> float:
    try:
        return _at_least(0)(text)
    except ValueError:  # else argparse names this module's parser function, not the ratio
        raise argparse.ArgumentTypeError(f"ratio {text!r} is not a number") from None


def _ratio_list(text: str) -> list[float]:
    return [_ratio(r) for r in text.split(",") if r.strip()]


def _seed_from_env() -> int:
    raw = os.environ.get("PUDROID_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"PUDROID_SEED must be an integer, got {raw!r}") from None


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--learner", choices=[l.value for l in Learner], default="forest")
    p.add_argument("--lr", type=float, default=0.1, help="linear learning rate")
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--l2", type=float, default=1e-3)
    p.add_argument("--max-depth", type=int, default=12)
    p.add_argument("--min-leaf", type=int, default=5)
    p.add_argument("--n-trees", type=int, default=100)
    p.add_argument("--features-per-split", default="sqrt")
    p.add_argument("--no-bootstrap", action="store_true")


def _train_config(args: argparse.Namespace) -> TrainConfig:
    fps = args.features_per_split
    fps = int(fps) if fps.isdecimal() else fps  # ForestParams names any other bad value
    try:
        return TrainConfig(
            seed=args.seed,
            learner=Learner(args.learner),
            linear=LinearParams(args.lr, args.epochs, args.l2),
            tree=TreeParams(args.max_depth, args.min_leaf),
            forest=ForestParams(args.n_trees, fps, not args.no_bootstrap),
        )
    except ValueError as exc:  # a params check, naming its parameter
        raise UsageError(str(exc)) from None


def _ingest(args: argparse.Namespace) -> PUDataset:
    manifest = load_manifest(args.manifest)
    resolver = load_resolver_map(args.ipmap)
    return build_dataset(manifest, resolver, Path(args.manifest).parent)


def _load_input_dataset(args: argparse.Namespace) -> PUDataset:
    if args.dataset:
        return load_dataset(args.dataset)
    if not (args.manifest and args.ipmap):
        raise UsageError("provide either --dataset or both --manifest and --ipmap")
    return _ingest(args)


def _spec_from_args(args: argparse.Namespace) -> SyntheticSpec:
    values = {}
    if args.spec_file:
        for lineno, raw in enumerate(
            Path(args.spec_file).read_text(encoding="utf-8").splitlines(), 1
        ):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{args.spec_file}: line {lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            values[key] = value
    fields = {f.name: f.type for f in dataclasses.fields(SyntheticSpec)}
    spec_kwargs = {}
    for key, value in values.items():
        if key not in fields:
            raise ValueError(f"unknown generator spec key {key!r}")
        if key in ("flip_noise", "label_frequency_c"):
            spec_kwargs[key] = float(value)
        elif key == "family_exclusive":
            spec_kwargs[key] = value.lower() in ("1", "true", "yes")
        else:
            spec_kwargs[key] = int(value)
    for key in (
        "n_positive", "n_negative", "dimension", "signal_features", "n_families",
        "flip_noise", "label_frequency_c",
    ):
        if getattr(args, key) is not None:
            spec_kwargs[key] = getattr(args, key)
    if args.family_exclusive:
        spec_kwargs["family_exclusive"] = True
    spec_kwargs["seed"] = args.seed
    return SyntheticSpec(**spec_kwargs)


def build_parser() -> _Parser:
    parser = _Parser(prog="pudroid", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pudroid {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="build a dataset from a manifest")
    p_ingest.add_argument("--manifest", required=True)
    p_ingest.add_argument("--ipmap", required=True)
    p_ingest.add_argument("--out", required=True)

    p_sel = sub.add_parser("select-features", help="occurrence-threshold selection")
    p_sel.add_argument("--dataset", required=True)
    p_sel.add_argument("--eta", type=_at_least(1), default=2.0)
    p_sel.add_argument("--tm-override", type=int, default=None)
    p_sel.add_argument("--tb-override", type=int, default=None)
    p_sel.add_argument("--out", required=True)
    p_sel.add_argument("--features-out", default=None, help="retained feature names, one per line")

    p_clean = sub.add_parser("clean", help="detect and relabel contaminants")
    p_clean.add_argument("--dataset", default=None)
    p_clean.add_argument("--manifest", default=None)
    p_clean.add_argument("--ipmap", default=None)
    p_clean.add_argument("--split-fraction", type=float, default=0.2)
    p_clean.add_argument("--rescale-trigger", type=_at_least(-math.inf), default=0.7)
    p_clean.add_argument("--rescale-target", type=float, default=1.0)
    p_clean.add_argument("--discard", action="store_true", help="drop contaminants instead of relabeling")
    p_clean.add_argument("--seed", type=int, default=None, help="default: $PUDROID_SEED or 0")
    p_clean.add_argument("--out", required=True)
    p_clean.add_argument("--cleaned-out", default=None, help="write the cleaned dataset here")
    _add_train_flags(p_clean)

    p_exp = sub.add_parser("experiment", help="run a contamination protocol")
    p_exp.add_argument("--protocol", required=True, choices=["rq1", "rq2", "rq3", "rq4"])
    p_exp.add_argument("--spec-file", default=None, help="generator spec as key=value lines")
    p_exp.add_argument("--n-positive", type=int, default=None, dest="n_positive")
    p_exp.add_argument("--n-negative", type=int, default=None, dest="n_negative")
    p_exp.add_argument("--dimension", type=int, default=None)
    p_exp.add_argument("--signal-features", type=int, default=None, dest="signal_features")
    p_exp.add_argument("--n-families", type=int, default=None, dest="n_families")
    p_exp.add_argument("--flip-noise", type=float, default=None, dest="flip_noise")
    p_exp.add_argument("--label-frequency-c", type=float, default=None, dest="label_frequency_c")
    p_exp.add_argument(
        "--family-exclusive", action="store_true",
        help="give each family its own disjoint signal block",
    )
    p_exp.add_argument("--iterations", type=_at_least(0, int), default=5)
    p_exp.add_argument("--step", type=_at_least(1, int), default=100)
    p_exp.add_argument("--ratios", type=_ratio_list, default="1,2,3,4,5,6,7,8")
    p_exp.add_argument("--ratio", type=_at_least(0), default=8.0)
    p_exp.add_argument("--holdout-family", type=int, default=None)
    p_exp.add_argument("--split-fraction", type=float, default=0.2)
    p_exp.add_argument("--seed", type=int, default=None, help="default: $PUDROID_SEED or 0")
    p_exp.add_argument("--out", required=True)
    _add_train_flags(p_exp)

    p_pca = sub.add_parser("pca", help="2-D PCA projection as CSV")
    p_pca.add_argument("--dataset", required=True)
    p_pca.add_argument("--out", required=True)

    return parser


def _cmd_ingest(args: argparse.Namespace) -> None:
    save_dataset(_ingest(args), args.out)


def _cmd_select(args: argparse.Namespace) -> None:
    ds = load_dataset(args.dataset)
    th = compute_thresholds(ds, args.eta)
    if args.tm_override is not None or args.tb_override is not None:
        th = SelectionThresholds(
            eta=args.eta,
            tm=args.tm_override if args.tm_override is not None else th.tm,
            tb=args.tb_override if args.tb_override is not None else th.tb,
        )
    retained = select_features(count_occurrences(ds), th)
    projected = project_dataset(ds, retained)
    save_dataset(projected, args.out)
    if args.features_out:
        names = [projected.space.features[i][0] for i in range(projected.space.dimension)]
        Path(args.features_out).write_text("\n".join(names) + "\n", encoding="utf-8")
    print(
        f"retained {len(retained)}/{ds.space.dimension} features (tm={th.tm}, tb={th.tb})",
        file=sys.stderr,
    )


def _cmd_clean(args: argparse.Namespace) -> None:
    cfg = _train_config(args)
    target = args.rescale_target
    if not (math.isfinite(target) and target > 0):  # g would be 0 or NaN and flag nothing
        raise UsageError(f"--rescale-target must be finite and > 0, got {target!r}")
    ds = _load_input_dataset(args)
    result = clean_and_retrain(
        ds,
        cfg,
        split_fraction=args.split_fraction,
        seed=args.seed,
        discard=args.discard,
        rescale_trigger=args.rescale_trigger,
        rescale_target=args.rescale_target,
    )
    payload = {
        "schema": CLEAN_SCHEMA,
        "contaminant_ids": list(result.contaminant_ids),
        "diagnostics": dataclasses.asdict(result.diagnostics),
        "config": {
            "seed": args.seed,
            "split_fraction": args.split_fraction,
            "rescale_trigger": args.rescale_trigger,
            "rescale_target": args.rescale_target,
            "discard": args.discard,
            "train": cfg.to_dict(),
            "threshold_rule": THRESHOLD_RULE,
        },
    }
    write_json(payload, args.out)
    if args.cleaned_out:
        save_dataset(result.cleaned, args.cleaned_out)
    print(f"flagged {len(result.contaminant_ids)} contaminants", file=sys.stderr)


def _cmd_experiment(args: argparse.Namespace) -> None:
    spec = _spec_from_args(args)
    cfg = _train_config(args)
    base = generate_synthetic(spec)
    if args.protocol == "rq1":
        report = protocol_rq1(
            base, cfg, args.iterations, step=args.step, seed=args.seed,
            split_fraction=args.split_fraction,
        )
    elif args.protocol == "rq2":
        if not args.ratios:
            raise UsageError("--ratios needs at least one ratio")
        report = protocol_rq2(
            base, args.ratios, cfg, seed=args.seed, split_fraction=args.split_fraction
        )
    elif args.protocol == "rq3":
        report = protocol_rq3(
            base, cfg, seed=args.seed, holdout_family=args.holdout_family,
            split_fraction=args.split_fraction,
        )
    else:
        report = protocol_rq4(
            base, cfg, ratio=args.ratio, seed=args.seed,
            split_fraction=args.split_fraction,
        )
    report = dataclasses.replace(
        report,
        config={
            **report.config,
            "generator": dataclasses.asdict(spec),
            "threshold_rule": THRESHOLD_RULE,
        },
    )
    write_report(report, args.out)


def _cmd_pca(args: argparse.Namespace) -> None:
    ds = load_dataset(args.dataset)
    projection = pca_project(ds)
    Path(args.out).write_text(projection_csv(projection), encoding="utf-8")
    if projection.zero_variance:
        print("warning: zero-variance data, coordinates are all zero", file=sys.stderr)


_COMMANDS = {
    "ingest": _cmd_ingest,
    "select-features": _cmd_select,
    "clean": _cmd_clean,
    "experiment": _cmd_experiment,
    "pca": _cmd_pca,
}


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        if getattr(args, "seed", 0) is None:
            args.seed = _seed_from_env()
        _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
