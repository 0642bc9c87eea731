"""Command-line front end: ingest, select-features, clean, experiment, pca.

Exit codes: 0 success, 1 usage error, 2 data or validation error, 3 I/O
error. Diagnostics go to stderr. The JSON reports of `clean` and `experiment`
echo the effective configuration and seed; the datasets, feature lists and
projections of `ingest`, `select-features`, `clean` and `pca` do not.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys
from pathlib import Path

# pudroid's only BLAS calls are PCA's small basis products and its eigh of at
# most 600x600, too small to share: extra OpenBLAS threads only spin and burn
# CPU. OpenBLAS reads this once, when numpy loads; a value already set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__
from .classifiers import LEARNERS, ForestParams, LinearParams, TrainConfig, TreeParams
from .datasets import load_dataset, save_dataset
from .features import within
from .ingest import build_dataset, load_manifest, load_resolver_map
from .pca import pca_project, projection_csv
from .protocols import protocol_rq1, protocol_rq2, protocol_rq3, protocol_rq4
from .pu import clean_and_retrain
from .report import CLEAN_SCHEMA, write_json, write_report
from .selection import (
    THRESHOLD_RULE,
    compute_thresholds,
    count_occurrences,
    project_dataset,
    select_features,
)
from .synthetic import SpecError, SyntheticSpec, generate_synthetic


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse reads only -1 and -1.5 as negative numbers, and "--l2 -1e-3",
        # "--rescale-trigger -inf" or "--ratios -1,2" as a flag missing its value;
        # no pudroid option looks like a number or holds a comma, so these are values too
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?(,.*)?$|^-(inf|infinity|nan)(,.*)?$", re.IGNORECASE
        )

    def error(self, message: str) -> None:  # exit 1 instead of argparse's 2
        raise UsageError(message)


def _in(interval: str, kind: type = float, sets: str = ""):
    """argparse type: a `kind` in the interval, written "[low, high)" and the like
    (an open infinite end keeps infinities out, and NaN is in no interval).

    A bad value exits 1 naming its flag, and the parameter it `sets` if given.
    """
    subject = f"{sets} must be" if sets else "must be"

    def parse(text: str):
        value = kind(text)
        if not within(value, interval):
            raise argparse.ArgumentTypeError(f"{subject} in {interval}, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid float value"
    return parse


def _ratio(text: str) -> float:
    try:
        return _in("[0, inf)")(text)
    except ValueError:  # else argparse names this module's parser function, not the ratio
        raise argparse.ArgumentTypeError(f"ratio {text!r} is not a number") from None


def _ratio_list(text: str) -> list[float]:
    ratios = [_ratio(r) for r in text.split(",") if r.strip()]
    if not ratios:
        raise argparse.ArgumentTypeError("needs at least one ratio")
    return ratios


_seed = _in("[0, inf)", int)
_fraction = _in("(0, 1)")


def _features_per_split(text: str) -> int | str:
    """argparse type: 'sqrt' or an integer >= 1, the values ForestParams takes."""
    try:
        value = "sqrt" if text.strip() == "sqrt" else int(text)
    except ValueError:
        value = 0
    if value != "sqrt" and value < 1:
        rule = "'sqrt' or an integer >= 1"
        raise argparse.ArgumentTypeError(f"features_per_split must be {rule}, got {text!r}")
    return value


def _seed_from_env() -> int:
    raw = os.environ.get("PUDROID_SEED", "0")
    try:
        return _seed(raw)
    except (ValueError, argparse.ArgumentTypeError):
        raise UsageError(f"PUDROID_SEED must be an integer >= 0, got {raw!r}") from None


def _spec_bool(text: str) -> bool:
    value = text.lower()
    if value not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(text)
    return value in ("1", "true", "yes")


# the generator inputs: every SyntheticSpec field but the run seed, typed "int", "float" or "bool"
_SPEC_FIELDS = {f.name: f for f in dataclasses.fields(SyntheticSpec) if f.name != "seed"}
_SPEC_TYPES = {"int": int, "float": float, "bool": _spec_bool}
# per generator input, its parser; a range error is an argparse.ArgumentTypeError
_SPEC_PARSE = {
    name: _in(f.metadata["range"], _SPEC_TYPES[f.type], sets=name) if "range" in f.metadata
    else _SPEC_TYPES[f.type]
    for name, f in _SPEC_FIELDS.items()
}


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--learner", choices=LEARNERS, default="forest")
    # each flag takes the range, default and help of the parameter it sets
    fields = {f.name: f for params in (LinearParams, TreeParams, ForestParams)
              for f in dataclasses.fields(params)}
    for flag, name in (("--lr", "learning_rate"), ("--epochs", "epochs"), ("--l2", "l2"),
                       ("--max-depth", "max_depth"), ("--min-leaf", "min_leaf"),
                       ("--n-trees", "n_trees")):
        f = fields[name]
        p.add_argument(flag, type=_in(f.metadata["range"], _SPEC_TYPES[f.type], sets=name),
                       default=f.default, help=f.metadata.get("help"))
    p.add_argument("--features-per-split", type=_features_per_split, default="sqrt")
    p.add_argument("--no-bootstrap", action="store_true")


def _train_config(args: argparse.Namespace) -> TrainConfig:
    return TrainConfig(
        seed=args.seed,
        learner=args.learner,
        linear=LinearParams(args.lr, args.epochs, args.l2),
        tree=TreeParams(args.max_depth, args.min_leaf),
        forest=ForestParams(args.n_trees, args.features_per_split, not args.no_bootstrap),
    )


def _spec_from_args(args: argparse.Namespace) -> SyntheticSpec:
    """The --spec-file keys, then the generator flags over them, then the run seed."""
    values = {}
    if args.spec_file:
        try:
            lines = Path(args.spec_file).read_text(encoding="utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{args.spec_file}: {exc}") from None
        for lineno, raw in enumerate(lines, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = (part.strip() for part in line.partition("="))
            where = f"{args.spec_file}: line {lineno}"
            if not sep:
                raise ValueError(f"{where}: expected key=value")
            if key not in _SPEC_FIELDS:
                raise ValueError(f"{where}: unknown generator spec key {key!r}")
            kind = _SPEC_FIELDS[key].type
            try:
                values[key] = _SPEC_PARSE[key](value)
            except ValueError:
                raise ValueError(f"{where}: {key} must be {kind}, got {value!r}") from None
            except argparse.ArgumentTypeError as exc:
                raise ValueError(f"{where}: {exc}") from None
    flags = {k: getattr(args, k) for k in _SPEC_FIELDS if getattr(args, k) is not None}
    try:
        return SyntheticSpec(**{**values, **flags}, seed=args.seed)
    except SpecError as exc:  # a check across fields: each range is its flag's and key's own
        given = "/".join("--" + name.replace("_", "-") for name in exc.fields if name in flags)
        if given:
            raise UsageError(f"argument {given}: {exc}") from None
        raise ValueError(f"{args.spec_file}: {exc}") from None


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_argument_group("generator", "each flag overrides the --spec-file key of its name")
    for name, f in _SPEC_FIELDS.items():
        kind = {"action": "store_true"} if f.type == "bool" else {"type": _SPEC_PARSE[name]}
        group.add_argument(
            "--" + name.replace("_", "-"), default=None, help=f.metadata.get("help"), **kind
        )


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
    p_sel.add_argument("--eta", type=_in("[1, inf)"), default=2.0)
    p_sel.add_argument("--tm-override", type=_in("[1, inf)", int), default=None)
    p_sel.add_argument("--tb-override", type=_in("[1, inf)", int), default=None)
    p_sel.add_argument("--out", required=True)
    p_sel.add_argument("--features-out", default=None, help="retained features as kind::name lines")

    p_clean = sub.add_parser("clean", help="detect and relabel contaminants")
    p_clean.add_argument("--dataset", required=True)
    p_clean.add_argument("--split-fraction", type=_fraction, default=0.2)
    p_clean.add_argument("--rescale-trigger", type=_in("(-inf, inf)"), default=0.7)
    # a target of 0 sets g to 0 and flags nothing
    p_clean.add_argument("--rescale-target", type=_in("(0, inf)"), default=1.0)
    p_clean.add_argument("--discard", action="store_true", help="drop contaminants instead of relabeling")
    p_clean.add_argument("--seed", type=_seed, default=None, help="default: $PUDROID_SEED or 0")
    p_clean.add_argument("--out", required=True)
    p_clean.add_argument("--cleaned-out", default=None, help="write the cleaned dataset here")
    _add_train_flags(p_clean)

    p_exp = sub.add_parser("experiment", help="run a contamination protocol")
    p_exp.add_argument("--protocol", required=True, choices=["rq1", "rq2", "rq3", "rq4"])
    p_exp.add_argument("--spec-file", default=None, help="generator spec as key=value lines")
    _add_spec_flags(p_exp)
    p_exp.add_argument("--iterations", type=_in("[0, inf)", int), default=5)
    p_exp.add_argument("--step", type=_in("[1, inf)", int), default=100)
    p_exp.add_argument("--ratios", type=_ratio_list, default="1,2,3,4,5,6,7,8")
    p_exp.add_argument("--ratio", type=_in("[0, inf)"), default=8.0)
    p_exp.add_argument("--holdout-family", type=int, default=None)
    p_exp.add_argument("--split-fraction", type=_fraction, default=0.2)
    p_exp.add_argument("--seed", type=_seed, default=None, help="default: $PUDROID_SEED or 0")
    p_exp.add_argument("--out", required=True)
    _add_train_flags(p_exp)

    p_pca = sub.add_parser("pca", help="2-D PCA projection as CSV")
    p_pca.add_argument("--dataset", required=True)
    p_pca.add_argument("--out", required=True)

    return parser


def _cmd_ingest(args: argparse.Namespace) -> None:
    manifest = load_manifest(args.manifest)
    resolver = load_resolver_map(args.ipmap)
    ds = build_dataset(manifest, resolver, Path(args.manifest).parent)
    sizes = {"feature": ds.space.dimension, "positive app": len(ds.positives),
             "unlabeled app": len(ds.unlabeled)}
    empty = [name for name, size in sizes.items() if not size]
    if empty:  # nothing could be selected, cleaned or trained on it
        raise ValueError(f"{args.manifest}: the dataset would hold no {' and no '.join(empty)}")
    save_dataset(ds, args.out)


def _cmd_select(args: argparse.Namespace) -> None:
    ds = load_dataset(args.dataset)
    th = compute_thresholds(ds, args.eta)
    th = dataclasses.replace(th, tm=args.tm_override or th.tm, tb=args.tb_override or th.tb)
    retained = select_features(count_occurrences(ds), th)
    if not retained:  # a 0-feature dataset would only fail later, or project to all zeros
        raise ValueError(
            f"no feature kept: none occurs at least tm={th.tm} times in P or tb={th.tb} times in U"
        )
    projected = project_dataset(ds, retained)
    save_dataset(projected, args.out)
    if args.features_out:
        lines = [f"{kind}::{name}" for name, kind in projected.space.features]
        Path(args.features_out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(
        f"retained {len(retained)}/{ds.space.dimension} features (tm={th.tm}, tb={th.tb})",
        file=sys.stderr,
    )


def _cmd_clean(args: argparse.Namespace) -> None:
    cfg = _train_config(args)
    result = clean_and_retrain(
        load_dataset(args.dataset),
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
    family = args.holdout_family
    if family is not None and not 0 <= family < spec.n_families:  # the generator's family ids
        raise UsageError(
            f"argument --holdout-family: must be a family id in [0, {spec.n_families - 1}], "
            f"got {family}"
        )
    cfg = _train_config(args)
    base = generate_synthetic(spec)
    # built per call, so a wrapper put on these names after import is the one called
    protocol, params = {
        "rq1": (protocol_rq1, {"iterations": args.iterations, "step": args.step}),
        "rq2": (protocol_rq2, {"ratios": args.ratios}),
        "rq3": (protocol_rq3, {"holdout_family": family}),
        "rq4": (protocol_rq4, {"ratio": args.ratio}),
    }[args.protocol]
    report = protocol(base, cfg=cfg, seed=args.seed, split_fraction=args.split_fraction, **params)
    report.config["threshold_rule"] = THRESHOLD_RULE  # the selection rule, not the protocol's
    write_report(report, args.out)


def _cmd_pca(args: argparse.Namespace) -> None:
    ds = load_dataset(args.dataset)
    projection = pca_project(ds)
    Path(args.out).write_text(projection_csv(projection), encoding="utf-8")
    if projection.zero_variance:
        print("warning: zero-variance data, coordinates are all zero", file=sys.stderr)
    for component, residual in projection.unconverged:
        print(f"warning: PCA component {component} did not converge "
              f"(residual {residual:.3g})", file=sys.stderr)


_COMMANDS = {
    "ingest": _cmd_ingest,
    "select-features": _cmd_select,
    "clean": _cmd_clean,
    "experiment": _cmd_experiment,
    "pca": _cmd_pca,
}


def _check_outputs(args: argparse.Namespace) -> None:
    """Two output flags naming one file would keep only the last write. An output may
    name an input: every command has read its inputs before it writes."""
    named: dict[str, str] = {}
    for flag in ("--out", "--cleaned-out", "--features-out"):
        path = getattr(args, flag[2:].replace("-", "_"), None)
        if path and (first := named.setdefault(os.path.realpath(path), flag)) != flag:
            raise UsageError(f"argument {flag}: names the same file as {first}")


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
        _check_outputs(args)
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
