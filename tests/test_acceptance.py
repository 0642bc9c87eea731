"""Acceptance suite: one check per release criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output of a failing run) and then asserts, so a red test always
names the criterion and the measured value.
"""

import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pudroid.classifiers import (
    ForestParams,
    Learner,
    LinearParams,
    TrainConfig,
    TreeModel,
    TreeParams,
)
from pudroid.cli import run
from pudroid.features import dense_matrix
from pudroid.metrics import rank_auc
from pudroid.protocols import protocol_rq2, protocol_rq4
from pudroid.pu import (
    PUModel,
    clean_and_retrain,
    estimate_e,
    split_validation,
    train,
    training_arrays,
)
from pudroid.selection import compute_thresholds, count_occurrences, select_features
from pudroid.synthetic import (
    SyntheticSpec,
    analytic_posterior,
    generate_synthetic,
    planted_contaminant_ids,
)

from conftest import logistic_loss_and_grad, matrix_of, random_dataset

# fast-converging settings used throughout: plain full-batch gradient descent
# with a larger step count than the library defaults, and a 30-tree forest
LINEAR = LinearParams(learning_rate=1.0, epochs=1000, l2=1e-3)
FOREST = ForestParams(n_trees=30)


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, flush=True)
    assert ok, line


def _fit_estimator(c: float, seed: int) -> float:
    cfg = TrainConfig(seed=seed, learner=Learner.LINEAR, linear=LINEAR)
    data = generate_synthetic(SyntheticSpec(label_frequency_c=c, seed=seed))
    X, z = training_arrays(data.dataset)
    train_rows, p_rows = split_validation(z, 0.2, seed)
    model = train(X[train_rows], z[train_rows], cfg)
    return estimate_e(model.score_matrix(X[p_rows]))


def test_c01_label_frequency_estimator_consistency():
    start = time.monotonic()
    errors = {}
    for c in (0.3, 0.5, 0.7):
        estimates = [_fit_estimator(c, seed) for seed in range(10)]
        errors[c] = abs(float(np.mean(estimates)) - c)
    elapsed = time.monotonic() - start
    ok = all(err <= 0.07 for err in errors.values()) and elapsed <= 60
    detail = (
        "mean |e_hat - c| over 10 seeds: "
        + ", ".join(f"c={c}: {err:.4f}" for c, err in errors.items())
        + f" (tolerance 0.07, {elapsed:.1f}s of 60s budget)"
    )
    _report(1, ok, detail)


def test_c02_adjusted_score_recovers_true_posterior():
    start = time.monotonic()
    mads = []
    for seed in range(3):
        spec = SyntheticSpec(label_frequency_c=0.5, seed=seed)
        data = generate_synthetic(spec)
        X, z = training_arrays(data.dataset)
        train_rows, p_rows = split_validation(z, 0.2, seed)
        cfg = TrainConfig(seed=seed, learner=Learner.LINEAR, linear=LINEAR)
        model = train(X[train_rows], z[train_rows], cfg)
        pu = PUModel(model, estimate_e(model.score_matrix(X[p_rows])))
        held_out = generate_synthetic(
            SyntheticSpec(
                n_positive=500, n_negative=1500, label_frequency_c=0.5, seed=seed + 1000
            )
        )
        Xh = dense_matrix(held_out.dataset.samples, held_out.dataset.space.dimension).astype(float)
        mads.append(float(np.mean(np.abs(pu.g_matrix(matrix_of(Xh)) - analytic_posterior(spec, Xh)))))
    elapsed = time.monotonic() - start
    median = float(np.median(mads))
    ok = median <= 0.1 and elapsed <= 60
    _report(
        2,
        ok,
        f"median posterior MAD over 2000 held-out points = {median:.4f} "
        f"(tolerance 0.1, {elapsed:.1f}s of 60s budget)",
    )


def test_c03_clean_data_identity_across_learners():
    worst_auc, worst_acc = 0.0, 0.0
    for seed in range(3):
        base = generate_synthetic(SyntheticSpec(seed=seed))  # fully labeled: clean
        cfg = TrainConfig(seed=seed, linear=LINEAR, forest=FOREST)
        report = protocol_rq2(
            base, [0.0], cfg, seed=seed,
            learners=(Learner.LINEAR, Learner.TREE, Learner.FOREST),
        )
        for row in report.rows:
            worst_auc = max(worst_auc, abs(row.pu.auc - row.npu.auc))
            worst_acc = max(worst_acc, abs(row.pu.accuracy - row.npu.accuracy))
    ok = worst_auc <= 0.01 and worst_acc <= 0.02
    _report(
        3,
        ok,
        f"zero-contamination deltas: max |dAUC| = {worst_auc:.5f} (<= 0.01), "
        f"max |dACC| = {worst_acc:.5f} (<= 0.02), 3 learners x 3 seeds",
    )


@pytest.fixture(scope="module")
def small_tree_model():
    rng = np.random.default_rng(0)
    X = (rng.random((120, 6)) < 0.4).astype(float)
    y = ((X[:, 0] + X[:, 1]) > 0).astype(int)
    return TreeModel.fit(matrix_of(X), y, TreeParams(max_depth=4, min_leaf=3))


def test_c04_adjustment_preserves_ranking(small_tree_model):
    model = small_tree_model

    @settings(deadline=None, max_examples=200)
    @given(
        st.lists(
            st.lists(st.booleans(), min_size=6, max_size=6), min_size=2, max_size=20
        ),
        st.floats(min_value=0.5, max_value=1.0),
    )
    def inner(rows, e):
        X = matrix_of(np.array(rows, dtype=float))
        f = model.score_matrix(X)
        g = PUModel(model, e).g_matrix(X)
        if np.any(g >= 1.0):
            return  # clamping may collapse distinct scores
        assert np.argsort(f, kind="stable").tolist() == np.argsort(g, kind="stable").tolist()

    try:
        inner()
    except AssertionError:
        _report(4, False, "adjusted scores reordered the base ranking")
        raise
    _report(4, True, "adjusted scores preserve base ranking on all unclamped inputs")


@pytest.fixture(scope="module")
def contamination_sweep():
    """Ratio sweep shared by the detection-gap and extreme-ratio checks."""
    start = time.monotonic()
    reports = []
    for seed in range(3):
        base = generate_synthetic(SyntheticSpec(seed=seed))
        cfg = TrainConfig(seed=seed, linear=LINEAR, forest=FOREST)
        reports.append(protocol_rq2(base, [1.0, 3.0, 8.0], cfg, seed=seed))
    return reports, time.monotonic() - start


def _median_rates(reports, condition):
    pu = float(np.median([_row(r, condition).pu.detection_rate for r in reports]))
    npu = float(np.median([_row(r, condition).npu.detection_rate for r in reports]))
    return pu, npu


def _row(report, condition):
    for row in report.rows:
        if row.condition == condition:
            return row
    raise KeyError(condition)


def test_c05_detection_gap_at_three_to_one(contamination_sweep):
    reports, elapsed = contamination_sweep
    forest_pu, forest_npu = _median_rates(reports, "3:1/forest")
    tree_pu, tree_npu = _median_rates(reports, "3:1/tree")
    forest_gap = forest_pu - forest_npu
    tree_gap = tree_pu - tree_npu
    ok = forest_gap >= 0.25 and tree_gap >= 0.20 and elapsed <= 180
    _report(
        5,
        ok,
        f"3:1 detection-rate gaps (3-seed median): forest {forest_pu:.3f} - "
        f"{forest_npu:.3f} = {forest_gap:+.3f} (>= 0.25), tree {tree_pu:.3f} - "
        f"{tree_npu:.3f} = {tree_gap:+.3f} (>= 0.20), sweep took "
        f"{elapsed:.1f}s of 180s budget",
    )


def test_c06_extreme_ratio_beats_clean_baseline(contamination_sweep):
    reports, _ = contamination_sweep
    pu_at_8, _unused = _median_rates(reports, "8:1/forest")
    _unused, npu_at_1 = _median_rates(reports, "1:1/forest")
    ok = pu_at_8 >= npu_at_1
    _report(
        6,
        ok,
        f"forest detection at 8:1 with cleaning = {pu_at_8:.3f} >= "
        f"forest-alone at 1:1 = {npu_at_1:.3f} (3-seed median)",
    )


def test_c07_reversed_contamination_trend():
    forest_pu, forest_npu, tree_npu = [], [], []
    for seed in range(3):
        base = generate_synthetic(SyntheticSpec(seed=seed))
        cfg = TrainConfig(seed=seed, linear=LINEAR, forest=FOREST)
        report = protocol_rq4(
            base, cfg, ratio=8.0, seed=seed, learners=(Learner.TREE, Learner.FOREST)
        )
        forest_pu.append(_row(report, "8:1/forest").pu.accuracy)
        forest_npu.append(_row(report, "8:1/forest").npu.accuracy)
        tree_npu.append(_row(report, "8:1/tree").npu.accuracy)
    forest_gap = float(np.median(forest_pu)) - float(np.median(forest_npu))
    tree_acc = float(np.median(tree_npu))
    ok = forest_gap >= 0.15 and 0.4 <= tree_acc <= 0.6
    _report(
        7,
        ok,
        f"8:1 reversed contamination (3-seed median): forest accuracy gap "
        f"{forest_gap:+.3f} (>= 0.15), tree no-cleaning accuracy {tree_acc:.3f} "
        f"(within 0.5 +/- 0.1)",
    )


def test_c08_planted_contaminant_recovery():
    recoveries, fp_rates, planted_counts = [], [], []
    for seed in range(3):
        data = generate_synthetic(SyntheticSpec(label_frequency_c=0.75, seed=seed))
        planted = set(planted_contaminant_ids(data))
        cfg = TrainConfig(seed=seed, learner=Learner.FOREST, forest=FOREST)
        result = clean_and_retrain(data.dataset, cfg, seed=seed)
        flagged = set(result.contaminant_ids)
        negatives = np.flatnonzero(data.dataset.unlabeled.hidden == 0)
        recoveries.append(len(flagged & planted) / len(planted))
        fp_rates.append(len(flagged - planted) / len(negatives))
        planted_counts.append(len(planted))
    recovery = float(np.median(recoveries))
    fp_rate = float(np.median(fp_rates))
    ok = recovery >= 0.90 and fp_rate <= 0.10
    _report(
        8,
        ok,
        f"recovered {recovery:.3f} of ~{int(np.median(planted_counts))} planted "
        f"contaminants (>= 0.90) with false-positive rate {fp_rate:.4f} (<= 0.10), "
        f"3-seed median",
    )


def test_c09_feature_selection_matches_brute_force():
    rng = np.random.default_rng(99)
    mismatches = 0
    for _ in range(50):
        n_p = int(rng.integers(1, 250))
        n_u = int(rng.integers(1, 250))
        d = int(rng.integers(1, 201))
        ds = random_dataset(rng, n_p, n_u, d, density=float(rng.uniform(0.02, 0.4)))
        th = compute_thresholds(ds, eta=float(rng.uniform(1.0, 5.0)))
        dense = dense_matrix(ds.samples, d)
        count_p = dense[: len(ds.positives)].sum(axis=0)
        count_u = dense[len(ds.positives) :].sum(axis=0)
        expected = [
            i for i in range(d) if count_p[i] >= th.tm or count_u[i] >= th.tb
        ]
        if select_features(count_occurrences(ds), th) != expected:
            mismatches += 1
    _report(
        9,
        mismatches == 0,
        f"{50 - mismatches}/50 random datasets match the brute-force recount exactly",
    )


def test_c10_auc_matches_pairwise_oracle():
    rng = np.random.default_rng(7)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(2, 51))
        truth = rng.integers(0, 2, size=n)
        if len(set(truth.tolist())) < 2:
            truth[0] = 1 - truth[0]
        levels = int(rng.integers(2, 12))  # coarse grid guarantees ties
        scores = rng.integers(0, levels, size=n) / levels
        total = Fraction(0)
        pos = [Fraction(s) for t, s in zip(truth, scores) if t == 1]
        neg = [Fraction(s) for t, s in zip(truth, scores) if t == 0]
        for p in pos:
            for q in neg:
                total += 1 if p > q else (Fraction(1, 2) if p == q else 0)
        oracle = total / (len(pos) * len(neg))
        if rank_auc(truth.tolist(), scores.tolist()) != float(oracle):
            mismatches += 1
    _report(
        10,
        mismatches == 0,
        f"{100 - mismatches}/100 random score sets equal the exhaustive pairwise "
        f"oracle exactly (bit-for-bit)",
    )


def test_c11_logistic_gradient_matches_finite_differences():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(5, 25))
        d = int(rng.integers(1, 9))
        X = (rng.random((n, d)) < 0.5).astype(float)
        y = rng.integers(0, 2, size=n).astype(float)
        w = rng.standard_normal(d)
        b = float(rng.standard_normal())
        l2 = float(rng.uniform(0, 0.1))
        _, dw, db = logistic_loss_and_grad(w, b, X, y, l2)
        h = 1e-6
        numeric = np.empty(d + 1)
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            numeric[j] = (
                logistic_loss_and_grad(w + e, b, X, y, l2)[0]
                - logistic_loss_and_grad(w - e, b, X, y, l2)[0]
            ) / (2 * h)
        numeric[d] = (
            logistic_loss_and_grad(w, b + h, X, y, l2)[0]
            - logistic_loss_and_grad(w, b - h, X, y, l2)[0]
        ) / (2 * h)
        analytic = np.append(dw, db)
        rel = float(
            np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        )
        worst = max(worst, rel)
    ok = worst <= 1e-4
    _report(
        11,
        ok,
        f"worst relative gradient error over 20 random problems = {worst:.2e} (<= 1e-4)",
    )


def _run_twice(argv_template, tmp_path, outputs):
    """Run a CLI invocation into two directories and compare output bytes."""
    contents = []
    for tag in ("a", "b"):
        outdir = tmp_path / tag
        outdir.mkdir(exist_ok=True)
        argv = [arg.format(out=outdir) for arg in argv_template]
        assert run(argv) == 0, argv
        contents.append([(outdir / name).read_bytes() for name in outputs])
    return contents[0] == contents[1]


def test_c12_cli_runs_are_byte_identical(tmp_path, capsys):
    feats = tmp_path / "feats"
    feats.mkdir()
    (feats / "m.txt").write_text("permission::SEND_SMS\napi::getDeviceId\nurl::evil.example\n")
    (feats / "b.txt").write_text("permission::INTERNET\napi::getDeviceId\n")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "app_id,path,group\nmal-1,feats/m.txt,positive\nben-1,feats/b.txt,unlabeled\n"
    )
    ipmap = tmp_path / "ipmap.tsv"
    ipmap.write_text("evil.example\t9.8.7.6\n")

    from pudroid.datasets import save_dataset

    tiny = generate_synthetic(
        SyntheticSpec(
            n_positive=60, n_negative=120, dimension=30, signal_features=4,
            n_families=2, label_frequency_c=0.7, seed=4,
        )
    ).dataset
    ds_path = tmp_path / "tiny.json"
    save_dataset(tiny, ds_path)

    checks = {
        "ingest": _run_twice(
            ["ingest", "--manifest", str(manifest), "--ipmap", str(ipmap),
             "--out", "{out}/ds.json"],
            tmp_path, ["ds.json"],
        ),
        "select-features": _run_twice(
            ["select-features", "--dataset", str(ds_path), "--eta", "2",
             "--out", "{out}/sel.json", "--features-out", "{out}/names.txt"],
            tmp_path, ["sel.json", "names.txt"],
        ),
        "clean": _run_twice(
            ["clean", "--dataset", str(ds_path), "--learner", "tree", "--seed", "3",
             "--out", "{out}/clean.json", "--cleaned-out", "{out}/cleaned.json"],
            tmp_path, ["clean.json", "cleaned.json"],
        ),
        "experiment": _run_twice(
            ["experiment", "--protocol", "rq1", "--n-positive", "60",
             "--n-negative", "120", "--dimension", "30", "--signal-features", "4",
             "--n-families", "2", "--iterations", "1", "--step", "5",
             "--learner", "linear", "--epochs", "100", "--seed", "2",
             "--out", "{out}/rq1.json"],
            tmp_path, ["rq1.json"],
        ),
        "pca": _run_twice(
            ["pca", "--dataset", str(ds_path), "--out", "{out}/proj.csv"],
            tmp_path, ["proj.csv"],
        ),
    }
    failed = [name for name, same in checks.items() if not same]
    _report(
        12,
        not failed,
        "byte-identical reruns for all 5 subcommands"
        if not failed
        else f"non-identical output from: {', '.join(failed)}",
    )


def test_c13_labeling_is_independent_of_features():
    spec = SyntheticSpec(
        n_positive=10000, n_negative=100, label_frequency_c=0.5, seed=0
    )
    data = generate_synthetic(spec)
    samples = data.dataset.samples
    positives = np.flatnonzero(samples.hidden == 1)
    X = dense_matrix(samples.take(positives), spec.dimension).astype(float)
    z = (positives < len(data.dataset.positives)).astype(float)  # rows of P come first
    zc = z - z.mean()
    Xc = X - X.mean(axis=0)
    denom = np.sqrt((Xc**2).sum(axis=0)) * np.sqrt((zc**2).sum())
    corr = np.abs(Xc.T @ zc) / denom
    worst = float(corr.max())
    _report(
        13,
        worst <= 0.05,
        f"max |corr(label, feature)| over true positives = {worst:.4f} "
        f"(<= 0.05 at n = 10000)",
    )
