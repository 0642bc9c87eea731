import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pudroid
from pudroid.cli import UsageError, _spec_from_args, build_parser, run
from pudroid.datasets import load_dataset, save_dataset
from pudroid.report import DATASET_SCHEMA
from pudroid.synthetic import SpecError, SyntheticSpec, generate_synthetic


@pytest.fixture()
def corpus(tmp_path):
    feats = tmp_path / "feats"
    feats.mkdir()
    (feats / "mal1.txt").write_text("permission::SEND_SMS\napi::getDeviceId\nurl::evil.example\n")
    (feats / "ben1.txt").write_text("permission::INTERNET\napi::getDeviceId\n")
    (feats / "ben2.txt").write_text("permission::INTERNET\nurl::gone.example\n")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "app_id,path,group\n"
        "mal-1,feats/mal1.txt,positive\n"
        "ben-1,feats/ben1.txt,unlabeled\n"
        "ben-2,feats/ben2.txt,unlabeled\n"
    )
    ipmap = tmp_path / "ipmap.tsv"
    ipmap.write_text("evil.example\t9.8.7.6\n")
    return manifest, ipmap


@pytest.fixture()
def dataset_file(tmp_path):
    spec = SyntheticSpec(
        n_positive=60, n_negative=120, dimension=30, signal_features=4,
        n_families=2, label_frequency_c=0.7, seed=4,
    )
    path = tmp_path / "ds.json"
    save_dataset(generate_synthetic(spec).dataset, path)
    return path


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run([]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["pca", "--bogus"]) == 1

    def test_clean_without_input_is_usage_error(self, tmp_path, capsys):
        assert run(["clean", "--out", str(tmp_path / "o.json")]) == 1

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code = run([
            "ingest", "--manifest", str(tmp_path / "nope.csv"),
            "--ipmap", str(tmp_path / "nope.tsv"), "--out", str(tmp_path / "o.json"),
        ])
        assert code == 3

    def test_invalid_data_is_data_error(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.txt"
        spec_file.write_text("bogus_key=1\n")
        code = run([
            "experiment", "--protocol", "rq1", "--spec-file", str(spec_file),
            "--out", str(tmp_path / "o.json"),
        ])
        assert code == 2

    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--version"])
        assert exc.value.code == 0


    def test_threads_flag_is_gone(self, capsys):
        assert run(["clean", "--dataset", "x", "--out", "y", "--threads", "2"]) == 1
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt, named", [
        pytest.param(lambda d: d.pop("features"), "$.features", id="no-features"),
        pytest.param(lambda d: d["positives"][0].pop("on"), "$.positives[0].on", id="no-on"),
        pytest.param(lambda d: d["unlabeled"][1].update(id=7), "$.unlabeled[1].id", id="int-id"),
        pytest.param(
            lambda d: d["positives"][2]["on"].append(None), "$.positives[2].on", id="null-index"
        ),
        pytest.param(lambda d: d["features"][0].pop(), "$.features[0]", id="short-pair"),
        pytest.param(
            lambda d: d["features"][3].__setitem__(1, "apk"), "$.features[3][1]", id="bad-kind"
        ),
        pytest.param(
            lambda d: d["unlabeled"][0].update(hidden=True), "$.unlabeled[0].hidden", id="bool-hidden"
        ),
        pytest.param(
            lambda d: d["positives"][1].update(hidden=1.0), "$.positives[1].hidden", id="float-hidden"
        ),
        pytest.param(
            lambda d: d["positives"][0]["on"].append(True), "$.positives[0].on", id="bool-index"
        ),
        pytest.param(
            lambda d: d["unlabeled"][2]["on"].insert(0, 1.0), "$.unlabeled[2].on", id="float-index"
        ),
    ])
    def test_malformed_dataset_json_is_data_error(
        self, dataset_file, tmp_path, capsys, corrupt, named
    ):
        data = json.loads(dataset_file.read_text())
        corrupt(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code = run(["clean", "--dataset", str(bad), "--out", str(tmp_path / "o.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["clean", "select-features", "pca"])
    def test_deeply_nested_dataset_json_is_data_error(self, tmp_path, capsys, command):
        nested = tmp_path / "nested.json"
        nested.write_text("[" * 100000 + "]" * 100000)  # past the parser's recursion limit
        code = run([command, "--dataset", str(nested), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert "dataset JSON: $ is nested too deeply to parse" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("corrupt, message", [
        pytest.param(lambda d: d["unlabeled"][1]["on"].insert(0, -1), "negative feature index",
                     id="negative"),
        pytest.param(lambda d: d["unlabeled"][1]["on"].reverse(),
                     "indices must be strictly increasing", id="unsorted"),
        pytest.param(lambda d: d["unlabeled"][1]["on"].append(d["unlabeled"][1]["on"][-1]),
                     "indices must be strictly increasing", id="repeat"),
        pytest.param(lambda d: d["unlabeled"][1]["on"].append(30),
                     "has feature index outside space of dimension 30", id="range"),
        # beyond int64, where numpy raises OverflowError
        pytest.param(lambda d: d["unlabeled"][1]["on"].append(2**70),
                     "has feature index outside space of dimension 30", id="huge"),
        pytest.param(lambda d: d["unlabeled"][1]["on"].insert(0, -2**70),
                     "negative feature index", id="huge-negative"),
        pytest.param(lambda d: d["positives"][0].update(hidden=0),
                     "known-benign sample cannot be labeled positive", id="benign-in-p"),
        pytest.param(lambda d: d["unlabeled"][2].update(id=d["positives"][1]["id"]),
                     "unique across P and U", id="repeated-id"),
    ])
    def test_bad_feature_index_is_data_error(self, dataset_file, tmp_path, capsys, corrupt, message):
        data = json.loads(dataset_file.read_text())
        corrupt(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code = run(["clean", "--dataset", str(bad), "--out", str(tmp_path / "o.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags, named", [
        (["--n-trees", "0"], "n_trees"),
        (["--features-per-split", "abc"], "features_per_split"),
        (["--features-per-split", "0"], "features_per_split"),
        (["--epochs", "0"], "epochs"),
        (["--lr", "nan"], "learning_rate"),
        (["--lr", "0"], "learning_rate"),
        (["--l2", "-1"], "l2"),
        (["--max-depth", "-1"], "max_depth"),
        (["--min-leaf", "0"], "min_leaf"),
    ])
    def test_bad_training_flag_is_usage_error(self, dataset_file, tmp_path, capsys, flags, named):
        out = tmp_path / "o.json"
        code = run(["clean", "--dataset", str(dataset_file), "--out", str(out), *flags])
        err = capsys.readouterr().err
        assert code == 1
        assert named in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("lr, stage", [
        ("1e3", "rescale: mean g over the validation positives is 0"),  # f is 0 on all of P'
        ("1e300", "estimate e: mean f over"),  # the weights overflow and f is NaN
    ])
    def test_pu_stage_failure_is_data_error(self, dataset_file, tmp_path, capsys, lr, stage):
        out = tmp_path / "o.json"
        code = run([
            "clean", "--dataset", str(dataset_file), "--learner", "linear",
            "--lr", lr, "--epochs", "3", "--seed", "3", "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert stage in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("target", ["0", "-1", "nan", "inf"])
    def test_bad_rescale_target_is_usage_error(self, dataset_file, tmp_path, capsys, target):
        out = tmp_path / "o.json"
        code = run([
            "clean", "--dataset", str(dataset_file), "--rescale-target", target, "--out", str(out),
        ])
        assert code == 1
        assert "--rescale-target" in capsys.readouterr().err
        assert not out.exists()

    def test_rescale_target_is_checked_before_loading(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        code = run(["clean", "--dataset", str(missing), "--rescale-target", "0", "--out", "o"])
        assert code == 1
        assert "--rescale-target" in capsys.readouterr().err

    @pytest.mark.parametrize("seed, stage", [
        # 2 training rows: of one class, or one leaf at f = e that flags all of U
        (1, "fit f: degenerate target"),
        (0, "retrain: all 131 unlabeled samples were flagged; the cleaned set has one class"),
    ])
    def test_one_class_fit_names_its_stage(self, dataset_file, tmp_path, capsys, seed, stage):
        out = tmp_path / "o.json"
        code = run([
            "clean", "--dataset", str(dataset_file), "--split-fraction", "0.99",
            "--n-trees", "5", "--seed", str(seed), "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert stage in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_linear_overflow_prints_no_warning(self, dataset_file, tmp_path):
        # warnings go to the real stderr, which only a separate process shows
        paths = [str(Path(pudroid.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
        for lr, stage in [
            ("1e3", "rescale:"),  # the sigmoid overflows and f is 0 on all of P'
            ("1e300", "estimate e:"),  # the weights overflow to inf, then NaN
        ]:
            proc = subprocess.run(
                [
                    sys.executable, "-c", "from pudroid.cli import main; main()",
                    "clean", "--dataset", str(dataset_file), "--learner", "linear",
                    "--lr", lr, "--epochs", "3", "--seed", "3", "--out", str(tmp_path / "o.json"),
                ],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 2, lr  # the stage error is still raised
            assert stage in proc.stderr
            assert "RuntimeWarning" not in proc.stderr

    @pytest.mark.parametrize("argv, flag", [
        (["select-features", "--eta", "inf"], "--eta"),
        (["select-features", "--eta", "nan"], "--eta"),
        (["select-features", "--eta", "-3"], "--eta"),
        (["clean", "--rescale-trigger", "nan"], "--rescale-trigger"),
        (["experiment", "--protocol", "rq1", "--iterations", "-1"], "--iterations"),
        (["experiment", "--protocol", "rq1", "--step", "-5"], "--step"),
        (["experiment", "--protocol", "rq2", "--ratios", "1,nan"], "--ratios"),
        (["experiment", "--protocol", "rq2", "--ratios", "inf"], "--ratios"),
        (["experiment", "--protocol", "rq4", "--ratio", "nan"], "--ratio"),
        (["experiment", "--protocol", "rq4", "--ratio", "inf"], "--ratio"),
        (["experiment", "--protocol", "rq2", "--ratios", "1,x"], "--ratios"),
        (["clean", "--split-fraction", "2"], "--split-fraction"),
        (["clean", "--split-fraction", "nan"], "--split-fraction"),
        (["clean", "--split-fraction", "0"], "--split-fraction"),
        (["experiment", "--protocol", "rq1", "--split-fraction", "1"], "--split-fraction"),
        (["clean", "--seed", "-1"], "--seed"),
        (["experiment", "--protocol", "rq1", "--seed", "-1"], "--seed"),
        (["select-features", "--tm-override", "0"], "--tm-override"),
        (["select-features", "--tb-override", "0"], "--tb-override"),
        # an integer beyond float range
        (["experiment", "--protocol", "rq1", "--step", "-1" + "0" * 400], "--step"),
        (["clean", "--max-depth", "-1"], "--max-depth"),
        (["clean", "--min-leaf", "0"], "--min-leaf"),
        (["clean", "--n-trees", "0"], "--n-trees"),
        (["clean", "--epochs", "0"], "--epochs"),
        (["clean", "--lr", "0"], "--lr"),
        (["clean", "--lr", "inf"], "--lr"),
        (["clean", "--l2", "-1"], "--l2"),
        (["experiment", "--protocol", "rq2", "--n-trees", "0"], "--n-trees"),
        (["clean", "--features-per-split", "0"], "--features-per-split"),
        (["clean", "--features-per-split", "abc"], "--features-per-split"),
        (["clean", "--features-per-split", "1.5"], "--features-per-split"),
        (["experiment", "--protocol", "rq2", "--features-per-split", "-2"], "--features-per-split"),
        (["experiment", "--protocol", "rq1", "--n-positive", "0"], "--n-positive"),
        (["experiment", "--protocol", "rq1", "--flip-noise", "0.7"], "--flip-noise"),
    ])
    def test_bad_flag_value_is_usage_error(self, dataset_file, tmp_path, capsys, argv, flag):
        out = tmp_path / "o.json"
        inputs = ["--dataset", str(dataset_file)] if argv[0] != "experiment" else []
        code = run([*argv, *inputs, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"argument {flag}:" in err
        assert repr(argv[-1].split(",")[-1]) in err  # names the bad entry of a list
        assert "Traceback" not in err
        assert not out.exists()

    def test_features_per_split_parses_like_the_integer_flags(self):
        clean = ["clean", "--dataset", "d", "--out", "o"]
        args = build_parser().parse_args([*clean, "--features-per-split", " 3", "--n-trees", " 3"])
        assert args.features_per_split == args.n_trees == 3
        assert build_parser().parse_args(clean).features_per_split == "sqrt"
        err = "argument --features-per-split: features_per_split must be 'sqrt' or an integer >= 1"
        with pytest.raises(UsageError, match=re.escape(f"{err}, got ' 0'")):
            build_parser().parse_args([*clean, "--features-per-split", " 0"])

    def test_clean_reads_no_manifest(self, corpus, tmp_path, capsys):
        manifest, ipmap = corpus
        out = tmp_path / "o.json"
        code = run(["clean", "--manifest", str(manifest), "--ipmap", str(ipmap), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "--dataset" in err
        assert not out.exists()

    def test_empty_selection_is_data_error(self, dataset_file, tmp_path, capsys):
        out, names = tmp_path / "sel.json", tmp_path / "names.txt"
        code = run([
            "select-features", "--dataset", str(dataset_file), "--tm-override", "99999",
            "--tb-override", "99999", "--out", str(out), "--features-out", str(names),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "tm=99999" in err and "tb=99999" in err
        assert "Traceback" not in err
        assert not out.exists() and not names.exists()

    def test_beyond_float_eta_is_an_empty_selection(self, dataset_file, tmp_path, capsys):
        # tm = round(1e308) has 309 digits; tb is its exact integer ceiling share
        out = tmp_path / "sel.json"
        code = run(["select-features", "--dataset", str(dataset_file), "--eta", "1e308",
                    "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"tm={round(1e308)} " in err and "tb=" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("family", ["4", "99", "-1"])
    def test_unknown_holdout_family_is_usage_error(self, tmp_path, capsys, family):
        out = tmp_path / "rq3.json"
        code = run(["experiment", "--protocol", "rq3", "--n-families", "4",
                    "--holdout-family", family, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"argument --holdout-family: must be a family id in [0, 3], got {family}" in err
        assert not out.exists()

    def test_malformed_feature_file_names_file_and_app(self, tmp_path, capsys):
        (tmp_path / "a.txt").write_text("api::getDeviceId\n")
        (tmp_path / "b.txt").write_text("api::getDeviceId\nbroken\n")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("app_id,path,group\napp-a,a.txt,positive\napp-b,b.txt,unlabeled\n")
        ipmap = tmp_path / "ipmap.tsv"
        ipmap.write_text("")
        out = tmp_path / "ds.json"
        code = run(
            ["ingest", "--manifest", str(manifest), "--ipmap", str(ipmap), "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert f"{tmp_path / 'b.txt'} (app 'app-b'): line 2: missing '::' separator" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "row, count", [("ben-3,feats/ben2.txt", 2), ("ben-3,x.txt,unlabeled,x", 4)]
    )
    def test_manifest_column_count_is_data_error(self, corpus, tmp_path, capsys, row, count):
        manifest, ipmap = corpus
        manifest.write_text(manifest.read_text() + row + "\n")
        out = tmp_path / "ds.json"
        code = run(
            ["ingest", "--manifest", str(manifest), "--ipmap", str(ipmap), "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert f"{manifest}: line 5: expected 3 columns app_id,path,group, got {count}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_header_only_manifest_is_data_error(self, corpus, tmp_path, capsys):
        manifest, ipmap = corpus
        manifest.write_text("app_id,path,group\n")
        out = tmp_path / "ds.json"
        code = run(
            ["ingest", "--manifest", str(manifest), "--ipmap", str(ipmap), "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert f"{manifest}: manifest lists no apps" in err
        assert not out.exists()

    @pytest.mark.parametrize("name, where", [
        ("feats/ben1.txt", "{path} (app 'ben-1')"),
        ("manifest.csv", "{path}"),
        ("ipmap.tsv", "{path}"),
    ])
    def test_non_utf8_input_names_its_file(self, corpus, tmp_path, capsys, name, where):
        manifest, ipmap = corpus
        path = tmp_path / name
        data = path.read_bytes()
        path.write_bytes(data[:12] + b"\xff" + data[12:])
        out = tmp_path / "ds.json"
        code = run(
            ["ingest", "--manifest", str(manifest), "--ipmap", str(ipmap), "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 2
        decode = "'utf-8' codec can't decode byte 0xff in position 12"
        assert f"{where.format(path=path)}: {decode}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("files, rows, empty", [
        pytest.param({"a.txt": "# a comment\nurl::gone.example\n"}, ["a,a.txt,positive"],
                     "feature and no unlabeled app", id="one-app-no-key"),
        pytest.param({"a.txt": "# a comment\n", "b.txt": "\n"},
                     ["a,a.txt,positive", "b,b.txt,unlabeled"], "feature", id="no-keyed-line"),
        pytest.param({"a.txt": "api::getDeviceId\n", "b.txt": "permission::INTERNET\n"},
                     ["a,a.txt,unlabeled", "b,b.txt,unlabeled"], "positive app", id="one-group"),
    ])
    def test_empty_ingest_result_is_data_error(self, tmp_path, capsys, files, rows, empty):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("app_id,path,group\n" + "".join(row + "\n" for row in rows))
        ipmap = tmp_path / "ipmap.tsv"
        ipmap.write_text("")
        out = tmp_path / "ds.json"
        code = run(
            ["ingest", "--manifest", str(manifest), "--ipmap", str(ipmap), "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {manifest}: the dataset would hold no {empty}\n" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, data, message", [
        pytest.param(f"{command} --dataset", data, message, id=f"{command}-{fault}")
        for command in ("clean", "select-features", "pca")
        for fault, data, message in [
            ("utf8", b"\xff{}",
             "{path}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
            ("json", b'{"schema": }', "{path}: Expecting value: line 1 column 12 (char 11)"),
        ]
    ] + [
        pytest.param(
            "experiment --protocol rq1 --spec-file", b"n_positive=7\xff\n",
            "{path}: 'utf-8' codec can't decode byte 0xff in position 12: invalid start byte",
            id="spec-file-utf8",
        ),
        pytest.param(
            "clean --dataset",
            json.dumps({
                "schema": DATASET_SCHEMA, "features": [["a", "api"]],
                "positives": [{"id": "p", "on": [0]}], "unlabeled": [{"id": "u", "on": []}],
            }).encode(),
            "split: fraction 0.2 leaves a degenerate split for n=2", id="two-sample-split",
        ),
    ])
    def test_data_error_names_its_file_or_stage(self, tmp_path, capsys, argv, data, message):
        path, out = tmp_path / "input", tmp_path / "o"
        path.write_bytes(data)
        code = run([*argv.split(), str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {message.format(path=path)}\n" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_empty_ratio_list_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "rq2.json"
        code = run(["experiment", "--protocol", "rq2", "--ratios", ",", "--out", str(out)])
        assert code == 1
        assert "--ratios" in capsys.readouterr().err
        assert not out.exists()


class TestSeedDefault:
    def test_env_seed_is_picked_up(self, dataset_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PUDROID_SEED", "42")
        out = tmp_path / "clean.json"
        assert run(["clean", "--dataset", str(dataset_file), "--learner", "tree",
                    "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["seed"] == 42

    def test_seed_flag_overrides_env(self, dataset_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PUDROID_SEED", "abc")
        out = tmp_path / "clean.json"
        assert run(["clean", "--dataset", str(dataset_file), "--learner", "tree",
                    "--seed", "5", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["seed"] == 5

    def test_non_integer_env_seed_is_usage_error(self, tmp_path, monkeypatch, capsys):
        for raw in ("abc", "-3"):
            monkeypatch.setenv("PUDROID_SEED", raw)
            code = run(["experiment", "--protocol", "rq1", "--out", str(tmp_path / "o.json")])
            err = capsys.readouterr().err
            assert code == 1, raw
            assert f"PUDROID_SEED must be an integer >= 0, got {raw!r}" in err
            assert "Traceback" not in err
            assert not (tmp_path / "o.json").exists()

    def test_unseeded_command_ignores_env_seed(self, corpus, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PUDROID_SEED", "abc")
        manifest, ipmap = corpus
        assert run(["ingest", "--manifest", str(manifest), "--ipmap", str(ipmap),
                    "--out", str(tmp_path / "ds.json")]) == 0
        assert run(["pca", "--dataset", str(tmp_path / "ds.json"),
                    "--out", str(tmp_path / "p.csv")]) == 0


class TestPipeline:
    def test_ingest_select_pca(self, corpus, tmp_path, capsys):
        manifest, ipmap = corpus
        ds_path = tmp_path / "ds.json"
        assert run(["ingest", "--manifest", str(manifest), "--ipmap", str(ipmap),
                    "--out", str(ds_path)]) == 0
        ds = load_dataset(ds_path)
        assert len(ds.positives) == 1 and len(ds.unlabeled) == 2

        sel_path = tmp_path / "sel.json"
        names_path = tmp_path / "names.txt"
        assert run(["select-features", "--dataset", str(ds_path), "--eta", "1",
                    "--out", str(sel_path), "--features-out", str(names_path)]) == 0
        selected = load_dataset(sel_path)
        assert selected.space.dimension >= 1
        assert len(names_path.read_text().splitlines()) == selected.space.dimension

        csv_path = tmp_path / "proj.csv"
        assert run(["pca", "--dataset", str(ds_path), "--out", str(csv_path)]) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "id,x,y,group"
        assert len(lines) == 4

    def test_features_out_names_each_feature_by_kind(self, tmp_path, capsys):
        (tmp_path / "a.txt").write_text("permission::foo\napi::foo\n")
        (tmp_path / "b.txt").write_text("permission::foo\napi::foo\napi::bar\n")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("app_id,path,group\na,a.txt,positive\nb,b.txt,unlabeled\n")
        ipmap = tmp_path / "ipmap.tsv"
        ipmap.write_text("")
        ds_path, names = tmp_path / "ds.json", tmp_path / "names.txt"
        assert run(["ingest", "--manifest", str(manifest), "--ipmap", str(ipmap),
                    "--out", str(ds_path)]) == 0
        assert run(["select-features", "--dataset", str(ds_path), "--tm-override", "1",
                    "--tb-override", "1", "--out", str(tmp_path / "sel.json"),
                    "--features-out", str(names)]) == 0
        assert names.read_text().splitlines() == ["api::bar", "api::foo", "permission::foo"]

    def test_clean_writes_report_and_dataset(self, dataset_file, tmp_path, capsys):
        out = tmp_path / "clean.json"
        cleaned = tmp_path / "cleaned.json"
        code = run([
            "clean", "--dataset", str(dataset_file), "--learner", "linear",
            "--lr", "1.0", "--epochs", "200", "--seed", "3",
            "--out", str(out), "--cleaned-out", str(cleaned),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "pudroid-clean/1"
        assert payload["config"]["seed"] == 3
        assert isinstance(payload["contaminant_ids"], list)
        load_dataset(cleaned)

    def test_clean_without_bootstrap(self, dataset_file, tmp_path, capsys):
        out = tmp_path / "clean.json"
        code = run(["clean", "--dataset", str(dataset_file), "--n-trees", "3", "--no-bootstrap",
                    "--seed", "3", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["config"]["train"]["forest"]["bootstrap"] is False

    def test_experiment_report(self, tmp_path, capsys):
        out = tmp_path / "rq1.json"
        code = run([
            "experiment", "--protocol", "rq1",
            "--n-positive", "60", "--n-negative", "120", "--dimension", "30",
            "--signal-features", "4", "--n-families", "2",
            "--iterations", "1", "--step", "5",
            "--learner", "linear", "--epochs", "100", "--seed", "2",
            "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["protocol"] == "RQ1"
        assert [r["condition"] for r in payload["rows"]] == ["N=0", "N=1"]
        assert payload["config"]["generator"]["n_positive"] == 60
        assert "threshold_rule" in payload["config"]

    def test_spec_file_and_flags_combine(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.txt"
        spec_file.write_text(
            "# generator\nn_positive=60\nn_negative=120\ndimension=30\n"
            "signal_features=4\nn_families=2\nfamily_exclusive=true\n"
        )
        out = tmp_path / "rq3.json"
        code = run([
            "experiment", "--protocol", "rq3", "--spec-file", str(spec_file),
            "--learner", "linear", "--epochs", "100", "--seed", "1",
            "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["generator"]["family_exclusive"] is True
        assert [r["condition"] for r in payload["rows"]] == ["family-0", "family-1"]


class TestGeneratorSpec:
    FIELDS = {f.name: f for f in dataclasses.fields(SyntheticSpec) if f.name != "seed"}

    @staticmethod
    def _args(*argv):
        args = build_parser().parse_args(["experiment", "--protocol", "rq1", "--out", "o", *argv])
        args.seed = 0
        return args

    def test_flags_and_keys_are_the_spec_fields(self, tmp_path):
        sub = build_parser()._subparsers._group_actions[0].choices["experiment"]
        group = next(g for g in sub._action_groups if g.title == "generator")
        assert {a.dest for a in group._group_actions} == set(self.FIELDS)
        assert {s for a in group._group_actions for s in a.option_strings} == {
            "--" + name.replace("_", "-") for name in self.FIELDS
        }
        # every field but seed is a spec key; a non-default value of each round-trips
        spec_file = tmp_path / "spec.txt"
        changed = {"int": lambda v: v + 1, "float": lambda v: v / 2, "bool": lambda v: not v}
        values = {name: changed[f.type](f.default) for name, f in self.FIELDS.items()}
        spec_file.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
        spec = _spec_from_args(self._args("--spec-file", str(spec_file)))
        assert dataclasses.asdict(spec) == {**values, "seed": 0}

    def test_flags_override_spec_file(self, tmp_path):
        spec_file = tmp_path / "spec.txt"
        spec_file.write_text("n_positive=70\nflip_noise=0.1\nfamily_exclusive=no\n")
        spec = _spec_from_args(self._args(
            "--spec-file", str(spec_file), "--n-positive", "80", "--family-exclusive"
        ))
        assert (spec.n_positive, spec.flip_noise, spec.family_exclusive) == (80, 0.1, True)

    @pytest.mark.parametrize("text, message", [
        ("n_positive=60\nseed=5\n", "line 2: unknown generator spec key 'seed'"),
        ("# c\n\nn_positive=abc\n", "line 3: n_positive must be int, got 'abc'"),
        ("flip_noise=high\n", "line 1: flip_noise must be float, got 'high'"),
        ("family_exclusive=maybe\n", "line 1: family_exclusive must be bool, got 'maybe'"),
        ("n_positive\n", "line 1: expected key=value"),
        ("n_positive=0\n", "line 1: n_positive must be in [1, inf), got '0'"),
        ("# c\nflip_noise=0.7\n", "line 2: flip_noise must be in [0, 0.5), got '0.7'"),
        ("n_families=5\nn_positive=3\n", "n_families must be at most n_positive"),
        ("dimension=30\n", "signal_features x n_families must be at most dimension"),
    ])
    def test_bad_spec_file_is_data_error(self, tmp_path, capsys, text, message):
        spec_file = tmp_path / "spec.txt"
        spec_file.write_text(text)
        out = tmp_path / "o.json"
        code = run([
            "experiment", "--protocol", "rq1", "--spec-file", str(spec_file), "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{spec_file}: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("name, bad", [
        ("n_positive", "0"), ("n_negative", "-3"), ("dimension", "-1"), ("signal_features", "-1"),
        ("flip_noise", "0.5"), ("flip_noise", "nan"), ("flip_noise", "-0.1"),
        ("label_frequency_c", "0"), ("label_frequency_c", "1.5"), ("n_families", "0"),
    ])
    def test_out_of_range_input_names_its_source(self, tmp_path, capsys, name, bad):
        # one declared range, checked at the flag (exit 1), at the spec-file key
        # (exit 2, naming file and line) and by SyntheticSpec itself
        f = self.FIELDS[name]
        rule = f"{name} must be in {f.metadata['range']}, got {bad!r}"
        flag, out = "--" + name.replace("_", "-"), tmp_path / "o.json"
        assert run(["experiment", "--protocol", "rq1", flag, bad, "--out", str(out)]) == 1
        assert f"argument {flag}: {rule}" in capsys.readouterr().err
        spec_file = tmp_path / "spec.txt"
        spec_file.write_text(f"# generator\n{name}={bad}\n")
        argv = ["experiment", "--protocol", "rq1", "--spec-file", str(spec_file), "--out", str(out)]
        assert run(argv) == 2
        assert f"{spec_file}: line 2: {rule}" in capsys.readouterr().err
        assert not out.exists()
        value = {"int": int, "float": float}[f.type](bad)
        with pytest.raises(SpecError, match=f"{name} must be in"):
            SyntheticSpec(**{name: value})

    @pytest.mark.parametrize("keys, flags, named", [
        ("", ["--n-families", "5", "--n-positive", "3"], "--n-families/--n-positive"),
        ("n_positive=3\n", ["--n-families", "5"], "--n-families"),
        ("", ["--dimension", "30"], "--dimension"),
        ("dimension=30\n", ["--signal-features", "4", "--n-families", "8"],
         "--signal-features/--n-families"),
    ])
    def test_cross_field_check_names_the_flags_given(self, tmp_path, capsys, keys, flags, named):
        # an unrelated flag beside spec-file keys that fail the check leaves it a data error
        spec_file, out = tmp_path / "spec.txt", tmp_path / "o.json"
        spec_file.write_text(keys)
        argv = ["experiment", "--protocol", "rq1", "--spec-file", str(spec_file), "--out", str(out)]
        assert run([*argv, *flags]) == 1
        assert f"error: argument {named}: " in capsys.readouterr().err
        pairs = zip(flags[::2], flags[1::2])
        spec_file.write_text(keys + "".join(f"{f[2:].replace('-', '_')}={v}\n" for f, v in pairs))
        assert run([*argv, "--n-negative", "7"]) == 2
        assert f"error: {spec_file}: " in capsys.readouterr().err
        assert not out.exists()
