import argparse
import hashlib
import json
import zipfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hornnet import cli, datakit, evalharness, tensornet
from hornnet.cli import main

FIXTURE = Path(__file__).parent / "data" / "tiny_players.csv"

RULES = (
    "Final_score :- CT_concepts, CT_skills.\n"
    "CT_concepts :- Conditional, Loop.\n"
    "CT_skills :- Debug, Simulation, Function.\n"
)


def digest_dir(path: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
        if p.is_file()
    }


@pytest.fixture
def rules_file(tmp_path):
    p = tmp_path / "ct.rules"
    p.write_text(RULES)
    return p


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "data"
    assert main(["synth", "--rows", "160", "--test-rows", "48", "--seed", "7", "--out", str(out)]) == 0
    return out


class TestSynth:
    def test_writes_csvs_and_manifest(self, synth_dir):
        assert (synth_dir / "train.csv").exists()
        assert (synth_dir / "test.csv").exists()
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 7
        assert set(manifest["outputs"]) == {"train.csv", "test.csv"}
        train_lines = (synth_dir / "train.csv").read_text().splitlines()
        assert len(train_lines) == 161  # header + rows

    def test_zero_rows_usage_error(self, tmp_path):
        assert main(["synth", "--rows", "0", "--out", str(tmp_path)]) == 2

    def test_reproducible_digests(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["synth", "--rows", "120", "--test-rows", "40", "--seed", "3", "--out", str(out)]) == 0
        assert digest_dir(a) == digest_dir(b)


class TestTrain:
    def test_nsai_training(self, tmp_path, synth_dir, rules_file):
        out = tmp_path / "model"
        code = main([
            "train", "--data", str(synth_dir / "train.csv"),
            "--rules", str(rules_file), "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        assert (out / "model.npz").exists()
        report = json.loads((out / "train_report.json").read_text())
        assert report["model"] == "nsai"

    def test_smote_augmented_baseline(self, tmp_path, synth_dir):
        out = tmp_path / "model"
        code = main([
            "train", "--data", str(synth_dir / "train.csv"),
            "--augment", "smote", "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        report = json.loads((out / "train_report.json").read_text())
        assert report["model"] == "baseline"
        counts = report["class_counts"]
        assert counts["High"] == counts["Low"]

    def test_nsai_without_rules_usage_error(self, tmp_path, synth_dir):
        code = main([
            "train", "--data", str(synth_dir / "train.csv"),
            "--model", "nsai", "--out", str(tmp_path / "m"),
        ])
        assert code == 2

    def test_baseline_is_the_shared_builder_trained(self, tmp_path, synth_dir):
        out = tmp_path / "model"
        argv = ["train", "--data", str(synth_dir / "train.csv"), "--seed", "7", "--max-epochs", "4"]
        assert main(argv + ["--out", str(out)]) == 0
        saved = tensornet.load_network(out / "model.npz")
        data = datakit.load_csv(synth_dir / "train.csv")
        net = replace(evalharness.build_baseline(data, 7), input_bounds=datakit.feature_bounds(data))
        expected, _ = tensornet.train(net, data, tensornet.TrainConfig(seed=7, max_epochs=4))
        assert saved.input_bounds.tobytes() == expected.input_bounds.tobytes()
        for got, want in zip(saved.layers, expected.layers):
            assert np.array_equal(got.weights, want.weights)
            assert np.array_equal(got.biases, want.biases)

    def test_baseline_manifest_leaves_unused_rules_out(self, tmp_path, synth_dir, rules_file):
        out = tmp_path / "model"
        argv = ["train", "--data", str(synth_dir / "train.csv"), "--model", "baseline",
                "--rules", str(rules_file), "--max-epochs", "2", "--out", str(out)]
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest["inputs"]) == [str(synth_dir / "train.csv")]
        assert manifest["args"]["rules"] == str(rules_file)

    def test_manifest_rerun_reproduces_outputs(self, tmp_path, synth_dir, rules_file):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["train", "--data", str(synth_dir / "train.csv"), "--rules", str(rules_file), "--seed", "4"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert digest_dir(a) == digest_dir(b)


class TestEvaluateExplainExtract:
    @pytest.fixture
    def trained(self, tmp_path, synth_dir, rules_file):
        out = tmp_path / "model"
        main(["train", "--data", str(synth_dir / "train.csv"), "--rules", str(rules_file), "--seed", "7", "--out", str(out)])
        return out / "model.npz"

    @pytest.fixture
    def baseline(self, tmp_path, synth_dir):
        out = tmp_path / "baseline"
        main(["train", "--data", str(synth_dir / "train.csv"), "--seed", "7", "--out", str(out)])
        return out / "model.npz"

    def test_evaluate_fixture_metrics(self, tmp_path, trained, synth_dir):
        out = tmp_path / "eval"
        code = main(["evaluate", "--model", str(trained), "--data", str(synth_dir / "test.csv"), "--out", str(out)])
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert 0.0 <= metrics["accuracy"] <= 1.0
        assert (out / "metrics.txt").read_text().count("%") >= 1

    def test_extract_emits_rules_text(self, tmp_path, trained, synth_dir, capsys):
        out = tmp_path / "rules"
        code = main(["extract", "--model", str(trained), "--data", str(synth_dir / "train.csv"), "--out", str(out)])
        assert code == 0
        text = (out / "rules.txt").read_text()
        assert text.splitlines()[0].startswith("CT_concepts: ")
        assert "Final_score: " in text
        payload = json.loads((out / "rules.json").read_text())
        assert payload["fidelity"] >= 0.0

    def test_extract_on_baseline_is_runtime_error(self, tmp_path, baseline, synth_dir, capsys):
        code = main(["extract", "--model", str(baseline), "--data", str(synth_dir / "train.csv"), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "explain" in capsys.readouterr().err

    def test_explain_outputs(self, tmp_path, baseline, synth_dir):
        out = tmp_path / "exp"
        code = main([
            "explain", "--model", str(baseline), "--data", str(synth_dir / "test.csv"),
            "--samples", "200", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads((out / "global_explanation.json").read_text())
        assert set(payload["mean_abs"]) == set(json.loads((out / "global_explanation.json").read_text())["mean_signed"])
        assert (out / "mispredictions.txt").exists()


def _save_columns(data: datakit.Dataset, order, path: Path) -> Path:
    """`data` written to `path` with its feature columns in `order`."""
    idx = [data.feature_names.index(name) for name in order]
    datakit.save_csv(replace(data, feature_names=tuple(order), rows=data.rows[:, idx]), path)
    return path


class TestScoringInputs:
    """A model scales raw rows with its own training bounds and matches CSV
    columns by name, so a row's score does not depend on the file around it."""

    @pytest.fixture
    def nsai(self, tmp_path, synth_dir, rules_file):
        out = tmp_path / "model"
        argv = ["train", "--data", str(synth_dir / "train.csv"), "--rules", str(rules_file), "--seed", "7"]
        assert main(argv + ["--out", str(out)]) == 0
        return out / "model.npz"

    def test_row_scores_the_same_in_any_file(self, tmp_path, synth_dir, nsai):
        test = datakit.load_csv(synth_dir / "test.csv")
        high = np.flatnonzero(test.labels == "High")
        row = int(high[0])
        datakit.save_csv(datakit.subset(test, [row]), tmp_path / "alone.csv")
        datakit.save_csv(datakit.subset(test, high), tmp_path / "high.csv")
        _save_columns(test, test.feature_names[::-1], tmp_path / "permuted.csv")
        # each file and the position of the row in it
        files = {
            "alone": (tmp_path / "alone.csv", 0),
            "high_only": (tmp_path / "high.csv", 0),
            "full": (synth_dir / "test.csv", row),
            "permuted": (tmp_path / "permuted.csv", row),
        }
        net = tensornet.load_network(nsai)
        labels = tensornet.predict_labels(net, test.rows).astype(str)
        for name, (path, _) in files.items():
            out = tmp_path / f"eval-{name}"
            assert main(["evaluate", "--model", str(nsai), "--data", str(path), "--out", str(out)]) == 0
            scored = datakit.load_csv(path)
            rows = {"alone": [row], "high_only": high}.get(name, np.arange(test.n_rows))
            want = evalharness.compute_metrics(labels[rows], scored.labels.astype(str), datakit.CLASSES)
            got = json.loads((out / "metrics.json").read_text())
            assert got["confusion"] == want.confusion.tolist(), name

        probs = {}
        for name, (path, index) in files.items():
            _, data = cli._scoring_inputs(argparse.Namespace(model_path=nsai, data=path))
            probs[name] = tensornet.predict_proba(net, data.rows)[index]
        assert len({p.tobytes() for p in probs.values()}) == 1

    def test_permuted_columns_give_identical_outputs(self, tmp_path, synth_dir, nsai):
        for command, csv, name in (("evaluate", "test.csv", "metrics.json"), ("extract", "train.csv", "rules.json")):
            data = datakit.load_csv(synth_dir / csv)
            permuted = _save_columns(data, data.feature_names[::-1], tmp_path / f"permuted-{csv}")
            outputs = []
            for path in (synth_dir / csv, permuted):
                out = tmp_path / f"{command}-{path.stem}"
                assert main([command, "--model", str(nsai), "--data", str(path), "--out", str(out)]) == 0
                outputs.append((out / name).read_bytes())
            assert outputs[0] == outputs[1], command

    def test_missing_feature_column_is_runtime_error(self, tmp_path, synth_dir, nsai, capsys):
        data = datakit.load_csv(synth_dir / "test.csv")
        path = _save_columns(data, [n for n in data.feature_names if n != "Loop"], tmp_path / "no_loop.csv")
        capsys.readouterr()
        assert main(["evaluate", "--model", str(nsai), "--data", str(path), "--out", str(tmp_path / "e")]) == 1
        err = capsys.readouterr().err
        assert err == f"hornnet: error: {path}: missing feature column(s) the model needs: Loop\n"

    def test_explain_on_constant_rows_is_runtime_error(self, tmp_path, synth_dir, nsai, capsys):
        data = datakit.load_csv(synth_dir / "test.csv")
        path = tmp_path / "one.csv"
        datakit.save_csv(datakit.subset(data, [0]), path)
        capsys.readouterr()
        argv = ["explain", "--model", str(nsai), "--data", str(path), "--samples", "60", "--out", str(tmp_path / "x")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("hornnet: error: every feature is constant") and err.count("\n") == 1
        assert not (tmp_path / "x" / "manifest.json").exists()


class TestCompare:
    def test_compare_runs_and_reproduces(self, tmp_path, rules_file):
        data = tmp_path / "d"
        main(["synth", "--rows", "120", "--test-rows", "40", "--seed", "2", "--out", str(data)])
        a, b = tmp_path / "ra", tmp_path / "rb"
        argv = [
            "compare", "--train", str(data / "train.csv"), "--test", str(data / "test.csv"),
            "--rules", str(rules_file), "--seed", "2", "--cv-folds", "3",
        ]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert digest_dir(a) == digest_dir(b)
        report = json.loads((a / "report.json").read_text())
        assert set(report["test_metrics"]) == {"deep_nn", "deep_nn_smote", "deep_nn_autoencoder", "nsai"}


class TestFlagResolution:
    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HORNNET_ROWS", "64")
        out = tmp_path / "d"
        assert main(["synth", "--test-rows", "32", "--seed", "1", "--out", str(out)]) == 0
        assert len((out / "train.csv").read_text().splitlines()) == 65

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rows": 72, "test_rows": 36}))
        out = tmp_path / "d"
        assert main(["synth", "--seed", "1", "--out", str(out), "--config", str(cfg)]) == 0
        assert len((out / "train.csv").read_text().splitlines()) == 73

    def test_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rows": 72}))
        out = tmp_path / "d"
        assert main(["synth", "--rows", "96", "--test-rows", "36", "--seed", "1", "--out", str(out), "--config", str(cfg)]) == 0
        assert len((out / "train.csv").read_text().splitlines()) == 97

    def test_config_file_from_env(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rows": 33, "test_rows": 12}))
        monkeypatch.setenv("HORNNET_CONFIG", str(cfg))
        out = tmp_path / "d"
        assert main(["synth", "--seed", "1", "--out", str(out)]) == 0
        assert len((out / "train.csv").read_text().splitlines()) == 34

    def test_config_flag_beats_env_config(self, tmp_path, monkeypatch):
        env_cfg, flag_cfg = tmp_path / "env.json", tmp_path / "flag.json"
        env_cfg.write_text(json.dumps({"rows": 33, "test_rows": 12}))
        flag_cfg.write_text(json.dumps({"rows": 72, "test_rows": 12}))
        monkeypatch.setenv("HORNNET_CONFIG", str(env_cfg))
        out = tmp_path / "d"
        assert main(["synth", "--seed", "1", "--out", str(out), "--config", str(flag_cfg)]) == 0
        assert len((out / "train.csv").read_text().splitlines()) == 73

    def test_bad_positive_int_flag_names_no_function(self, tmp_path, capsys):
        assert main(["train", "--data", str(FIXTURE), "--max-epochs", "abc", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "expected a positive integer, got 'abc'" in err
        assert "_positive_int" not in err

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        code = main(["evaluate", "--model", str(tmp_path / "missing.npz"), "--data", str(FIXTURE), "--out", str(tmp_path)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, env, config",
        [
            (["synth"], {}, {"rows": "abc"}),
            (["synth"], {}, {"rows": 0}),
            (["synth"], {}, {"rows": 72.5}),
            (["synth"], {}, ["not", "an", "object"]),
            (["synth"], {"HORNNET_SEED": "abc"}, None),
            (["synth"], {"HORNNET_ROWS": "0"}, None),
            (["train", "--data", str(FIXTURE)], {"HORNNET_AUGMENT": "bogus"}, None),
            (["train", "--data", str(FIXTURE)], {}, {"augment": "smotee"}),
            (["train", "--data", str(FIXTURE)], {"HORNNET_MODEL": "bogus"}, None),
            (["train", "--data", str(FIXTURE), "--model", "nsai"], {}, None),
            (["explain", "--model", "m.npz", "--data", str(FIXTURE), "--samples", "10"], {}, None),
            (["train", "--data", str(FIXTURE), "--learning-rate", "-1"], {}, None),
            (["train", "--data", str(FIXTURE), "--learning-rate", "nan"], {}, None),
            (["train", "--data", str(FIXTURE)], {"HORNNET_LEARNING_RATE": "inf"}, None),
            (["train", "--data", str(FIXTURE), "--rules", "r", "--omega", "0"], {}, None),
            (["synth", "--class-ratio", "1.5"], {}, None),
            (["synth", "--train-r", "2"], {}, None),
            (["synth"], {}, {"test_r": "nan"}),
            (["extract", "--model", "m.npz", "--data", str(FIXTURE), "--tolerance", "-1"], {}, None),
            (["compare", "--train", "a", "--test", "b", "--rules", "r", "--cv-folds", "1"], {}, None),
            (["synth", "--rows", "5"], {}, None),
            (["train"], {}, None),
            (["synth", "--bogus"], {}, None),
        ],
    )
    def test_bad_values_are_usage_errors(self, tmp_path, monkeypatch, capsys, argv, env, config):
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        extra = []
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            extra = ["--config", str(cfg)]
        assert main(argv + extra + ["--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("hornnet: error: ") and err.count("\n") == 1
        assert "_positive_int" not in err
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("raw", [b'{"rows": 3', b'{"rows": "\xff"}'], ids=["truncated", "not_utf8"])
    def test_unreadable_config_file_is_usage_error(self, tmp_path, capsys, raw):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(raw)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"hornnet: error: {cfg}: config file is not valid JSON: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("damage", ["not_zip", "truncated", "member_missing", "version_1"])
    def test_bad_model_file_is_runtime_error(self, tmp_path, capsys, damage):
        good = tmp_path / "good"
        assert main(["train", "--data", str(FIXTURE), "--max-epochs", "2", "--out", str(good)]) == 0
        raw = (good / "model.npz").read_bytes()
        bad = tmp_path / "bad.npz"
        if damage == "not_zip":
            bad.write_text("not a model\n")
        elif damage == "truncated":
            bad.write_bytes(raw[: len(raw) // 2])
        elif damage == "member_missing":
            with zipfile.ZipFile(good / "model.npz") as src, zipfile.ZipFile(bad, "w") as dst:
                for info in src.infolist():
                    if info.filename != "w1.npy":
                        dst.writestr(info, src.read(info.filename))
        else:  # a version-1 file: no input bounds
            with zipfile.ZipFile(good / "model.npz") as src, zipfile.ZipFile(bad, "w") as dst:
                for info in src.infolist():
                    if info.filename == "meta.json":
                        dst.writestr(info, json.dumps({**json.loads(src.read(info)), "version": 1}))
                    elif info.filename != "bounds.npy":
                        dst.writestr(info, src.read(info))
        capsys.readouterr()
        code = main(["evaluate", "--model", str(bad), "--data", str(FIXTURE), "--out", str(tmp_path / "e")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"hornnet: error: {bad}: ") and err.count("\n") == 1
        assert damage != "version_1" or "format version 1 is not supported" in err
