import argparse
import hashlib
import io
import json
import zipfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hornnet import augment, cli, datakit, evalharness, explain, tensornet
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

    def test_manifest_lists_only_what_it_wrote(self, tmp_path, synth_dir):
        out = tmp_path / "mix"
        out.mkdir()
        (out / "notes.txt").write_text("not an output\n")
        assert main(["synth", "--rows", "160", "--test-rows", "48", "--seed", "7", "--out", str(out)]) == 0
        manifest = (out / "manifest.json").read_bytes()
        assert set(json.loads(manifest)["outputs"]) == {"train.csv", "test.csv"}
        assert manifest == (synth_dir / "manifest.json").read_bytes()

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

    def test_autoencoder_augmented_baseline(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["train", "--data", str(FIXTURE), "--augment", "autoencoder", "--seed", "3"]
        for out in (a, b):
            assert main(argv + ["--out", str(out)]) == 0
        report = json.loads((a / "train_report.json").read_text())
        assert report["augment"] == "autoencoder"
        counts = report["class_counts"]
        assert counts["High"] == counts["Low"]
        assert report["effective_rows"] == 2 * max(datakit.load_csv(FIXTURE).class_counts().values())
        assert digest_dir(a) == digest_dir(b)

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

    def test_non_finite_cell_is_runtime_error(self, tmp_path, synth_dir, capsys):
        path = tmp_path / "nan.csv"
        header, first, rest = (synth_dir / "train.csv").read_text().split("\n", 2)
        cells = first.split(",")
        path.write_text("\n".join([header, ",".join(["nan"] + cells[1:]), rest]))
        capsys.readouterr()
        assert main(["train", "--data", str(path), "--out", str(tmp_path / "t")]) == 1
        assert capsys.readouterr().err == f"hornnet: error: {path}: non-finite cell nan at row 2, column 1\n"

    @pytest.mark.parametrize("model", ["baseline", "nsai"])
    @pytest.mark.parametrize("data", ["synth", "fixture"])
    def test_diverging_training_is_one_error_line(self, tmp_path, synth_dir, rules_file, capsys, model, data):
        # a step size of 1e308 overflows the forward pass; the fixture's one-batch
        # epochs first overflow the validation pass, then the next epoch's step
        path, where = (synth_dir / "train.csv", "epoch 1, batch 1") if data == "synth" else (FIXTURE, "epoch 2, batch 0")
        argv = ["train", "--data", str(path), "--model", model, "--rules", str(rules_file), "--learning-rate", "1e308"]
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "m")]) == 1
        assert capsys.readouterr().err == f"hornnet: error: non-finite loss at {where}\n"

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

    def test_explain_explains_each_row_once(self, tmp_path, baseline, synth_dir, monkeypatch):
        # flipped labels make sure that some rows are mispredicted
        data = datakit.load_csv(synth_dir / "test.csv")
        flipped = np.where(data.labels[:10] == "High", "Low", "High")
        data = replace(data, labels=np.concatenate([flipped, data.labels[10:]]).astype(object))
        datakit.save_csv(data, tmp_path / "flipped.csv")
        explained = []
        lime_explain = explain.lime_explain

        def spy(*args, **kwargs):
            explained.append(kwargs["instance_id"])
            return lime_explain(*args, **kwargs)

        monkeypatch.setattr(explain, "lime_explain", spy)
        out = tmp_path / "exp"
        argv = ["explain", "--model", str(baseline), "--data", str(tmp_path / "flipped.csv"), "--samples", "60"]
        assert main(argv + ["--out", str(out)]) == 0
        mispredicted = json.loads((out / "mispredictions.json").read_text())
        assert len(mispredicted) > 0
        assert explained == list(range(data.n_rows))


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
        cases = (
            ("evaluate", "test.csv", "metrics.json", []),
            ("extract", "train.csv", "rules.json", []),
            ("explain", "test.csv", "global_explanation.json", ["--samples", "60"]),
        )
        for command, csv, name, extra in cases:
            data = datakit.load_csv(synth_dir / csv)
            permuted = _save_columns(data, data.feature_names[::-1], tmp_path / f"permuted-{csv}")
            outputs = []
            for path in (synth_dir / csv, permuted):
                out = tmp_path / f"{command}-{path.stem}"
                assert main([command, "--model", str(nsai), "--data", str(path), "--out", str(out)] + extra) == 0
                outputs.append((out / name).read_bytes())
            assert outputs[0] == outputs[1], command

    def test_explain_equals_the_library(self, tmp_path, synth_dir, nsai):
        # the CLI's column matching hands LIME the same rows, in the same memory
        # order, as load_csv does, so its statistics sum in the same order
        data = datakit.load_csv(synth_dir / "test.csv")
        lib = explain.global_explain(tensornet.predictor(tensornet.load_network(nsai)), data, n_samples=60, seed=3)
        want = {"mean_signed": lib.mean_signed, "mean_abs": lib.mean_abs, "n_instances": lib.n_instances}
        permuted = _save_columns(data, data.feature_names[::-1], tmp_path / "permuted.csv")
        for path in (synth_dir / "test.csv", permuted):
            out = tmp_path / f"explain-{path.stem}"
            argv = ["explain", "--model", str(nsai), "--data", str(path), "--samples", "60", "--seed", "3"]
            assert main(argv + ["--out", str(out)]) == 0
            assert json.loads((out / "global_explanation.json").read_text()) == want, path.name

    def test_missing_feature_column_is_runtime_error(self, tmp_path, synth_dir, nsai, capsys):
        data = datakit.load_csv(synth_dir / "test.csv")
        path = _save_columns(data, [n for n in data.feature_names if n != "Loop"], tmp_path / "no_loop.csv")
        capsys.readouterr()
        assert main(["evaluate", "--model", str(nsai), "--data", str(path), "--out", str(tmp_path / "e")]) == 1
        err = capsys.readouterr().err
        assert err == f"hornnet: error: {path}: missing feature column(s) the model needs: Loop\n"

    def test_duplicate_feature_column_is_runtime_error(self, tmp_path, synth_dir, rules_file, nsai, capsys):
        # with two Loop columns, compiling would wire the rule to one and scoring feed it the other
        path = tmp_path / "two_loops.csv"
        header, rest = (synth_dir / "train.csv").read_text().split("\n", 1)
        path.write_text(header.replace("Arrow", "Loop") + "\n" + rest)
        commands = (
            ["train", "--data", str(path), "--rules", str(rules_file)],
            ["evaluate", "--model", str(nsai), "--data", str(path)],
        )
        for argv in commands:
            capsys.readouterr()
            assert main(argv + ["--out", str(tmp_path / argv[0])]) == 1
            assert capsys.readouterr().err == f"hornnet: error: {path}: duplicate column name(s): Loop\n"
            assert not (tmp_path / argv[0] / "manifest.json").exists()

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

    @pytest.mark.parametrize("outputs", [("Pass", "Fail"), ("High", "Low")], ids=["renamed", "reversed"])
    @pytest.mark.parametrize("command", ["evaluate", "explain", "extract"])
    def test_model_outputs_must_be_the_classes(self, tmp_path, synth_dir, nsai, capsys, command, outputs):
        path = tmp_path / "outputs.npz"
        net = tensornet.load_network(nsai)
        tensornet.save_network(replace(net, unit_labels=[*net.unit_labels[:-1], list(outputs)]), path)
        capsys.readouterr()
        argv = [command, "--model", str(path), "--data", str(synth_dir / "test.csv"), "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"hornnet: error: {path}: model outputs {', '.join(outputs)} are not Low, High\n"
        assert not (tmp_path / "o" / "manifest.json").exists()


class TestByteOrderMark:
    """A UTF-8 byte-order mark, as Excel writes it, is read past in every text input."""

    BOM = b"\xef\xbb\xbf"

    def _with_bom(self, path: Path, to: Path) -> Path:
        to.write_bytes(self.BOM + path.read_bytes())
        return to

    def test_csv_trains_the_same_model(self, tmp_path, synth_dir):
        plain = synth_dir / "train.csv"
        bom = self._with_bom(plain, tmp_path / "bom.csv")
        assert datakit.load_csv(bom).feature_names == datakit.load_csv(plain).feature_names
        for name, path in (("plain", plain), ("bom", bom)):
            assert main(["train", "--data", str(path), "--max-epochs", "5", "--seed", "7", "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "bom" / "model.npz").read_bytes() == (tmp_path / "plain" / "model.npz").read_bytes()

    def test_rule_file_is_accepted(self, tmp_path, synth_dir, rules_file):
        bom = self._with_bom(rules_file, tmp_path / "bom.rules")
        data = ["--data", str(synth_dir / "train.csv"), "--max-epochs", "5"]
        for name, rules in (("plain", rules_file), ("bom", bom)):
            assert main(["train", *data, "--rules", str(rules), "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "bom" / "model.npz").read_bytes() == (tmp_path / "plain" / "model.npz").read_bytes()
        compare = ["compare", "--train", str(synth_dir / "train.csv"), "--test", str(synth_dir / "test.csv")]
        assert main([*compare, "--rules", str(bom), "--cv-folds", "2", "--out", str(tmp_path / "c")]) == 0

    def test_config_file_is_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(self.BOM + json.dumps({"rows": 33, "test_rows": 12}).encode())
        out = tmp_path / "d"
        assert main(["synth", "--seed", "1", "--out", str(out), "--config", str(cfg)]) == 0
        assert len((out / "train.csv").read_text().splitlines()) == 34


class TestInputErrors:
    """A bad CSV or rule file is one error line that names it, with exit code 1
    and no manifest."""

    def run(self, tmp_path, capsys, argv) -> str:
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "o")]) == 1
        assert not (tmp_path / "o" / "manifest.json").exists()
        return capsys.readouterr().err

    @pytest.fixture
    def not_utf8(self, tmp_path, synth_dir):
        path = tmp_path / "latin1.csv"
        path.write_bytes((synth_dir / "test.csv").read_bytes().replace(b"High", b"H\xffgh", 1))
        return path

    @pytest.mark.parametrize("command", ["train", "evaluate", "compare"])
    def test_csv_not_utf8(self, tmp_path, synth_dir, rules_file, capsys, not_utf8, command):
        if command == "train":
            argv = ["train", "--data", str(not_utf8)]
        elif command == "evaluate":
            model = tmp_path / "m"
            assert main(["train", "--data", str(synth_dir / "train.csv"), "--max-epochs", "2", "--out", str(model)]) == 0
            argv = ["evaluate", "--model", str(model / "model.npz"), "--data", str(not_utf8)]
        else:
            argv = ["compare", "--train", str(synth_dir / "train.csv"), "--test", str(not_utf8), "--rules", str(rules_file)]
        err = self.run(tmp_path, capsys, argv)
        assert err.startswith(f"hornnet: error: {not_utf8}: 'utf-8' codec can't decode byte 0xff in position ")
        assert err.endswith(": invalid start byte\n") and err.count("\n") == 1

    @staticmethod
    def rules_argv(command, synth_dir, rules) -> list[str]:
        data = synth_dir / "train.csv"
        if command == "train":
            return ["train", "--data", str(data), "--rules", str(rules)]
        return ["compare", "--train", str(data), "--test", str(synth_dir / "test.csv"), "--rules", str(rules)]

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_rule_file_not_utf8(self, tmp_path, synth_dir, capsys, command):
        rules = tmp_path / "latin1.rules"
        rules.write_bytes(RULES.encode().replace(b"Loop", b"L\xffop"))
        position = RULES.index("Loop") + 1
        err = self.run(tmp_path, capsys, self.rules_argv(command, synth_dir, rules))
        assert err == f"hornnet: error: {rules}: 'utf-8' codec can't decode byte 0xff in position {position}: invalid start byte\n"

    @pytest.mark.parametrize("command", ["train", "compare"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("Final_score :- CT_concepts CT_skills.\n", "line 1, column 28: expected '.', found 'CT_skills'"),
            ("A :- B.\nB :- A.\n", "cycle detected among heads: ['A', 'B']"),
            ("A :- B.\nA :- B.\n", "duplicate clause: A :- B."),
        ],
        ids=["syntax", "cycle", "duplicate"],
    )
    def test_invalid_rule_file(self, tmp_path, synth_dir, capsys, command, text, message):
        rules = tmp_path / "bad.rules"
        rules.write_text(text)
        err = self.run(tmp_path, capsys, self.rules_argv(command, synth_dir, rules))
        assert err == f"hornnet: error: {rules}: {message}\n"

    @pytest.mark.parametrize("augmenter", ["smote", "balance_with_autoencoder"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("Final_score :- CT_concepts CT_skills.\n", "{rules}: line 1, column 28: expected '.', found 'CT_skills'"),
            ("Final_score :- Loop, Missing.\n", "rule inputs missing from feature_names: ['Missing']"),
        ],
        ids=["syntax", "compile"],
    )
    def test_bad_rules_fail_before_augmentation(self, tmp_path, synth_dir, capsys, monkeypatch, augmenter, text, message):
        rules = tmp_path / "bad.rules"
        rules.write_text(text)
        argv = self.rules_argv("train", synth_dir, rules)
        want = f"hornnet: error: {message.format(rules=rules)}\n"
        assert self.run(tmp_path, capsys, argv) == want

        def no_augmenter(*args, **kwargs):
            raise AssertionError(f"augment.{augmenter} called")

        monkeypatch.setattr(augment, augmenter, no_augmenter)
        flag = "smote" if augmenter == "smote" else "autoencoder"
        assert self.run(tmp_path, capsys, argv + ["--augment", flag]) == want

    def test_empty_column_name(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("a,,Final_score\n" + "".join(f"{i},{i % 3},{'High' if i % 2 else 'Low'}\n" for i in range(20)))
        err = self.run(tmp_path, capsys, ["train", "--data", str(path)])
        assert err == f"hornnet: error: {path}: empty column name at column 2\n"

    def test_label_column_alone(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("Final_score\n" + "High\nLow\n" * 10)
        err = self.run(tmp_path, capsys, ["train", "--data", str(path)])
        assert err == f"hornnet: error: {path}: no feature columns besides 'Final_score'\n"


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

    def test_test_columns_matched_by_name(self, tmp_path, rules_file):
        data = tmp_path / "d"
        main(["synth", "--rows", "120", "--test-rows", "40", "--seed", "3", "--out", str(data)])
        test = datakit.load_csv(data / "test.csv")
        permuted = _save_columns(test, test.feature_names[::-1], tmp_path / "permuted.csv")
        reports = []
        for path in (data / "test.csv", permuted):
            out = tmp_path / f"report-{path.stem}"
            argv = ["compare", "--train", str(data / "train.csv"), "--test", str(path), "--rules", str(rules_file)]
            assert main(argv + ["--seed", "3", "--cv-folds", "3", "--out", str(out)]) == 0
            reports.append([(out / name).read_bytes() for name in ("report.json", "report.txt")])
        assert reports[0] == reports[1]

    def test_missing_test_column_fails_before_training(self, tmp_path, synth_dir, rules_file, monkeypatch, capsys):
        def no_smote(*args, **kwargs):
            raise AssertionError("augment.smote called")

        monkeypatch.setattr(augment, "smote", no_smote)
        test = datakit.load_csv(synth_dir / "test.csv")
        path = _save_columns(test, [n for n in test.feature_names if n != "Loop"], tmp_path / "no_loop.csv")
        capsys.readouterr()
        argv = ["compare", "--train", str(synth_dir / "train.csv"), "--test", str(path), "--rules", str(rules_file)]
        assert main(argv + ["--out", str(tmp_path / "c")]) == 1
        assert capsys.readouterr().err == f"hornnet: error: {path}: missing feature column(s) the model needs: Loop\n"
        assert not (tmp_path / "c" / "manifest.json").exists()


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

    def test_explicit_default_beats_env(self, tmp_path, monkeypatch):
        argv = ["synth", "--rows", "40", "--test-rows", "20", "--seed", "0"]
        assert main(argv + ["--out", str(tmp_path / "plain")]) == 0
        monkeypatch.setenv("HORNNET_SEED", "5")
        out = tmp_path / "d"
        assert main(argv + ["--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 0
        assert digest_dir(out) == digest_dir(tmp_path / "plain")

    def test_explicit_default_beats_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rows": 30}))
        out = tmp_path / "d"
        assert main(["synth", "--rows", "427", "--test-rows", "20", "--out", str(out), "--config", str(cfg)]) == 0
        assert len((out / "train.csv").read_text().splitlines()) == 428

    def test_bad_positive_int_flag_names_no_function(self, tmp_path, capsys):
        assert main(["train", "--data", str(FIXTURE), "--max-epochs", "abc", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "expected a positive integer, got 'abc'" in err
        assert "_positive_int" not in err

    def test_version_and_help_exit_zero(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out == "hornnet 0.1.0\n"
        assert main(["train", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: hornnet train [-h] --data DATA")

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
            (["synth", "--seed", "-1"], {}, None),
            (["synth"], {"HORNNET_SEED": "-1"}, None),
            (["synth"], {}, {"seed": -1}),
            (["train", "--data", str(FIXTURE), "--seed", "-1"], {}, None),
            (["explain", "--model", "m.npz", "--data", str(FIXTURE), "--seed", "-1"], {}, None),
            (["compare", "--train", "a", "--test", "b", "--rules", "r", "--seed", "-1"], {}, None),
            # a required flag comes from the command line only
            (["train"], {"HORNNET_DATA": str(FIXTURE)}, None),
            (["train"], {}, {"data": str(FIXTURE)}),
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

    def test_null_config_values_read_as_text(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": None}))
        assert main(["synth", "--config", str(cfg), "--out", "o"]) == 2
        err = capsys.readouterr().err
        assert err == f"hornnet: error: argument --seed: expected a non-negative integer, got 'null' (from {cfg})\n"
        cfg.write_text(json.dumps({"out": None, "rows": 40, "test_rows": 20}))
        assert main(["synth", "--config", str(cfg)]) == 0
        assert (tmp_path / "null" / "manifest.json").is_file()

    @pytest.mark.parametrize("raw", [b'{"rows": 3', b'{"rows": "\xff"}'], ids=["truncated", "not_utf8"])
    def test_unreadable_config_file_is_usage_error(self, tmp_path, capsys, raw):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(raw)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"hornnet: error: {cfg}: config file is not valid JSON: ")
        assert err.count("\n") == 1

    # meta.json edits of a trained baseline (three layers), each with the message it ends in
    META_EDITS = {
        "version_1": ({"version": 1}, "format version 1 is not supported; retrain the model"),
        "version_2": ({"version": 2}, "format version 2 is not supported; retrain the model"),
        "version_3": ({"version": 3}, "format version 3 is not supported; retrain the model"),
        "bad_rules": ({"rules": "C :- ."}, "unreadable model file: line 1, column 6: "),
        "not_hornnet": ({"format": "other"}, "unreadable model file: not a hornnet model file"),
        "bad_activation": ({"activations": ["tanh"] * 3}, "unreadable model file: unknown activation 'tanh'"),
        "no_layers": ({"n_layers": 0}, "unreadable model file: a network needs at least one layer"),
        "input_names": ({"input_names": []}, "unreadable model file: input_names length must match first layer width"),
        "unit_label_lists": ({"unit_labels": []}, "unreadable model file: unit_labels must have one list per layer"),
        "unit_label_count": ({"unit_labels": [[]] * 3}, "unreadable model file: unit label count must match layer width"),
        "output_names": ({"output_names": []}, "unreadable model file: output_names [] are not the output layer's labels ['Low', 'High']"),
        "output_names_order": (
            {"output_names": ["High", "Low"]},
            "unreadable model file: output_names ['High', 'Low'] are not the output layer's labels ['Low', 'High']",
        ),
    }
    # array members replaced, each with the message it ends in
    ARRAY_EDITS = {
        "one_d_weights": ("w0.npy", np.ravel, "unreadable model file: weights must be 2-D (out_units, in_units)"),
        "short_biases": ("b0.npy", lambda b: b[1:], "unreadable model file: bias length must equal out_units"),
    }

    @pytest.mark.parametrize(
        "damage", ["not_zip", "truncated", "member_missing", "nan_weight", *META_EDITS, *ARRAY_EDITS]
    )
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
        elif damage == "nan_weight":
            net = tensornet.load_network(good / "model.npz")
            net.layers[0].weights[0, 0] = np.nan
            tensornet.save_network(net, bad)
        elif damage in self.ARRAY_EDITS:
            member, change, _ = self.ARRAY_EDITS[damage]
            with zipfile.ZipFile(good / "model.npz") as src, zipfile.ZipFile(bad, "w") as dst:
                for info in src.infolist():
                    if info.filename == member:
                        buf = io.BytesIO()
                        np.lib.format.write_array(buf, change(np.lib.format.read_array(io.BytesIO(src.read(info)))))
                        dst.writestr(info, buf.getvalue())
                    else:
                        dst.writestr(info, src.read(info))
        else:  # an older format version (version 1 had no input bounds), or other meta.json damage
            edit, _ = self.META_EDITS[damage]
            with zipfile.ZipFile(good / "model.npz") as src, zipfile.ZipFile(bad, "w") as dst:
                for info in src.infolist():
                    if info.filename == "meta.json":
                        dst.writestr(info, json.dumps({**json.loads(src.read(info)), **edit}))
                    elif damage != "version_1" or info.filename != "bounds.npy":
                        dst.writestr(info, src.read(info))
        capsys.readouterr()
        code = main(["evaluate", "--model", str(bad), "--data", str(FIXTURE), "--out", str(tmp_path / "e")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"hornnet: error: {bad}: ") and err.count("\n") == 1
        if damage in self.META_EDITS:
            assert self.META_EDITS[damage][1] in err
        if damage in self.ARRAY_EDITS:
            assert err == f"hornnet: error: {bad}: {self.ARRAY_EDITS[damage][2]}\n"
        assert damage != "nan_weight" or err == f"hornnet: error: {bad}: unreadable model file: weights and biases must be finite\n"
