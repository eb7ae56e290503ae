import copy
import sys
from dataclasses import replace

import numpy as np
import pytest

from hornnet import augment, evalharness, tensornet
from hornnet.datakit import (
    SPURIOUS_FEATURE,
    DataError,
    Dataset,
    SynthConfig,
    feature_bounds,
    generate_synthetic,
    kfold_split,
    subset,
)
from hornnet.evalharness import (
    MODEL_KINDS,
    _seeded_builder,
    _train_with_folds,
    compute_metrics,
    correlation_table,
    derive_seed,
    render_correlation_table,
    render_metrics_table,
    render_report_text,
    report_to_dict,
    report_to_json,
    run_comparison,
)
from hornnet.rulelang import parse_rules
from hornnet.tensornet import TrainConfig, predict_labels, train


def brute_force_metrics(predictions, truth, classes):
    counts = {(t, p): 0 for t in classes for p in classes}
    for t, p in zip(truth, predictions):
        counts[(t, p)] += 1
    n = len(truth)
    correct = sum(counts[(c, c)] for c in classes)
    recall, precision = {}, {}
    for c in classes:
        actual = sum(counts[(c, p)] for p in classes)
        predicted = sum(counts[(t, c)] for t in classes)
        if actual:
            recall[c] = counts[(c, c)] / actual
        if predicted:
            precision[c] = counts[(c, c)] / predicted
    return correct / n, recall, precision


class TestMetrics:
    def test_perfect_predictions(self):
        truth = ["High"] * 3 + ["Low"] * 2
        m = compute_metrics(truth, truth)
        assert m.accuracy == 1.0
        assert m.recall == {"High": 1.0, "Low": 1.0}
        assert m.precision == {"High": 1.0, "Low": 1.0}

    def test_degenerate_precision_absent(self):
        m = compute_metrics(["High", "High"], ["High", "Low"])
        assert m.accuracy == 0.5
        assert m.recall["High"] == 1.0
        assert m.recall["Low"] == 0.0
        assert "Low" not in m.precision

    def test_hand_computed_confusion(self):
        truth = ["High"] * 100 + ["Low"] * 100
        preds = ["High"] * 86 + ["Low"] * 14 + ["High"] * 5 + ["Low"] * 95
        m = compute_metrics(preds, truth)
        assert m.accuracy == (86 + 95) / 200
        assert m.recall["High"] == 0.86
        assert m.precision["High"] == 86 / 91
        assert m.confusion.tolist() == [[95, 5], [14, 86]]  # rows: Low, High

    def test_matches_counting_oracle_randomized(self):
        rng = np.random.default_rng(0)
        classes = ("Low", "High")
        for _ in range(200):
            n = int(rng.integers(1, 40))
            truth = [classes[i] for i in rng.integers(0, 2, n)]
            preds = [classes[i] for i in rng.integers(0, 2, n)]
            m = compute_metrics(preds, truth, classes)
            acc, recall, precision = brute_force_metrics(preds, truth, classes)
            assert m.accuracy == acc
            assert m.recall == recall
            assert m.precision == precision
            assert m.confusion.sum() == n

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compute_metrics(["High"], ["High", "Low"])

    def test_label_outside_classes_named(self):
        with pytest.raises(ValueError, match="'Pass' is not one of the classes Low, High"):
            compute_metrics(["Pass", "High"], ["High", "Low"], ("Low", "High"))


class TestCorrelationTable:
    def _data(self, col, labels):
        return Dataset(("f",), np.asarray(col, dtype=float).reshape(-1, 1), np.asarray(labels, dtype=object))

    def test_identical_to_label(self):
        data = self._data([1, 0, 1, 0], ["High", "Low", "High", "Low"])
        table, flags = correlation_table([("d", data)])
        assert table["f"]["d"] == pytest.approx(1.0)
        assert flags == []

    def test_negated_label(self):
        data = self._data([0, 1, 0, 1], ["High", "Low", "High", "Low"])
        table, _ = correlation_table([("d", data)])
        assert table["f"]["d"] == pytest.approx(-1.0)

    def test_constant_feature_flagged(self):
        data = self._data([2, 2, 2], ["High", "Low", "High"])
        table, flags = correlation_table([("d", data)])
        assert table["f"]["d"] == 0.0
        assert ("d", "f") in flags

    def test_synthetic_train_hits_target(self):
        train, _ = generate_synthetic(SynthConfig(seed=3))
        table, _ = correlation_table([("train", train)])
        assert table["Small_cheese"]["train"] == pytest.approx(0.887, abs=0.03)


@pytest.fixture(scope="module")
def small_setup():
    rules = parse_rules(
        "Final_score :- CT_concepts, CT_skills.\n"
        "CT_concepts :- Conditional, Loop.\n"
        "CT_skills :- Debug, Simulation, Function.\n"
    )
    config = SynthConfig(n_rows=120, n_test=40, seed=5)
    train, test = generate_synthetic(config)
    return rules, train, test


@pytest.fixture(scope="module")
def small_report(small_setup):
    rules, train, test = small_setup
    return run_comparison(train, test, rules, master_seed=5, cv_folds=3)


CORRELATION_DATASETS = ["train", "smote_train", "autoencoder_train", "test"]


def model_names():
    return [name for name, _, _ in evalharness.MODEL_KINDS]


class TestComparison:
    def test_report_structure(self, small_setup, small_report):
        _, train, _ = small_setup
        report = small_report
        assert list(report.test_metrics) == model_names()
        assert list(report.cv_accuracy) == model_names()
        assert list(report.permutation_importances) == model_names()
        for feat in train.feature_names:
            assert set(report.correlations[feat]) == set(CORRELATION_DATASETS)
        assert len(report.nsai_rules.rules) >= 4
        text = render_metrics_table(report.test_metrics)
        assert "nsai" in text and "deep_nn" in text

    def test_report_text_sections(self, small_report):
        lines = render_report_text(small_report).splitlines()
        names = model_names()
        cv = lines.index("3-fold cross-validation accuracy (mean +- std)")
        assert [line.split()[0] for line in lines[cv + 1 : cv + 1 + len(names)]] == names
        assert lines[cv + 1 + len(names)] == ""
        perm = lines.index(f"Permutation importance of {SPURIOUS_FEATURE} (accuracy drop)")
        assert [line.split()[0] for line in lines[perm + 1 : perm + 1 + len(names)]] == names
        assert lines[perm + 1 + len(names)] == ""

    def test_correlation_table_text(self, small_setup, small_report):
        _, train, _ = small_setup
        header, rule, *rows = render_correlation_table(small_report.correlations).splitlines()
        assert header.split() == ["Feature", *CORRELATION_DATASETS]
        assert set(rule) == {"-"}
        assert [row.split()[0] for row in rows] == list(train.feature_names)
        for row in rows:
            name, *values = row.split()
            want = [f"{small_report.correlations[name][ds]:.3f}" for ds in CORRELATION_DATASETS]
            assert values == want

    def test_missing_feature_fails_before_training(self, small_setup):
        _, train, test = small_setup
        bad_rules = parse_rules("Final_score :- Wand.\n")
        with pytest.raises(Exception, match="Wand"):
            run_comparison(train, test, bad_rules, master_seed=5, cv_folds=3)

    def test_test_columns_matched_by_name(self, small_setup, small_report):
        rules, train, test = small_setup
        permuted = replace(test, feature_names=test.feature_names[::-1], rows=test.rows[:, ::-1])
        report = run_comparison(train, permuted, rules, master_seed=5, cv_folds=3)
        assert report_to_json(report) == report_to_json(small_report)

    def test_missing_test_column_fails_before_augmentation(self, small_setup, monkeypatch):
        def no_smote(*args, **kwargs):
            raise AssertionError("augment.smote called")

        monkeypatch.setattr(augment, "smote", no_smote)
        rules, train, test = small_setup
        keep = [i for i, name in enumerate(test.feature_names) if name != "Loop"]
        no_loop = replace(test, feature_names=[test.feature_names[i] for i in keep], rows=test.rows[:, keep])
        with pytest.raises(DataError, match=r"^test_data: missing feature column\(s\) the model needs: Loop$"):
            run_comparison(train, no_loop, rules, master_seed=5, cv_folds=3)

    def test_one_more_kind_adds_one_row(self, small_setup, small_report, monkeypatch):
        # a control is one more table entry; seeds derive from names, so the
        # other rows keep their bytes
        rules, train, test = small_setup
        nsai_build = {name: build for name, _, build in MODEL_KINDS}["nsai"]
        monkeypatch.setattr(evalharness, "MODEL_KINDS", (*MODEL_KINDS, ("control", "autoencoder_train", nsai_build)))
        report = run_comparison(train, test, rules, master_seed=5, cv_folds=3)
        got, want = report_to_dict(report), report_to_dict(small_report)
        for key in ("test_metrics", "cv_accuracy", "permutation_importances", "epochs_run"):
            assert list(got[key]) == [*want[key], "control"]
            got[key] = {name: value for name, value in got[key].items() if name != "control"}
        assert got == want

        lines = render_report_text(report).splitlines()
        rows = [i for i, line in enumerate(lines) if line.split()[:1] == ["control"]]
        # the metrics table, the cross-validation and the permutation importance sections
        assert len(rows) == 3
        assert [line for i, line in enumerate(lines) if i not in rows] == render_report_text(small_report).splitlines()

    def test_kind_builder_error_fails_before_augmentation(self, small_setup, monkeypatch):
        calls = []
        monkeypatch.setattr(augment, "smote", lambda *args, **kwargs: calls.append("smote"))
        monkeypatch.setattr(augment, "balance_with_autoencoder", lambda *args, **kwargs: calls.append("autoencoder"))

        def broken(data, rules, seed):
            raise ValueError("broken kind")

        # last in the table, so every kind's builder is checked, not only the knowledge model's
        monkeypatch.setattr(evalharness, "MODEL_KINDS", (*MODEL_KINDS, ("broken", "train", broken)))
        rules, train, test = small_setup
        with pytest.raises(ValueError, match="broken kind"):
            run_comparison(train, test, rules, master_seed=5, cv_folds=3)
        assert calls == []

    def test_dicts_do_not_share_the_report_containers(self, small_report):
        report = copy.deepcopy(small_report)
        json_before, text_before = report_to_json(report), render_report_text(report)

        def empty_every_container(value):
            if isinstance(value, (dict, list)):
                for item in list(value.values() if isinstance(value, dict) else value):
                    empty_every_container(item)
                value.clear()

        empty_every_container(report_to_dict(report))
        for metrics in report.test_metrics.values():
            empty_every_container(evalharness.metrics_to_dict(metrics))
        assert report_to_json(report) == json_before
        assert render_report_text(report) == text_before

    def test_byte_identical_reports(self, small_setup):
        rules, train, test = small_setup
        a = report_to_json(run_comparison(train, test, rules, master_seed=9, cv_folds=3))
        b = report_to_json(run_comparison(train, test, rules, master_seed=9, cv_folds=3))
        assert a == b

    def test_report_independent_of_feature_units(self, small_setup):
        # every model scales with the training bounds, and a power-of-two
        # unit change scales rows and bounds exactly
        rules, train, test = small_setup
        scaled = [replace(data, rows=data.rows * 1024.0) for data in (train, test)]
        a = report_to_json(run_comparison(train, test, rules, master_seed=9, cv_folds=3))
        b = report_to_json(run_comparison(*scaled, rules, master_seed=9, cv_folds=3))
        assert a == b

    def test_cv_rows_covered_once(self, small_setup):
        from hornnet.datakit import kfold_split

        _, train, _ = small_setup
        folds = kfold_split(train, 10, seed=1)
        counts = np.zeros(train.n_rows, dtype=int)
        for _, val_idx in folds:
            counts[val_idx] += 1
        assert np.all(counts == 1)


def per_fold_cross_validation(source, k, seed, builder):
    """The loop that `_train_with_folds` stacks: one `train` call per fold."""
    scores = []
    for fold, (train_idx, val_idx) in enumerate(kfold_split(source, k, seed)):
        fold_seed = derive_seed(seed, f"fold{fold}")
        trained, _ = train(builder(fold_seed), subset(source, train_idx), TrainConfig(seed=fold_seed))
        val = subset(source, val_idx)
        preds = predict_labels(trained, val.rows).astype(str)
        scores.append(float((preds == val.labels.astype(str)).mean()))
    return float(np.mean(scores)), float(np.std(scores))


CV_KINDS = {"baseline": "deep_nn", "compiled": "nsai"}  # test id -> a name of MODEL_KINDS


class TestCrossValidation:
    @pytest.mark.parametrize("folds", [3, 10])
    @pytest.mark.parametrize("kind", list(CV_KINDS))
    def test_stacked_folds_equal_per_fold_training(self, small_setup, kind, folds):
        rules, data, _ = small_setup
        build = next(build for name, _, build in MODEL_KINDS if name == CV_KINDS[kind])
        builder = _seeded_builder(build, data, rules, feature_bounds(data))
        seed, cv_seed = derive_seed(5, kind), derive_seed(5, f"cv-{kind}")
        model, report, cv = _train_with_folds(builder, data, seed, cv_seed, folds)
        assert cv == per_fold_cross_validation(data, folds, cv_seed, builder)
        # member 0 of the stack is the final net, exactly as `train` alone gives it
        want, want_report = train(builder(seed), data, TrainConfig(seed=seed))
        for got_layer, want_layer in zip(model.layers, want.layers, strict=True):
            assert got_layer.weights.tobytes() == want_layer.weights.tobytes()
            assert got_layer.biases.tobytes() == want_layer.biases.tobytes()
        assert report == want_report

    def test_one_stack_per_model_kind(self, small_setup, monkeypatch):
        # each model kind trains its final net and its folds in one direct
        # `train_stack` call; the only `train` call is the autoencoder's
        rules, data, test = small_setup
        stacks, trains = [], []
        real_stack, real_train = tensornet.train_stack, tensornet.train

        def counting_stack(nets, *args, **kwargs):
            stacks.append((sys._getframe(1).f_globals["__name__"], len(nets)))
            return real_stack(nets, *args, **kwargs)

        def counting_train(*args, **kwargs):
            trains.append(sys._getframe(1).f_globals["__name__"])
            return real_train(*args, **kwargs)

        monkeypatch.setattr(tensornet, "train_stack", counting_stack)
        monkeypatch.setattr(tensornet, "train", counting_train)
        monkeypatch.setattr(augment, "train", counting_train)
        cv_folds = 3
        run_comparison(data, test, rules, master_seed=5, cv_folds=cv_folds)
        assert [n for caller, n in stacks if caller == "hornnet.evalharness"] == [cv_folds + 1] * len(MODEL_KINDS)
        assert [n for caller, n in stacks if caller != "hornnet.evalharness"] == [1]  # inside train
        assert trains == ["hornnet.augment"]


class TestSeeds:
    def test_derive_seed_stable(self):
        assert derive_seed(7, "nsai") == derive_seed(7, "nsai")
        assert derive_seed(7, "nsai") != derive_seed(7, "deep_nn")
        assert derive_seed(7, "nsai") != derive_seed(8, "nsai")
