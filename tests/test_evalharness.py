from dataclasses import replace

import numpy as np
import pytest

from hornnet.datakit import Dataset, SynthConfig, generate_synthetic
from hornnet.evalharness import (
    MODEL_NAMES,
    compute_metrics,
    correlation_table,
    derive_seed,
    render_metrics_table,
    report_to_json,
    run_comparison,
)
from hornnet.rulelang import parse_rules


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


class TestComparison:
    def test_report_structure(self, small_setup):
        rules, train, test = small_setup
        report = run_comparison(train, test, rules, master_seed=5, cv_folds=3)
        assert set(report.test_metrics) == set(MODEL_NAMES)
        assert set(report.cv_accuracy) == set(MODEL_NAMES)
        assert set(report.permutation_importances) == set(MODEL_NAMES)
        for feat in train.feature_names:
            assert set(report.correlations[feat]) == {"train", "smote_train", "autoencoder_train", "test"}
        assert len(report.nsai_rules.rules) >= 4
        text = render_metrics_table(report.test_metrics)
        assert "nsai" in text and "deep_nn" in text

    def test_missing_feature_fails_before_training(self, small_setup):
        _, train, test = small_setup
        bad_rules = parse_rules("Final_score :- Wand.\n")
        with pytest.raises(Exception, match="Wand"):
            run_comparison(train, test, bad_rules, master_seed=5, cv_folds=3)

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


class TestSeeds:
    def test_derive_seed_stable(self):
        assert derive_seed(7, "nsai") == derive_seed(7, "nsai")
        assert derive_seed(7, "nsai") != derive_seed(7, "deep_nn")
        assert derive_seed(7, "nsai") != derive_seed(8, "nsai")
