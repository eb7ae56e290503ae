import numpy as np
import pytest

from hornnet.datakit import Dataset
from hornnet.explain import (
    FeatureStats,
    format_misprediction_table,
    global_explain,
    lime_explain,
    misprediction_report,
)


def logistic_model(coefs, intercept=0.0):
    coefs = np.asarray(coefs, dtype=float)

    def predict(x):
        z = np.atleast_2d(x) @ coefs + intercept
        p = 1.0 / (1.0 + np.exp(-z))
        return np.column_stack([1.0 - p, p])

    return predict


def constant_model(x):
    x = np.atleast_2d(x)
    return np.full((x.shape[0], 2), 0.5)


class TestLime:
    def test_signs_and_magnitude_ordering(self):
        model = logistic_model([2.0, -3.0])
        stats = FeatureStats(("x1", "x2"), np.zeros(2), np.ones(2))
        exp = lime_explain(model, np.zeros(2), stats, n_samples=2000, seed=0)
        imp = {name: i for name, _v, i in exp.contributions}
        assert imp["x1"] > 0 and imp["x2"] < 0
        assert abs(imp["x2"]) > abs(imp["x1"])

    def test_constant_model_flat(self):
        stats = FeatureStats(("a", "b", "c"), np.zeros(3), np.ones(3))
        exp = lime_explain(constant_model, np.zeros(3), stats, n_samples=500, seed=1)
        assert all(abs(i) < 1e-3 for _n, _v, i in exp.contributions)

    def test_deterministic(self):
        model = logistic_model([1.0, 0.5, -0.2])
        stats = FeatureStats(("a", "b", "c"), np.zeros(3), np.ones(3))
        a = lime_explain(model, np.array([0.1, 0.2, 0.3]), stats, seed=4)
        b = lime_explain(model, np.array([0.1, 0.2, 0.3]), stats, seed=4)
        assert a == b

    def test_contributions_cover_all_features_once(self):
        model = logistic_model([1.0, 0.0, 2.0, -1.0])
        stats = FeatureStats(("a", "b", "c", "d"), np.zeros(4), np.ones(4))
        exp = lime_explain(model, np.zeros(4), stats, seed=2)
        assert sorted(n for n, _v, _i in exp.contributions) == ["a", "b", "c", "d"]
        # sorted by |importance| descending
        mags = [abs(i) for _n, _v, i in exp.contributions]
        assert mags == sorted(mags, reverse=True)

    def test_probabilities_recorded(self):
        model = logistic_model([1.0], intercept=2.0)
        stats = FeatureStats(("x",), np.zeros(1), np.ones(1))
        exp = lime_explain(model, np.zeros(1), stats, seed=0)
        assert exp.predicted == "High"
        assert abs(sum(exp.confidence) - 1.0) < 1e-9

    def test_constant_feature_handled_by_ridge(self, caplog):
        model = logistic_model([1.0, 0.0])
        stats = FeatureStats(("x", "const"), np.zeros(2), np.array([1.0, 0.0]))
        exp = lime_explain(model, np.zeros(2), stats, seed=3)
        imp = {n: i for n, _v, i in exp.contributions}
        assert abs(imp["const"]) < 1e-6

    def test_sample_floor(self):
        stats = FeatureStats(("x",), np.zeros(1), np.ones(1))
        with pytest.raises(ValueError, match="n_samples"):
            lime_explain(constant_model, np.zeros(1), stats, n_samples=10)


class TestGlobal:
    def _dataset(self, rows, labels):
        return Dataset(tuple(f"f{i}" for i in range(rows.shape[1])), rows, np.asarray(labels, dtype=object))

    def test_ignored_feature_near_zero(self):
        rng = np.random.default_rng(0)
        model = logistic_model([2.0, 0.0])
        data = self._dataset(rng.uniform(-1, 1, (8, 2)), ["High"] * 8)
        out = global_explain(model, data, n_samples=4000, seed=5)
        assert out.mean_abs["f1"] < 1e-3
        assert out.mean_abs["f0"] > 0.01

    def test_global_is_mean_of_locals(self):
        model = logistic_model([1.5, -0.5])
        rows = np.array([[0.2, 0.4], [-0.3, 0.9]])
        data = self._dataset(rows, ["High", "Low"])
        out = global_explain(model, data, n_samples=400, seed=6)
        stats = FeatureStats.from_dataset(data)
        locals_ = [
            {name: imp for name, _v, imp in lime_explain(
                model, rows[i], stats, n_samples=400, seed=np.random.SeedSequence((6, i))
            ).contributions}
            for i in range(2)
        ]
        for name in data.feature_names:
            imps = [local[name] for local in locals_]
            assert out.mean_signed[name] == pytest.approx(np.mean(imps))
            assert out.mean_abs[name] == pytest.approx(np.mean(np.abs(imps)))

    @pytest.mark.parametrize("rows", [[[0.2, 0.4]], [[0.2, 0.4]] * 3], ids=["one_row", "repeated_row"])
    def test_constant_rows_rejected(self, rows):
        data = self._dataset(np.array(rows), ["High"] * len(rows))
        with pytest.raises(ValueError, match="every feature is constant"):
            FeatureStats.from_dataset(data)
        with pytest.raises(ValueError, match="every feature is constant"):
            global_explain(constant_model, data, seed=0)

    def test_one_varying_feature_is_enough(self):
        data = self._dataset(np.array([[0.2, 0.4], [0.2, 0.5]]), ["High", "Low"])
        assert FeatureStats.from_dataset(data).stds.tolist() == [0.0, pytest.approx(0.05)]

    def test_symmetric_model_symmetric_importance(self):
        rng = np.random.default_rng(7)
        model = logistic_model([1.0, 1.0])
        base = rng.uniform(-1, 1, (10, 1))
        rows = np.column_stack([base, base])  # mirrored features
        data = self._dataset(rows, ["High"] * 10)
        out = global_explain(model, data, n_samples=3000, seed=7)
        a, b = out.mean_abs["f0"], out.mean_abs["f1"]
        assert abs(a - b) / max(a, b) < 0.05

    def test_empty_dataset_rejected(self):
        data = self._dataset(np.zeros((0, 2)), [])
        with pytest.raises(ValueError, match="empty"):
            global_explain(constant_model, data, seed=0)


class TestMispredictions:
    def _dataset(self, rows, labels):
        return Dataset(("f0", "f1"), rows, np.asarray(labels, dtype=object))

    def test_perfect_model_empty_report(self):
        rng = np.random.default_rng(1)
        rows = rng.uniform(-1, 1, (12, 2))
        model = logistic_model([5.0, 0.0])
        labels = np.where(model(rows)[:, 1] > 0.5, "High", "Low")
        data = self._dataset(rows, labels)
        records = misprediction_report(global_explain(model, data, n_samples=200, seed=0).mispredicted)
        assert records == []

    def test_supporting_features_agree_with_prediction(self):
        rows = np.array([[1.0, 0.0], [0.9, 0.1]])
        labels = ["Low", "Low"]  # model will confidently say High
        model = logistic_model([6.0, 0.5])
        data = self._dataset(rows, labels)
        records = misprediction_report(global_explain(model, data, n_samples=400, seed=1).mispredicted)
        assert len(records) == 2
        for rec in records:
            assert rec.explanation.predicted == "High"
            assert rec.explanation.true_label == "Low"
            assert all(imp > 0 for _n, _v, imp in rec.supporting)
            assert all(imp < 0 for _n, _v, imp in rec.contradicting)
            assert "f0" in {n for n, _v, _i in rec.supporting}

    def test_report_count_matches_confusion_off_diagonal(self):
        from hornnet.evalharness import compute_metrics

        rng = np.random.default_rng(2)
        rows = rng.uniform(-1, 1, (40, 2))
        model = logistic_model([3.0, -2.0])
        preds = np.where(model(rows)[:, 1] > 0.5, "High", "Low")
        labels = preds.copy()
        flip = rng.choice(40, size=9, replace=False)
        labels[flip] = np.where(labels[flip] == "High", "Low", "High")
        data = self._dataset(rows, labels)
        records = misprediction_report(global_explain(model, data, n_samples=200, seed=3).mispredicted)
        metrics = compute_metrics(preds, labels)
        off_diagonal = metrics.confusion.sum() - np.trace(metrics.confusion)
        assert len(records) == off_diagonal == 9

    def test_table_rendering(self):
        rows = np.array([[1.0, 0.0], [0.8, 0.3], [0.9, -0.2]])
        model = logistic_model([6.0, 0.5])
        data = self._dataset(rows, ["Low", "Low", "Low"])
        records = misprediction_report(global_explain(model, data, n_samples=200, seed=4).mispredicted)
        text = format_misprediction_table(records)
        assert text.startswith("true,predicted,confidence,supporting,contradicting")
        assert "Low,High,(" in text
        assert "Imp=" in text
