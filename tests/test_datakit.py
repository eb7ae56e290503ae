from pathlib import Path

import numpy as np
import pytest

from hornnet.datakit import (
    CAUSAL_FEATURES,
    FEATURE_STATS,
    DataError,
    Dataset,
    SynthConfig,
    feature_bounds,
    generate_synthetic,
    kfold_split,
    load_csv,
    one_hot,
    point_biserial,
    save_csv,
    scale,
    subset,
    train_test_split,
)

FIXTURE = Path(__file__).parent / "data" / "tiny_players.csv"


class TestLoadCsv:
    def test_fixture_loads(self):
        data = load_csv(FIXTURE)
        assert data.n_rows == 12
        assert data.feature_names == tuple(FEATURE_STATS)
        assert data.class_counts() == {"High": 8, "Low": 4}

    def test_small_well_formed_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,Final_score\n1,2,High\n3,4,Low\n5,6,True\n")
        data = load_csv(p)
        assert data.n_rows == 3
        assert list(data.labels) == ["High", "Low", "High"]

    def test_label_aliases(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,Final_score\n1,True\n2,False\n3,high\n4,LOW\n")
        data = load_csv(p)
        assert list(data.labels) == ["High", "Low", "High", "Low"]

    def test_missing_label_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="Final_score"):
            load_csv(p)

    def test_non_numeric_cell_position(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,Final_score\n1,2,High\n1,abc,Low\n")
        with pytest.raises(DataError, match=r"row 3, column 2"):
            load_csv(p)

    def test_unknown_label_token(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,Final_score\n1,Medium\n")
        with pytest.raises(DataError, match="Medium"):
            load_csv(p)

    def test_round_trip_with_origin(self, tmp_path):
        data = load_csv(FIXTURE)
        data.origin = np.array(["real"] * data.n_rows, dtype=object)
        out = tmp_path / "out.csv"
        save_csv(data, out)
        again = load_csv(out)
        assert np.array_equal(again.rows, data.rows)
        assert list(again.labels) == list(data.labels)
        assert list(again.origin) == ["real"] * 12


class TestNormalization:
    def test_table_range_endpoint(self):
        data = Dataset(("Arrow",), np.array([[15.0], [180.0]]), np.array(["Low", "High"], object))
        scaled = scale(data.rows, feature_bounds(data))
        assert scaled[0, 0] == 0.0
        assert scaled[1, 0] == 1.0

    def test_value_below_train_min_goes_negative(self):
        assert scale(np.array([[5.0]]), ((10.0, 20.0),))[0, 0] == -0.5

    def test_constant_feature_maps_to_zero(self):
        data = Dataset(("c",), np.full((4, 1), 7.0), np.array(["High"] * 4, object))
        assert np.all(scale(data.rows, feature_bounds(data)) == 0.0)

    def test_out_and_one_row_match_a_fresh_batch(self):
        rng = np.random.default_rng(0)
        rows = rng.uniform(-5, 30, (20, 3))
        bounds = ((0.0, 10.0), (4.0, 4.0), (-5.0, 30.0))
        fresh = scale(rows, bounds)
        buf = np.empty_like(rows)
        assert scale(rows, bounds, out=buf) is buf
        assert np.array_equal(buf, fresh)
        assert np.array_equal(scale(rows[3], bounds), fresh[3])
        assert np.all(fresh[:, 1] == 0.0)


class TestSplits:
    def test_kfold_stratified_counts(self):
        labels = np.array(["High"] * 80 + ["Low"] * 20, dtype=object)
        data = Dataset(("x",), np.arange(100, dtype=float).reshape(-1, 1), labels)
        folds = kfold_split(data, 10, seed=1)
        for _train_idx, val_idx in folds:
            fold_labels = labels[val_idx]
            assert (fold_labels == "High").sum() == 8
            assert (fold_labels == "Low").sum() == 2

    def test_kfold_coverage_and_disjointness(self):
        labels = np.array(["High"] * 33 + ["Low"] * 14, dtype=object)
        data = Dataset(("x",), np.arange(47, dtype=float).reshape(-1, 1), labels)
        folds = kfold_split(data, 5, seed=3)
        seen = np.concatenate([val for _, val in folds])
        assert sorted(seen.tolist()) == list(range(47))
        for train_idx, val_idx in folds:
            assert set(train_idx).isdisjoint(val_idx)
            assert len(train_idx) + len(val_idx) == 47

    def test_leave_one_out(self):
        labels = np.array(["High", "Low"] * 3, dtype=object)
        data = Dataset(("x",), np.arange(6, dtype=float).reshape(-1, 1), labels)
        folds = kfold_split(data, 6, seed=0)
        assert all(len(val) == 1 for _, val in folds)

    def test_kfold_deterministic(self, toy_dataset):
        a = kfold_split(toy_dataset, 5, seed=11)
        b = kfold_split(toy_dataset, 5, seed=11)
        for (ta, va), (tb, vb) in zip(a, b):
            assert np.array_equal(ta, tb) and np.array_equal(va, vb)

    def test_k_exceeding_n_rejected(self, toy_dataset):
        with pytest.raises(DataError):
            kfold_split(toy_dataset, toy_dataset.n_rows + 1, seed=0)

    def test_train_test_split_stratified(self, toy_dataset):
        train, test = train_test_split(toy_dataset, test_fraction=0.2, seed=0)
        assert train.n_rows + test.n_rows == toy_dataset.n_rows
        assert test.class_counts() == {"High": 8, "Low": 4}


class TestGenerator:
    def test_correlation_targets_hit(self):
        config = SynthConfig(seed=5)
        train, test = generate_synthetic(config)
        r_train = point_biserial(train.column("Small_cheese"), train.labels)
        r_test = point_biserial(test.column("Small_cheese"), test.labels)
        assert abs(r_train - 0.887) < 0.03
        assert abs(r_test - 0.632) < 0.05

    def test_class_counts_exact(self):
        train, test = generate_synthetic(SynthConfig(seed=1))
        assert train.class_counts() == {"High": 364, "Low": 63}
        assert train.n_rows == 427 and test.n_rows == 85

    def test_balanced_ratio(self):
        train, _ = generate_synthetic(SynthConfig(class_ratio=0.5, seed=2))
        counts = train.class_counts()
        assert abs(counts["High"] - counts["Low"]) <= 1

    def test_matching_train_test_r_gives_similar_spurious_distribution(self):
        config = SynthConfig(seed=8, test_spurious_r=0.887, n_test=427)
        train, test = generate_synthetic(config)
        a = train.column("Small_cheese")
        b = test.column("Small_cheese")
        pooled_se = np.sqrt(a.var() / len(a) + b.var() / len(b))
        assert abs(a.mean() - b.mean()) < 2 * pooled_se

    def test_values_within_published_ranges(self):
        train, test = generate_synthetic(SynthConfig(seed=3))
        for data in (train, test):
            for name, (lo, hi, _m, _s) in FEATURE_STATS.items():
                col = data.column(name)
                assert col.min() >= lo and col.max() <= hi

    def test_deterministic(self):
        a_train, a_test = generate_synthetic(SynthConfig(seed=6))
        b_train, b_test = generate_synthetic(SynthConfig(seed=6))
        assert np.array_equal(a_train.rows, b_train.rows)
        assert np.array_equal(a_test.rows, b_test.rows)
        assert list(a_train.labels) == list(b_train.labels)

    def test_causal_features_correlate(self):
        train, _ = generate_synthetic(SynthConfig(seed=4))
        for name in CAUSAL_FEATURES:
            assert point_biserial(train.column(name), train.labels) > 0.3

    def test_infeasible_correlation_rejected(self):
        with pytest.raises(DataError):
            SynthConfig(train_spurious_r=1.5)


class TestHelpers:
    def test_one_hot(self):
        out = one_hot(["Low", "High", "Low"], ("Low", "High"))
        assert np.array_equal(out, [[1, 0], [0, 1], [1, 0]])

    def test_one_hot_unknown_label(self):
        with pytest.raises(DataError):
            one_hot(["Medium"], ("Low", "High"))

    def test_one_hot_names_first_unknown_label(self):
        with pytest.raises(DataError, match="label 'Medium' not in classes"):
            one_hot(["Low", "Medium", "Tall", "High"], ("Low", "High"))

    def test_subset_keeps_origin(self):
        data = Dataset(
            ("x",),
            np.arange(4, dtype=float).reshape(-1, 1),
            np.array(["High", "Low", "High", "Low"], object),
            origin=np.array(["real", "smote", "real", "smote"], object),
        )
        sub = subset(data, [1, 3])
        assert list(sub.origin) == ["smote", "smote"]
        assert list(sub.labels) == ["Low", "Low"]
