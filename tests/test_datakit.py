import csv
import logging
import warnings
from pathlib import Path

import numpy as np
import pytest

from hornnet import datakit
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

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_position(self, tmp_path, cell):
        # the blank line still counts as a row, and the label column as a column
        p = tmp_path / "d.csv"
        p.write_text(f"Final_score,a,b\nHigh,1,2\n\nLow,3,{cell}\nHigh,nan,4\n")
        with pytest.raises(DataError) as exc:
            load_csv(p)
        assert str(exc.value) == f"{p}: non-finite cell {float(cell)!r} at row 4, column 3"

    def test_unknown_label_token(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,Final_score\n1,Medium\n")
        with pytest.raises(DataError, match="Medium"):
            load_csv(p)

    def test_duplicate_column_name_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,Final_score,a\n1,2,High,3\n")
        with pytest.raises(DataError, match=r"duplicate column name\(s\): a$"):
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


def reference_save_csv(data: Dataset, path) -> None:
    """`save_csv` as one `csv.writer` row per dataset row: the bytes it must give."""
    header = list(data.feature_names) + [datakit.LABEL_COLUMN]
    if data.origin is not None:
        header.append(datakit.ORIGIN_COLUMN)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(data.n_rows):
            record = [repr(float(v)) for v in data.rows[i]] + [str(data.labels[i])]
            if data.origin is not None:
                record.append(str(data.origin[i]))
            writer.writerow(record)


def _save_csv_cases():
    train, test = generate_synthetic(SynthConfig(n_rows=1100, n_test=300, seed=5))
    extremes = np.array([[-0.0, 1e-05], [1e300, 5e-324], [-1e-05, -1e300], [0.1, 2.0]])
    awkward = np.array(["a,b", 'say "hi"', "two\nlines", "cr\r", "", " pad "], dtype=object)
    return {
        "synth_train": train,
        "synth_test": test,
        "no_origin": Dataset(train.feature_names, train.rows, train.labels),
        "extremes": Dataset(("x", "y"), extremes, np.array(["High", "Low"] * 2, dtype=object), np.array(["real"] * 4, dtype=object)),
        "awkward_cells": Dataset(("x",), np.arange(6.0)[:, None], awkward, awkward[::-1]),
        "awkward_labels": Dataset(("x",), np.arange(6.0)[:, None], awkward),
        "no_features": Dataset((), np.zeros((6, 0)), awkward),
    }


class TestSaveCsv:
    """`save_csv` writes blocks of rows, with the bytes of the row-by-row reference."""

    @pytest.mark.parametrize("case", list(_save_csv_cases()))
    def test_bytes_equal_reference(self, tmp_path, case):
        data = _save_csv_cases()[case]
        save_csv(data, tmp_path / "got.csv")
        reference_save_csv(data, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("case", ["synth_train", "synth_test", "no_origin", "extremes"])
    def test_load_csv_round_trip(self, tmp_path, case):
        data = _save_csv_cases()[case]
        save_csv(data, tmp_path / "d.csv")
        assert_same_dataset(load_csv(tmp_path / "d.csv"), data)


def assert_same_dataset(got: Dataset, want: Dataset):
    assert got.feature_names == want.feature_names
    assert got.rows.dtype == want.rows.dtype == np.float64
    assert got.rows.flags.c_contiguous and got.rows.shape == want.rows.shape
    assert got.rows.tobytes() == want.rows.tobytes()
    assert list(got.labels) == list(want.labels)
    assert (got.origin is None) == (want.origin is None)
    if got.origin is not None:
        assert list(got.origin) == list(want.origin)


@pytest.fixture
def reference_calls(monkeypatch):
    """Paths `load_csv` hands to the row-by-row reference reader."""
    calls = []
    real = datakit._load_csv_rows

    def spy(path):
        calls.append(path)
        return real(path)

    monkeypatch.setattr(datakit, "_load_csv_rows", spy)
    return calls


def _synth_csv(tmp_path, n_rows=427, seed=3, origin=False) -> Path:
    train, _ = generate_synthetic(SynthConfig(n_rows=n_rows, seed=seed))
    path = tmp_path / "synth.csv"
    save_csv(train if origin else Dataset(train.feature_names, train.rows, train.labels), path)
    return path


def _reshaped(path: Path, to: Path, *, bom=False, newline="\n", quote=False, pad="") -> Path:
    """The CSV at `path` with a byte-order mark, another line end, every body
    cell quoted, or `pad` on both sides of every body cell."""
    header, *body = path.read_text().splitlines()
    lines = [header]
    for line in body:
        cells = [f'"{c}"' if quote else c for c in line.split(",")]
        lines.append(",".join(f"{pad}{c}{pad}" for c in cells))
    to.write_text(("\ufeff" if bom else "") + newline.join(lines) + newline, newline="")
    return to


class TestCReader:
    """`load_csv` parses with numpy's C reader, and gives what the row-by-row
    reference `_load_csv_rows` gives."""

    @pytest.mark.parametrize(
        "variant",
        ["fixture", "synth", "synth_test_split", "origin", "bom", "crlf", "cr", "quoted", "spaces"],
    )
    def test_equals_reference_without_falling_back(self, tmp_path, reference_calls, variant):
        if variant == "fixture":
            path = FIXTURE
        elif variant == "synth_test_split":
            _, test = generate_synthetic(SynthConfig(seed=4))
            save_csv(test, path := tmp_path / "test.csv")
        else:
            path = _synth_csv(tmp_path, origin=variant == "origin")
            options = {"bom": {"bom": True}, "crlf": {"newline": "\r\n"}, "cr": {"newline": "\r"},
                       "quoted": {"quote": True}, "spaces": {"pad": "  "}}
            if variant in options:
                path = _reshaped(path, tmp_path / f"{variant}.csv", **options[variant])
        got = load_csv(path)
        assert reference_calls == []
        assert_same_dataset(got, datakit._load_csv_rows(path))
        if variant in ("synth", "bom", "crlf", "cr", "quoted", "spaces"):
            assert_same_dataset(got, load_csv(_synth_csv(tmp_path)))

    def test_extra_trailing_cell_names_its_row(self, tmp_path):
        path = _synth_csv(tmp_path, n_rows=40, origin=True)
        lines = path.read_text().splitlines()
        lines[5] += ","
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError) as exc:
            load_csv(path)
        assert str(exc.value) == f"{path}: row 6 has 12 cells, expected 11"

    def test_long_text_cells_are_read_whole(self, tmp_path, reference_calls):
        path = tmp_path / "d.csv"
        path.write_text("a,Final_score,origin\n1,High,autoencoder\n2,Low,real\n")
        assert list(load_csv(path).origin) == ["autoencoder", "real"]
        assert reference_calls == []
        path.write_text("a,Final_score\n1,High\n2,True    x\n")
        with pytest.raises(DataError) as exc:
            load_csv(path)
        assert str(exc.value) == f"{path}: unknown label token 'True    x' at row 3, column 2"

    def test_blank_and_whitespace_lines_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        body = "a,b,Final_score\n1,2,High\n\n  \n\t, ,\n3,4,Low\n"
        path.write_text(body)
        data = load_csv(path)
        assert_same_dataset(data, datakit._load_csv_rows(path))
        assert data.rows.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        path.write_text(body + "5,x,High\n")
        with pytest.raises(DataError) as exc:
            load_csv(path)
        assert str(exc.value) == f"{path}: non-numeric cell 'x' at row 7, column 2"

    def test_zero_byte_file_is_empty(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"")
        with pytest.raises(DataError) as exc:
            load_csv(path)
        assert str(exc.value) == f"{path}: empty file"

    @pytest.mark.parametrize("body", ["", "\n\n"], ids=["header_only", "blank_lines"])
    def test_no_data_rows_under_warnings_as_errors(self, tmp_path, body):
        path = tmp_path / "d.csv"
        path.write_text("a,Final_score\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError) as exc:
                load_csv(path)
        assert str(exc.value) == f"{path}: no data rows"

    def test_spellings_only_float_reads(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,Final_score\n1_000,\u0661\u0662,High\n2,3,Low\n")
        assert load_csv(path).rows.tolist() == [[1000.0, 12.0], [2.0, 3.0]]

    def test_empty_column_name_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a, ,Final_score\n1,2,High\n")
        with pytest.raises(DataError) as exc:
            load_csv(path)
        assert str(exc.value) == f"{path}: empty column name at column 2"

    def test_label_column_alone_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("Final_score\nHigh\nLow\n")
        with pytest.raises(DataError) as exc:
            load_csv(path)
        assert str(exc.value) == f"{path}: no feature columns besides 'Final_score'"

    def test_csv_module_error_names_the_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,Final_score\n1,High\n" + "9" * 140_000 + ",Low\n")
        with pytest.raises(DataError) as exc:
            load_csv(path)
        assert str(exc.value) == f"{path}: field larger than field limit (131072)"

    def test_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,Final_score\n1,High\n2,L\xffow\n")
        with pytest.raises(DataError) as exc:
            load_csv(path)
        assert str(exc.value) == f"{path}: 'utf-8' codec can't decode byte 0xff in position 24: invalid start byte"


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

    def test_one_row_matches_a_fresh_batch(self):
        rng = np.random.default_rng(0)
        rows = rng.uniform(-5, 30, (20, 3))
        bounds = ((0.0, 10.0), (4.0, 4.0), (-5.0, 30.0))
        fresh = scale(rows, bounds)
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

    def test_k_below_two_rejected(self, toy_dataset):
        with pytest.raises(DataError, match="^k must be at least 2$"):
            kfold_split(toy_dataset, 1, seed=0)


class TestGenerator:
    def test_correlation_targets_hit(self):
        config = SynthConfig(seed=5)
        train, test = generate_synthetic(config)
        r_train = point_biserial(train.column("Small_cheese"), train.labels)
        r_test = point_biserial(test.column("Small_cheese"), test.labels)
        assert abs(r_train - 0.887) < 0.03
        assert abs(r_test - 0.632) < 0.05

    def test_point_biserial_of_a_constant_column_is_zero(self):
        labels = np.array(["High", "Low", "High", "Low"], dtype=object)
        assert point_biserial(np.full(4, 3.5), labels) == 0.0
        assert point_biserial(np.arange(4.0), np.full(4, "High", dtype=object)) == 0.0

    @pytest.mark.parametrize("target, n_test", [(-0.5, 400), (-0.887, 400), (0.0, 400), (0.001, 85)])
    def test_negative_and_below_noise_targets_hit(self, target, n_test):
        # at seed 401 the noise alone correlates about +0.05 (400 rows) and +0.11 (85 rows)
        # with the label, so each of these targets lies below zero mixing
        _, test = generate_synthetic(SynthConfig(n_test=n_test, test_spurious_r=target, seed=401))
        assert abs(point_biserial(test.column("Small_cheese"), test.labels) - target) < 0.01

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

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("n_rows", 9, "need at least 10 rows per split"),
            ("n_test", 9, "need at least 10 rows per split"),
            ("class_ratio", 1.0, r"class_ratio must be in \(0, 1\)"),
        ],
    )
    def test_bad_sizes_rejected(self, field, value, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            SynthConfig(**{field: value})

    def test_split_log_computed_only_when_shown(self, monkeypatch, caplog):
        calls = []

        def spy(*args):
            calls.append(args)
            return point_biserial(*args)

        monkeypatch.setattr(datakit, "point_biserial", spy)
        config = SynthConfig(n_rows=120, n_test=40, seed=5)
        quiet = generate_synthetic(config)
        assert calls == []
        with caplog.at_level(logging.INFO, logger="hornnet.datakit"):
            loud = generate_synthetic(config)
        assert len(calls) == 2
        assert [r.getMessage() for r in caplog.records] == [
            "synthetic split: n=120, {'High': 102, 'Low': 18}, r(Small_cheese)=0.8870 (target 0.887)",
            "synthetic split: n=40, {'High': 34, 'Low': 6}, r(Small_cheese)=0.6320 (target 0.632)",
        ]
        for a, b in zip(quiet, loud):
            assert np.array_equal(a.rows, b.rows) and list(a.labels) == list(b.labels)


class TestHelpers:
    @pytest.mark.parametrize(
        "rows, labels, origin, message",
        [
            ([1.0, 2.0], ["High", "Low"], None, "rows must be a 2-D matrix"),
            ([[1.0], [2.0]], ["High"], None, "row/label count mismatch"),
            ([[1.0, 2.0]], ["High"], None, "column/feature-name count mismatch"),
            ([[np.nan]], ["High"], None, "rows contain non-finite values"),
            ([[1.0]], ["High"], ["real", "smote"], "origin length mismatch"),
        ],
        ids=["one_dimensional", "labels", "columns", "non_finite", "origin"],
    )
    def test_inconsistent_dataset_rejected(self, rows, labels, origin, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            Dataset(("x",), rows, labels, origin)

    def test_unknown_column_named(self, toy_dataset):
        with pytest.raises(DataError, match="^unknown feature 'nope'$"):
            toy_dataset.column("nope")

    def test_one_hot(self):
        out = one_hot(["Low", "High", "Low"], ("Low", "High"))
        assert np.array_equal(out, [[1, 0], [0, 1], [1, 0]])

    def test_one_hot_unknown_label(self):
        with pytest.raises(DataError):
            one_hot(["Medium"], ("Low", "High"))

    def test_one_hot_names_first_unknown_label(self):
        with pytest.raises(DataError, match="label 'Medium' not in classes"):
            one_hot(["Low", "Medium", "Tall", "High"], ("Low", "High"))

    def test_match_columns_in_order_returns_the_dataset(self):
        data = Dataset(("a", "b"), np.array([[1.0, 2.0]]), np.array(["High"], object))
        assert datakit._match_columns(data, ["a", "b"], "data") is data
        swapped = datakit._match_columns(data, ["b", "a"], "data")
        assert swapped.feature_names == ("b", "a") and swapped.rows.tolist() == [[2.0, 1.0]]

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
