import logging
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hornnet import augment
from hornnet.augment import AUTOENCODER_WIDTHS, AugmentError, SmoteConfig, balance_with_autoencoder, smote
from hornnet.datakit import Dataset, SynthConfig, feature_bounds, generate_synthetic, scale


def imbalanced(seed=0, n_min=8, n_maj=24, d=3):
    rng = np.random.default_rng(seed)
    rows = np.vstack([rng.uniform(0, 1, (n_maj, d)), rng.uniform(2, 3, (n_min, d))])
    labels = np.array(["High"] * n_maj + ["Low"] * n_min, dtype=object)
    return Dataset(tuple(f"f{i}" for i in range(d)), rows, labels)


class TestSmote:
    def test_segment_containment_two_points(self):
        rows = np.array([[5.0, 5.0], [0.0, 0.0], [1.0, 1.0]])
        labels = np.array(["High", "Low", "Low"], dtype=object)
        for extra in range(3):  # pad majority so one synthetic row is needed
            rows = np.vstack([rows, [[5.0 + extra, 5.0]]])
            labels = np.append(labels, "High")
        data = Dataset(("x", "y"), rows, labels)
        out = smote(data, SmoteConfig(k_neighbors=1, seed=3))
        new = out.rows[data.n_rows :]
        # synthetic points lie on the segment between (0,0) and (1,1)
        assert np.allclose(new[:, 0], new[:, 1])
        assert np.all((new >= 0.0) & (new <= 1.0))

    def test_equalize_counts_exact(self):
        data = imbalanced()
        out = smote(data, SmoteConfig(k_neighbors=3, seed=1))
        counts = out.class_counts()
        assert counts["High"] == counts["Low"] == 24
        assert out.n_rows == data.n_rows + 16

    def test_game_shaped_counts(self):
        train, _ = generate_synthetic(SynthConfig(seed=2))
        out = smote(train, SmoteConfig(seed=2))
        assert out.class_counts() == {"High": 364, "Low": 364}
        assert (out.origin == "smote").sum() == 301

    def test_originals_first_unchanged(self):
        data = imbalanced(seed=5)
        out = smote(data, SmoteConfig(k_neighbors=2, seed=5))
        assert np.array_equal(out.rows[: data.n_rows], data.rows)
        assert list(out.labels[: data.n_rows]) == list(data.labels)

    def test_synthetic_rows_carry_minority_label(self):
        data = imbalanced(seed=6)
        out = smote(data, SmoteConfig(k_neighbors=2, seed=6))
        assert set(out.labels[data.n_rows :]) == {"Low"}
        assert set(out.origin[data.n_rows :]) == {"smote"}

    def test_containment_per_coordinate(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            data = imbalanced(seed=trial, n_min=6, n_maj=20, d=4)
            out = smote(data, SmoteConfig(k_neighbors=3, seed=trial))
            minority_rows = data.rows[data.labels == "Low"]
            lo, hi = minority_rows.min(axis=0), minority_rows.max(axis=0)
            new = out.rows[data.n_rows :]
            assert np.all(new >= lo - 1e-12) and np.all(new <= hi + 1e-12)

    def test_deterministic(self):
        data = imbalanced(seed=7)
        a = smote(data, SmoteConfig(k_neighbors=2, seed=11))
        b = smote(data, SmoteConfig(k_neighbors=2, seed=11))
        assert np.array_equal(a.rows, b.rows)

    def test_already_balanced_returns_unchanged(self, caplog):
        rng = np.random.default_rng(0)
        data = Dataset(
            ("x",), rng.uniform(0, 1, (10, 1)),
            np.array(["High"] * 5 + ["Low"] * 5, dtype=object),
        )
        with caplog.at_level(logging.WARNING):
            out = smote(data, SmoteConfig(k_neighbors=2))
        assert out is data
        assert any("unchanged" in r.message for r in caplog.records)

    def test_minority_too_small(self):
        data = Dataset(
            ("x",), np.arange(5, dtype=float).reshape(-1, 1),
            np.array(["High"] * 4 + ["Low"], dtype=object),
        )
        with pytest.raises(AugmentError, match="at least 2"):
            smote(data, SmoteConfig(k_neighbors=1))

    def test_k_must_be_below_minority_count(self):
        data = imbalanced(n_min=3)
        with pytest.raises(AugmentError, match="k_neighbors"):
            smote(data, SmoteConfig(k_neighbors=3))

    @pytest.mark.parametrize("shape", ["small", "game"])
    def test_equals_array_draw_reference(self, shape):
        if shape == "small":
            data, k, seed = imbalanced(seed=8, n_min=9, n_maj=30), 3, 12
        else:
            (data, _), k, seed = generate_synthetic(SynthConfig(seed=2)), 5, 2
        out = smote(data, SmoteConfig(k_neighbors=k, seed=seed))
        counts = data.class_counts()
        minority, n_new = min(counts, key=counts.get), max(counts.values()) - min(counts.values())
        x = data.rows[data.labels == minority]
        ids = augment._nearest_neighbors(scale(x, feature_bounds(data)), k)
        rng = np.random.default_rng(seed)
        base, slot, lam = rng.integers(len(x), size=n_new), rng.integers(k, size=n_new), rng.uniform(size=n_new)
        expected = x[base] + lam[:, None] * (x[ids[base, slot]] - x[base])
        assert out.rows[data.n_rows :].tobytes() == expected.tobytes()

    def test_interpolation_endpoints_allowed(self):
        # clustered minority pairs: every synthetic point must coincide with
        # the segment; lambda in {0, 1} reproduces an existing sample
        rows = np.array([[0.0, 0.0], [1.0, 1.0]] + [[9.0, 9.0]] * 40)
        labels = np.array(["Low", "Low"] + ["High"] * 40, dtype=object)
        data = Dataset(("x", "y"), rows, labels)
        out = smote(data, SmoteConfig(k_neighbors=1, seed=0))
        new = out.rows[data.n_rows:]
        lam = new[:, 0]  # points are (l, l) on the segment
        assert np.allclose(new[:, 0], new[:, 1])
        assert lam.min() >= 0.0 and lam.max() <= 1.0


def ulp_pairs(n_clusters=12, d=3, seed=14):
    """Far-apart clusters of an anchor and two points whose exact distances
    to it differ by one ulp, the farther point at the lower id."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < 3 * n_clusters:
        anchor = np.zeros(d)
        anchor[0] = 10.0 * len(points)
        near = anchor + rng.uniform(0.1, 0.2, d)
        far = near.copy()
        far[1] = np.nextafter(far[1], np.inf)
        to_near, to_far = (((anchor - q) ** 2).sum() for q in (near, far))
        if to_far == np.nextafter(to_near, np.inf):
            points += [anchor, far, near]
    return np.array(points)


# (points, k) inputs on which the screened search must equal the all-pairs one
EXACT_CASES = {
    "identical": lambda rng: (np.full((40, 3), 0.7), 5),
    "ulp_pairs": lambda rng: (ulp_pairs(), 2),
    # the screen's expansion cancels: its rounding error dwarfs the distances
    "large_offset": lambda rng: (1e3 + 1e-6 * rng.standard_normal((120, 3)), 5),
    "k_is_n_minus_1": lambda rng: (rng.uniform(0, 1, (20, 4)), 19),
    "one_feature": lambda rng: (rng.integers(0, 30, (150, 1)) / 29.0, 5),
}


class TestSmoteNeighborBlocks:
    """The k-NN search works a block of rows at a time; ids must equal the
    all-pairs search, ties broken by lower id."""

    @staticmethod
    def quadratic_neighbors(points, k):
        d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        return np.argsort(d2, axis=1, kind="stable")[:, :k]

    @pytest.mark.parametrize("case", sorted(EXACT_CASES))
    def test_exact_cases_match_all_pairs_reference(self, case, monkeypatch):
        points, k = EXACT_CASES[case](np.random.default_rng(15))
        monkeypatch.setattr(augment, "_KNN_BLOCK_ELEMENTS", 7 * points.size)  # 7 rows per block
        ids = augment._nearest_neighbors(points, k)
        assert np.array_equal(ids, self.quadratic_neighbors(points, k))

    def test_ties_rank_every_point_within_the_margin(self, monkeypatch):
        widths = []
        closest = augment._closest

        def spy(points, rows, candidates, k):
            widths.append(candidates.shape[1])
            return closest(points, rows, candidates, k)

        monkeypatch.setattr(augment, "_closest", spy)
        points, k = EXACT_CASES["identical"](None)
        augment._nearest_neighbors(points, k)
        # every distance ties, so no row's 2k-wide window is proven complete
        assert max(widths) == points.shape[0] - 1

    def test_blocks_match_all_pairs_reference(self, monkeypatch):
        rng = np.random.default_rng(12)
        # coarse grid values make many exact distance ties
        points = rng.integers(0, 4, (301, 4)).astype(np.float64) / 3.0
        monkeypatch.setattr(augment, "_KNN_BLOCK_ELEMENTS", 40 * 301 * 4)  # 8 blocks, last partial
        ids = augment._nearest_neighbors(points, 5)
        assert np.array_equal(ids, self.quadratic_neighbors(points, 5))

    def test_smote_output_independent_of_block_size(self, monkeypatch):
        train, _ = generate_synthetic(SynthConfig(seed=3))
        whole = smote(train, SmoteConfig(seed=3))  # one block at this size
        monkeypatch.setattr(augment, "_KNN_BLOCK_ELEMENTS", 7 * 9 * 63)  # 7 rows per block
        blocked = smote(train, SmoteConfig(seed=3))
        assert np.array_equal(whole.rows, blocked.rows)
        assert list(whole.origin) == list(blocked.origin)

    def test_peak_memory_bounded_by_block_budget(self):
        rng = np.random.default_rng(13)
        n_min, n_maj, d = 1200, 1300, 4  # all-pairs differences alone: 46 MB
        rows = rng.uniform(0, 1, (n_min + n_maj, d))
        labels = np.array(["High"] * n_maj + ["Low"] * n_min, dtype=object)
        data = Dataset(tuple(f"f{i}" for i in range(d)), rows, labels)
        tracemalloc.start()
        try:
            smote(data, SmoteConfig(seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * augment._KNN_BLOCK_ELEMENTS * 8  # 32 MB

    def test_peak_memory_within_one_block_budget(self):
        rng = np.random.default_rng(13)
        n_min, n_maj, d = 1200, 1300, 4
        rows = rng.uniform(0, 1, (n_min + n_maj, d))
        labels = np.array(["High"] * n_maj + ["Low"] * n_min, dtype=object)
        data = Dataset(tuple(f"f{i}" for i in range(d)), rows, labels)
        tracemalloc.start()
        try:
            smote(data, SmoteConfig(seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < augment._KNN_BLOCK_ELEMENTS * 8  # 16 MB


def spy(monkeypatch, name):
    """Record every call of `augment.<name>` (its arguments and result) in the returned list."""
    calls = []
    real = getattr(augment, name)

    def wrapper(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(augment, name, wrapper)
    return calls


class TestAutoencoder:
    def test_default_widths_for_nine_features(self, monkeypatch):
        built = spy(monkeypatch, "build_network")
        balance_with_autoencoder(imbalanced(seed=0, n_min=10, n_maj=30, d=9))
        (_, _, net), = built
        assert [l.out_units for l in net.layers] == [8, 4, 2, 4, 8, 9]
        assert [l.activation for l in net.layers] == ["relu"] * 5 + ["linear"]
        assert AUTOENCODER_WIDTHS == (8, 4, 2, 4, 8)

    def test_constant_data_reconstructed(self):
        data = imbalanced(seed=1)
        rows = np.column_stack([data.rows, np.full(data.n_rows, 0.7)])
        data = replace(data, feature_names=data.feature_names + ("c",), rows=rows)
        new = balance_with_autoencoder(data, seed=1).rows[data.n_rows :]
        assert np.all(new[:, -1] == 0.7)

    def test_validation_mse_improves(self, monkeypatch):
        trained = spy(monkeypatch, "train")
        train, _ = generate_synthetic(SynthConfig(seed=2))
        balance_with_autoencoder(train, seed=2)
        (_, _, (_, report)), = trained
        scores = report.validation_score_history  # negated MSE
        assert report.best_epoch > 1 and scores[report.best_epoch - 1] > scores[0]

    def test_training_deterministic(self, monkeypatch):
        # the autoencoder's initialization and batch order use seed 0 whatever the seed
        trained = spy(monkeypatch, "train")
        data = imbalanced(seed=3)
        for seed in (3, 4):
            balance_with_autoencoder(data, seed=seed)
        (_, _, (a, _)), (_, _, (b, _)) = trained
        for la, lb in zip(a.layers, b.layers):
            assert la.weights.tobytes() == lb.weights.tobytes() and la.biases.tobytes() == lb.biases.tobytes()

    def test_samples_clipped_to_observed_ranges(self, monkeypatch):
        # the decoder overshoots far above and below every feature's range, row by row in turn
        real = augment._forward_full

        def overshoot(net, x, start=0):
            zs, acts = real(net, x, start)
            sign = np.where(np.arange(len(x)) % 2 == 0, 1.0, -1.0)[:, None]
            return zs, acts[:-1] + [np.full_like(acts[-1], 1e6) * sign]

        monkeypatch.setattr(augment, "_forward_full", overshoot)
        rng = np.random.default_rng(5)
        data = Dataset(
            ("a", "b", "c"), rng.uniform(-2, 2, (50, 3)),
            np.array(["High"] * 30 + ["Low"] * 20, dtype=object),
        )
        new = balance_with_autoencoder(data, seed=5).rows[data.n_rows :]
        lo, hi = data.rows.min(axis=0), data.rows.max(axis=0)
        assert np.all(new >= lo) and np.all(new <= hi)
        assert np.allclose(new[0::2], hi) and np.allclose(new[1::2], lo)

    def test_sampling_deterministic(self):
        data = imbalanced(seed=6)
        a, b, c = (balance_with_autoencoder(data, seed=seed) for seed in (9, 9, 10))
        assert a.rows.tobytes() == b.rows.tobytes()
        assert np.array_equal(c.rows[: data.n_rows], a.rows[: data.n_rows])
        assert not np.array_equal(c.rows[data.n_rows :], a.rows[data.n_rows :])

    def test_absent_class_rejected(self):
        rng = np.random.default_rng(7)
        data = Dataset(("a",), rng.uniform(0, 1, (10, 1)), np.array(["High"] * 10, dtype=object))
        with pytest.raises(AugmentError, match="exactly two classes"):
            balance_with_autoencoder(data)

    def test_already_balanced_returns_unchanged(self, caplog):
        data = imbalanced(seed=8, n_min=12, n_maj=12)
        with caplog.at_level(logging.WARNING, logger="hornnet.augment"):
            assert balance_with_autoencoder(data) is data
        assert "classes already equal" in caplog.text

    def test_balance_equalizes_and_tags(self):
        train, _ = generate_synthetic(SynthConfig(seed=8))
        out = balance_with_autoencoder(train, seed=8)
        assert out.class_counts() == {"High": 364, "Low": 364}
        assert (out.origin == "autoencoder").sum() == 301
        assert (out.origin[: train.n_rows] == "real").all() and (out.labels[train.n_rows :] == "Low").all()
        assert np.array_equal(out.rows[: train.n_rows], train.rows)
        # synthetic rows stay within the observed raw ranges
        new = out.rows[train.n_rows :]
        assert np.all(new >= train.rows.min(axis=0)) and np.all(new <= train.rows.max(axis=0))


class TestAppendedRows:
    @pytest.mark.parametrize("balance", [smote, balance_with_autoencoder])
    @pytest.mark.parametrize("tagged", [False, True])
    def test_appended_columns_share_their_strings(self, balance, tagged):
        # one str object per value, as datakit's own columns hold, not a copy per row
        data = imbalanced(seed=9)
        if tagged:
            data = replace(data, origin=np.array(["real"] * data.n_rows, dtype=object))
        out = balance(data)
        assert len({id(v) for v in out.labels[data.n_rows :]}) == 1
        assert len({id(v) for v in out.origin}) == len(set(out.origin.tolist())) == 2
