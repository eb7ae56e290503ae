"""Tabular dataset handling: CSV ingestion, min-max scaling, stratified splits,
and a synthetic generator for the game-telemetry schema with a controllable
spurious correlation between one feature and the binary label. Datasets hold
raw units; a network scales its own inputs (`tensornet.Network.input_bounds`).
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "Dataset",
    "SynthConfig",
    "DataError",
    "LABEL_COLUMN",
    "ORIGIN_COLUMN",
    "CLASSES",
    "POSITIVE_CLASS",
    "NEGATIVE_CLASS",
    "FEATURE_STATS",
    "CAUSAL_FEATURES",
    "load_csv",
    "save_csv",
    "feature_bounds",
    "scale",
    "one_hot",
    "subset",
    "train_test_split",
    "kfold_split",
    "generate_synthetic",
]

log = logging.getLogger(__name__)

LABEL_COLUMN = "Final_score"
ORIGIN_COLUMN = "origin"
NEGATIVE_CLASS = "Low"
POSITIVE_CLASS = "High"
CLASSES = (NEGATIVE_CLASS, POSITIVE_CLASS)

_LABEL_ALIASES = {
    "high": POSITIVE_CLASS,
    "true": POSITIVE_CLASS,
    "low": NEGATIVE_CLASS,
    "false": NEGATIVE_CLASS,
}

# Per-feature (min, max, mean, std) of the game telemetry schema.
FEATURE_STATS: dict[str, tuple[float, float, float, float]] = {
    "Arrow": (15.0, 180.0, 82.05, 34.65),
    "Big_cheese": (0.0, 4.0, 1.6, 0.7),
    "Small_cheese": (0.0, 74.0, 63.38, 17.72),
    "Function": (0.0, 4.0, 0.6, 1.2),
    "Debug": (0.0, 17.0, 0.8, 2.3),
    "Simulation": (0.0, 19.0, 2.92, 4.24),
    "Loop": (0.0, 50.0, 6.66, 8.12),
    "Conditional": (0.0, 46.0, 3.0, 6.4),
    "Hitting_wall": (0.0, 180.0, 6.19, 18.57),
}

# Features the default knowledge rules treat as causally tied to the label.
CAUSAL_FEATURES = ("Conditional", "Loop", "Debug", "Simulation", "Function")


class DataError(ValueError):
    pass


@dataclass
class Dataset:
    """Numeric feature columns plus a binary class label per row.

    `origin` optionally tags each row's provenance (real / smote /
    autoencoder).
    """

    feature_names: tuple[str, ...]
    rows: np.ndarray
    labels: np.ndarray
    origin: np.ndarray | None = None

    def __post_init__(self):
        self.feature_names = tuple(self.feature_names)
        self.rows = np.asarray(self.rows, dtype=np.float64)
        if self.rows.ndim != 2:
            raise DataError("rows must be a 2-D matrix")
        self.labels = np.asarray(self.labels, dtype=object)
        if self.rows.shape[0] != self.labels.shape[0]:
            raise DataError("row/label count mismatch")
        if self.rows.shape[1] != len(self.feature_names):
            raise DataError("column/feature-name count mismatch")
        if not np.all(np.isfinite(self.rows)):
            raise DataError("rows contain non-finite values")
        if self.origin is not None:
            self.origin = np.asarray(self.origin, dtype=object)
            if self.origin.shape[0] != self.rows.shape[0]:
                raise DataError("origin length mismatch")

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_features(self) -> int:
        return self.rows.shape[1]

    def class_counts(self) -> dict[str, int]:
        values, counts = np.unique(self.labels.astype(str), return_counts=True)
        return dict(zip(values.tolist(), counts.tolist()))

    def column(self, name: str) -> np.ndarray:
        try:
            return self.rows[:, self.feature_names.index(name)]
        except ValueError:
            raise DataError(f"unknown feature {name!r}") from None


def feature_bounds(data: Dataset) -> tuple[tuple[float, float], ...]:
    """Observed per-feature (min, max) of the rows."""
    return tuple(
        (float(lo), float(hi)) for lo, hi in zip(data.rows.min(axis=0), data.rows.max(axis=0))
    )


def scale(rows, bounds, out=None) -> np.ndarray:
    """(x - lo) / (hi - lo) for each column of one row or a batch and its (lo, hi) in
    `bounds`, into `out` if given. Values may leave [0, 1]; a constant feature (lo == hi)
    maps to 0."""
    bounds = np.asarray(bounds, dtype=np.float64)
    lo, hi = bounds[:, 0], bounds[:, 1]
    span = hi - lo
    out = np.subtract(rows, lo, out=out)
    out /= np.where(span > 0, span, 1.0)
    out[..., ~(span > 0)] = 0.0
    return out


def one_hot(labels, classes) -> np.ndarray:
    classes = list(classes)
    labels = np.asarray(labels, dtype=object)
    hits = labels.astype(str)[:, None] == np.asarray(classes)[None, :]
    known = hits.any(axis=1)
    if not known.all():
        raise DataError(f"label {labels[np.argmin(known)]!r} not in classes {classes}")
    out = np.zeros(hits.shape)
    out[np.arange(len(labels)), hits.argmax(axis=1)] = 1.0
    return out


def subset(data: Dataset, indices) -> Dataset:
    indices = np.asarray(indices, dtype=int)
    return replace(
        data,
        rows=data.rows[indices],
        labels=data.labels[indices],
        origin=None if data.origin is None else data.origin[indices],
    )


# --------------------------------------------------------------------------
# CSV I/O
# --------------------------------------------------------------------------


def load_csv(path) -> Dataset:
    """Read a dataset CSV: numeric feature columns + a `Final_score` label.

    Label tokens High/True map to High, Low/False to Low. An optional
    `origin` provenance column is read back if present. Cell-level problems
    are reported with 1-based (row, column) positions.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if LABEL_COLUMN not in header:
            raise DataError(f"{path}: missing required column {LABEL_COLUMN!r}")
        label_idx = header.index(LABEL_COLUMN)
        origin_idx = header.index(ORIGIN_COLUMN) if ORIGIN_COLUMN in header else None
        feature_idx = [
            i for i in range(len(header)) if i not in (label_idx, origin_idx)
        ]
        feature_names = [header[i] for i in feature_idx]

        rows, labels, origins = [], [], []
        for rownum, record in enumerate(reader, start=2):
            if not record or all(not c.strip() for c in record):
                continue
            if len(record) != len(header):
                raise DataError(f"{path}: row {rownum} has {len(record)} cells, expected {len(header)}")
            values = []
            for i in feature_idx:
                cell = record[i].strip()
                try:
                    values.append(float(cell))
                except ValueError:
                    raise DataError(
                        f"{path}: non-numeric cell {cell!r} at row {rownum}, column {i + 1}"
                    ) from None
            token = record[label_idx].strip()
            label = _LABEL_ALIASES.get(token.lower())
            if label is None:
                raise DataError(
                    f"{path}: unknown label token {token!r} at row {rownum}, column {label_idx + 1}"
                )
            rows.append(values)
            labels.append(label)
            if origin_idx is not None:
                origins.append(record[origin_idx].strip())

    if not rows:
        raise DataError(f"{path}: no data rows")
    return Dataset(
        feature_names=tuple(feature_names),
        rows=np.array(rows),
        labels=np.array(labels, dtype=object),
        origin=np.array(origins, dtype=object) if origins else None,
    )


def save_csv(data: Dataset, path) -> None:
    """Write the dataset back out (labels as High/Low, full float precision)."""
    header = list(data.feature_names) + [LABEL_COLUMN]
    if data.origin is not None:
        header.append(ORIGIN_COLUMN)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(data.n_rows):
            record = [repr(float(v)) for v in data.rows[i]] + [str(data.labels[i])]
            if data.origin is not None:
                record.append(str(data.origin[i]))
            writer.writerow(record)


# --------------------------------------------------------------------------
# Splits
# --------------------------------------------------------------------------


def _class_indices(labels) -> dict[str, np.ndarray]:
    labels = np.asarray(labels, dtype=object)
    return {str(c): np.flatnonzero(labels == c) for c in sorted(set(labels.astype(str)))}


def _stratified_mask(labels, fraction: float, rng) -> np.ndarray:
    """Mask of round(fraction * class size) seeded picks from each class,
    classes taken in sorted order."""
    mask = np.zeros(len(labels), dtype=bool)
    for idx in _class_indices(labels).values():
        idx = rng.permutation(idx)
        mask[idx[: int(round(len(idx) * fraction))]] = True
    return mask


def train_test_split(data: Dataset, test_fraction: float = 0.2, seed: int = 0):
    """Stratified split; returns (train, test)."""
    if not 0 < test_fraction < 1:
        raise DataError("test_fraction must be in (0, 1)")
    mask = _stratified_mask(data.labels, test_fraction, np.random.default_rng(seed))
    return subset(data, np.flatnonzero(~mask)), subset(data, np.flatnonzero(mask))


def kfold_split(data: Dataset, k: int, seed: int = 0):
    """Stratified k-fold partitions: list of (train_indices, val_indices).

    Folds are disjoint, cover every row, and keep per-fold class counts
    within one sample of the global proportion.
    """
    if k < 2:
        raise DataError("k must be at least 2")
    if k > data.n_rows:
        raise DataError(f"k={k} exceeds number of rows ({data.n_rows})")
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for _, idx in _class_indices(data.labels).items():
        idx = rng.permutation(idx)
        # Hand this class's chunks to the currently smallest folds so
        # remainders from different classes spread out (k == n gives
        # leave-one-out rather than doubled-up early folds).
        order = sorted(range(k), key=lambda f: (len(folds[f]), f))
        for fold, chunk in zip(order, np.array_split(idx, k)):
            folds[fold].extend(chunk.tolist())
    out = []
    everything = np.arange(data.n_rows)
    for fold in folds:
        val = np.array(sorted(fold), dtype=int)
        mask = np.ones(data.n_rows, dtype=bool)
        mask[val] = False
        out.append((everything[mask], val))
    return out


# --------------------------------------------------------------------------
# Synthetic generator
# --------------------------------------------------------------------------


@dataclass
class SynthConfig:
    """Controls for the synthetic data generator.

    The five causal features are drawn bimodally from a per-row "mastery"
    indicator correlated with the label, so the bundled knowledge rules
    approximately describe the generative process. The spurious feature is
    calibrated per realization (bisection on the label/noise mixing
    coefficient, after range clipping) to hit the requested point-biserial
    correlation; train and test get different targets.
    """

    n_rows: int = 427
    n_test: int = 85
    class_ratio: float = 364 / 427
    spurious_feature: str = "Small_cheese"
    train_spurious_r: float = 0.887
    test_spurious_r: float = 0.632
    causal_weights: dict[str, float] = field(
        default_factory=lambda: {name: 1.0 for name in CAUSAL_FEATURES}
    )
    seed: int = 0
    feature_stats: dict[str, tuple[float, float, float, float]] = field(
        default_factory=lambda: dict(FEATURE_STATS)
    )

    def __post_init__(self):
        if self.n_rows < 10 or self.n_test < 10:
            raise DataError("need at least 10 rows per split")
        if not 0 < self.class_ratio < 1:
            raise DataError("class_ratio must be in (0, 1)")
        for r in (self.train_spurious_r, self.test_spurious_r):
            if not abs(r) < 1:
                raise DataError("spurious correlation targets must satisfy |r| < 1")
        if self.spurious_feature not in self.feature_stats:
            raise DataError(f"unknown spurious feature {self.spurious_feature!r}")


def point_biserial(values: np.ndarray, labels) -> float:
    """Pearson correlation between a numeric column and labels encoded Low=0/High=1."""
    y = (np.asarray(labels, dtype=object).astype(str) == POSITIVE_CLASS).astype(np.float64)
    x = np.asarray(values, dtype=float)
    if x.std() == 0 or y.std() == 0:
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])


def _exact_labels(n: int, ratio: float, rng) -> np.ndarray:
    n_pos = int(round(n * ratio))
    n_pos = min(max(n_pos, 1), n - 1)
    labels = np.array([POSITIVE_CLASS] * n_pos + [NEGATIVE_CLASS] * (n - n_pos), dtype=object)
    rng.shuffle(labels)
    return labels


def _calibrated_spurious(y01, stats, target_r, rng) -> np.ndarray:
    lo, hi, mean, std = stats
    noise = rng.standard_normal(y01.shape[0]) * std * np.sqrt(max(1 - target_r**2, 0.05))
    p = y01.mean()

    def column(a: float) -> np.ndarray:
        return np.clip(mean + a * (y01 - p) + noise, lo, hi)

    def achieved(a: float) -> float:
        x = column(a)
        if x.std() == 0:
            return 0.0
        return float(np.corrcoef(x, y01)[0, 1])

    a_hi = std
    for _ in range(60):
        if achieved(a_hi) >= target_r:
            break
        a_hi *= 2.0
    else:
        raise DataError(f"cannot reach correlation {target_r} within the feature range")
    a_lo = 0.0
    for _ in range(80):
        mid = 0.5 * (a_lo + a_hi)
        if achieved(mid) < target_r:
            a_lo = mid
        else:
            a_hi = mid
    return column(a_hi)


def _mastery_probs(weight: float) -> tuple[float, float]:
    # (P(mastered | High), P(mastered | Low)); at weight 1 the knowledge rules
    # describe the High class nearly deterministically (0.9975^5 ~ 0.988).
    w = min(max(weight, 0.0), 1.0)
    return 0.5 + 0.4975 * w, 0.5 - 0.32 * w


def _generate_split(n, spurious_r, config: SynthConfig, rng) -> Dataset:
    labels = _exact_labels(n, config.class_ratio, rng)
    y01 = (labels == POSITIVE_CLASS).astype(np.float64)
    feature_names = tuple(config.feature_stats)
    columns = {}

    for name, stats in config.feature_stats.items():
        lo, hi, mean, std = stats
        if name == config.spurious_feature:
            columns[name] = _calibrated_spurious(y01, stats, spurious_r, rng)
        elif name in config.causal_weights:
            # Bimodal bands: mastered rows sit high enough in the range that a
            # compiled conjunction over them clears its threshold crisply.
            q_hi, q_lo = _mastery_probs(config.causal_weights[name])
            mastered = rng.random(n) < np.where(y01 == 1.0, q_hi, q_lo)
            span = hi - lo
            centers = np.where(mastered, lo + 0.88 * span, lo + 0.12 * span)
            columns[name] = np.clip(centers + rng.standard_normal(n) * 0.055 * span, lo, hi)
        else:
            columns[name] = np.clip(mean + rng.standard_normal(n) * std, lo, hi)

    rows = np.column_stack([columns[name] for name in feature_names])
    data = Dataset(
        feature_names=feature_names,
        rows=rows,
        labels=labels,
        origin=np.array(["real"] * n, dtype=object),
    )
    log.info(
        "synthetic split: n=%d, %s, r(%s)=%.4f (target %.3f)",
        n,
        data.class_counts(),
        config.spurious_feature,
        point_biserial(data.column(config.spurious_feature), labels),
        spurious_r,
    )
    return data


def generate_synthetic(config: SynthConfig) -> tuple[Dataset, Dataset]:
    """Generate (train, test) with the configured class imbalance and the
    spurious feature's point-biserial correlation calibrated per split."""
    rng = np.random.default_rng(config.seed)
    train = _generate_split(config.n_rows, config.train_spurious_r, config, rng)
    test = _generate_split(config.n_test, config.test_spurious_r, config, rng)
    return train, test
