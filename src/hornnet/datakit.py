"""Tabular dataset handling: CSV ingestion, min-max scaling, stratified splits,
and a synthetic generator for the game-telemetry schema with a controllable
spurious correlation between one feature and the binary label. Datasets hold
raw units; a network scales its own inputs (`tensornet.Network.input_bounds`).
"""

from __future__ import annotations

import csv
import io
import logging
import warnings
from dataclasses import dataclass, replace

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
    "SPURIOUS_FEATURE",
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

# The feature the generator ties to the label by a calibrated correlation alone,
# and whose permutation importance the model comparison reports.
SPURIOUS_FEATURE = "Small_cheese"

# (P(mastered | High), P(mastered | Low)) of each causal feature: the knowledge
# rules describe the High class nearly deterministically (0.9975^5 ~ 0.988).
_MASTERY_PROBS = (0.5 + 0.4975, 0.5 - 0.32)


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
    return _rescale(rows, *_scaling(bounds), out=out)


def _scaling(bounds):
    """`scale`'s (lo, divisor, constant) for `bounds`: each column's lo, its span or
    1 where the span is 0, and the mask of those constant columns."""
    bounds = np.asarray(bounds, dtype=np.float64)
    lo, hi = bounds[:, 0], bounds[:, 1]
    span = hi - lo
    return lo, np.where(span > 0, span, 1.0), ~(span > 0)


def _rescale(rows, lo, divisor, constant, out=None) -> np.ndarray:
    """(rows - lo) / divisor with the `constant` columns set to 0, into `out` if
    given. `lo` and `divisor` are `_scaling`'s, or those tiled to the shape of
    `rows`, which spares numpy a broadcast over short rows: a third of the time
    for 1000 rows of 9."""
    out = np.subtract(rows, lo, out=out)
    out /= divisor
    out[..., constant] = 0.0
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


def _match_columns(data: Dataset, names, source) -> Dataset:
    """`data` with its feature columns matched by name to `names`, in that order;
    other columns are dropped. A missing one is a DataError naming `source`.
    `data` itself is returned when its columns already follow `names`."""
    if tuple(data.feature_names) == tuple(names):
        return data
    if missing := [name for name in names if name not in data.feature_names]:
        raise DataError(f"{source}: missing feature column(s) the model needs: {', '.join(missing)}")
    order = [data.feature_names.index(name) for name in names]
    return replace(data, feature_names=tuple(names), rows=data.rows.take(order, axis=1))


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

    numpy's C reader parses the body in one call. A file it rejects, or whose
    cells fail a check, is read again by `_load_csv_rows`, the row-by-row
    reference, which returns its rows or names its problem. On every file
    both accept, they return the same rows, labels and origin; only the
    reference has the csv module's limit of 131072 characters per cell.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # Excel writes a byte-order mark
            header = _read_header(path, csv.reader(fh))
            data = _read_body(fh, *header)
        return data if data is not None else _load_csv_rows(path)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: {exc}") from None


def _read_header(path, reader):
    """(cell count, feature names, label index, origin index or None, feature
    indices) of the CSV whose `reader` is at its first record."""
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    header = [h.strip() for h in header]
    if "" in header:
        raise DataError(f"{path}: empty column name at column {header.index('') + 1}")
    if duplicates := sorted({h for h in header if header.count(h) > 1}):
        raise DataError(f"{path}: duplicate column name(s): {', '.join(duplicates)}")
    if LABEL_COLUMN not in header:
        raise DataError(f"{path}: missing required column {LABEL_COLUMN!r}")
    label_idx = header.index(LABEL_COLUMN)
    origin_idx = header.index(ORIGIN_COLUMN) if ORIGIN_COLUMN in header else None
    feature_idx = [i for i in range(len(header)) if i not in (label_idx, origin_idx)]
    if not feature_idx:
        raise DataError(f"{path}: no feature columns besides {LABEL_COLUMN!r}")
    return len(header), tuple(header[i] for i in feature_idx), label_idx, origin_idx, feature_idx


def _read_body(fh, width, feature_names, label_idx, origin_idx, feature_idx) -> Dataset | None:
    """The records after the header, parsed by `np.loadtxt` with one field per
    column: float64 for features, whole strings for the label and origin. None
    where `_load_csv_rows` must decide: the C reader rejects the text or warns
    (a record of another cell count, a whitespace-only line, a cell only
    float() reads, no records), a label token is unknown or a cell is not finite."""
    fields = np.dtype([(f"c{i}", object if i in (label_idx, origin_idx) else np.float64) for i in range(width)])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(fh, dtype=fields, delimiter=",", quotechar='"', comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    rows = np.empty((len(table), len(feature_idx)))
    for j, i in enumerate(feature_idx):
        rows[:, j] = table[f"c{i}"]
    labels = _map_cells(table[f"c{label_idx}"], lambda token: _LABEL_ALIASES.get(token.strip().lower()))
    if not len(rows) or labels is None or not np.isfinite(rows).all():
        return None
    origin = None if origin_idx is None else _map_cells(table[f"c{origin_idx}"], str.strip)
    return Dataset(feature_names=feature_names, rows=rows, labels=labels, origin=origin)


def _map_cells(cells: np.ndarray, convert) -> np.ndarray | None:
    """`convert` of each cell, an object array; None if it gives None for any.
    Each distinct cell is converted once."""
    converted = {cell: convert(cell) for cell in set(cells)}
    if None in converted.values():
        return None
    return np.array([converted[cell] for cell in cells], dtype=object)


def _load_csv_rows(path) -> Dataset:
    """`load_csv` one csv record at a time, with Python's float(): the
    reference reader, which names the first problem of a bad file."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        width, feature_names, label_idx, origin_idx, feature_idx = _read_header(path, reader)
        rows, labels, origins, rownums = [], [], [], []
        for rownum, record in enumerate(reader, start=2):
            if not record or all(not c.strip() for c in record):
                continue
            if len(record) != width:
                raise DataError(f"{path}: row {rownum} has {len(record)} cells, expected {width}")
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
            rownums.append(rownum)
            if origin_idx is not None:
                origins.append(record[origin_idx].strip())

    if not rows:
        raise DataError(f"{path}: no data rows")
    rows = np.array(rows)
    if not np.isfinite(rows).all():
        r, c = np.argwhere(~np.isfinite(rows))[0]
        raise DataError(f"{path}: non-finite cell {float(rows[r, c])!r} at row {rownums[r]}, column {feature_idx[c] + 1}")
    return Dataset(
        feature_names=feature_names,
        rows=rows,
        labels=np.array(labels, dtype=object),
        origin=np.array(origins, dtype=object) if origins else None,
    )


# Rows per write of save_csv: one block's text is all it holds at a time.
_SAVE_BLOCK_ROWS = 512


def save_csv(data: Dataset, path) -> None:
    """Write the dataset back out (labels as High/Low, full float precision), with
    the bytes of one `csv.writer` row of `repr` floats and `str` label and origin
    per dataset row. Rows go out in blocks, one `write` each; the csv module writes
    each distinct (label, origin) tail once, after an empty cell that stands in for
    the floats so that the tail is quoted as inside a row."""
    header = list(data.feature_names) + [LABEL_COLUMN]
    tail_columns = [data.labels] if data.origin is None else [data.labels, data.origin]
    if data.origin is not None:
        header.append(ORIGIN_COLUMN)
    lead = [""] if data.n_features else []  # a row of one empty cell is written as ""
    tail_text = {}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_csv_row(header))
        for lo in range(0, data.n_rows, _SAVE_BLOCK_ROWS):
            block = slice(lo, lo + _SAVE_BLOCK_ROWS)
            lines = []
            for row, tail in zip(data.rows[block].tolist(), zip(*(map(str, col[block]) for col in tail_columns))):
                if tail not in tail_text:
                    tail_text[tail] = _csv_row(lead + list(tail))
                lines.append(",".join(map(repr, row)) + tail_text[tail])
            fh.write("".join(lines))


def _csv_row(cells) -> str:
    """The text `csv.writer` writes for one row of `cells`, line end included."""
    buf = io.StringIO()
    csv.writer(buf).writerow(cells)
    return buf.getvalue()


# --------------------------------------------------------------------------
# Splits
# --------------------------------------------------------------------------


def _class_indices(labels) -> dict[str, np.ndarray]:
    labels = np.asarray(labels, dtype=object)
    # map(str, ...) gives the names astype(str) would, without a numpy scalar per row
    return {c: np.flatnonzero(labels == c) for c in sorted(set(map(str, labels)))}


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
    approximately describe the generative process. The spurious feature
    (`SPURIOUS_FEATURE`) is calibrated per realization (bisection on the
    label/noise mixing coefficient, after range clipping) to hit the requested
    point-biserial correlation; train and test get different targets.
    """

    n_rows: int = 427
    n_test: int = 85
    class_ratio: float = 364 / 427
    train_spurious_r: float = 0.887
    test_spurious_r: float = 0.632
    seed: int = 0

    def __post_init__(self):
        if self.n_rows < 10 or self.n_test < 10:
            raise DataError("need at least 10 rows per split")
        if not 0 < self.class_ratio < 1:
            raise DataError("class_ratio must be in (0, 1)")
        for r in (self.train_spurious_r, self.test_spurious_r):
            if not abs(r) < 1:
                raise DataError("spurious correlation targets must satisfy |r| < 1")


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


def _generate_split(n, spurious_r, config: SynthConfig, rng) -> Dataset:
    labels = _exact_labels(n, config.class_ratio, rng)
    y01 = (labels == POSITIVE_CLASS).astype(np.float64)
    feature_names = tuple(FEATURE_STATS)
    columns = {}

    for name, stats in FEATURE_STATS.items():
        lo, hi, mean, std = stats
        if name == SPURIOUS_FEATURE:
            columns[name] = _calibrated_spurious(y01, stats, spurious_r, rng)
        elif name in CAUSAL_FEATURES:
            # Bimodal bands: mastered rows sit high enough in the range that a
            # compiled conjunction over them clears its threshold crisply.
            q_hi, q_lo = _MASTERY_PROBS
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
    if log.isEnabledFor(logging.INFO):  # the counts and the correlation cost a pass over the rows
        log.info(
            "synthetic split: n=%d, %s, r(%s)=%.4f (target %.3f)",
            n,
            data.class_counts(),
            SPURIOUS_FEATURE,
            point_biserial(data.column(SPURIOUS_FEATURE), labels),
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
