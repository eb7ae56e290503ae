"""Class-balancing augmentation: SMOTE interpolation and autoencoder sampling."""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .datakit import Dataset, feature_bounds, scale
from .tensornet import TrainConfig, _forward_full, build_network, forward, train

__all__ = [
    "SmoteConfig",
    "AUTOENCODER_WIDTHS",
    "AugmentError",
    "smote",
    "balance_with_autoencoder",
]

log = logging.getLogger(__name__)

# SMOTE's neighbor search works on budget // (n * d) rows at a time: the rows
# whose n x d pairwise differences fit in 2**21 float64s (16 MB). A block holds
# its n-wide screen and the differences to each row's candidates, at most n, so
# memory grows linearly in the rows.
_KNN_BLOCK_ELEMENTS = 2**21


class AugmentError(ValueError):
    pass


def _minority_majority(data: Dataset):
    counts = data.class_counts()
    if len(counts) != 2:
        raise AugmentError(f"need exactly two classes, found {sorted(counts)}")
    (minority, n_min), (majority, n_maj) = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    return minority, n_min, majority, n_maj


def _append_rows(data: Dataset, rows: np.ndarray, label: str, tag: str) -> Dataset:
    """`data` followed by `rows`, each labeled `label` with origin `tag`;
    untagged original rows become "real"; each column shares one str per value."""
    n = rows.shape[0]
    origin = data.origin if data.origin is not None else np.array(["real"] * data.n_rows, dtype=object)
    return replace(
        data,
        rows=np.vstack([data.rows, rows]),
        labels=np.concatenate([data.labels, np.array([label] * n, dtype=object)]),
        origin=np.concatenate([origin, np.array([tag] * n, dtype=object)]),
    )


# --------------------------------------------------------------------------
# SMOTE
# --------------------------------------------------------------------------


@dataclass
class SmoteConfig:
    k_neighbors: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise AugmentError("k_neighbors must be >= 1")


def smote(data: Dataset, config: SmoteConfig | None = None) -> Dataset:
    """Append interpolated minority rows until the classes are equal.

    Each synthetic point is x_i + lambda * (x_nn - x_i) with lambda uniform in
    [0, 1] and x_nn one of x_i's k nearest minority neighbors (Euclidean on
    min-max-scaled features). The seed draws all base rows i, then all
    neighbor slots, then all lambdas, one array each. Original rows come
    first, unchanged; synthetic rows carry the minority label and origin tag
    "smote".
    """
    config = config or SmoteConfig()
    minority, n_min, majority, n_maj = _minority_majority(data)
    n_new = n_maj - n_min
    if n_new == 0:
        log.warning("smote: classes already equal; returning input unchanged")
        return data
    if n_min < 2:
        raise AugmentError(f"minority class {minority!r} needs at least 2 samples")
    if config.k_neighbors >= n_min:
        raise AugmentError(
            f"k_neighbors={config.k_neighbors} must be below the minority count {n_min}"
        )

    minority_rows = data.rows[data.labels == minority]
    neighbor_ids = _nearest_neighbors(scale(minority_rows, feature_bounds(data)), config.k_neighbors)

    rng = np.random.default_rng(config.seed)
    i = rng.integers(n_min, size=n_new)
    nn = neighbor_ids[i, rng.integers(config.k_neighbors, size=n_new)]
    lam = rng.uniform(size=(n_new, 1))
    synthetic = minority_rows[i] + lam * (minority_rows[nn] - minority_rows[i])
    return _append_rows(data, synthetic, minority, "smote")


def _nearest_neighbors(points: np.ndarray, k: int) -> np.ndarray:
    """Ids of each point's k nearest other points by the squared Euclidean
    distance `((a - b) ** 2).sum(axis=-1)`, ties broken by lower id.

    Rows are searched a block at a time, `_KNN_BLOCK_ELEMENTS // (n * d)`
    rows per block, in four steps:

    1. Screen. One matmul per block gives s = ||b||^2 - 2 a.b, which is the
       squared distance less ||a||^2, a constant of the row. `argpartition`
       keeps the `2k` lowest screen values of each row as its window.
    2. Margin. With u the unit roundoff and g_m = m u / (1 - m u), computing
       ||b||^2, a.b (any summation order, with or without FMA) and their sum
       puts s within g_(d+1) (||a|| + ||b||)^2 of its real value, and the
       exact expression is within g_(d+2) ||a - b||^2 of the real distance
       (d + 2 roundings per term). So s + ||a||^2 and the exact distance
       differ by at most 2 g_(d+2) (||a|| + ||b||)^2 <= 8 g_(d+2) r^2, r the
       largest norm; `margin` doubles that to cover the rounding of r^2, and
       adds the smallest normal float to cover underflow. If t is a row's
       k-th lowest screen value, the row's k-th smallest exact distance is
       at most t + ||a||^2 + margin, so each of its k true neighbors has
       screen value at most t + 2 margin. A window whose next lowest
       screen value is above t + 2 margin thus holds them all.
    3. Exact rank. Each row's candidates get the exact expression, whose
       values are bit-identical to an all-pairs computation, and are ordered
       by (distance, id).
    4. Fallback. A row whose window is not proven complete (ties or near ties
       at the window's edge, duplicated points, cancellation at large
       offsets) takes every point with screen value within t + 2 margin.

    Points must be finite and their squared norms must not overflow.
    """
    n, d = points.shape
    block = max(1, _KNN_BLOCK_ELEMENTS // (n * d))
    width = min(n - 1, 2 * k)
    sq = np.einsum("ij,ij->i", points, points)
    u = np.finfo(np.float64).eps / 2
    gamma = (d + 2) * u / (1 - (d + 2) * u)
    margin = 16 * gamma * sq.max() + np.finfo(np.float64).tiny
    minus_twice = -2.0 * points
    ids = np.empty((n, k), dtype=np.intp)
    for start in range(0, n, block):
        rows = np.arange(start, min(start + block, n))
        screen = points[rows] @ minus_twice.T
        screen += sq
        screen[rows - start, rows] = np.inf
        window = np.argpartition(screen, width, axis=1)[:, : width + 1]
        near = np.take_along_axis(screen, window, axis=1)
        limit = np.partition(near[:, :width], k - 1, axis=1)[:, k - 1] + 2 * margin
        proven = near[:, width] > limit
        ids[rows[proven]] = _closest(points, rows[proven], window[proven, :width], k)
        if not proven.all():
            wide = screen[~proven]
            count = (wide <= limit[~proven, None]).sum(axis=1).max()
            candidates = np.argpartition(wide, count - 1, axis=1)[:, :count]
            ids[rows[~proven]] = _closest(points, rows[~proven], candidates, k)
    return ids


def _closest(points: np.ndarray, rows: np.ndarray, candidates: np.ndarray, k: int) -> np.ndarray:
    """For each of `rows`, the k ids of its row of `candidates` nearest to it
    by the exact squared distance, ties broken by lower id."""
    dist = ((points[rows, None, :] - points[candidates]) ** 2).sum(axis=-1)
    order = np.lexsort((candidates, dist), axis=-1)[:, :k]
    return np.take_along_axis(candidates, order, axis=1)


# --------------------------------------------------------------------------
# Autoencoder
# --------------------------------------------------------------------------

# ReLU widths from the input side; the middle layer's output is the latent code.
AUTOENCODER_WIDTHS = (8, 4, 2, 4, 8)


def balance_with_autoencoder(data: Dataset, seed: int = 0) -> Dataset:
    """Equalize classes by appending autoencoder-sampled minority rows.

    The autoencoder, `AUTOENCODER_WIDTHS` then a linear output layer, learns
    all rows min-max-scaled (raw telemetry scales condition training poorly)
    by mean squared error; its initialization and batch order use seed 0. A
    Gaussian per latent dimension is fitted to the minority rows' codes, and
    latents drawn from it with `seed` are decoded, clipped to the observed
    ranges and mapped back to raw units, with origin "autoencoder".
    """
    minority, n_min, majority, n_maj = _minority_majority(data)
    n_new = n_maj - n_min
    if n_new == 0:
        log.warning("autoencoder balance: classes already equal; returning input unchanged")
        return data

    bounds = np.array(feature_bounds(data))
    scaled = scale(data.rows, bounds)
    specs = [(w, "relu") for w in AUTOENCODER_WIDTHS] + [(data.n_features, "linear")]
    net = build_network(data.n_features, specs, seed=0)
    net, _ = train(net, (scaled, scaled), TrainConfig(loss="mean_squared_error"))
    bottleneck = len(AUTOENCODER_WIDTHS) // 2
    codes = forward(net, scaled[data.labels == minority])[bottleneck]
    noise = np.random.default_rng(seed).standard_normal((n_new, codes.shape[1]))
    _, acts = _forward_full(net, codes.mean(axis=0) + codes.std(axis=0) * noise, start=bottleneck + 1)
    sampled = np.clip(acts[-1], scaled.min(axis=0), scaled.max(axis=0))
    lo, hi = bounds[:, 0], bounds[:, 1]
    return _append_rows(data, sampled * (hi - lo) + lo, minority, "autoencoder")
