"""Local surrogate explanations for any probability-emitting classifier,
with global aggregation and misprediction reports."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .datakit import CLASSES, Dataset

__all__ = [
    "FeatureStats",
    "Explanation",
    "GlobalExplanation",
    "MispredictionRecord",
    "lime_explain",
    "global_explain",
    "misprediction_report",
    "format_misprediction_table",
]

log = logging.getLogger(__name__)

MIN_SAMPLES = 50  # fewest perturbations `lime_explain` fits a surrogate to
KERNEL_WIDTH_SCALE = 0.75  # `lime_explain`'s kernel width is this times sqrt(feature count)


@dataclass
class FeatureStats:
    names: tuple[str, ...]
    means: np.ndarray
    stds: np.ndarray

    @classmethod
    def from_dataset(cls, data: Dataset) -> "FeatureStats":
        """Per-feature means and stds of `data`; if every feature is constant
        there is nothing to perturb, and that is a ValueError."""
        rows = data.rows
        if (rows == rows[:1]).all():
            raise ValueError(f"every feature is constant over the {data.n_rows} row(s); nothing to perturb")
        return cls(names=tuple(data.feature_names), means=rows.mean(axis=0), stds=rows.std(axis=0))


@dataclass
class Explanation:
    instance_id: int
    predicted: str
    true_label: str | None
    confidence: tuple[float, ...]  # per-class probabilities, class order
    contributions: list[tuple[str, float, float]]  # (feature, value, importance), |importance| desc


@dataclass
class GlobalExplanation:
    mean_signed: dict[str, float]
    mean_abs: dict[str, float]
    n_instances: int
    mispredicted: list[Explanation]  # rows whose prediction is not their label, in row order


@dataclass
class MispredictionRecord:
    explanation: Explanation
    supporting: list[tuple[str, float, float]]
    contradicting: list[tuple[str, float, float]]


def _weighted_linear_fit(design, target, weights):
    a = design * weights[:, None]
    lhs = design.T @ a
    rhs = a.T @ target
    try:
        beta = np.linalg.solve(lhs, rhs)
        if not np.all(np.isfinite(beta)):
            raise np.linalg.LinAlgError("non-finite solution")
        return beta
    except np.linalg.LinAlgError:
        log.warning("singular weighted design matrix; retrying with ridge damping 1e-6")
        lhs = lhs + 1e-6 * np.eye(lhs.shape[0])
        return np.linalg.solve(lhs, rhs)


def lime_explain(
    predict_fn,
    instance,
    stats: FeatureStats,
    n_samples: int = 1000,
    seed=0,
    instance_id: int = 0,
    true_label: str | None = None,
) -> Explanation:
    """Fit a kernel-weighted linear surrogate to the positive-class probability
    around one instance and report its coefficients as feature importances.

    `instance` and `stats` are in the units `predict_fn` takes: raw units for
    a tensornet model, which scales its own inputs. Perturbations are Gaussian
    around the instance scaled by the per-feature std; sample weights are
    exp(-d^2 / kernel_width^2) with d the Euclidean distance in std-normalized
    space and kernel_width = KERNEL_WIDTH_SCALE * sqrt(n_features). The
    prediction is named from `CLASSES`. Deterministic for a given seed.
    """
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"n_samples must be >= {MIN_SAMPLES}")
    instance = np.asarray(instance, dtype=np.float64)
    d = instance.shape[0]
    kernel_width = KERNEL_WIDTH_SCALE * np.sqrt(d)
    rng = np.random.default_rng(seed)

    stds = np.asarray(stats.stds, dtype=np.float64)
    perturbed = instance + stds * rng.standard_normal((n_samples, d))
    safe = np.where(stds > 0, stds, 1.0)
    standardized = (perturbed - instance) / safe
    standardized[:, stds == 0] = 0.0
    dist = np.sqrt((standardized**2).sum(axis=1))
    weights = np.exp(-(dist**2) / kernel_width**2)

    probs = np.asarray(predict_fn(perturbed), dtype=np.float64)
    target = probs[:, 1]  # positive class
    design = np.column_stack([np.ones(n_samples), standardized])
    beta = _weighted_linear_fit(design, target, weights)
    importances = beta[1:]

    inst_probs = np.asarray(predict_fn(instance[None, :]), dtype=np.float64)[0]
    predicted = CLASSES[int(inst_probs.argmax())]
    contributions = sorted(
        zip(stats.names, instance.tolist(), importances.tolist()),
        key=lambda c: abs(c[2]),
        reverse=True,
    )
    return Explanation(
        instance_id=instance_id,
        predicted=predicted,
        true_label=true_label,
        confidence=tuple(float(p) for p in inst_probs),
        contributions=[(name, float(v), float(imp)) for name, v, imp in contributions],
    )


def global_explain(predict_fn, data: Dataset, n_samples: int = 1000, seed=0) -> GlobalExplanation:
    """Average per-instance surrogate importances over a dataset, and keep the
    explanations of the rows whose prediction is not their label.

    Both the signed mean and the mean magnitude are reported per feature.
    Each row is explained once, seeded from (seed, row index), so results do
    not depend on evaluation order.
    """
    if data.n_rows == 0:
        raise ValueError("dataset is empty")
    stats = FeatureStats.from_dataset(data)
    signed = np.zeros(data.n_features)
    magnitude = np.zeros(data.n_features)
    index = {name: i for i, name in enumerate(stats.names)}
    mispredicted = []
    for i, (row, label) in enumerate(zip(data.rows, data.labels)):
        exp = lime_explain(
            predict_fn, row, stats, n_samples=n_samples, seed=np.random.SeedSequence((int(seed), i)),
            instance_id=i, true_label=str(label),
        )
        for name, _value, imp in exp.contributions:
            signed[index[name]] += imp
            magnitude[index[name]] += abs(imp)
        if exp.predicted != exp.true_label:
            mispredicted.append(exp)
    signed /= data.n_rows
    magnitude /= data.n_rows
    return GlobalExplanation(
        mean_signed={name: float(signed[index[name]]) for name in stats.names},
        mean_abs={name: float(magnitude[index[name]]) for name in stats.names},
        n_instances=data.n_rows,
        mispredicted=mispredicted,
    )


def misprediction_report(mispredicted: list[Explanation]) -> list[MispredictionRecord]:
    """Split each explanation of a misclassified row into the features
    supporting the (wrong) prediction — importance sign agreeing with the
    predicted class — and those contradicting it."""
    records = []
    for exp in mispredicted:
        # importances explain the positive-class probability
        wants_positive = exp.predicted == CLASSES[1]
        supporting = [c for c in exp.contributions if (c[2] > 0) == wants_positive and c[2] != 0]
        contradicting = [c for c in exp.contributions if (c[2] > 0) != wants_positive and c[2] != 0]
        records.append(
            MispredictionRecord(explanation=exp, supporting=supporting, contradicting=contradicting)
        )
    return records


def format_misprediction_table(records: list[MispredictionRecord]) -> str:
    """Flat text table: true value, prediction, confidence pair, and the two
    strongest supporting and contradicting features."""
    lines = ["true,predicted,confidence,supporting,contradicting"]
    for rec in records:
        exp = rec.explanation
        conf = "(" + ", ".join(f"{p:.3f}" for p in exp.confidence) + ")"

        def fmt(entries):
            return "; ".join(f"{name}=(Val={value:g}, Imp={imp:.3f})" for name, value, imp in entries[:2])

        lines.append(
            f"{exp.true_label},{exp.predicted},{conf},{fmt(rec.supporting)},{fmt(rec.contradicting)}"
        )
    return "\n".join(lines) + "\n"
