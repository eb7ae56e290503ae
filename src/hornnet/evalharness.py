"""Metrics, correlation analysis, cross-validation, and the comparison of the
`MODEL_KINDS` (plain classifier, SMOTE- and autoencoder-augmented variants, and
the knowledge-compiled network) on a shared test set."""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from . import augment, datakit, kbann, tensornet
from .datakit import CLASSES, Dataset
from .rulelang import RuleSet

__all__ = [
    "Metrics",
    "ExperimentReport",
    "compute_metrics",
    "correlation_table",
    "build_baseline",
    "run_comparison",
    "render_metrics_table",
    "render_correlation_table",
    "report_to_json",
    "render_report_text",
    "metrics_to_dict",
]

BASELINE_HIDDEN = (50, 50)
IMPORTANCE_REPEATS = 5  # shuffles of the spurious feature per permutation importance


@dataclass
class Metrics:
    accuracy: float
    recall: dict[str, float]     # absent key = undefined (class missing from truth)
    precision: dict[str, float]  # absent key = undefined (class never predicted)
    confusion: np.ndarray        # rows = truth, columns = prediction
    classes: tuple[str, ...]


def compute_metrics(predictions, truth, classes=CLASSES) -> Metrics:
    """Accuracy, per-class recall/precision, and the confusion matrix over
    `classes`, in their order; a label outside them is a ValueError.

    Undefined ratios (empty row or column of the confusion matrix) are left
    out of the dicts rather than reported as zero.
    """
    predictions = np.asarray(predictions, dtype=object)
    truth = np.asarray(truth, dtype=object)
    if predictions.shape != truth.shape or predictions.ndim != 1:
        raise ValueError("predictions and truth must be equal-length vectors")
    if predictions.shape[0] == 0:
        raise ValueError("need at least one prediction")
    # one dict lookup per distinct label, then one count over (truth, prediction) codes
    names, inverse = np.unique(np.concatenate([truth, predictions]).astype(str), return_inverse=True)
    names = names.tolist()
    classes = tuple(classes)
    index = {c: i for i, c in enumerate(classes)}
    if unknown := [name for name in names if name not in index]:
        raise ValueError(f"label {unknown[0]!r} is not one of the classes {', '.join(classes)}")
    codes = np.array([index[name] for name in names], dtype=int)[inverse]
    k = len(classes)
    n = truth.shape[0]
    confusion = np.bincount(codes[:n] * k + codes[n:], minlength=k * k).reshape(k, k)

    accuracy = float(np.trace(confusion) / confusion.sum())
    recall = {}
    precision = {}
    for c, i in index.items():
        row = confusion[i].sum()
        col = confusion[:, i].sum()
        if row > 0:
            recall[c] = float(confusion[i, i] / row)
        if col > 0:
            precision[c] = float(confusion[i, i] / col)
    return Metrics(accuracy, recall, precision, confusion, classes)


def correlation_table(datasets: list[tuple[str, Dataset]]):
    """Per-feature point-biserial correlation with the label for each named
    dataset. Constant features report r = 0 and are flagged."""
    if not datasets:
        raise ValueError("no datasets given")
    features = datasets[0][1].feature_names
    table: dict[str, dict[str, float]] = {name: {} for name in features}
    flags: list[tuple[str, str]] = []
    for ds_name, data in datasets:
        if data.n_rows < 3:
            raise ValueError(f"dataset {ds_name!r} needs at least 3 rows")
        for feat in features:
            col = data.column(feat)
            table[feat][ds_name] = datakit.point_biserial(col, data.labels)
            if col.std() == 0:
                flags.append((ds_name, feat))
    return table, flags


# --------------------------------------------------------------------------
# Comparison experiment
# --------------------------------------------------------------------------


def derive_seed(master_seed: int, tag: str) -> int:
    """Deterministic per-component seed from the master seed and a name."""
    digest = np.random.SeedSequence(
        [int(master_seed)] + [ord(ch) for ch in tag]
    ).generate_state(1)[0]
    return int(digest)


@dataclass
class ExperimentReport:
    master_seed: int
    test_metrics: dict[str, Metrics]
    cv_folds: int
    cv_accuracy: dict[str, tuple[float, float]]  # mean, std over folds
    correlations: dict[str, dict[str, float]]
    correlation_flags: list[tuple[str, str]]
    permutation_importances: dict[str, float]  # of datakit.SPURIOUS_FEATURE
    nsai_rules: kbann.ExtractedRuleSet
    train_reports: dict[str, tensornet.TrainReport]


def build_baseline(data: Dataset, seed: int) -> tensornet.Network:
    """The plain classifier over `data`'s features: ReLU layers of
    `BASELINE_HIDDEN` widths, then a softmax over `CLASSES`."""
    return tensornet.build_mlp(
        data.n_features,
        list(BASELINE_HIDDEN),
        2,
        seed=seed,
        input_names=list(data.feature_names),
        class_names=list(CLASSES),
    )


def _baseline_kind(data: Dataset, rules: RuleSet, seed: int) -> tensornet.Network:
    return build_baseline(data, seed)


def _compiled_kind(data: Dataset, rules: RuleSet, seed: int) -> tensornet.Network:
    return kbann.compile_rules(rules, data.feature_names, CLASSES, kbann.CompileConfig(seed=seed))


# (name, training rows, builder) in report order. The name seeds the model, the rows
# key `run_comparison`'s datasets, and the builder maps (train_data, rules, seed) to a net.
MODEL_KINDS = (
    ("deep_nn", "train", _baseline_kind),
    ("deep_nn_smote", "smote_train", _baseline_kind),
    ("deep_nn_autoencoder", "autoencoder_train", _baseline_kind),
    ("nsai", "train", _compiled_kind),
)


def _seeded_builder(build, train_data: Dataset, rules: RuleSet, bounds):
    return lambda seed: replace(build(train_data, rules, seed), input_bounds=bounds)


def _train_with_folds(builder, source: Dataset, seed: int, cv_seed: int, k: int):
    """Train `builder(seed)` on all of `source` and cross-validate it, in one
    `tensornet.train_stack` call: member 0 is the final net, members 1..k the
    fold nets, seeded from `cv_seed` and trained on their folds' rows.

    Returns the final net, its `TrainReport`, and the mean and std of the
    folds' validation accuracy. Each member's weights are those of training
    it alone with `tensornet.train`.
    """
    folds = datakit.kfold_split(source, k, cv_seed)
    seeds = [seed] + [derive_seed(cv_seed, f"fold{fold}") for fold in range(len(folds))]
    (model, report), *fold_nets = tensornet.train_stack(
        [builder(s) for s in seeds],
        source,
        [tensornet.TrainConfig(seed=s) for s in seeds],
        [None] + [train_idx for train_idx, _ in folds],
    )
    scores = []
    for (trained, _), (_, val_idx) in zip(fold_nets, folds):
        val = datakit.subset(source, val_idx)
        preds = tensornet.predict_labels(trained, val.rows)
        scores.append(float((preds == val.labels).mean()))
    return model, report, (float(np.mean(scores)), float(np.std(scores)))


def run_comparison(
    train_data: Dataset,
    test_data: Dataset,
    rules: RuleSet,
    master_seed: int = 0,
    cv_folds: int = 10,
) -> ExperimentReport:
    """Train and evaluate every model of `MODEL_KINDS` with derived per-model seeds.

    Every model trains with the default `TrainConfig`, and the knowledge model
    compiles with the default `CompileConfig`. All models are scored on the
    identical test rows, whose feature columns are matched by name to
    `train_data`'s; augmentation touches training rows only, and every model
    scales with `train_data`'s bounds. Permutation importance shuffles
    `datakit.SPURIOUS_FEATURE`. A missing test column and any kind's builder
    error (a rule compilation error) surface before any augmentation or training,
    and a dataset of fewer than 3 rows before any training.
    """
    test_data = datakit._match_columns(test_data, train_data.feature_names, "test_data")
    bounds = datakit.feature_bounds(train_data)
    for _, _, build in MODEL_KINDS:  # fail fast on a rule/schema mismatch
        build(train_data, rules, master_seed)

    datasets = {
        "train": train_data,
        "smote_train": augment.smote(train_data, augment.SmoteConfig(seed=derive_seed(master_seed, "smote"))),
        "autoencoder_train": augment.balance_with_autoencoder(train_data, seed=derive_seed(master_seed, "ae-sample")),
        "test": test_data,
    }
    correlations, flags = correlation_table(list(datasets.items()))
    models, train_reports, cv_accuracy, test_metrics, importances = {}, {}, {}, {}, {}
    for name, rows, build in MODEL_KINDS:
        models[name], train_reports[name], cv_accuracy[name] = _train_with_folds(
            _seeded_builder(build, train_data, rules, bounds),
            datasets[rows],
            derive_seed(master_seed, name),
            derive_seed(master_seed, f"cv-{name}"),
            cv_folds,
        )
        preds = tensornet.predict_labels(models[name], test_data.rows)
        test_metrics[name] = compute_metrics(preds, test_data.labels, CLASSES)
        importances[name] = kbann.permutation_importance(
            models[name],
            test_data,
            datakit.SPURIOUS_FEATURE,
            repeats=IMPORTANCE_REPEATS,
            seed=derive_seed(master_seed, f"perm-{name}"),
        )

    nsai_rules = kbann.extract_rules(models["nsai"], train_data)

    return ExperimentReport(
        master_seed=master_seed,
        test_metrics=test_metrics,
        cv_folds=cv_folds,
        cv_accuracy=cv_accuracy,
        correlations=correlations,
        correlation_flags=flags,
        permutation_importances=importances,
        nsai_rules=nsai_rules,
        train_reports=train_reports,
    )


# --------------------------------------------------------------------------
# Rendering / serialization
# --------------------------------------------------------------------------


def _pct(x: float | None) -> str:
    return "-" if x is None else f"{100 * x:.2f}"


def render_metrics_table(test_metrics: dict[str, Metrics]) -> str:
    """Plain-text model comparison: accuracy, per-class recall and precision
    as percentages with two decimals."""
    classes = next(iter(test_metrics.values())).classes
    neg, pos = classes[0], classes[1]
    header = (
        f"{'Model':<22}{'Accuracy (%)':>14}{f'Recall {pos} (%)':>18}{f'Recall {neg} (%)':>18}"
        f"{f'Precision {pos} (%)':>20}{f'Precision {neg} (%)':>20}"
    )
    lines = [header, "-" * len(header)]
    for name, m in test_metrics.items():
        lines.append(
            f"{name:<22}{_pct(m.accuracy):>14}{_pct(m.recall.get(pos)):>18}{_pct(m.recall.get(neg)):>18}"
            f"{_pct(m.precision.get(pos)):>20}{_pct(m.precision.get(neg)):>20}"
        )
    return "\n".join(lines) + "\n"


def render_correlation_table(correlations: dict[str, dict[str, float]]) -> str:
    columns = list(next(iter(correlations.values())))
    header = f"{'Feature':<16}" + "".join(f"{c:>22}" for c in columns)
    lines = [header, "-" * len(header)]
    for feat, row in correlations.items():
        lines.append(f"{feat:<16}" + "".join(f"{row[c]:>22.3f}" for c in columns))
    return "\n".join(lines) + "\n"


def metrics_to_dict(m: Metrics) -> dict:
    return {
        "accuracy": m.accuracy,
        "recall": dict(m.recall),
        "precision": dict(m.precision),
        "confusion": m.confusion.tolist(),
        "classes": list(m.classes),
    }


def report_to_dict(report: ExperimentReport) -> dict:
    return {
        "master_seed": report.master_seed,
        "test_metrics": {k: metrics_to_dict(v) for k, v in report.test_metrics.items()},
        "cv_accuracy": {k: {"mean": v[0], "std": v[1]} for k, v in report.cv_accuracy.items()},
        "correlations": {feat: dict(row) for feat, row in report.correlations.items()},
        "correlation_flags": [list(f) for f in report.correlation_flags],
        "spurious_feature": datakit.SPURIOUS_FEATURE,
        "permutation_importances": dict(report.permutation_importances),
        "nsai_rules": kbann.extracted_rules_to_dict(report.nsai_rules),
        "epochs_run": {k: v.epochs_run for k, v in report.train_reports.items()},
    }


def report_to_json(report: ExperimentReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"


def render_report_text(report: ExperimentReport) -> str:
    parts = [
        f"master seed: {report.master_seed}",
        "",
        "Test-set performance",
        render_metrics_table(report.test_metrics),
        f"{report.cv_folds}-fold cross-validation accuracy (mean +- std)",
    ]
    for name, (mean, std) in report.cv_accuracy.items():
        parts.append(f"  {name:<22}{100 * mean:.2f} +- {100 * std:.2f}")
    parts += [
        "",
        "Feature/label correlations",
        render_correlation_table(report.correlations),
        f"Permutation importance of {datakit.SPURIOUS_FEATURE} (accuracy drop)",
    ]
    for name, imp in report.permutation_importances.items():
        parts.append(f"  {name:<22}{imp:.4f}")
    parts += ["", "Extracted rules (nsai)", kbann.format_extracted_rules(report.nsai_rules)]
    return "\n".join(parts)
