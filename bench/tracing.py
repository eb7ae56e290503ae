"""Span tracing for the benchmark, installed from outside the package.

Every public function of each hornnet module is wrapped so that a call
records a span: name, start, end and parent span. Each wrapper is put in
every namespace that binds the original function, because `kbann` and
`augment` import `forward`, `predict_labels` and `train` by name from
`tensornet`, while `evalharness` and `cli` call through module attributes.
Spans stay in memory; `layer_metrics` derives the per-layer numbers from
them and `run.py` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

LAYERS = ("rulelang", "datakit", "tensornet", "kbann", "augment", "explain", "evalharness", "cli")
PREDICT = {"tensornet.forward", "tensornet.predict_proba", "tensornet.predict_labels"}
AUTOENCODER = {"augment.balance_with_autoencoder", "augment.train_autoencoder", "augment.autoencoder_sample"}


@dataclass
class Span:
    name: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    return int(shape[0]) if shape is not None and len(shape) == 2 else 1


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Probes read counts off a call's arguments and result. They run after the
# span has ended and must stay O(1); anything costlier is deferred to
# `layer_metrics`.
def _probe_train(args, kwargs, result):
    data, config = _arg(args, kwargs, 1, "data"), _arg(args, kwargs, 2, "config")
    report = result[1]
    return {"data": data, "config": config, "epochs": report.epochs_run, "best_epoch": report.best_epoch}


def _probe_rows_made(args, kwargs, result):
    return {"rows_made": result.n_rows - _arg(args, kwargs, 0, "data").n_rows}


def _probe_smote(args, kwargs, result):
    return {**_probe_rows_made(args, kwargs, result), "replay": (args, kwargs)}


PROBES = {
    "datakit.load_csv": lambda a, k, r: {"rows": r.n_rows},
    "tensornet.train": _probe_train,
    "tensornet.forward": lambda a, k, r: {"rows": _rows(_arg(a, k, 1, "x"))},
    "tensornet.predict_proba": lambda a, k, r: {"rows": _rows(_arg(a, k, 1, "x"))},
    "tensornet.predict_labels": lambda a, k, r: {"rows": _rows(_arg(a, k, 1, "x"))},
    "kbann.extract_rules": lambda a, k, r: {"fidelity": r.fidelity},
    "augment.smote": _probe_smote,
    "augment.balance_with_autoencoder": _probe_rows_made,
    "explain.global_explain": lambda a, k, r: {"rows": r.n_instances},
    "explain.misprediction_report": lambda a, k, r: {"rows": len(r)},
    "cli.main": lambda a, k, r: {"command": _arg(a, k, 0, "argv")[0]},
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._bindings = []  # (namespace, attribute, original, wrapper)
        modules = [importlib.import_module("hornnet")]
        modules += [importlib.import_module(f"hornnet.{layer}") for layer in LAYERS]
        # originals, called untraced after the passes
        self.validation_split = sys.modules["hornnet.tensornet"].validation_split
        self._smote = sys.modules["hornnet.augment"].smote
        for layer, module in zip(LAYERS, modules[1:]):
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for namespace in modules:
                    for key, value in list(vars(namespace).items()):
                        if value is fn:
                            self._bindings.append((namespace, key, fn, wrapper))

    def _wrap(self, name, fn):
        probe = PROBES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if probe is not None:
                span.info.update(probe(args, kwargs, result))
            return result

        return wrapper

    def install(self):
        for namespace, key, _fn, wrapper in self._bindings:
            setattr(namespace, key, wrapper)

    def uninstall(self):
        for namespace, key, fn, _wrapper in self._bindings:
            setattr(namespace, key, fn)

    def measure_smote_memory(self) -> None:
        """Replay each traced `augment.smote` call under tracemalloc, which
        sees numpy's allocations, and record its peak on the span. The replay
        runs after the passes so that tracemalloc's cost stays out of the
        spans; SMOTE is deterministic for its arguments."""
        for span in self.spans:
            if "replay" not in span.info:
                continue
            args, kwargs = span.info.pop("replay")
            tracemalloc.start()
            try:
                self._smote(*args, **kwargs)
            finally:
                span.info["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()

    def dump(self) -> list[dict]:
        """Spans as plain records (probe arguments dropped), times in seconds."""
        return [
            {
                "name": s.name,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                **{k: v for k, v in s.info.items() if isinstance(v, (int, float, str))},
            }
            for s in self.spans
        ]


def _outermost(spans: list[Span], names: set[str]) -> list[Span]:
    """Spans named in `names` with no ancestor also named in `names`."""
    out = []
    for span in spans:
        if span.name not in names:
            continue
        parent = span.parent
        while parent >= 0 and spans[parent].name not in names:
            parent = spans[parent].parent
        if parent < 0:
            out.append(span)
    return out


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-layer self time: span durations minus the time their children cover."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    totals = {layer: 0.0 for layer in LAYERS}
    for span, covered in zip(spans, child_time):
        totals[span.layer] += span.duration - covered
    return totals


def layer_metrics(spans: list[Span], validation_split) -> dict[str, float]:
    """Every per-layer metric, as totals over the traced spans."""

    def total(names, key=None):
        picked = _outermost(spans, set(names))
        return sum(s.info.get(key, 0) if key else s.duration for s in picked)

    trains = _outermost(spans, {"tensornet.train"})
    steps = 0
    for span in trains:
        data, config = span.info["data"], span.info["config"]
        # tensornet.train splits off its validation rows the same way
        if hasattr(data, "rows"):
            x = data.rows
            labels = data.labels if config.loss == "cross_entropy" else None
        else:
            x, labels = data[0], None
        train_idx, _ = validation_split(len(x), config.validation_fraction, config.seed, labels)
        steps += span.info["epochs"] * math.ceil(len(train_idx) / config.batch_size)
    epochs = sum(s.info["epochs"] for s in trains)
    train_s = total({"tensornet.train"})

    extracts = _outermost(spans, {"kbann.extract_rules"})
    explain_rows = total({"explain.global_explain", "explain.misprediction_report"}, "rows")
    explain_s = total({"explain.global_explain", "explain.misprediction_report"})
    commands = {}
    for span in _outermost(spans, {"cli.main"}):
        commands[span.info["command"]] = commands.get(span.info["command"], 0.0) + span.duration
    self_s = self_times(spans)

    return {
        "datakit.synth_s": total({"datakit.generate_synthetic"}),
        "datakit.load_csv_s": total({"datakit.load_csv"}),
        "datakit.save_csv_s": total({"datakit.save_csv"}),
        "datakit.rows_read": total({"datakit.load_csv"}, "rows"),
        "rulelang.parse_s": total({"rulelang.parse_rules"}),
        "tensornet.train_s": train_s,
        "tensornet.train_calls": len(trains),
        "tensornet.epochs": epochs,
        "tensornet.steps": steps,
        "tensornet.us_per_step": 1e6 * train_s / steps if steps else 0.0,
        "tensornet.useful_epoch_ratio": sum(s.info["best_epoch"] for s in trains) / epochs if epochs else 0.0,
        "tensornet.predict_s": total(PREDICT),
        "tensornet.predict_calls": len(_outermost(spans, PREDICT)),
        "tensornet.predict_rows": total(PREDICT, "rows"),
        "kbann.compile_s": total({"kbann.compile_rules"}),
        "kbann.extract_s": total({"kbann.extract_rules"}),
        "kbann.permutation_s": total({"kbann.permutation_importance"}),
        "kbann.fidelity": min((s.info["fidelity"] for s in extracts), default=0.0),
        "augment.smote_s": total({"augment.smote"}),
        "augment.smote_peak_mb": max((s.info["peak_mb"] for s in _outermost(spans, {"augment.smote"})), default=0.0),
        "augment.autoencoder_s": total(AUTOENCODER),
        "augment.rows_made": total({"augment.smote", "augment.balance_with_autoencoder"}, "rows_made"),
        "explain.global_s": total({"explain.global_explain"}),
        "explain.mispred_s": total({"explain.misprediction_report"}),
        "explain.rows": explain_rows,
        "explain.ms_per_row": 1e3 * explain_s / explain_rows if explain_rows else 0.0,
        "evalharness.self_s": self_s["evalharness"],
        "evalharness.correlation_s": total({"evalharness.correlation_table"}),
        "cli.train_s": commands.get("train", 0.0),
        "cli.evaluate_s": commands.get("evaluate", 0.0),
        "cli.explain_s": commands.get("explain", 0.0),
        "cli.extract_s": commands.get("extract", 0.0),
        "cli.self_s": self_s["cli"],
    }
