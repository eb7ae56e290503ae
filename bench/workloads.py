"""The benchmark's workloads: the inputs each makes from its seed, the
operations one pass runs, and the semantic check each operation's output
must pass.

Every call goes through a module attribute (`cli.main`, `datakit.load_csv`,
`evalharness.run_comparison`) so that the traced run's wrappers see it.
Checks read the outputs only; they call nothing in hornnet.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from hornnet import cli, datakit, evalharness, rulelang

RULES = """\
Final_score :- CT_concepts, CT_skills.
CT_concepts :- Conditional, Loop.
CT_skills :- Debug, Simulation, Function.
"""
FIDELITY_FLOOR = 0.90  # acceptance criterion 5


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class Size:
    rows: int
    test_rows: int
    cv_folds: int = 10
    samples: int = 1000


@dataclass(frozen=True)
class Inputs:
    work: Path
    train_csv: Path
    test_csv: Path
    rules_path: Path
    train: datakit.Dataset
    test: datakit.Dataset
    rules: rulelang.RuleSet


@dataclass(frozen=True)
class Op:
    kind: str  # "compare" or a CLI subcommand
    call: Callable[[], object]
    check: Callable[[object], dict]  # raises CheckFailed; returns counts


def _cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def setup(work: Path, size: Size, seed: int) -> Inputs:
    """Synthetic CSVs via `hornnet synth`, the rule file, and the in-memory
    datasets and rule set."""
    data = work / "data"
    rc = _cli(["synth", "--rows", str(size.rows), "--test-rows", str(size.test_rows),
               "--seed", str(seed), "--out", str(data)])
    _command_ok(rc, data, "train.csv", "test.csv")
    rules_path = work / "ct.rules"
    rules_path.write_text(RULES, encoding="utf-8")
    return Inputs(
        work=work,
        train_csv=data / "train.csv",
        test_csv=data / "test.csv",
        rules_path=rules_path,
        train=datakit.load_csv(data / "train.csv"),
        test=datakit.load_csv(data / "test.csv"),
        rules=rulelang.parse_rules(rules_path.read_text(encoding="utf-8")),
    )


# --------------------------------------------------------------------------
# Output checks. Semantic, not byte digests: a change in float summation
# order is not a failure.
# --------------------------------------------------------------------------


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _finite(value, what: str) -> None:
    _require(isinstance(value, (int, float)) and math.isfinite(value), f"{what} is not finite: {value!r}")


def _share(value, what: str) -> None:
    _finite(value, what)
    _require(0.0 <= value <= 1.0, f"{what} outside [0, 1]: {value!r}")


def _command_ok(rc: int, out: Path, *files: str) -> None:
    _require(rc == 0, f"exit code {rc}")
    for name in ("manifest.json",) + files:
        _require((out / name).is_file(), f"{out / name} was not written")


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _check_rules(fidelity: float, rules) -> None:
    """`rules` as (threshold, [weight, ...]) pairs."""
    _share(fidelity, "extraction fidelity")
    _require(fidelity >= FIDELITY_FLOOR, f"extraction fidelity {fidelity:.4f} < {FIDELITY_FLOOR}")
    for threshold, weights in rules:
        _finite(threshold, "rule threshold")
        for weight in weights:
            _finite(weight, "rule weight")


def check_comparison(report) -> dict:
    for name, m in report.test_metrics.items():
        _share(m.accuracy, f"{name} accuracy")
        for value in list(m.recall.values()) + list(m.precision.values()):
            _share(value, f"{name} recall/precision")
    for name, (mean, std) in report.cv_accuracy.items():
        _share(mean, f"{name} CV accuracy")
        _finite(std, f"{name} CV std")
    for name, importance in report.permutation_importances.items():
        _finite(importance, f"{name} permutation importance")
    rules = report.nsai_rules
    _check_rules(rules.fidelity, [(r.threshold, [w for w, _ in r.terms]) for r in rules.rules])
    return {}


def check_train(rc: int, out: Path) -> dict:
    _command_ok(rc, out, "model.npz", "train_report.json")
    report = _read_json(out / "train_report.json")
    _require(report["epochs_run"] >= 1, "no epoch ran")
    _require(report["effective_rows"] >= 1, "no rows trained on")
    _finite(report["final_train_loss"], "final training loss")
    return {"samples": report["effective_rows"] * report["epochs_run"]}


def check_evaluate(rc: int, out: Path) -> dict:
    _command_ok(rc, out, "metrics.json", "metrics.txt")
    metrics = _read_json(out / "metrics.json")
    _share(metrics["accuracy"], "accuracy")
    for value in list(metrics["recall"].values()) + list(metrics["precision"].values()):
        _share(value, "recall/precision")
    return {}


def check_explain(rc: int, out: Path) -> dict:
    _command_ok(rc, out, "global_explanation.json", "mispredictions.json", "mispredictions.txt")
    global_exp = _read_json(out / "global_explanation.json")
    for key in ("mean_signed", "mean_abs"):
        for feature, value in global_exp[key].items():
            _finite(value, f"global {key} of {feature}")
    records = _read_json(out / "mispredictions.json")
    for record in records:
        for p in record["confidence"]:
            _share(p, "misprediction confidence")
        for _name, value, importance in record["supporting"] + record["contradicting"]:
            _finite(value, "explained feature value")
            _finite(importance, "explained importance")
    return {"rows": global_exp["n_instances"] + len(records)}


def check_extract(rc: int, out: Path) -> dict:
    _command_ok(rc, out, "rules.txt", "rules.json")
    extracted = _read_json(out / "rules.json")
    rules = [(r["threshold"], [t["weight"] for t in r["terms"]]) for r in extracted["rules"]]
    _check_rules(extracted["fidelity"], rules)
    return {}


# --------------------------------------------------------------------------
# Passes. Pass i of a run uses master seed seed * 1000 + i, so consecutive
# passes differ and runs with different seeds never share one.
# --------------------------------------------------------------------------


def _command(argv: list[str], out: Path, check) -> Op:
    argv = argv + ["--out", str(out)]
    return Op(argv[0], lambda: _cli(argv), lambda rc: check(rc, out))


def _train(inp: Inputs, out: Path, seed: str, *extra: str) -> Op:
    return _command(["train", "--data", str(inp.train_csv), "--seed", seed, *extra], out, check_train)


def _evaluate(inp: Inputs, model: Path) -> Op:
    argv = ["evaluate", "--model", str(model / "model.npz"), "--data", str(inp.test_csv)]
    return _command(argv, model.with_name(model.name + "-eval"), check_evaluate)


def _extract(inp: Inputs, model: Path) -> Op:
    argv = ["extract", "--model", str(model / "model.npz"), "--data", str(inp.train_csv)]
    return _command(argv, model.with_name("rules"), check_extract)


def compare_paper(inp: Inputs, size: Size, master_seed: int) -> list[Op]:
    def call():
        return evalharness.run_comparison(
            inp.train, inp.test, inp.rules, master_seed=master_seed, cv_folds=size.cv_folds
        )

    return [Op("compare", call, check_comparison)]


def train_large(inp: Inputs, size: Size, master_seed: int) -> list[Op]:
    # Three epochs, no more than the patience, so early stopping never fires
    # and each model's step count is fixed: at 20k rows one more epoch is a
    # second or more, which would swamp the run-to-run comparison. For the
    # same reason there is no autoencoder model here: its own training stops
    # early after 4 to 20 epochs depending on the data, and no flag fixes it.
    seed, out = str(master_seed), inp.work / "pass"
    models = {
        "baseline": (),
        "smote": ("--augment", "smote"),
        "nsai": ("--rules", str(inp.rules_path)),
    }
    ops = [_train(inp, out / name, seed, "--max-epochs", "3", *extra) for name, extra in models.items()]
    ops += [_evaluate(inp, out / name) for name in models]
    ops.append(_extract(inp, out / "nsai"))
    return ops


def cli_explain(inp: Inputs, size: Size, master_seed: int) -> list[Op]:
    seed, out = str(master_seed), inp.work / "pass"
    ops = [
        _train(inp, out / "baseline", seed),
        _train(inp, out / "nsai", seed, "--rules", str(inp.rules_path)),
        _evaluate(inp, out / "baseline"),
        _evaluate(inp, out / "nsai"),
    ]
    argv = ["explain", "--model", str(out / "baseline" / "model.npz"), "--data", str(inp.train_csv),
            "--samples", str(size.samples), "--seed", seed]
    ops.append(_command(argv, out / "explain", check_explain))
    ops.append(_extract(inp, out / "nsai"))
    return ops


@dataclass(frozen=True)
class Workload:
    ops: Callable[[Inputs, Size, int], list[Op]]
    sizes: dict[str, Size]  # "full" is measured; "tiny" is for the benchmark's own test
    nominal_pass_s: float  # sets how many pass pairs a traced run makes


# Sizes follow the paper (427 train / 85 test rows) except train-large, whose
# 20k rows keep SMOTE's n_min^2 * d distance tensor visible in peak memory
# without exhausting an 8 GB machine.
WORKLOADS = {
    "compare-paper": Workload(compare_paper, {"full": Size(427, 85), "tiny": Size(60, 20, cv_folds=3)}, 1.0),
    "train-large": Workload(train_large, {"full": Size(20000, 4000), "tiny": Size(400, 100)}, 4.0),
    "cli-explain": Workload(cli_explain, {"full": Size(427, 85), "tiny": Size(60, 20, samples=100)}, 0.8),
}
