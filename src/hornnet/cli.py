"""Command-line entry point: reproducible batch workflows over the library.

Subcommands: synth, train, evaluate, explain, extract, compare. Every run
writes a manifest next to its outputs recording the resolved configuration,
master seed, and input/output digests; re-running the same command with the
same inputs reproduces the outputs byte for byte.

Flag resolution precedence: explicit flags > HORNNET_<FLAG> environment
variables > --config JSON file (or the one HORNNET_CONFIG names) > built-in
defaults; required flags come from the command line only. Exit codes: 0
success, 2 usage error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__, augment, datakit, evalharness, explain, kbann, tensornet
from .datakit import CLASSES
from .rulelang import RuleError, parse_rules

ENV_PREFIX = "HORNNET_"


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_manifest(out_dir: Path, command: str, args: dict, seed, inputs: list[Path], outputs: list[Path]):
    # `out` is where results land, not part of what they are; leaving it out
    # keeps manifests byte-identical across output locations.
    manifest = {
        "tool": "hornnet",
        "version": __version__,
        "command": command,
        "args": {k: v for k, v in sorted(args.items()) if k not in ("out", "config")},
        "seed": seed,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {p.name: _sha256(p) for p in outputs},
    }
    _write_json(out_dir / "manifest.json", manifest)


class _UsageError(Exception):
    """A bad command-line combination or flag value (exit code 2)."""


class _Parser(argparse.ArgumentParser):
    """Raises a bad, missing or unknown flag as `_UsageError`; subparsers share the class."""

    def error(self, message):
        raise _UsageError(message)


def _resolve(args: argparse.Namespace, subparser: argparse.ArgumentParser, argv) -> None:
    """Apply config-file and environment overrides to the flags that `argv`,
    the command's own arguments, does not give.

    Each value passes the flag's type and choices exactly as on the command
    line; a non-string config value is read as its JSON text.
    """
    config = {}
    path = args.config or os.environ.get(ENV_PREFIX + "CONFIG")
    if path:
        with open(path, encoding="utf-8-sig") as fh:
            try:
                config = json.load(fh)
            except ValueError as exc:  # not UTF-8, or not JSON
                raise _UsageError(f"{path}: config file is not valid JSON: {exc}") from None
        if not isinstance(config, dict):
            raise _UsageError(f"{path}: config file must hold a JSON object")
    # argparse fills in defaults only for what the namespace lacks, so a
    # flag still holding `unset` after this parse was not given
    unset = object()
    given = subparser.parse_args(argv, argparse.Namespace(**{key: unset for key in vars(args)}))
    for action in subparser._actions:
        key, env = action.dest, ENV_PREFIX + action.dest.upper()
        if getattr(given, key, None) is not unset:
            continue  # not a flag of this command, or given on the command line
        if env in os.environ:
            source, value = env, os.environ[env]
        elif key in config:
            source, value = path, config[key]
        else:
            continue
        if not isinstance(value, str):
            value = json.dumps(value)
        try:
            value = subparser._get_value(action, value)
            subparser._check_value(action, value)
        except argparse.ArgumentError as exc:
            raise _UsageError(f"{exc} (from {source})") from None
        setattr(args, key, value)


def _flag_type(convert, accept, expected: str):
    """An argparse type: `convert` the text, then require `accept` of the
    result. Either failure is a usage error, `expected <expected>, got '<text>'`."""

    def parse(value):
        try:
            result = convert(value)
            ok = accept(result)
        except ValueError:
            ok = False
        if not ok:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {value!r}")
        return result

    return parse


_positive_int = _flag_type(int, lambda n: n > 0, "a positive integer")
_seed = _flag_type(int, lambda n: n >= 0, "a non-negative integer")
_split_rows = _flag_type(int, lambda n: n >= 10, "an integer >= 10")  # datakit.SynthConfig's floor
_fold_count = _flag_type(int, lambda n: n >= 2, "an integer >= 2")
_lime_samples = _flag_type(int, lambda n: n >= explain.MIN_SAMPLES, f"an integer >= {explain.MIN_SAMPLES}")
# NaN fails every comparison, so each float type rejects it.
_non_negative = _flag_type(float, lambda x: 0 <= x < math.inf, "a finite number >= 0")
_positive = _flag_type(float, lambda x: 0 < x < math.inf, "a finite number > 0")
_fraction = _flag_type(float, lambda x: 0 < x < 1, "a number in (0, 1)")
_correlation = _flag_type(float, lambda x: -1 < x < 1, "a number in (-1, 1)")


def _add_common(sub, *, seed=True):
    if seed:
        sub.add_argument("--seed", type=_seed, default=0, help="master seed")
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument("--config", default=None, help="JSON file with flag defaults")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The `hornnet` parser and its subcommands' parsers by name."""
    parser = _Parser(
        prog="hornnet",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--version", action="version", version=f"hornnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic train/test CSVs")
    p.add_argument("--rows", type=_split_rows, default=427)
    p.add_argument("--test-rows", type=_split_rows, default=85, dest="test_rows")
    p.add_argument("--class-ratio", type=_fraction, default=364 / 427, dest="class_ratio")
    p.add_argument("--train-r", type=_correlation, default=0.887, dest="train_r")
    p.add_argument("--test-r", type=_correlation, default=0.632, dest="test_r")
    _add_common(p)

    p = sub.add_parser("train", help="train a model on a CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--rules", default=None, help="rule file: train the knowledge (nsai) model on it, not the baseline")
    p.add_argument("--augment", choices=("none", "smote", "autoencoder"), default="none")
    p.add_argument("--learning-rate", type=_non_negative, default=0.03, dest="learning_rate")
    p.add_argument("--max-epochs", type=_positive_int, default=500, dest="max_epochs")
    p.add_argument("--omega", type=_positive, default=kbann.CompileConfig.omega)
    _add_common(p)

    p = sub.add_parser("evaluate", help="evaluate a model file on a CSV")
    p.add_argument("--model", required=True, dest="model_path")
    p.add_argument("--data", required=True)
    _add_common(p, seed=False)

    p = sub.add_parser("explain", help="surrogate explanations for a model")
    p.add_argument("--model", required=True, dest="model_path")
    p.add_argument("--data", required=True)
    p.add_argument("--samples", type=_lime_samples, default=1000)
    _add_common(p)

    p = sub.add_parser("extract", help="threshold rules from a knowledge model")
    p.add_argument("--model", required=True, dest="model_path")
    p.add_argument("--data", required=True)
    p.add_argument("--tolerance", type=_non_negative, default=0.1)
    _add_common(p, seed=False)

    p = sub.add_parser("compare", help="train and compare all four models")
    p.add_argument("--train", required=True, dest="train_path")
    p.add_argument("--test", required=True, dest="test_path")
    p.add_argument("--rules", required=True)
    p.add_argument("--cv-folds", type=_fold_count, default=10, dest="cv_folds")
    _add_common(p)

    return parser, sub.choices


# --------------------------------------------------------------------------
# Subcommand implementations. Each writes its outputs into `out` and returns
# the files it read and the files it wrote, which its manifest records; `main`
# makes `out` and writes the manifest.
# --------------------------------------------------------------------------


def _read_rules(path, data_path, columns, config: kbann.CompileConfig):
    """The rule set in the file at `path` and its net compiled under `config` over
    `columns`, those of the CSV at `data_path`. Text that is not UTF-8, not a valid
    rule set or not compilable, or an input not among `columns`, is an error that
    names the files."""
    try:
        rules = parse_rules(Path(path).read_text(encoding="utf-8-sig"))
        if missing := sorted(rules.inputs - set(columns)):
            raise kbann.CompileError(f"rule inputs missing from the columns of {data_path}: {missing}")
        return rules, kbann.compile_rules(rules, columns, CLASSES, config)
    except (UnicodeDecodeError, RuleError, kbann.CompileError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _cmd_synth(args, out: Path) -> tuple[list[Path], list[Path]]:
    config = datakit.SynthConfig(
        n_rows=args.rows,
        n_test=args.test_rows,
        class_ratio=args.class_ratio,
        train_spurious_r=args.train_r,
        test_spurious_r=args.test_r,
        seed=args.seed,
    )
    train, test = datakit.generate_synthetic(config)
    train_path, test_path = out / "train.csv", out / "test.csv"
    datakit.save_csv(train, train_path)
    datakit.save_csv(test, test_path)
    print(f"wrote {train_path} ({train.n_rows} rows), {test_path} ({test.n_rows} rows)")
    return [], [train_path, test_path]


def _cmd_train(args, out: Path) -> tuple[list[Path], list[Path]]:
    model_kind = "nsai" if args.rules else "baseline"
    inputs = [Path(args.data)]

    data = datakit.load_csv(args.data)
    if args.rules:  # a bad rule file fails before any augmentation
        inputs.append(Path(args.rules))
        compile_config = kbann.CompileConfig(omega=args.omega, seed=args.seed)
        _, net = _read_rules(args.rules, args.data, data.feature_names, compile_config)
    else:
        net = evalharness.build_baseline(data, args.seed)
    if args.augment == "smote":
        data = augment.smote(data, augment.SmoteConfig(seed=args.seed))
    elif args.augment == "autoencoder":
        data = augment.balance_with_autoencoder(data, seed=args.seed)

    train_cfg = tensornet.TrainConfig(
        learning_rate=args.learning_rate, max_epochs=args.max_epochs, seed=args.seed
    )
    net = replace(net, input_bounds=datakit.feature_bounds(data))
    trained, report = tensornet.train(net, data, train_cfg)
    tensornet.save_network(trained, out / "model.npz")
    _write_json(
        out / "train_report.json",
        {
            "model": model_kind,
            "augment": args.augment,
            "effective_rows": data.n_rows,
            "class_counts": data.class_counts(),
            "normalization": trained.input_bounds.tolist(),
            "epochs_run": report.epochs_run,
            "best_epoch": report.best_epoch,
            "stopped_early": report.stopped_early,
            "final_train_loss": report.train_loss_history[-1],
        },
    )
    print(f"trained {model_kind} model on {data.n_rows} rows -> {out / 'model.npz'}")
    return inputs, [out / "model.npz", out / "train_report.json"]


def _scoring_inputs(args) -> tuple[tensornet.Network, datakit.Dataset]:
    """The --model network, whose outputs must be `CLASSES`, and the --data CSV
    with its feature columns matched by name to the network's `input_names`,
    in that order."""
    net = tensornet.load_network(args.model_path)
    if tuple(net.output_names) != CLASSES:
        raise ValueError(f"{args.model_path}: model outputs {', '.join(net.output_names)} are not {', '.join(CLASSES)}")
    return net, datakit._match_columns(datakit.load_csv(args.data), net.input_names, args.data)


def _cmd_evaluate(args, out: Path) -> tuple[list[Path], list[Path]]:
    net, data = _scoring_inputs(args)
    preds = tensornet.predict_labels(net, data.rows).astype(str)
    metrics = evalharness.compute_metrics(preds, data.labels.astype(str), CLASSES)
    _write_json(out / "metrics.json", evalharness.metrics_to_dict(metrics))
    table = evalharness.render_metrics_table({"model": metrics})
    (out / "metrics.txt").write_text(table, encoding="utf-8")
    print(table, end="")
    return [Path(args.model_path), Path(args.data)], [out / "metrics.json", out / "metrics.txt"]


def _cmd_explain(args, out: Path) -> tuple[list[Path], list[Path]]:
    net, data = _scoring_inputs(args)

    predict_fn = tensornet.predictor(net)
    global_exp = explain.global_explain(predict_fn, data, n_samples=args.samples, seed=args.seed)
    _write_json(
        out / "global_explanation.json",
        {
            "mean_signed": global_exp.mean_signed,
            "mean_abs": global_exp.mean_abs,
            "n_instances": global_exp.n_instances,
        },
    )
    (out / "mispredictions.txt").write_text(
        explain.format_misprediction_table(global_exp.mispredicted), encoding="utf-8"
    )
    structured = [
        {
            "instance_id": exp.instance_id,
            "true_label": exp.true_label,
            "predicted": exp.predicted,
            "confidence": list(exp.confidence),
            "supporting": [list(c) for c in exp.supporting],
            "contradicting": [list(c) for c in exp.contradicting],
        }
        for exp in global_exp.mispredicted
    ]
    _write_json(out / "mispredictions.json", structured)
    print(f"{len(global_exp.mispredicted)} mispredicted rows explained -> {out}")
    outputs = [out / name for name in ("global_explanation.json", "mispredictions.txt", "mispredictions.json")]
    return [Path(args.model_path), Path(args.data)], outputs


def _cmd_extract(args, out: Path) -> tuple[list[Path], list[Path]]:
    net, data = _scoring_inputs(args)
    extracted = kbann.extract_rules(net, data, group_tolerance=args.tolerance)
    text = kbann.format_extracted_rules(extracted)
    (out / "rules.txt").write_text(text, encoding="utf-8")
    _write_json(out / "rules.json", kbann.extracted_rules_to_dict(extracted))
    print(text, end="")
    return [Path(args.model_path), Path(args.data)], [out / "rules.txt", out / "rules.json"]


def _cmd_compare(args, out: Path) -> tuple[list[Path], list[Path]]:
    train_data = datakit.load_csv(args.train_path)
    # run_comparison matches the columns too; here a missing one names the file
    test_data = datakit._match_columns(datakit.load_csv(args.test_path), train_data.feature_names, args.test_path)
    # run_comparison compiles at this default omega, and no compile error depends on the seed
    rules, _ = _read_rules(args.rules, args.train_path, train_data.feature_names, kbann.CompileConfig())
    report = evalharness.run_comparison(train_data, test_data, rules, master_seed=args.seed, cv_folds=args.cv_folds)
    (out / "report.json").write_text(evalharness.report_to_json(report), encoding="utf-8")
    (out / "report.txt").write_text(evalharness.render_report_text(report), encoding="utf-8")
    print(evalharness.render_metrics_table(report.test_metrics), end="")
    return [Path(args.train_path), Path(args.test_path), Path(args.rules)], [out / "report.json", out / "report.txt"]


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "explain": _cmd_explain,
    "extract": _cmd_extract,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    parser, subparsers = build_parser()
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        args = parser.parse_args(argv)
        _resolve(args, subparsers[args.command], argv[argv.index(args.command) + 1 :])
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        inputs, outputs = _COMMANDS[args.command](args, out)
        # evaluate and extract take no --seed; their manifests record None
        _write_manifest(out, args.command, vars(args), getattr(args, "seed", None), inputs, outputs)
    except SystemExit as exc:  # --help or --version
        return int(exc.code or 0)
    except _UsageError as exc:
        print(f"hornnet: error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"hornnet: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
