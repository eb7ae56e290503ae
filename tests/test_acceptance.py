"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import hashlib
import itertools
import time
from dataclasses import replace

import numpy as np

from hornnet import augment, datakit, evalharness, explain, kbann, tensornet
from hornnet.cli import main as cli_main
from hornnet.datakit import Dataset, SynthConfig, feature_bounds, generate_synthetic
from hornnet.rulelang import evaluate_boolean, parse_rules, random_ruleset, rewrite_disjuncts

CT_RULES = parse_rules(
    "Final_score :- CT_concepts, CT_skills.\n"
    "CT_concepts :- Conditional, Loop.\n"
    "CT_skills :- Debug, Simulation, Function.\n"
)
CLASSES = ("Low", "High")


def _check(num, name, ok, detail=""):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_compilation_logic_fidelity():
    # the criterion's thresholds, which verify_compiled_logic holds as constants
    assert (kbann.ACTIVATION_HIGH, kbann.ACTIVATION_LOW) == (0.85, 0.15)
    rng = np.random.default_rng(1001)
    t0 = time.time()
    failures = 0
    for trial in range(100):
        rules = rewrite_disjuncts(
            random_ruleset(rng, max_inputs=10, max_levels=3, negation_prob=0.25, multi_clause_prob=0.3)
        )
        net = kbann.compile_rules(
            rules, sorted(rules.inputs), CLASSES, kbann.CompileConfig(perturb_scale=0.0, seed=trial)
        )
        if not kbann.verify_compiled_logic(net, rules):
            failures += 1
    elapsed = time.time() - t0
    _check(1, "knowledge-compilation logic fidelity",
           failures == 0 and elapsed < 60, f"failures={failures}, {elapsed:.1f}s")


def test_criterion_2_rewrite_equivalence():
    rng = np.random.default_rng(1002)
    checked = 0
    mismatches = 0
    while checked < 100:
        rules = random_ruleset(rng, max_inputs=10, multi_clause_prob=0.6)
        if not any(len(cs) > 1 for cs in rules.clauses_by_head.values()):
            continue
        checked += 1
        rewritten = rewrite_disjuncts(rules)
        inputs = sorted(rules.inputs)
        for bits in itertools.product([False, True], repeat=len(inputs)):
            assignment = dict(zip(inputs, bits))
            want = evaluate_boolean(rules, assignment)
            got = evaluate_boolean(rewritten, assignment)
            if any(got[h] != v for h, v in want.items()):
                mismatches += 1
                break
    _check(2, "disjunct rewrite boolean equivalence", mismatches == 0,
           f"{checked} rule sets, exhaustive assignments")


def _random_gradient_case(idx, rng):
    hidden_kinds = [["relu"], ["sigmoid"], ["relu", "sigmoid"], ["sigmoid", "relu"]]
    hidden = hidden_kinds[idx % len(hidden_kinds)]
    use_l1l2 = idx % 2 == 0
    loss = "cross_entropy" if idx % 4 < 2 else "mean_squared_error"
    d_in = int(rng.integers(2, 6))
    widths = [int(rng.integers(2, 6)) for _ in hidden]
    d_out = int(rng.integers(2, 4))
    specs = [(w, a) for w, a in zip(widths, hidden)]
    specs.append((d_out, "softmax" if loss == "cross_entropy" else "linear"))
    config = tensornet.TrainConfig(
        l1=0.7 if use_l1l2 else 0.0, l2=1.3 if use_l1l2 else 0.0, loss=loss
    )
    for attempt in range(50):
        net = tensornet.build_network(d_in, specs, seed=int(rng.integers(1 << 30)))
        x = rng.normal(size=(8, d_in))
        targets = (
            np.eye(d_out)[rng.integers(0, d_out, 8)]
            if loss == "cross_entropy"
            else rng.normal(size=(8, d_out))
        )
        zs, _ = tensornet._forward_full(net.layers, x)
        relu_margin = min(
            (np.abs(z).min() for z, l in zip(zs, net.layers) if l.activation == "relu"),
            default=1.0,
        )
        if relu_margin > 1e-3:  # finite differences must not cross a relu kink
            return net, x, targets, config
    raise RuntimeError("could not sample a kink-free network")


def test_criterion_3_gradient_correctness():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for idx in range(20):
        net, x, targets, config = _random_gradient_case(idx, rng)
        report = tensornet.numerical_gradient_check(net, x, targets, config)
        worst = max(worst, report.max_relative_error)
    _check(3, "analytic vs finite-difference gradients", worst < 1e-4, f"max rel err {worst:.2e}")


def test_criterion_4_smote_geometry_and_counts():
    rng = np.random.default_rng(1004)
    ok = True
    for trial in range(50):
        d = int(rng.integers(2, 6))
        n_min = int(rng.integers(4, 12))
        n_maj = n_min + int(rng.integers(3, 30))
        rows = np.vstack([
            rng.uniform(0, 10, (n_maj, d)),
            rng.uniform(20, 30, (n_min, d)),
        ])
        labels = np.array(["High"] * n_maj + ["Low"] * n_min, dtype=object)
        data = Dataset(tuple(f"f{i}" for i in range(d)), rows, labels)
        k = int(rng.integers(1, n_min))
        out = augment.smote(data, augment.SmoteConfig(k_neighbors=k, seed=trial))
        counts = out.class_counts()
        if counts["High"] != counts["Low"]:
            ok = False
            break
        if out.n_rows - data.n_rows != n_maj - n_min:
            ok = False
            break
        synthetic = out.rows[data.n_rows:]
        if set(out.labels[data.n_rows:]) != {"Low"}:
            ok = False
            break
        minority = rows[n_maj:]
        lo, hi = minority.min(axis=0) - 1e-9, minority.max(axis=0) + 1e-9
        if not (np.all(synthetic >= lo) and np.all(synthetic <= hi)):
            ok = False
            break
    _check(4, "smote segment containment and exact class parity", ok, "50 random datasets")


def _trained_nsai(train_raw, seed):
    net = kbann.compile_rules(
        CT_RULES, train_raw.feature_names, CLASSES, kbann.CompileConfig(seed=seed)
    )
    net = replace(net, input_bounds=feature_bounds(train_raw))
    model, _ = tensornet.train(net, train_raw, tensornet.TrainConfig(seed=seed))
    return model


def test_criterion_5_extraction_fidelity_and_completeness():
    train_raw, _ = generate_synthetic(SynthConfig(seed=0))
    model = _trained_nsai(train_raw, seed=0)
    extracted = kbann.extract_rules(model, train_raw)
    mentioned = {a for rule in extracted.rules for _w, members in rule.terms for a in members}
    complete = set(train_raw.feature_names) <= mentioned
    _check(5, "rule-extraction fidelity and feature completeness",
           extracted.fidelity >= 0.90 and complete,
           f"fidelity {extracted.fidelity:.3f}, all 9 features present: {complete}")


def test_criterion_6_spurious_correlation_replication():
    t0 = time.time()
    imp_nsai, imp_base, acc_nsai, acc_base = [], [], [], []
    for seed in range(10):
        train_raw, test_raw = generate_synthetic(SynthConfig(seed=seed))
        truth = test_raw.labels.astype(str)

        nsai = _trained_nsai(train_raw, seed)
        acc_nsai.append(float((tensornet.predict_labels(nsai, test_raw.rows).astype(str) == truth).mean()))
        imp_nsai.append(kbann.permutation_importance(nsai, test_raw, "Small_cheese", repeats=5, seed=seed))

        base = tensornet.build_mlp(
            train_raw.n_features, [50, 50], 2, seed=seed,
            input_names=list(train_raw.feature_names), class_names=list(CLASSES),
        )
        base = replace(base, input_bounds=feature_bounds(train_raw))
        base, _ = tensornet.train(base, train_raw, tensornet.TrainConfig(seed=seed))
        acc_base.append(float((tensornet.predict_labels(base, test_raw.rows).astype(str) == truth).mean()))
        imp_base.append(kbann.permutation_importance(base, test_raw, "Small_cheese", repeats=5, seed=seed))

    elapsed = time.time() - t0
    mean_imp_nsai, mean_imp_base = float(np.mean(imp_nsai)), float(np.mean(imp_base))
    mean_acc_nsai, mean_acc_base = float(np.mean(acc_nsai)), float(np.mean(acc_base))
    ok = (
        mean_imp_nsai < mean_imp_base
        and mean_acc_nsai >= mean_acc_base - 0.01
        and elapsed < 600
    )
    _check(6, "spurious-feature reliance lower for knowledge model", ok,
           f"importance {mean_imp_nsai:.4f} vs {mean_imp_base:.4f}, "
           f"accuracy {mean_acc_nsai:.4f} vs {mean_acc_base:.4f}, {elapsed:.0f}s")


def test_criterion_7_generator_correlation_contract():
    worst_train, worst_test = 0.0, 0.0
    for seed in range(20):
        train, test = generate_synthetic(SynthConfig(seed=seed))
        r_train = datakit.point_biserial(train.column("Small_cheese"), train.labels)
        r_test = datakit.point_biserial(test.column("Small_cheese"), test.labels)
        worst_train = max(worst_train, abs(r_train - 0.887))
        worst_test = max(worst_test, abs(r_test - 0.632))
    _check(7, "generator point-biserial targets", worst_train <= 0.03 and worst_test <= 0.05,
           f"max |dr| train {worst_train:.4f}, test {worst_test:.4f} over 20 seeds")


def test_criterion_8_lime_sanity():
    rng = np.random.default_rng(1008)
    ranking_ok = True
    for trial in range(20):
        d = int(rng.integers(4, 9))
        # separate the |coef * std| products (the quantity the ranking is on),
        # then back out coefficients for the drawn stds
        products = rng.permutation(1.2 * 1.6 ** -np.arange(d))
        stds = rng.uniform(0.5, 2.0, size=d)
        coefs = products / stds * rng.choice([-1.0, 1.0], size=d)
        intercept = float(rng.uniform(-0.4, 0.4))

        def model(x, c=coefs, b=intercept):
            z = np.atleast_2d(x) @ c + b
            p = 1.0 / (1.0 + np.exp(-z))
            return np.column_stack([1.0 - p, p])

        stats = explain.FeatureStats(tuple(f"f{i}" for i in range(d)), stds)
        exp = explain.lime_explain(model, np.zeros(d), stats, n_samples=1000, seed=trial)
        surrogate_top3 = [name for name, _v, _i in exp.contributions[:3]]
        analytic = np.abs(coefs * stds)
        analytic_top3 = [f"f{i}" for i in np.argsort(-analytic)[:3]]
        if surrogate_top3 != analytic_top3:
            ranking_ok = False
            break

    def constant(x):
        x = np.atleast_2d(x)
        return np.full((x.shape[0], 2), 0.5)

    stats = explain.FeatureStats(("a", "b", "c"), np.ones(3))
    flat = explain.lime_explain(constant, np.zeros(3), stats, n_samples=1000, seed=99)
    constant_ok = all(abs(i) < 1e-3 for _n, _v, i in flat.contributions)
    _check(8, "surrogate importance ranking on linear-logistic models",
           ranking_ok and constant_ok, f"ranking ok: {ranking_ok}, constant flat: {constant_ok}")


def test_criterion_9_metrics_counting_oracle():
    from tests.test_evalharness import brute_force_metrics

    rng = np.random.default_rng(1009)
    classes = ("Low", "High")
    exact = True
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        truth = [classes[i] for i in rng.integers(0, 2, n)]
        preds = [classes[i] for i in rng.integers(0, 2, n)]
        m = evalharness.compute_metrics(preds, truth, classes)
        acc, recall, precision = brute_force_metrics(preds, truth, classes)
        if m.accuracy != acc or m.recall != recall or m.precision != precision:
            exact = False
            break
    _check(9, "metrics equal brute-force counting oracle", exact, "1000 random vectors")


def test_criterion_10_end_to_end_determinism(tmp_path):
    rules_file = tmp_path / "ct.rules"
    rules_file.write_text(
        "Final_score :- CT_concepts, CT_skills.\n"
        "CT_concepts :- Conditional, Loop.\n"
        "CT_skills :- Debug, Simulation, Function.\n"
    )
    data_dir = tmp_path / "data"
    assert cli_main(["synth", "--rows", "160", "--test-rows", "48", "--seed", "11", "--out", str(data_dir)]) == 0

    digests = []
    for run in ("a", "b"):
        out = tmp_path / run
        code = cli_main([
            "compare", "--train", str(data_dir / "train.csv"), "--test", str(data_dir / "test.csv"),
            "--rules", str(rules_file), "--seed", "11", "--cv-folds", "5", "--out", str(out),
        ])
        assert code == 0
        digests.append({
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())
        })
    _check(10, "compare is byte-identical under a fixed master seed",
           digests[0] == digests[1], f"{len(digests[0])} files compared")
