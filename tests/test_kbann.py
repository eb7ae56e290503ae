import itertools
from dataclasses import replace

import numpy as np
import pytest

from hornnet.datakit import DataError, Dataset, SynthConfig, feature_bounds, generate_synthetic
from hornnet.evalharness import build_baseline
from hornnet.kbann import (
    CompileConfig,
    CompileError,
    compile_rules,
    extract_rules,
    format_extracted_rules,
    permutation_importance,
    unit_symbol,
    verify_compiled_logic,
    _group_weights,
)
from hornnet.rulelang import HornClause, Literal, RuleSet, format_rules, parse_rules, random_ruleset, rewrite_disjuncts
from hornnet.tensornet import Layer, Network, TrainConfig, _sigmoid, forward, load_network, predict_labels, save_network, train

EXACT = CompileConfig(omega=4.0, perturb_scale=0.0, extra_hidden_per_level=0)


def rule_links(net):
    """Per layer, a boolean (out, in) matrix of the links `net.rules` defines,
    rebuilt from the rules and the unit labels: a rule unit links to the units
    below that stand for its antecedents, a pass-through copy to its symbol's
    unit below, each output unit to the root, and an extra unit to nothing."""
    rules = rewrite_disjuncts(net.rules)
    root = next(iter(rules.roots))
    antecedents = {head: {lit.symbol for c in cs for lit in c.body} for head, cs in rules.clauses_by_head.items()}
    links, sources = [], net.input_names
    for li, labels in enumerate(net.unit_labels):
        below = [unit_symbol(label) for label in sources]
        mask = np.zeros((len(labels), len(sources)), dtype=bool)
        for u, label in enumerate(labels):
            if li == len(net.layers) - 1:
                wanted = {root}
            elif unit_symbol(label) != label:
                wanted = {unit_symbol(label)}
            else:
                wanted = antecedents.get(label, set())
            mask[u] = [symbol in wanted for symbol in below]
        links.append(mask)
        sources = labels
    return links


def unit_row(net, level, label):
    idx = net.unit_labels[level - 1].index(label)
    layer = net.layers[level - 1]
    return layer.weights[idx], layer.biases[idx], rule_links(net)[level - 1][idx]


class TestCompileExact:
    def test_conjunction_weights_and_bias(self):
        rules = parse_rules("C :- A, B.")
        net = compile_rules(rules, ["A", "B"], ["Low", "High"], EXACT)
        weights, bias, mask = unit_row(net, 1, "C")
        assert np.array_equal(weights, [4.0, 4.0])
        assert bias == -6.0
        assert mask.all()
        # sigmoid fires only when both antecedents are on
        for a, b in itertools.product([0.0, 1.0], repeat=2):
            act = forward(net, np.array([a, b]))[0][0]
            assert (act > 0.88) == (a == b == 1.0)

    def test_negated_literal_weights_and_bias(self):
        rules = parse_rules("C :- A, not B.")
        net = compile_rules(rules, ["A", "B"], ["Low", "High"], EXACT)
        weights, bias, _ = unit_row(net, 1, "C")
        assert np.array_equal(weights, [4.0, -4.0])
        assert bias == -2.0
        for a, b in itertools.product([0.0, 1.0], repeat=2):
            act = forward(net, np.array([a, b]))[0][0]
            assert (act > 0.88) == (a == 1.0 and b == 0.0)

    def test_ct_structure(self, ct_rules, game_features):
        net = compile_rules(ct_rules, game_features, ["Low", "High"], CompileConfig(seed=0))
        assert net.unit_labels[0] == ["CT_concepts", "CT_skills", "head1", "head2", "head3"]
        assert net.unit_labels[1] == ["Final_score", "head4", "head5", "head6"]
        assert net.unit_labels[2] == ["Low", "High"]
        assert [l.activation for l in net.layers] == ["sigmoid", "sigmoid", "softmax"]

        w, _, mask = unit_row(net, 1, "CT_concepts")
        on = {game_features[i] for i in np.flatnonzero(mask)}
        assert on == {"Conditional", "Loop"}
        assert all(w[i] > 0 for i in np.flatnonzero(mask))

        w, _, mask = unit_row(net, 1, "CT_skills")
        assert {game_features[i] for i in np.flatnonzero(mask)} == {"Debug", "Simulation", "Function"}

        w, _, mask = unit_row(net, 2, "Final_score")
        sources = {net.unit_labels[0][i] for i in np.flatnonzero(mask)}
        assert sources == {"CT_concepts", "CT_skills"}

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("omega", 0.0, "omega must be > 0"),
            ("perturb_scale", -0.1, "perturb_scale must be >= 0"),
            ("extra_hidden_per_level", -1, "extra_hidden_per_level must be >= 0"),
        ],
    )
    def test_bad_config_rejected(self, field, value, message):
        with pytest.raises(CompileError, match=f"^{message}$"):
            CompileConfig(**{field: value})

    def test_two_classes_required(self):
        with pytest.raises(CompileError, match=r"^exactly two classes are required \(negative, positive\)$"):
            compile_rules(parse_rules("C :- A."), ["A"], ["Low", "Mid", "High"])

    def test_unknown_rule_input_rejected(self, ct_rules):
        with pytest.raises(CompileError, match="missing from feature_names"):
            compile_rules(ct_rules, ["Conditional", "Loop"], ["Low", "High"])

    def test_multiple_roots_rejected(self):
        rules = parse_rules("A :- X.\nB :- Y.")
        with pytest.raises(CompileError, match="root"):
            compile_rules(rules, ["X", "Y"], ["Low", "High"])

    def test_parsed_rules_compile_as_rewritten(self):
        # compile_rules runs rewrite_disjuncts itself, so a parsed rule set with
        # multi-clause heads gives the bytes of its rewrite
        rng = np.random.default_rng(14)
        multi = 0
        for trial in range(40):
            rules = random_ruleset(rng, negation_prob=0.3, multi_clause_prob=0.4)
            multi += any(len(cs) > 1 for cs in rules.clauses_by_head.values())
            features = sorted(rules.inputs) + ["unused"]
            config = CompileConfig(seed=trial)
            nets = [compile_rules(r, features, ["Low", "High"], config) for r in (rules, rewrite_disjuncts(rules))]
            assert nets[0].unit_labels == nets[1].unit_labels
            for a, b in zip(nets[0].layers, nets[1].layers):
                for name in ("weights", "biases"):
                    assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
            assert nets[0].rules is rules and nets[1].rules == rewrite_disjuncts(rules)
            for a, b in zip(rule_links(nets[0]), rule_links(nets[1])):
                assert a.tobytes() == b.tobytes()
        assert multi >= 10

    def test_clause_copy_of_a_rewrite_is_the_rewrite(self):
        # a head's OR-ness is read from its clauses, so a rule set rebuilt
        # from a rewrite's clauses equals it, rewrites to itself and compiles
        # to the same net
        rng = np.random.default_rng(25)
        multi = 0
        for trial in range(30):
            rewritten = rewrite_disjuncts(random_ruleset(rng, negation_prob=0.3, multi_clause_prob=0.5))
            copy = RuleSet(rewritten.clauses)
            multi += any(len(cs) > 1 for cs in copy.clauses_by_head.values())
            assert copy == rewritten
            assert rewrite_disjuncts(copy) == copy
            config = CompileConfig(seed=trial)
            nets = [compile_rules(r, sorted(r.inputs), ["Low", "High"], config) for r in (rewritten, copy)]
            assert nets[0].unit_labels == nets[1].unit_labels
            for a, b in zip(nets[0].layers, nets[1].layers):
                for name in ("weights", "biases"):
                    assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert multi >= 10

    def test_output_pair_closed_form(self):
        # Low is a negated and High a plain calibrated copy of the root C:
        # weights -+omega/gap and biases +-(omega/2 + w * f_hi), where the raw
        # conjunction's bands are sigmoid(+-omega/2)
        omega = EXACT.omega
        net = compile_rules(parse_rules("C :- A, B."), ["A", "B"], ["Low", "High"], EXACT)
        t_lo, f_hi = _sigmoid(np.array([omega / 2, -omega / 2]))
        w = omega / (t_lo - f_hi)
        out = net.layers[-1]
        assert out.activation == "softmax" and net.unit_labels[-1] == ["Low", "High"]
        assert out.weights.tolist() == [[-w], [w]]
        assert out.biases.tolist() == [omega / 2 + w * f_hi, -omega / 2 - w * f_hi]
        assert rule_links(net)[-1].all()

    def test_band_error_names_first_placed_unit(self):
        # At omega 1 both Left (level 3) and Right (level 2) lack separation.
        # Bands are checked as units are placed, heads in topological order
        # with ties in file order, so the error names whichever comes first.
        either = "Either :- x1, x3.\nEither :- x4.\nLeft :- Either, x5.\n"
        right = "Right :- x0.\nRight :- x0, not x3, x4.\n"
        config = CompileConfig(omega=1.0, perturb_scale=0.0, extra_hidden_per_level=0)
        for text, named in ((either + right, "Left"), (right + either, "Right")):
            rules = parse_rules(text + "Top :- Left, Right.\n")
            with pytest.raises(CompileError, match=f"^unit '{named}' has no separation .* at omega=1.0; increase omega$"):
                compile_rules(rules, sorted(rules.inputs), ["Low", "High"], config)


class TestCompileProperties:
    def test_perturbation_bounds(self, ct_rules, game_features):
        s = 0.01
        clean = compile_rules(ct_rules, game_features, ["Low", "High"], CompileConfig(perturb_scale=0.0, seed=1))
        noisy = compile_rules(ct_rules, game_features, ["Low", "High"], CompileConfig(perturb_scale=s, seed=1))
        for lc, ln in zip(clean.layers, noisy.layers):
            knowledge = lc.weights != 0
            # knowledge links stay within s of their nominal (calibrated) value
            assert np.all(np.abs(ln.weights[knowledge] - lc.weights[knowledge]) <= s)
            assert np.all(np.abs(lc.weights[knowledge]) >= 4.0)  # at least omega-strength links
            assert np.all(np.abs(ln.weights[~knowledge]) <= 2 * s)

    def test_knowledge_links_span_adjacent_levels_only(self, ct_rules, game_features):
        net = compile_rules(ct_rules, game_features, ["Low", "High"], CompileConfig(seed=2))
        # by construction each layer's links only reference the layer below;
        # check links are where rules demand and nowhere else
        total_links = sum(mask.sum() for mask in rule_links(net))
        # 2 + 3 (level 1) + 2 (Final_score) + 2 (output pair)
        assert total_links == 9

    def test_rule_set_survives_the_model_file_and_gives_the_links(self, ct_rules, game_features, tmp_path):
        # the links rebuilt from a net's rule set and unit labels are exactly
        # the nonzero weights of a perturbation-free compile
        rng = np.random.default_rng(13)
        cases = [(ct_rules, game_features)]
        cases += [(rules, sorted(rules.inputs) + ["unused"]) for rules in (random_ruleset(rng, negation_prob=0.3, multi_clause_prob=0.3) for _ in range(50))]
        for trial, (rules, features) in enumerate(cases):
            net = compile_rules(rules, features, ["Low", "High"], CompileConfig(perturb_scale=0.0, seed=trial))
            save_network(net, tmp_path / "model.npz")
            loaded = load_network(tmp_path / "model.npz")
            assert net.rules is rules and format_rules(loaded.rules) == format_rules(rules)
            for layer, links in zip(net.layers, rule_links(loaded)):
                assert np.array_equal(layer.weights != 0, links)

    def test_same_seed_identical(self, ct_rules, game_features):
        a = compile_rules(ct_rules, game_features, ["Low", "High"], CompileConfig(seed=5))
        b = compile_rules(ct_rules, game_features, ["Low", "High"], CompileConfig(seed=5))
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights, lb.weights)

    def test_passthrough_for_mixed_level_antecedents(self):
        rules = parse_rules("Top :- Mid, Raw.\nMid :- A, B.")
        net = compile_rules(rules, ["A", "B", "Raw"], ["Low", "High"], CompileConfig(perturb_scale=0.0, extra_hidden_per_level=0))
        assert "Raw__via1" in net.unit_labels[0]
        assert unit_symbol("Raw__via1") == "Raw"
        assert verify_compiled_logic(net, rules)


class TestVerify:
    def test_ct_rules_at_omega_four(self, ct_rules, game_features):
        net = compile_rules(ct_rules, game_features, ["Low", "High"], CompileConfig(omega=4.0, perturb_scale=0.0))
        assert verify_compiled_logic(net, ct_rules)

    def test_broken_knowledge_weight_detected(self, ct_rules, game_features):
        net = compile_rules(ct_rules, game_features, ["Low", "High"], CompileConfig(omega=4.0, perturb_scale=0.0))
        idx = net.unit_labels[0].index("CT_concepts")
        col = list(game_features).index("Conditional")
        net.layers[0].weights[idx, col] = 0.0
        assert not verify_compiled_logic(net, ct_rules)

    def test_empty_rules_vacuously_true(self, ct_rules, game_features):
        net = compile_rules(ct_rules, game_features, ["Low", "High"], CompileConfig(perturb_scale=0.0))
        assert verify_compiled_logic(net, RuleSet([]))

    def test_random_rulesets_verify_at_defaults(self):
        rng = np.random.default_rng(2024)
        for trial in range(30):
            rules = rewrite_disjuncts(random_ruleset(rng, negation_prob=0.25, multi_clause_prob=0.3))
            net = compile_rules(rules, sorted(rules.inputs), ["Low", "High"], CompileConfig(perturb_scale=0.0, seed=trial))
            assert verify_compiled_logic(net, rules)

    def test_too_many_inputs_rejected(self):
        rules = parse_rules("G :- " + ", ".join(f"x{i}" for i in range(13)) + ".")
        net = compile_rules(rules, [f"x{i}" for i in range(13)], ["Low", "High"], CompileConfig(perturb_scale=0.0))
        with pytest.raises(CompileError, match="12"):
            verify_compiled_logic(net, rules)


class TestExtraction:
    def test_grouping_pinned_example(self):
        terms = _group_weights(np.array([2.0, 2.01, -0.4]), ["u1", "u2", "u3"], 0.1)
        assert terms == [(pytest.approx(2.005), ["u1", "u2"]), (-0.4, ["u3"])]

    def test_single_weight_trivial_rule(self):
        layer = Layer(np.array([[0.9]]), np.array([-1.3]), "sigmoid")
        inner = Layer(np.array([[1.0]]), np.array([0.0]), "sigmoid")
        net = Network([inner, layer], [["h"], ["u"]], ["x"], rules=parse_rules("u :- h.\nh :- x."))
        data = Dataset(("x",), np.array([[0.2], [0.8]]), np.array(["Low", "High"], object))
        extracted = extract_rules(net, data)
        rule = next(r for r in extracted.rules if r.head == "u")
        assert rule.terms == [(0.9, ["h"])]
        assert rule.threshold == 1.3

    def test_compiled_ct_rules_restate_knowledge(self, ct_rules, game_features, toy_dataset):
        config = CompileConfig(perturb_scale=0.0, seed=0)
        net = compile_rules(ct_rules, game_features, ["Low", "High"], config)
        data = Dataset(
            game_features,
            np.random.default_rng(0).uniform(0, 1, (30, 9)),
            np.array(["High"] * 15 + ["Low"] * 15, dtype=object),
        )
        extracted = extract_rules(net, data)
        final = next(r for r in extracted.rules if r.head == "Final_score")
        dominant = final.terms[0]
        assert set(dominant[1]) == {"CT_concepts", "CT_skills"}
        assert dominant[0] == pytest.approx(config.omega, rel=0.05)
        assert final.threshold == pytest.approx(1.5 * config.omega, rel=0.05)

    def test_every_feature_appears(self, ct_rules, game_features):
        net = compile_rules(ct_rules, game_features, ["Low", "High"], CompileConfig(seed=4))
        data = Dataset(
            game_features,
            np.random.default_rng(1).uniform(0, 1, (20, 9)),
            np.array(["High", "Low"] * 10, dtype=object),
        )
        extracted = extract_rules(net, data)
        mentioned = {a for r in extracted.rules for _, members in r.terms for a in members}
        assert set(game_features) <= mentioned

    def test_rule_count_covers_all_non_input_units(self, ct_rules, game_features):
        net = compile_rules(ct_rules, game_features, ["Low", "High"], CompileConfig(seed=4))
        data = Dataset(
            game_features,
            np.random.default_rng(1).uniform(0, 1, (10, 9)),
            np.array(["High", "Low"] * 5, dtype=object),
        )
        extracted = extract_rules(net, data)
        assert len(extracted.rules) == sum(l.out_units for l in net.layers)

    def test_format_shape(self, ct_rules, game_features):
        net = compile_rules(ct_rules, game_features, ["Low", "High"], CompileConfig(seed=4))
        data = Dataset(
            game_features,
            np.random.default_rng(1).uniform(0, 1, (10, 9)),
            np.array(["High", "Low"] * 5, dtype=object),
        )
        text = format_extracted_rules(extract_rules(net, data))
        first = text.splitlines()[0]
        assert first.startswith("CT_concepts: ")
        assert " * (" in first and " + " in first

    def test_plain_network_rejected(self, toy_dataset):
        from hornnet.tensornet import build_mlp

        net = build_mlp(3, [4], 2, seed=0, class_names=["Low", "High"])
        with pytest.raises(ValueError, match="explain"):
            extract_rules(net, toy_dataset)

    def test_empty_dataset_rejected(self, ct_rules, game_features):
        net = compile_rules(ct_rules, game_features, ["Low", "High"], CompileConfig(seed=4))
        empty = Dataset(game_features, np.zeros((0, 9)), np.array([], dtype=object))
        with pytest.raises(ValueError, match="empty"):
            extract_rules(net, empty)

    def test_negative_group_tolerance_rejected(self, ct_rules, game_features, toy_dataset):
        net = compile_rules(ct_rules, game_features, ["Low", "High"], CompileConfig(seed=4))
        with pytest.raises(ValueError, match="^group_tolerance must be >= 0$"):
            extract_rules(net, toy_dataset, group_tolerance=-0.1)


def loop_replay_classes(net, extracted, rows):
    """Reference replay: every unit sums its terms' weighted member columns,
    one unit and one term at a time."""
    values = rows
    rule_iter = iter(extracted.rules)
    for li, layer in enumerate(net.layers):
        sources = net.input_names if li == 0 else net.unit_labels[li - 1]
        source_pos = {name: i for i, name in enumerate(sources)}
        margins = np.zeros((values.shape[0], layer.out_units))
        for u in range(layer.out_units):
            rule = next(rule_iter)
            pre = np.zeros(values.shape[0])
            for weight, members in rule.terms:
                pre += weight * values[:, [source_pos[m] for m in members]].sum(axis=1)
            margins[:, u] = pre - rule.threshold
        values = (margins > 0).astype(np.float64)
    return np.array([net.output_names[i] for i in margins.argmax(axis=1)], dtype=object)


def random_knowledge_net(seed, widths=(9, 6, 4)):
    """Sigmoid layers over an antisymmetric two-class softmax head. Weights
    sit near a few shared levels, so they form multi-member groups, and
    biases centre each unit on inputs around 0.5."""
    rng = np.random.default_rng(seed)
    layers = []
    for n_in, n_out in zip(widths, widths[1:]):
        weights = rng.choice([-3.0, -1.0, 1.0, 3.0], (n_out, n_in)) + rng.normal(0, 0.05, (n_out, n_in))
        biases = -0.5 * weights.sum(axis=1) + rng.normal(0, 0.3, n_out)
        layers.append(Layer(weights, biases, "sigmoid"))
    head = rng.choice([-2.0, 2.0], widths[-1]) + rng.normal(0, 0.05, widths[-1])
    head_bias = -0.5 * head.sum()
    layers.append(Layer(np.vstack([-head, head]), [-head_bias, head_bias], "softmax"))
    inputs = [f"x{j}" for j in range(widths[0])]
    labels = [[f"h{i}_{j}" for j in range(n)] for i, n in enumerate(widths[1:])] + [["Low", "High"]]
    # every sigmoid unit is a rule over all the units below it
    clauses = [
        HornClause(head, tuple(map(Literal, sources)))
        for sources, heads in zip([inputs] + labels, labels[:-1])
        for head in heads
    ]
    return Network(layers, labels, inputs, rules=RuleSet(clauses))


class TestMatmulReplay:
    @pytest.mark.parametrize("tolerance", [0.1, 0.5])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_unit_by_term_loop(self, seed, tolerance):
        net = random_knowledge_net(seed)
        names = tuple(net.input_names)
        rows = np.random.default_rng(seed).uniform(0, 1, (60, len(names)))
        data = Dataset(names, rows, np.array(["High", "Low"] * 30, dtype=object))
        extracted = extract_rules(net, data, group_tolerance=tolerance)
        assert any(len(members) > 1 for r in extracted.rules for _, members in r.terms)

        agree = loop_replay_classes(net, extracted, rows) == predict_labels(net, rows)
        assert 0.0 < agree.mean() < 1.0  # the rules and the net disagree on some rows
        assert extracted.fidelity == float(agree.mean())
        for i in range(len(rows)):  # a one-row fidelity is that row's agreement
            row = Dataset(names, rows[i : i + 1], data.labels[i : i + 1])
            assert extract_rules(net, row, group_tolerance=tolerance).fidelity == float(agree[i])


class TestPermutationImportance:
    def indicator_net(self, inputs=("f",)):
        # pure threshold on the first feature: High iff x > 0.5; any others are ignored
        weights = np.zeros((1, len(inputs)))
        weights[0, 0] = 40.0
        hidden = Layer(weights, np.array([-20.0]), "sigmoid")
        out = Layer(np.array([[-8.0], [8.0]]), np.array([4.0, -4.0]), "softmax")
        rules = parse_rules(f"ind :- {inputs[0]}.")
        return Network([hidden, out], [["ind"], ["Low", "High"]], list(inputs), rules=rules)

    def test_unused_feature_importance_zero(self):
        net = self.indicator_net(("f", "g"))
        rng = np.random.default_rng(0)
        rows = np.column_stack([rng.uniform(0, 1, 40), rng.uniform(0, 1, 40)])
        labels = np.where(rows[:, 0] > 0.5, "High", "Low").astype(object)
        data = Dataset(("f", "g"), rows, labels)
        assert permutation_importance(net, data, "g", repeats=5, seed=1) == 0.0

    def test_indicator_importance_near_half(self):
        net = self.indicator_net()
        rng = np.random.default_rng(3)
        rows = rng.uniform(0, 1, (400, 1))
        labels = np.where(rows[:, 0] > 0.5, "High", "Low").astype(object)
        data = Dataset(("f",), rows, labels)
        imp = permutation_importance(net, data, "f", repeats=20, seed=2)
        # baseline accuracy 1.0; a shuffled uniform column agrees with a
        # balanced threshold label half the time
        assert imp == pytest.approx(0.5, abs=0.05)

    def test_deterministic(self, toy_dataset):
        net = self.indicator_net(("signal", "n1", "n2"))
        a = permutation_importance(net, toy_dataset, "signal", repeats=5, seed=7)
        b = permutation_importance(net, toy_dataset, "signal", repeats=5, seed=7)
        assert a == b

    def test_unknown_feature(self, toy_dataset):
        with pytest.raises(ValueError, match="unknown feature"):
            permutation_importance(self.indicator_net(), toy_dataset, "nope")

    def test_repeats_must_be_positive(self, toy_dataset):
        with pytest.raises(ValueError, match="^repeats must be >= 1$"):
            permutation_importance(self.indicator_net(), toy_dataset, "f", repeats=0)


class TestTrainedPipeline:
    def test_compile_train_verify_fidelity(self, ct_rules, game_features):
        from hornnet.datakit import SynthConfig, feature_bounds, generate_synthetic

        data, _ = generate_synthetic(SynthConfig(seed=0))
        net = compile_rules(ct_rules, data.feature_names, ["Low", "High"], CompileConfig(seed=0))
        trained, _ = train(replace(net, input_bounds=feature_bounds(data)), data, TrainConfig(seed=0))
        extracted = extract_rules(trained, data)
        assert extracted.fidelity >= 0.9


def reversed_columns(data):
    return replace(data, feature_names=data.feature_names[::-1], rows=data.rows[:, ::-1])


class TestColumnsByName:
    """Training, extraction and permutation importance read a dataset's columns by name."""

    def nets(self, ct_rules, train_data):
        compiled = compile_rules(ct_rules, train_data.feature_names, ["Low", "High"], CompileConfig(seed=3))
        bounds = feature_bounds(train_data)
        return [replace(net, input_bounds=bounds) for net in (build_baseline(train_data, 3), compiled)]

    def test_reversed_columns_give_the_same_results(self, ct_rules):
        train_data, test_data = generate_synthetic(SynthConfig(seed=3))
        baseline, nsai = (train(net, train_data, TrainConfig(seed=3))[0] for net in self.nets(ct_rules, train_data))
        importance = permutation_importance(baseline, test_data, "Small_cheese", seed=1)
        assert importance > 0
        assert permutation_importance(baseline, reversed_columns(test_data), "Small_cheese", seed=1) == importance
        assert extract_rules(nsai, reversed_columns(train_data)) == extract_rules(nsai, train_data)

    def test_reversed_columns_train_the_same_bytes(self, ct_rules):
        train_data, test_data = generate_synthetic(SynthConfig(seed=3))
        for net in self.nets(ct_rules, train_data):
            model, report = train(net, train_data, TrainConfig(seed=3))
            flipped, flipped_report = train(net, reversed_columns(train_data), TrainConfig(seed=3))
            assert [(l.weights.tobytes(), l.biases.tobytes()) for l in flipped.layers] == [
                (l.weights.tobytes(), l.biases.tobytes()) for l in model.layers
            ]
            assert flipped_report == report
            # read by position, the reversed columns trained the baseline to a test accuracy of 0.494
            assert (predict_labels(flipped, test_data.rows) == test_data.labels).mean() > 0.9

    def test_renamed_column_named_in_training(self, ct_rules):
        # read by position, this train set trained the baseline to a test accuracy of 0.494
        train_data, _ = generate_synthetic(SynthConfig(seed=3))
        flipped = reversed_columns(train_data)
        renamed = replace(flipped, feature_names=tuple(name.replace("Hitting_wall", "Wall") for name in flipped.feature_names))
        for net in self.nets(ct_rules, train_data):
            with pytest.raises(DataError, match=r"^data: missing feature column\(s\) the model needs: Hitting_wall$"):
                train(net, renamed, TrainConfig(seed=3))

    def test_missing_column_named(self, ct_rules):
        train_data, test_data = generate_synthetic(SynthConfig(seed=3))
        baseline, nsai = self.nets(ct_rules, train_data)
        keep = [i for i, name in enumerate(train_data.feature_names) if name != "Loop"]

        def without_loop(data):
            return replace(data, feature_names=tuple(data.feature_names[i] for i in keep), rows=data.rows[:, keep])

        with pytest.raises(DataError, match=r"^data: missing feature column\(s\) the model needs: Loop$"):
            permutation_importance(baseline, without_loop(test_data), "Small_cheese")
        with pytest.raises(DataError, match=r"^train_data: missing feature column\(s\) the model needs: Loop$"):
            extract_rules(nsai, without_loop(train_data))
