import copy
import json
import tracemalloc
import zipfile
from dataclasses import replace

import numpy as np
import pytest

from hornnet import tensornet
from hornnet.datakit import CLASSES, Dataset, SynthConfig, feature_bounds, generate_synthetic, scale, subset
from hornnet.kbann import CompileConfig, compile_rules
from hornnet.rulelang import format_rules, parse_rules, random_ruleset, rewrite_disjuncts
from hornnet.tensornet import (
    Layer,
    Network,
    TrainConfig,
    TrainingError,
    build_mlp,
    build_network,
    forward,
    load_network,
    numerical_gradient_check,
    predict_labels,
    predict_proba,
    predictor,
    save_network,
    train,
    train_stack,
    validation_split,
)


def single_unit_net(weight, bias, activation):
    layer = Layer(np.array([[weight]]), np.array([bias]), activation)
    return Network([layer], [["u"]], ["x"])


class TestBuild:
    def test_baseline_shape(self):
        net = build_mlp(9, [50, 50], 2, seed=0)
        shapes = [(l.out_units, l.in_units, l.activation) for l in net.layers]
        assert shapes == [(50, 9, "relu"), (50, 50, "relu"), (2, 50, "softmax")]
        assert net.rules is None

    def test_single_class_softmax_rejected(self):
        with pytest.raises(ValueError, match="output_dim >= 2"):
            build_mlp(1, [], 1, seed=0)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError, match="^input_dim must be >= 1$"):
            build_mlp(0, [4], 2, seed=0)

    def test_zero_width_hidden_layer_rejected(self):
        with pytest.raises(ValueError, match="^layer widths must be >= 1$"):
            build_mlp(3, [4, 0], 2, seed=0)

    def test_same_seed_identical(self):
        a = build_mlp(5, [7], 2, seed=123)
        b = build_mlp(5, [7], 2, seed=123)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.biases, lb.biases)

    def test_init_bounded_by_fan_in(self):
        net = build_network(10, [(20, "relu")], seed=4)
        limit = np.sqrt(6.0 / 30)
        assert np.abs(net.layers[0].weights).max() <= limit

    def test_incompatible_layers_rejected(self):
        layers = [
            Layer(np.zeros((3, 2)), np.zeros(3), "relu"),
            Layer(np.zeros((2, 4)), np.zeros(2), "softmax"),
        ]
        with pytest.raises(ValueError, match="incompatible"):
            Network(layers, [["a"] * 3, ["b"] * 2], ["x", "y"])


class TestForward:
    def test_zero_weight_softmax_symmetry(self):
        layer = Layer(np.zeros((2, 3)), np.zeros(2), "softmax")
        net = Network([layer], [["a", "b"]], ["x", "y", "z"])
        out = forward(net, np.array([1.0, 2.0, 3.0]))[-1]
        assert np.allclose(out, [0.5, 0.5])

    def test_sigmoid_closed_form(self):
        net = single_unit_net(4.0, -2.0, "sigmoid")
        out = forward(net, np.array([1.0]))[-1]
        assert abs(out[0] - 0.8807970779778823) < 1e-12

    def test_sigmoid_equals_the_masked_formula(self):
        # the masked form each sign's branch of `_sigmoid` stands for, bit for bit
        def masked(z):
            out = np.empty_like(z)
            pos = z >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
            ez = np.exp(z[~pos])
            out[~pos] = ez / (1.0 + ez)
            return out

        edges = [0.0, 1e-320, 5e-324, 1e-300, 0.5, 1.0, 36.8, 37.0, 709.8, 745.1, 745.2, 746.0, 1e308, np.inf]
        edges = np.array(edges + [-v for v in edges])
        z = np.vstack([edges.reshape(-1, 4), np.random.default_rng(0).normal(0, 20, (2500, 4))])
        want = masked(z).tobytes()
        assert tensornet._sigmoid(z).tobytes() == want
        assert tensornet._sigmoid(z, out=z) is z and z.tobytes() == want

    def test_relu_clamps(self):
        layer = Layer(np.eye(2), np.array([-1.0, 3.0]), "relu")
        net = Network([layer], [["a", "b"]], ["x", "y"])
        out = forward(net, np.array([0.0, 0.0]))[-1]
        assert np.array_equal(out, [0.0, 3.0])

    def test_softmax_normalized(self):
        rng = np.random.default_rng(0)
        net = build_mlp(4, [6], 3, seed=2)
        out = forward(net, rng.normal(size=(50, 4)))[-1]
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)
        assert np.all((out > 0) & (out < 1))

    def test_dimension_mismatch(self):
        net = build_mlp(4, [6], 2, seed=2)
        with pytest.raises(ValueError, match="input"):
            forward(net, np.zeros(5))

    def test_decode_of_encode_is_the_forward_pass(self):
        # layer k's input fed to the layers from k on gives the rest of the pass,
        # as the autoencoder balancer decodes the latent codes it encoded
        specs = [(3, "relu"), (2, "relu"), (3, "relu"), (4, "linear")]
        net = build_network(4, specs, seed=14)
        x = np.random.default_rng(14).uniform(0, 1, (40, 4))
        acts = forward(net, x)
        for k in range(1, len(specs)):
            _, rest = tensornet._forward_full(net.layers[k:], acts[k - 1])
            assert [a.tobytes() for a in rest] == [a.tobytes() for a in acts[k:]]


    @pytest.mark.parametrize("stacked", [False, True])
    def test_loss_from_the_softmax_terms_is_bit_equal(self, stacked):
        net = build_mlp(4, [6], 3, seed=5)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 50, 4) if stacked else (50, 4))
        targets = np.eye(3)[rng.integers(3, size=x.shape[:-1])]
        layers = net.layers
        if stacked:  # two members with the same weights
            layers = [tensornet._LayerView(np.stack([l.weights] * 2), np.stack([l.biases] * 2), l.activation) for l in layers]
        config = TrainConfig()
        terms = []
        zs, acts = tensornet._forward_full(layers, x, terms=terms)
        z = zs[-1]
        m = z.max(axis=-1, keepdims=True)
        s = np.exp(z - m).sum(axis=-1, keepdims=True)
        assert [t.tobytes() for t in terms] == [m.tobytes(), s.tobytes()]
        want = (-(targets * (z - (m + np.log(s)))).sum(axis=(-2, -1)) / z.shape[-2]).tobytes()
        assert np.asarray(tensornet._data_loss(zs, acts, targets, config, terms=terms)).tobytes() == want
        assert np.asarray(tensornet._data_loss(zs, acts, targets, config)).tobytes() == want

    def test_softmax_terms_come_from_the_final_layer_only(self):
        net = build_network(4, [(3, "softmax"), (2, "linear")], seed=6)
        terms = []
        tensornet._forward_full(net.layers, np.ones((5, 4)), terms=terms)
        assert terms == []


def stacked(nets) -> list[tensornet._LayerView]:
    """The layers of same-shape networks as one stack, as `train_stack` views them."""
    return [
        tensornet._LayerView(np.stack([l.weights for l in ls]), np.stack([l.biases for l in ls]), ls[0].activation)
        for ls in zip(*(net.layers for net in nets))
    ]


class TestFinalActivations:
    """The inference pass keeps one layer's result at a time and equals the
    last activations of the full pass bit for bit."""

    @staticmethod
    def assert_final_equals_full(layers, x):
        want = tensornet._forward_full(layers, x)[1][-1]
        got = tensornet._final_activations(layers, x)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", tensornet.ACTIVATIONS)
    def test_random_nets(self, kind):
        rng = np.random.default_rng(12)
        for trial in range(12):
            hidden = [(int(w), str(rng.choice(tensornet.ACTIVATIONS))) for w in rng.integers(1, 12, size=rng.integers(0, 4))]
            specs = hidden + [(int(rng.integers(2, 5)), kind)]
            nets = [build_network(5, specs, seed=100 * trial + k) for k in range(3)]
            for net in nets:
                for layer in net.layers:
                    layer.biases[:] = rng.normal(scale=2.0, size=layer.out_units)
            # inputs wide enough to reach both branches of the sigmoid
            x = rng.normal(scale=10.0, size=(3, 40, 5))
            for net, rows in zip(nets, x):
                self.assert_final_equals_full(net.layers, rows)
            self.assert_final_equals_full(stacked(nets), x)

    def test_compiled_nets(self, ct_rules, game_features):
        rng = np.random.default_rng(13)
        rule_sets = [ct_rules] + [random_ruleset(rng, negation_prob=0.3, multi_clause_prob=0.35) for _ in range(10)]
        for trial, rules in enumerate(rule_sets):
            features = list(game_features) if trial == 0 else sorted(rules.inputs) + ["unused"]
            nets = [compile_rules(rules, features, CLASSES, CompileConfig(seed=10 * trial + k)) for k in range(3)]
            x = rng.uniform(-0.5, 1.5, size=(3, 64, len(features)))
            for net, rows in zip(nets, x):
                self.assert_final_equals_full(net.layers, rows)
            self.assert_final_equals_full(stacked(nets), x)

    def test_predict_proba_holds_two_layers(self):
        # 20k rows of the 9-50-50-2 classifier: a 50-wide layer is 8 MB, and the
        # full pass would hold four of them
        net = build_mlp(9, [50, 50], 2, seed=3)
        x = np.random.default_rng(14).uniform(size=(20_000, 9))
        layer = x.shape[0] * 50 * 8
        tracemalloc.start()
        try:
            probs = predict_proba(net, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert probs.shape == (20_000, 2)
        assert peak < 2 * layer + 2 * x.nbytes  # two layers, the scaled input and the result

    def test_train_stack_validation_holds_two_layers_of_one_member(self, monkeypatch):
        data, _ = generate_synthetic(SynthConfig(n_rows=10_000, n_test=10, seed=5))
        real, peaks = tensornet._validation_score, []

        def traced(layers, x, targets, loss):
            tracemalloc.start()
            try:
                score = real(layers, x, targets, loss)
                peaks.append((x.shape[:-1], tracemalloc.get_traced_memory()[1]))
            finally:
                tracemalloc.stop()
            return score

        monkeypatch.setattr(tensornet, "_validation_score", traced)
        nets = [build_mlp(9, [50, 50], 2, seed=k, input_names=data.feature_names, class_names=CLASSES) for k in range(3)]
        train_stack(nets, data, [TrainConfig(seed=k, max_epochs=1) for k in range(3)])
        layer = 1000 * 50 * 8  # one member's 50-wide layer over its 1000 validation rows
        assert max(peak for _, peak in peaks) < 2.5 * layer  # two such layers and the scores' small arrays
        assert [shape for shape, _ in peaks] == [(1000,)] * 3  # each member alone


class TestInputBounds:
    BOUNDS = [(0.0, 10.0), (-2.0, 2.0), (5.0, 5.0)]

    def test_default_bounds_are_identity(self):
        net = build_mlp(3, [4], 2, seed=1)
        assert net.input_bounds.tolist() == [[0.0, 1.0]] * 3
        x = np.random.default_rng(1).normal(scale=5.0, size=(20, 3))
        _, acts = tensornet._forward_full(net.layers, x)
        assert predict_proba(net, x).tobytes() == acts[-1].tobytes()

    def test_raw_inputs_scaled_with_the_bounds(self):
        plain = build_mlp(3, [4], 2, seed=1)
        bounded = replace(plain, input_bounds=self.BOUNDS)
        x = np.random.default_rng(2).uniform(-5.0, 15.0, size=(20, 3))
        want = predict_proba(plain, scale(x, self.BOUNDS))
        assert predict_proba(bounded, x).tobytes() == want.tobytes()
        assert predict_proba(bounded, x[4]).tobytes() == want[4].tobytes()

    def test_train_scales_its_rows_once(self, toy_dataset):
        bounds = feature_bounds(toy_dataset)
        config = TrainConfig(seed=3, max_epochs=4, batch_size=8)
        net = build_mlp(3, [5], 2, seed=3, input_names=toy_dataset.feature_names, class_names=["Low", "High"])
        got, _ = train(replace(net, input_bounds=bounds), toy_dataset, config)
        want, _ = train(net, replace(toy_dataset, rows=scale(toy_dataset.rows, bounds)), config)
        for a, b in zip(got.layers, want.layers):
            assert a.weights.tobytes() == b.weights.tobytes()
        assert np.array_equal(got.input_bounds, bounds)

    @pytest.mark.parametrize(
        "bounds", [[(0.0, 1.0)] * 2, [(0.0, 1.0), (1.0, 0.0), (0.0, 1.0)], [(0.0, np.inf)] * 3]
    )
    def test_bad_bounds_rejected(self, bounds):
        with pytest.raises(ValueError, match="input_bounds"):
            replace(build_mlp(3, [4], 2, seed=1), input_bounds=bounds)

    def test_trained_nets_own_their_arrays(self, toy_dataset):
        # a trained net's layers view its own parameter row, and its bounds are its own
        net = build_mlp(3, [4], 2, seed=1, input_names=toy_dataset.feature_names, class_names=["Low", "High"])
        net = replace(net, input_bounds=self.BOUNDS)
        configs = [TrainConfig(seed=s, max_epochs=3) for s in (1, 2, 3)]
        trained = [train(net, toy_dataset, configs[0])[0]]
        trained += [model for model, _ in train_stack([net] * 3, toy_dataset, configs)]

        def arrays(n):
            return [n.input_bounds] + [a for layer in n.layers for a in (layer.weights, layer.biases)]

        for i, model in enumerate(trained):
            assert np.array_equal(model.input_bounds, net.input_bounds)
            for other in [net] + trained[i + 1 :]:
                assert not any(np.shares_memory(a, b) for a in arrays(model) for b in arrays(other))


class TestPredictor:
    def net(self, kind, ct_rules, game_features):
        if kind == "relu_softmax":
            return build_mlp(9, [50, 50], 2, seed=3)
        if kind == "bounded":
            bounds = [(float(-j), float(2 * j)) for j in range(9)]  # feature 0 is constant
            return replace(build_mlp(9, [50, 50], 2, seed=3), input_bounds=bounds)
        if kind == "sigmoid":
            return compile_rules(ct_rules, game_features, CLASSES, CompileConfig(seed=3))
        specs = [(4, "relu"), (2, "relu"), (4, "relu"), (9, "linear")]
        return build_network(9, specs, seed=3)

    @pytest.mark.parametrize("kind", ["relu_softmax", "sigmoid", "linear", "bounded"])
    def test_bit_equal_to_predict_proba(self, kind, ct_rules, game_features):
        net = self.net(kind, ct_rules, game_features)
        predict = predictor(net)
        rng = np.random.default_rng(8)
        for rows in (1000, 1, 427, 1000):
            x = rng.uniform(-1.0, 2.0, (rows, 9))
            got = predict(x)
            assert got.shape == (rows, net.output_dim)
            assert got.tobytes() == predict_proba(net, x).tobytes()
        row = rng.uniform(-1.0, 2.0, 9)
        got = predict(row)
        assert got.shape == (net.output_dim,)
        assert got.tobytes() == predict_proba(net, row).tobytes()

    def test_result_kept_across_calls(self):
        net = build_mlp(9, [50, 50], 2, seed=3)
        predict = predictor(net)
        rng = np.random.default_rng(9)
        x = rng.uniform(size=(1000, 9))
        first = predict(x)
        kept = first.copy()
        predict(rng.uniform(size=(1000, 9)))
        predict(rng.uniform(size=(3, 9)))
        assert first.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("kind", tensornet.ACTIVATIONS)
    def test_activate_into_out_equals_allocating(self, kind):
        z = np.random.default_rng(10).normal(scale=20.0, size=(64, 5))
        want = tensornet._activate(z, kind)
        buf = np.full_like(z, np.nan)
        got = tensornet._activate(z, kind, out=buf)
        assert got.tobytes() == want.tobytes()
        assert got is (z if kind == "linear" else buf)

    def test_repeated_calls_allocate_only_their_results(self):
        net = build_mlp(9, [50, 50], 2, seed=3)
        predict = predictor(net)
        x = np.random.default_rng(11).uniform(size=(1000, 9))
        predict(x)
        tracemalloc.start()
        try:
            results = [predict(x) for _ in range(20)]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one fresh 1000 x 50 activation alone is 400 KB
        assert peak < sum(r.nbytes for r in results) + 200_000


class TestTrain:
    def xor_data(self):
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        labels = np.array(["Low", "High", "High", "Low"], dtype=object)
        return Dataset(("a", "b"), x, labels)

    def test_xor_learned(self):
        data = self.xor_data()
        net = build_mlp(2, [8], 2, seed=3, input_names=data.feature_names, class_names=["Low", "High"])
        config = TrainConfig(seed=3, max_epochs=2000, l1=0.0, l2=0.0)
        trained, report = train(net, data, config)
        preds = predict_labels(trained, data.rows)
        assert np.array_equal(preds.astype(str), data.labels.astype(str))
        assert report.epochs_run <= 2000

    def test_zero_learning_rate_freezes_everything(self, toy_dataset):
        net = build_mlp(3, [5], 2, seed=1, input_names=toy_dataset.feature_names, class_names=["Low", "High"])
        before = [l.weights.copy() for l in net.layers]
        trained, report = train(net, toy_dataset, TrainConfig(seed=1, learning_rate=0.0, max_epochs=10))
        for w0, layer in zip(before, trained.layers):
            assert np.array_equal(w0, layer.weights)
        assert len(set(np.round(report.train_loss_history, 12))) == 1

    def test_early_stopping_on_worsening_validation(self):
        # same inputs everywhere; validation rows get the opposite target, so
        # fitting the training side strictly worsens the validation score
        n = 30
        x = np.ones((n, 1))
        train_idx, val_idx = validation_split(n, 0.1, seed=0)
        targets = np.zeros((n, 1))
        targets[train_idx] = 1.0
        targets[val_idx] = -1.0
        net = build_network(1, [(1, "linear")], seed=0, output_names=["y"])
        config = TrainConfig(
            seed=0, loss="mean_squared_error", patience=3, max_epochs=50, l1=0.0, l2=0.0
        )
        trained, report = train(net, (x, targets), config)
        assert report.stopped_early
        assert report.epochs_run <= 5
        assert report.best_epoch <= 2

    def test_best_epoch_weights_returned(self):
        n = 30
        x = np.ones((n, 1))
        train_idx, val_idx = validation_split(n, 0.1, seed=0)
        targets = np.zeros((n, 1))
        targets[train_idx] = 1.0
        targets[val_idx] = -1.0
        net = build_network(1, [(1, "linear")], seed=0, output_names=["y"])
        config = TrainConfig(seed=0, loss="mean_squared_error", patience=2, max_epochs=50, l1=0, l2=0)
        trained, report = train(net, (x, targets), config)
        # best epoch is epoch 1; weights must predict the epoch-1 state, which
        # is closer to the validation target than the final state
        final_pred = forward(trained, x[:1])[-1][0, 0]
        fresh, _ = train(net, (x, targets), TrainConfig(seed=0, loss="mean_squared_error", patience=1, max_epochs=1, l1=0, l2=0))
        assert abs(final_pred - forward(fresh, x[:1])[-1][0, 0]) < 1e-12

    def test_validation_split_falls_back_to_seeded_rows(self):
        # 10 rows split 5/5 at fraction 0.1: one validation row, and each class rounds to none
        labels = np.array(["Low"] * 5 + ["High"] * 5, dtype=object)
        train_idx, val_idx = validation_split(10, 0.1, seed=3, labels=labels)
        assert len(val_idx) == 1
        assert sorted(train_idx.tolist() + val_idx.tolist()) == list(range(10))
        again = validation_split(10, 0.1, seed=3, labels=labels)
        assert [a.tolist() for a in again] == [train_idx.tolist(), val_idx.tolist()]

    def test_no_improving_epoch_returns_the_initial_weights(self, toy_dataset):
        # a step size of 1e308 drives the outputs to overflow, so the one
        # epoch's validation score is -inf and epoch 0 stays the best
        x = toy_dataset.rows
        net = build_network(3, [(4, "relu"), (3, "linear")], seed=1)
        config = TrainConfig(loss="mean_squared_error", learning_rate=1e308, max_epochs=1, batch_size=64, l1=0, l2=0)
        with np.errstate(over="ignore", invalid="ignore"):
            trained, report = train(net, (x, x), config)
        assert report.validation_score_history == [-np.inf] and report.best_epoch == 0
        assert all(a.weights.tobytes() == b.weights.tobytes() for a, b in zip(trained.layers, net.layers))

    def test_determinism(self, toy_dataset):
        config = TrainConfig(seed=9, max_epochs=20)
        net = build_mlp(3, [6], 2, seed=9, input_names=toy_dataset.feature_names, class_names=["Low", "High"])
        a, ra = train(net, toy_dataset, config)
        b, rb = train(net, toy_dataset, config)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights, lb.weights)
        assert ra.train_loss_history == rb.train_loss_history
        assert ra.validation_score_history == rb.validation_score_history

    def test_l2_step_shrinks_weights(self):
        # single Adam step, zero data gradient (output already equals target):
        # the first step moves each weight by about learning_rate against the
        # sign of its L2 gradient 2w, so a rate below every |w| shrinks them all
        # and keeps their signs
        net = build_network(2, [(2, "linear")], seed=7, output_names=["a", "b"])
        x = np.zeros((2, 2))  # output = biases = 0 = target -> no data gradient
        targets = np.zeros((2, 2))
        before = net.layers[0].weights.copy()
        config = TrainConfig(
            seed=7, learning_rate=0.1, l1=0.0, l2=1.0,
            loss="mean_squared_error", max_epochs=1, batch_size=2, validation_fraction=0.4,
        )
        nonzero = before != 0
        assert config.learning_rate < np.abs(before[nonzero]).min()
        trained, _ = train(net, (x, targets), config)
        after = trained.layers[0].weights
        assert np.all(np.abs(after[nonzero]) < np.abs(before[nonzero]))
        assert np.all(np.sign(after[nonzero]) == np.sign(before[nonzero]))

    def test_empty_dataset_rejected(self):
        net = build_mlp(2, [3], 2, seed=0)
        with pytest.raises(TrainingError, match="empty"):
            train(net, (np.zeros((0, 2)), np.zeros((0, 2))), TrainConfig())

    @pytest.mark.parametrize(
        "specs, loss, width, message",
        [
            (
                [(3, "softmax"), (2, "softmax")],
                "cross_entropy",
                2,
                "softmax is only supported as the final layer with cross-entropy loss",
            ),
            ([(3, "relu"), (2, "sigmoid")], "cross_entropy", 2, "cross-entropy loss requires a softmax output layer"),
            (
                [(3, "relu"), (2, "softmax")],
                "mean_squared_error",
                2,
                "mean_squared_error is not supported with a softmax output layer",
            ),
            ([(3, "relu"), (2, "softmax")], "cross_entropy", 3, "data width 3 != network input dim 2"),
            ([(3, "relu"), (3, "softmax")], "cross_entropy", 2, "target shape does not match network output"),
        ],
        ids=["hidden_softmax", "cross_entropy_sigmoid", "mse_softmax", "data_width", "target_shape"],
    )
    def test_unusable_network_or_data_rejected(self, specs, loss, width, message):
        net = build_network(2, specs, seed=0)
        x, targets = np.zeros((4, width)), np.eye(2)[[0, 1, 0, 1]]
        with pytest.raises(TrainingError, match=f"^{message}$"):
            train(net, (x, targets), TrainConfig(loss=loss))

    def test_histories_match_epochs(self, toy_dataset):
        net = build_mlp(3, [4], 2, seed=2, input_names=toy_dataset.feature_names, class_names=["Low", "High"])
        _, report = train(net, toy_dataset, TrainConfig(seed=2, max_epochs=10))
        assert len(report.train_loss_history) == report.epochs_run
        assert len(report.validation_score_history) == report.epochs_run

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(patience=0)
        with pytest.raises(ValueError):
            TrainConfig(validation_fraction=1.0)
        with pytest.raises(ValueError, match="^unknown loss 'hinge'$"):
            TrainConfig(loss="hinge")
        for sizes in ({"batch_size": 0}, {"max_epochs": 0}):
            with pytest.raises(ValueError, match="^batch_size and max_epochs must be >= 1$"):
                TrainConfig(**sizes)
        TrainConfig(learning_rate=0.0)  # zero step size is allowed

    @pytest.mark.parametrize(
        "name, value",
        [
            ("learning_rate", float("nan")),
            ("learning_rate", float("inf")),
            ("l1", -1.0),
            ("l1", float("nan")),
            ("l1", float("inf")),
            ("l2", -1.0),
            ("l2", float("nan")),
        ],
    )
    def test_non_finite_rate_and_negative_penalties_rejected(self, name, value):
        # l1=-1 would reward large weights; lr=nan used to fail later as a
        # "non-finite loss at epoch 1, batch 1"
        with pytest.raises(ValueError, match=name if name != "l2" else "l1 and l2"):
            TrainConfig(**{name: value})


def _reference_train(net, data, config):
    """The per-layer training loop that the flat parameter vector replaced:
    two forward passes per batch, Adam layer by layer, and a per-layer
    best-epoch snapshot and restore."""
    x, targets, labels = tensornet._resolve_training_arrays(net, data)
    x = scale(x, net.input_bounds)
    model = copy.deepcopy(net)
    train_idx, val_idx = validation_split(x.shape[0], config.validation_fraction, config.seed, labels)
    x_tr, t_tr = x[train_idx], targets[train_idx]
    x_val, t_val = x[val_idx], targets[val_idx]
    rng = np.random.default_rng(config.seed + 1)
    reg_scale = 1.0 / len(x_tr)
    adam_m = [(np.zeros_like(l.weights), np.zeros_like(l.biases)) for l in model.layers]
    adam_v = [(np.zeros_like(l.weights), np.zeros_like(l.biases)) for l in model.layers]
    b1, b2, eps = 0.9, 0.999, 1e-8
    step = 0
    loss_history, score_history = [], []
    best_score, best_weights, bad_epochs = -np.inf, None, 0
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(x_tr))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            xb, tb = x_tr[batch_idx], t_tr[batch_idx]
            epoch_loss += tensornet.total_loss(model, xb, tb, config, reg_scale) * len(batch_idx)
            grads_w, grads_b = tensornet._backprop(model.layers, xb, tb, config)
            step += 1
            for i, layer in enumerate(model.layers):
                gw, gb = grads_w[i] + tensornet._penalty_grad(layer.weights, config, reg_scale), grads_b[i]
                mw, mb = adam_m[i]
                vw, vb = adam_v[i]
                mw[...] = b1 * mw + (1 - b1) * gw
                mb[...] = b1 * mb + (1 - b1) * gb
                vw[...] = b2 * vw + (1 - b2) * gw * gw
                vb[...] = b2 * vb + (1 - b2) * gb * gb
                c1, c2 = 1 - b1**step, 1 - b2**step
                upd_w = (mw / c1) / (np.sqrt(vw / c2) + eps)
                upd_b = (mb / c1) / (np.sqrt(vb / c2) + eps)
                layer.weights -= config.learning_rate * upd_w
                layer.biases -= config.learning_rate * upd_b
        loss_history.append(epoch_loss / len(x_tr))
        if len(val_idx):
            score = tensornet._validation_score(model.layers, x_val, t_val, config.loss)
            score_history.append(score)
            if score > best_score:
                best_score, bad_epochs = score, 0
                best_weights = [(l.weights.copy(), l.biases.copy()) for l in model.layers]
            else:
                bad_epochs += 1
                if bad_epochs >= config.patience:
                    break
        else:
            score_history.append(float("nan"))
    if best_weights is not None:
        for layer, (w, b) in zip(model.layers, best_weights):
            layer.weights, layer.biases = w, b
    return model, loss_history, score_history


def _worsening_validation_case():
    # validation rows get the opposite target, so the best epoch is the first
    n = 30
    x = np.ones((n, 1))
    train_idx, val_idx = validation_split(n, 0.1, seed=0)
    targets = np.zeros((n, 1))
    targets[train_idx] = 1.0
    targets[val_idx] = -1.0
    net = build_network(1, [(1, "linear")], seed=0, output_names=["y"])
    return net, (x, targets), TrainConfig(seed=0, loss="mean_squared_error", patience=2, max_epochs=50)


class TestParameterLayout:
    """A parameter vector holds every layer's weights, then every layer's biases."""

    def test_every_weight_before_every_bias(self):
        net, rng = build_mlp(4, [6, 5], 3, seed=7), np.random.default_rng(7)
        for layer in net.layers:
            layer.biases[...] = rng.normal(size=layer.out_units)
        params, n = tensornet._flat(net.layers), tensornet._weight_count(net.layers)
        assert n == sum(layer.weights.size for layer in net.layers)
        assert params[:n].tobytes() == np.concatenate([layer.weights.ravel() for layer in net.layers]).tobytes()
        assert params[n:].tobytes() == np.concatenate([layer.biases for layer in net.layers]).tobytes()

    @pytest.mark.parametrize("members", [1, 3])
    def test_layer_views_write_through(self, members):
        # one net's vector, or a stack's (members, P) rows
        nets = [build_mlp(4, [6, 5], 3, seed=s) for s in range(members)]
        params = np.stack([tensornet._flat(net.layers) for net in nets])
        if members == 1:
            params = params[0]
        views = tensornet._layer_views(params, nets[0].layers)
        for (weights, biases), layers in zip(views, zip(*(net.layers for net in nets))):
            assert weights.tobytes() == np.stack([layer.weights for layer in layers]).tobytes()
            assert biases.tobytes() == np.stack([layer.biases for layer in layers]).tobytes()
        for weights, biases in views:
            weights[...], biases[...] = -1.0, -2.0
        n = tensornet._weight_count(nets[0].layers)
        assert (params[..., :n] == -1.0).all() and (params[..., n:] == -2.0).all()

    def test_stack_penalty_is_each_members_own(self):
        nets = [build_mlp(9, [50, 50], 2, seed=s) for s in range(4)]
        n = tensornet._weight_count(nets[0].layers)
        params = np.stack([tensornet._flat(net.layers) for net in nets])
        rows = tensornet._penalty(params[:, :n], 0.7, 1.3, np.empty((4, n)))
        for row, net in zip(rows, nets):
            assert row.tobytes() == np.float64(tensornet._penalty(tensornet._flat(net.layers)[:n], 0.7, 1.3)).tobytes()


class TestFlatParameterTraining:
    def case(self, name, toy_dataset, ct_rules):
        if name == "mlp_cross_entropy":
            net = build_mlp(3, [6, 4], 2, seed=4, input_names=toy_dataset.feature_names, class_names=["Low", "High"])
            return net, toy_dataset, TrainConfig(seed=4, max_epochs=12, batch_size=8)
        if name == "compiled":
            raw, _ = generate_synthetic(SynthConfig(n_rows=150, n_test=20, seed=5))
            net = compile_rules(ct_rules, raw.feature_names, CLASSES, CompileConfig(seed=5))
            return replace(net, input_bounds=feature_bounds(raw)), raw, TrainConfig(seed=5, max_epochs=8)
        if name == "autoencoder_mse":
            specs = [(4, "relu"), (2, "relu"), (4, "relu"), (3, "linear")]
            net = build_network(3, specs, seed=6)
            return net, (toy_dataset.rows, toy_dataset.rows), TrainConfig(seed=6, loss="mean_squared_error", max_epochs=10)
        return _worsening_validation_case()

    @pytest.mark.parametrize("name", ["mlp_cross_entropy", "compiled", "autoencoder_mse", "early_stop"])
    def test_bit_equal_to_per_layer_loop(self, name, toy_dataset, ct_rules):
        net, data, config = self.case(name, toy_dataset, ct_rules)
        trained, report = train(net, data, config)
        ref, ref_losses, ref_scores = _reference_train(net, data, config)
        for got, want in zip(trained.layers, ref.layers):
            assert got.weights.tobytes() == want.weights.tobytes()
            assert got.biases.tobytes() == want.biases.tobytes()
        assert np.array(report.train_loss_history).tobytes() == np.array(ref_losses).tobytes()
        assert np.array(report.validation_score_history).tobytes() == np.array(ref_scores).tobytes()
        if name == "early_stop":
            assert report.stopped_early and report.best_epoch < report.epochs_run

    def test_one_forward_pass_per_batch(self, toy_dataset, monkeypatch):
        # a full pass per training batch, and a final-activations pass per
        # epoch's validation
        calls = []
        for name in ("_forward_full", "_final_activations"):

            def counting(*args, real=getattr(tensornet, name), name=name, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(tensornet, name, counting)
        config = TrainConfig(seed=3, max_epochs=6, batch_size=8)
        _, report = train(build_mlp(3, [5], 2, seed=3, input_names=toy_dataset.feature_names, class_names=["Low", "High"]), toy_dataset, config)
        train_idx, val_idx = validation_split(60, config.validation_fraction, config.seed, toy_dataset.labels)
        batches = -(-len(train_idx) // config.batch_size)
        assert len(val_idx) > 0
        assert len(calls) == report.epochs_run * (batches + 1)
        assert calls.count("_final_activations") == report.epochs_run


class TestTrainStack:
    """Stacked members train exactly as they would alone."""

    @staticmethod
    def separately(nets, data, configs, rows):
        if isinstance(data, Dataset):
            subsets = [subset(data, r) for r in rows]
        else:
            subsets = [(data[0][r], data[1][r]) for r in rows]
        return [train(net, part, config) for net, part, config in zip(nets, subsets, configs)]

    def assert_stack_equals_separate(self, nets, data, configs, rows):
        stacked = train_stack(nets, data, configs, rows)
        for (model, report), (ref, ref_report) in zip(stacked, self.separately(nets, data, configs, rows)):
            for got, want in zip(model.layers, ref.layers):
                assert got.weights.tobytes() == want.weights.tobytes()
                assert got.biases.tobytes() == want.biases.tobytes()
            assert np.array(report.train_loss_history).tobytes() == np.array(ref_report.train_loss_history).tobytes()
            got_scores, want_scores = report.validation_score_history, ref_report.validation_score_history
            assert np.array(got_scores).tobytes() == np.array(want_scores).tobytes()
            assert report.best_epoch == ref_report.best_epoch
            assert report.stopped_early == ref_report.stopped_early
            assert report.epochs_run == ref_report.epochs_run
        return [report for _, report in stacked]

    def test_ragged_batches_different_stops_and_no_validation(self):
        data, _ = generate_synthetic(SynthConfig(n_rows=150, n_test=20, seed=11))
        seeds = [3, 4, 5, 6, 7]
        nets = [replace(build_mlp(data.n_features, [12, 8], 2, seed=s, input_names=data.feature_names, class_names=list(CLASSES)), input_bounds=feature_bounds(data)) for s in seeds]
        configs = [TrainConfig(seed=s, max_epochs=30, batch_size=16) for s in seeds]
        # 150, 141, 131 and 97 rows leave last batches of 7, 15, 6 and 8 rows
        # after validation; 9 rows give no validation rows (int(0.9) == 0)
        order = np.random.default_rng(1).permutation(150)
        rows = [np.arange(150), order[:141], np.sort(order[:131]), order[40:137], order[:9]]
        reports = self.assert_stack_equals_separate(nets, data, configs, rows)
        assert len({r.epochs_run for r in reports}) > 1  # members leave at different epochs
        assert reports[-1].epochs_run == 30 and np.isnan(reports[-1].validation_score_history).all()

    def test_compiled_sigmoid_net(self, ct_rules):
        data, _ = generate_synthetic(SynthConfig(n_rows=160, n_test=20, seed=5))
        bounds = feature_bounds(data)
        seeds = [5, 6, 7]
        nets = [replace(compile_rules(ct_rules, data.feature_names, CLASSES, CompileConfig(seed=s)), input_bounds=bounds) for s in seeds]
        assert {layer.activation for layer in nets[0].layers[:-1]} == {"sigmoid"}
        configs = [TrainConfig(seed=s, max_epochs=15) for s in seeds]
        rows = [np.arange(160), np.arange(3, 150), np.arange(0, 160, 2)]
        self.assert_stack_equals_separate(nets, data, configs, rows)

    def test_mean_squared_error(self, toy_dataset):
        x = toy_dataset.rows
        specs = [(4, "relu"), (2, "sigmoid"), (3, "linear")]
        seeds = [6, 7, 8]
        nets = [build_network(3, specs, seed=s) for s in seeds]
        configs = [TrainConfig(seed=s, loss="mean_squared_error", max_epochs=20, batch_size=8) for s in seeds]
        rows = [np.arange(60), np.arange(10, 60), np.arange(0, 60, 3)]
        self.assert_stack_equals_separate(nets, (x, x), configs, rows)

    def test_every_row_when_rows_not_given(self, toy_dataset):
        nets = [build_mlp(3, [5], 2, seed=s, input_names=toy_dataset.feature_names, class_names=["Low", "High"]) for s in (1, 2)]
        configs = [TrainConfig(seed=s, max_epochs=8, batch_size=8) for s in (1, 2)]
        stacked = train_stack(nets, toy_dataset, configs)
        for (model, _), net, config in zip(stacked, nets, configs):
            ref, _ = train(net, toy_dataset, config)
            assert all(a.weights.tobytes() == b.weights.tobytes() for a, b in zip(model.layers, ref.layers))

    @pytest.mark.parametrize(
        "second, config",
        [
            (build_mlp(3, [6], 2, seed=2), TrainConfig(seed=2)),  # layer shapes
            (build_network(3, [(5, "sigmoid"), (2, "softmax")], seed=2), TrainConfig(seed=2)),  # activations
            (build_mlp(3, [5], 2, seed=2), TrainConfig(seed=2, learning_rate=0.01)),
            (build_mlp(3, [5], 2, seed=2), TrainConfig(seed=2, max_epochs=7)),
        ],
    )
    def test_mismatched_members_rejected_before_any_step(self, second, config, toy_dataset, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("a step ran")

        monkeypatch.setattr(tensornet, "_forward_full", no_step)
        first = build_mlp(3, [5], 2, seed=1)
        with pytest.raises(ValueError, match="stacked"):
            train_stack([first, second], toy_dataset, [TrainConfig(seed=1), config])

    def test_one_config_and_nonempty_rows_per_member(self):
        net = build_mlp(3, [5], 2, seed=1)
        data = (np.zeros((6, 3)), np.eye(2)[[0, 1] * 3])
        with pytest.raises(ValueError, match="^train_stack needs one config and one row set per network$"):
            train_stack([net, net], data, [TrainConfig(seed=1)])
        with pytest.raises(TrainingError, match="^training data is empty$"):
            train_stack([net, net], data, [TrainConfig(seed=1), TrainConfig(seed=2)], rows=[[0, 1, 2], []])


class TestGradientCheck:
    def test_epsilon_must_be_positive(self):
        net = build_network(3, [(2, "softmax")], seed=0)
        with pytest.raises(ValueError, match="^epsilon must be > 0$"):
            numerical_gradient_check(net, np.zeros((2, 3)), np.eye(2), epsilon=0.0)

    @pytest.mark.parametrize("l1, n_checked, n_skipped", [(1.0, 23, 3), (0.0, 26, 0)])
    def test_counts_with_kink_weights(self, l1, n_checked, n_skipped):
        net = build_network(3, [(4, "sigmoid"), (2, "softmax")], seed=8)
        first, second = net.layers
        first.weights[0, 0] = 0.0
        first.weights[1, 1] = 1e-6
        second.weights[1, 3] = -5e-6
        rng = np.random.default_rng(8)
        x = rng.normal(size=(5, 3))
        targets = np.eye(2)[rng.integers(0, 2, 5)]
        report = numerical_gradient_check(net, x, targets, TrainConfig(l1=l1, l2=0.5))
        assert (report.n_checked, report.n_skipped) == (n_checked, n_skipped)
        assert report.max_relative_error < 1e-4

    def test_random_network_no_regularization(self):
        rng = np.random.default_rng(1)
        net = build_network(3, [(4, "sigmoid"), (2, "softmax")], seed=1)
        x = rng.normal(size=(8, 3))
        targets = np.eye(2)[rng.integers(0, 2, 8)]
        report = numerical_gradient_check(net, x, targets, TrainConfig(l1=0.0, l2=0.0))
        assert report.max_relative_error < 1e-4

    def test_linear_closed_form(self):
        net = build_network(1, [(1, "linear")], seed=0, output_names=["y"])
        net.layers[0].weights[0, 0] = 0.7
        x = np.array([[2.0]])
        y = np.array([[1.0]])
        config = TrainConfig(l1=0.0, l2=0.0, loss="mean_squared_error")
        report = numerical_gradient_check(net, x, y, config, epsilon=1e-6)
        assert report.max_relative_error < 1e-6
        # analytic gradient of (wx - y)^2 is 2x(wx - y)
        from hornnet.tensornet import _backprop

        grads_w, _ = _backprop(net.layers, x, y, config)
        assert abs(grads_w[0][0, 0] - 2 * 2.0 * (0.7 * 2.0 - 1.0)) < 1e-12

    def test_zero_weights_skipped_under_l1(self):
        net = build_network(2, [(3, "sigmoid"), (2, "softmax")], seed=2)
        for layer in net.layers:
            layer.weights[...] = 0.0
        x = np.array([[0.5, -0.5], [1.0, 0.2]])
        targets = np.array([[1.0, 0.0], [0.0, 1.0]])
        report = numerical_gradient_check(net, x, targets, TrainConfig(l1=1.0, l2=0.0))
        n_weights = sum(l.weights.size for l in net.layers)
        assert report.n_skipped == n_weights

    def test_with_regularization(self):
        rng = np.random.default_rng(3)
        net = build_network(4, [(5, "relu"), (3, "sigmoid"), (2, "softmax")], seed=3)
        x = rng.normal(size=(6, 4)) + 0.3
        targets = np.eye(2)[rng.integers(0, 2, 6)]
        report = numerical_gradient_check(net, x, targets, TrainConfig(l1=0.7, l2=1.3))
        assert report.max_relative_error < 1e-4


class TestSerialization:
    def test_round_trip_lossless(self, tmp_path):
        net = build_mlp(5, [7, 3], 2, seed=42, class_names=["Low", "High"])
        net.input_bounds[:, 0] = [-1.5, 0.0, 2.0, 1e-300, 7.0]
        net.input_bounds[:, 1] = [3.25, 0.0, 2.5, 1e300, 7.0]
        net.rules = parse_rules("C :- A, not B.\nC :- B.\n")
        path = tmp_path / "model.npz"
        save_network(net, path)
        loaded = load_network(path)
        for a, b in zip(net.layers, loaded.layers):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.biases, b.biases)
            assert a.activation == b.activation
        assert loaded.rules == net.rules
        assert loaded.unit_labels == net.unit_labels
        assert loaded.output_names == net.output_names
        assert loaded.input_bounds.tobytes() == net.input_bounds.tobytes()

    def test_version_4_written_with_rule_text(self, tmp_path):
        rules = parse_rules("C :- A, not B.\n")
        plain = build_mlp(4, [5, 3], 2, seed=9, class_names=["Low", "High"])
        plain.input_bounds[:, 1] = [2.0, 3.5, 1.0, 10.0]
        x = np.random.default_rng(9).uniform(0.0, 4.0, size=(20, 4))
        for net in (plain, replace(plain, rules=rules)):
            save_network(net, tmp_path / "model.npz")
            with zipfile.ZipFile(tmp_path / "model.npz") as zf:
                meta = json.loads(zf.read("meta.json"))
                names = sorted(zf.namelist())
            assert meta["version"] == 4
            assert meta["rules"] == (None if net.rules is None else format_rules(rules))
            assert names == ["b0.npy", "b1.npy", "b2.npy", "bounds.npy", "meta.json", "w0.npy", "w1.npy", "w2.npy"]
            loaded = load_network(tmp_path / "model.npz")
            assert loaded.rules == net.rules
            assert predict_proba(loaded, x).tobytes() == predict_proba(net, x).tobytes()

    def test_rule_set_that_does_not_parse_back_is_not_written(self, tmp_path):
        rewritten = rewrite_disjuncts(parse_rules("C :- A.\nC :- B.\n"))
        net = replace(build_mlp(2, [3], 2, seed=0), rules=rewritten)
        with pytest.raises(ValueError, match="reserved generated-name suffix"):
            save_network(net, tmp_path / "model.npz")
        assert not (tmp_path / "model.npz").exists()

    def test_model_file_bytes_reproducible(self, tmp_path):
        net = build_mlp(3, [4], 2, seed=1)
        p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
        save_network(net, p1)
        save_network(net, p2)
        assert p1.read_bytes() == p2.read_bytes()
