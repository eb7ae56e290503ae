"""Walkthrough: explaining predictions two ways.

The plain classifier gets local surrogate explanations (global means plus a
misprediction table); the knowledge-compiled model yields threshold rules
read directly off its trained weights. Both models scale their raw inputs
with the training rows' bounds, so every call below takes raw rows.
"""

from dataclasses import replace

from hornnet import parse_rules
from hornnet.datakit import SynthConfig, feature_bounds, generate_synthetic
from hornnet.explain import format_misprediction_table, global_explain
from hornnet.kbann import CompileConfig, compile_rules, extract_rules, format_extracted_rules
from hornnet.tensornet import TrainConfig, build_mlp, predictor, train

rules = parse_rules(
    "Final_score :- CT_concepts, CT_skills.\n"
    "CT_concepts :- Conditional, Loop.\n"
    "CT_skills :- Debug, Simulation, Function.\n"
)

train_data, test_data = generate_synthetic(SynthConfig(seed=3))
bounds = feature_bounds(train_data)

print("training the plain classifier...")
baseline = build_mlp(
    train_data.n_features, [50, 50], 2, seed=3,
    input_names=list(train_data.feature_names), class_names=["Low", "High"],
)
baseline, _ = train(replace(baseline, input_bounds=bounds), train_data, TrainConfig(seed=3))
predict_fn = predictor(baseline)

print("fitting local surrogates on every test row (this samples around each point)...")
global_exp = global_explain(predict_fn, test_data, n_samples=500, seed=3)
print("\nmean |importance| per feature (plain classifier):")
for name, value in sorted(global_exp.mean_abs.items(), key=lambda kv: -kv[1]):
    print(f"  {name:<14} {value:.4f}")

print(f"\n{len(global_exp.mispredicted)} mispredicted test rows:")
print(format_misprediction_table(global_exp.mispredicted))

print("training the knowledge-compiled model and extracting its rules...")
net = compile_rules(rules, train_data.feature_names, ("Low", "High"), CompileConfig(seed=3))
model, _ = train(replace(net, input_bounds=bounds), train_data, TrainConfig(seed=3))
extracted = extract_rules(model, train_data)
print(format_extracted_rules(extracted))
