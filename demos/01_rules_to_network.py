"""Walkthrough: from a Horn-clause knowledge file to an initialized network.

Parses the bundled computational-thinking rules, compiles them into a layered
sigmoid network, and checks that the initialization realizes the boolean
semantics exactly.
"""

import numpy as np

from hornnet import parse_rules
from hornnet.datakit import FEATURE_STATS
from hornnet.kbann import CompileConfig, compile_rules, verify_compiled_logic
from hornnet.tensornet import forward

RULES_TEXT = """\
% Performance depends on concept and skill mastery.
Final_score :- CT_concepts, CT_skills.
CT_concepts :- Conditional, Loop.
CT_skills :- Debug, Simulation, Function.
"""

rules = parse_rules(RULES_TEXT)
print(f"parsed {len(rules.clauses)} clauses")
print(f"  root head:  {sorted(rules.roots)}")
print(f"  inputs:     {sorted(rules.inputs)}")

features = list(FEATURE_STATS)
net = compile_rules(rules, features, ("Low", "High"), CompileConfig(perturb_scale=0.0))

print("\ncompiled network:")
for labels, layer in zip(net.unit_labels, net.layers):
    print(f"  {layer.activation:<8} {layer.weights.shape[1]:>2} -> {layer.weights.shape[0]:<2} units: {labels}")

print("\nknowledge links into CT_concepts:")
idx = net.unit_labels[0].index("CT_concepts")
for lit in net.rules.clauses_by_head["CT_concepts"][0].body:
    print(f"  {str(lit):<12} weight {net.layers[0].weights[idx, features.index(lit.symbol)]:+.3f}")
print(f"  bias {net.layers[0].biases[idx]:+.3f}")

ok = verify_compiled_logic(net, rules)
print(f"\nexhaustive truth-table check against the boolean oracle: {'passed' if ok else 'FAILED'}")

# watch the root unit respond to one assignment
x = np.zeros(len(features))
for name in ["Conditional", "Loop", "Debug", "Simulation", "Function"]:
    x[features.index(name)] = 1.0
acts = forward(net, x)
root = acts[1][net.unit_labels[1].index("Final_score")]
print(f"all causal inputs on  -> Final_score activation {root:.3f}, P(High) = {acts[-1][1]:.3f}")

x[features.index("Loop")] = 0.0
acts = forward(net, x)
root = acts[1][net.unit_labels[1].index("Final_score")]
print(f"Loop switched off     -> Final_score activation {root:.3f}, P(High) = {acts[-1][1]:.3f}")
