"""Compile Horn rules into an initialized network, and extract threshold
rules from a trained one.

Compilation maps each head to a sigmoid unit one level above its deepest
antecedent. A conjunctive unit gets links of magnitude omega from its
antecedents and bias -omega*(P - 1/2) (P = positive-literal count); a head
with several clauses ORs its rewrite intermediates, with P = 1. Links for
antecedents that are themselves sigmoid units are calibrated: the antecedent's
attainable true/false activation bands are propagated bottom-up, and the link
weight/bias are scaled so a "true" antecedent contributes exactly omega and a
"false" one exactly zero. Raw 0/1 inputs have band gap 1, so first-level links
keep the plain +-omega / -omega*(P - 1/2) values; without the calibration,
sigmoid attenuation (a true conjunction outputs sigmoid(omega/2), not 1)
makes deeper units drift out of their boolean operating points.

Remaining steps: features untouched by rules link into level 1 at noise
scale, a few extra unlabeled "head" units join every hidden level, contiguous
levels are fully connected, and everything is perturbed by uniform noise. The
output softmax is one more level of two calibrated copies of the single root:
a negated one for the negative class and a plain one for the positive class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .datakit import Dataset, _match_columns, scale
from .rulelang import RuleSet, evaluate_boolean, rewrite_disjuncts
from .tensornet import Layer, Network, _final_activations, _sigmoid, forward, predict_labels

__all__ = [
    "CompileConfig",
    "ExtractedRule",
    "ExtractedRuleSet",
    "CompileError",
    "compile_rules",
    "verify_compiled_logic",
    "extract_rules",
    "format_extracted_rules",
    "extracted_rules_to_dict",
    "permutation_importance",
]

PASSTHROUGH_SEP = "__via"
ACTIVATION_HIGH = 0.85
ACTIVATION_LOW = 0.15


class CompileError(ValueError):
    pass


@dataclass
class CompileConfig:
    omega: float = 8.0
    perturb_scale: float = 0.01
    extra_hidden_per_level: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.omega <= 0:
            raise CompileError("omega must be > 0")
        if self.perturb_scale < 0:
            raise CompileError("perturb_scale must be >= 0")
        if self.extra_hidden_per_level < 0:
            raise CompileError("extra_hidden_per_level must be >= 0")


@dataclass
class _Band:
    """Attainable activation intervals of a unit: [t_lo, t_hi] when its symbol
    is boolean-true, [f_lo, f_hi] when false. Raw inputs are ({1}, {0})."""

    t_lo: float
    t_hi: float
    f_lo: float
    f_hi: float

    @property
    def gap(self) -> float:
        return self.t_lo - self.f_hi

    @property
    def true_slack(self) -> float:  # how far above "exactly true" it can sit
        return (self.t_hi - self.t_lo) / self.gap

    @property
    def false_slack(self) -> float:  # how far below "exactly false" it can sit
        return (self.f_hi - self.f_lo) / self.gap


_RAW_BAND = _Band(1.0, 1.0, 0.0, 0.0)


class _Unit(NamedTuple):
    label: str
    kind: str  # "input" | "and" | "or" | "extra"; a pass-through copy is a one-literal "and"
    parts: list  # (source _Unit, negated)
    index: int  # position in its level
    band: _Band | None  # None for "extra"


def _conjunction_band(omega, parts_bands) -> _Band:
    """Interval propagation for an AND unit over calibrated links.

    In calibrated units a satisfied positive antecedent contributes
    omega * [1, 1 + true_slack] and a satisfied negated one omega *
    [0, false_slack]; a violated positive contributes omega * [-false_slack, 0]
    and a violated negated omega * [-(1 + true_slack), -1]. The true band sums
    every satisfied range plus the -omega*(P - 1/2) offset; the false band
    maximizes over the single cheapest violation (sound: any false assignment
    violates at least one literal).
    """
    sat_lo, sat_hi = [], []
    for band, negated in parts_bands:
        if negated:
            sat_lo.append(0.0)
            sat_hi.append(band.false_slack)
        else:
            sat_lo.append(1.0)
            sat_hi.append(1.0 + band.true_slack)
    base = -(sum(0.0 if neg else 1.0 for _, neg in parts_bands) - 0.5)

    t_pre_lo = omega * (sum(sat_lo) + base)
    t_pre_hi = omega * (sum(sat_hi) + base)

    f_pre_hi = -np.inf
    for v in range(len(parts_bands)):
        band, negated = parts_bands[v]
        violated_hi = -1.0 if negated else 0.0
        others = sum(sat_hi[k] for k in range(len(parts_bands)) if k != v)
        f_pre_hi = max(f_pre_hi, omega * (others + violated_hi + base))
    f_pre_lo = omega * (
        sum(
            -(1.0 + band.true_slack) if negated else -band.false_slack
            for band, negated in parts_bands
        )
        + base
    )
    return _Band(*_sigmoid(np.array([t_pre_lo, t_pre_hi, f_pre_lo, f_pre_hi])))


def _disjunction_band(omega, parts_bands) -> _Band:
    slacks_true = [band.true_slack for band, _ in parts_bands]
    slacks_false = [band.false_slack for band, _ in parts_bands]
    t_pre_lo = omega * (1.0 - sum(slacks_false) - 0.5)
    t_pre_hi = omega * (sum(1.0 + s for s in slacks_true) - 0.5)
    f_pre_hi = omega * (0.0 - 0.5)
    f_pre_lo = omega * (-sum(slacks_false) - 0.5)
    return _Band(*_sigmoid(np.array([t_pre_lo, t_pre_hi, f_pre_lo, f_pre_hi])))


def compile_rules(rules: RuleSet, feature_names, classes, config: CompileConfig | None = None) -> Network:
    """Build an initialized network whose labeled units realize the rules.

    Takes any rule set, parsed or rewritten, with one root head, every rule
    input in `feature_names` and no head among them or among the labels of the
    units it adds (the extra units' `head<N>` and `classes`). After its
    `rewrite_disjuncts`, a head with several clauses is an OR over their
    intermediates, any other head an AND. `classes` is (negative, positive);
    the root unit drives the positive output. The net keeps `rules`, as given,
    in `Network.rules`.
    """
    config = config or CompileConfig()
    omega = config.omega
    given, rules = rules, rewrite_disjuncts(rules)
    feature_names = list(feature_names)
    classes = list(classes)
    if len(classes) != 2:
        raise CompileError("exactly two classes are required (negative, positive)")
    if len(rules.roots) != 1:
        raise CompileError(f"exactly one root head is required, found {sorted(rules.roots)}")
    unknown = rules.inputs - set(feature_names)
    if unknown:
        raise CompileError(f"rule inputs missing from feature_names: {sorted(unknown)}")
    if clashing := sorted(set(rules.heads) & set(feature_names)):
        raise CompileError(f"rule heads name feature columns: {clashing}")
    root = next(iter(rules.roots))

    # Level of each symbol: features at 0, heads one above their deepest antecedent.
    level = {name: 0 for name in feature_names}
    for head in rules.topological_heads:
        level[head] = 1 + max(level[lit.symbol] for c in rules.clauses_by_head[head] for lit in c.body)
    n_levels = level[root]
    own = {f"head{i}" for i in range(1, n_levels * config.extra_hidden_per_level + 1)} | set(classes)
    if clashing := sorted(set(rules.heads) & own):
        raise CompileError(f"rule heads name the compiler's own units: {clashing}")

    # Level 0 holds the features, levels 1..n_levels the rule units and the
    # extra hidden units, level n_levels + 1 the output pair.
    units_by_level: list[list[_Unit]] = [[] for _ in range(n_levels + 2)]
    units_by_level[0] = [_Unit(name, "input", [], i, _RAW_BAND) for i, name in enumerate(feature_names)]
    placed: dict[tuple[str, int], _Unit] = {(unit.label, 0): unit for unit in units_by_level[0]}

    def place(label, lvl, kind, parts) -> _Unit:
        """Append a unit to level `lvl` with its index there and its bands."""
        band = None
        if kind != "extra":
            propagate = _disjunction_band if kind == "or" else _conjunction_band
            band = propagate(omega, [(src.band, negated) for src, negated in parts])
            if band.gap <= 0:
                raise CompileError(
                    f"unit {label!r} has no separation between true and false "
                    f"activations at omega={omega}; increase omega"
                )
        unit = _Unit(label, kind, parts, len(units_by_level[lvl]), band)
        units_by_level[lvl].append(unit)
        return unit

    def represent(symbol: str, at_level: int) -> _Unit:
        """Unit standing for `symbol` at `at_level`: its own or a pass-through copy."""
        key = (symbol, at_level)
        if key not in placed:
            if level[symbol] == at_level:
                raise CompileError(f"unit for {symbol!r} not built yet")  # topo order violated
            below = represent(symbol, at_level - 1)
            placed[key] = place(f"{symbol}{PASSTHROUGH_SEP}{at_level}", at_level, "and", [(below, False)])
        return placed[key]

    for head in rules.topological_heads:
        lvl = level[head]
        clauses = rules.clauses_by_head[head]
        kind = "or" if len(clauses) > 1 else "and"
        parts = [(represent(lit.symbol, lvl - 1), lit.negated) for c in clauses for lit in c.body]
        placed[(head, lvl)] = place(head, lvl, kind, parts)

    head_counter = 0
    for lvl in range(1, n_levels + 1):
        for _ in range(config.extra_hidden_per_level):
            head_counter += 1
            place(f"head{head_counter}", lvl, "extra", [])

    # The output softmax: a negated and a plain calibrated copy of the root,
    # for the negative and the positive class.
    for label, negated in zip(classes, (True, False)):
        place(label, n_levels + 1, "and", [(placed[(root, n_levels)], negated)])

    # Assemble weight matrices level by level, then steps 6-7: noise-scale links
    # everywhere but the knowledge links, and uniform noise on every parameter.
    rng = np.random.default_rng(config.seed)
    s = config.perturb_scale
    layers: list[Layer] = []
    for lvl in range(1, n_levels + 2):
        units = units_by_level[lvl]
        weights = np.zeros((len(units), len(units_by_level[lvl - 1])))
        biases = np.zeros(len(units))
        mask = np.zeros(weights.shape, dtype=bool)
        for unit in units:
            if unit.kind == "extra":
                continue
            # KBANN's N-of-M bias: an OR needs one of its parts, an AND all its positive ones
            p = 1.0 if unit.kind == "or" else sum(0.0 if neg else 1.0 for _, neg in unit.parts)
            bias = -omega * (p - 0.5)
            for src, negated in unit.parts:
                w = omega / src.band.gap
                # accumulate: a repeated antecedent (C :- A, A.) keeps AND
                # semantics, and C :- A, not A. cancels to never-fires
                weights[unit.index, src.index] += -w if negated else w
                bias += (w if negated else -w) * src.band.f_hi
                mask[unit.index, src.index] = True
            biases[unit.index] = bias
        base = rng.uniform(-s, s, size=weights.shape)
        base[mask] = 0.0
        weights += base + rng.uniform(-s, s, size=weights.shape)
        biases += rng.uniform(-s, s, size=biases.shape)
        layers.append(Layer(weights, biases, "softmax" if lvl == n_levels + 1 else "sigmoid"))

    unit_labels = [[unit.label for unit in units] for units in units_by_level[1:]]
    return Network(layers, unit_labels, feature_names, rules=given)


# --------------------------------------------------------------------------
# Initialization-fidelity oracle
# --------------------------------------------------------------------------


def unit_symbol(label: str) -> str:
    """Rule symbol a unit label stands for (pass-through copies included)."""
    if PASSTHROUGH_SEP in label:
        stem, _, tail = label.rpartition(PASSTHROUGH_SEP)
        if stem and tail.isdigit():
            return stem
    return label


def verify_compiled_logic(net: Network, rules: RuleSet) -> bool:
    """Exhaustively check a perturbation-free compiled network against the
    boolean oracle: every rule-labeled unit must sit above `ACTIVATION_HIGH`
    whenever its symbol evaluates true and below `ACTIVATION_LOW` otherwise.
    """
    inputs = sorted(rules.inputs)
    if len(inputs) > 12:
        raise CompileError("exhaustive verification caps at 12 input symbols")
    if not rules.heads:
        return True
    n = len(inputs)
    feature_index = {name: i for i, name in enumerate(net.input_names)}

    combos = (np.arange(2**n)[:, None] >> np.arange(n)) & 1 == 1
    x = np.zeros((2**n, len(net.input_names)))
    x[:, [feature_index[name] for name in inputs]] = combos
    # truth of every symbol under every assignment: the inputs plus the oracle's heads
    assignments = [dict(zip(inputs, row)) for row in combos.tolist()]
    truth = [{**a, **evaluate_boolean(rules, a)} for a in assignments]
    symbols = [unit_symbol(label) for labels in net.unit_labels for label in labels]
    cols = [c for c, symbol in enumerate(symbols) if symbol in truth[0]]
    want = np.array([[t[symbols[c]] for c in cols] for t in truth], dtype=bool).reshape(2**n, len(cols))
    got = np.hstack(forward(net, x))[:, cols]
    return bool(np.all(np.where(want, got > ACTIVATION_HIGH, got < ACTIVATION_LOW)))


# --------------------------------------------------------------------------
# Rule extraction
# --------------------------------------------------------------------------


@dataclass
class ExtractedRule:
    head: str
    threshold: float
    terms: list[tuple[float, list[str]]]  # (group weight, grouped antecedent labels)


@dataclass
class ExtractedRuleSet:
    rules: list[ExtractedRule]
    fidelity: float


def _group_weights(weights, sources, tolerance):
    """Cluster incoming weights: sorted by value, same sign, within relative
    tolerance of the running group mean. Returns (mean, member labels) pairs
    in descending |mean| order."""
    order = np.argsort(weights, kind="stable")
    groups: list[list[int]] = []
    for idx in order:
        w = weights[idx]
        if groups:
            members = groups[-1]
            mean = float(np.mean([weights[m] for m in members]))
            same_sign = (w >= 0) == (mean >= 0)
            close = abs(w - mean) <= tolerance * max(abs(w), abs(mean))
            if same_sign and close:
                members.append(int(idx))
                continue
        groups.append([int(idx)])
    terms = [
        (float(np.mean([weights[m] for m in g])), [sources[m] for m in g]) for g in groups
    ]
    terms.sort(key=lambda t: abs(t[0]), reverse=True)
    return terms


def extract_rules(net: Network, train_data: Dataset, group_tolerance: float = 0.1) -> ExtractedRuleSet:
    """Threshold rules for every non-input unit of a knowledge-compiled net.

    Incoming weights cluster into near-equal groups (one term per group, the
    group mean as its coefficient); the threshold is the negated bias, on
    inputs scaled with the network's `input_bounds`. Fidelity replays the raw
    training rows, matched by name to `input_names` and scaled the same way,
    through the rule system — a unit fires when its terms' weighted activation
    sum exceeds the threshold — and measures final-class agreement with the net.
    """
    if group_tolerance < 0:
        raise ValueError("group_tolerance must be >= 0")
    if net.rules is None:
        raise ValueError(
            "network has no knowledge-labeled units; use the surrogate explainer "
            "(hornnet.explain) for plain models"
        )
    if train_data.n_rows == 0:
        raise ValueError("fidelity is undefined on an empty training set")
    train_data = _match_columns(train_data, net.input_names, "train_data")

    # Each layer's rules, then their replay: layer 0 sees the scaled
    # features, deeper layers the 0/1 firing pattern below. grouped[u, j] is
    # the mean weight of the group that source j falls in, so a unit's margin
    # is its grouped weighted sum minus its threshold; the final class is the
    # output unit with the best margin.
    rules = []
    scaled = values = scale(train_data.rows, net.input_bounds)
    for li, layer in enumerate(net.layers):
        sources = net.input_names if li == 0 else net.unit_labels[li - 1]
        grouped = np.empty_like(layer.weights)
        for u in range(layer.out_units):
            index_terms = _group_weights(layer.weights[u], range(layer.in_units), group_tolerance)
            for weight, cols in index_terms:
                grouped[u, cols] = weight
            rules.append(
                ExtractedRule(
                    head=net.unit_labels[li][u],
                    threshold=float(-layer.biases[u]),
                    terms=[(weight, [sources[c] for c in cols]) for weight, cols in index_terms],
                )
            )
        margins = values @ grouped.T + layer.biases
        values = (margins > 0).astype(np.float64)

    # the network's own classes, from the rows already scaled for the replay
    net_out = _final_activations(net.layers, scaled)
    fidelity = float((margins.argmax(axis=1) == net_out.argmax(axis=1)).mean())
    return ExtractedRuleSet(rules=rules, fidelity=fidelity)


def format_extracted_rules(extracted: ExtractedRuleSet) -> str:
    """Human-readable rendering: `head: threshold w1 * (a, b) + w2 * (c) ...`"""
    lines = []
    for rule in extracted.rules:
        terms = " + ".join(
            f"{weight:.7g} * ({', '.join(members)})" for weight, members in rule.terms
        )
        lines.append(f"{rule.head}: {rule.threshold:.7g}  {terms}")
    lines.append(f"fidelity: {extracted.fidelity:.4f}")
    return "\n".join(lines) + "\n"


def extracted_rules_to_dict(extracted: ExtractedRuleSet) -> dict:
    return {
        "fidelity": extracted.fidelity,
        "rules": [
            {
                "head": rule.head,
                "threshold": rule.threshold,
                "terms": [
                    {"weight": weight, "antecedents": list(members)}
                    for weight, members in rule.terms
                ],
            }
            for rule in extracted.rules
        ],
    }


# --------------------------------------------------------------------------
# Permutation importance
# --------------------------------------------------------------------------


def permutation_importance(net: Network, data: Dataset, feature: str, repeats: int = 5, seed: int = 0) -> float:
    """Mean accuracy drop over seeded shuffles of one of `net`'s inputs, on `data` matched to them by name."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if feature not in net.input_names:
        raise ValueError(f"unknown feature {feature!r}")
    data = _match_columns(data, net.input_names, "data")
    col = data.feature_names.index(feature)
    truth = data.labels.astype(str)
    base = float((predict_labels(net, data.rows).astype(str) == truth).mean())
    rng = np.random.default_rng(seed)
    drops = []
    for _ in range(repeats):
        shuffled = data.rows.copy()
        shuffled[:, col] = shuffled[rng.permutation(data.n_rows), col]
        acc = float((predict_labels(net, shuffled).astype(str) == truth).mean())
        drops.append(base - acc)
    return float(np.mean(drops))
