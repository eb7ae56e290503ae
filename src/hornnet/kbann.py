"""Compile disjunct-free Horn rules into an initialized network, and extract
threshold rules from a trained one.

Compilation maps each head to a sigmoid unit one level above its deepest
antecedent. A conjunctive unit gets links of magnitude omega from its
antecedents and bias -omega*(P - 1/2) (P = positive-literal count); a
disjunctive head ORs its rewrite intermediates with bias -omega/2. Links for
antecedents that are themselves sigmoid units are calibrated: the antecedent's
attainable true/false activation bands are propagated bottom-up, and the link
weight/bias are scaled so a "true" antecedent contributes exactly omega and a
"false" one exactly zero. Raw 0/1 inputs have band gap 1, so first-level links
keep the plain +-omega / -omega*(P - 1/2) values; without the calibration,
sigmoid attenuation (a true conjunction outputs sigmoid(omega/2), not 1)
makes deeper units drift out of their boolean operating points.

Remaining steps: features untouched by rules link into level 1 at noise
scale, a few extra unlabeled "head" units join every hidden level, contiguous
levels are fully connected, everything is perturbed by uniform noise, and the
single root drives a two-unit softmax head (negative class, positive class).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .datakit import Dataset, scale
from .rulelang import RuleSet, evaluate_boolean
from .tensornet import Layer, Network, _sigmoid, forward, predict_labels

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

log = logging.getLogger(__name__)

PASSTHROUGH_SEP = "__via"


class CompileError(ValueError):
    pass


@dataclass
class CompileConfig:
    omega: float = 8.0
    perturb_scale: float = 0.01
    extra_hidden_per_level: int = 3
    knowledge_activation: str = "sigmoid"
    seed: int = 0
    freeze_knowledge_links: bool = False

    def __post_init__(self):
        if self.omega <= 0:
            raise CompileError("omega must be > 0")
        if self.perturb_scale < 0:
            raise CompileError("perturb_scale must be >= 0")
        if self.extra_hidden_per_level < 0:
            raise CompileError("extra_hidden_per_level must be >= 0")
        if self.knowledge_activation != "sigmoid":
            raise CompileError("only sigmoid knowledge units are supported")


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


class _Unit:
    def __init__(self, label, level, kind, parts=None):
        self.label = label
        self.level = level
        self.kind = kind  # "and" | "or" | "thru" | "extra"
        self.parts = parts or []  # (source _Unit or feature name, negated)
        self.index = None
        self.band = None


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

    Requires a disjunct-free rule set (run `rewrite_disjuncts` first), one
    root head, and every rule input present in `feature_names`. `classes` is
    (negative, positive); the root unit drives the positive output.
    """
    config = config or CompileConfig()
    feature_names = list(feature_names)
    classes = list(classes)
    if len(classes) != 2:
        raise CompileError("exactly two classes are required (negative, positive)")
    if len(rules.roots) != 1:
        raise CompileError(f"exactly one root head is required, found {sorted(rules.roots)}")
    unknown = rules.inputs - set(feature_names)
    if unknown:
        raise CompileError(f"rule inputs missing from feature_names: {sorted(unknown)}")
    for head, clauses in rules.clauses_by_head.items():
        if head in rules.disjunctive_heads:
            if any(len(c.body) != 1 or c.body[0].negated for c in clauses):
                raise CompileError(f"disjunctive head {head!r} has non-trivial clauses")
        elif len(clauses) > 1:
            raise CompileError(
                f"head {head!r} has {len(clauses)} clauses; run rewrite_disjuncts first"
            )
    root = next(iter(rules.roots))

    # Level of each symbol: features at 0, heads one above their deepest antecedent.
    level = {name: 0 for name in feature_names}
    for head in rules.topological_heads:
        antecedents = {
            lit.symbol for c in rules.clauses_by_head[head] for lit in c.body
        }
        level[head] = 1 + max(level[s] for s in antecedents)
    n_levels = level[root]

    units_by_level: list[list[_Unit]] = [[] for _ in range(n_levels + 1)]
    placed: dict[tuple[str, int], _Unit] = {}

    def represent(symbol: str, at_level: int):
        """Unit (or raw feature) standing for `symbol` at `at_level`."""
        if level[symbol] == at_level == 0:
            return symbol
        key = (symbol, at_level)
        if key in placed:
            return placed[key]
        if level[symbol] == at_level:
            raise CompileError(f"unit for {symbol!r} not built yet")  # topo order violated
        below = represent(symbol, at_level - 1)
        unit = _Unit(f"{symbol}{PASSTHROUGH_SEP}{at_level}", at_level, "thru", [(below, False)])
        placed[key] = unit
        units_by_level[at_level].append(unit)
        return unit

    for head in rules.topological_heads:
        lvl = level[head]
        clauses = rules.clauses_by_head[head]
        if head in rules.disjunctive_heads:
            parts = [(represent(c.body[0].symbol, lvl - 1), False) for c in clauses]
            unit = _Unit(head, lvl, "or", parts)
        else:
            (clause,) = clauses
            parts = [(represent(lit.symbol, lvl - 1), lit.negated) for lit in clause.body]
            unit = _Unit(head, lvl, "and", parts)
        placed[(head, lvl)] = unit
        units_by_level[lvl].append(unit)

    head_counter = 0
    for lvl in range(1, n_levels + 1):
        for _ in range(config.extra_hidden_per_level):
            head_counter += 1
            units_by_level[lvl].append(_Unit(f"head{head_counter}", lvl, "extra"))

    for lvl in range(1, n_levels + 1):
        for idx, unit in enumerate(units_by_level[lvl]):
            unit.index = idx

    def band_of(part) -> _Band:
        return _RAW_BAND if isinstance(part, str) else part.band

    for lvl in range(1, n_levels + 1):
        for unit in units_by_level[lvl]:
            if unit.kind == "extra":
                continue
            parts_bands = [(band_of(src), neg) for src, neg in unit.parts]
            if unit.kind == "or":
                unit.band = _disjunction_band(config.omega, parts_bands)
            else:
                unit.band = _conjunction_band(config.omega, parts_bands)
            if unit.band.gap <= 0:
                raise CompileError(
                    f"unit {unit.label!r} has no separation between true and false "
                    f"activations at omega={config.omega}; increase omega"
                )

    # Assemble weight matrices level by level.
    omega = config.omega
    feature_index = {name: i for i, name in enumerate(feature_names)}
    layers: list[Layer] = []
    unit_labels: list[list[str]] = []
    widths = [len(feature_names)] + [len(units_by_level[l]) for l in range(1, n_levels + 1)]

    def source_index(part) -> int:
        return feature_index[part] if isinstance(part, str) else part.index

    for lvl in range(1, n_levels + 1):
        n_out, n_in = widths[lvl], widths[lvl - 1]
        weights = np.zeros((n_out, n_in))
        biases = np.zeros(n_out)
        mask = np.zeros((n_out, n_in), dtype=bool)
        for unit in units_by_level[lvl]:
            if unit.kind == "extra":
                continue
            if unit.kind == "or":
                bias = -omega / 2.0
            else:
                p = sum(0.0 if neg else 1.0 for _, neg in unit.parts)
                bias = -omega * (p - 0.5)
            for src, negated in unit.parts:
                band = band_of(src)
                w = omega / band.gap
                col = source_index(src)
                # accumulate: a repeated antecedent (C :- A, A.) keeps AND
                # semantics, and C :- A, not A. cancels to never-fires
                weights[unit.index, col] += -w if negated else w
                bias += (w if negated else -w) * band.f_hi
                mask[unit.index, col] = True
            biases[unit.index] = bias
        layers.append(Layer(weights, biases, "sigmoid", knowledge_mask=mask))
        unit_labels.append([u.label for u in units_by_level[lvl]])

    root_unit = placed[(root, n_levels)]
    root_band = root_unit.band
    n_top = widths[-1]
    out_w = np.zeros((2, n_top))
    out_b = np.zeros(2)
    out_mask = np.zeros((2, n_top), dtype=bool)
    w_root = omega / root_band.gap
    out_w[1, root_unit.index] = w_root
    out_w[0, root_unit.index] = -w_root
    out_b[1] = -omega / 2.0 - w_root * root_band.f_hi
    out_b[0] = omega / 2.0 + w_root * root_band.f_hi
    out_mask[:, root_unit.index] = True
    layers.append(Layer(out_w, out_b, "softmax", knowledge_mask=out_mask))
    unit_labels.append(list(classes))

    # Steps 6-7: full connectivity at noise scale, then perturb everything.
    rng = np.random.default_rng(config.seed)
    s = config.perturb_scale
    for layer in layers:
        base = rng.uniform(-s, s, size=layer.weights.shape)
        base[layer.knowledge_mask] = 0.0
        noise = rng.uniform(-s, s, size=layer.weights.shape)
        layer.weights += base + noise
        layer.biases += rng.uniform(-s, s, size=layer.biases.shape)
        if config.freeze_knowledge_links:
            layer.frozen_mask = layer.knowledge_mask.copy()

    return Network(layers, unit_labels, feature_names, classes)


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


def verify_compiled_logic(
    net: Network,
    rules: RuleSet,
    activation_high: float = 0.85,
    activation_low: float = 0.15,
) -> bool:
    """Exhaustively check a perturbation-free compiled network against the
    boolean oracle: every rule-labeled unit must sit above `activation_high`
    whenever its symbol evaluates true and below `activation_low` otherwise.
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
    return bool(np.all(np.where(want, got > activation_high, got < activation_low)))


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
    training rows, scaled the same way, through the rule system — a unit
    fires when its terms' weighted activation sum exceeds the threshold — and
    measures final-class agreement with the network itself.
    """
    if group_tolerance < 0:
        raise ValueError("group_tolerance must be >= 0")
    if not net.has_knowledge_links():
        raise ValueError(
            "network has no knowledge-labeled units; use the surrogate explainer "
            "(hornnet.explain) for plain models"
        )
    if train_data.n_rows == 0:
        raise ValueError("fidelity is undefined on an empty training set")

    # Each layer's rules, then their replay: layer 0 sees the scaled
    # features, deeper layers the 0/1 firing pattern below. grouped[u, j] is
    # the mean weight of the group that source j falls in, so a unit's margin
    # is its grouped weighted sum minus its threshold; the final class is the
    # output unit with the best margin.
    rules = []
    values = scale(train_data.rows, net.input_bounds)
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

    rule_classes = np.asarray(net.output_names, dtype=object)[margins.argmax(axis=1)]
    net_classes = predict_labels(net, train_data.rows)
    fidelity = float((rule_classes == net_classes).mean())
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
    """Mean accuracy drop over seeded shuffles of one feature column."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    try:
        col = data.feature_names.index(feature)
    except ValueError:
        raise ValueError(f"unknown feature {feature!r}") from None
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
