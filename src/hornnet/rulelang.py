"""Propositional Horn-clause rule files: parsing, validation, rewriting, evaluation.

A rule file is plain UTF-8 text, one clause per ``.``-terminated statement::

    Final_score :- CT_concepts, CT_skills.
    CT_concepts :- Conditional, Loop.
    % comments run to end of line
    Alarm :- Sensor, not Maintenance_mode.

Heads with several defining clauses are disjunctive; `rewrite_disjuncts`
splits them into single-clause intermediate heads so each unit of a compiled
network encodes either a pure AND or a pure OR.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "Literal",
    "HornClause",
    "RuleSet",
    "RuleError",
    "ParseError",
    "parse_rules",
    "format_rules",
    "rewrite_disjuncts",
    "evaluate_boolean",
    "random_ruleset",
]

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# Suffixes minted by rewrite_disjuncts / network compilation; user files may
# not claim them, so generated names can never collide, and clauses
# ``H :- H__d1.`` ... ``H :- H__dk.`` can only be the rewrite's OR form.
_RESERVED_SUFFIX_RE = re.compile(r"__(?:d|via)\d+$")


class RuleError(ValueError):
    """Structurally invalid rule set (cycle, duplicate clause, bad symbol...)."""


class ParseError(RuleError):
    """Syntax error in a rule file, with 1-based line/column position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Literal:
    symbol: str
    negated: bool = False

    def __post_init__(self):
        if not IDENT_RE.fullmatch(self.symbol):
            raise RuleError(f"invalid symbol {self.symbol!r}")

    def __str__(self):
        return f"not {self.symbol}" if self.negated else self.symbol


@dataclass(frozen=True)
class HornClause:
    head: str
    body: tuple[Literal, ...]

    def __post_init__(self):
        if not IDENT_RE.fullmatch(self.head):
            raise RuleError(f"invalid head {self.head!r}")
        object.__setattr__(self, "body", tuple(self.body))
        if len(self.body) == 0:
            raise RuleError(f"clause for {self.head!r} has an empty body")
        if any(lit.symbol == self.head for lit in self.body):
            raise RuleError(f"head {self.head!r} appears in its own body")

    def __str__(self):
        return f"{self.head} :- " + ", ".join(str(lit) for lit in self.body) + "."


class RuleSet:
    """An ordered, acyclic collection of Horn clauses; two rule sets are equal
    when their clauses are. A head with several clauses is their OR."""

    def __init__(self, clauses):
        self.clauses: tuple[HornClause, ...] = tuple(clauses)

        seen = set()
        by_head: dict[str, list[HornClause]] = {}
        for clause in self.clauses:
            key = (clause.head, clause.body)
            if key in seen:
                raise RuleError(f"duplicate clause: {clause}")
            seen.add(key)
            by_head.setdefault(clause.head, []).append(clause)
        self.clauses_by_head = by_head

        self.heads: tuple[str, ...] = tuple(by_head)  # first-clause order
        body_symbols = {lit.symbol for c in self.clauses for lit in c.body}
        self.inputs = frozenset(body_symbols - set(self.heads))
        self.roots = frozenset(set(self.heads) - body_symbols)
        self.topological_heads = self._topological_order()

    def _topological_order(self) -> tuple[str, ...]:
        deps = {
            h: {lit.symbol for c in self.clauses_by_head[h] for lit in c.body if lit.symbol in self.clauses_by_head}
            for h in self.heads
        }
        order = []
        resolved: set[str] = set()
        pending = list(self.heads)
        while pending:
            progressed = False
            remaining = []
            for head in pending:
                if deps[head] <= resolved:
                    order.append(head)
                    resolved.add(head)
                    progressed = True
                else:
                    remaining.append(head)
            pending = remaining
            if pending and not progressed:
                raise RuleError(f"cycle detected among heads: {sorted(pending)}")
        return tuple(order)

    def __eq__(self, other):
        if not isinstance(other, RuleSet):
            return NotImplemented
        return self.clauses == other.clauses

    def __repr__(self):
        return f"RuleSet({len(self.clauses)} clauses, roots={sorted(self.roots)})"


# --------------------------------------------------------------------------
# Parsing / serialization
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|:-|[,.]")


def _tokenize(text: str):
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("%", 1)[0]
        pos = 0
        while pos < len(line):
            if line[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(line, pos)
            if m is None:
                raise ParseError(f"unexpected character {line[pos]!r}", lineno, pos + 1)
            tokens.append((m.group(0), lineno, pos + 1))
            pos = m.end()
    return tokens


def parse_rules(text: str) -> RuleSet:
    """Parse rule-file text into a validated RuleSet (clauses in file order)."""
    tokens = _tokenize(text)
    clauses = []
    i = 0

    def expect_ident(what: str) -> tuple[str, int, int]:
        nonlocal i
        if i >= len(tokens):
            last = tokens[-1] if tokens else ("", 1, 1)
            raise ParseError(f"expected {what}, found end of file", last[1], last[2])
        value, line, col = tokens[i]
        if not IDENT_RE.fullmatch(value):
            raise ParseError(f"expected {what}, found {value!r}", line, col)
        if value == "not":
            raise ParseError("'not' is a keyword, not a symbol", line, col)
        if _RESERVED_SUFFIX_RE.search(value):
            raise ParseError(f"{value!r} uses a reserved generated-name suffix", line, col)
        i += 1
        return value, line, col

    def expect(tok: str):
        nonlocal i
        if i >= len(tokens):
            last = tokens[-1]
            raise ParseError(f"expected {tok!r}, found end of file", last[1], last[2])
        value, line, col = tokens[i]
        if value != tok:
            raise ParseError(f"expected {tok!r}, found {value!r}", line, col)
        i += 1

    while i < len(tokens):
        head, _, _ = expect_ident("a clause head")
        expect(":-")
        body = []
        while True:
            negated = False
            if i < len(tokens) and tokens[i][0] == "not":
                i += 1
                negated = True
            symbol, line, col = expect_ident("an antecedent")
            body.append(Literal(symbol, negated))
            if i < len(tokens) and tokens[i][0] == ",":
                i += 1
                continue
            break
        expect(".")
        try:
            clauses.append(HornClause(head, tuple(body)))
        except RuleError as exc:
            raise ParseError(str(exc), line, col) from exc

    return RuleSet(clauses)


def format_rules(rules: RuleSet) -> str:
    """Render a RuleSet back to rule-file text; parse(format(r)) == r for parsed r."""
    return "".join(f"{clause}\n" for clause in rules.clauses)


# --------------------------------------------------------------------------
# Disjunct elimination
# --------------------------------------------------------------------------


def rewrite_disjuncts(rules: RuleSet) -> RuleSet:
    """Split every multi-clause head into fresh single-clause intermediates.

    A head with k > 1 clauses becomes k clauses ``<head> :- <head>__di``, the
    OR form, each intermediate taking one original body. A clause that already
    names an intermediate of its head with clauses in the set stays a branch;
    the others' intermediates are numbered after the largest i in use. Heads
    whose clauses are all branches and single-clause heads pass through
    unchanged, so the rewrite is idempotent and boolean-equivalent on the
    original heads.
    """

    def index(head, symbol):
        """i when `symbol` is ``<head>__di``, else 0."""
        match = re.fullmatch(re.escape(head) + r"__d(\d+)", symbol)
        return int(match.group(1)) if match else 0

    def is_branch(clause):
        lit, *rest = clause.body
        return not (rest or lit.negated) and lit.symbol in rules.clauses_by_head and index(clause.head, lit.symbol) > 0

    multi = {head for head, cs in rules.clauses_by_head.items() if len(cs) > 1 and not all(map(is_branch, cs))}
    if not multi:
        return rules

    out = []
    for clause in rules.clauses:
        head, clauses = clause.head, rules.clauses_by_head[clause.head]
        if head not in multi:
            out.append(clause)
        elif clause is clauses[0]:  # a head's rewrite takes its first clause's place
            moved = [c for c in clauses if not is_branch(c)]
            first = 1 + max(index(head, symbol) for symbol in (*rules.heads, *rules.inputs))
            names = {c: f"{head}__d{i}" for i, c in enumerate(moved, first)}
            out.extend(HornClause(head, (Literal(names[c]),)) if c in names else c for c in clauses)
            out.extend(HornClause(names[c], c.body) for c in moved)
    return RuleSet(out)


# --------------------------------------------------------------------------
# Boolean evaluation (the truth-table oracle used by compilation tests)
# --------------------------------------------------------------------------


def evaluate_boolean(rules: RuleSet, assignment: dict[str, bool]) -> dict[str, bool]:
    """Evaluate every head bottom-up for a boolean assignment of the inputs."""
    missing = rules.inputs - assignment.keys()
    if missing:
        raise RuleError(f"assignment missing input symbols: {sorted(missing)}")
    values = {s: bool(assignment[s]) for s in rules.inputs}
    for head in rules.topological_heads:
        values[head] = any(
            all(values[lit.symbol] != lit.negated for lit in clause.body)
            for clause in rules.clauses_by_head[head]
        )
    return {head: values[head] for head in rules.heads}


# --------------------------------------------------------------------------
# Random rule sets for fuzz / property tests
# --------------------------------------------------------------------------


def random_ruleset(
    rng,
    max_inputs: int = 10,
    max_levels: int = 3,
    max_heads_per_level: int = 3,
    max_body: int = 4,
    negation_prob: float = 0.2,
    multi_clause_prob: float = 0.0,
) -> RuleSet:
    """Generate a random acyclic rule set with a single root head.

    Antecedents of a level-L head are drawn from inputs and lower-level
    heads, so depth never exceeds `max_levels`. With `multi_clause_prob` > 0
    some heads get a second defining clause (a disjunct, for rewrite tests).
    """
    n_inputs = int(rng.integers(2, max_inputs + 1))
    inputs = [f"f{i}" for i in range(n_inputs)]
    available = list(inputs)
    clauses = []
    bodies_by_head: dict[str, set] = {}

    def draw_body(pool) -> tuple[Literal, ...]:
        size = int(rng.integers(1, min(max_body, len(pool)) + 1))
        picks = rng.choice(len(pool), size=size, replace=False)
        return tuple(
            Literal(pool[int(p)], bool(rng.random() < negation_prob)) for p in sorted(picks)
        )

    n_levels = int(rng.integers(1, max_levels + 1))
    for level in range(1, n_levels + 1):
        pool = list(available)
        n_heads = int(rng.integers(1, max_heads_per_level + 1))
        new_heads = []
        for h in range(n_heads):
            head = f"h{level}_{h}"
            bodies_by_head[head] = set()
            n_clauses = 2 if rng.random() < multi_clause_prob else 1
            for _ in range(n_clauses):
                for _attempt in range(20):
                    body = draw_body(pool)
                    if body not in bodies_by_head[head]:
                        bodies_by_head[head].add(body)
                        clauses.append(HornClause(head, body))
                        break
            new_heads.append(head)
        available.extend(new_heads)

    interim = RuleSet(clauses)
    if len(interim.roots) > 1:
        clauses.append(HornClause("goal", tuple(Literal(r) for r in sorted(interim.roots))))
        interim = RuleSet(clauses)
    return interim
