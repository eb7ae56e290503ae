import itertools

import numpy as np
import pytest

from hornnet.rulelang import (
    HornClause,
    Literal,
    ParseError,
    RuleError,
    evaluate_boolean,
    format_rules,
    parse_rules,
    random_ruleset,
    rewrite_disjuncts,
)


class TestParse:
    def test_ct_knowledge_file(self, ct_rules_text):
        rules = parse_rules(ct_rules_text)
        assert len(rules.clauses) == 3
        assert rules.roots == {"Final_score"}
        assert rules.inputs == {"Conditional", "Loop", "Debug", "Simulation", "Function"}

    def test_minimal_clause(self):
        rules = parse_rules("A :- B.")
        assert rules.roots == {"A"}
        assert rules.inputs == {"B"}

    def test_cycle_rejected(self):
        with pytest.raises(RuleError, match="cycle"):
            parse_rules("A :- B.\nB :- A.")

    def test_self_reference_rejected(self):
        with pytest.raises(RuleError):
            parse_rules("A :- A, B.")

    def test_negation_and_comments(self):
        rules = parse_rules("% header comment\nAlarm :- Sensor, not Muted.  % inline\n")
        (clause,) = rules.clauses
        assert clause.body == (Literal("Sensor"), Literal("Muted", negated=True))

    def test_clause_may_wrap_lines(self):
        rules = parse_rules("Big :-\n  A,\n  B,\n  C.")
        assert len(rules.clauses[0].body) == 3

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_rules("A :- B.\nC :- ;D.")
        assert err.value.line == 2
        assert err.value.col == 6

    def test_empty_body_rejected(self):
        with pytest.raises(ParseError):
            parse_rules("A :- .")

    def test_duplicate_clause_rejected(self):
        with pytest.raises(RuleError, match="duplicate"):
            parse_rules("A :- B.\nA :- B.")

    def test_reserved_suffix_rejected(self):
        with pytest.raises(ParseError, match="reserved"):
            parse_rules("A :- B__d1.")

    def test_not_is_reserved(self):
        with pytest.raises(ParseError):
            parse_rules("not :- A.")

    def test_missing_terminator(self):
        with pytest.raises(ParseError):
            parse_rules("A :- B")

    def test_file_ending_after_the_arrow(self):
        with pytest.raises(ParseError, match="^line 2, column 3: expected an antecedent, found end of file$"):
            parse_rules("A :- B.\nC :-")

    def test_invalid_head_rejected(self):
        with pytest.raises(RuleError, match="^invalid head '1A'$"):
            HornClause("1A", (Literal("B"),))

    def test_round_trip(self, ct_rules_text):
        rules = parse_rules(ct_rules_text)
        again = parse_rules(format_rules(rules))
        assert again == rules

    def test_round_trip_random(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            rules = random_ruleset(rng, multi_clause_prob=0.4)
            assert parse_rules(format_rules(rules)) == rules


class TestRewrite:
    def test_single_clause_heads_untouched(self, ct_rules):
        rewritten = rewrite_disjuncts(ct_rules)
        assert rewritten == ct_rules

    def test_two_clause_head_split(self):
        rules = parse_rules("C :- A.\nC :- B.")
        out = rewrite_disjuncts(rules)
        assert [str(c) for c in out.clauses] == [
            "C :- C__d1.",
            "C :- C__d2.",
            "C__d1 :- A.",
            "C__d2 :- B.",
        ]

    def test_equivalence_exhaustive(self):
        rules = parse_rules("C :- A.\nC :- B.")
        out = rewrite_disjuncts(rules)
        for a, b in itertools.product([False, True], repeat=2):
            assignment = {"A": a, "B": b}
            assert evaluate_boolean(out, assignment)["C"] == (a or b)

    def test_equivalence_random(self):
        rng = np.random.default_rng(101)
        for _ in range(40):
            rules = random_ruleset(rng, max_inputs=8, multi_clause_prob=0.5)
            rewritten = rewrite_disjuncts(rules)
            inputs = sorted(rules.inputs)
            for bits in itertools.product([False, True], repeat=len(inputs)):
                assignment = dict(zip(inputs, bits))
                original = evaluate_boolean(rules, assignment)
                new = evaluate_boolean(rewritten, assignment)
                assert all(new[h] == v for h, v in original.items())

    def test_idempotent(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            rules = random_ruleset(rng, multi_clause_prob=0.5)
            once = rewrite_disjuncts(rules)
            assert rewrite_disjuncts(once) == once


class TestEvaluate:
    def test_ct_all_true(self, ct_rules):
        values = evaluate_boolean(ct_rules, {s: True for s in ct_rules.inputs})
        assert values == {"CT_concepts": True, "CT_skills": True, "Final_score": True}

    def test_ct_loop_false(self, ct_rules):
        assignment = {s: True for s in ct_rules.inputs}
        assignment["Loop"] = False
        values = evaluate_boolean(ct_rules, assignment)
        assert values == {"CT_concepts": False, "CT_skills": True, "Final_score": False}

    def test_single_clause_false_input(self):
        rules = parse_rules("C :- A.")
        assert evaluate_boolean(rules, {"A": False}) == {"C": False}

    def test_negation_semantics(self):
        rules = parse_rules("C :- A, not B.")
        assert evaluate_boolean(rules, {"A": True, "B": False})["C"] is True
        assert evaluate_boolean(rules, {"A": True, "B": True})["C"] is False

    def test_missing_input_rejected(self):
        rules = parse_rules("C :- A, B.")
        with pytest.raises(RuleError, match="missing"):
            evaluate_boolean(rules, {"A": True})


class TestTypes:
    def test_literal_symbol_validated(self):
        with pytest.raises(RuleError):
            Literal("9bad")

    def test_clause_order_preserved(self):
        rules = parse_rules("B :- X.\nA :- Y.")
        assert [c.head for c in rules.clauses] == ["B", "A"]

    def test_ruleset_partition(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rules = random_ruleset(rng)
            heads = set(rules.heads)
            assert rules.inputs.isdisjoint(heads)

    def test_clause_body_nonempty(self):
        with pytest.raises(RuleError):
            HornClause("A", ())
