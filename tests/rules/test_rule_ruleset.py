"""Unit tests for rules and rule sets."""

import pytest

from repro.errors import RuleError
from repro.rules.clause import AttributeRef, Clause, Interval
from repro.rules.rule import Rule
from repro.rules.ruleset import RuleSet


def displacement_rule():
    return Rule([Clause.between("CLASS.Displacement", 7250, 30000)],
                Clause.equals("CLASS.Type", "SSBN"),
                support=4, rhs_subtype="SSBN")


def class_rule():
    return Rule([Clause.between("CLASS.Class", "0101", "0103")],
                Clause.equals("CLASS.Type", "SSBN"),
                support=3, rhs_subtype="SSBN")


class TestRule:
    def test_requires_premise(self):
        with pytest.raises(RuleError):
            Rule([], Clause.equals("T.A", 1))

    def test_premise_satisfied_by(self):
        rule = displacement_rule()
        ref = AttributeRef("CLASS", "Displacement")
        assert rule.premise_satisfied_by({ref: 16600})
        assert not rule.premise_satisfied_by({ref: 5000})
        assert not rule.premise_satisfied_by({})

    def test_satisfied_by(self):
        rule = displacement_rule()
        record = {AttributeRef("CLASS", "Displacement"): 16600,
                  AttributeRef("CLASS", "Type"): "SSBN"}
        assert rule.satisfied_by(record)
        record[AttributeRef("CLASS", "Type")] = "SSN"
        assert not rule.satisfied_by(record)

    def test_sound_on(self):
        rule = displacement_rule()
        good = [{AttributeRef("CLASS", "Displacement"): 9000,
                 AttributeRef("CLASS", "Type"): "SSBN"}]
        bad = good + [{AttributeRef("CLASS", "Displacement"): 8000,
                       AttributeRef("CLASS", "Type"): "SSN"}]
        assert rule.sound_on(good)
        assert not rule.sound_on(bad)

    def test_render_isa_style(self):
        rule = displacement_rule()
        assert rule.render(isa_style=True).endswith("then x isa SSBN")
        assert "CLASS.Type = SSBN" in rule.render()

    def test_equality_ignores_support(self):
        left = displacement_rule()
        right = displacement_rule()
        right.support = 99
        assert left == right

    def test_scheme_key(self):
        assert displacement_rule().scheme_key() != class_rule().scheme_key()


class TestRuleSet:
    @pytest.fixture()
    def ruleset(self):
        rules = RuleSet()
        rules.add(displacement_rule())
        rules.add(class_rule())
        return rules

    def test_numbering(self, ruleset):
        assert [rule.number for rule in ruleset] == [1, 2]
        assert ruleset[1].rhs_subtype == "SSBN"
        with pytest.raises(IndexError):
            ruleset[3]

    def test_forward_index(self, ruleset):
        key = ("class", "displacement")
        assert ruleset.premise_positions(
            key, Interval.closed(8000, 9000)) == [0]
        assert ruleset.premise_positions(key, Interval.point(5000)) == []
        assert ruleset.premise_positions(key, Interval.at_least(8000)) == []
        assert ruleset.premise_positions(key, None) == [0]
        assert ruleset.premise_positions(("class", "type"), None) == []

    def test_backward_index(self, ruleset):
        key = ("class", "type")
        assert ruleset.conclusion_positions(
            key, Interval.point("SSBN")) == [0, 1]
        assert ruleset.conclusion_positions(key, Interval.point("SSN")) == []
        assert ruleset.conclusion_positions(
            key, Interval.at_most("SSBN", strict=True)) == []

    def test_premise_attributes(self, ruleset):
        """A premise attribute counts as referenced whether its rules
        sit in sorted runs or in the position list."""
        assert not ruleset.references("SUBMARINE")
        assert not ruleset.references("SONAR")
        ruleset.add(Rule([Clause.between("SUBMARINE.Id", "SSN582",
                                         "SSN601")],
                         Clause.equals("CLASS.Type", "SSN")))
        ruleset.add(Rule([Clause(AttributeRef("SONAR", "Sonar"),
                                 Interval.at_least("BQQ"))],
                         Clause.equals("CLASS.Type", "SSN")))
        assert ruleset.references("SUBMARINE")
        assert ruleset.references("SONAR")

    def test_schemes(self, ruleset):
        schemes = ruleset.schemes()
        assert len(schemes) == 2
        assert schemes[0].render() == (
            "CLASS.Displacement --> CLASS.Type")

    def test_filtered_renumbers(self, ruleset):
        kept = ruleset.filtered(lambda rule: rule.support >= 4)
        assert len(kept) == 1
        assert kept[1].support == 4

    def test_merged_with(self, ruleset):
        merged = ruleset.merged_with(ruleset)
        assert len(merged) == 4
        assert [rule.number for rule in merged] == [1, 2, 3, 4]

    def test_render(self, ruleset):
        text = ruleset.render(isa_style=True)
        assert text.splitlines()[0].startswith("R1:")
