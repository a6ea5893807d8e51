"""Unit tests for subsumption/implication checks.

The clause- and rule-level checks type inference makes are exercised
through the functions that make them: forward chaining fires a rule
when the facts are subsumed by its premises, backward matching keeps a
rule whose consequence lies inside a fact.
"""

from repro.inference.backward import backward_match
from repro.inference.facts import FactBase
from repro.inference.forward import forward_chain
from repro.rules.clause import AttributeRef, Clause, Interval
from repro.rules.rule import Rule
from repro.rules.ruleset import RuleSet
from repro.rules.subsumption import rule_subsumed_by

DISP = AttributeRef("CLASS", "Displacement")
TYPE = AttributeRef("CLASS", "Type")
CLASS = AttributeRef("CLASS", "Class")


def fires(rule, conditions, domains=None):
    """Whether forward chaining over *rule* alone fires it, given the
    query *conditions* (attribute -> interval) and declared *domains*."""
    facts = FactBase(domains=domains)
    for attribute, interval in conditions.items():
        facts.add_condition(Clause(attribute, interval))
    derivations = forward_chain(facts, RuleSet([rule]))
    return [derivation.rule for derivation in derivations] == [rule]


def matches(rule, attribute, fact):
    """Whether backward matching over *rule* alone describes answers
    whose *attribute* is established to lie in *fact*."""
    facts = FactBase()
    facts.add_condition(Clause(attribute, fact))
    descriptions = backward_match(facts, RuleSet([rule]))
    return [description.rule for description in descriptions] == [rule]


def single(premise, attribute=DISP):
    return Rule([Clause(attribute, premise)],
                Clause(TYPE, Interval.point("SSBN")))


class TestIntervalSubsumes:
    def test_plain_containment(self):
        assert fires(single(Interval.closed(1, 10)),
                     {DISP: Interval.closed(2, 9)})

    def test_paper_domain_widening(self):
        rule = single(Interval.closed(7250, 30000))
        condition = {DISP: Interval.at_least(8000, strict=True)}
        domain = {DISP: Interval.closed(2000, 30000)}
        assert not fires(rule, condition)
        assert fires(rule, condition, domain)

    def test_condition_outside_domain_vacuous(self):
        assert fires(single(Interval.closed(1, 2)),
                     {DISP: Interval.at_least(99999)},
                     {DISP: Interval.closed(0, 100)})


class TestClauseSubsumes:
    def test_requires_same_attribute(self):
        assert not fires(single(Interval.closed(1, 10)),
                         {TYPE: Interval.point("SSN")})

    def test_with_domains(self):
        # The domain of another attribute does not widen the premise.
        rule = single(Interval.closed(7250, 30000))
        condition = {DISP: Interval.at_least(8000, strict=True)}
        assert fires(rule, condition, {DISP: Interval.closed(2000, 30000)})
        assert not fires(rule, condition,
                         {CLASS: Interval.closed(2000, 30000)})


class TestForwardFiring:
    RULE = Rule([Clause(DISP, Interval.closed(7250, 30000))],
                Clause(TYPE, Interval.point("SSBN")))

    def test_fires_on_subsumed_condition(self):
        assert fires(self.RULE, {DISP: Interval.closed(9000, 10000)})

    def test_blocked_without_condition(self):
        assert not fires(self.RULE, {})

    def test_blocked_on_wider_condition(self):
        assert not fires(self.RULE, {DISP: Interval.closed(5000, 10000)})

    def test_multi_premise_needs_all(self):
        rule = Rule([Clause(DISP, Interval.closed(1, 10)),
                     Clause(TYPE, Interval.point("SSN"))],
                    Clause(CLASS, Interval.point("0201")))
        assert not fires(rule, {DISP: Interval.closed(2, 3)})
        assert not fires(rule, {TYPE: Interval.point("SSN")})
        assert fires(rule, {DISP: Interval.closed(2, 3),
                            TYPE: Interval.point("SSN")})


class TestBackwardMatching:
    RULE = Rule([Clause(CLASS, Interval.closed("0101", "0103"))],
                Clause(TYPE, Interval.point("SSBN")))

    def test_matches_point_fact(self):
        assert matches(self.RULE, TYPE, Interval.point("SSBN"))

    def test_requires_fact_containing_consequence(self):
        assert not matches(self.RULE, TYPE, Interval.point("SSN"))

    def test_requires_matching_attribute(self):
        assert not matches(self.RULE, DISP, Interval.point("SSBN"))


class TestRuleSubsumption:
    def test_general_subsumes_specific(self):
        general = Rule([Clause(DISP, Interval.closed(1, 100))],
                       Clause(TYPE, Interval.point("SSN")))
        specific = Rule([Clause(DISP, Interval.closed(10, 20))],
                        Clause(TYPE, Interval.point("SSN")))
        assert rule_subsumed_by(general, specific)
        assert not rule_subsumed_by(specific, general)

    def test_different_consequence_not_subsumed(self):
        general = Rule([Clause(DISP, Interval.closed(1, 100))],
                       Clause(TYPE, Interval.point("SSN")))
        other = Rule([Clause(DISP, Interval.closed(10, 20))],
                     Clause(TYPE, Interval.point("SSBN")))
        assert not rule_subsumed_by(general, other)

    def test_missing_premise_attribute(self):
        general = Rule([Clause(TYPE, Interval.point("SSN"))],
                       Clause(DISP, Interval.closed(1, 10)))
        specific = Rule([Clause(DISP, Interval.closed(1, 5))],
                        Clause(DISP, Interval.closed(1, 10)))
        assert not rule_subsumed_by(general, specific)
