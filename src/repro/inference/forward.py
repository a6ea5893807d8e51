"""Forward type inference (Modus Ponens over interval subsumption).

"Using forward inference, we can traverse the type hierarchies of the
object types specified in the query based on the query condition and the
with constraints to derive intensional answers."  A rule fires when the
established fact on each premise attribute is *subsumed by* the premise
interval (the declared attribute domain widens the check: Displacement >
8000 within a [2000..30000] domain is subsumed by [7250..30000]).  Fired
rules add their consequences as new facts; chaining runs to fixpoint, so
a derived ``SonarType = BQS`` can enable further rules.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.inference.facts import FactBase
from repro.rules.clause import Clause
from repro.rules.rule import Rule
from repro.rules.ruleset import RuleAgenda, RuleSet


class ForwardDerivation(NamedTuple):
    """One forward-derived fact."""

    rule: Rule
    clause: Clause        #: the consequence asserted
    narrowed: bool        #: whether it changed the fact base
    #: snapshot of the established fact on each premise attribute at the
    #: moment the rule fired (the subsumption witnesses) -- used by
    #: :mod:`repro.inference.explain` to print derivation traces.
    triggers: tuple = ()


def rule_fires(rule: Rule, facts: FactBase) -> bool:
    """Whether every premise of *rule* is implied by the current facts."""
    for clause in rule.lhs:
        if not facts.implies(clause):
            return False
    return True


def forward_chain(facts: FactBase, rules: RuleSet,
                  max_iterations: int = 100,
                  fired: set[int] | None = None,
                  stats: dict | None = None
                  ) -> list[ForwardDerivation]:
    """Run forward inference to fixpoint; returns the derivations in
    firing order.  Each rule fires at most once.

    Each round checks, in rule-number order, only the rules the premise
    index yields for attributes (or their foreign-key and join-equivalent
    spellings) whose fact appeared or narrowed since the rule was last
    checked: narrowing only ever enables rules, so no other can fire.
    Of each scheme's sorted runs the index yields the one that can
    contain the fact.

    Passing *fired* lets the engine interleave chaining with bound
    propagation without re-firing rules across rounds; *stats* adds the
    number of rules checked to its ``examined`` entry.
    """
    derivations: list[ForwardDerivation] = []
    if fired is None:
        fired = set()
    examined = 0
    agenda = RuleAgenda(rules, _premise_positions(
        facts, rules, [ref.key for ref, _interval, _sources
                       in facts.facts()]))
    for _round in range(max_iterations):
        if not agenda.next_round():
            break
        for rule in agenda:
            if id(rule) in fired:
                continue
            examined += 1
            if not rule_fires(rule, facts):
                continue
            fired.add(id(rule))
            triggers = tuple(
                Clause(premise.attribute,
                       facts.interval_for(premise.attribute))
                for premise in rule.lhs)
            narrowed = facts.assert_interval(
                rule.rhs.attribute, rule.rhs.interval, rule)
            derivations.append(ForwardDerivation(
                rule, rule.rhs, narrowed, triggers))
            if narrowed:
                agenda.schedule(_premise_positions(
                    facts, rules, [facts.key_of(rule.rhs.attribute)]))
    if stats is not None:
        stats["examined"] = stats.get("examined", 0) + examined
    return derivations


def _premise_positions(facts: FactBase, rules: RuleSet,
                       keys: list[tuple[str, str]]) -> set[int]:
    """Positions of the rules with a premise on any attribute in the
    classes of the canonical *keys* that the class's fact, narrowed to
    its domain, may imply."""
    return {position for key in keys for member in facts.members(key)
            for position in rules.premise_positions(member,
                                                    facts.effective(key))}
