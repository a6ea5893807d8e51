"""Backward type inference.

"Backward inference uses the known facts to infer what must be true
according to the induced rules" -- reading a rule right-to-left: when a
rule's consequence lies inside an established fact, every instance
satisfying the rule's premise is guaranteed to satisfy the fact, so the
premise *describes a subset of the answers*.  The description can be
incomplete (Example 2: class 1301 is an SSBN but no surviving rule says
so), which is why backward answers characterize a set *contained in* the
extensional answer.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.inference.facts import FactBase
from repro.rules.rule import Rule
from repro.rules.ruleset import RuleSet


class PartialDescription(NamedTuple):
    """One backward-derived subset description."""

    rule: Rule
    #: whether the matched consequence fact came straight from the query
    #: (Example 2) or was itself forward-derived (Example 3).
    via_derived_fact: bool


def backward_match(facts: FactBase, rules: RuleSet,
                   exclude: set[int] | None = None,
                   stats: dict | None = None
                   ) -> list[PartialDescription]:
    """Rules whose consequence is implied by the established facts.

    Only rules concluding on an attribute with a fact can match: the
    rule set's consequence index yields them, per fact, through the
    fact's class of equivalent attributes -- of the point conclusions,
    only the sorted range inside the fact.  *exclude* holds ``id()``s of
    rules to skip -- the engine passes the rules that already fired
    forward, whose backward reading restates them.  *stats* adds the
    number of rules checked to its ``examined`` entry.
    """
    candidates = []
    for ref, fact, sources in facts.facts():
        via_derived = any(source != "query" for source in sources)
        for member in facts.members(ref.key):
            candidates.extend((position, fact, via_derived) for position
                              in rules.conclusion_positions(member, fact))
    out: list[PartialDescription] = []
    examined = 0
    for position, fact, via_derived in sorted(candidates):
        rule = rules[position + 1]
        if exclude and id(rule) in exclude:
            continue
        examined += 1
        if not fact.contains(rule.rhs.interval):
            continue
        if _premise_trivial(rule, facts):
            continue
        out.append(PartialDescription(rule, via_derived))
    out.sort(key=lambda item: -item.rule.support)
    if stats is not None:
        stats["examined"] = stats.get("examined", 0) + examined
    return out


def _premise_trivial(rule: Rule, facts: FactBase) -> bool:
    """A backward description is uninformative when its premise merely
    restates facts already established for every answer (e.g. the rule's
    premise interval contains the query's own condition)."""
    for clause in rule.lhs:
        fact = facts.interval_for(clause.attribute)
        if fact is None or not clause.interval.contains(fact):
            return False
    return True
