"""Semantic query optimization driven by the induced rule base.

The paper's induced rules are interval implications ("if 8000 <=
Displacement <= 30000 then Type = SSBN").  Before any tuple is scanned,
the planner runs the query's per-relation interval constraints through
the rule base:

* **Contradiction**: when a rule's premises are all implied by the
  query's constraints but its consequence is disjoint from them, no
  tuple can satisfy the query -- execution short-circuits to an empty
  result carrying an intensional explanation ("no CLASS row can have
  Type = SSBN and Displacement < 8000").
* **Tightening**: otherwise the consequence interval intersects the
  query's constraint on the same attribute, narrowing the range an
  index scan has to touch.

This is the same rewrite-before-evaluate idea used for query answering
over conceptual schemas (Calvanese et al.), applied to the induced
interval rules.  Soundness matches the rules': an induced rule holds on
the database it was induced from (and is maintained under updates by the
rule-maintenance subsystem), so rewrites never change the answer.
"""

from __future__ import annotations

from typing import NamedTuple

from repro import obs
from repro.rules.clause import Interval
from repro.rules.rule import Rule
from repro.rules.ruleset import RuleAgenda, RuleSet

#: Fixpoint guard: interval intersection converges fast; this only
#: protects against pathological rule chains.
MAX_PASSES = 10


class SemanticNote(NamedTuple):
    """One applied rewrite, for EXPLAIN output."""

    kind: str  # "tighten" | "contradiction"
    rule: Rule
    message: str

    def render(self) -> str:
        return self.message


class SemanticResult(NamedTuple):
    """Outcome of semantic analysis for one relation's constraints."""

    intervals: dict[str, Interval]  # column key -> (tightened) interval
    contradiction: str | None  # intensional explanation, when proven empty
    notes: list[SemanticNote]


def _rule_applies(rule: Rule, relation_key: str,
                  intervals: dict[str, Interval]) -> bool:
    """Whether every premise of *rule* is implied by the query's
    constraints on the relation keyed *relation_key* (premise interval
    contains the query's interval for that attribute)."""
    if rule.rhs.attribute.key[0] != relation_key:
        return False
    for clause in rule.lhs:
        relation, column = clause.attribute.key
        if relation != relation_key:
            return False
        constraint = intervals.get(column)
        if constraint is None:
            return False
        if not clause.interval.contains(constraint):
            return False
    return True


def analyze(relation_name: str, intervals: dict[str, Interval],
            rules: RuleSet | None) -> SemanticResult:
    """Tighten *intervals* (column key -> interval) for one relation
    against *rules*, or prove them unsatisfiable.

    Only columns the query already constrains are tightened; attributes
    the rules mention but the query does not are left free, so the
    rewrite never invents restrictions the projection could observe.
    Only rules with a premise on a constrained column can apply (of a
    scheme's sorted runs, the one that can contain the constraint); a
    tightened column puts the rules reading it back on the agenda.
    """
    current = dict(intervals)
    notes: list[SemanticNote] = []
    if rules is None or not len(rules) or not current:
        return SemanticResult(current, None, notes)

    key = relation_name.lower()
    with obs.span("plan.semantic", relation=relation_name,
                  constraints=len(current)) as span:
        agenda = RuleAgenda(rules, {
            position for column, constraint in current.items()
            for position in rules.premise_positions((key, column),
                                                    constraint)})
        examined = 0
        for _pass in range(MAX_PASSES):
            if not agenda.next_round():
                break
            for rule in agenda:
                examined += 1
                if not _rule_applies(rule, key, current):
                    continue
                column = rule.rhs.attribute.key[1]
                constraint = current.get(column)
                if constraint is None:
                    continue  # unconstrained column: nothing to tighten
                tightened = constraint.intersect(rule.rhs.interval)
                if tightened is None:
                    premise = " and ".join(c.render() for c in rule.lhs)
                    message = (
                        f"no {relation_name} row can satisfy the query: "
                        f"every row with {premise} has "
                        f"{rule.rhs.render()}, but the query requires "
                        f"{constraint.render(rule.rhs.attribute.render())} "
                        f"(R{rule.number})")
                    notes.append(SemanticNote("contradiction", rule,
                                              message))
                    obs.counter("semantic_rewrites_total",
                                "rule-driven planner rewrites by kind",
                                kind="short_circuit").inc()
                    span.set(outcome="short_circuit",
                             rule=f"R{rule.number}", examined=examined)
                    return SemanticResult(current, message, notes)
                if tightened != constraint:
                    current[column] = tightened
                    notes.append(SemanticNote(
                        "tighten", rule,
                        f"R{rule.number} tightens "
                        f"{rule.rhs.attribute.render()} to "
                        f"{tightened.render(rule.rhs.attribute.render())}"))
                    obs.counter("semantic_rewrites_total",
                                "rule-driven planner rewrites by kind",
                                kind="tighten").inc()
                    agenda.schedule(rules.premise_positions(
                        (key, column), tightened))
        span.set(notes=len(notes), examined=examined)
    return SemanticResult(current, None, notes)
