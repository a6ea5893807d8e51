"""Rule representation.

The knowledge the ILS induces is a set of Horn rules whose clauses are
attribute value ranges (Section 5.2.2)::

    if C_L1 and ... and C_Ln then C_R

with every clause an inclusive interval ``(lvalue, attribute, uvalue)``.
This package provides:

* :class:`~repro.rules.clause.Interval` -- closed/open/unbounded interval
  values with containment and intersection.
* :class:`~repro.rules.clause.AttributeRef` / :class:`~repro.rules.clause.Clause`.
* :class:`~repro.rules.rule.Rule` and :class:`~repro.rules.ruleset.RuleSet`
  (grouped into rule schemes ``X --> Y``).
* :mod:`~repro.rules.rule_relations` -- the relational encoding that lets
  knowledge relocate with the database.
* :mod:`~repro.rules.subsumption` -- the rule-level subsumption test
  rule-set minimization relies on.
"""

from repro.rules.clause import AttributeRef, Clause, Interval
from repro.rules.rule import Rule
from repro.rules.ruleset import RuleScheme, RuleSet
from repro.rules.rule_relations import (
    decode_rule_relations, encode_rule_relations, RULE_RELATION_NAME,
    ATTRIBUTE_MAP_NAME, VALUE_MAP_NAME, SUPPORT_RELATION_NAME,
)
from repro.rules.minimize import MinimizationResult, minimize_ruleset

__all__ = [
    "AttributeRef",
    "Clause",
    "Interval",
    "Rule",
    "RuleScheme",
    "RuleSet",
    "encode_rule_relations",
    "decode_rule_relations",
    "RULE_RELATION_NAME",
    "ATTRIBUTE_MAP_NAME",
    "VALUE_MAP_NAME",
    "SUPPORT_RELATION_NAME",
    "MinimizationResult",
    "minimize_ruleset",
]
