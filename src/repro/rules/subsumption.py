"""Rule-level subsumption (the logic behind rule-set minimization).

A rule is redundant when a more general rule fires whenever it does and
concludes at least as much.  The clause-level check type inference
makes -- a query condition subsumed by a rule premise, widened by the
attribute's declared domain -- lives with the facts it reads, in
:meth:`repro.inference.facts.FactBase.implies`.
"""

from __future__ import annotations

from repro.rules.rule import Rule


def rule_subsumed_by(general: Rule, specific: Rule) -> bool:
    """Whether *specific* is redundant given *general*: same consequence
    implied, and every *specific* premise implies a *general* premise.

    Used by rule-set minimization: if the general rule fires whenever the
    specific one does and concludes at least as much, the specific rule
    adds nothing.
    """
    if not general.rhs.implies(specific.rhs):
        return False
    for general_clause in general.lhs:
        matching = [c for c in specific.lhs
                    if c.attribute == general_clause.attribute]
        if not matching:
            return False
        if not any(c.implies(general_clause) for c in matching):
            return False
    return True
