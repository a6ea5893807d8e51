"""The type-inference engine facade.

Wires canonicalization, the fact base, forward chaining and backward
matching into a single call::

    engine = TypeInferenceEngine(ruleset, binding=binding)
    result = engine.infer(conditions, equivalences=query_joins)
    print(result.summary())

*binding* is optional: without a KER schema the engine still chains over
whatever rule set it is given (no foreign-key canonicalization, no
domain widening) -- this is the configuration the Motro-style baseline
uses with declared constraints only.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro import obs
from repro.errors import InferenceError
from repro.inference.answers import InferenceResult
from repro.inference.backward import backward_match
from repro.inference.facts import Canonicalizer, FactBase
from repro.inference.forward import forward_chain
from repro.ker.binding import SchemaBinding
from repro.rules.comparisons import propagate_bounds
from repro.rules.clause import AttributeRef, Clause
from repro.rules.ruleset import RuleSet


class TypeInferenceEngine:
    """Forward/backward type inference over a knowledge base."""

    def __init__(self, rules: RuleSet,
                 binding: SchemaBinding | None = None,
                 extra_equivalences: Iterable[
                     tuple[AttributeRef, AttributeRef]] = (),
                 constraints: Iterable = ()):
        self.rules = rules
        self.binding = binding
        #: inter-attribute comparison constraints (bound propagation).
        self.constraints = list(constraints)
        pairs = list(extra_equivalences)
        if binding is not None:
            pairs = binding.foreign_key_pairs() + pairs
        self._base_canonicalizer = Canonicalizer(pairs)
        self._domains = binding.domains() if binding is not None else {}
        if binding is not None:
            from repro.induction.candidates import classification_attributes
            self._classification = tuple(classification_attributes(binding))
        else:
            self._classification = ()
        #: (id(rule), via derived fact) -> the one backward description
        #: all answers share: descriptions are most of the objects an
        #: answer keeps for the garbage collector to track.  Each holds
        #: its rule, so no key's id is reused.
        self._descriptions: dict = {}

    def infer(self, conditions: Sequence[Clause],
              equivalences: Iterable[tuple[AttributeRef, AttributeRef]] = (),
              forward: bool = True, backward: bool = True
              ) -> InferenceResult:
        """Run type inference for the given query conditions.

        Parameters
        ----------
        conditions:
            Interval clauses extracted from the query qualification.
        equivalences:
            Extra attribute equivalences from the query's own equi-join
            conditions (``SUBMARINE.CLASS = CLASS.CLASS``).
        forward / backward:
            Enable each direction (the paper uses them "individually or
            combined").
        """
        with obs.span("inference.infer", conditions=len(conditions),
                      rules=len(self.rules)) as span:
            canonicalizer = self._base_canonicalizer.copy()
            for left, right in equivalences:
                canonicalizer.unite(left, right)
            facts = FactBase(canonicalizer, self._domains)
            derivations, propagations = [], []
            fired: set[int] = set()
            try:
                for clause in conditions:
                    facts.add_condition(clause)
                if forward:
                    derivations, propagations = self._forward(facts, fired)
            except InferenceError:
                # Contradictory conditions, or conclusions derived from
                # them (a condition outside a domain fires every rule on
                # it vacuously): the query denotes the empty set.  That
                # *is* an intensional answer, not an execution failure.
                obs.counter("inference_unsatisfiable_total",
                            "queries proven unsatisfiable from their "
                            "conditions and the rules").inc()
                span.set(outcome="unsatisfiable")
                return InferenceResult(
                    conditions,
                    self._condition_facts(canonicalizer, conditions),
                    [], [], classification_attributes=self._classification,
                    unsatisfiable=True)
            if backward:
                with obs.span("inference.backward") as backward_span:
                    stats: dict = {}
                    descriptions = [
                        self._descriptions.setdefault(
                            (id(item.rule), item.via_derived_fact), item)
                        for item in backward_match(facts, self.rules,
                                                   exclude=fired,
                                                   stats=stats)]
                    backward_span.set(matches=len(descriptions),
                                      examined=stats["examined"])
                if descriptions:
                    obs.counter("inference_backward_matches_total",
                                "backward rule-description matches").inc(
                                    len(descriptions))
            else:
                descriptions = []
            span.set(derivations=len(derivations),
                     descriptions=len(descriptions))
            return InferenceResult(conditions, facts, derivations,
                                   descriptions,
                                   classification_attributes=(
                                       self._classification),
                                   propagations=propagations)

    def _condition_facts(self, canonicalizer: Canonicalizer,
                         conditions: Sequence[Clause]) -> FactBase:
        """The conditions' own facts, up to the first that contradicts
        an earlier one: what an unsatisfiable answer reports.  The facts
        held when a derived contradiction surfaces depend on the order
        the rules fired in; these do not."""
        facts = FactBase(canonicalizer, self._domains)
        for clause in conditions:
            try:
                facts.add_condition(clause)
            except InferenceError:
                break
        return facts

    def _forward(self, facts: FactBase, fired: set[int]
                 ) -> tuple[list, list]:
        """(derivations, propagations) of chaining to fixpoint."""
        derivations, propagations, stats = [], [], {}
        with obs.span("inference.forward") as forward_span:
            for rounds in range(1, 21):
                new_derivations = forward_chain(facts, self.rules,
                                                fired=fired, stats=stats)
                new_propagations = (
                    propagate_bounds(facts, self.constraints)
                    if self.constraints else [])
                derivations.extend(new_derivations)
                propagations.extend(new_propagations)
                if not new_derivations and not new_propagations:
                    break
            forward_span.set(rounds=rounds, fired=len(derivations),
                             propagations=len(propagations),
                             examined=stats["examined"])
        if derivations:
            obs.counter("inference_rules_fired_total",
                        "forward-chaining rule firings").inc(
                            len(derivations))
        return derivations, propagations
