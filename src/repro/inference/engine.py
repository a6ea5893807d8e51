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

from collections import OrderedDict
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

#: Per-engine inference memo capacity.  Inference is a pure function of
#: (rule-base version, conditions, equivalences, direction flags) --
#: the engine's binding and constraints are fixed at construction -- so
#: the memo needs no invalidation machinery beyond the rule-base
#: version in its key; stale keys simply age out of the LRU.
MEMO_CAPACITY = 512


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
        self._memo: OrderedDict[tuple, InferenceResult] = OrderedDict()
        self.memo_hits = 0
        self.memo_misses = 0

    def infer(self, conditions: Sequence[Clause],
              equivalences: Iterable[tuple[AttributeRef, AttributeRef]] = (),
              forward: bool = True, backward: bool = True
              ) -> InferenceResult:
        """Run type inference for the given query conditions.

        Calls are memoized (unless ``REPRO_CACHE=off``): the result is
        keyed on the rendered conditions, the equivalence pairs, the
        direction flags and the rule-base version, so a re-induced or
        mutated rule set can never satisfy a key minted for the old one.

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
        from repro.cache.core import cache_enabled_default
        equivalences = list(equivalences)
        key = None
        if cache_enabled_default():
            key = (self.rules.version, bool(forward), bool(backward),
                   tuple(clause.render() for clause in conditions),
                   tuple(sorted((left.key, right.key)
                                for left, right in equivalences)))
            memoized = self._memo.get(key)
            if memoized is not None:
                self._memo.move_to_end(key)
                self.memo_hits += 1
                obs.cache_event("infer", "hit")
                return memoized
            self.memo_misses += 1
            obs.cache_event("infer", "miss")
        result = self._infer(conditions, equivalences, forward, backward)
        if key is not None:
            self._memo[key] = result
            while len(self._memo) > MEMO_CAPACITY:
                self._memo.popitem(last=False)
        return result

    def _infer(self, conditions: Sequence[Clause],
               equivalences: Iterable[tuple[AttributeRef, AttributeRef]],
               forward: bool, backward: bool) -> InferenceResult:
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
                    descriptions = backward_match(facts, self.rules,
                                                  exclude=fired, stats=stats)
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
