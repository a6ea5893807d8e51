"""Property-based tests for inference invariants.

* Forward soundness: whatever interval the engine derives for an
  attribute, every record satisfying the rule base's semantics and the
  query conditions satisfies it (checked by brute-force model
  enumeration over small domains).
* Minimization preserves forward power on random rule sets.
* Canonicalizer laws: equivalence is reflexive/symmetric/transitive.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.inference import Canonicalizer, TypeInferenceEngine
from repro.rules import Clause, Interval, Rule, RuleSet, minimize_ruleset
from repro.rules.clause import AttributeRef

ATTRIBUTES = [AttributeRef("T", name) for name in ("A", "B", "C")]
DOMAIN = list(range(0, 8))


@st.composite
def small_rules(draw):
    lhs_attr = draw(st.sampled_from(ATTRIBUTES))
    rhs_attr = draw(st.sampled_from(
        [a for a in ATTRIBUTES if a != lhs_attr]))
    low = draw(st.integers(0, 7))
    high = draw(st.integers(low, 7))
    rhs_low = draw(st.integers(0, 7))
    rhs_high = draw(st.integers(rhs_low, 7))
    return Rule([Clause(lhs_attr, Interval.closed(low, high))],
                Clause(rhs_attr, Interval.closed(rhs_low, rhs_high)),
                support=draw(st.integers(0, 9)))


rule_sets = st.lists(small_rules(), max_size=6).map(RuleSet)


@st.composite
def conditions(draw):
    attribute = draw(st.sampled_from(ATTRIBUTES))
    low = draw(st.integers(0, 7))
    high = draw(st.integers(low, 7))
    return [Clause(attribute, Interval.closed(low, high))]


def models(rules):
    """All total assignments over the tiny domain consistent with every
    rule (the rule base's models)."""
    out = []
    for values in itertools.product(DOMAIN, repeat=len(ATTRIBUTES)):
        record = dict(zip(ATTRIBUTES, values))
        if all(rule.sound_on([record]) for rule in rules):
            out.append(record)
    return out


class TestForwardSoundness:
    @settings(max_examples=30, deadline=None)
    @given(rule_sets, conditions())
    def test_derived_facts_hold_in_every_model(self, rules, clauses):
        engine = TypeInferenceEngine(rules)
        try:
            result = engine.infer(clauses)
        except Exception:
            # Contradictory knowledge w.r.t. the condition is allowed
            # to raise (unsatisfiable query); nothing to check.
            return
        condition = clauses[0]
        for attribute, interval, _sources in result.facts.facts():
            for record in models(rules):
                if not condition.satisfied_by(
                        record.get(condition.attribute)):
                    continue
                value = record.get(attribute)
                if value is None:
                    continue
                assert interval.contains_value(value), (
                    f"{attribute.render()} in {interval!r} fails on "
                    f"{record}")


class TestMinimizationPreservesForwardPower:
    @settings(max_examples=40, deadline=None)
    @given(rule_sets, conditions())
    def test_same_forward_facts(self, rules, clauses):
        minimized = minimize_ruleset(rules).minimized
        full_engine = TypeInferenceEngine(rules)
        minimal_engine = TypeInferenceEngine(minimized)
        try:
            full = full_engine.infer(clauses, backward=False)
        except Exception:
            return
        minimal = minimal_engine.infer(clauses, backward=False)
        full_facts = {ref.key: interval
                      for ref, interval, _s in full.facts.facts()}
        minimal_facts = {ref.key: interval
                         for ref, interval, _s in minimal.facts.facts()}
        assert full_facts == minimal_facts

    def test_unsatisfiable_facts_do_not_depend_on_rule_order(self):
        """R1 and R2 contradict once R3 fires; the full set's duplicate
        R4 changes which conclusion is held when the contradiction
        surfaces, and the answers must not tell them apart."""
        a, b, c = ATTRIBUTES

        def rule(premise, conclusion):
            return Rule([Clause(premise, Interval.point(0))],
                        Clause(conclusion[0],
                               Interval.point(conclusion[1])))

        rules = RuleSet([rule(a, (b, 0)), rule(a, (b, 1)),
                         rule(c, (a, 0)), rule(a, (b, 1))])
        minimized = minimize_ruleset(rules).minimized
        assert len(minimized) < len(rules)
        clauses = [Clause(c, Interval.point(0))]
        answers = []
        for ruleset in (rules, minimized, RuleSet(list(rules)[::-1])):
            result = TypeInferenceEngine(ruleset).infer(clauses,
                                                        backward=False)
            assert result.unsatisfiable
            answers.append({ref.key: interval for ref, interval, _s
                            in result.facts.facts()})
        assert answers == [{c.key: Interval.point(0)}] * 3


class TestCanonicalizerLaws:
    refs = st.sampled_from(
        [AttributeRef(rel, attr)
         for rel in ("T", "U") for attr in ("A", "B", "C")])

    @given(st.lists(st.tuples(refs, refs), max_size=8), refs, refs, refs)
    def test_equivalence_laws(self, pairs, x, y, z):
        canon = Canonicalizer(pairs)
        assert canon.equivalent(x, x)
        assert canon.equivalent(x, y) == canon.equivalent(y, x)
        if canon.equivalent(x, y) and canon.equivalent(y, z):
            assert canon.equivalent(x, z)

    @given(st.lists(st.tuples(refs, refs), max_size=8), refs)
    def test_canon_is_idempotent(self, pairs, ref):
        canon = Canonicalizer(pairs)
        representative = canon.canon(ref)
        assert canon.canon(representative) == representative
