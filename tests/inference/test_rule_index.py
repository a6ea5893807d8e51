"""Index-driven rule lookup against the full-scan reference.

Forward chaining, backward matching and the planner's semantic pass
look their candidate rules up through the rule set's attribute indexes.
This module keeps the full scans they replace -- every rule checked on
every round, in rule-number order -- as the reference, and requires
identical results: derivations in the same order with the same
``narrowed`` flags and trigger snapshots, the same backward
descriptions, the same planner notes and the same errors.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.induction import InductionConfig, InductiveLearningSubsystem
from repro.inference import TypeInferenceEngine
from repro.inference import engine as engine_module
from repro.inference.backward import PartialDescription, backward_match
from repro.inference.explain import explain_inference
from repro.inference.facts import Canonicalizer, FactBase
from repro.inference.forward import ForwardDerivation, forward_chain
from repro.plan import semantic
from repro.plan.planner import plan_select
from repro.query.conditions import extract_conditions
from repro.rules.clause import AttributeRef, Clause, Interval
from repro.rules.rule import Rule
from repro.rules.ruleset import RuleSet
from repro.sql.parser import parse_select
from repro.synth import build_instance
from repro.synth.workload import ProgramGenerator

from tests.conftest import EXAMPLE_1, EXAMPLE_2, EXAMPLE_3

# ---------------------------------------------------------------------------
# the full-scan reference


def reference_rule_fires(rule, facts):
    for clause in rule.lhs:
        fact = facts.interval_for(clause.attribute)
        if fact is None:
            return False
        domain = facts.domain_for(clause.attribute)
        if domain is not None:
            fact = fact.intersect(domain)
            if fact is None:
                continue  # the fact excludes every legal value
        if not clause.interval.contains(fact):
            return False
    return True


def reference_forward_chain(facts, rules, max_iterations=100, fired=None,
                            stats=None):
    derivations = []
    if fired is None:
        fired = set()
    if stats is not None:
        stats.setdefault("examined", 0)
    for _round in range(max_iterations):
        progressed = False
        for rule in rules:
            if id(rule) in fired:
                continue
            if stats is not None:
                stats["examined"] += 1
            if not reference_rule_fires(rule, facts):
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
            progressed = True
        if not progressed:
            break
    return derivations


def reference_backward_match(facts, rules, exclude=None, stats=None):
    out = []
    if stats is not None:
        stats["examined"] = len(rules)
    for rule in rules:
        if exclude and id(rule) in exclude:
            continue
        fact = facts.interval_for(rule.rhs.attribute)
        if fact is None:
            continue
        if not fact.contains(rule.rhs.interval):
            continue
        if all(facts.interval_for(clause.attribute) is not None
               and clause.interval.contains(
                   facts.interval_for(clause.attribute))
               for clause in rule.lhs):
            continue  # the premise restates established facts
        sources = facts.sources_for(rule.rhs.attribute)
        out.append(PartialDescription(
            rule, any(source != "query" for source in sources)))
    out.sort(key=lambda item: -item.rule.support)
    return out


def reference_analyze(relation_name, intervals, rules):
    current = dict(intervals)
    notes = []
    if rules is None or not len(rules) or not current:
        return semantic.SemanticResult(current, None, notes)
    key = relation_name.lower()

    def applies(rule):
        if rule.rhs.attribute.relation.lower() != key:
            return False
        for clause in rule.lhs:
            if clause.attribute.relation.lower() != key:
                return False
            constraint = current.get(clause.attribute.attribute.lower())
            if constraint is None or not clause.interval.contains(
                    constraint):
                return False
        return True

    for _pass in range(semantic.MAX_PASSES):
        changed = False
        for rule in rules:
            if not applies(rule):
                continue
            column = rule.rhs.attribute.attribute.lower()
            constraint = current.get(column)
            if constraint is None:
                continue
            tightened = constraint.intersect(rule.rhs.interval)
            if tightened is None:
                premise = " and ".join(c.render() for c in rule.lhs)
                message = (
                    f"no {relation_name} row can satisfy the query: "
                    f"every row with {premise} has {rule.rhs.render()}, "
                    f"but the query requires "
                    f"{constraint.render(rule.rhs.attribute.render())} "
                    f"(R{rule.number})")
                notes.append(semantic.SemanticNote("contradiction", rule,
                                                   message))
                return semantic.SemanticResult(current, message, notes)
            if tightened != constraint:
                current[column] = tightened
                notes.append(semantic.SemanticNote(
                    "tighten", rule,
                    f"R{rule.number} tightens "
                    f"{rule.rhs.attribute.render()} to "
                    f"{tightened.render(rule.rhs.attribute.render())}"))
                changed = True
        if not changed:
            break
    return semantic.SemanticResult(current, None, notes)


@contextmanager
def full_scan():
    """Run the engine's chaining and matching through the reference."""
    with mock.patch.object(engine_module, "forward_chain",
                           reference_forward_chain), \
            mock.patch.object(engine_module, "backward_match",
                              reference_backward_match):
        yield


# ---------------------------------------------------------------------------
# comparable views


def _source(source):
    return source if isinstance(source, str) else id(source)


def facts_view(facts):
    return [(ref.key, interval, tuple(map(_source, sources)))
            for ref, interval, sources in facts.facts()]


def derivations_view(derivations):
    return [(id(d.rule), d.clause, d.narrowed, d.triggers)
            for d in derivations]


def descriptions_view(descriptions):
    return [(id(d.rule), d.via_derived_fact) for d in descriptions]


def result_view(result):
    return (result.unsatisfiable, derivations_view(result.forward),
            descriptions_view(result.backward),
            [(p.constraint, p.clause, p.narrowed)
             for p in result.propagations],
            facts_view(result.facts), result.summary(),
            explain_inference(result))


def semantic_view(result):
    return (result.intervals, result.contradiction,
            [(note.kind, id(note.rule), note.message)
             for note in result.notes])


def outcome(run, view):
    """``view(run())``, or the error it raised."""
    try:
        return view(run())
    except Exception as error:  # compared across implementations
        return ("error", type(error).__name__, str(error))


def assert_same_inference(engine, conditions, equivalences=()):
    """The engine's inference equals the full-scan reference's."""
    equivalences = list(equivalences)

    def run():
        return engine.infer(conditions, equivalences)

    with full_scan():
        expected = outcome(run, result_view)
    assert outcome(run, result_view) == expected
    return expected


@contextmanager
def recorded_semantic_pass():
    """Record, for every semantic-pass call the planner makes, the
    reference's outcome and the index-driven pass's."""
    analyze = semantic.analyze
    calls = []

    def recording(relation_name, intervals, rules):
        calls.append((
            outcome(lambda: reference_analyze(relation_name, intervals,
                                              rules), semantic_view),
            outcome(lambda: analyze(relation_name, intervals, rules),
                    semantic_view)))
        return analyze(relation_name, intervals, rules)

    with mock.patch.object(semantic, "analyze", recording):
        yield calls


def chained(facts_factory, rules, **kwargs):
    """(derivations, facts) of forward chaining on a fresh fact base,
    through the index and through the reference."""
    out = []
    for chain in (forward_chain, reference_forward_chain):
        facts = facts_factory()
        out.append(outcome(
            lambda: (derivations_view(chain(facts, rules, **kwargs)),
                     facts_view(facts)), lambda value: value))
    return out


# ---------------------------------------------------------------------------
# named cases

A = AttributeRef("T", "A")
B = AttributeRef("T", "B")
C = AttributeRef("T", "C")
D = AttributeRef("T", "D")


def rule(premises, conclusion, support=1):
    return Rule([Clause(attr, interval) for attr, interval in premises],
                Clause(*conclusion), support=support)


def facts_with(*conditions, pairs=(), domains=None):
    def build():
        facts = FactBase(Canonicalizer(pairs), domains)
        for attribute, interval in conditions:
            facts.add_condition(Clause(attribute, interval))
        return facts
    return build


def numbers(derivations):
    return [derivation.rule.number for derivation in derivations]


class TestNamedCases:
    def test_later_rule_enabled_mid_round_fires_same_round(self):
        rules = RuleSet([
            rule([(A, Interval.closed(0, 10))], (B, Interval.point(1))),
            rule([(B, Interval.point(1))], (C, Interval.point(2)))])
        build = facts_with((A, Interval.point(5)))
        indexed, reference = chained(build, rules, max_iterations=1)
        assert indexed == reference
        assert numbers(forward_chain(build(), rules,
                                     max_iterations=1)) == [1, 2]

    def test_earlier_rule_enabled_mid_round_fires_next_round(self):
        rules = RuleSet([
            rule([(B, Interval.point(1))], (C, Interval.point(2))),
            rule([(A, Interval.closed(0, 10))], (B, Interval.point(1)))])
        build = facts_with((A, Interval.point(5)))
        for rounds in (1, 2):
            indexed, reference = chained(build, rules,
                                         max_iterations=rounds)
            assert indexed == reference
        assert numbers(forward_chain(build(), rules,
                                     max_iterations=1)) == [2]
        assert numbers(forward_chain(build(), rules)) == [2, 1]

    def test_mid_round_narrowing_of_an_existing_fact(self):
        # B already has a fact; R2 narrows it, which enables R4 in the
        # same round and R1 in the next; R3 stays blocked.
        rules = RuleSet([
            rule([(B, Interval.closed(0, 20))], (C, Interval.point(1))),
            rule([(A, Interval.point(5))], (B, Interval.closed(0, 10))),
            rule([(B, Interval.closed(5, 50)), (A, Interval.point(5))],
                 (D, Interval.point(3))),
            rule([(B, Interval.closed(-5, 15))], (D, Interval.closed(0, 9)))])
        build = facts_with((A, Interval.point(5)),
                           (B, Interval.closed(0, 100)))
        for rounds in (1, 2, 3):
            indexed, reference = chained(build, rules,
                                         max_iterations=rounds)
            assert indexed == reference
        derivations = forward_chain(build(), rules, max_iterations=1)
        assert numbers(derivations) == [2, 4]
        assert derivations[1].triggers == (
            Clause(B, Interval.closed(0, 10)),)
        assert numbers(forward_chain(build(), rules)) == [2, 4, 1]

    @pytest.mark.parametrize("how", ["foreign_key", "query_join"])
    def test_premise_reached_only_through_an_equivalence(self, how):
        submarine = AttributeRef("SUBMARINE", "Class")
        klass = AttributeRef("CLASS", "Class")
        rules = RuleSet([
            rule([(submarine, Interval.closed("0101", "0103"))],
                 (AttributeRef("CLASS", "Type"), Interval.point("SSBN"))),
            rule([(AttributeRef("CLASS", "Type"), Interval.point("SSBN"))],
                 (AttributeRef("CLASS", "Displacement"),
                  Interval.closed(7250, 30000)))])
        pairs = [(submarine, klass)]
        foreign_keys = pairs if how == "foreign_key" else []
        joins = pairs if how == "query_join" else []
        engine = TypeInferenceEngine(rules, extra_equivalences=foreign_keys)
        conditions = [Clause(klass, Interval.point("0102"))]
        assert_same_inference(engine, conditions, joins)
        assert numbers(engine.infer(conditions, joins).forward) == [1, 2]
        assert numbers(TypeInferenceEngine(rules).infer(
            conditions).forward) == []

    def test_two_premises_on_one_attribute(self):
        rules = RuleSet([
            rule([(A, Interval.closed(0, 10)), (A, Interval.closed(5, 20))],
                 (B, Interval.point(1))),
            rule([(B, Interval.point(1))], (A, Interval.closed(6, 9)))])
        assert rules.premise_positions(A.key, None) == [0]
        for condition in (Interval.closed(6, 8), Interval.closed(2, 8)):
            indexed, reference = chained(facts_with((A, condition)), rules)
            assert indexed == reference
        assert numbers(forward_chain(
            facts_with((A, Interval.closed(6, 8)))(), rules)) == [1, 2]
        assert numbers(forward_chain(
            facts_with((A, Interval.closed(2, 8)))(), rules)) == []

    def test_rules_added_after_a_first_inference(self):
        rules = RuleSet([
            rule([(A, Interval.closed(0, 10))], (B, Interval.point(1)))])
        engine = TypeInferenceEngine(rules)
        conditions = [Clause(A, Interval.point(4)), Clause(C, Interval.point(7))]
        first = assert_same_inference(engine, conditions)
        rules.add(rule([(B, Interval.point(1))], (D, Interval.point(2))))
        rules.add(rule([(C, Interval.point(7))], (A, Interval.closed(4, 4))))
        rules.add(rule([(D, Interval.closed(0, 5))], (C, Interval.point(7)),
                       support=9))
        second = assert_same_inference(engine, conditions)
        assert len(first[1]) == 1 and len(second[1]) == 4
        assert numbers(engine.infer(conditions).forward) == [1, 2, 3, 4]

    def test_contradiction_derived_mid_chain(self):
        rules = RuleSet([
            rule([(A, Interval.closed(0, 10))], (B, Interval.point(1))),
            rule([(A, Interval.closed(0, 10))], (B, Interval.point(2)))])
        indexed, reference = chained(facts_with((A, Interval.point(3))),
                                     rules)
        assert indexed == reference
        assert indexed[0] == "error"
        engine = TypeInferenceEngine(rules)
        assert assert_same_inference(
            engine, [Clause(A, Interval.point(3))])[0]


class TestSemanticPassCases:
    def test_tightening_revisits_earlier_rules_next_pass(self):
        # R2 tightens c, which R1 (earlier in order) reads: R1 applies
        # on the next pass, as a scan of every rule would find.
        a, b, c = (AttributeRef("T", name) for name in "abc")
        rules = RuleSet([
            rule([(c, Interval.closed(0, 5))], (b, Interval.closed(0, 9))),
            rule([(a, Interval.closed(0, 10))], (c, Interval.closed(0, 5)))])
        constraints = {"a": Interval.closed(2, 3),
                       "b": Interval.closed(0, 100),
                       "c": Interval.closed(0, 100)}
        expected = semantic_view(reference_analyze("T", constraints, rules))
        result = semantic.analyze("T", constraints, rules)
        assert semantic_view(result) == expected
        assert [note.rule.number for note in result.notes] == [2, 1]

    def test_contradiction_after_tightening(self):
        a, b = AttributeRef("T", "a"), AttributeRef("T", "b")
        rules = RuleSet([
            rule([(b, Interval.closed(0, 5))], (a, Interval.point(9))),
            rule([(a, Interval.closed(0, 10))], (b, Interval.closed(0, 5)))])
        constraints = {"a": Interval.closed(2, 3),
                       "b": Interval.closed(0, 100)}
        expected = semantic_view(reference_analyze("T", constraints, rules))
        result = semantic.analyze("T", constraints, rules)
        assert semantic_view(result) == expected
        assert "(R1)" in result.contradiction


def runs_on_a(*premises):
    """One rule per premise interval on A, concluding B = its index."""
    return RuleSet([rule([(A, premise)], (B, Interval.point(index)))
                    for index, premise in enumerate(premises)])


class TestSortedRunCases:
    def test_open_condition_fires_the_run(self):
        rules = runs_on_a(Interval.closed(0, 2), Interval.closed(3, 6),
                          Interval.closed(7, 9))
        for condition in (Interval(3, 6, low_open=True),
                          Interval(3, 6, high_open=True),
                          Interval.closed(3, 6), Interval.point(6)):
            assert rules.premise_positions(A.key, condition) == [1]
            build = facts_with((A, condition))
            indexed, reference = chained(build, rules)
            assert indexed == reference
            assert numbers(forward_chain(build(), rules)) == [2]
        # spanning two runs, or unbounded: no run contains the fact
        for condition in (Interval.closed(2, 3), Interval.at_least(7),
                          Interval.at_most(2)):
            assert numbers(forward_chain(
                facts_with((A, condition))(), rules)) == []

    def test_scheme_with_one_overlapping_pair_falls_back(self):
        rules = runs_on_a(Interval.closed(0, 3), Interval.closed(4, 6),
                          Interval.closed(6, 9))
        assert rules.premise_positions(A.key, Interval.point(1)) == [0, 1, 2]
        rules.add(rule([(A, Interval.closed(10, 12))],
                       (B, Interval.point(3))))
        assert rules.premise_positions(A.key, Interval.point(1)) == [
            0, 1, 2, 3]
        for value in (1, 5, 6, 11):
            indexed, reference = chained(
                facts_with((A, Interval.point(value))), rules)
            assert indexed == reference
        assert chained(facts_with((A, Interval.point(6))), rules)[0][0] == (
            "error")  # B = 1 and B = 2: a derived contradiction

    @pytest.mark.parametrize("premises", [
        [Interval.closed(0.5, 1.5), Interval.closed(2.5, float("nan")),
         Interval.closed(4.0, 5.0)],
        [Interval.closed(float("nan"), 1.0)],
        [Interval.closed(0, 3), Interval.closed("a", "c"),
         Interval.closed(5, 9)]], ids=["nan_high", "nan_low", "int_and_str"])
    def test_unordered_bounds_fall_back(self, premises):
        rules = runs_on_a(*premises)
        assert rules.premise_positions(A.key, Interval.point(1.0)) == list(
            range(len(premises)))
        for condition in (Interval.point(1.0), Interval.point(4.5),
                          Interval.point("b")):
            indexed, reference = chained(facts_with((A, condition)), rules)
            assert indexed == reference
            engine = TypeInferenceEngine(rules)
            assert_same_inference(engine, [Clause(A, condition)])
            assert_same_semantic_pass(rules, {"a": condition})

    @pytest.mark.parametrize("premises", [
        [Interval.closed(0.5, 1.5), Interval.closed(2.5, 3.5)],
        [Interval.closed(0.5, 1.5), Interval.closed(2.5, float("nan"))]],
        ids=["runs", "nan_bound"])
    def test_nan_condition_reads_every_run(self, premises):
        # A NaN compares false both ways, so every closed premise
        # "contains" it: the lookup yields every run, as the scan does.
        # (NaN != NaN, so the outcomes are compared by their repr.)
        rules = runs_on_a(*premises)
        nan = Interval.point(float("nan"))
        assert rules.premise_positions(A.key, nan) == [0, 1]
        indexed, reference = chained(facts_with((A, nan)), rules)
        assert repr(indexed) == repr(reference)
        assert indexed[0] == "error"  # B = 0 and B = 1
        assert repr(outcome(lambda: semantic.analyze("T", {"a": nan}, rules),
                            semantic_view)) == repr(outcome(
            lambda: reference_analyze("T", {"a": nan}, rules),
            semantic_view))

    @pytest.mark.parametrize("fact", [
        Interval.at_least(float("nan"), strict=True),
        Interval.at_most(float("nan"), strict=True),
        Interval.at_least(float("nan")), Interval.at_most(float("nan")),
        Interval.point(float("nan"))],
        ids=["above_nan", "below_nan", "at_least_nan", "at_most_nan",
             "nan_point"])
    def test_nan_bound_reads_every_point(self, fact):
        # Every value compares false with a NaN bound, so a fact bounded
        # only by NaNs "contains" every point: backward matching reads
        # them all, as the scan does.
        rules = runs_on_a(Interval.closed(0, 1), Interval.closed(3, 4))
        assert rules.conclusion_positions(B.key, fact) == [0, 1]
        facts = facts_with((B, fact))()
        stats: dict = {}
        matched = backward_match(facts, rules, stats=stats)
        assert descriptions_view(matched) == descriptions_view(
            reference_backward_match(facts, rules))
        assert len(matched) == stats["examined"] == 2

    def test_domain_excluding_the_fact_fires_every_rule(self):
        rules = runs_on_a(Interval.closed(0, 3), Interval.closed(4, 6))
        rules.add(rule([(A, Interval.closed(0, 9))], (C, Interval.point(1))))
        domains = {A: Interval.closed(0, 9)}
        build = facts_with((A, Interval.point(50)), domains=domains)
        indexed, reference = chained(build, rules)
        assert indexed == reference
        assert indexed[0] == "error"  # B = 0 and B = 1
        engine = TypeInferenceEngine(rules)
        engine._domains = domains
        assert assert_same_inference(
            engine, [Clause(A, Interval.point(50))])[0]  # unsatisfiable

    def test_backward_reads_the_points_inside_the_fact(self):
        rules = runs_on_a(*(Interval.closed(3 * index, 3 * index + 1)
                            for index in range(6)))
        rules.add(rule([(C, Interval.point(1))], (B, Interval.closed(1, 2))))
        assert rules.conclusion_positions(B.key, Interval.closed(1, 3)) == [
            1, 2, 3, 6]
        assert rules.conclusion_positions(
            B.key, Interval(1, 3, low_open=True, high_open=True)) == [2, 6]
        assert rules.conclusion_positions(
            B.key, Interval.at_least(4, strict=True)) == [5, 6]
        for condition in (Interval.closed(1, 3), Interval.at_most(2),
                          Interval(1, 3, low_open=True)):
            stats: dict = {}
            facts = facts_with((B, condition))()
            assert descriptions_view(backward_match(
                facts, rules, stats=stats)) == descriptions_view(
                    reference_backward_match(facts, rules))
            assert stats["examined"] == len(rules.conclusion_positions(
                B.key, condition))


class TestExaminedSpanAttribute:
    def test_forward_backward_and_semantic_spans(self, ship_system):
        obs.reset()
        obs.enable()
        try:
            ship_system.engine.infer(
                [Clause(AttributeRef("CLASS", "Displacement"),
                        Interval.at_least(8000, strict=True))])
            plan_select(ship_system.database, parse_select(
                "SELECT Class FROM CLASS WHERE Displacement >= 8000 "
                "AND Displacement <= 20000 AND Type = 'SSN'"),
                rules=ship_system.rules)
        finally:
            obs.disable()
        spans = {span.name: span.attributes
                 for span in obs.tracer().named("")}
        obs.reset()
        total = len(ship_system.rules)
        for name in ("inference.forward", "inference.backward",
                     "plan.semantic"):
            assert 0 < spans[name]["examined"] < total, name


# ---------------------------------------------------------------------------
# hypothesis-generated rule sets

ATTRIBUTES = [AttributeRef(relation, column)
              for relation in ("T", "U") for column in ("a", "b", "c")]


@st.composite
def intervals(draw, closed=False):
    low = draw(st.integers(0, 12))
    high = draw(st.integers(low, 14))
    if closed or draw(st.booleans()):
        return Interval.closed(low, high)
    kind = draw(st.sampled_from(["low", "high", "open"]))
    if kind == "low":
        return Interval.at_least(low, strict=draw(st.booleans()))
    if kind == "high":
        return Interval.at_most(high, strict=draw(st.booleans()))
    if low == high:
        return Interval.point(low)
    return Interval(low, high, low_open=True, high_open=True)


@st.composite
def rules_strategy(draw):
    out = []
    for _ in range(draw(st.integers(0, 14))):
        premises = [Clause(draw(st.sampled_from(ATTRIBUTES)),
                           draw(intervals(closed=True)))
                    for _ in range(draw(st.integers(1, 3)))]
        out.append(Rule(premises,
                        Clause(draw(st.sampled_from(ATTRIBUTES)),
                               draw(intervals(closed=True))),
                        support=draw(st.integers(0, 5))))
    return out


pairs_strategy = st.lists(st.tuples(st.sampled_from(ATTRIBUTES),
                                    st.sampled_from(ATTRIBUTES)),
                          max_size=2)
conditions_strategy = st.lists(
    st.builds(Clause, st.sampled_from(ATTRIBUTES), intervals()),
    min_size=1, max_size=3)
domains_strategy = st.dictionaries(st.sampled_from(ATTRIBUTES),
                                   intervals(closed=True), max_size=3)


def assert_chaining_and_matching(ruleset, pairs, domains, conditions,
                                 rounds):
    """Forward chaining for *rounds*, and chaining to fixpoint followed
    by backward matching, equal the full-scan reference's."""
    build = facts_with(*((c.attribute, c.interval) for c in conditions),
                       pairs=pairs, domains=domains)
    try:
        build()
    except Exception:
        return  # contradictory conditions: nothing to chain
    indexed, reference = chained(build, ruleset, max_iterations=rounds)
    assert indexed == reference
    views = []
    for chain, match in ((forward_chain, backward_match),
                         (reference_forward_chain, reference_backward_match)):
        facts = build()
        fired: set[int] = set()
        views.append(outcome(lambda: (
            derivations_view(chain(facts, ruleset, fired=fired)),
            descriptions_view(match(facts, ruleset, exclude=fired))),
            lambda value: value))
    assert views[0] == views[1]


def assert_one_engine_across_inferences(ruleset, added, pairs, domains,
                                        condition_sets):
    """One engine's inferences equal the reference's, before and after
    *added* rules join its rule set."""
    engine = TypeInferenceEngine(ruleset, extra_equivalences=pairs)
    engine._domains = domains
    for conditions in condition_sets:
        assert_same_inference(engine, conditions, pairs[:1])
    ruleset.extend(added)
    for conditions in condition_sets:
        assert_same_inference(engine, conditions)


def assert_same_semantic_pass(ruleset, constraints):
    expected = outcome(lambda: reference_analyze("T", constraints, ruleset),
                       semantic_view)
    assert outcome(lambda: semantic.analyze("T", constraints, ruleset),
                   semantic_view) == expected


class TestGeneratedRuleSets:
    @settings(max_examples=150, deadline=None)
    @given(rules_strategy(), pairs_strategy, domains_strategy,
           conditions_strategy, st.integers(1, 4))
    def test_chaining_and_matching(self, rules, pairs, domains, conditions,
                                   rounds):
        assert_chaining_and_matching(RuleSet(rules), pairs, domains,
                                     conditions, rounds)

    @settings(max_examples=60, deadline=None)
    @given(rules_strategy(), rules_strategy(), pairs_strategy,
           domains_strategy, st.lists(conditions_strategy, min_size=1,
                                      max_size=3))
    def test_one_engine_across_inferences(self, rules, added, pairs,
                                          domains, condition_sets):
        assert_one_engine_across_inferences(RuleSet(rules), added, pairs,
                                            domains, condition_sets)

    @settings(max_examples=150, deadline=None)
    @given(rules_strategy(), st.dictionaries(
        st.sampled_from(["a", "b", "c"]), intervals(), min_size=1))
    def test_semantic_pass(self, rules, constraints):
        assert_same_semantic_pass(RuleSet(rules), constraints)


# ---------------------------------------------------------------------------
# ILS-shaped rule sets: the sorted runs


@st.composite
def runs_strategy(draw):
    """One scheme's premises as the ILS emits them: sorted, pairwise
    disjoint closed runs with gaps of up to two values, or none
    (adjacent bounds such as [0, 3], [4, 6])."""
    out, low = [], draw(st.integers(0, 3))
    for _ in range(draw(st.integers(1, 6))):
        high = low + draw(st.integers(0, 3))
        out.append(Interval.closed(low, high))
        low = high + 1 + draw(st.integers(0, 2))
    return out


@st.composite
def ils_rules_strategy(draw):
    """ILS-shaped schemes, often two on one X with interleaving runs,
    mixed with rules that fall back: a premise overlapping a run of its
    scheme, two premises, or an open or unbounded premise.  The rules
    come in any order, so the runs are built by insertion."""
    schemes = []
    for _ in range(draw(st.integers(1, 3))):
        premise = draw(st.sampled_from(ATTRIBUTES))
        for conclusion in draw(st.lists(st.sampled_from(ATTRIBUTES),
                                        min_size=1, max_size=2,
                                        unique=True)):
            schemes.append((premise, conclusion, draw(runs_strategy())))
    rules = [Rule([Clause(premise, run)],
                  Clause(conclusion, Interval.point(draw(st.integers(0, 4)))),
                  support=draw(st.integers(0, 5)))
             for premise, conclusion, runs in schemes for run in runs]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["overlap", "premises", "open"]))
        if kind == "overlap":
            premise, conclusion, runs = draw(st.sampled_from(schemes))
            run = draw(st.sampled_from(runs))
            clauses = [Clause(premise, Interval.closed(
                run.high, run.high + draw(st.integers(0, 3))))]
        else:
            conclusion = draw(st.sampled_from(ATTRIBUTES))
            clauses = [Clause(draw(st.sampled_from(ATTRIBUTES)),
                              draw(intervals(closed=kind == "premises")))
                       for _ in range(1 + (kind == "premises"))]
        rules.append(Rule(clauses,
                          Clause(conclusion, draw(intervals(closed=True))),
                          support=draw(st.integers(0, 5))))
    return draw(st.permutations(rules))


def _bounds(rules):
    return sorted({bound for rule in rules for clause in rule.lhs
                   for bound in (clause.interval.low, clause.interval.high)
                   if bound is not None})


@st.composite
def edge_intervals(draw, bounds, closed=False):
    """An interval whose bounds sit on or next to premise bounds: at a
    run's edge, open or closed, spanning runs, or unbounded on a side."""
    low, high = sorted(draw(st.sampled_from(bounds)) + draw(
        st.integers(-1, 1)) for _ in range(2))
    kind = "closed" if closed else draw(st.sampled_from(
        ["closed", "low_open", "high_open", "at_least", "at_most"]))
    if kind == "at_least":
        return Interval.at_least(low, strict=draw(st.booleans()))
    if kind == "at_most":
        return Interval.at_most(high, strict=draw(st.booleans()))
    if low == high:
        return Interval.point(low)
    return Interval(low, high, low_open=kind == "low_open",
                    high_open=kind == "high_open")


@st.composite
def ils_cases(draw):
    """(rules, condition sets, domains): conditions at the rules' run
    edges; a domain may exclude a condition, when every rule on its
    attribute fires."""
    rules = draw(ils_rules_strategy())
    bounds = _bounds(rules)
    condition_sets = draw(st.lists(st.lists(
        st.builds(Clause, st.sampled_from(ATTRIBUTES),
                  edge_intervals(bounds)),
        min_size=1, max_size=3), min_size=1, max_size=3))
    domains = draw(st.dictionaries(st.sampled_from(ATTRIBUTES),
                                   edge_intervals(bounds, closed=True),
                                   max_size=2))
    return rules, condition_sets, domains


class TestSortedRuns:
    @settings(max_examples=200, deadline=None)
    @given(ils_cases(), pairs_strategy, st.integers(1, 4))
    def test_chaining_and_matching(self, case, pairs, rounds):
        rules, condition_sets, domains = case
        ruleset = RuleSet(rules)
        for conditions in condition_sets:
            assert_chaining_and_matching(ruleset, pairs, domains,
                                         conditions, rounds)

    @settings(max_examples=80, deadline=None)
    @given(ils_cases(), ils_rules_strategy(), pairs_strategy)
    def test_one_engine_across_inferences(self, case, added, pairs):
        rules, condition_sets, domains = case
        assert_one_engine_across_inferences(RuleSet(rules), added, pairs,
                                            domains, condition_sets)

    @settings(max_examples=200, deadline=None)
    @given(ils_cases())
    def test_semantic_pass(self, case):
        rules, condition_sets, _domains = case
        ruleset = RuleSet(rules)
        for conditions in condition_sets:
            constraints = {clause.attribute.attribute: clause.interval
                           for clause in conditions
                           if clause.attribute.relation == "T"}
            assert_same_semantic_pass(ruleset, constraints)


# ---------------------------------------------------------------------------
# the synthetic domains and the ship examples


def _statements(instance, count):
    generator = ProgramGenerator(instance, seed=instance.seed)
    out = []
    for index in range(count):
        statement = (generator.ask_statement() if index % 2
                     else generator.select_statement())
        out.append(statement.sql)
    return out


def assert_same_on(database, engine, rules, sqls):
    """Inference and planning of every SELECT in *sqls* through one
    long-lived engine match the full-scan reference; returns the
    semantic pass's outcomes."""
    with recorded_semantic_pass() as calls:
        for sql in sqls:
            statement = parse_select(sql)
            conditions = extract_conditions(database, statement)
            assert_same_inference(engine, conditions.clauses,
                                  conditions.equivalences)
            outcome(lambda: plan_select(database, statement, rules=rules),
                    lambda plan: None)
    for expected, actual in calls:
        assert actual == expected
    return [expected for expected, _actual in calls]


@pytest.mark.parametrize("tree_rules", [False, True],
                         ids=["interval", "with_id3"])
@pytest.mark.parametrize("domain", ["hospital", "logistics", "ontology",
                                    "ship"])
@pytest.mark.parametrize("seed", [1, 3])
def test_synth_domain_matches_reference(domain, tree_rules, seed):
    instance = build_instance(domain, seed=seed, scale=3)
    rules = instance.rules
    if tree_rules:
        rules = InductiveLearningSubsystem(
            instance.binding, InductionConfig(n_c=3),
            relation_order=list(instance.domain.relation_order)).induce(
                include_tree_rules=True)
    engine = TypeInferenceEngine(rules, binding=instance.binding)
    calls = assert_same_on(instance.database, engine, rules,
                           _statements(instance, 120))
    assert calls  # the semantic pass ran


def test_ship_examples_match_reference(ship_system):
    sqls = [EXAMPLE_1, EXAMPLE_2, EXAMPLE_3,
            "SELECT CLASS.Class FROM CLASS "
            "WHERE CLASS.Displacement > 40000",
            "SELECT Class FROM CLASS WHERE Displacement >= 8000 "
            "AND Displacement <= 20000 AND Type = 'SSN'",
            "SELECT SUBMARINE.Name FROM SUBMARINE, CLASS "
            "WHERE SUBMARINE.Class = CLASS.Class "
            "AND SUBMARINE.Class = '0101' AND CLASS.Class = '0215'"]
    calls = assert_same_on(ship_system.database, ship_system.engine,
                           ship_system.rules, sqls)
    assert any(contradiction for _intervals, contradiction, _notes
               in calls)
