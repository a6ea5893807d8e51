"""E11 -- inference latency vs knowledge-base size.

The paper stores rules in relations partly because "storing more rules
... increases the overhead for storing and searching these rules".
This benchmark times uncached forward+backward inference against rule
bases from 18 (the ship knowledge) up to 1,800 synthetic rules.  The
engine looks rules up by the attributes carrying facts, so the expected
shape is flat in the rule-base size: the cost follows the rules on the
queried attributes (here the two ``Q.*`` rules), and the 1,800-rule
latency is guarded at no more than twice the 18-rule latency.  Timings
bypass the engine's inference memo (which would answer every repeat)
and interleave the rule-base sizes best-of-N, as E22/E23 do, so the
guard also holds under ``--benchmark-disable``.
"""

import time

from repro import obs
from repro.inference import TypeInferenceEngine
from repro.reporting import render_table
from repro.rules import Clause, Rule, RuleSet

from conftest import record_report

RULE_COUNTS = (18, 180, 1800)
CONDITIONS = [Clause.between("Q.A", 10, 20)]
#: The 1,800-rule latency may be at most this multiple of the 18-rule.
MAX_GROWTH = 2.0


def synthetic_rules(n_rules: int) -> RuleSet:
    """Chains of rules over disjoint attributes plus one live chain the
    query conditions actually fire."""
    rules = RuleSet()
    rules.add(Rule([Clause.between("Q.A", 0, 100)],
                   Clause.equals("Q.B", "hit"), support=5,
                   rhs_subtype="HIT"))
    rules.add(Rule([Clause.equals("Q.B", "hit")],
                   Clause.equals("Q.C", "chained"), support=5))
    for index in range(n_rules - 2):
        attribute = f"T{index}.X"
        rules.add(Rule(
            [Clause.between(attribute, index, index + 10)],
            Clause.equals(f"T{index}.Y", f"label{index}"),
            support=index % 7))
    return rules


def _uncached(engine):
    """One inference, bypassing the engine's memo."""
    return engine._infer(CONDITIONS, [], True, True)


def _interleaved(engines, repeats=15):
    """Best-of-N per engine, the engines timed in turn on every repeat
    so host noise hits every rule-base size alike."""
    best = [float("inf")] * len(engines)
    for _ in range(repeats):
        for index, engine in enumerate(engines):
            start = time.perf_counter()
            _uncached(engine)
            best[index] = min(best[index], time.perf_counter() - start)
    return best


def test_inference_latency(benchmark):
    engines = [TypeInferenceEngine(synthetic_rules(count))
               for count in RULE_COUNTS]
    for engine in engines:
        result = _uncached(engine)
        assert result.forward_subtypes() == ["HIT"]
        assert len(result.forward) == 2  # the chain fired

    benchmark(_uncached, engines[-1])
    best = _interleaved(engines)
    growth = best[-1] / best[0]
    rows = [[count, f"{seconds * 1e6:.1f}", f"{seconds / best[0]:.2f}x"]
            for count, seconds in zip(RULE_COUNTS, best)]
    record_report(
        "E11", "Inference latency vs rule-base size (uncached)",
        render_table(["rules", "best microseconds", "vs 18 rules"], rows),
        data={"best_s": {str(count): seconds for count, seconds
                         in zip(RULE_COUNTS, best)},
              "growth": {"ratio_1800_vs_18": growth,
                         "guard": f"<= {MAX_GROWTH:g}x",
                         "guard_passed": growth <= MAX_GROWTH}})
    assert growth <= MAX_GROWTH, (
        f"1800-rule inference {best[-1] * 1e6:.1f}us is {growth:.2f}x "
        f"the 18-rule {best[0] * 1e6:.1f}us")


def test_only_queried_rules_examined():
    """Of the 1,800 rules, inference examines the two ``Q.*`` rules:
    both fire forward, so backward matching excludes them."""
    engine = TypeInferenceEngine(synthetic_rules(1800))
    obs.reset()
    obs.enable()
    try:
        _uncached(engine)
    finally:
        obs.disable()
    spans = {span.name: span.attributes
             for span in obs.tracer().named("inference.")}
    obs.reset()
    assert spans["inference.forward"]["examined"] == 2
    assert spans["inference.backward"]["examined"] == 0


def test_ship_inference_latency(benchmark, ship_system):
    """Inference over the real ship knowledge base (Example 3 facts)."""
    from repro.rules.clause import AttributeRef

    conditions = [Clause.equals("INSTALL.Sonar", "BQS-04")]
    equivalences = [
        (AttributeRef("SUBMARINE", "Class"),
         AttributeRef("CLASS", "Class")),
        (AttributeRef("SUBMARINE", "Id"), AttributeRef("INSTALL", "Ship")),
    ]

    result = benchmark(ship_system.engine._infer, conditions, equivalences,
                       True, True)
    assert set(result.forward_subtypes()) == {"BQS", "SSN"}
