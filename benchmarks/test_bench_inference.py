"""E11 -- inference latency vs knowledge-base size.

The paper stores rules in relations partly because "storing more rules
... increases the overhead for storing and searching these rules".
This benchmark times uncached forward+backward inference against rule
bases from 18 (the ship knowledge) up to 1,800 synthetic rules.  The
engine looks rules up by the attributes carrying facts, so the expected
shape is flat in the rule-base size: the cost follows the rules on the
queried attributes (here the two ``Q.*`` rules), and the 1,800-rule
latency is guarded at no more than twice the 18-rule latency.  Timings
interleave the rule-base sizes best-of-N, as E22/E23 do, so the guard
also holds under ``--benchmark-disable``.

The single-attribute leg puts every rule on the queried attribute: 18,
1,800 or 18,000 disjoint runs on ``Q.A --> Q.B``, the shape the ILS
emits for one scheme.  The rule set keeps a scheme's runs sorted, so
forward chaining, backward matching and the semantic pass each find
their rules by bisect: the 18,000-run latency of each is guarded at no
more than twice the 18-run latency, and the rules examined are counted.
One test runs both legs and writes the one E11 report.
"""

import time

from repro import obs
from repro.inference import TypeInferenceEngine
from repro.plan import semantic
from repro.reporting import render_table
from repro.rules import Clause, Rule, RuleSet

from conftest import record_report

RULE_COUNTS = (18, 180, 1800)
CONDITIONS = [Clause.between("Q.A", 10, 20)]
#: The 1,800-rule latency may be at most this multiple of the 18-rule.
MAX_GROWTH = 2.0

#: Runs on ``Q.A --> Q.B`` in the single-attribute leg.
RUN_COUNTS = (18, 1800, 18000)
#: The asks of that leg: a point inside run 9 (forward and the semantic
#: pass) and run 9's conclusion alone (backward).
POINT = Clause.equals("Q.A", 92)
LABEL = Clause.equals("Q.B", "label9")


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
    """One inference."""
    return engine.infer(CONDITIONS)


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
    """Both legs, recorded as one E11 report: each guard holds the
    largest rule base within MAX_GROWTH of the smallest."""
    text, data = _rule_count_leg(benchmark)
    single_text, single = _single_attribute_leg()
    data["single_attribute"] = single
    record_report("E11", "Inference latency vs rule-base size (uncached)",
                  text + "\n\n" + single_text, data=data)
    best = data["best_s"]
    assert data["growth"]["guard_passed"], (
        f"1800-rule inference {best['1800'] * 1e6:.1f}us is "
        f"{data['growth']['ratio_1800_vs_18']:.2f}x the 18-rule "
        f"{best['18'] * 1e6:.1f}us")
    assert single["guard_passed"], {
        kind: f"{ratio:.2f}x" for kind, ratio in single["growth"].items()}


def _rule_count_leg(benchmark) -> tuple[str, dict]:
    """18, 180 and 1,800 rules, two of them on the queried attributes:
    the report table and data."""
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
    return (render_table(["rules", "best microseconds", "vs 18 rules"],
                         rows),
            {"best_s": {str(count): seconds for count, seconds
                        in zip(RULE_COUNTS, best)},
             "growth": {"ratio_1800_vs_18": growth,
                        "guard": f"<= {MAX_GROWTH:g}x",
                        "guard_passed": growth <= MAX_GROWTH}})


def single_attribute_rules(n_runs: int) -> RuleSet:
    """*n_runs* disjoint runs ``10i <= Q.A <= 10i + 5`` on one scheme,
    each concluding its own ``Q.B`` label."""
    return RuleSet(Rule([Clause.between("Q.A", 10 * index, 10 * index + 5)],
                        Clause.equals("Q.B", f"label{index}"),
                        support=index % 7)
                   for index in range(n_runs))


def _asks(rules: RuleSet) -> dict:
    """The leg's three uncached asks over *rules*."""
    engine = TypeInferenceEngine(rules)
    return {
        "forward": lambda: engine.infer([POINT], backward=False),
        "backward": lambda: engine.infer([LABEL], forward=False),
        "semantic": lambda: semantic.analyze(
            "Q", {"a": POINT.interval}, rules)}


def _examined(asks: dict) -> dict:
    """The ``examined`` attribute of each ask's span, obs on."""
    names = {"forward": "inference.forward",
             "backward": "inference.backward", "semantic": "plan.semantic"}
    out = {}
    obs.reset()
    obs.enable()
    try:
        for kind, ask in asks.items():
            ask()
            [span] = obs.tracer().named(names[kind])
            out[kind] = span.attributes["examined"]
            obs.tracer().clear()
    finally:
        obs.disable()
        obs.reset()
    return out


def _single_attribute_leg() -> tuple[str, dict]:
    """Every rule on the queried attribute: checks that forward,
    backward and the semantic pass each examine only the rules their
    bisect finds, then times them; the report table and data."""
    rule_sets = [single_attribute_rules(count) for count in RUN_COUNTS]
    asks = [_asks(rules) for rules in rule_sets]
    examined_by_count = {}
    for count, rules, ask in zip(RUN_COUNTS, rule_sets, asks):
        forward = ask["forward"]()
        assert [d.rule.number for d in forward.forward] == [10]
        assert [d.rule.number for d in ask["backward"]().backward] == [10]
        assert ask["semantic"]().intervals == {"a": POINT.interval}
        examined = examined_by_count[str(count)] = _examined(ask)
        # forward and semantic: one scheme on Q.A plus the one rule
        # fired; the derived Q.B fact has no rule reading it.
        assert examined["forward"] <= 1 + len(forward.forward)
        assert examined["semantic"] <= 1 + 1
        # backward: only the rules whose conclusion lies in the fact.
        assert examined["backward"] == sum(
            1 for rule in rules if LABEL.interval.contains(rule.rhs.interval))
    kinds = ("forward", "backward", "semantic")
    best = {kind: [float("inf")] * len(RUN_COUNTS) for kind in kinds}
    for _ in range(15):
        for index, ask in enumerate(asks):
            for kind, call in ask.items():
                start = time.perf_counter()
                call()
                best[kind][index] = min(best[kind][index],
                                        time.perf_counter() - start)
    growth = {kind: times[-1] / times[0] for kind, times in best.items()}
    rows = [[count] + [cell for kind in kinds for cell in (
                f"{best[kind][index] * 1e6:.1f}",
                f"{best[kind][index] / best[kind][0]:.2f}x")]
            for index, count in enumerate(RUN_COUNTS)]
    text = ("Single attribute: N disjoint runs on Q.A --> Q.B "
            "(best microseconds, uncached)\n" + render_table(
                ["runs", "forward", "vs 18", "backward", "vs 18",
                 "semantic", "vs 18"], rows))
    return text, {
        "best_s": {kind: {str(count): seconds for count, seconds
                          in zip(RUN_COUNTS, times)}
                   for kind, times in best.items()},
        "examined": examined_by_count,
        "growth": {f"{kind}_18000_vs_18": ratio
                   for kind, ratio in growth.items()},
        "guard": f"<= {MAX_GROWTH:g}x",
        "guard_passed": all(ratio <= MAX_GROWTH
                            for ratio in growth.values())}


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

    result = benchmark(ship_system.engine.infer, conditions, equivalences)
    assert set(result.forward_subtypes()) == {"BQS", "SSN"}
