"""Unit tests for the inference engine facade and answer rendering,
driven by the ship knowledge base."""

import pytest

from repro.inference import TypeInferenceEngine
from repro.rules.clause import AttributeRef, Clause, Interval

JOIN_SUB_CLASS = (AttributeRef("SUBMARINE", "Class"),
                  AttributeRef("CLASS", "Class"))
JOIN_SUB_INSTALL = (AttributeRef("SUBMARINE", "Id"),
                    AttributeRef("INSTALL", "Ship"))


@pytest.fixture()
def engine(ship_rules, ship_binding):
    return TypeInferenceEngine(ship_rules, binding=ship_binding)


class TestExample1Forward:
    def test_forward_answer(self, engine):
        result = engine.infer(
            [Clause(AttributeRef("CLASS", "Displacement"),
                    Interval.at_least(8000, strict=True))],
            equivalences=[JOIN_SUB_CLASS])
        assert result.forward_subtypes() == ["SSBN"]
        (answer,) = result.forward_answers()
        assert "SSBN" in answer.render()

    def test_domain_widening_is_essential(self, ship_rules):
        # Without the KER binding (no declared domain), Displacement >
        # 8000 has no upper bound and R9 cannot fire.
        bare = TypeInferenceEngine(ship_rules, binding=None)
        result = bare.infer(
            [Clause(AttributeRef("CLASS", "Displacement"),
                    Interval.at_least(8000, strict=True))])
        assert result.forward_subtypes() == []

    def test_condition_below_rule_range_no_fire(self, engine):
        result = engine.infer(
            [Clause(AttributeRef("CLASS", "Displacement"),
                    Interval.at_least(5000, strict=True))])
        assert result.forward_subtypes() == []


class TestExample2Backward:
    def test_partial_descriptions(self, engine):
        result = engine.infer(
            [Clause.equals("CLASS.Type", "SSBN")],
            equivalences=[JOIN_SUB_CLASS])
        assert not result.forward
        rendered = [a.render() for a in result.backward_answers()]
        assert any("0101 <= CLASS.Class <= 0103" in text
                   for text in rendered)
        assert all("partial" in text for text in rendered)

    def test_combined_prefers_classification_attribute(self, engine):
        result = engine.infer([Clause.equals("CLASS.Type", "SSBN")],
                              equivalences=[JOIN_SUB_CLASS])
        best = result.best_backward_description()
        assert best["attribute"].attribute.lower() == "class"

    def test_answers_share_their_descriptions(self, engine):
        # Two answers hold one description object per (rule, origin),
        # not one each: descriptions are most of what an answer keeps.
        first = engine.infer([Clause.equals("CLASS.Type", "SSBN")])
        again = engine.infer([Clause.equals("CLASS.Type", "SSBN")],
                             equivalences=[JOIN_SUB_CLASS])
        assert again is not first and first.backward
        assert [id(item) for item in again.backward] == [
            id(item) for item in first.backward]

    def test_incompleteness_documented(self, engine):
        # Class 1301 is an SSBN but no surviving rule covers it: the
        # backward description must not include it.
        result = engine.infer([Clause.equals("CLASS.Type", "SSBN")])
        best = result.best_backward_description()
        assert not best["interval"].contains_value("1301")


class TestExample3Combined:
    @pytest.fixture()
    def result(self, engine):
        return engine.infer(
            [Clause.equals("INSTALL.Sonar", "BQS-04")],
            equivalences=[JOIN_SUB_CLASS, JOIN_SUB_INSTALL])

    def test_forward_derives_both_types(self, result):
        assert set(result.forward_subtypes()) == {"BQS", "SSN"}

    def test_backward_descriptions_intersected(self, result):
        best = result.best_backward_description()
        assert best["interval"] == Interval.closed("0208", "0215")
        assert len(best["rules"]) == 2  # R6 and R16 corroborate

    def test_combined_sentence(self, result):
        sentence = result.combined_answer()
        assert "SSN" in sentence
        assert "0208" in sentence and "0215" in sentence

    def test_backward_flags_derived_facts(self, result):
        assert all(answer.approximate
                   for answer in result.backward_answers())


class TestDirectionToggles:
    def test_forward_only(self, engine):
        result = engine.infer(
            [Clause.equals("INSTALL.Sonar", "BQS-04")],
            backward=False)
        assert result.forward and not result.backward

    def test_backward_only(self, engine):
        result = engine.infer(
            [Clause.equals("CLASS.Type", "SSBN")], forward=False)
        assert not result.forward and result.backward

    def test_no_conditions_no_answers(self, engine):
        result = engine.infer([])
        assert result.combined_answer() is None
        assert "No intensional answer" in result.summary()


class TestSummary:
    def test_summary_sections(self, engine):
        result = engine.infer(
            [Clause.equals("INSTALL.Sonar", "BQS-04")],
            equivalences=[JOIN_SUB_CLASS, JOIN_SUB_INSTALL])
        summary = result.summary()
        assert "Query conditions:" in summary
        assert "Forward inference" in summary
        assert "Backward inference" in summary
        assert "Combined:" in summary
