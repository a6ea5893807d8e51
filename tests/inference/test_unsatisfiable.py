"""Unit tests for contradictory-condition handling."""

import pytest

from repro import obs
from repro.inference import TypeInferenceEngine
from repro.query import IntensionalQueryProcessor
from repro.rules.clause import Clause
from repro.server import IntensionalQueryServer
from repro.server.client import Client
from repro.synth import build_instance

#: Conditions whose *derived* conclusions contradict each other.  Ship:
#: Displacement > 40000 lies outside the declared domain, so every
#: Displacement rule fires vacuously and SSN clashes with SSBN.
#: Hospital (seed 3, scale 3): the Severity point fires rules whose
#: Triage conclusions clash.
DERIVED_CONTRADICTIONS = {
    "ship": "SELECT CLASS.Class FROM CLASS WHERE CLASS.Displacement > 40000",
    "hospital": "SELECT PATIENT.Id FROM PATIENT "
                "WHERE PATIENT.Severity >= -987654 "
                "AND PATIENT.Severity <= -987654",
}


def _system(domain, ship_system):
    if domain == "ship":
        return ship_system
    instance = build_instance("hospital", seed=3, scale=3)
    return IntensionalQueryProcessor(instance.database, instance.rules,
                                     binding=instance.binding)


class TestUnsatisfiableQueries:
    def test_contradictory_conditions_flagged(self, ship_system):
        result = ship_system.ask(
            "SELECT Class FROM CLASS "
            "WHERE Displacement > 8000 AND Displacement < 5000")
        assert result.extensional.rows == []
        assert result.inference.unsatisfiable
        assert "contradictory" in result.inference.combined_answer()

    def test_summary_notes_unsatisfiability(self, ship_system):
        result = ship_system.ask(
            "SELECT Class FROM CLASS "
            "WHERE Type = 'SSBN' AND Type = 'SSN'")
        assert result.inference.unsatisfiable
        assert "contradictory" in result.inference.summary()

    def test_no_rules_fire(self, ship_system):
        result = ship_system.ask(
            "SELECT Class FROM CLASS "
            "WHERE Displacement > 8000 AND Displacement < 5000")
        assert not result.inference.forward
        assert not result.inference.backward

    def test_engine_level(self, ship_rules, ship_binding):
        engine = TypeInferenceEngine(ship_rules, binding=ship_binding)
        result = engine.infer([
            Clause.equals("CLASS.Type", "SSBN"),
            Clause.equals("CLASS.Type", "SSN")])
        assert result.unsatisfiable

    def test_satisfiable_conjunction_not_flagged(self, ship_system):
        result = ship_system.ask(
            "SELECT Class FROM CLASS "
            "WHERE Displacement > 8000 AND Displacement < 20000")
        assert not result.inference.unsatisfiable
        assert result.inference.forward_subtypes() == ["SSBN"]

    def test_contradiction_through_equivalence(self, ship_system):
        # The contradiction only appears after canonicalizing the two
        # attribute spellings through the join.
        result = ship_system.ask(
            "SELECT SUBMARINE.Name FROM SUBMARINE, CLASS "
            "WHERE SUBMARINE.Class = CLASS.Class "
            "AND SUBMARINE.Class = '0101' AND CLASS.Class = '0215'")
        assert result.inference.unsatisfiable


@pytest.mark.parametrize("domain", sorted(DERIVED_CONTRADICTIONS))
class TestDerivedContradictions:
    def test_ask_answers_unsatisfiable(self, domain, ship_system):
        system = _system(domain, ship_system)
        obs.reset()
        obs.enable()
        try:
            result = system.ask(DERIVED_CONTRADICTIONS[domain])
            counted = obs.metrics().value("inference_unsatisfiable_total")
        finally:
            obs.disable()
            obs.reset()
        assert result.extensional.rows == []
        assert result.inference.unsatisfiable
        assert not result.inference.forward
        assert not result.inference.backward
        assert "contradictory" in result.inference.combined_answer()
        assert counted == 1

    def test_through_the_server_client(self, domain, ship_system):
        with IntensionalQueryServer(_system(domain, ship_system)) as server, \
                Client("127.0.0.1", server.port) as client:
            reply = client.ask(DERIVED_CONTRADICTIONS[domain])
        assert len(reply.extensional) == 0
        assert "contradictory" in reply.summary
