"""Stale rules never answer: which signal decides ``degraded``, and the
one gate (``planner_rules``) every planning path passes through.

The Seawolf insert is the running example.  Class 0299 is an SSN of
9,100 tons, so it breaks R9 ("7250 <= Displacement <= 30000 -> Type =
SSBN"): a forward answer from the old rules would claim every heavy
class is an SSBN, and a plan rewritten with them would prove the SSN
query below empty.
"""

import io

import pytest

from repro.cli import Shell, build_system
from repro.inference.verification import verify_forward_answers
from repro.plan.planner import plan_select
from repro.query import IntensionalQueryProcessor
from repro.relational.relation import Relation
from repro.server import IntensionalQueryServer
from repro.server.client import Client
from repro.sql.executor import execute_statement
from repro.sql.parser import parse_select
from repro.testbed import ship_ker_schema

SEAWOLF = "INSERT INTO CLASS VALUES ('0299', 'Seawolf', 'SSN', 9100)"
HEAVY = ("SELECT CLASS.ClassName, CLASS.Type FROM CLASS "
         "WHERE CLASS.Displacement > 8000")
HEAVY_SSN = ("SELECT CLASS.ClassName FROM CLASS "
             "WHERE CLASS.Displacement > 8000 "
             "AND CLASS.Displacement < 20000 AND CLASS.Type = 'SSN'")


class TestDegradedWithoutStoredRules:
    """No storage holds the rule base: ``RuleSet.basis`` decides."""

    def test_seawolf_insert_degrades_the_ask(self, ship_system):
        fresh = ship_system.ask(HEAVY)
        assert fresh.inference.forward and not fresh.warnings
        execute_statement(ship_system.database, SEAWOLF)
        assert ship_system.degraded
        result = ship_system.ask(HEAVY)
        assert ("Seawolf", "SSN") in result.extensional
        assert result.intensional == []
        assert any("stale" in warning for warning in result.warnings)
        # The old forward answer failed here (2/3 tuples are SSBN).
        assert verify_forward_answers(result) == []

    def test_write_to_a_relation_no_rule_names_degrades(self, ship_system):
        # R12-R16 are induced over SUBMARINE-INSTALL-SONAR, so INSTALL
        # is part of the basis although no rule mentions it.
        assert not ship_system.rules.references("INSTALL")
        execute_statement(ship_system.database,
                          "INSERT INTO INSTALL VALUES ('SSN623', 'BQQ-5')")
        assert ship_system.degraded
        assert ship_system.planner_rules is None

    def test_dropped_basis_relation_degrades(self, ship_system):
        ship_system.database.catalog.drop("SONAR")
        assert ship_system.degraded

    def test_relation_registered_anew_degrades(self, ship_system):
        """A relation registered anew starts again at version 0, as the
        one the rules were induced on may still be; the basis tells the
        two apart by serial, so neither ``ask()`` nor the planner
        trusts the old rules over the new rows."""
        catalog = ship_system.database.catalog
        old = catalog.get("CLASS")
        catalog.drop("CLASS")
        catalog.register(Relation(old.schema, old.rows + [
            ("0299", "Seawolf", "SSN", 9100)]))
        assert catalog.get("CLASS").version == old.version
        assert ship_system.degraded
        result = ship_system.ask(HEAVY)
        assert ("Seawolf", "SSN") in result.extensional
        assert result.intensional == []
        assert any("stale" in warning for warning in result.warnings)

        planned = plan_select(ship_system.database,
                              parse_select(HEAVY_SSN),
                              rules=ship_system.rules)
        assert "Empty" not in planned.render()
        assert any("stale" in note for note in planned.notes)
        assert planned.execute().rows == [("Seawolf",)]

    def test_rule_set_without_basis_is_trusted(self, ship_system):
        ship_system.rules.basis = None
        execute_statement(ship_system.database, SEAWOLF)
        assert not ship_system.degraded
        assert ship_system.planner_rules is ship_system.rules

    def test_storage_without_the_rule_base_leaves_the_basis_deciding(
            self, ship_system, tmp_path):
        storage = ship_system.attach_storage(str(tmp_path / "data"),
                                             fsync="never")
        try:
            assert not storage.has_rules and not ship_system.degraded
            execute_statement(ship_system.database, SEAWOLF)
            assert ship_system.degraded
        finally:
            storage.wal.close()

    def test_storage_less_server_degrades_over_the_wire(self, ship_system):
        with IntensionalQueryServer(ship_system) as server, \
                Client("127.0.0.1", server.port) as client:
            assert client.ask(HEAVY).intensional
            client.sql(SEAWOLF)
            reply = client.ask(HEAVY)
            assert ("Seawolf", "SSN") in reply.extensional
            assert reply.intensional == []
            assert any("stale" in warning for warning in reply.warnings)


class TestDegradedWithStoredRules:
    """Storage holds the rule base: its staleness flag decides."""

    @pytest.fixture()
    def system(self, tmp_path):
        system = build_system(None, None, data_dir=str(tmp_path / "data"),
                              fsync="never")
        yield system
        system.storage.wal.close()

    def test_rolled_back_write_does_not_degrade(self, system):
        system.begin()
        execute_statement(system.database, SEAWOLF)
        system.rollback()
        assert not system.degraded
        assert system.ask(HEAVY).intensional


class TestOneGateForThePlanner:
    """A recovered rule base has no basis; only the storage flag knows
    it went stale, and every planning path must hear it."""

    @pytest.fixture()
    def recovered(self, tmp_path):
        data_dir = str(tmp_path / "data")
        system = build_system(None, None, data_dir=data_dir,
                              fsync="never")
        execute_statement(system.database, SEAWOLF)
        system.storage.wal.close()
        recovered, report = IntensionalQueryProcessor.recover(
            data_dir, fsync="never", ker_schema=ship_ker_schema())
        assert report.rules_stale and recovered.rules.basis is None
        yield recovered
        recovered.storage.wal.close()

    @staticmethod
    def assert_unrewritten(text: str) -> None:
        assert "semantic:" not in text
        assert "Empty" not in text
        assert "actual 1" in text.splitlines()[1]

    def test_explain_in_process(self, recovered):
        assert recovered.degraded and recovered.planner_rules is None
        self.assert_unrewritten(recovered.explain(HEAVY_SSN, analyze=True))
        assert [row[0] for row in recovered.ask(HEAVY_SSN).extensional] \
            == ["Seawolf"]

    def test_explain_through_the_shell(self, recovered):
        out = io.StringIO()
        Shell(recovered, out=out).handle("EXPLAIN ANALYZE " + HEAVY_SSN)
        self.assert_unrewritten(out.getvalue())

    def test_explain_over_the_wire(self, recovered):
        with IntensionalQueryServer(recovered) as server, \
                Client("127.0.0.1", server.port) as client:
            self.assert_unrewritten(client.explain(HEAVY_SSN,
                                                   analyze=True))
            self.assert_unrewritten(client.sql("EXPLAIN ANALYZE "
                                               + HEAVY_SSN))
