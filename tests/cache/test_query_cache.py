"""The version-aware query cache: hits, exact invalidation, no
admission inside transactions, recovery replay, rule staleness,
eviction, and the off switch.

Every test asserts through the cache's always-on internal counters (the
same numbers ``\\cache`` prints), so "invalidated exactly the dependent
entries" is a counted fact, not an inference from timing.
"""

import pytest

from repro import obs
from repro.cache import QueryCache, query_cache
from repro.cache.core import estimate_relation_bytes
from repro.induction import InductionConfig, InductiveLearningSubsystem
from repro.ker import SchemaBinding
from repro.query import IntensionalQueryProcessor
from repro.sql.executor import execute_select, execute_statement
from repro.sql.parser import parse_select
from repro.sql.reference import execute_select_reference
from repro.storage import StorageEngine
from repro.testbed import ship_database, ship_ker_schema

SUB_SQL = "SELECT * FROM SUBMARINE WHERE SUBMARINE.Class = '0101'"
SONAR_SQL = "SELECT * FROM SONAR"
INSERT_SONAR = ("INSERT INTO SONAR (Sonar, SonarType) "
                "VALUES ('XX-1', 'XX')")
INSERT_SUB = ("INSERT INTO SUBMARINE (Id, Name, Class) "
              "VALUES ('SSN999', 'Phantom', '0101')")
ASK_SQL = ("SELECT SUBMARINE.Name FROM SUBMARINE, CLASS "
           "WHERE SUBMARINE.Class = CLASS.Class "
           "AND CLASS.Displacement > 8000")


def eager_cache(database) -> QueryCache:
    """The database's cache, force-enabled (these tests assert hit
    behaviour even on the CI leg that exports ``REPRO_CACHE=off``)
    and with the admission floor removed, so every admission is
    deterministic regardless of machine speed."""
    cache = query_cache(database)
    cache.enabled = True
    cache.floor_s = 0.0
    return cache


def run(database, sql):
    return execute_select(database, parse_select(sql))


def value_store(cache) -> tuple:
    """What the result/ask store holds: its entry counts and bytes
    (plans are cached apart and hold no rows)."""
    counts = cache.entry_counts()
    return counts["result"], counts["ask"], cache.bytes_used


class TestPlanAndResultCache:
    def test_repeat_is_a_hit_and_shares_the_result(self):
        database = ship_database()
        cache = eager_cache(database)
        first = run(database, SUB_SQL)
        second = run(database, SUB_SQL)
        assert second is first, "hit must serve the cached relation"
        assert cache.counters["plan.hit"] >= 1
        assert cache.counters["result.hit"] == 1
        assert cache.counters["result.miss"] == 1

    def test_fingerprint_spelling_matters_but_plan_key_is_canonical(self):
        # execute_select keys on the *parsed* statement's canonical
        # rendering, so spelling differences in the raw text collapse.
        database = ship_database()
        cache = eager_cache(database)
        run(database, SUB_SQL)
        run(database, SUB_SQL.replace("SELECT", "select  "))
        assert cache.counters["result.hit"] == 1

    def test_dml_invalidates_and_the_rerun_sees_new_rows(self):
        database = ship_database()
        cache = eager_cache(database)
        before = run(database, SUB_SQL)
        execute_statement(database, INSERT_SUB)
        assert cache.counters.get("invalidate.dml", 0) >= 1
        after = run(database, SUB_SQL)
        assert len(after) == len(before) + 1
        assert after == execute_select_reference(database,
                                                 parse_select(SUB_SQL))

    def test_invalidation_is_exact(self):
        """A SONAR insert must kill the SONAR-dependent entry and ONLY
        that entry: the SUBMARINE query keeps hitting."""
        database = ship_database()
        cache = eager_cache(database)
        run(database, SUB_SQL)
        run(database, SONAR_SQL)
        execute_statement(database, INSERT_SONAR)
        assert cache.counters["invalidate.dml"] == 1
        hits_before = cache.counters.get("result.hit", 0)
        assert run(database, SUB_SQL) is not None
        assert cache.counters["result.hit"] == hits_before + 1
        misses_before = cache.counters["result.miss"]
        run(database, SONAR_SQL)
        assert cache.counters["result.miss"] == misses_before + 1

    def test_stale_plan_is_replanned_after_dependency_change(self):
        database = ship_database()
        cache = eager_cache(database)
        statement = parse_select(SUB_SQL)
        planned, status = cache.plan_for(statement)
        assert status == "miss"
        _, status = cache.plan_for(statement)
        assert status == "hit"
        execute_statement(database, INSERT_SUB)
        replanned, status = cache.plan_for(statement)
        assert status == "miss"
        assert replanned is not planned
        assert cache.counters.get("invalidate.stale", 0) >= 1

    def test_unrelated_mutation_revalidates_the_plan(self):
        # The stats-catalog idiom: a SONAR insert bumps the global
        # version, but the SUBMARINE plan's dependencies are unchanged
        # and must revalidate to a hit, not a replan.
        database = ship_database()
        cache = eager_cache(database)
        statement = parse_select(SUB_SQL)
        planned, _ = cache.plan_for(statement)
        execute_statement(database, INSERT_SONAR)
        again, status = cache.plan_for(statement)
        assert status == "hit"
        assert again is planned


class TestAskCache:
    def test_repeated_ask_hits_and_matches(self, ship_system):
        cache = eager_cache(ship_system.database)
        first = ship_system.ask(ASK_SQL)
        second = ship_system.ask(ASK_SQL)
        assert second is first
        assert cache.counters["ask.hit"] == 1
        # Spelling differences collapse onto one fingerprint.
        third = ship_system.ask("  " + ASK_SQL.lower().replace(
            "where", "  WHERE "))
        assert third is first
        assert cache.counters["ask.hit"] == 2

    def test_direction_flags_are_part_of_the_key(self, ship_system):
        cache = eager_cache(ship_system.database)
        ship_system.ask(ASK_SQL)
        ship_system.ask(ASK_SQL, forward=False)
        assert cache.counters["ask.miss"] == 2

    def test_dml_drops_the_dependent_answer(self, ship_system):
        cache = eager_cache(ship_system.database)
        before = ship_system.ask(ASK_SQL)
        execute_statement(ship_system.database, INSERT_SUB)
        after = ship_system.ask(ASK_SQL)
        assert after is not before
        assert len(after.extensional) == len(before.extensional) + 1
        assert cache.counters.get("invalidate.dml", 0) >= 1


class TestTransactions:
    """Nothing is admitted while an explicit transaction is open, so
    every entry comes from committed state."""

    @pytest.fixture()
    def durable(self, tmp_path):
        database = ship_database()
        engine = StorageEngine(database, str(tmp_path / "data"))
        yield database, engine
        engine.wal.close()

    def test_in_transaction_read_is_not_admitted_until_commit(
            self, durable):
        database, engine = durable
        cache = eager_cache(database)
        engine.begin()
        first = run(database, SUB_SQL)
        assert cache.entry_counts()["result"] == 0
        assert cache.counters["admit.skipped"] == 1
        # Computed again, never served from the store.
        assert run(database, SUB_SQL) == first
        assert "result.hit" not in cache.counters
        engine.commit()
        misses = cache.counters["result.miss"]
        committed = run(database, SUB_SQL)
        assert cache.counters["result.miss"] == misses + 1
        assert run(database, SUB_SQL) is committed
        assert cache.counters["result.hit"] == 1

    def test_rollback_leaves_the_store_as_it_was_at_begin(
            self, ship_system, tmp_path):
        """Neither a read nor an ask inside the transaction, nor its
        write to SUBMARINE and the rollback's undo, changes what an
        entry cached before ``begin`` on another relation serves."""
        database = ship_system.database
        engine = StorageEngine(database, str(tmp_path / "data"))
        try:
            cache = eager_cache(database)
            sonar = run(database, SONAR_SQL)
            held = value_store(cache)
            engine.begin()
            execute_statement(database, INSERT_SUB)
            run(database, SUB_SQL)
            ship_system.ask(ASK_SQL)
            assert value_store(cache) == held
            engine.rollback()
            assert value_store(cache) == held
            assert run(database, SONAR_SQL) is sonar
        finally:
            engine.wal.close()

    def test_rolled_back_mutation_restores_the_old_answer(self, durable):
        """An entry cached *before* the transaction is dropped by the
        in-transaction DML, the only invalidation: the re-execution
        inside the transaction sees the new row but is not admitted, so
        the rollback undo has nothing left to drop, and the
        post-rollback run returns the original rows again."""
        database, engine = durable
        cache = eager_cache(database)
        before = run(database, SUB_SQL)
        engine.begin()
        execute_statement(database, INSERT_SUB)
        inside = run(database, SUB_SQL)
        assert len(inside) == len(before) + 1
        engine.rollback()
        after = run(database, SUB_SQL)
        assert after == before
        assert after == execute_select_reference(database,
                                                 parse_select(SUB_SQL))
        assert cache.counters["invalidate.dml"] == 1


class TestRecoveryReplay:
    def test_replay_invalidates_like_live_dml(self, tmp_path):
        database = ship_database()
        engine = StorageEngine(database, str(tmp_path / "data"))
        engine.checkpoint()
        engine.wal.close()

        standby, _ = StorageEngine.recover(str(tmp_path / "data"))
        cache = eager_cache(standby.database)
        before = run(standby.database, SUB_SQL)
        assert cache.entry_counts()["result"] == 1

        primary, _ = StorageEngine.recover(str(tmp_path / "data"))
        execute_statement(primary.database, INSERT_SUB)
        primary.wal.close()

        report = standby.replay_tail()
        assert report.replayed_records >= 1
        assert cache.counters["invalidate.dml"] >= 1
        after = run(standby.database, SUB_SQL)
        assert len(after) == len(before) + 1
        assert any(row[0] == "SSN999" for row in after)
        standby.wal.close()


class TestRuleBase:
    @pytest.fixture()
    def durable_system(self, tmp_path):
        database = ship_database()
        engine = StorageEngine(database, str(tmp_path / "data"))
        binding = SchemaBinding(ship_ker_schema(), database)
        ils = InductiveLearningSubsystem(
            binding, InductionConfig(n_c=3),
            relation_order=["SUBMARINE", "CLASS", "SONAR", "INSTALL"])
        rules = ils.induce_and_store()
        system = IntensionalQueryProcessor(database, rules,
                                           binding=binding)
        yield system
        engine.wal.close()

    def test_stale_rule_base_suppresses_the_cached_answer(
            self, durable_system):
        system = durable_system
        cache = eager_cache(system.database)
        fresh = system.ask(ASK_SQL)
        assert fresh.intensional and not fresh.warnings
        assert not system.degraded
        # Staling DML on a relation the query does NOT touch: the
        # version vector alone would still match, so only the degraded
        # flag in the entry can (and must) block the stale answer.
        execute_statement(system.database, INSERT_SONAR)
        assert system.storage.rules_stale and system.degraded
        degraded = system.ask(ASK_SQL)
        assert degraded is not fresh
        assert degraded.warnings and degraded.intensional == []
        assert cache.counters["invalidate.stale_rules"] >= 1

    def test_reinduction_flushes_and_restores(self, durable_system):
        system = durable_system
        cache = eager_cache(system.database)
        fresh = system.ask(ASK_SQL)
        execute_statement(system.database, INSERT_SONAR)
        system.ask(ASK_SQL)  # degraded, cached under the stale flag
        system.refresh_rules()
        assert not system.degraded
        assert cache.counters.get("invalidate.reinduction", 0) >= 1
        restored = system.ask(ASK_SQL)
        assert not restored.warnings
        assert (restored.inference.forward_subtypes()
                == fresh.inference.forward_subtypes())
        # And the restored answer is served from cache on repeat.
        assert system.ask(ASK_SQL) is restored

    def test_rule_base_mutation_recomputes_the_ask(self, ship_system):
        from repro.rules.rule import Rule
        cache = eager_cache(ship_system.database)
        first = ship_system.ask(ASK_SQL)
        assert ship_system.ask(ASK_SQL) is first
        # Mutating the rule base changes its version: the entry minted
        # for the old version is dropped, never served.
        template = next(iter(ship_system.rules))
        ship_system.rules.add(Rule(template.lhs, template.rhs,
                                   support=template.support))
        again = ship_system.ask(ASK_SQL)
        assert again is not first
        assert cache.counters["invalidate.stale_rules"] == 1
        assert cache.counters["ask.miss"] == 2
        assert ship_system.ask(ASK_SQL) is again


class TestEvictionAndBudget:
    def test_lru_eviction_respects_the_byte_budget(self):
        database = ship_database()
        cache = eager_cache(database)
        run(database, SUB_SQL)
        # Room for the SONAR result only if something else goes: one
        # byte short of fitting both forces exactly the LRU eviction.
        incoming = estimate_relation_bytes(
            execute_select_reference(database, parse_select(SONAR_SQL)))
        cache.byte_budget = cache.bytes_used + incoming - 1
        run(database, SONAR_SQL)
        assert cache.counters["evictions"] >= 1
        assert cache.bytes_used <= cache.byte_budget
        # The evicted (least recently used) entry was SUB_SQL's.
        misses = cache.counters["result.miss"]
        run(database, SUB_SQL)
        assert cache.counters["result.miss"] == misses + 1

    def test_oversized_result_is_never_admitted(self):
        database = ship_database()
        cache = eager_cache(database)
        cache.byte_budget = 1
        run(database, SUB_SQL)
        assert cache.entry_counts()["result"] == 0
        assert cache.counters["admit.skipped"] >= 1

    def test_admission_floor_keeps_cheap_results_out(self):
        database = ship_database()
        cache = eager_cache(database)
        cache.floor_s = 3600.0  # nothing is ever that slow
        run(database, SUB_SQL)
        assert cache.entry_counts()["result"] == 0
        assert cache.counters["admit.skipped"] >= 1

    def test_clear_drops_everything(self):
        database = ship_database()
        cache = eager_cache(database)
        run(database, SUB_SQL)
        run(database, SONAR_SQL)
        dropped = cache.clear()
        assert dropped >= 4  # two plans + two results
        assert cache.bytes_used == 0
        assert cache.entry_counts() == {"plan": 0, "result": 0, "ask": 0}


class TestDisabling:
    def test_repro_cache_off_bypasses_everything(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        database = ship_database()
        cache = query_cache(database)
        assert not cache.enabled
        first = run(database, SUB_SQL)
        second = run(database, SUB_SQL)
        assert second is not first
        assert second == first
        assert cache.counters["result.bypass"] == 2
        assert "result.hit" not in cache.counters

    def test_runtime_toggle(self):
        database = ship_database()
        cache = eager_cache(database)
        run(database, SUB_SQL)
        cache.enabled = False
        run(database, SUB_SQL)
        assert cache.counters["result.bypass"] == 1
        cache.enabled = True
        run(database, SUB_SQL)
        assert cache.counters["result.hit"] == 1


class TestObsMetrics:
    def test_cache_counters_surface_in_metrics(self):
        obs.reset()
        obs.enable()
        try:
            database = ship_database()
            eager_cache(database)
            run(database, SUB_SQL)
            run(database, SUB_SQL)
            execute_statement(database, INSERT_SUB)
            snapshot = obs.metrics().snapshot()
            assert snapshot[
                'query_cache_requests_total{level="result",'
                'result="hit"}'] == 1
            assert snapshot[
                'query_cache_invalidations_total{level="result",'
                'reason="dml"}'] == 1
            assert "query_cache_bytes" in snapshot
        finally:
            obs.disable()
            obs.reset()
