"""Crash-recovery property suite.

The harness runs a scripted workload once under :class:`CountingOps` to
enumerate every file-system operation, then re-runs it once per
``(operation index, partial-write fraction)`` pair under a
:class:`FaultInjector` that kills the process at exactly that point.
Every scenario must recover to a *committed prefix*: the database state
after some prefix of the committed transactions, never a torn or merged
state, and never missing a transaction whose commit had already been
acknowledged.

The deterministic sweeps below generate well over 200 crash scenarios
spanning WAL appends, WAL fsyncs, snapshot writes, snapshot fsyncs,
checkpoint renames and WAL rotation; a hypothesis layer adds randomized
workload shapes on top.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.database import Database
from repro.relational.datatypes import INTEGER, REAL, char
from repro.sql.executor import execute_statement
from repro.storage import (
    CountingOps, FaultInjector, InjectedCrash, StorageEngine, wal,
)

#: Partial-write fractions: nothing written, torn records of several
#: lengths (group commit writes whole transactions as one batch, so
#: intermediate fractions land in different records of the batch), and
#: a complete write whose fsync/acknowledgement was lost.
FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)

#: Denser grid for the sparser rules workload, whose group-committed
#: batches leave fewer fault-injection points to enumerate.
DENSE_FRACTIONS = (0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9, 1.0)


def db_state(database):
    """Canonical comparable snapshot of every relation's rows."""
    return tuple(sorted((relation.name, tuple(relation.rows))
                        for relation in database.catalog))


class Script:
    """Collects the committed-state timeline of a fault-free run and
    the acknowledged-commit count of a faulty one."""

    def __init__(self):
        self.states = []
        self.acked = 0

    def mark(self, database):
        self.states.append(db_state(database))
        self.acked += 1


def run_to_crash(workload, data_dir, ops):
    """Run *workload* until it finishes or the injector kills it;
    returns the script with ``acked`` set to the commits that were
    acknowledged before death."""
    script = Script()
    try:
        workload(data_dir, ops, script)
    except InjectedCrash:
        pass
    return script


def assert_committed_prefix(data_dir, reference_states, acked):
    """Recovery must land exactly on a committed prefix, at least as
    long as the acknowledged one."""
    engine, report = StorageEngine.recover(data_dir)
    try:
        state = db_state(engine.database)
        matches = [index for index, expected
                   in enumerate(reference_states) if expected == state]
        assert matches, (
            f"recovered state is not any committed prefix: {state!r}")
        assert max(matches) >= acked - 1, (
            f"recovery lost acknowledged commit(s): recovered prefix "
            f"{matches}, acknowledged {acked}")
    finally:
        engine.wal.close()
    return engine, report


def sweep(workload, tmp_path, fractions=FRACTIONS, check=None):
    """Enumerate every crash point of *workload* and verify recovery.

    Returns the number of crash scenarios executed.
    """
    counter = CountingOps()
    baseline_dir = str(tmp_path / "baseline")
    baseline = Script()
    workload(baseline_dir, counter, baseline)
    assert counter.count > 0
    # The fault-free run itself must recover to its final state.
    assert_committed_prefix(baseline_dir, baseline.states,
                            baseline.acked)
    scenarios = 0
    for crash_at in range(counter.count):
        for fraction in fractions:
            scenarios += 1
            data_dir = str(tmp_path / f"crash-{crash_at}-{fraction}")
            injector = FaultInjector(crash_at, fraction)
            script = run_to_crash(workload, data_dir, injector)
            assert injector.dead, "injector never fired"
            engine, report = assert_committed_prefix(
                data_dir, baseline.states, script.acked)
            if check is not None:
                check(engine, report, script)
    return scenarios, counter.kinds


# -- workloads --------------------------------------------------------------


def data_workload(data_dir, ops, script):
    """DML-heavy: autocommits, explicit transactions, a rollback, and
    two checkpoints so crash points cover snapshot machinery too."""
    database = Database("w")
    engine = StorageEngine(database, data_dir, file_ops=ops)
    script.mark(database)  # the empty pre-create state is a valid prefix
    try:
        relation = database.create(
            "T", [("A", INTEGER), ("B", char(4))],
            [(1, "one"), (2, "two")])
        script.mark(database)
        relation.insert((10, "ten"))
        script.mark(database)
        relation.insert((11, "elf"))
        script.mark(database)
        engine.begin()
        relation.insert((12, "doce"))
        relation.insert((13, "tred"))
        engine.commit()
        script.mark(database)
        engine.checkpoint()
        relation.insert((14, "quat"))
        script.mark(database)
        relation.delete_where(lambda row: row[0] == 10)
        script.mark(database)
        engine.begin()
        relation.insert((99, "nope"))
        engine.rollback()  # must never surface in any recovery
        relation.replace_where(lambda row: row[0] == 11,
                               lambda row: (21, "xxi"))
        script.mark(database)
        engine.checkpoint()
        relation.insert((16, "sixt"))
        script.mark(database)
    finally:
        engine.wal.close()


def rules_workload(data_dir, ops, script):
    """Rule-base lifecycle: store rules, invalidate them with data
    churn, checkpoint, re-induce.  Used to prove the rule base is never
    newer than the data it was induced from."""
    from repro.rules.clause import AttributeRef, Clause, Interval
    from repro.rules.rule import Rule
    from repro.rules.rule_relations import encode_rule_relations
    from repro.rules.ruleset import RuleSet

    def store(engine, high):
        ruleset = RuleSet()
        ruleset.add(Rule(
            [Clause(AttributeRef("T", "A"), Interval(1, high))],
            Clause(AttributeRef("T", "B"), Interval("lo", "lo"))))
        with engine.transaction():
            encode_rule_relations(ruleset).register_into(
                engine.database, replace=True)
            engine.mark_rules_current()

    database = Database("w")
    engine = StorageEngine(database, data_dir, file_ops=ops)
    script.mark(database)
    sync_states = []
    try:
        relation = database.create(
            "T", [("A", INTEGER), ("B", char(4))],
            [(1, "lo"), (2, "lo")])
        script.mark(database)
        store(engine, high=2)
        script.mark(database)
        sync_states.append(db_state(database))
        relation.insert((7, "hi"))  # rules now stale
        script.mark(database)
        engine.checkpoint()
        store(engine, high=7)  # re-induced: fresh again
        script.mark(database)
        sync_states.append(db_state(database))
        relation.insert((8, "hi"))  # stale once more
        script.mark(database)
    finally:
        engine.wal.close()
    return sync_states


# -- deterministic sweeps ---------------------------------------------------


class TestDeterministicSweeps:
    def test_data_workload_every_crash_point(self, tmp_path):
        scenarios, kinds = sweep(data_workload, tmp_path)
        assert scenarios >= 100
        # The sweep must actually cover every fault class the issue
        # names: WAL append/fsync, checkpoint write and rename.
        for kind in ("wal_append", "wal_fsync", "snapshot_write",
                     "snapshot_fsync", "snapshot_rename", "wal_rotate"):
            assert kind in kinds, f"no crash point exercised {kind}"

    def test_rules_workload_every_crash_point(self, tmp_path):
        baseline_syncs = []

        def remember_baseline(data_dir, ops, script):
            # Crashing runs raise out of rules_workload before reaching
            # the update, so only the fault-free baseline lands here.
            syncs = rules_workload(data_dir, ops, script)
            baseline_syncs.clear()
            baseline_syncs.extend(syncs)

        def check(engine, report, script):
            # Rule base never newer than data: fresh rules imply the
            # recovered data is EXACTLY a rule-sync state; anything
            # else must be flagged stale (degrading ask() to
            # extensional-only) or have no rules at all.
            state = db_state(engine.database)
            if engine.has_rules and not engine.rules_stale:
                assert state in baseline_syncs, (
                    "recovery produced fresh rules over data that was "
                    "never their induction input")
            if engine.has_rules:
                assert report.has_rules

        scenarios, kinds = sweep(remember_baseline, tmp_path,
                                 fractions=DENSE_FRACTIONS, check=check)
        assert scenarios >= 100
        assert "snapshot_rename" in kinds

    def test_total_scenarios_meet_floor(self, tmp_path):
        """The two sweeps together must clear the 200-scenario floor
        demanded by the acceptance criteria."""
        first, _ = sweep(data_workload, tmp_path / "a")

        def wrapped(data_dir, ops, script):
            rules_workload(data_dir, ops, script)

        second, _ = sweep(wrapped, tmp_path / "b",
                          fractions=DENSE_FRACTIONS)
        assert first + second >= 200


# -- end-to-end: crash anywhere, ask() is never silently wrong --------------


class TestEndToEndIntensional:
    """Sweep every crash point of a full induce-checkpoint-mutate run on
    the paper's ship database, then *ask a real query* after recovery.

    The invariant under test is the issue's headline guarantee: after
    any crash, intensional answers are either exactly the ones a fresh
    induction would give, or suppressed with a staleness warning --
    never silently derived from rules that no longer match the data."""

    QUERY = ("SELECT SUBMARINE.ID, SUBMARINE.NAME, SUBMARINE.CLASS, "
             "CLASS.TYPE FROM SUBMARINE, CLASS "
             "WHERE SUBMARINE.CLASS = CLASS.CLASS "
             "AND CLASS.DISPLACEMENT > 8000")

    @staticmethod
    def _workload(data_dir, ops, mutate):
        from repro.induction import (
            InductionConfig, InductiveLearningSubsystem,
        )
        from repro.ker import SchemaBinding
        from repro.testbed import ship_database, ship_ker_schema

        database = ship_database()
        engine = StorageEngine(database, data_dir, file_ops=ops)
        try:
            binding = SchemaBinding(ship_ker_schema(), database)
            ils = InductiveLearningSubsystem(
                binding, InductionConfig(n_c=3),
                relation_order=["SUBMARINE", "CLASS", "SONAR",
                                "INSTALL"])
            ils.induce_and_store()
            engine.checkpoint()
            if mutate:
                database.relation("SONAR").clear()  # rules now stale
        finally:
            engine.wal.close()

    def test_recovered_answers_fresh_or_suppressed(self, tmp_path):
        from repro.query import IntensionalQueryProcessor
        from repro.testbed import ship_ker_schema

        ker = ship_ker_schema()

        def render_all(result):
            return sorted(answer.render()
                          for answer in result.intensional)

        # Reference: the same pipeline, crash-free, stopped before the
        # staling mutation -- these are the only legitimate intensional
        # answers any recovery may produce.
        reference_dir = str(tmp_path / "reference")
        self._workload(reference_dir, CountingOps(), mutate=False)
        reference, _ = IntensionalQueryProcessor.recover(
            reference_dir, ker_schema=ker)
        fresh_answers = render_all(reference.ask(self.QUERY))
        assert fresh_answers, "reference run produced no intensional "\
                              "answers; the sweep would prove nothing"
        reference.storage.wal.close()

        counter = CountingOps()
        self._workload(str(tmp_path / "baseline"), counter,
                       mutate=True)
        scenarios = 0
        for crash_at in range(counter.count):
            for fraction in (0.0, 0.35, 0.7, 1.0):
                scenarios += 1
                data_dir = str(tmp_path / f"e2e-{crash_at}-{fraction}")
                injector = FaultInjector(crash_at, fraction)
                try:
                    self._workload(data_dir, injector, mutate=True)
                except InjectedCrash:
                    pass
                assert injector.dead
                system, report = IntensionalQueryProcessor.recover(
                    data_dir, ker_schema=ker)
                try:
                    if "SUBMARINE" not in system.database.catalog:
                        # Crash inside the bootstrap transaction: the
                        # database is empty, so rules must be too
                        # (rule base never newer than data).
                        assert not system.storage.has_rules
                        assert len(system.rules) == 0
                        continue
                    result = system.ask(self.QUERY)
                    if system.storage.rules_stale:
                        assert result.warnings, (
                            "stale rule base answered without warning")
                        assert result.intensional == []
                    elif result.intensional:
                        assert render_all(result) == fresh_answers, (
                            f"crash at op {crash_at} produced "
                            f"intensional answers differing from a "
                            f"fresh induction")
                finally:
                    system.storage.wal.close()
        assert scenarios >= 30


# -- randomized workloads ---------------------------------------------------


ACTIONS = st.lists(
    st.sampled_from(["insert", "delete", "replace", "tx", "rollback",
                     "checkpoint", "clear"]),
    min_size=1, max_size=12)


def scripted_workload(actions):
    def workload(data_dir, ops, script):
        database = Database("w")
        engine = StorageEngine(database, data_dir, file_ops=ops)
        script.mark(database)
        counter = [100]

        def fresh():
            counter[0] += 1
            return counter[0]

        try:
            relation = database.create(
                "T", [("A", INTEGER)], [(1,), (2,), (3,)])
            script.mark(database)
            for action in actions:
                if action == "insert":
                    relation.insert((fresh(),))
                    script.mark(database)
                elif action == "delete":
                    relation.insert((fresh(),))
                    script.mark(database)  # insert autocommits first
                    target = min(row[0] for row in relation.rows)
                    relation.delete_where(lambda row: row[0] == target)
                    script.mark(database)
                elif action == "replace":
                    value = fresh()
                    relation.replace_where(lambda row: True,
                                           lambda row: (row[0] + value,))
                    script.mark(database)
                elif action == "tx":
                    engine.begin()
                    relation.insert((fresh(),))
                    relation.insert((fresh(),))
                    engine.commit()
                    script.mark(database)
                elif action == "rollback":
                    engine.begin()
                    relation.insert((fresh(),))
                    engine.rollback()
                elif action == "checkpoint":
                    engine.checkpoint()
                elif action == "clear":
                    relation.clear()
                    script.mark(database)  # clear autocommits first
                    relation.insert((fresh(),))
                    script.mark(database)
        finally:
            engine.wal.close()
    return workload


class TestRandomizedWorkloads:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_random_workload_random_crash_point(self, data,
                                                tmp_path_factory):
        actions = data.draw(ACTIONS)
        workload = scripted_workload(actions)
        tmp_path = tmp_path_factory.mktemp("crash")
        counter = CountingOps()
        baseline = Script()
        workload(str(tmp_path / "baseline"), counter, baseline)
        crash_at = data.draw(
            st.integers(min_value=0, max_value=counter.count - 1))
        fraction = data.draw(st.sampled_from(FRACTIONS))
        injector = FaultInjector(crash_at, fraction)
        data_dir = str(tmp_path / "crash")
        script = run_to_crash(workload, data_dir, injector)
        assert injector.dead
        assert_committed_prefix(data_dir, baseline.states, script.acked)


# -- non-finite REALs: live equals recovered --------------------------------


def same_cells(left, right) -> bool:
    """Row lists equal cell by cell, each of one type, NaN equal to NaN."""
    def same(a, b):
        if type(a) is not type(b):
            return False
        if isinstance(a, float) and math.isnan(a):
            return math.isnan(b)
        return a == b and (not isinstance(a, float)
                           or math.copysign(1.0, a) == math.copysign(1.0, b))
    return len(left) == len(right) and all(
        len(l_row) == len(r_row) and all(map(same, l_row, r_row))
        for l_row, r_row in zip(left, right))


@pytest.fixture(params=["orjson", "stdlib"])
def wal_backend(request, monkeypatch):
    """The JSON library the WAL writes and reads with, for one test:
    orjson (skipped where it is not installed) or the stdlib."""
    if request.param == "orjson":
        orjson = pytest.importorskip("orjson")
        monkeypatch.setattr(wal, "_dumps", wal._orjson_dumps)
        monkeypatch.setattr(wal, "_loads", orjson.loads)
    else:
        monkeypatch.setattr(wal, "_dumps", wal._stdlib_dumps)
        monkeypatch.setattr(wal, "_loads", json.loads)
    return request.param


def reject_constant(token):
    raise AssertionError(f"bare {token} in a WAL record")


class TestNonFiniteReals:
    """NaN and the infinities replay from the WAL as written, whichever
    JSON library writes and reads it (orjson alone would write ``null``,
    the stdlib a non-standard ``NaN``/``Infinity`` token)."""

    STATEMENTS = (
        "INSERT INTO T VALUES (99, 1e999)",
        "INSERT INTO T VALUES (100, 1e999)",
        "UPDATE T SET V = V - V WHERE Id = 100",
        "INSERT INTO T VALUES (101, -1e999)",
        "INSERT INTO T VALUES (102, -0.0)",
    )

    def run_statements(self, data_dir, checkpoint_after=None):
        """T's live rows after registering it and running STATEMENTS,
        plus the WAL's path."""
        database = Database("w")
        engine = StorageEngine(database, data_dir)
        try:
            # The register record carries non-finite cells too.
            database.create("T", [("Id", INTEGER), ("V", REAL)],
                            [(1, math.nan), (2, -math.inf)])
            for index, statement in enumerate(self.STATEMENTS):
                execute_statement(database, statement)
                if index == checkpoint_after:
                    engine.checkpoint()
            return list(database.relation("T").rows), engine.wal.path
        finally:
            engine.wal.close()

    @pytest.mark.parametrize("checkpoint_after", [None, 0, 2])
    def test_recovered_rows_equal_live(self, tmp_path, wal_backend,
                                       checkpoint_after):
        data_dir = str(tmp_path / "data")
        live, _path = self.run_statements(data_dir, checkpoint_after)
        assert [type(value) for _, value in live] == [float] * 6
        assert math.isnan(live[3][1]) and live[2][1] == math.inf
        recovered, _report = StorageEngine.recover(data_dir)
        try:
            assert same_cells(recovered.database.relation("T").rows, live)
        finally:
            recovered.wal.close()

    def test_records_tag_non_finite_cells(self, tmp_path, wal_backend):
        _live, path = self.run_statements(str(tmp_path / "data"))
        cells = []
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line, parse_constant=reject_constant)
                rows = record.get("rows", []) + [
                    row for _position, row in record.get("changes", [])]
                cells += [row[1] for row in rows]
        # The register record's two rows, two inserts, the update,
        # two more inserts.
        assert cells == [{"f": "nan"}, {"f": "-inf"}, {"f": "inf"},
                         {"f": "inf"}, {"f": "nan"}, {"f": "-inf"}, -0.0]
        assert math.copysign(1.0, cells[-1]) == -1.0
