"""Property-based cache correctness: under any interleaving of queries,
asks and DML, a SELECT answered through the plan+result cache must
return the same bag of rows as the uncached reference evaluator
computes on the database's *current* state, and an ``ask()`` answered
through the ask cache must equal the ask of a twin system with the
cache off (rows as a bag, plus the rendered intensional answers) -- at
every step, at every batch size, over every domain in the equivalence
matrix (ship plus synthetic; see ``tests/domain_fixtures.py``).  Both
systems sit on durable storage, so explicit transactions (begin,
commit, rollback) interleave too, and while one is open the cache must
admit nothing.

If invalidation ever misses a dependency (or invents one), some
interleaving here serves a stale relation or answer and the comparison
fails.
"""

import os
import tempfile

from hypothesis import given, settings, strategies as st

from repro.cache import query_cache
from repro.ker import SchemaBinding
from repro.query import IntensionalQueryProcessor
from repro.sql.executor import execute_statement
from repro.sql.parser import parse_select
from repro.sql.reference import execute_select_reference
from repro.storage import StorageEngine
from tests.domain_fixtures import EQUIVALENCE_FIXTURES

FIXTURES = EQUIVALENCE_FIXTURES


@st.composite
def interleavings(draw, max_size=12, transactions=False):
    """Draw ``(fixture, ops)``: a domain plus a query/ask/DML
    interleaving whose indices are bounded by that domain's pools; with
    *transactions*, begin/commit/rollback join the mix."""
    fixture = draw(st.sampled_from(FIXTURES))
    op = st.one_of(
        st.tuples(st.just("query"),
                  st.integers(0, len(fixture.queries) - 1),
                  st.sampled_from([1, None])),
        st.tuples(st.just("ask"),
                  st.integers(0, len(fixture.queries) - 1),
                  st.none()),
        st.tuples(st.just("mutate"),
                  st.integers(0, len(fixture.mutations) - 1),
                  st.none()),
    )
    if transactions:
        op = st.one_of(op, st.tuples(
            st.sampled_from(["begin", "commit", "rollback"]),
            st.just(0), st.none()))
    ops = draw(st.lists(op, min_size=1, max_size=max_size))
    return fixture, ops


def fresh_system(fixture) -> IntensionalQueryProcessor:
    """A processor over a new mutable copy of the fixture's database."""
    database = fixture.fresh_database()
    return IntensionalQueryProcessor(
        database, fixture.rules,
        binding=SchemaBinding(fixture.ker_schema, database))


def answer(result) -> tuple:
    """What an ask answers: its rows (a bag, by relation equality), the
    rendered intensional answers and the warnings."""
    return (result.extensional,
            [item.render() for item in result.intensional],
            result.warnings)


def held(cache) -> int:
    """Result and ask entries in the cache's value store."""
    counts = cache.entry_counts()
    return counts["result"] + counts["ask"]


@settings(max_examples=40, deadline=None)
@given(interleavings(transactions=True))
def test_cached_answers_track_every_interleaving(case):
    fixture, ops = case
    system = fresh_system(fixture)
    database = system.database
    cache = query_cache(database)
    cache.enabled = True  # even on the REPRO_CACHE=off CI leg
    cache.floor_s = 0.0  # admit everything: maximum staleness exposure
    twin = fresh_system(fixture)
    query_cache(twin.database).enabled = False
    with tempfile.TemporaryDirectory() as data_dir:
        engines = [StorageEngine(target.database,
                                 os.path.join(data_dir, name),
                                 fsync="never")
                   for name, target in (("cached", system),
                                        ("twin", twin))]
        try:
            for index, op in enumerate(ops):
                in_transaction = engines[0].in_transaction()
                before = held(cache)
                replay_op(fixture, system, twin, index, op)
                assert (engines[0].in_transaction()
                        == engines[1].in_transaction())
                assert not in_transaction or held(cache) <= before, (
                    f"op {index} [{fixture.name}]: admitted inside a "
                    f"transaction")
        finally:
            for engine in engines:
                engine.wal.close()


def replay_op(fixture, system, twin, index, op) -> None:
    """Apply one drawn op to both systems and compare what they answer.
    A begin while a transaction is open, or a commit or rollback while
    none is, is skipped."""
    kind, choice, batch_size = op
    if kind in ("begin", "commit", "rollback"):
        if (kind == "begin") != system.storage.in_transaction():
            for target in (system, twin):
                getattr(target, kind)()
        return
    if kind == "mutate":
        for target in (system, twin):
            execute_statement(target.database,
                              fixture.mutations[choice].format(i=index))
        return
    if kind == "ask":
        sql = fixture.queries[choice]
        assert answer(system.ask(sql)) == answer(twin.ask(sql)), (
            f"op {index} [{fixture.name}]: cached ask diverged for "
            f"{sql!r}")
        return
    database = system.database
    statement = parse_select(fixture.queries[choice])
    cached = query_cache(database).execute_select(statement,
                                                  batch_size=batch_size)
    fresh = execute_select_reference(database, statement)
    assert cached == fresh, (
        f"op {index} [{fixture.name}]: cached answer diverged for "
        f"{fixture.queries[choice]!r} at batch_size={batch_size}")


@settings(max_examples=15, deadline=None)
@given(interleavings(max_size=10))
def test_disabled_cache_is_a_pure_passthrough(case):
    """The same interleavings with the cache off: results still match,
    and nothing is ever retained."""
    fixture, ops = case
    system = fresh_system(fixture)
    database = system.database
    cache = query_cache(database)
    cache.enabled = False
    for index, (kind, choice, batch_size) in enumerate(ops):
        if kind == "mutate":
            execute_statement(database,
                              fixture.mutations[choice].format(i=index))
            continue
        statement = parse_select(fixture.queries[choice])
        if kind == "ask":
            assert (system.ask(fixture.queries[choice]).extensional
                    == execute_select_reference(database, statement))
            continue
        cached = cache.execute_select(statement, batch_size=batch_size)
        assert cached == execute_select_reference(database, statement)
    assert cache.entry_counts() == {"plan": 0, "result": 0, "ask": 0}
    assert cache.bytes_used == 0
