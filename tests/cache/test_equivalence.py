"""Property-based cache correctness: under any interleaving of queries
and DML, a SELECT answered through the plan+result cache must return
the same bag of rows as the uncached reference evaluator computes on
the database's *current* state -- at every step, at every batch size,
over every domain in the equivalence matrix (ship plus synthetic; see
``tests/domain_fixtures.py``).

If invalidation ever misses a dependency (or invents one), some
interleaving here serves a stale relation and the bag comparison fails.
"""

from hypothesis import given, settings, strategies as st

from repro.cache import query_cache
from repro.sql.executor import execute_statement
from repro.sql.parser import parse_select
from repro.sql.reference import execute_select_reference
from tests.domain_fixtures import EQUIVALENCE_FIXTURES

FIXTURES = EQUIVALENCE_FIXTURES


@st.composite
def interleavings(draw, max_size=12):
    """Draw ``(fixture, ops)``: a domain plus a query/DML interleaving
    whose indices are bounded by that domain's pools."""
    fixture = draw(st.sampled_from(FIXTURES))
    op = st.one_of(
        st.tuples(st.just("query"),
                  st.integers(0, len(fixture.queries) - 1),
                  st.sampled_from([1, None])),
        st.tuples(st.just("mutate"),
                  st.integers(0, len(fixture.mutations) - 1),
                  st.none()),
    )
    ops = draw(st.lists(op, min_size=1, max_size=max_size))
    return fixture, ops


@settings(max_examples=40, deadline=None)
@given(interleavings())
def test_cached_answers_track_every_interleaving(case):
    fixture, ops = case
    database = fixture.fresh_database()
    cache = query_cache(database)
    cache.enabled = True  # even on the REPRO_CACHE=off CI leg
    cache.floor_s = 0.0  # admit everything: maximum staleness exposure
    for index, (kind, choice, batch_size) in enumerate(ops):
        if kind == "mutate":
            execute_statement(database,
                              fixture.mutations[choice].format(i=index))
            continue
        statement = parse_select(fixture.queries[choice])
        cached = cache.execute_select(statement, batch_size=batch_size)
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
    database = fixture.fresh_database()
    cache = query_cache(database)
    cache.enabled = False
    for index, (kind, choice, batch_size) in enumerate(ops):
        if kind == "mutate":
            execute_statement(database,
                              fixture.mutations[choice].format(i=index))
            continue
        statement = parse_select(fixture.queries[choice])
        cached = cache.execute_select(statement, batch_size=batch_size)
        assert cached == execute_select_reference(database, statement)
    assert cache.entry_counts() == {"plan": 0, "result": 0, "ask": 0}
    assert cache.bytes_used == 0
