"""Property-based equivalence: the cost-based planner must return the
same bag of rows as the legacy executor for every supported SELECT.

Queries are generated over a *matrix of domains* -- the paper's ship
test bed plus synthetic domains from :mod:`repro.synth` (see
``tests/domain_fixtures.py``): random FROM scenarios (with their
natural join conditions), random filter conjuncts drawn from
per-column literal pools (in-domain, boundary, and out-of-domain
values), random projections, DISTINCT, and ORDER BY.  Relation
equality is bag equality, so plan-dependent row order is ignored.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.plan.planner import plan_select
from repro.plan.plans import UNBOUNDED
from repro.relational import columnar, compiled
from repro.sql.executor import execute_select, execute_select_legacy
from repro.sql.parser import parse_select
from tests.domain_fixtures import EQUIVALENCE_FIXTURES

# Read-only databases and rule bases shared by every generated query
# (hypothesis runs many examples; function-scoped fixtures don't mix
# with @given).
FIXTURES = EQUIVALENCE_FIXTURES

OPS = ["=", "<", "<=", ">", ">=", "!="]


@st.composite
def select_statements(draw):
    """Draw ``(fixture, sql)``: the domain and a query over it."""
    fixture = draw(st.sampled_from(FIXTURES))
    tables, joins = draw(st.sampled_from(fixture.scenarios))
    conjuncts = list(joins)
    for _ in range(draw(st.integers(0, 3))):
        table = draw(st.sampled_from(tables))
        column, pool = draw(st.sampled_from(fixture.columns[table]))
        op = draw(st.sampled_from(OPS))
        literal = draw(st.sampled_from(pool))
        conjuncts.append(f"{table}.{column} {op} {literal}")

    projections = ["*"]
    for table in tables:
        for column, _pool in fixture.columns[table]:
            projections.append(f"{table}.{column}")
    items = draw(st.sampled_from(projections))
    distinct = draw(st.booleans()) and items != "*"

    sql = "SELECT " + ("DISTINCT " if distinct else "") + items
    sql += " FROM " + ", ".join(tables)
    if conjuncts:
        sql += " WHERE " + " AND ".join(conjuncts)
    if draw(st.booleans()) and items != "*":
        sql += f" ORDER BY {items}"
    return fixture, sql


@settings(max_examples=80, deadline=None)
@given(select_statements())
def test_planner_matches_legacy(case):
    fixture, sql = case
    statement = parse_select(sql)
    planned = execute_select(fixture.database, statement,
                             use_planner=True, rules=fixture.rules)
    legacy = execute_select_legacy(fixture.database, statement)
    assert planned == legacy, f"[{fixture.name}] {sql}"


@settings(max_examples=40, deadline=None)
@given(select_statements())
def test_planner_without_rules_matches_legacy(case):
    fixture, sql = case
    statement = parse_select(sql)
    planned = execute_select(fixture.database, statement,
                             use_planner=True)
    legacy = execute_select_legacy(fixture.database, statement)
    assert planned == legacy, f"[{fixture.name}] {sql}"


@settings(max_examples=40, deadline=None)
@given(select_statements())
def test_explain_analyze_actuals_match_legacy(case):
    """EXPLAIN ANALYZE instrumentation must not distort execution: the
    root node's measured actual row count equals the legacy executor's
    cardinality, and the rendered tree reports exactly that number."""
    import re

    from repro.plan.explain import explain_select

    fixture, sql = case
    statement = parse_select(sql)
    legacy = execute_select_legacy(fixture.database, statement)

    planned = plan_select(fixture.database, statement,
                          rules=fixture.rules)
    result = planned.execute()
    assert planned.root.actual_rows == len(result) == len(legacy), sql

    rendered = explain_select(fixture.database, statement,
                              rules=fixture.rules, analyze=True)
    root_line = next(line for line in rendered.splitlines()
                     if not line.startswith(("semantic:", "cache:")))
    match = re.search(r"actual (\d+), time ", root_line)
    assert match is not None, rendered
    assert int(match.group(1)) == len(legacy), sql


@settings(max_examples=40, deadline=None)
@given(select_statements(), st.sampled_from([1, 7, None]))
def test_streaming_matches_materializing(case, batch_size):
    """The morsel size is an implementation knob, never a semantic one:
    any streamed batch size produces *exactly* the rows (same order)
    that one unbounded batch -- the old materializing pipeline shape --
    produces, and the bag the legacy executor produces."""
    fixture, sql = case
    statement = parse_select(sql)
    streamed = plan_select(fixture.database, statement,
                           rules=fixture.rules).execute(
        batch_size=batch_size)
    reference = plan_select(fixture.database, statement,
                            rules=fixture.rules).execute(
        batch_size=UNBOUNDED)
    assert list(streamed.rows) == list(reference.rows), sql
    assert streamed == execute_select_legacy(fixture.database,
                                             statement), sql


@settings(max_examples=25, deadline=None)
@given(select_statements())
def test_compiled_predicates_match_interpreted(case):
    """Flipping ``compiled.ENABLED`` off restores the interpreted
    pre-refactor pipeline; results must be tuple-for-tuple identical."""
    fixture, sql = case
    statement = parse_select(sql)
    with_compiler = plan_select(fixture.database, statement,
                                rules=fixture.rules).execute()
    legacy_compiled = execute_select_legacy(fixture.database, statement)
    assert compiled.ENABLED
    try:
        compiled.ENABLED = False
        interpreted = plan_select(fixture.database, statement,
                                  rules=fixture.rules).execute()
        legacy_interpreted = execute_select_legacy(fixture.database,
                                                   statement)
    finally:
        compiled.ENABLED = True
    assert list(with_compiler.rows) == list(interpreted.rows), sql
    assert list(legacy_compiled.rows) == list(legacy_interpreted.rows), sql


@settings(max_examples=25, deadline=None)
@given(select_statements(), st.sampled_from([1, 7, None]))
def test_columnar_matches_row_pipeline(case, batch_size):
    """REPRO_COLUMNAR is a storage/execution knob, never a semantic
    one: the fused columnar path yields tuple-for-tuple the rows of the
    row pipeline at every batch size, on the planner and the legacy
    executor, with compiled predicates on and off."""
    fixture, sql = case
    statement = parse_select(sql)

    def run():
        return plan_select(fixture.database, statement,
                           rules=fixture.rules).execute(
            batch_size=batch_size)

    before = columnar.FORCED
    try:
        columnar.set_enabled(True)
        fused = run()
        legacy_on = execute_select_legacy(fixture.database, statement)
        columnar.set_enabled(False)
        rowwise = run()
        legacy_off = execute_select_legacy(fixture.database, statement)
        assert list(fused.rows) == list(rowwise.rows), sql
        assert list(legacy_on.rows) == list(legacy_off.rows), sql
        columnar.set_enabled(True)
        assert compiled.ENABLED
        try:
            compiled.ENABLED = False
            interpreted = run()
        finally:
            compiled.ENABLED = True
        assert list(interpreted.rows) == list(rowwise.rows), sql
    finally:
        columnar.set_enabled(before)


@pytest.mark.skipif(not columnar.HAS_NUMPY, reason="numpy not installed")
@settings(max_examples=15, deadline=None)
@given(select_statements())
def test_columnar_pure_python_matches_numpy(case):
    """The pure-Python kernel fallback (no numpy) is row-identical to
    the vectorized path."""
    fixture, sql = case
    statement = parse_select(sql)
    before = columnar.FORCED
    try:
        columnar.set_enabled(True)
        vectorized = plan_select(fixture.database, statement,
                                 rules=fixture.rules).execute()
        columnar.set_numpy_enabled(False)
        try:
            pure = plan_select(fixture.database, statement,
                               rules=fixture.rules).execute()
        finally:
            columnar.set_numpy_enabled(True)
        assert list(vectorized.rows) == list(pure.rows), sql
    finally:
        columnar.set_enabled(before)


@settings(max_examples=25, deadline=None)
@given(select_statements(), st.booleans())
def test_aggregates_match_legacy(case, count_column):
    # Rewrite the generated projection into a single aggregate; COUNT
    # over the join output must agree between the two paths.
    fixture, sql = case
    aggregate = (f"COUNT({fixture.agg_column})" if count_column
                 else "COUNT(*)")
    body = sql.split(" FROM ", 1)[1].split(" ORDER BY ")[0]
    tables_part = body.split(" WHERE ")[0]
    if count_column and not any(table in tables_part
                                for table in fixture.agg_tables):
        aggregate = "COUNT(*)"  # no table in scope has that column
    rewritten = f"SELECT {aggregate} FROM {body}"
    statement = parse_select(rewritten)
    planned = execute_select(fixture.database, statement,
                             use_planner=True, rules=fixture.rules)
    legacy = execute_select_legacy(fixture.database, statement)
    assert planned == legacy, f"[{fixture.name}] {rewritten}"
