"""A NaN in a REAL column.

``inf - inf`` stores a NaN.  NaN is neither equal to, below nor above
any value, so it lies in no range: statistics leave it out of min, max
and the histogram, and the sorted index leaves it out of its keys.
Planned SELECTs over the relation then answer as the reference
evaluator does, on both kernel backends.
"""

import math

import pytest

from repro.plan.planner import plan_select
from repro.relational import columnar
from repro.relational.database import Database
from repro.relational.datatypes import INTEGER, REAL
from repro.sql.executor import execute_statement
from repro.sql.parser import parse_select
from repro.sql.reference import execute_select_reference

#: ``(sql, access path the planner must pick)``.
QUERIES = [
    ("SELECT Id FROM T WHERE Id = 3", "IndexScan"),
    ("SELECT Id FROM T WHERE V >= 10 AND V <= 20", "IndexScan"),
    ("SELECT Id FROM T WHERE V = 15.0", "IndexScan"),
    ("SELECT Id, V FROM T WHERE V > 60 AND Id < 90", "IndexScan"),
    ("SELECT COUNT(*) FROM T", "TableScan"),
    ("SELECT Id FROM T WHERE V != 3.0", "TableScan"),
]


@pytest.fixture
def nan_db():
    database = Database()
    database.create("T", [("Id", INTEGER), ("V", REAL)],
                    [(i, i * 1.5) for i in range(50)])
    execute_statement(database, "INSERT INTO T VALUES (99, 1e999)")
    execute_statement(database, "UPDATE T SET V = V - V WHERE Id = 99")
    assert math.isnan(database.relation("T").rows[-1][1])
    return database


@pytest.mark.parametrize("use_numpy", [True, False])
@pytest.mark.parametrize("sql,path", QUERIES,
                         ids=[sql for sql, _path in QUERIES])
def test_planned_select_matches_reference(nan_db, sql, path, use_numpy):
    statement = parse_select(sql)
    columnar.set_numpy_enabled(use_numpy)
    try:
        planned = plan_select(nan_db, statement)
        assert path in planned.render()
        assert planned.execute() == execute_select_reference(nan_db,
                                                             statement)
    finally:
        columnar.set_numpy_enabled(True)


def test_statistics_leave_nan_out(nan_db):
    from repro.plan.stats import statistics
    stats = statistics(nan_db).table_stats("T").column("V")
    assert (stats.min, stats.max) == (0.0, 73.5)
    assert stats.non_null == 51
    assert stats.histogram.total == 50
