"""Named cases for the reference evaluator (:mod:`repro.sql.reference`).

Every case states the expected rows by hand and checks that the planner
returns the same bag, so a fault in either engine fails here even when
the generated equivalence suites never draw the shape.
"""

import pytest

from repro.errors import SqlError
from repro.plan.planner import plan_select
from repro.relational import columnar
from repro.relational.database import Database
from repro.relational.datatypes import INTEGER, char
from repro.sql.executor import execute_select
from repro.sql.parser import parse_select
from repro.sql.reference import execute_select_reference


@pytest.fixture()
def db():
    database = Database("reference-bed")
    database.create("EMP", [("Name", char(8)), ("Dept", INTEGER),
                            ("Salary", INTEGER), ("Boss", char(8))], [
        ("ann", 1, 300, None),
        ("bob", 1, 200, "ann"),
        ("cid", 2, 200, "ann"),
        ("dee", None, 100, "bob"),
        ("eve", 2, None, "cid"),
    ])
    database.create("DEPT", [("Dept", INTEGER), ("Title", char(8))], [
        (1, "ops"), (2, "lab"), (None, "void"),
    ])
    return database


def both(database, sql):
    """The reference result, after checking the planner's bag agrees."""
    statement = parse_select(sql)
    reference = execute_select_reference(database, statement)
    assert execute_select(database, statement) == reference, sql
    return reference


def bag(rows):
    return sorted(rows, key=repr)


class TestJoins:
    def test_null_join_keys_never_match(self, db):
        out = both(db, "SELECT EMP.Name, DEPT.Title FROM EMP, DEPT "
                       "WHERE EMP.Dept = DEPT.Dept")
        assert bag(out.rows) == bag([("ann", "ops"), ("bob", "ops"),
                                     ("cid", "lab"), ("eve", "lab")])

    def test_no_join_edge_is_a_product(self, db):
        out = both(db, "SELECT EMP.Name, DEPT.Title FROM EMP, DEPT")
        assert len(out) == 5 * 3
        filtered = both(db, "SELECT EMP.Name, DEPT.Title FROM EMP, DEPT "
                            "WHERE DEPT.Dept = 1 AND EMP.Salary >= 200")
        assert bag(filtered.rows) == bag([("ann", "ops"), ("bob", "ops"),
                                          ("cid", "ops")])

    def test_self_join_through_aliases(self, db):
        out = both(db, "SELECT e.Name, b.Name FROM EMP e, EMP b "
                       "WHERE e.Boss = b.Name")
        assert bag(out.rows) == bag([("bob", "ann"), ("cid", "ann"),
                                     ("dee", "bob"), ("eve", "cid")])
        assert out.schema.column_names() == ["Name", "Name_2"]

    def test_select_star_keeps_from_order_when_joins_reorder(self, db):
        sql = ("SELECT * FROM EMP, DEPT WHERE EMP.Dept = DEPT.Dept "
               "AND DEPT.Title = 'lab'")
        planned = plan_select(db, parse_select(sql))
        assert planned.root.child.bindings[0] == "dept", (
            "the planner is meant to start from the filtered DEPT")
        out = both(db, sql)
        assert out.schema.column_names() == [
            "Name", "Dept", "Salary", "Boss", "Dept_2", "Title"]
        assert bag(out.rows) == bag([("cid", 2, 200, "ann", 2, "lab"),
                                     ("eve", 2, None, "cid", 2, "lab")])
        assert planned.execute().schema.column_names() == \
            out.schema.column_names()


class TestFilters:
    def test_constant_conjunct(self, db):
        assert both(db, "SELECT Name FROM EMP WHERE 1 = 2").rows == []
        assert len(both(db, "SELECT Name FROM EMP WHERE 1 = 1")) == 5
        assert both(db, "SELECT EMP.Name FROM EMP, DEPT "
                        "WHERE 1 = 2").rows == []

    def test_null_comparison_is_false(self, db):
        out = both(db, "SELECT Name FROM EMP WHERE Salary < 250")
        assert bag(out.rows) == bag([("bob",), ("cid",), ("dee",)])


class TestAggregates:
    def test_aggregates_over_empty_input_return_one_row(self, db):
        out = both(db, "SELECT COUNT(*), COUNT(Salary), MIN(Salary), "
                       "MAX(Salary), SUM(Salary), AVG(Salary) FROM EMP "
                       "WHERE Salary > 1000")
        assert out.rows == [(0, 0, None, None, None, None)]

    def test_grouped_empty_input_returns_no_row(self, db):
        assert both(db, "SELECT Dept, COUNT(*) FROM EMP "
                        "WHERE Salary > 1000 GROUP BY Dept").rows == []

    def test_count_distinct(self, db):
        out = both(db, "SELECT COUNT(DISTINCT Salary), COUNT(Salary), "
                       "COUNT(*) FROM EMP")
        assert out.rows == [(3, 4, 5)]
        grouped = both(db, "SELECT Dept, COUNT(DISTINCT Salary) FROM EMP "
                           "GROUP BY Dept")
        assert bag(grouped.rows) == bag([(1, 2), (2, 1), (None, 1)])


class TestOrderingAndDistinct:
    def test_order_by_nulls_last_ties_in_input_order(self, db):
        sql = "SELECT Name, Salary FROM EMP ORDER BY Salary"
        out = both(db, sql)
        assert out.rows == [("dee", 100), ("bob", 200), ("cid", 200),
                            ("ann", 300), ("eve", None)]
        planned = execute_select(db, parse_select(sql))
        assert [row[1] for row in planned] == [row[1] for row in out]

    def test_order_by_two_keys(self, db):
        out = both(db, "SELECT Dept, Name FROM EMP ORDER BY Dept, Name")
        assert out.rows == [(1, "ann"), (1, "bob"), (2, "cid"),
                            (2, "eve"), (None, "dee")]

    def test_grouped_order_by(self, db):
        out = both(db, "SELECT Dept, COUNT(*) FROM EMP GROUP BY Dept "
                       "ORDER BY Dept")
        assert out.rows == [(1, 2), (2, 2), (None, 1)]

    def test_distinct(self, db):
        out = both(db, "SELECT DISTINCT Salary FROM EMP")
        assert bag(out.rows) == bag([(300,), (200,), (100,), (None,)])


class TestResolutionErrors:
    @pytest.mark.parametrize("sql", [
        "SELECT Nope FROM EMP",
        "SELECT Name FROM EMP WHERE Nope = 1",
        "SELECT x.Name FROM EMP",
        "SELECT EMP.Nope FROM EMP",
        "SELECT Name FROM EMP ORDER BY Nope",
        "SELECT Dept FROM EMP, DEPT",
        "SELECT Name FROM EMP, DEPT WHERE Dept = 1",
        "SELECT COUNT(*) FROM EMP, DEPT GROUP BY Dept",
    ])
    def test_unknown_and_ambiguous_columns_raise(self, db, sql):
        statement = parse_select(sql)
        with pytest.raises(SqlError):
            execute_select_reference(db, statement)
        with pytest.raises(SqlError):
            execute_select(db, statement)


#: Grouped queries whose ORDER BY names a column no FROM relation has.
BAD_GROUPED_ORDER = [
    "SELECT CLASS.Type, COUNT(*) FROM CLASS GROUP BY CLASS.Type "
    "ORDER BY CLASS.Nope",
    "SELECT CLASS.Type, COUNT(*) FROM CLASS "
    "WHERE CLASS.Displacement > 999999 GROUP BY CLASS.Type "
    "ORDER BY CLASS.Nope",
    "SELECT COUNT(*) FROM CLASS ORDER BY CLASS.Nope",
]


@pytest.mark.parametrize("sql", BAD_GROUPED_ORDER)
@pytest.mark.parametrize("use_numpy", [True, False])
def test_grouped_order_by_validated_up_front(ship_db, sql, use_numpy):
    """Grouped queries resolve ORDER BY before any row is read, so an
    unknown sort column is a SqlError even over an empty input, in the
    planner (numpy or pure-Python kernels) and the reference alike."""
    statement = parse_select(sql)
    columnar.set_numpy_enabled(use_numpy)
    try:
        with pytest.raises(SqlError, match="no column 'Nope'"):
            plan_select(ship_db, statement).execute()
    finally:
        columnar.set_numpy_enabled(True)
    with pytest.raises(SqlError, match="no column 'Nope'"):
        execute_select_reference(ship_db, statement)
