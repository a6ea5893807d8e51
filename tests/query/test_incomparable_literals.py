"""A comparison between a column and a literal its values cannot be
compared with is a per-row type error, never an interval.

The planner once folded such a conjunct into an index probe, a
histogram estimate or the semantic pass, and crashed there with a raw
``TypeError`` (or folded two of them into an empty interval and
answered 0 rows); ``ask()`` asserted it as an inference fact and
crashed the same way.  Each query below is checked three ways: the
planner against the reference evaluator, ``ask()``, and ``Client.sql``
over the wire.
"""

import pytest

from repro.errors import ExpressionError, ServerError
from repro.plan.planner import plan_select
from repro.query import extract_conditions
from repro.server import IntensionalQueryServer
from repro.server.client import Client
from repro.sql.parser import parse_select
from repro.sql.reference import execute_select_reference

#: Every one raises ExpressionError("type error in ...") row by row.
TYPE_ERRORS = [
    "SELECT CLASS.Class FROM CLASS WHERE CLASS.Type > 5",
    "SELECT CLASS.Class FROM CLASS WHERE CLASS.Displacement > 'abc'",
    "SELECT CLASS.Class FROM CLASS WHERE CLASS.Type > 5 AND CLASS.Type < 3",
]

#: The first conjunct is false on every row, so the ill-typed second one
#: is never evaluated and the answer is empty.
SHORT_CIRCUITED = ("SELECT CLASS.Class FROM CLASS "
                   "WHERE CLASS.Displacement > 99999999 AND CLASS.Type > 5")


@pytest.mark.parametrize("with_rules", [False, True])
@pytest.mark.parametrize("sql", TYPE_ERRORS)
def test_planner_and_reference_raise_the_type_error(ship_db, ship_rules,
                                                    sql, with_rules):
    statement = parse_select(sql)
    planned = plan_select(ship_db, statement,
                          rules=ship_rules if with_rules else None)
    with pytest.raises(ExpressionError, match="type error in") as caught:
        planned.execute()
    with pytest.raises(ExpressionError) as expected:
        execute_select_reference(ship_db, statement)
    assert str(caught.value) == str(expected.value)


@pytest.mark.parametrize("with_rules", [False, True])
def test_short_circuited_conjunct_answers_empty(ship_db, ship_rules,
                                                with_rules):
    statement = parse_select(SHORT_CIRCUITED)
    planned = plan_select(ship_db, statement,
                          rules=ship_rules if with_rules else None)
    assert planned.execute().rows == []
    assert execute_select_reference(ship_db, statement).rows == []


@pytest.mark.parametrize("sql", TYPE_ERRORS)
def test_ask_raises_the_type_error(ship_system, sql):
    with pytest.raises(ExpressionError, match="type error in"):
        ship_system.ask(sql)


def test_ask_leaves_the_incomparable_conjunct_unused(ship_system):
    result = ship_system.ask(SHORT_CIRCUITED)
    assert result.extensional.rows == []
    assert [e.render() for e in result.unused] == ["CLASS.Type > 5"]


def test_extract_conditions_lists_incomparable_literals_unused(ship_db):
    conditions = extract_conditions(ship_db, parse_select(
        "SELECT CLASS.Class FROM CLASS WHERE CLASS.Displacement > 8000 "
        "AND CLASS.Displacement < 'abc' AND 5 < CLASS.Type"))
    assert [clause.attribute.render() for clause in conditions.clauses] \
        == ["CLASS.Displacement"]
    assert [e.render() for e in conditions.unused] == [
        'CLASS.Displacement < "abc"', "CLASS.Type > 5"]


def test_client_sql_relays_the_type_error(ship_system):
    with IntensionalQueryServer(ship_system) as server, \
            Client("127.0.0.1", server.port) as client:
        for sql in TYPE_ERRORS:
            with pytest.raises(ServerError) as caught:
                client.sql(sql)
            assert caught.value.remote_type == "ExpressionError", sql
        assert len(client.sql(SHORT_CIRCUITED)) == 0
