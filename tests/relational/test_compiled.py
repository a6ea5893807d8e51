"""The predicate compiler must be semantically indistinguishable from
the Environment interpreter: same values, same NULL behavior, same
error types and messages -- only faster.  Cross-checks run every tree
through both paths over every row."""

import pytest

from repro.errors import ExpressionError
from repro.relational import INTEGER, REAL, char
from repro.relational.compiled import (
    compile_expression, schema_resolver, slot_resolver,
)
from repro.relational.expressions import (
    And, Arithmetic, ColumnRef, Comparison, Environment, Expression,
    IsNull, Literal, Not, Or,
)
from repro.relational.relation import Relation
from repro.relational.schema import Column, RelationSchema


SCHEMA = RelationSchema("EMP", [
    Column("Name", char(12)),
    Column("Age", INTEGER),
    Column("Salary", REAL),
])

ROWS = [
    ("alice", 41, 9000.0),
    ("bob", 38, 7500.0),
    ("carol", None, 8000.0),
    ("dave", 29, None),
]

DEPT_SCHEMA = RelationSchema("DEPT", [
    Column("Dept", char(8)),
    Column("Head", char(12)),
])


def interpret(expression: Expression, row: tuple):
    return expression.evaluate(Environment.for_row(SCHEMA, row))


def cross_check(expression: Expression):
    """Compiled result == interpreted result for every row (including
    raised ExpressionErrors, compared by message)."""
    fn = compile_expression(expression, schema_resolver(SCHEMA, ["emp"]))
    for row in ROWS:
        try:
            expected = interpret(expression, row)
        except ExpressionError as error:
            with pytest.raises(ExpressionError) as caught:
                fn(row)
            assert str(caught.value) == str(error)
            continue
        assert fn(row) == expected, (expression.render(), row)


class TestSemanticsParity:
    def test_comparisons(self):
        for op in ("=", "!=", "<", "<=", ">", ">="):
            cross_check(Comparison(op, ColumnRef("Age"), Literal(38)))

    def test_null_comparison_is_false(self):
        fn = compile_expression(
            Comparison("=", ColumnRef("Age"), Literal(None)),
            schema_resolver(SCHEMA))
        assert all(fn(row) is False for row in ROWS)
        cross_check(Comparison("<", ColumnRef("Age"), Literal(None)))

    def test_comparison_type_error_message(self):
        cross_check(Comparison("<", ColumnRef("Name"), Literal(3)))

    def test_arithmetic(self):
        for op in ("+", "-", "*", "/"):
            cross_check(Arithmetic(op, ColumnRef("Salary"), Literal(2)))

    def test_arithmetic_null_is_null(self):
        fn = compile_expression(
            Arithmetic("+", ColumnRef("Salary"), Literal(1)),
            schema_resolver(SCHEMA))
        assert fn(("dave", 29, None)) is None

    def test_division_by_zero_message(self):
        cross_check(Arithmetic("/", ColumnRef("Salary"), Literal(0)))

    def test_is_null_and_negation(self):
        cross_check(IsNull(ColumnRef("Age")))
        cross_check(IsNull(ColumnRef("Age"), negated=True))

    def test_boolean_connectives(self):
        age = Comparison(">", ColumnRef("Age"), Literal(30))
        pay = Comparison(">", ColumnRef("Salary"), Literal(7800.0))
        cross_check(And([age, pay]))
        cross_check(Or([age, pay]))
        cross_check(Not(age))

    def test_and_short_circuits(self):
        # The second conjunct would raise a type error on every row; a
        # false first conjunct must prevent that, as in the interpreter.
        never = Comparison("=", ColumnRef("Age"), Literal(-1))
        boom = Comparison("<", ColumnRef("Name"), Literal(3))
        fn = compile_expression(And([never, boom]),
                                schema_resolver(SCHEMA))
        assert all(fn(row) is False for row in ROWS)

    def test_qualified_reference(self):
        cross_check(Comparison(
            "=", ColumnRef("Name", qualifier="EMP"), Literal("bob")))


class TestResolvers:
    def test_schema_resolver_unknown_column(self):
        with pytest.raises(ExpressionError, match="unknown column"):
            compile_expression(ColumnRef("Bogus"),
                               schema_resolver(SCHEMA))

    def test_schema_resolver_unknown_qualifier(self):
        with pytest.raises(ExpressionError,
                           match="unknown range variable or relation"):
            compile_expression(ColumnRef("Age", qualifier="other"),
                               schema_resolver(SCHEMA, ["emp"]))

    def test_schema_resolver_qualifier_missing_column(self):
        with pytest.raises(ExpressionError, match="has no column"):
            compile_expression(ColumnRef("Bogus", qualifier="EMP"),
                               schema_resolver(SCHEMA, ["emp"]))

    def test_slot_resolver_qualified(self):
        resolve = slot_resolver([("e", SCHEMA), ("d", DEPT_SCHEMA)])
        fn = compile_expression(ColumnRef("Head", qualifier="d"), resolve)
        assert fn((ROWS[0], ("eng", "alice"))) == "alice"

    def test_slot_resolver_unqualified_unambiguous(self):
        resolve = slot_resolver([("e", SCHEMA), ("d", DEPT_SCHEMA)])
        fn = compile_expression(ColumnRef("Salary"), resolve)
        assert fn((ROWS[1], ("eng", "alice"))) == 7500.0

    def test_slot_resolver_ambiguous(self):
        resolve = slot_resolver([("a", SCHEMA), ("b", SCHEMA)])
        with pytest.raises(ExpressionError, match="ambiguous column"):
            compile_expression(ColumnRef("Age"), resolve)


class TestBatchAccessors:
    def relation(self):
        return Relation(SCHEMA, ROWS)

    def test_iter_batches_partitions_rows(self):
        relation = self.relation()
        batches = list(relation.iter_batches(3))
        assert [len(b) for b in batches] == [3, 1]
        assert [row for batch in batches for row in batch] == ROWS

    def test_iter_batches_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            list(self.relation().iter_batches(0))

    def test_row_view_mapping_interface(self):
        relation = self.relation()
        view = relation.row_view()
        view.bind(ROWS[0])
        assert view["Name"] == "alice"
        assert view["age"] == 41  # case-insensitive, like record dicts
        assert "salary" in view
        assert len(view) == 3
        assert dict(view) == {"Name": "alice", "Age": 41,
                              "Salary": 9000.0}
        view.bind(ROWS[1])  # rebinding repoints, no reallocation
        assert view["Name"] == "bob"
        with pytest.raises(KeyError):
            view["Bogus"]
