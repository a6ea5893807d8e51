"""Unit tests for relation values."""

import pytest

from repro.errors import SchemaError
from repro.relational.datatypes import INTEGER, char
from repro.relational.relation import Relation
from repro.relational.schema import Column, RelationSchema


@pytest.fixture()
def schema():
    return RelationSchema("T", [Column("A", char(4)),
                                Column("N", INTEGER)])


@pytest.fixture()
def rel(schema):
    return Relation(schema, [("x", 1), ("y", 2), ("x", 1), ("z", None)])


class TestConstruction:
    def test_rows_validated(self, schema):
        relation = Relation(schema, [("abc", "7")])
        assert relation.rows == [("abc", 7)]

    def test_validated_rows_kept_in_a_list_of_its_own(self, schema):
        rows = [("x", 1), ("y", 2)]
        relation = Relation(schema, rows, validated=True)
        assert all(kept is given for kept, given in zip(relation.rows, rows))
        rows.append(("z", 3))
        assert relation.rows == [("x", 1), ("y", 2)]
        assert Relation(schema, iter(rows), validated=True).rows == rows

    def test_from_dicts(self, schema):
        relation = Relation.from_dicts(
            schema, [{"a": "q", "n": 3}, {"A": "r"}])
        assert relation.rows == [("q", 3), ("r", None)]

    def test_from_dicts_unknown_column(self, schema):
        with pytest.raises(SchemaError, match="unknown columns"):
            Relation.from_dicts(schema, [{"bogus": 1}])

    def test_infer(self):
        relation = Relation.infer("T", ["A", "N"], [("x", 1), ("y", 2)])
        assert relation.schema.column("N").datatype == INTEGER

    def test_infer_empty_rejected(self):
        with pytest.raises(SchemaError):
            Relation.infer("T", ["A"], [])


class TestAccess:
    def test_value_by_name(self, rel):
        assert rel.value(rel.rows[0], "N") == 1

    def test_column_values(self, rel):
        assert rel.column_values("A") == ["x", "y", "x", "z"]

    def test_record(self, rel):
        assert rel.record(rel.rows[1]) == {"A": "y", "N": 2}

    def test_len_iter_bool(self, rel):
        assert len(rel) == 4
        assert list(rel)[0] == ("x", 1)
        assert rel
        assert not Relation(rel.schema)


class TestMutation:
    def test_insert(self, rel):
        rel.insert(("w", 9))
        assert len(rel) == 5

    def test_insert_many(self, rel):
        assert rel.insert_many([("a", 1), ("b", 2)]) == 2

    def test_delete_where(self, rel):
        deleted = rel.delete_where(lambda row: row[0] == "x")
        assert deleted == 2
        assert len(rel) == 2

    def test_clear(self, rel):
        rel.clear()
        assert not rel


class TestDerived:
    def test_distinct(self, rel):
        assert len(rel.distinct()) == 3

    def test_distinct_preserves_order(self, rel):
        assert rel.distinct().rows[0] == ("x", 1)

    def test_sorted_by(self, rel):
        ordered = rel.sorted_by("A")
        assert [row[0] for row in ordered] == ["x", "x", "y", "z"]

    def test_sorted_nulls_first(self, rel):
        ordered = rel.sorted_by("N")
        assert ordered.rows[0][1] is None

    def test_sorted_descending(self, rel):
        ordered = rel.sorted_by("A", descending=True)
        assert ordered.rows[0][0] == "z"

    def test_copy_independent(self, rel):
        clone = rel.copy()
        clone.insert(("q", 5))
        assert len(rel) == 4

    def test_copy_rename(self, rel):
        assert rel.copy("U").name == "U"


class TestEquality:
    def test_bag_equality_order_insensitive(self, schema):
        left = Relation(schema, [("a", 1), ("b", 2)])
        right = Relation(schema, [("b", 2), ("a", 1)])
        assert left == right

    def test_bag_equality_multiplicity(self, schema):
        left = Relation(schema, [("a", 1), ("a", 1)])
        right = Relation(schema, [("a", 1)])
        assert left != right

    def test_unhashable(self, rel):
        with pytest.raises(TypeError):
            hash(rel)


class TestRender:
    def test_render_contains_header_and_null(self, rel):
        text = rel.render()
        assert "A" in text and "N" in text
        assert "NULL" in text

    def test_render_max_rows(self, rel):
        text = rel.render(max_rows=2)
        assert "more" in text
