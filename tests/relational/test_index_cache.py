"""IndexCache: version-checked reuse of sorted indexes."""

from repro.relational.database import Database
from repro.relational.datatypes import INTEGER, char
from repro.relational.indexes import IndexCache
from repro.relational.relation import Relation
from repro.relational.schema import Column, RelationSchema


def make_relation(name="T"):
    schema = RelationSchema(name, [Column("K", char(4)),
                                   Column("V", INTEGER)])
    return Relation(schema, [("a", 1), ("b", 2), ("a", 3)])


class TestIndexCache:
    def test_reuse_while_unchanged(self):
        cache = IndexCache()
        relation = make_relation()
        first = cache.sorted_index(relation, "K")
        assert cache.sorted_index(relation, "K") is first
        assert cache.rebuilds == 1

    def test_mutation_rebuilds(self):
        cache = IndexCache()
        relation = make_relation()
        index = cache.sorted_index(relation, "K")
        assert index.range("c", "c") == []
        relation.insert(("c", 4))
        rebuilt = cache.sorted_index(relation, "K")
        assert rebuilt is not index
        assert rebuilt.range("c", "c") == [3]
        assert cache.rebuilds == 2

    def test_columns_cached_separately(self):
        cache = IndexCache()
        relation = make_relation()
        cache.sorted_index(relation, "K")
        cache.sorted_index(relation, "V")
        assert cache.rebuilds == 2
        cache.sorted_index(relation, "K")
        cache.sorted_index(relation, "V")
        assert cache.rebuilds == 2

    def test_replaced_relation_rebuilds(self):
        cache = IndexCache()
        cache.sorted_index(make_relation(), "K")
        other = make_relation()  # same name, different object
        cache.sorted_index(other, "K")
        assert cache.rebuilds == 2

    def test_staleness_flag(self):
        relation = make_relation()
        cache = IndexCache()
        index = cache.sorted_index(relation, "K")
        assert not index.is_stale
        relation.insert(("z", 9))
        assert index.is_stale

    def test_database_owns_a_cache(self):
        database = Database()
        assert isinstance(database.indexes, IndexCache)

    def test_invalidate_clears(self):
        cache = IndexCache()
        relation = make_relation()
        cache.sorted_index(relation, "K")
        assert len(cache) == 1
        cache.invalidate()
        assert len(cache) == 0
