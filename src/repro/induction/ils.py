"""The Inductive Learning Subsystem facade.

Ties schema-guided candidate selection, pair extraction (a column-store
sweep within one relation, a native pass over relationship joins, or
QUEL), run construction and pruning into one call::

    ils = InductiveLearningSubsystem(binding, InductionConfig(n_c=3))
    knowledge = ils.induce()          # a RuleSet

Induced consequences that realize a subtype's derivation specification
are tagged with the subtype name, so they print exactly like the paper's
rule list (``if 7250 <= Displacement <= 30000 then x isa SSBN``).
"""

from __future__ import annotations

from typing import Any

from repro import obs
from repro.errors import InductionError
from repro.induction.candidates import (
    CandidateScheme, candidate_schemes, foreign_key_map,
)
from repro.induction.config import InductionConfig
from repro.induction.pairwise import (
    extract_pairs_columnar, extract_pairs_native, extract_pairs_quel,
    induce_from_pairs,
)
from repro.ker.binding import SchemaBinding
from repro.relational.indexes import HashIndex
from repro.rules.clause import AttributeRef
from repro.rules.rule import Rule
from repro.rules.ruleset import RuleSet


class JoinExpander:
    """Expands a relationship relation into joined attribute records.

    Every row of the relationship becomes a mapping
    ``AttributeRef -> value`` covering the relationship's own attributes
    and, transitively, the attributes of every relation reachable through
    foreign keys (SUBMARINE pulls in its CLASS, the CLASS its TYPE, ...).
    """

    def __init__(self, binding: SchemaBinding):
        self.binding = binding
        self.fk = foreign_key_map(binding)
        self._indexes: dict[str, HashIndex] = {}

    def _index(self, relation_name: str, key_column: str) -> HashIndex:
        cache_key = f"{relation_name.lower()}.{key_column.lower()}"
        if cache_key not in self._indexes:
            relation = self.binding.database.relation(relation_name)
            self._indexes[cache_key] = HashIndex(relation, key_column)
        return self._indexes[cache_key]

    def expand(self, relationship: str) -> list[dict[AttributeRef, Any]]:
        relation = self.binding.database.relation(relationship)
        records: list[dict[AttributeRef, Any]] = []
        for row in relation:
            record: dict[AttributeRef, Any] = {}
            self._add_row(record, relation.name, relation.schema, row,
                          visited=set())
            records.append(record)
        return records

    def _add_row(self, record: dict, relation_name: str, schema, row,
                 visited: set) -> None:
        if relation_name.lower() in visited:
            return
        visited.add(relation_name.lower())
        for column, value in zip(schema.columns, row):
            ref = AttributeRef(relation_name, column.name)
            record.setdefault(ref, value)
            target = self.fk.get(ref)
            if target is None or value is None:
                continue
            index = self._index(target.relation, target.attribute)
            matches = index.lookup(value)
            if matches:
                target_relation = self.binding.database.relation(
                    target.relation)
                self._add_row(record, target_relation.name,
                              target_relation.schema, matches[0],
                              visited)


class InductiveLearningSubsystem:
    """Model-based inductive learning over a bound KER schema."""

    def __init__(self, binding: SchemaBinding,
                 config: InductionConfig | None = None,
                 relation_order: list[str] | None = None):
        self.binding = binding
        self.config = config or InductionConfig()
        self.relation_order = relation_order
        self._expander = JoinExpander(binding)

    # -- candidates -----------------------------------------------------

    def schemes(self) -> list[CandidateScheme]:
        return candidate_schemes(self.binding,
                                 relation_order=self.relation_order)

    # -- induction ---------------------------------------------------------

    def induce(self, include_tree_rules: bool = False) -> RuleSet:
        """Induce the full knowledge base (all candidate schemes).

        With ``include_tree_rules``, classification attributes are
        additionally learned with the ID3 tree over *all* other
        attributes of the relation, and the resulting multi-clause path
        rules (premises conjoining several attributes -- the general
        Horn form of Section 5.2.2 that the pairwise algorithm never
        produces) are added with source ``"id3"``.  Single-clause tree
        rules that duplicate pairwise rules are skipped.
        """
        with obs.span("induction.induce") as span:
            ruleset = RuleSet()
            schemes = self.schemes()
            for scheme in schemes:
                for rule in self.induce_one(scheme):
                    ruleset.add(rule)
            if include_tree_rules:
                for rule in self._induce_tree_rules(ruleset):
                    ruleset.add(rule)
            span.set(schemes=len(schemes), rules=len(ruleset))
            obs.counter("induction_rules_total",
                        "rules induced by the ILS").inc(len(ruleset))
            # Stamp the database state the rules were induced from, so
            # the planner's semantic optimizer can refuse to rewrite
            # queries with rules the data has since outgrown.
            ruleset.record_basis(self.binding.database)
            return ruleset

    def induce_and_store(self, include_tree_rules: bool = False) -> RuleSet:
        """Induce and persist the knowledge base in ONE transaction.

        The four rule relations, the induction-metadata relation (the
        N_c configuration the run used) and the ``rule_sync`` staleness
        marker commit together: after any crash the database holds
        either the complete new knowledge base or the previous one --
        never rules without their metadata, and never a sync marker for
        rules that were not fully written.

        Without attached storage this still registers everything (the
        transaction machinery is just absent).
        """
        import contextlib

        from repro.relational.datatypes import INTEGER, REAL, char
        from repro.relational.relation import Relation
        from repro.relational.schema import Column, RelationSchema
        from repro.rules.rule_relations import (
            INDUCTION_META_NAME, encode_rule_relations,
        )

        ruleset = self.induce(include_tree_rules=include_tree_rules)
        database = self.binding.database
        bundle = encode_rule_relations(ruleset)
        meta = Relation(
            RelationSchema(INDUCTION_META_NAME, [
                Column("NC", REAL), Column("NCFraction", INTEGER),
                Column("SupportMetric", char(16)),
                Column("RuleCount", INTEGER),
            ]),
            [(float(self.config.n_c),
              1 if self.config.n_c_fraction else 0,
              self.config.support_metric, len(ruleset))])
        storage = database.storage
        scope = (storage.transaction() if storage is not None
                 else contextlib.nullcontext())
        with scope:
            bundle.register_into(database)
            database.catalog.register(meta, replace=True)
            if storage is not None:
                storage.mark_rules_current()
        # The knowledge base changed wholesale: cached plans carry the
        # old rules' semantic rewrites and cached intensional answers
        # were derived from them, so the query cache flushes everything
        # (counted under reason="reinduction").
        cache = getattr(database, "_query_cache", None)
        if cache is not None:
            cache.invalidate_rules()
        return ruleset

    def _induce_tree_rules(self, existing: RuleSet) -> list[Rule]:
        from repro.induction.candidates import classification_attributes
        from repro.induction.id3 import id3_induce, tree_to_rules

        out: list[Rule] = []
        for target in classification_attributes(self.binding):
            relation = self.binding.database.relation(target.relation)
            threshold = self.config.threshold_for(len(relation))
            key_columns = {name.lower() for name in relation.schema.key}
            features = [
                AttributeRef(relation.name, column.name)
                for column in relation.schema.columns
                if column.name.lower() != target.attribute.lower()
                # Keys are identifiers, not characteristics: a tree
                # splitting on them memorizes rows instead of learning
                # classification semantics.
                and column.name.lower() not in key_columns]
            if len(features) < 2:
                continue  # single-feature trees duplicate pairwise rules
            refs = [AttributeRef(relation.name, column.name)
                    for column in relation.schema.columns]
            records = [dict(zip(refs, row)) for row in relation]
            tree = id3_induce(records, features, target)
            for rule in tree_to_rules(tree, target):
                if len(rule.lhs) < 2:
                    continue  # single-clause: pairwise territory
                if rule.support < threshold:
                    continue
                if not rule.sound_on(records):
                    # Impure leaves (identical feature vectors with
                    # conflicting labels) yield majority rules; unlike
                    # the pairwise algorithm's step 2, the tree has no
                    # inconsistency-removal, so enforce soundness here.
                    continue
                self._tag_subtype(rule)
                out.append(rule)
        return out

    def induce_one(self, scheme: CandidateScheme) -> list[Rule]:
        """Induce the rules of a single candidate scheme."""
        with obs.span("induction.scheme", kind=scheme.kind,
                      x=scheme.x_ref.render(),
                      y=scheme.y_ref.render()) as span:
            if scheme.kind == "intra":
                rules = self._induce_intra(scheme)
            elif scheme.kind == "inter":
                rules = self._induce_inter(scheme)
            else:
                raise InductionError(
                    f"unknown scheme kind {scheme.kind!r}")
            for rule in rules:
                self._tag_subtype(rule)
            span.set(rules=len(rules))
            return rules

    def _induce_intra(self, scheme: CandidateScheme) -> list[Rule]:
        database = self.binding.database
        relation = database.relation(scheme.x_ref.relation)
        if self.config.use_quel:
            extraction = extract_pairs_quel(
                database, relation.name,
                scheme.x_ref.attribute, scheme.y_ref.attribute)
        else:
            # Aggregation sweep over the column store: the interval
            # passes reduce over distinct-pair counts (dictionary codes
            # when encoded) instead of walking rows.
            extraction = extract_pairs_columnar(
                relation.column_store(),
                scheme.x_ref.attribute, scheme.y_ref.attribute)
        return induce_from_pairs(extraction, scheme.x_ref, scheme.y_ref,
                                 self.config, relation_size=len(relation))

    def _induce_inter(self, scheme: CandidateScheme) -> list[Rule]:
        records = self._expander.expand(scheme.relationship)
        pairs = [(record.get(scheme.x_ref), record.get(scheme.y_ref))
                 for record in records]
        extraction = extract_pairs_native(pairs)
        return induce_from_pairs(extraction, scheme.x_ref, scheme.y_ref,
                                 self.config, relation_size=len(records))

    # -- subtype tagging --------------------------------------------------------

    def _tag_subtype(self, rule: Rule) -> None:
        schema = self.binding.schema
        subtype = schema.subtype_for_clause(rule.rhs)
        if subtype is None and rule.rhs.is_equality():
            subtype = schema.subtype_for_interval(
                rule.rhs.attribute, rule.rhs.interval)
        if subtype is not None:
            rule.rhs_subtype = subtype
