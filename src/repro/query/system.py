"""The end-to-end intensional query processing system.

Architecture (Figure 6): query -> traditional query processor (the SQL
executor, producing the extensional answer) + inference processor over
the intelligent data dictionary (schema + induced rules), producing the
intensional answers.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro import obs
from repro.induction.config import InductionConfig
from repro.induction.ils import InductiveLearningSubsystem
from repro.inference.answers import InferenceResult, IntensionalAnswer
from repro.inference.engine import TypeInferenceEngine
from repro.ker.binding import SchemaBinding
from repro.ker.model import KerSchema
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.rules.ruleset import RuleSet
from repro.errors import SqlError
from repro.query.conditions import extract_conditions
from repro.sql.ast import ExplainStmt, SelectStmt
from repro.sql.executor import execute_select
from repro.sql.parser import parse_select


def _induce_all_comparisons(binding: SchemaBinding) -> list:
    """Comparison constraints over every relationship type (a backed
    type with two or more object-typed attributes)."""
    from repro.induction.candidates import foreign_key_map
    from repro.induction.interobject import induce_comparison_constraints
    from repro.rules.clause import AttributeRef

    fk = foreign_key_map(binding)
    constraints: list = []
    for object_type in binding.schema.object_types.values():
        if not binding.is_backed(object_type.name):
            continue
        relation = binding.database.relation(object_type.name)
        fk_count = sum(
            1 for attribute in object_type.attributes
            if AttributeRef(relation.name, attribute.name) in fk)
        if fk_count >= 2:
            constraints.extend(
                induce_comparison_constraints(binding, relation.name))
    return constraints


class QueryResult:
    """Extensional answer plus intensional characterizations.

    ``warnings`` carries degradation notices -- today, that the rule
    base is stale (data changed after the last induction) and
    intensional answering was suppressed rather than risk answers
    induced from different data.
    """

    def __init__(self, statement: SelectStmt, extensional: Relation,
                 inference: InferenceResult, unused: Sequence,
                 warnings: Sequence[str] = ()):
        self.statement = statement
        self.extensional = extensional
        self.inference = inference
        self.unused = tuple(unused)
        self.warnings = tuple(warnings)

    @property
    def intensional(self) -> list[IntensionalAnswer]:
        return self.inference.answers()

    def combined_answer(self) -> str | None:
        return self.inference.combined_answer()

    def render(self, max_rows: int | None = 20) -> str:
        lines = [self.statement.render(), "",
                 "Extensional answer:",
                 self.extensional.render(max_rows=max_rows), "",
                 self.inference.summary()]
        for warning in self.warnings:
            lines.append(f"WARNING: {warning}")
        if self.unused:
            lines.append(
                "(conditions unused by inference: "
                + "; ".join(e.render() for e in self.unused) + ")")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"<QueryResult {len(self.extensional)} tuples, "
                f"{len(self.intensional)} intensional answers>")


class IntensionalQueryProcessor:
    """SQL in; extensional tuples and intensional answers out."""

    def __init__(self, database: Database, rules: RuleSet,
                 binding: SchemaBinding | None = None,
                 constraints: list | None = None):
        self.database = database
        self.rules = rules
        self.binding = binding
        self.constraints = constraints or []
        self.engine = TypeInferenceEngine(rules, binding=binding,
                                          constraints=self.constraints)

    @classmethod
    def from_database(cls, database: Database,
                      ker_schema: KerSchema | None = None,
                      config: InductionConfig | None = None,
                      relation_order: list[str] | None = None,
                      include_schema_rules: bool = False,
                      induce_comparisons: bool = False,
                      ) -> "IntensionalQueryProcessor":
        """Build the full pipeline: bind the schema, induce the rules.

        With ``include_schema_rules`` the declared with-constraint rules
        are merged into the knowledge base alongside the induced ones.
        With ``induce_comparisons`` inter-attribute comparison
        constraints (Section 3.1's "draft < depth" form) are induced
        over every relationship type and used for bound propagation.
        """
        binding = None
        rules = RuleSet()
        constraints: list = []
        if ker_schema is not None:
            binding = SchemaBinding(ker_schema, database)
            ils = InductiveLearningSubsystem(
                binding, config, relation_order=relation_order)
            rules = ils.induce()
            if include_schema_rules:
                rules = rules.merged_with(binding.schema_rules())
            if induce_comparisons:
                constraints = _induce_all_comparisons(binding)
        return cls(database, rules, binding=binding,
                   constraints=constraints)

    # -- durability ---------------------------------------------------------

    @property
    def storage(self):
        """The attached :class:`~repro.storage.StorageEngine`, if any."""
        return self.database.storage

    @property
    def degraded(self) -> bool:
        """Whether intensional answering is suppressed because the rules
        no longer describe the data.

        When the attached storage holds the rule base, its staleness
        flag decides: data committed after the last stored induction
        degrades, a rolled-back write does not.  Otherwise
        :attr:`RuleSet.basis <repro.rules.ruleset.RuleSet.basis>`
        decides: degraded when any relation it records is missing or at
        another mutation version, whether or not a rule names it (a rule
        over a relationship is induced through relations it never
        names).  A rule set without a basis is trusted.
        """
        storage = self.database.storage
        if storage is not None and storage.has_rules:
            return storage.rules_stale
        basis = self.rules.basis
        if basis is None:
            return False
        catalog = self.database.catalog
        for name, version in basis.items():
            if (name not in catalog
                    or catalog.get(name).version != version):
                return True
        return False

    @property
    def planner_rules(self) -> RuleSet | None:
        """The rules the planner may rewrite queries with: ``None``
        while :attr:`degraded`, so a stale rule can neither tighten nor
        empty a plan.  Every path that plans a SELECT for this processor
        (``ask``, ``explain``, the shell's EXPLAIN, the server's reads)
        passes this."""
        return None if self.degraded else self.rules

    def _require_storage(self, action: str = "do this"):
        if self.database.storage is None:
            from repro.errors import StorageError
            raise StorageError(
                f"cannot {action}: no durable storage attached",
                hint="attach one with attach_storage(data_dir), or "
                     "start the CLI or repro-server with --data-dir")
        return self.database.storage

    def attach_storage(self, data_dir: str, fsync: str = "commit"):
        """Attach a durable storage engine: from here on every mutation
        is journaled and ``checkpoint()``/``recover()`` work."""
        from repro.storage import StorageEngine
        return StorageEngine(self.database, data_dir, fsync=fsync)

    def begin(self) -> None:
        """Open an explicit transaction on the attached storage."""
        self._require_storage("begin a transaction").begin()

    def commit(self) -> None:
        self._require_storage("commit a transaction").commit()

    def rollback(self) -> None:
        self._require_storage("roll back a transaction").rollback()

    def checkpoint(self) -> int:
        return self._require_storage("checkpoint the database").checkpoint()

    @classmethod
    def recover(cls, data_dir: str, fsync: str = "commit",
                ker_schema: KerSchema | None = None,
                ) -> tuple["IntensionalQueryProcessor", "RecoveryReport"]:
        """Restart from *data_dir*: snapshot + WAL tail, rule relations
        decoded back into the knowledge base.

        A stale rule base (data committed after the last induction) is
        *kept* but flagged: :meth:`ask` then answers extensionally only,
        with a warning, until :meth:`refresh_rules` re-induces.
        """
        from repro.rules.rule_relations import (
            RULE_RELATION_NAME, RuleRelationBundle, decode_rule_relations,
        )
        from repro.storage import StorageEngine
        engine, report = StorageEngine.recover(data_dir, fsync=fsync)
        database = engine.database
        rules = RuleSet()
        if RULE_RELATION_NAME in database.catalog:
            rules = decode_rule_relations(
                RuleRelationBundle.from_database(database))
        binding = (SchemaBinding(ker_schema, database)
                   if ker_schema is not None else None)
        processor = cls(database, rules, binding=binding)
        return processor, report

    def refresh_rules(self, ker_schema: KerSchema | None = None,
                      config: InductionConfig | None = None,
                      relation_order: list[str] | None = None) -> RuleSet:
        """Re-induce the rule base from the current data and store it
        atomically (rules + induction metadata in one transaction),
        clearing any staleness flag."""
        from repro.errors import StorageError
        if ker_schema is not None:
            self.binding = SchemaBinding(ker_schema, self.database)
        if self.binding is None:
            raise StorageError(
                "cannot refresh rules without a KER schema",
                hint="pass ker_schema= (the binding was not recovered "
                     "from storage)")
        ils = InductiveLearningSubsystem(self.binding, config,
                                         relation_order=relation_order)
        self.rules = ils.induce_and_store()
        self.engine = TypeInferenceEngine(self.rules, binding=self.binding,
                                          constraints=self.constraints)
        return self.rules

    def ask(self, sql: str, forward: bool = True,
            backward: bool = True) -> QueryResult:
        """Answer *sql* extensionally and intensionally.

        While the rules no longer describe the data (:attr:`degraded`),
        the intensional half is suppressed (never silently wrong): the
        result carries only the extensional answer plus a warning until
        :meth:`refresh_rules` runs.

        Repeated asks are served from the intensional-answer cache: the
        whole :class:`QueryResult` is memoized on the normalized SQL
        fingerprint, pinned to the rule-base version, the staleness
        flag, and a version vector over the touched relations, so any
        DML, rollback, re-induction or recovery replay drops it before
        it could go stale.
        """
        from repro.cache.core import query_cache
        from repro.sql.fingerprint import normalize_sql
        start = time.perf_counter()
        degraded = self.degraded
        cache = query_cache(self.database)
        ask_key = (normalize_sql(sql), bool(forward), bool(backward))
        warnings: list[str] = []
        with obs.span("query.ask", sql=sql) as span:
            cached = cache.lookup_ask(ask_key, self.rules.version,
                                      degraded)
            if cached is not None:
                span.set(rows=len(cached.extensional),
                         intensional=len(cached.inference.forward)
                         + len(cached.inference.backward),
                         cached=True)
                if obs.enabled():
                    obs.observe_query(cached.statement.render(),
                                      time.perf_counter() - start,
                                      rows=len(cached.extensional),
                                      kind="ask")
                return cached
            statement = parse_select(sql)
            extensional = execute_select(self.database, statement,
                                         rules=self.planner_rules)
            conditions = extract_conditions(self.database, statement)
            if degraded:
                from repro.inference.facts import FactBase
                inference = InferenceResult(conditions.clauses,
                                            FactBase(), (), ())
                warnings.append(
                    "rule base is stale (data changed after the last "
                    "induction); intensional answers suppressed -- "
                    "run refresh_rules() to restore them")
                obs.counter("stale_rule_base_degraded_total",
                            "queries answered extensionally only "
                            "because the rule base was stale").inc()
            else:
                inference = self.engine.infer(
                    conditions.clauses,
                    equivalences=conditions.equivalences,
                    forward=forward, backward=backward)
            span.set(rows=len(extensional),
                     intensional=len(inference.forward)
                     + len(inference.backward),
                     degraded=degraded)
        result = QueryResult(statement, extensional, inference,
                             conditions.unused, warnings=warnings)
        elapsed = time.perf_counter() - start
        cache.admit_ask(
            ask_key, self.rules.version, degraded,
            [self.database.relation(table.name)
             for table in statement.tables],
            result, elapsed)
        if obs.enabled():
            obs.observe_query(statement.render(), elapsed,
                              rows=len(extensional), kind="ask")
        return result

    def explain(self, sql: str, analyze: bool = False) -> str:
        """Plan, execute, and render the plan tree for a SELECT.

        The induced rules feed the planner's semantic optimizer, so the
        rendering shows rule-driven tightening and contradiction
        short-circuits next to estimated vs. actual cardinalities.
        *sql* may be a bare SELECT or carry its own ``EXPLAIN
        [ANALYZE]`` prefix; ``analyze=True`` (or the ANALYZE keyword)
        adds measured per-node wall times.
        """
        from repro.plan.explain import explain_select
        from repro.sql.parser import parse_statement
        statement = parse_statement(sql)
        if isinstance(statement, ExplainStmt):
            analyze = analyze or statement.analyze
            statement = statement.select
        if not isinstance(statement, SelectStmt):
            raise SqlError("explain() takes a SELECT statement")
        return explain_select(self.database, statement,
                              rules=self.planner_rules, analyze=analyze)

    def explain_analyze(self, sql: str) -> str:
        """``EXPLAIN ANALYZE``: the plan tree annotated with measured
        per-node wall time and actual vs. estimated rows."""
        return self.explain(sql, analyze=True)

    # -- observability ------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Snapshot of every recorded metric series (flat mapping)."""
        return obs.metrics().snapshot()

    def metrics_text(self, prometheus: bool = False) -> str:
        """Rendered metrics: a human table, or the Prometheus text
        exposition format with ``prometheus=True``."""
        registry = obs.metrics()
        return (registry.render_prometheus() if prometheus
                else registry.render())
