"""Cross-engine differential testing over synthetic workloads.

Every statement of a generated program is replayed through several
independently configured engines -- the reference evaluator
(:mod:`repro.sql.reference`) vs the cost-based planner, semantic
optimization on/off, streaming batch sizes {1, 7, default, UNBOUNDED},
result cache on/off, and the direct call path vs the server wire path
-- and the per-statement outcomes plus the final database state must
agree bit-for-bit.  A disagreement is a
:class:`Divergence`; :func:`minimize` delta-debugs the statement list
down to a minimal reproducer, and :mod:`tests.differential` pins
minimized cases from ``tests/differential/corpus/`` as regression
tests.

Beyond plain result equality the harness checks metamorphic
invariants that need no oracle:

* **intensional superset-consistency** -- a forward intensional answer
  ("every answer is of type T / satisfies C") must hold extensionally:
  re-projecting the conclusion attribute over the same qualification
  may produce no violating value;
* **conjunct commutativity** -- reordering the WHERE conjuncts must
  not change the result;
* **insert/delete round-trip** -- inserting a fresh-keyed row and
  deleting it restores the exact prior state.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.relational.expressions import ColumnRef
from repro.relational.relation import Relation
from repro.sql import ast
from repro.sql.executor import execute_statement
from repro.sql.parser import parse_statement
from repro.sql.reference import execute_select_reference
from repro.synth.domains import SynthInstance, build_instance
from repro.synth.workload import (
    Statement, _digest, generate_program, rows_fingerprint,
)

UNBOUNDED = 2 ** 62


# ---------------------------------------------------------------------------
# canonical outcomes


def _row_key(row: tuple):
    return tuple((value is None, type(value).__name__, str(value))
                 for value in row)


def canonical_relation(relation: Relation) -> dict:
    """Order-insensitive (bag) canonical form of a result relation."""
    rows = sorted((list(row) for row in relation), key=tuple)
    return {"kind": "rows",
            "columns": [column.name for column in relation.schema.columns],
            "rows": rows}


def canonical_outcome(value) -> dict:
    if isinstance(value, Relation):
        return canonical_relation(value)
    if isinstance(value, int):
        return {"kind": "count", "count": value}
    return {"kind": "text", "text": str(value)}


def _error_outcome(error: Exception) -> dict:
    return {"kind": "error", "type": type(error).__name__}


# ---------------------------------------------------------------------------
# engine sessions


class EngineSession:
    """One configured engine replaying a statement program."""

    def __init__(self, instance: SynthInstance, *,
                 reference: bool = False,
                 with_rules: bool = False,
                 reinduce_after_dml: bool = False,
                 cache_enabled: bool = False,
                 batch_size: int | None = None):
        self.instance = instance
        self.reference = reference
        self.with_rules = with_rules
        self.reinduce_after_dml = reinduce_after_dml
        self.batch_size = batch_size
        from repro.cache.core import query_cache
        self._cache = query_cache(instance.database)
        self._cache.enabled = cache_enabled

    def _rules(self):
        return self.instance.rules if self.with_rules else None

    def run(self, statement: Statement) -> dict:
        database = self.instance.database
        try:
            parsed = parse_statement(statement.sql)
            if isinstance(parsed, ast.SelectStmt):
                if self.reference:
                    result = execute_select_reference(database, parsed)
                else:
                    result = self._cache.execute_select(
                        parsed, rules=self._rules(),
                        batch_size=self.batch_size)
                return canonical_relation(result)
            value = execute_statement(database, statement.sql)
            if self.reinduce_after_dml:
                self.instance.reinduce()
            return canonical_outcome(value)
        except Exception as error:  # compared across engines
            return _error_outcome(error)

    def final_state(self) -> str:
        return rows_fingerprint(self.instance)

    def close(self) -> None:
        """Nothing to release: the session changes no process state."""


class ServerSession:
    """Replays the program over the wire through a live server."""

    def __init__(self, instance: SynthInstance):
        from repro.query.system import IntensionalQueryProcessor
        from repro.server import IntensionalQueryServer
        from repro.server.client import Client
        self.instance = instance
        from repro.cache.core import query_cache
        query_cache(instance.database).enabled = False
        system = IntensionalQueryProcessor(
            instance.database, instance.rules, binding=instance.binding)
        self.server = IntensionalQueryServer(system, port=0,
                                             lock_timeout_s=5.0)
        self.server.start()
        self.client = Client("127.0.0.1", self.server.port).connect()

    def run(self, statement: Statement) -> dict:
        try:
            return canonical_outcome(self.client.sql(statement.sql))
        except Exception as error:
            return _error_outcome(error)

    def final_state(self) -> str:
        return rows_fingerprint(self.instance)

    def close(self) -> None:
        try:
            self.client.close()
        finally:
            self.server.shutdown(drain=False)


@dataclass(frozen=True)
class EngineConfig:
    """A named way of standing up an engine over a domain instance."""

    name: str
    description: str
    factory: Callable[[SynthInstance], object]

    def open(self, instance: SynthInstance):
        return self.factory(instance)


CONFIGS: dict[str, EngineConfig] = {}


def _register(name: str, description: str, factory) -> None:
    CONFIGS[name] = EngineConfig(name, description, factory)


_register("reference", "nested-loop reference evaluator: interpreted "
          "expressions, no index, kernel, compiled closure or plan node",
          lambda instance: EngineSession(instance, reference=True))
_register("planner", "cost-based planner, no rules, cache off",
          lambda instance: EngineSession(instance))
_register("planner-rules",
          "planner with the induced rule base (semantic optimization; "
          "staleness guard exercised by DML)",
          lambda instance: EngineSession(instance, with_rules=True))
_register("planner-reinduce",
          "planner with rules re-induced after every DML statement",
          lambda instance: EngineSession(instance, with_rules=True,
                                         reinduce_after_dml=True))
_register("batch-1", "planner streaming one row per morsel",
          lambda instance: EngineSession(instance, batch_size=1))
_register("batch-7", "planner streaming seven rows per morsel",
          lambda instance: EngineSession(instance, batch_size=7))
_register("unbounded", "planner materializing everything per operator",
          lambda instance: EngineSession(instance, batch_size=UNBOUNDED))
_register("cached", "planner behind the version-aware query cache",
          lambda instance: EngineSession(instance, with_rules=True,
                                         cache_enabled=True))
_register("server", "statements shipped over the wire protocol",
          ServerSession)

#: The default matrix: one representative per engine dimension.
DEFAULT_CONFIGS = ("reference", "planner", "planner-rules", "batch-1",
                   "unbounded", "cached", "server")


# ---------------------------------------------------------------------------
# running and comparing


@dataclass(frozen=True)
class Divergence:
    """Two configurations disagreeing on one statement (or final state)."""

    domain: str
    seed: int
    statement_index: int          #: -1 means final-state mismatch
    statement: Statement | None
    config_a: str
    config_b: str
    outcome_a: dict | str
    outcome_b: dict | str

    def render(self) -> str:
        where = ("final state" if self.statement_index < 0 else
                 f"statement {self.statement_index}: "
                 f"{self.statement.sql}")
        return (f"[{self.domain} seed={self.seed}] {where}\n"
                f"  {self.config_a}: {self.outcome_a}\n"
                f"  {self.config_b}: {self.outcome_b}")


@dataclass
class Report:
    """The outcome of one differential run."""

    domain: str
    seed: int
    configs: tuple[str, ...]
    statements: list[Statement]
    divergences: list[Divergence] = field(default_factory=list)
    outcomes: dict[str, list[dict]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def render(self) -> str:
        if self.ok:
            return (f"[{self.domain} seed={self.seed}] "
                    f"{len(self.statements)} statements x "
                    f"{len(self.configs)} configs: agree")
        return "\n".join(d.render() for d in self.divergences)


def _fresh_instance(domain: str, seed: int, scale: int,
                    adversarial: bool) -> SynthInstance:
    return build_instance(domain, seed=seed, scale=scale,
                          adversarial=adversarial)


def run_config(config_name: str, domain: str, seed: int,
               statements: Sequence[Statement], *, scale: int = 1,
               adversarial: bool = False) -> tuple[list[dict], str]:
    """Replay *statements* through one engine configuration built on a
    fresh instance; returns (per-statement outcomes, final state)."""
    instance = _fresh_instance(domain, seed, scale, adversarial)
    session = CONFIGS[config_name].open(instance)
    try:
        outcomes = [session.run(statement) for statement in statements]
        return outcomes, session.final_state()
    finally:
        session.close()


def run_differential(domain: str, seed: int,
                     statements: Sequence[Statement] | None = None, *,
                     n_statements: int = 30, workload_seed: int = 0,
                     scale: int = 1, adversarial: bool = False,
                     configs: Sequence[str] = DEFAULT_CONFIGS,
                     stop_at: int | None = None) -> Report:
    """Run the full differential matrix for one (domain, seed).

    Every configuration replays the same statement program against its
    own fresh instance; the first configuration is the baseline the
    rest are compared against, statement by statement and on the final
    database state.  *stop_at* caps the number of divergences reported.
    """
    if statements is None:
        instance = _fresh_instance(domain, seed, scale, adversarial)
        statements = generate_program(instance, n_statements,
                                      seed=workload_seed)
    statements = list(statements)
    report = Report(domain, seed, tuple(configs), statements)
    results = {name: run_config(name, domain, seed, statements,
                                scale=scale, adversarial=adversarial)
               for name in configs}
    for name, (outcomes, _final) in results.items():
        report.outcomes[name] = outcomes
    baseline = configs[0]
    base_outcomes, base_final = results[baseline]
    for name in configs[1:]:
        outcomes, final = results[name]
        for index, statement in enumerate(statements):
            if outcomes[index] != base_outcomes[index]:
                report.divergences.append(Divergence(
                    domain, seed, index, statement, baseline, name,
                    base_outcomes[index], outcomes[index]))
                if stop_at and len(report.divergences) >= stop_at:
                    return report
        if final != base_final:
            report.divergences.append(Divergence(
                domain, seed, -1, None, baseline, name,
                base_final, final))
    return report


# ---------------------------------------------------------------------------
# metamorphic invariants


def check_intensional_consistency(domain: str, seed: int, sql: str, *,
                                  scale: int = 1,
                                  adversarial: bool = False) -> list[str]:
    """Verify forward intensional answers extensionally.

    For every forward answer with a value conclusion C over an
    attribute of a FROM relation, re-runs the qualification through the
    rule-free reference evaluator projecting C's attribute: a value
    outside C's interval is a violation.  Returns violation descriptions.
    """
    from repro.query.system import IntensionalQueryProcessor
    from repro.sql.parser import parse_select

    instance = _fresh_instance(domain, seed, scale, adversarial)
    processor = IntensionalQueryProcessor(
        instance.database, instance.rules, binding=instance.binding)
    result = processor.ask(sql, forward=True, backward=False)
    statement = parse_select(sql)
    from_tables = {table.name.lower() for table in statement.tables}
    violations: list[str] = []
    for answer in result.inference.forward_answers():
        conclusion = answer.conclusion
        if conclusion is None:
            continue
        if conclusion.attribute.relation.lower() not in from_tables:
            continue  # derived via join closure; not directly checkable
        probe = ast.SelectStmt(
            items=[ast.SelectItem(ColumnRef(
                conclusion.attribute.attribute,
                conclusion.attribute.relation))],
            tables=statement.tables, where=statement.where)
        extension = execute_select_reference(instance.database, probe)
        for (value,) in extension:
            if not conclusion.satisfied_by(value):
                violations.append(
                    f"{answer.render()} but {conclusion.attribute.render()}"
                    f"={value!r} in the extension of: {sql}")
    return violations


def _split_conjuncts(sql: str) -> tuple[str, list[str], str]:
    """Split a generated flat-conjunction SELECT into
    (head, conjuncts, tail).  Generated SQL never nests AND under
    OR/NOT or parentheses, so a textual split is exact."""
    upper = sql.upper()
    start = upper.find(" WHERE ")
    if start < 0:
        return sql, [], ""
    head = sql[:start]
    rest = sql[start + len(" WHERE "):]
    tail = ""
    for marker in (" GROUP BY ", " ORDER BY "):
        position = rest.upper().find(marker)
        if position >= 0:
            tail = rest[position:]
            rest = rest[:position]
    parts = rest.split(" AND ")
    return head, parts, tail


def check_conjunct_commutativity(domain: str, seed: int, sql: str, *,
                                 config: str = "planner-rules",
                                 scale: int = 1,
                                 adversarial: bool = False) -> bool:
    """Reordering WHERE conjuncts must not change the result."""
    head, conjuncts, tail = _split_conjuncts(sql)
    if len(conjuncts) < 2:
        return True
    reordered = (head + " WHERE "
                 + " AND ".join(reversed(conjuncts)) + tail)
    original = Statement("select", sql)
    swapped = Statement("select", reordered)
    outcomes, _final = run_config(config, domain, seed,
                                  [original, swapped],
                                  scale=scale, adversarial=adversarial)
    return outcomes[0] == outcomes[1]


def check_insert_delete_roundtrip(domain: str, seed: int, *,
                                  config: str = "planner-rules",
                                  scale: int = 1,
                                  adversarial: bool = False) -> bool:
    """INSERT a fresh-keyed row then DELETE it: state must round-trip."""
    instance = _fresh_instance(domain, seed, scale, adversarial)
    session = CONFIGS[config].open(instance)
    try:
        before = session.final_state()
        relation_name = instance.domain.relation_order[-1]
        relation = instance.database.relation(relation_name)
        template = list(list(relation)[0])
        key_column = relation.schema.key[0]
        position = relation.schema.position(key_column)
        template[position] = ("Z999" if isinstance(template[position], str)
                              else 999999)
        columns = ", ".join(column.name
                            for column in relation.schema.columns)

        def literal(value):
            if isinstance(value, str):
                return "'" + value.replace("'", "''") + "'"
            return "NULL" if value is None else str(value)

        values = ", ".join(literal(value) for value in template)
        insert = Statement("dml", f"INSERT INTO {relation_name} "
                                  f"({columns}) VALUES ({values})")
        delete = Statement(
            "dml",
            f"DELETE FROM {relation_name} WHERE "
            f"{relation_name}.{key_column} = "
            f"{literal(template[position])}")
        first = session.run(insert)
        second = session.run(delete)
        if first.get("kind") != "count" or second.get("kind") != "count":
            return False
        return session.final_state() == before
    finally:
        session.close()


# ---------------------------------------------------------------------------
# delta-debugging minimizer


def diverges(domain: str, seed: int, statements: Sequence[Statement], *,
             configs: Sequence[str], scale: int = 1,
             adversarial: bool = False) -> bool:
    report = run_differential(domain, seed, statements, configs=configs,
                              scale=scale, adversarial=adversarial,
                              stop_at=1)
    return not report.ok


def minimize(domain: str, seed: int, statements: Sequence[Statement], *,
             configs: Sequence[str], scale: int = 1,
             adversarial: bool = False,
             predicate: Callable[[Sequence[Statement]], bool] | None = None,
             ) -> list[Statement]:
    """ddmin: the statement list shrunk to a still-diverging core.

    *predicate* overrides the default "does the matrix diverge" check
    (used by the minimizer's own tests with injected faults).
    """
    if predicate is None:
        def predicate(subset: Sequence[Statement]) -> bool:
            return diverges(domain, seed, subset, configs=configs,
                            scale=scale, adversarial=adversarial)
    current = list(statements)
    if not predicate(current):
        return current
    granularity = 2
    while len(current) >= 2:
        chunk = max(1, len(current) // granularity)
        reduced = False
        start = 0
        while start < len(current):
            candidate = current[:start] + current[start + chunk:]
            if candidate and predicate(candidate):
                current = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
            else:
                start += chunk
        if not reduced:
            if granularity >= len(current):
                break
            granularity = min(len(current), granularity * 2)
    return current


# ---------------------------------------------------------------------------
# counterexample corpus


def case_payload(domain: str, seed: int,
                 statements: Sequence[Statement], *,
                 configs: Sequence[str], scale: int = 1,
                 adversarial: bool = False, note: str = "") -> dict:
    payload = {
        "domain": domain, "seed": seed, "scale": scale,
        "adversarial": adversarial, "configs": list(configs),
        "statements": [[statement.kind, statement.sql]
                       for statement in statements],
        "note": note,
    }
    payload["fingerprint"] = _digest(
        {key: value for key, value in payload.items()
         if key != "fingerprint"})
    return payload


def save_case(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_case(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def replay_case(payload: dict) -> Report:
    """Re-run a pinned corpus case; a fixed bug must stay agreeing."""
    if payload.get("chaos"):
        # Wire-fault counterexample: replay through the chaos harness
        # (imported lazily -- chaos depends on this module).
        from repro.synth.chaos import replay_chaos_case
        return replay_chaos_case(payload)
    statements = [Statement(kind, sql)
                  for kind, sql in payload["statements"]]
    return run_differential(
        payload["domain"], payload["seed"], statements,
        configs=tuple(payload["configs"]),
        scale=payload.get("scale", 1),
        adversarial=payload.get("adversarial", False))
