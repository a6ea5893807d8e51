"""Domain fixtures for the property-based equivalence suites.

The planner- and cache-equivalence properties are universal ("any
engine path returns the reference bag of rows"), so they should hold over
*any* domain, not just the paper's ship test bed.  This module packages
a domain as the inputs those suites need -- FROM scenarios with their
natural join conditions, per-column literal pools (in-domain, boundary
and out-of-domain values), a query/mutation pool for cache
interleavings -- and derives them generically from a
:class:`repro.synth.domains.SynthInstance`, so new synthetic domains
join the matrix by being added to one list.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.induction import InductionConfig, InductiveLearningSubsystem
from repro.induction.candidates import foreign_key_map
from repro.ker import SchemaBinding
from repro.synth import build_instance
from repro.testbed import ship_database, ship_ker_schema


class DomainFixture(NamedTuple):
    """Everything the equivalence properties need from one domain."""

    name: str
    database: object                    #: shared read-only instance
    rules: object                       #: rule base induced over it
    ker_schema: object                  #: binds a fresh database
    scenarios: list                     #: (tables, join conjuncts)
    columns: dict                       #: table -> [(column, literals)]
    agg_column: str                     #: column for COUNT(<col>)
    agg_tables: tuple                   #: tables carrying agg_column
    queries: list                       #: cache-interleaving SELECTs
    mutations: list                     #: DML templates with ``{i}``
    fresh_database: Callable            #: new mutable copy per example


def _quote(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


def derive_column_pools(database, table: str) -> list:
    """Literal pools per column: low/median/high observed values plus
    an out-of-domain probe (and off-by-one boundaries for integers)."""
    relation = database.relation(table)
    pools = []
    for column in relation.schema.columns:
        observed = sorted({value
                           for value in relation.column_values(column.name)
                           if value is not None})
        if not observed:
            continue
        if isinstance(observed[0], int):
            picks = sorted({observed[0], observed[len(observed) // 2],
                            observed[-1], observed[0] - 1,
                            observed[-1] + 1, 999999})
            pool = [str(value) for value in picks]
        else:
            picks = list(dict.fromkeys(
                [observed[0], observed[len(observed) // 2],
                 observed[-1], "zzz-none"]))
            pool = [_quote(value) for value in picks]
        pools.append((column.name, pool))
    return pools


def derive_scenarios(instance) -> list:
    """Single-table scenarios for every relation, one join scenario per
    foreign key, and one cartesian product."""
    tables = [name for name in instance.domain.relation_order]
    scenarios = [([table], []) for table in tables]
    for source, target in sorted(
            foreign_key_map(instance.binding).items(),
            key=lambda item: (item[0].relation, item[0].attribute)):
        scenarios.append((
            [source.relation, target.relation],
            [f"{source.relation}.{source.attribute} = "
             f"{target.relation}.{target.attribute}"]))
    if len(tables) >= 2:
        scenarios.append(([tables[0], tables[1]], []))  # cartesian
    return scenarios


def ship_fixture() -> DomainFixture:
    database = ship_database()
    rules = InductiveLearningSubsystem(
        SchemaBinding(ship_ker_schema(), database), InductionConfig(n_c=3),
        relation_order=["SUBMARINE", "CLASS", "SONAR", "INSTALL"]).induce()
    scenarios = [
        (["SUBMARINE"], []),
        (["CLASS"], []),
        (["SONAR"], []),
        (["SUBMARINE", "CLASS"], ["SUBMARINE.Class = CLASS.Class"]),
        (["SUBMARINE", "INSTALL"], ["SUBMARINE.Id = INSTALL.Ship"]),
        (["INSTALL", "SONAR"], ["INSTALL.Sonar = SONAR.Sonar"]),
        (["SUBMARINE", "INSTALL", "SONAR"],
         ["SUBMARINE.Id = INSTALL.Ship", "INSTALL.Sonar = SONAR.Sonar"]),
        (["SUBMARINE", "CLASS", "INSTALL"],
         ["SUBMARINE.Class = CLASS.Class", "SUBMARINE.Id = INSTALL.Ship"]),
        (["SUBMARINE", "TYPE"], []),  # cartesian product
    ]
    columns = {
        "SUBMARINE": [
            ("Id", ["'SSBN623'", "'SSN648'", "'SSN700'", "'XXX'"]),
            ("Class", ["'0101'", "'0103'", "'0204'", "'9999'"]),
        ],
        "CLASS": [
            ("Class", ["'0101'", "'0103'", "'0215'", "'9999'"]),
            ("Type", ["'SSN'", "'SSBN'", "'ZZZ'"]),
            ("Displacement",
             ["0", "2145", "6955", "8000", "30000", "99999"]),
        ],
        "SONAR": [
            ("Sonar", ["'BQQ-2'", "'BQS-04'", "'NONE'"]),
            ("SonarType", ["'BQQ'", "'BQS'", "'ZZZ'"]),
        ],
        "INSTALL": [
            ("Ship", ["'SSBN623'", "'SSN648'", "'XXX'"]),
            ("Sonar", ["'BQQ-2'", "'BQS-04'", "'NONE'"]),
        ],
        "TYPE": [
            ("Type", ["'SSN'", "'SSBN'", "'ZZZ'"]),
        ],
    }
    queries = [
        "SELECT * FROM SUBMARINE",
        "SELECT * FROM SONAR",
        "SELECT Class, Displacement FROM CLASS WHERE Displacement > 6000",
        "SELECT * FROM SUBMARINE WHERE SUBMARINE.Class = '0101'",
        ("SELECT SUBMARINE.Name, CLASS.Type FROM SUBMARINE, CLASS "
         "WHERE SUBMARINE.Class = CLASS.Class "
         "AND CLASS.Displacement > 2000"),
        ("SELECT SUBMARINE.Name, SONAR.SonarType "
         "FROM SUBMARINE, INSTALL, SONAR "
         "WHERE SUBMARINE.Id = INSTALL.Ship "
         "AND INSTALL.Sonar = SONAR.Sonar"),
    ]
    mutations = [
        "INSERT INTO SUBMARINE (Id, Name, Class) "
        "VALUES ('SSN9{i}', 'Phantom {i}', '0101')",
        "INSERT INTO SONAR (Sonar, SonarType) VALUES ('XX-{i}', 'XX')",
        "INSERT INTO CLASS (Class, ClassName, Type, Displacement) "
        "VALUES ('09{i}', 'Ghost {i}', 'SSN', 7000)",
        "INSERT INTO INSTALL (Ship, Sonar) VALUES ('SSN594', 'BQS-04')",
        "DELETE FROM INSTALL WHERE INSTALL.Ship = 'SSN637'",
        "DELETE FROM SUBMARINE WHERE SUBMARINE.Class = '0103'",
        "UPDATE CLASS SET Displacement = 9000 WHERE CLASS.Class = '0102'",
    ]
    return DomainFixture(
        name="ship", database=database, rules=rules,
        ker_schema=ship_ker_schema(), scenarios=scenarios,
        columns=columns, agg_column="Type", agg_tables=("CLASS", "TYPE"),
        queries=queries, mutations=mutations,
        fresh_database=ship_database)


def synth_fixture(domain: str, seed: int = 0, *,
                  agg_column: str, agg_tables: tuple,
                  queries: list, mutations: list) -> DomainFixture:
    instance = build_instance(domain, seed=seed)
    scenarios = derive_scenarios(instance)
    columns = {table: derive_column_pools(instance.database, table)
               for table in instance.domain.relation_order}

    def fresh_database():
        return build_instance(domain, seed=seed, induce=False).database

    return DomainFixture(
        name=domain, database=instance.database, rules=instance.rules,
        ker_schema=instance.schema, scenarios=scenarios,
        columns=columns, agg_column=agg_column,
        agg_tables=agg_tables, queries=queries, mutations=mutations,
        fresh_database=fresh_database)


def hospital_fixture() -> DomainFixture:
    queries = [
        "SELECT * FROM PATIENT",
        "SELECT * FROM WARD",
        "SELECT Id, Severity FROM PATIENT WHERE Severity >= 70",
        "SELECT * FROM PATIENT WHERE PATIENT.Triage = 'RED'",
        ("SELECT PATIENT.Id, WARD.WardName FROM PATIENT, WARD "
         "WHERE PATIENT.Ward = WARD.Ward AND WARD.Floor >= 2"),
        ("SELECT PATIENT.Triage, COUNT(*) FROM PATIENT "
         "GROUP BY PATIENT.Triage"),
    ]
    mutations = [
        "INSERT INTO PATIENT (Id, Age, Severity, Triage, Ward) "
        "VALUES ('Z9{i}', 40, 80, 'RED', 'W01')",
        "INSERT INTO WARD (Ward, WardName, Floor, Beds) "
        "VALUES ('X{i}', 'Annex {i}', 4, 10)",
        "DELETE FROM PATIENT WHERE PATIENT.Triage = 'GREEN'",
        "DELETE FROM WARD WHERE WARD.Ward = 'W05'",
        "UPDATE PATIENT SET Severity = 95 "
        "WHERE PATIENT.Triage = 'AMBER'",
        "UPDATE WARD SET Floor = 1 WHERE WARD.Ward = 'W02'",
    ]
    return synth_fixture("hospital", agg_column="Triage",
                         agg_tables=("PATIENT",), queries=queries,
                         mutations=mutations)


#: The equivalence-suite matrix: the paper's test bed plus at least one
#: synthetic domain (ISSUE 7 satellite).
EQUIVALENCE_FIXTURES = [ship_fixture(), hospital_fixture()]
