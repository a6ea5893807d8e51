"""Predicates the column kernels refuse run through compiled closures.

Arithmetic, ``IS NULL`` over an expression and constant conjuncts fall
outside the kernels' never-raising subset (:mod:`repro.relational.
kernels`), so a single-table chain carrying one streams through the
FilterPlan's compiled closures.  Every such case must match the
reference evaluator in each position a chain takes -- a streamed
Filter(TableScan), a plain projection, and the probe and build sides of
a single-edge hash join -- at several batch sizes, and must count its
fallback in ``columnar_fused_total``.
"""

import pytest

from repro import obs
from repro.plan.planner import plan_select
from repro.plan.plans import FilterPlan, HashJoinPlan, TableScanPlan
from repro.sql.parser import parse_select
from repro.sql.reference import execute_select_reference
from repro.testbed.generators import synthetic_star_database

#: Each WHERE passes exactly the rows ``ENTITY.Size > 150`` passes.
REFUSED = {
    "arithmetic": "ENTITY.Size + 0 > 150",
    "is_null_expression":
        "ENTITY.Size > 150 AND NOT (ENTITY.Size + 1) IS NULL",
    "constant_conjunct": "ENTITY.Size > 150 AND 1 = 1",
}

JOIN_SQL = ("SELECT ENTITY.Id, GROUPS.Weight FROM ENTITY, GROUPS "
            "WHERE ENTITY.GroupId = GROUPS.GroupId AND {where}")

refused = pytest.mark.parametrize("where", list(REFUSED.values()),
                                  ids=list(REFUSED))
batch_sizes = pytest.mark.parametrize("batch_size", [1, 7, None],
                                      ids=["batch-1", "batch-7",
                                           "default"])

_REFERENCE: dict[tuple[str, str], list] = {}


@pytest.fixture(scope="module")
def build_db():
    """20 groups against 2,000 entities: GROUPS probes, so ENTITY is
    the hash join's build side."""
    return synthetic_star_database(n_entities=2000, n_groups=20, seed=11,
                                   name="star-build")


@pytest.fixture(scope="module")
def probe_db():
    """More groups than filtered entities: ENTITY probes."""
    return synthetic_star_database(n_entities=200, n_groups=300, seed=11,
                                   name="star-probe")


@pytest.fixture(autouse=True)
def obs_on():
    obs.disable()
    obs.reset()
    obs.enable()
    yield
    obs.disable()
    obs.reset()


def _fallbacks() -> float:
    """``columnar_fused_total{result="fallback"}`` over every node."""
    return sum(value for name, value in obs.metrics().snapshot().items()
               if name.startswith("columnar_fused_total{")
               and 'result="fallback"' in name)


def _reference_rows(database, statement) -> list:
    """The reference's rows in its order, computed once per query (they
    do not depend on the batch size)."""
    key = (database.name, statement.render())
    if key not in _REFERENCE:
        _REFERENCE[key] = list(
            execute_select_reference(database, statement).rows)
    return _REFERENCE[key]


def _is_entity_chain(plan) -> bool:
    return (isinstance(plan, FilterPlan)
            and isinstance(plan.child, TableScanPlan)
            and plan.child.relation.name == "ENTITY")


@refused
@batch_sizes
def test_filter_over_table_scan(build_db, where, batch_size):
    statement = parse_select(f"SELECT * FROM ENTITY WHERE {where}")
    chain = plan_select(build_db, statement).root.child
    assert _is_entity_chain(chain)
    before = _fallbacks()
    streamed = [rows[0] for batch in chain.batches(batch_size)
                for rows in batch]
    assert _fallbacks() > before
    assert streamed == _reference_rows(build_db, statement)
    assert chain.actual_rows == len(streamed)


@refused
@batch_sizes
def test_plain_projection(build_db, where, batch_size):
    statement = parse_select(
        f"SELECT ENTITY.Id, ENTITY.Size FROM ENTITY WHERE {where}")
    before = _fallbacks()
    result = plan_select(build_db, statement).execute(
        batch_size=batch_size)
    assert _fallbacks() > before
    assert list(result.rows) == _reference_rows(build_db, statement)


@pytest.mark.parametrize("side", ["left", "right"], ids=["probe", "build"])
@refused
@batch_sizes
def test_hash_join_side(build_db, probe_db, side, where, batch_size):
    database = probe_db if side == "left" else build_db
    statement = parse_select(JOIN_SQL.format(where=where))
    planned = plan_select(database, statement)
    join = planned.root.child
    assert isinstance(join, HashJoinPlan) and len(join.edges) == 1
    assert _is_entity_chain(getattr(join, side))
    before = _fallbacks()
    result = planned.execute(batch_size=batch_size)
    assert _fallbacks() > before
    assert sorted(result.rows) == sorted(
        _reference_rows(database, statement))
