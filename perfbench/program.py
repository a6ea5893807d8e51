"""Set-up of the program under test, shared by the benchmark process
(``ask_cold``) and the server launcher (``read_skewed``, ``mixed_rw``).

Set-up builds the hospital instance, binds the KER schema and induces
the rules; ``mixed_rw`` also attaches durable storage and stores the
rule base with ``refresh_rules``.  Then comes a warm-up pass over the
fixed read-only warm-up statements, so lazy structures (column stores,
statistics, worker pools) are built before the clock starts.
"""

from __future__ import annotations

import gc
import resource
import time

from repro.induction.config import InductionConfig
from repro.query.system import IntensionalQueryProcessor
from repro.rules.ruleset import RuleSet
from repro.sql.executor import execute_select
from repro.sql.parser import parse_select
from repro.synth import get_domain

from perfbench import inputs

#: WAL fsync policy of ``mixed_rw``.
FSYNC = "commit"

#: The induction settings ``repro.synth.build_instance`` uses.
N_C = 3


def build_system(data_dir: str | None = None) -> IntensionalQueryProcessor:
    """Build, bind and induce; with *data_dir*, attach storage and
    store the rule base in it."""
    domain = get_domain(inputs.DOMAIN)
    database = domain.build(seed=inputs.INSTANCE_SEED, scale=inputs.SCALE)
    config = InductionConfig(n_c=N_C)
    order = list(domain.relation_order)
    if data_dir is None:
        return IntensionalQueryProcessor.from_database(
            database, ker_schema=domain.ker_schema(), config=config,
            relation_order=order)
    system = IntensionalQueryProcessor(database, RuleSet())
    system.attach_storage(data_dir, fsync=FSYNC)
    system.refresh_rules(ker_schema=domain.ker_schema(), config=config,
                         relation_order=order)
    return system


def warm_up(system: IntensionalQueryProcessor, warmup) -> None:
    """Run the warm-up statements in process."""
    for kind, sql in warmup:
        if kind == "ask":
            system.ask(sql)
        else:
            execute_select(system.database, parse_select(sql),
                           rules=system.rules)


def timed_setups(count: int, make, discard) -> tuple[list[float], object]:
    """Run the set-up *make* *count* times and keep the last result.

    Each set-up starts from a collected heap; *discard* releases an
    earlier result before the next set-up begins."""
    times = []
    result = None
    for _ in range(count):
        if result is not None:
            discard(result)
            result = None
        gc.collect()
        start = time.perf_counter()
        result = make()
        times.append(time.perf_counter() - start)
    return times, result


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
