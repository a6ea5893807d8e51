"""E24 -- the multi-client query server: throughput scaling, tail
latency, wire overhead, and zero lost updates under contention.

Clients are separate *processes* (their socket/JSON work runs on their
own GILs), the server is one thread-per-connection process, exactly
the deployment shape.  Five claims:

* **Reads scale.**  Aggregate hot-read QPS with 4 clients must be
  >= 3x the single-client figure -- the wire memo makes the serve path
  cheap enough that the server thread is not the bottleneck.  The 3x
  guard presumes >= 4 cores; on smaller machines (CI containers are
  routinely 1-2 cores) aggregate QPS is capped by total CPU per
  request, so the guard degrades to "concurrency must not collapse
  throughput" (>= 0.75x at one core, pro-rated between).
* **The wire is thin.**  A single client running *uncached*
  theta-join queries (a fresh literal every request defeats every
  cache layer, and the joins do real per-pair predicate work) may pay
  at most 15% over executing the same statements in-process.
* **Bulk replies travel cheaply.**  A never-cached ``SELECT *`` that
  returns all 20,000 ENTITY rows may cost at most 8x executing it
  in-process: here the wire pays for the payload (encode, send,
  decode) rather than for execution.
* **Tail latency is bounded.**  p50/p99 are recorded for N in
  {1, 4, 16} on the mixed workload (reported, not guarded -- CI
  machines vary too much for an absolute ms guard).
* **No lost updates.**  16 clients interleaving autocommit DML with
  reads: every inserted row must be present exactly once afterwards.
"""

from __future__ import annotations

import json
import os
import statistics as stats
import subprocess
import sys
import time

import pytest

from repro.query import IntensionalQueryProcessor
from repro.relational.relation import Relation
from repro.reporting import render_table
from repro.rules.ruleset import RuleSet
from repro.server import IntensionalQueryServer
from repro.server.client import Client
from repro.sql.executor import execute_select
from repro.sql.parser import parse_select
from repro.testbed.generators import synthetic_star_database

from conftest import record_report

N_ENTITIES = 20_000
N_GROUPS = 20

CORES = os.cpu_count() or 1
#: Aggregate QPS at N=4 vs N=1: 3x with real parallelism, "no
#: collapse" (0.75x) when the machine has a single core to offer.
READ_SCALING_TARGET = 3.0 if CORES >= 4 else (
    0.75 if CORES == 1 else 1.5)
WIRE_OVERHEAD_BUDGET = 0.15
CLIENT_COUNTS = (1, 4, 16)

#: Hot read mix: small results, all wire-memo-servable.
HOT_QUERIES = [
    "SELECT Label, Weight FROM GROUPS WHERE Weight > 150",
    "SELECT GroupId, Label FROM GROUPS WHERE Label = 'G01'",
    "SELECT Id, Size FROM ENTITY WHERE Size > 1990",
    "SELECT ENTITY.Id, GROUPS.Weight FROM ENTITY, GROUPS "
    "WHERE ENTITY.GroupId = GROUPS.GroupId AND ENTITY.Size > 1990 "
    "AND GROUPS.Label = 'G03'",
]

#: The wire-overhead probe, parameterized so every request is a cache
#: miss end-to-end (plan, result, ask, and wire-memo layers).  A
#: theta-join (``Weight > Size`` has no equi-key, so no hash join and
#: no index shortcut) over a ~300-row Size window forces a few
#: thousand genuine predicate evaluations per query, while DISTINCT
#: caps the *result* at a handful of rows -- so the guard measures
#: wire overhead against real execution, not payload bulk.
UNCACHED_TEMPLATE = (
    "SELECT DISTINCT GROUPS.Label, GROUPS.Weight FROM ENTITY, GROUPS "
    "WHERE ENTITY.Size > {threshold} AND ENTITY.Size < {upper} "
    "AND GROUPS.Weight > ENTITY.Size")

#: The bulk-reply probe: ``Size`` is never negative, so each request
#: returns every ENTITY row, and its fresh literal misses every cache.
BULK_TEMPLATE = "SELECT * FROM ENTITY WHERE ENTITY.Size > {threshold}"
BULK_RATIO_BUDGET = 8.0
BULK_ROUNDS = 7

_RESULTS: dict[str, dict] = {}

WORKER_SOURCE = '''
"""E24 load worker: one connection, fixed request count, JSON stats."""
import json, sys, time

from repro.server.client import Client

HOT_QUERIES = {hot_queries!r}

def main():
    host, port = sys.argv[1], int(sys.argv[2])
    requests, mode, worker = int(sys.argv[3]), sys.argv[4], int(sys.argv[5])
    client = Client(host, port).connect()
    print("READY", flush=True)
    sys.stdin.readline()  # barrier: parent releases every worker at once
    latencies = []
    inserted = []
    start = time.perf_counter()
    for index in range(requests):
        began = time.perf_counter()
        if mode == "mixed" and index % 10 == 9:
            row_id = 1_000_000 + worker * 10_000 + index
            client.sql("INSERT INTO ENTITY VALUES "
                       "({{0}}, 3, 314)".format(row_id))
            inserted.append(row_id)
        else:
            client.sql(HOT_QUERIES[index % len(HOT_QUERIES)])
        latencies.append(time.perf_counter() - began)
    elapsed = time.perf_counter() - start
    client.close()
    print(json.dumps({{"elapsed": elapsed, "count": requests,
                       "latencies": latencies, "inserted": inserted}}),
          flush=True)

main()
'''.format(hot_queries=HOT_QUERIES)


@pytest.fixture(scope="module")
def server():
    database = synthetic_star_database(
        n_entities=N_ENTITIES, n_groups=N_GROUPS, seed=11)
    system = IntensionalQueryProcessor(database, RuleSet())
    with IntensionalQueryServer(system) as live:
        # Prime statistics and the wire memo off the clock.
        with Client("127.0.0.1", live.port) as warm:
            for sql in HOT_QUERIES:
                warm.sql(sql)
        yield live


@pytest.fixture(scope="module")
def worker_script(tmp_path_factory):
    path = tmp_path_factory.mktemp("e24") / "worker.py"
    path.write_text(WORKER_SOURCE)
    return str(path)


def _run_fleet(server, worker_script, n_clients: int, requests: int,
               mode: str = "read") -> dict:
    """Launch *n_clients* worker processes, release them simultaneously,
    and aggregate their stats."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ,
               PYTHONPATH=os.path.join(root, "src"))
    workers = [
        subprocess.Popen(
            [sys.executable, worker_script, "127.0.0.1",
             str(server.port), str(requests), mode, str(index)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env=env)
        for index in range(n_clients)]
    try:
        for worker in workers:
            assert worker.stdout.readline().strip() == "READY", \
                worker.stderr.read()
        for worker in workers:
            worker.stdin.write("GO\n")
            worker.stdin.flush()
        reports = []
        for worker in workers:
            line = worker.stdout.readline()
            assert line, worker.stderr.read()
            reports.append(json.loads(line))
            assert worker.wait(timeout=60) == 0
    finally:
        for worker in workers:
            if worker.poll() is None:
                worker.kill()
    latencies = sorted(latency for report in reports
                       for latency in report["latencies"])
    wall = max(report["elapsed"] for report in reports)
    total = sum(report["count"] for report in reports)
    return {
        "clients": n_clients,
        "requests": total,
        "qps": total / wall,
        "p50_ms": 1000 * stats.quantiles(latencies, n=100)[49],
        "p99_ms": 1000 * stats.quantiles(latencies, n=100)[98],
        "inserted": [row_id for report in reports
                     for row_id in report["inserted"]],
    }


def test_read_qps_scales_with_clients(server, worker_script):
    """Aggregate hot-read QPS at N=4 must be >= 3x N=1 (best of two
    rounds each, interleaved so machine noise hits both sides)."""
    best: dict[int, dict] = {}
    for _round in range(2):
        for n_clients in (1, 4):
            run = _run_fleet(server, worker_script, n_clients,
                             requests=300)
            if (n_clients not in best
                    or run["qps"] > best[n_clients]["qps"]):
                best[n_clients] = run
    scaling = best[4]["qps"] / best[1]["qps"]
    for n_clients, run in best.items():
        _RESULTS[f"read N={n_clients}"] = run
    _RESULTS["read scaling"] = {
        "scaling": scaling, "cores": CORES,
        "guard": f">= {READ_SCALING_TARGET:.2g}x ({CORES} cores)",
        "guard_passed": scaling >= READ_SCALING_TARGET}
    assert scaling >= READ_SCALING_TARGET, (
        f"4-client aggregate read QPS only {scaling:.2f}x the "
        f"single client ({best[4]['qps']:.0f} vs "
        f"{best[1]['qps']:.0f} QPS)")


def test_single_client_wire_overhead(server, worker_script):
    """One client running never-cached scan+joins pays <= 15% over
    executing the identical statements in-process.

    Every literal stays *inside* the data range (the statistics-based
    planner prunes an out-of-range predicate to a near-free empty
    plan, which would compare the wire against no work at all) and is
    unique per round and per side, so no cache layer -- plan, result,
    or wire memo -- ever hits."""
    database = server.system.database

    def thresholds(round_index: int, parity: int) -> list[float]:
        # Tenth-precision literals in [100, 190): distinct across all
        # (index, round, side) triples, and low enough that the
        # theta-join (Weight tops out at 200) still produces rows.
        return [(1000 + ((index * 37 + round_index * 13) % 450) * 2
                 + parity) / 10 for index in range(24)]

    def in_process(round_index: int):
        for threshold in thresholds(round_index, 0):
            statement = parse_select(UNCACHED_TEMPLATE.format(
                threshold=threshold, upper=threshold + 30))
            execute_select(database, statement)

    client = Client("127.0.0.1", server.port).connect()

    def over_wire(round_index: int):
        for threshold in thresholds(round_index, 1):
            client.sql(UNCACHED_TEMPLATE.format(
                threshold=threshold, upper=threshold + 30))

    try:
        best_local = best_wire = float("inf")
        for round_index in range(5):
            start = time.perf_counter()
            in_process(round_index)
            best_local = min(best_local, time.perf_counter() - start)
            start = time.perf_counter()
            over_wire(round_index)
            best_wire = min(best_wire, time.perf_counter() - start)
    finally:
        client.close()
    overhead = best_wire / best_local - 1.0
    _RESULTS["wire overhead"] = {
        "local_s": best_local, "wire_s": best_wire,
        "overhead": overhead,
        "guard": f"<= {WIRE_OVERHEAD_BUDGET:.0%}",
        "guard_passed": overhead <= WIRE_OVERHEAD_BUDGET}
    assert overhead <= WIRE_OVERHEAD_BUDGET, (
        f"wire path costs {overhead * 100:+.1f}% over in-process "
        f"({best_wire * 1000:.1f}ms vs {best_local * 1000:.1f}ms for "
        f"24 uncached theta-joins)")


def test_bulk_reply_wire_ratio(server):
    """A reply of every ENTITY row costs <= 8x over the wire what the
    same statement costs in-process (interleaved best of 7, a fresh
    literal per request and side)."""
    database = server.system.database
    rows = len(database.relation("ENTITY"))
    client = Client("127.0.0.1", server.port).connect()
    try:
        best_local = best_wire = float("inf")
        for round_index in range(BULK_ROUNDS):
            start = time.perf_counter()
            local = execute_select(database, parse_select(
                BULK_TEMPLATE.format(threshold=-2 * round_index - 1)))
            best_local = min(best_local, time.perf_counter() - start)
            start = time.perf_counter()
            remote = client.sql(
                BULK_TEMPLATE.format(threshold=-2 * round_index - 2))
            best_wire = min(best_wire, time.perf_counter() - start)
            assert len(local) == len(remote) == rows
    finally:
        client.close()
    ratio = best_wire / best_local
    _RESULTS["bulk reply"] = {
        "rows": rows, "local_s": best_local, "wire_s": best_wire,
        "ratio": ratio, "guard": f"<= {BULK_RATIO_BUDGET:g}x",
        "guard_passed": ratio <= BULK_RATIO_BUDGET}
    assert ratio <= BULK_RATIO_BUDGET, (
        f"a {rows}-row reply costs {ratio:.1f}x over the wire "
        f"({best_wire * 1000:.1f}ms vs {best_local * 1000:.1f}ms "
        f"in-process)")


def test_sixteen_clients_mixed_workload_no_lost_updates(
        server, worker_script):
    """16 clients, 10% autocommit DML: every insert lands exactly
    once, and the run's tail latency is recorded for the report."""
    database = server.system.database
    before = len(database.relation("ENTITY"))
    run = _run_fleet(server, worker_script, 16, requests=100,
                     mode="mixed")
    _RESULTS["mixed N=16"] = {key: run[key] for key in
                              ("clients", "requests", "qps",
                               "p50_ms", "p99_ms")}
    inserted = run["inserted"]
    assert len(inserted) == len(set(inserted)) == 16 * 10
    entity = database.relation("ENTITY")
    assert len(entity) == before + len(inserted)
    landed = {row[0] for row in entity if row[0] >= 1_000_000}
    assert landed == set(inserted), "lost or duplicated updates"
    # And the server state stayed queryable and consistent.
    with Client("127.0.0.1", server.port) as probe:
        relation = probe.sql(
            "SELECT Id FROM ENTITY WHERE Size = 314")
        assert isinstance(relation, Relation)
        assert {row[0] for row in relation} >= set(inserted)


def test_report(server):
    rows = []
    for n_clients in CLIENT_COUNTS:
        key = f"read N={n_clients}" if n_clients != 16 else "mixed N=16"
        run = _RESULTS.get(key)
        if run is None:
            continue
        rows.append([key, f"{run['qps']:.0f}",
                     f"{run['p50_ms']:.2f}", f"{run['p99_ms']:.2f}"])
    scaling = _RESULTS.get("read scaling", {})
    overhead = _RESULTS.get("wire overhead", {})
    bulk = _RESULTS.get("bulk reply", {})
    guard_lines = []
    if scaling:
        guard_lines.append(
            f"read scaling N=4/N=1: {scaling['scaling']:.2f}x "
            f"(guard {scaling['guard']})")
    if overhead:
        guard_lines.append(
            f"single-client wire overhead: "
            f"{overhead['overhead'] * 100:+.1f}% "
            f"(guard {overhead['guard']})")
    if bulk:
        guard_lines.append(
            f"{bulk['rows']}-row reply: wire {bulk['wire_s'] * 1000:.1f}ms "
            f"vs in-process {bulk['local_s'] * 1000:.1f}ms, "
            f"{bulk['ratio']:.1f}x (guard {bulk['guard']})")
    record_report(
        "E24",
        f"Multi-client server: QPS and tail latency over the "
        f"{N_ENTITIES}-row star testbed (subprocess clients)",
        render_table(["workload", "QPS", "p50 ms", "p99 ms"], rows)
        + "\n" + "\n".join(guard_lines),
        data=_RESULTS)
