"""Seeded inputs for the three workloads, and the digests that pin them.

The program's data is always ``hospital`` at instance seed 7, scale
150 (18,000 PATIENT rows, 6 WARD rows).  The op streams come from
:class:`repro.synth.ProgramGenerator`; the ``--seed`` of a run only
chooses the stream.  A statement is a ``(kind, sql)`` pair with kind
``select``, ``ask`` or ``dml``.

The warm-up statements, the ``read_skewed`` pool and the decks of draws
of ``read_skewed`` and ``mixed_rw`` come from fixed seeds, so set-up
does the same work on every run and every seed sends the same
statements in another order.

Because the inputs come from ``repro.synth``, an edit to the generator
would silently change what is measured.  :data:`PINNED` records the
digests of the default seed's inputs; :func:`check_pins` fails a run
when they differ.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
import re

from repro.synth import ProgramGenerator, build_instance

DOMAIN = "hospital"
INSTANCE_SEED = 7
SCALE = 150

DEFAULT_SEED = 0

#: Generator seeds of the seed-independent inputs.
WARMUP_SEED = 1_000_001
POOL_SEED = 1_000_002

WARMUP_SELECTS = 8
WARMUP_ASKS = 8

#: ask_cold draws this many distinct asks; a 30-s run at 100 asks/s
#: uses 3,000 of them.
ASK_COLD_OPS = 8000
ASK_COLD_MAX_DRAWS = 80_000

#: read_skewed: 384 SELECTs and 128 asks, asks drawn one time in four,
#: into a fixed deck of draws that each run replays in seeded orders.
POOL_SELECTS = 384
POOL_ASKS = 128
ASK_SHARE = 0.25
ZIPF_S = 1.1
DECK_SIZE = 1024
READ_SKEWED_OPS = 30_720

#: mixed_rw: per connection, a fixed deck of the default 6:2:2 mix.
MIXED_RW_CONNECTIONS = 2
MIX_DECK_SEED = 1_000_003
MIX_DECK_SIZE = 256
MIXED_RW_OPS = 3072

#: sha256 digests of the default seed's inputs (see module docstring).
PINNED = {
    "rows": "d1338bd4b51ba08f32fa45cd75e65f947296aecd74c01e7812c87588efd1c134",
    "ask_cold":
        "23bbaf3f0d2dde7eba3f4a7ffb537db55889be2751424d95d60ddf37751da4f1",
    "read_skewed":
        "9cf89cb57cdc591e7e3a96eb18185bb421d335fb8e8999352a37fcbc3d3b04ca",
    "mixed_rw":
        "4f84d8428fedc93b1def720e02f76f49486e8e4267c9b443a3afaa434a3e6e05",
}


def input_instance():
    """The generator's view of the data (no rules: inputs only)."""
    return build_instance(DOMAIN, seed=INSTANCE_SEED, scale=SCALE,
                          induce=False)


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def rows_digest(database) -> str:
    """Every relation's rows, in row order, keyed by relation name."""
    return digest({name: [list(row) for row in database.relation(name)]
                   for name in sorted(database.catalog.names())})


def relation_digests(database) -> dict[str, str]:
    """Each relation's rows as a multiset, digested the same way in
    every process (the durability check compares two processes)."""
    digests = {}
    for name in database.catalog.names():
        relation = database.relation(name)
        lines = sorted(json.dumps(list(row), default=str)
                       for row in relation)
        digests[relation.name] = hashlib.sha256(
            "\n".join(lines).encode("utf-8")).hexdigest()
    return digests


def _distinct(draw, count: int, exclude=(), max_draws: int = 100_000
              ) -> list[tuple[str, str]]:
    seen = set(exclude)
    out = []
    for _ in range(max_draws):
        if len(out) >= count:
            break
        statement = draw()
        if statement.sql not in seen:
            seen.add(statement.sql)
            out.append((statement.kind, statement.sql))
    return out


def warmup_statements(instance) -> list[tuple[str, str]]:
    """Reads only, so set-up leaves the data as it found it."""
    generator = ProgramGenerator(instance, seed=WARMUP_SEED)
    return (_distinct(generator.select_statement, WARMUP_SELECTS)
            + _distinct(generator.ask_statement, WARMUP_ASKS))


def ask_cold_stream(instance, seed: int, warmup) -> list[tuple[str, str]]:
    """Distinct interval asks in draw order, none of them a warm-up
    statement, so every ask misses every cache level."""
    generator = ProgramGenerator(instance, seed=seed)
    return _distinct(generator.ask_statement, ASK_COLD_OPS,
                     exclude=[sql for _kind, sql in warmup],
                     max_draws=ASK_COLD_MAX_DRAWS)


def read_skewed_pool(instance, warmup) -> tuple[list, list]:
    """The fixed 384 SELECTs and 128 asks, in Zipf rank order."""
    generator = ProgramGenerator(instance, seed=POOL_SEED)
    exclude = [sql for _kind, sql in warmup]
    selects = _distinct(generator.select_statement, POOL_SELECTS, exclude)
    asks = _distinct(generator.ask_statement, POOL_ASKS,
                     exclude + [sql for _kind, sql in selects])
    return selects, asks


def _zipf_cumulative(n: int, s: float) -> list[float]:
    total = 0.0
    cumulative = []
    for rank in range(1, n + 1):
        total += rank ** -s
        cumulative.append(total)
    return [value / total for value in cumulative]


def read_skewed_deck(pool) -> list[tuple[str, str]]:
    """:data:`DECK_SIZE` fixed draws from the pool: the kind first (one
    ask in four), then a Zipf(1.1) rank within it."""
    selects, asks = pool
    rng = random.Random(f"perfbench:read_skewed:deck:{POOL_SEED}")
    cumulative = {id(selects): _zipf_cumulative(len(selects), ZIPF_S),
                  id(asks): _zipf_cumulative(len(asks), ZIPF_S)}
    deck = []
    for _ in range(DECK_SIZE):
        members = asks if rng.random() < ASK_SHARE else selects
        rank = bisect.bisect_left(cumulative[id(members)], rng.random())
        deck.append(members[min(rank, len(members) - 1)])
    return deck


def read_skewed_stream(pool, seed: int) -> list[tuple[str, str]]:
    """The deck over and over, each pass in a new seeded order.

    Every seed sends the same statements equally often over each full
    pass, so runs differ by arrival order alone; independent draws per
    run made the few costly tail statements, and with them the
    throughput, vary from seed to seed."""
    deck = read_skewed_deck(pool)
    rng = random.Random(f"perfbench:read_skewed:{seed}")
    stream = []
    while len(stream) < READ_SKEWED_OPS:
        rng.shuffle(deck)
        stream.extend(deck)
    return stream


_INSERT = re.compile(r"^INSERT INTO (\w+) \(([^)]*)\) VALUES \((.*)\)$")
_LITERAL = re.compile(r"'(?:[^']|'')*'|-?\d+|NULL")

#: Each relation's key column (the first column) and its width.
_KEYS = {"PATIENT": ("Id", 6), "WARD": ("Ward", 4)}


def parse_literals(text: str) -> list:
    """The values of a generated VALUES list (strings, ints, NULL)."""
    values = []
    for token in _LITERAL.findall(text):
        if token == "NULL":
            values.append(None)
        elif token.startswith("'"):
            values.append(token[1:-1].replace("''", "'"))
        else:
            values.append(int(token))
    return values


def _literal(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return str(value)


def unique_insert(sql: str, connection: int, serial: int) -> str:
    """Give a generated INSERT a key no other insert of the run uses.

    The generator numbers string keys ``Z001``, ``Z002``, ... for every
    generator alike, so two connections would insert the same keys;
    INSERT accepts a duplicate key today, and a later fix that enforced
    keys would turn that traffic into failures.  The key becomes a
    connection letter plus a serial number, within the key column's
    width.
    """
    match = _INSERT.match(sql)
    if match is None:
        raise ValueError(f"not a generated INSERT: {sql!r}")
    table, columns, values_text = match.groups()
    key_column, width = _KEYS[table]
    if columns.split(", ")[0] != key_column:
        raise ValueError(f"{table} key is not the first column: {sql!r}")
    values = parse_literals(values_text)
    key = "XY"[connection] + str(serial).zfill(width - 1)
    if len(key) > width:
        raise ValueError(f"ran out of unique {table} keys")
    values[0] = key
    return (f"INSERT INTO {table} ({columns}) VALUES ("
            + ", ".join(_literal(value) for value in values) + ")")


def mixed_rw_streams(instance, seed: int) -> list[list[tuple[str, str]]]:
    """Per connection, a deck of the generator's 6:2:2 mix drawn from
    its own fixed seed, replayed in a new seeded order each pass, with
    every INSERT given a fresh unique key.

    As in ``read_skewed``, the deck keeps the costly statements equally
    frequent in every run, so seeds differ by order alone."""
    from repro.synth import DEFAULT_MIX
    streams = []
    for connection in range(MIXED_RW_CONNECTIONS):
        generator = ProgramGenerator(instance,
                                     seed=MIX_DECK_SEED + connection)
        deck = [generator.statement(DEFAULT_MIX)
                for _ in range(MIX_DECK_SIZE)]
        rng = random.Random(f"perfbench:mixed_rw:{seed}:{connection}")
        stream = []
        serial = 0
        while len(stream) < MIXED_RW_OPS:
            rng.shuffle(deck)
            for statement in deck:
                sql = statement.sql
                if sql.startswith("INSERT"):
                    serial += 1
                    sql = unique_insert(sql, connection, serial)
                stream.append((statement.kind, sql))
        streams.append(stream)
    return streams


def workload_inputs(workload: str, instance, seed: int) -> dict:
    """Everything a workload needs, plus the digest of its op stream."""
    warmup = warmup_statements(instance)
    if workload == "ask_cold":
        ops = ask_cold_stream(instance, seed, warmup)
        payload = {"warmup": warmup, "ops": ops}
    elif workload == "read_skewed":
        pool = read_skewed_pool(instance, warmup)
        ops = read_skewed_stream(pool, seed)
        payload = {"warmup": warmup, "pool": pool, "ops": ops}
    elif workload == "mixed_rw":
        ops = mixed_rw_streams(instance, seed)
        payload = {"warmup": warmup, "ops": ops}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"warmup": warmup, "ops": ops, "ops_digest": digest(payload)}


def check_pins(workload: str, instance, rows: str, inputs: dict,
               seed: int) -> list[str]:
    """Mismatches between the default seed's digests and :data:`PINNED`.

    The default seed's stream is regenerated here unless this run uses
    it, so every run checks the pins."""
    if seed == DEFAULT_SEED:
        ops = inputs["ops_digest"]
    else:
        ops = workload_inputs(workload, instance, DEFAULT_SEED)["ops_digest"]
    problems = []
    if rows != PINNED["rows"]:
        problems.append(f"initial rows digest {rows} != pinned "
                        f"{PINNED['rows']}")
    if ops != PINNED[workload]:
        problems.append(f"{workload} op-stream digest (seed "
                        f"{DEFAULT_SEED}) {ops} != pinned "
                        f"{PINNED[workload]}")
    return problems
