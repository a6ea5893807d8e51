"""Relation payloads on the wire: one JSON array per column.

* Round trip: any relation survives ``encode_relation_payload`` ->
  ``encode_frame`` -> ``decode_frame`` -> ``decode_relation_payload``
  with every cell's exact type (NaN compared as equal, the sign of
  ``-0.0`` kept).
* Totality: a malformed payload raises :class:`ProtocolError`; it never
  decodes to a shorter relation.
* Live server: ``sql`` and ``ask`` carry DATE cells and non-finite REALs,
  and a reply the wire memo admits is JSON-encoded once.
"""

from __future__ import annotations

import datetime
import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.query import IntensionalQueryProcessor
from repro.relational import Column, Database, Relation, RelationSchema
from repro.relational.datatypes import DATE, INTEGER, REAL, char
from repro.rules import RuleSet
from repro.server import IntensionalQueryServer, protocol
from repro.server.client import Client
from repro.sql.executor import execute_select
from repro.sql.parser import parse_select

TYPES = {"integer": INTEGER, "real": REAL, "char": char(12), "date": DATE}

CELLS = {
    "integer": st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
    "real": st.floats() | st.sampled_from(
        [math.nan, math.inf, -math.inf, -0.0, 0.0]),
    "char": st.text(st.characters(blacklist_categories=("Cs",)),
                    max_size=12)
    | st.sampled_from(["", "sous-marin é", "潜水艦", "🚢"]),
    "date": st.dates(),
}

PAYLOAD_SETTINGS = settings(max_examples=80, deadline=None,
                            suppress_health_check=[HealthCheck.too_slow])


def make_relation(kinds, rows) -> Relation:
    schema = RelationSchema(
        "R", [Column(f"C{index}", TYPES[kind])
              for index, kind in enumerate(kinds)])
    return Relation(schema, rows)


@st.composite
def relations(draw, min_columns=1, min_rows=0):
    kinds = draw(st.lists(st.sampled_from(sorted(TYPES)),
                          min_size=min_columns, max_size=8))
    row = st.tuples(*[st.none() | CELLS[kind] for kind in kinds])
    return make_relation(kinds, draw(st.lists(row, min_size=min_rows,
                                              max_size=12)))


def same_cell(left, right) -> bool:
    if type(left) is not type(right):
        return False
    if isinstance(left, float):
        if math.isnan(left):
            return math.isnan(right)
        return (left == right
                and math.copysign(1.0, left) == math.copysign(1.0, right))
    return left == right


def assert_same_relation(decoded: Relation, relation: Relation) -> None:
    assert decoded.name == relation.name
    assert [(column.name, column.datatype.render())
            for column in decoded.schema.columns] == [
        (column.name, column.datatype.render())
        for column in relation.schema.columns]
    assert len(decoded) == len(relation)
    for got, want in zip(decoded.rows, relation.rows):
        assert type(got) is tuple and len(got) == len(want)
        assert all(same_cell(a, b) for a, b in zip(got, want)), (got, want)


def over_the_wire(payload: dict):
    """*payload* as a peer receives it: framed, then parsed."""
    frame = protocol.encode_frame({"ok": True, "kind": "relation",
                                   "relation": payload})
    return protocol.decode_frame(frame[4:])["relation"]


class TestRoundTrip:
    @PAYLOAD_SETTINGS
    @given(relations())
    @example(make_relation(["real"], []))
    @example(make_relation(["date"], [(None,)]))
    @example(make_relation(
        ["integer", "real", "char", "date", "real", "char", "integer",
         "date"],
        [(1, math.nan, "", datetime.date(1991, 4, 8), -0.0, "é", None,
          None),
         (None, math.inf, None, None, -math.inf, "中", -(2 ** 63),
          datetime.date(1, 1, 1))]))
    def test_cells_keep_their_exact_type(self, relation):
        payload = protocol.encode_relation_payload(relation)
        assert_same_relation(
            protocol.decode_relation_payload(over_the_wire(payload)),
            relation)

    def test_one_array_per_column(self):
        relation = make_relation(
            ["integer", "date"],
            [(1, datetime.date(2024, 2, 29)), (2, None)])
        payload = protocol.encode_relation_payload(relation)
        assert payload["columns"] == [[1, 2], [{"d": "2024-02-29"}, None]]

    def test_payload_of_no_rows_has_every_column(self):
        payload = protocol.encode_relation_payload(
            make_relation(["integer", "char", "date"], []))
        assert payload["columns"] == [[], [], []]


def malformed(payload: dict, mutation: str, data) -> dict:
    """A copy of *payload* broken the way *mutation* names."""
    columns = [list(column) for column in payload["columns"]]
    broken = {"schema": payload["schema"], "columns": columns}
    if mutation in ("schema", "columns"):
        del broken[mutation]
    elif mutation == "fewer_columns":
        del columns[data.draw(st.integers(0, len(columns) - 1))]
    elif mutation == "more_columns":
        columns.append(list(columns[0]))
    elif mutation == "unequal_lengths":
        column = columns[data.draw(st.integers(0, len(columns) - 1))]
        if column and data.draw(st.booleans()):
            column.pop()
        else:
            column.append(None)
    elif mutation == "not_a_list":
        position = data.draw(st.integers(0, len(columns) - 1))
        columns[position] = data.draw(st.one_of(
            st.none(), st.integers(), st.text(min_size=1),
            st.dictionaries(st.text(), st.integers(), max_size=2)))
    else:  # pragma: no cover - the strategy lists every mutation
        raise AssertionError(mutation)
    return broken


MUTATIONS = ("schema", "columns", "fewer_columns", "more_columns",
             "unequal_lengths", "not_a_list")


class TestTotality:
    @PAYLOAD_SETTINGS
    @given(relations(min_columns=2), st.sampled_from(MUTATIONS),
           st.data())
    def test_malformed_payload_raises(self, relation, mutation, data):
        payload = over_the_wire(protocol.encode_relation_payload(relation))
        with pytest.raises(ProtocolError, match="bad relation payload"):
            protocol.decode_relation_payload(
                malformed(payload, mutation, data))

    @pytest.mark.parametrize("payload", [
        None, [], "columns", {"schema": "garbage"},
        {"schema": None, "columns": [[1]]},
    ])
    def test_payload_not_an_object_or_schema_raises(self, payload):
        with pytest.raises(ProtocolError, match="bad relation payload"):
            protocol.decode_relation_payload(payload)

    def test_string_column_is_not_read_as_characters(self):
        payload = protocol.encode_relation_payload(
            make_relation(["char"], [("a",), ("b",), ("c",)]))
        payload["columns"] = ["abc"]
        with pytest.raises(ProtocolError, match="list of lists"):
            protocol.decode_relation_payload(payload)

    def test_bad_date_tag_raises(self):
        payload = protocol.encode_relation_payload(
            make_relation(["date"], [(datetime.date(2024, 1, 1),)]))
        payload["columns"] = [[{"d": "not-a-date"}]]
        with pytest.raises(ProtocolError, match="bad tagged value"):
            protocol.decode_relation_payload(payload)


EVENTS = [
    (1, datetime.date(2024, 2, 29), math.nan, "é"),
    (2, None, math.inf, ""),
    (3, datetime.date(1991, 4, 8), -0.0, None),
    (4, datetime.date(1999, 12, 31), -math.inf, "潜水艦"),
    (5, datetime.date(2000, 1, 1), 1.5, "x"),
]


@pytest.fixture()
def event_server():
    database = Database("events")
    database.create("EVENT", [("Id", INTEGER), ("Day", DATE),
                              ("V", REAL), ("Note", char(12))], EVENTS)
    system = IntensionalQueryProcessor(database, RuleSet())
    with IntensionalQueryServer(system, lock_timeout_s=0.3) as live:
        yield live


class TestLiveServer:
    SQL = "SELECT * FROM EVENT WHERE Id >= 1"

    def test_sql_carries_dates_and_non_finite_reals(self, event_server):
        local = execute_select(event_server.system.database,
                               parse_select(self.SQL))
        with Client("127.0.0.1", event_server.port) as client:
            # The second reply is the wire memo's stored frame.
            for _ in range(2):
                assert_same_relation(client.sql(self.SQL), local)
        assert any(key[0] == "sql" for key in event_server._wire_memo)

    def test_ask_carries_dates_and_non_finite_reals(self, event_server):
        local = event_server.system.ask(self.SQL).extensional
        with Client("127.0.0.1", event_server.port) as client:
            for _ in range(2):
                assert_same_relation(client.ask(self.SQL).extensional,
                                     local)
        assert any(key[0] == "ask" for key in event_server._wire_memo)

    def test_memo_admitted_reply_is_encoded_once(self, event_server,
                                                 monkeypatch):
        encoded = []
        encode_frame = protocol.encode_frame

        def counting(message):
            if message.get("kind") in ("relation", "ask"):
                encoded.append(message["kind"])
            return encode_frame(message)

        monkeypatch.setattr(protocol, "encode_frame", counting)
        with Client("127.0.0.1", event_server.port) as client:
            client.sql(self.SQL)
            client.ask(self.SQL)
        assert encoded == ["relation", "ask"]
        assert len(event_server._wire_memo) == 2
