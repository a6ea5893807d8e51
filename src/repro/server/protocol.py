"""The wire protocol: length-prefixed JSON frames.

A frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON.  Both directions use the same framing; a body
larger than :data:`MAX_FRAME_BYTES` is refused before it is read, so a
corrupt or hostile peer cannot make the receiver allocate unboundedly.

Requests are objects with an ``op`` field::

    {"op": "sql",  "sql": "SELECT ..."}          any SQL statement
    {"op": "ask",  "sql": ..., "forward": true, "backward": true}
    {"op": "explain", "sql": ..., "analyze": false}
    {"op": "begin"} / {"op": "commit"} / {"op": "rollback"}
    {"op": "admin", "command": "tables"}          shell-style commands
    {"op": "ping"} / {"op": "bye"}

Responses carry ``ok``.  Success frames add a ``kind``
(``relation`` / ``count`` / ``text`` / ``ask`` / ``ok``) plus the
payload.  A relation travels as its schema and one JSON array per
column, built with one ``zip(*rows)`` and rebuilt with one
``zip(*columns, strict=True)``::

    {"schema": {"name": "result", "columns": [["Id", "integer"], ...],
                "key": null},
     "columns": [[1, 2, 3], ...]}

The wire and the WAL now share only the cell encoding
(:mod:`repro.storage.codec`, whose schema encoding both also use): a
DATE cell is tagged ``{"d": "YYYY-MM-DD"}`` as in a WAL record, and
DATE columns are the only ones that pay a per-value step.  Every other
cell is sent as JSON carries it; NaN and the infinities use the tokens
Python's ``json`` writes and reads back.  The WAL keeps one array per
row.  Failure frames map the server-side exception onto a structured
error::

    {"ok": false, "error": {"type": "LockTimeout", "message": ...,
                            "hint": ..., "aborted": true}}

``aborted`` tells the client its open transaction was rolled back while
failing the request (lock-timeout victim, server drain).

Resilience metadata (PR 8):

* requests may carry ``deadline_ms`` (the client's remaining time
  budget in whole milliseconds; the server refuses work whose deadline
  already passed and stops streaming plans that outlive it), ``token``
  (an idempotency token on DML, see ``docs/SERVER.md``) and ``client``
  (the stable client id tokens are scoped to);
* every error frame carries a machine-readable ``retryable`` flag --
  ``true`` exactly when retrying the *same* request can succeed without
  double effects (``LockTimeout``, ``RetryLater``); shed requests add
  ``retry_after_s``, the server's suggested backoff.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any

from repro.errors import ProtocolError, ReproError

__all__ = [
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "decode_frame",
    "encode_frame",
    "encode_relation_payload",
    "decode_relation_payload",
    "error_frame",
    "read_frame",
    "write_frame",
]

#: Refuse bodies beyond this many bytes (16 MiB) in either direction.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_HEADER = struct.Struct(">I")


def encode_frame(message: dict[str, Any]) -> bytes:
    """Serialize *message* into one wire frame (header + JSON body)."""
    body = json.dumps(message, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame body of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    return _HEADER.pack(len(body)) + body


def decode_frame(body: bytes) -> dict[str, Any]:
    """Parse one frame body back into a message object."""
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"frame body is not valid JSON: {error}") \
            from error
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got {type(message).__name__}")
    return message


def _read_exact(sock: socket.socket, count: int) -> bytes | None:
    """*count* bytes from *sock*, ``None`` on clean EOF at a frame
    boundary, :class:`ProtocolError` on EOF mid-frame."""
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == count and not chunks:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({count - remaining} of "
                f"{count} bytes read)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> dict[str, Any] | None:
    """Read one message from *sock*; ``None`` on clean EOF."""
    header = _read_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"peer announced a {length}-byte frame (limit "
            f"{MAX_FRAME_BYTES})")
    body = _read_exact(sock, length) if length else b"{}"
    if body is None:
        raise ProtocolError("connection closed between header and body")
    return decode_frame(body)


def write_frame(sock: socket.socket, message: dict[str, Any]) -> None:
    sock.sendall(encode_frame(message))


def error_frame(error: BaseException, aborted: bool = False) -> dict:
    """The structured error frame for a server-side exception.

    Library errors (:class:`ReproError`) travel with their class name
    and hint; anything else is wrapped as an ``InternalError`` so the
    client never sees a raw traceback type it cannot interpret.
    """
    if isinstance(error, ReproError):
        kind = type(error).__name__
    else:
        kind = "InternalError"
    payload: dict[str, Any] = {
        "type": kind,
        "message": str(error) or kind,
        "retryable": bool(getattr(error, "retryable", False)),
    }
    hint = getattr(error, "hint", None)
    if hint:
        payload["hint"] = hint
    retry_after = getattr(error, "retry_after_s", None)
    if retry_after is not None:
        payload["retry_after_s"] = retry_after
    if aborted:
        payload["aborted"] = True
        # A rolled-back transaction cannot be recovered by resending
        # one statement, whatever the error class said.
        payload["retryable"] = False
    return {"ok": False, "error": payload}


# -- relation payloads (one JSON array per column) -------------------------


def encode_relation_payload(relation) -> dict:
    """Schema + one JSON array per column; DATE cells are tagged as in
    the WAL, every other cell travels as JSON carries it."""
    from repro.relational.datatypes import DateType
    from repro.storage import codec
    schema = relation.schema
    values_by_column = (zip(*relation.rows) if relation.rows
                        else [()] * len(schema.columns))
    columns = [[codec.encode_value(value) for value in values]
               if isinstance(column.datatype, DateType) else list(values)
               for column, values in zip(schema.columns, values_by_column)]
    return {"schema": codec.encode_schema(schema), "columns": columns}


def decode_relation_payload(payload: dict):
    """The relation *payload* encodes; :class:`ProtocolError` unless it
    holds one list per schema column, all of one length."""
    from repro.relational.datatypes import DateType
    from repro.relational.relation import Relation
    from repro.storage import codec
    try:
        schema = codec.decode_schema(payload["schema"])
        columns = payload["columns"]
        if not isinstance(columns, list) or not all(
                isinstance(column, list) for column in columns):
            raise ProtocolError("columns must be a list of lists")
        if len(columns) != len(schema.columns):
            raise ProtocolError(
                f"{len(columns)} columns for a schema of "
                f"{len(schema.columns)}")
        columns = [[codec.decode_value(value) for value in values]
                   if isinstance(column.datatype, DateType) else values
                   for column, values in zip(schema.columns, columns)]
        return Relation(schema, zip(*columns, strict=True),
                        validated=True)
    except (ReproError, KeyError, TypeError, ValueError) as error:
        raise ProtocolError(
            f"bad relation payload from peer: {error}") from error
