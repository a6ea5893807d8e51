"""The append-only write-ahead log.

One JSONL record per line.  Every record carries a monotonic ``lsn``
and a ``crc`` (CRC32 of the canonical JSON body without the ``crc``
field), so a reader can tell three states apart:

* a **valid record** -- parses, CRC matches, LSN strictly increases;
* a **torn tail** -- the final line fails any of those checks because a
  crash interrupted the append; recovery treats the log as ending at
  the last valid record (this is the normal post-crash state);
* **mid-log corruption** -- an invalid record *followed by* valid ones,
  which no crash of this engine can produce; recovery refuses with
  :class:`~repro.errors.CorruptWalRecord` rather than silently skipping
  committed work.

Transactions are logged at commit time only (redo-only, ARIES-lite):
``begin`` / ``mut``+``ddl``+``rule_sync`` / ``commit`` records are
appended as one batch, so a transaction is either fully present or torn
at the tail -- never interleaved with another.

A ``header`` record carries the LSN watermark a rotated log starts
after, keeping LSNs monotonic across checkpoint truncation.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from typing import Any, Iterable, TextIO

from repro import obs
from repro.errors import CorruptWalRecord, StorageError
from repro.storage.faults import REAL_OPS, FileOps


def _stdlib_dumps(record: dict) -> str:
    return json.dumps(record, ensure_ascii=False, sort_keys=True,
                      separators=(",", ":"))


try:  # pragma: no cover - exercised implicitly by every WAL test
    import orjson

    def _orjson_dumps(record: dict) -> str:
        # PASSTHROUGH_DATETIME keeps orjson as strict as the stdlib:
        # an unencoded date reaching the WAL is a codec bug and must
        # raise, not serialize to a form the reader cannot reverse.
        return orjson.dumps(
            record,
            option=orjson.OPT_SORT_KEYS | orjson.OPT_PASSTHROUGH_DATETIME,
        ).decode("utf-8")

    _dumps, _loads = _orjson_dumps, orjson.loads
except ImportError:  # pragma: no cover - orjson is optional
    _dumps, _loads = _stdlib_dumps, json.loads

#: fsync policies: every append batch, only commit batches (default),
#: or never (OS page cache only -- survives process death, not power
#: loss).
FSYNC_POLICIES = ("always", "commit", "never")


def encode_record(record: dict) -> str:
    """The JSONL line for *record*, CRC appended.

    The CRC covers the serialized body exactly as written (everything
    before the spliced ``,"crc":N`` suffix), so the reader verifies the
    raw line bytes instead of re-serializing -- integrity does not
    depend on writer and reader agreeing on a canonical key order or
    even on the same JSON library.  The splice avoids a second full
    dump per record, which on a bulk commit was the single hottest line
    of the append path.
    """
    body = _dumps(record)
    crc = zlib.crc32(body.encode("utf-8"))
    return f'{body[:-1]},"crc":{crc}}}\n'


def decode_record(line: str) -> dict | None:
    """Parse one line; ``None`` when torn/invalid (caller decides
    whether that is a tolerable tail or mid-log corruption)."""
    line = line.strip()
    if not line:
        return None
    # The writer splices the CRC as the final field, so the last
    # ``,"crc":`` of the raw line is always the genuine one (an
    # occurrence inside a string value necessarily comes earlier).
    body, sep, tail = line.rpartition(',"crc":')
    if not sep or not tail.endswith("}"):
        return None
    try:
        crc = int(tail[:-1])
    except ValueError:
        return None
    if zlib.crc32((body + "}").encode("utf-8")) != crc:
        return None
    try:
        record = _loads(line)
    except (ValueError, TypeError):
        return None
    if not isinstance(record, dict) or "crc" not in record:
        return None
    record.pop("crc")
    if not isinstance(record.get("lsn"), int) or "type" not in record:
        return None
    return record


def read_records(path: str) -> tuple[list[dict], bool]:
    """Every valid record of the log at *path*, in order.

    Returns ``(records, torn_tail)``.  A trailing run of invalid lines
    is the torn tail; an invalid line *before* a valid one is mid-log
    corruption and raises :class:`CorruptWalRecord`, as does a
    non-monotonic LSN.
    """
    if not os.path.exists(path):
        return [], False
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in handle.read().split("\n") if line.strip()]
    decoded = [decode_record(line) for line in lines]
    last_valid = -1
    for index, record in enumerate(decoded):
        if record is not None:
            last_valid = index
    records: list[dict] = []
    for index, record in enumerate(decoded[:last_valid + 1]):
        if record is None:
            raise CorruptWalRecord(
                f"invalid WAL record at line {index + 1} of {path} "
                f"(valid records follow it)")
        if records and record["lsn"] <= records[-1]["lsn"]:
            raise CorruptWalRecord(
                f"non-monotonic LSN {record['lsn']} after "
                f"{records[-1]['lsn']} at line {index + 1} of {path}")
        records.append(record)
    return records, last_valid < len(decoded) - 1


class WriteAheadLog:
    """Appender over one WAL file, LSN allocation included."""

    def __init__(self, path: str, fsync: str = "commit",
                 file_ops: FileOps | None = None):
        if fsync not in FSYNC_POLICIES:
            raise StorageError(
                f"unknown fsync policy {fsync!r}",
                hint=f"choose one of {', '.join(FSYNC_POLICIES)}")
        self.path = path
        self.fsync = fsync
        self.ops = file_ops or REAL_OPS
        self._handle: TextIO | None = None
        records, torn = read_records(path)
        self.last_lsn = records[-1]["lsn"] if records else 0
        if torn:
            # Drop the torn tail before ever appending again: a fresh
            # record after an invalid line would turn a tolerable tail
            # into (apparent) mid-log corruption on the next read.
            self._truncate_tail()

    def _truncate_tail(self) -> None:
        """Cut the file at the first invalid non-blank line (which
        :func:`read_records` has already proven is the start of the torn
        tail, not mid-log corruption)."""
        with open(self.path, "rb") as handle:
            raw = handle.read()
        keep = 0
        for line in raw.splitlines(keepends=True):
            try:
                text = line.decode("utf-8")
            except UnicodeDecodeError:
                break
            if text.strip() and decode_record(text) is None:
                break
            keep += len(line)
        with open(self.path, "r+b") as handle:
            handle.truncate(keep)

    # -- appending ---------------------------------------------------------

    def _open(self) -> TextIO:
        if self._handle is None or self._handle.closed:
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def append(self, records: Iterable[dict], commit_batch: bool = True,
               ) -> int:
        """Assign LSNs to *records*, append them, and apply the fsync
        policy; returns the last LSN written.

        The batch is written and flushed as ONE group commit: a process
        kill tears at most the batch being written (leaving its
        transaction uncommitted), never an earlier one.  One write plus
        one flush per transaction instead of per record is what keeps
        journaling overhead flat on bulk commits.
        """
        handle = self._open()
        lines: list[str] = []
        for record in records:
            self.last_lsn += 1
            lines.append(encode_record({**record, "lsn": self.last_lsn}))
        if lines:
            self.ops.write(handle, "".join(lines), "wal_append")
            handle.flush()
        obs.counter("wal_records_total",
                    "WAL records appended").inc(len(lines))
        if self.fsync == "always" or (self.fsync == "commit"
                                      and commit_batch):
            start = time.perf_counter()
            self.ops.fsync(handle, "wal_fsync")
            obs.histogram("wal_fsync_seconds",
                          "WAL fsync latency").observe(
                              time.perf_counter() - start)
        return self.last_lsn

    # -- checkpoint rotation ----------------------------------------------

    def rotate(self, after_lsn: int) -> None:
        """Truncate the log to a header record (atomically, via a tmp
        file and rename): everything at or below *after_lsn* is covered
        by the snapshot that the caller just made durable."""
        self.close()
        tmp = self.path + ".tmp"
        header = {"type": "header", "lsn": after_lsn}
        with open(tmp, "w", encoding="utf-8") as handle:
            self.ops.write(handle, encode_record(header), "wal_rotate")
            self.ops.fsync(handle, "wal_rotate")
        self.ops.replace(tmp, self.path, "wal_rotate")
        self.last_lsn = max(self.last_lsn, after_lsn)

    def close(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self._handle.close()
        self._handle = None
