"""Write-ahead logging and checkpointed recovery for histories.

The paper's premise is that a query-able audit log "provides sufficient
information to enable reenactment" — but an in-memory history dies with
the process.  :class:`WriteAheadLog` makes a recorded history durable:
every audit event and every transaction's committed per-table delta is
appended to an on-disk log, and :meth:`WriteAheadLog.attach` (via
``Database.open`` / ``Database.attach_wal``) replays it into a fresh
:class:`~repro.db.engine.Database` — same ``history_id``, same clock,
same version chains, same audit entries — so reenactment over the
recovered history is byte-identical to the live one.

Layout and format
-----------------

A WAL is a *directory* of two kinds of files:

* ``segment-NNNNNNNN.log`` — append-only record files.  Each record is
  a length-prefixed binary frame: ``<u32 payload_len><u32 crc32>``
  followed by the pickled ``(kind, data)`` payload.  The CRC covers the
  payload, so a torn append (crash mid-write) is detected and the tail
  truncated at the last whole record; a bad frame anywhere *except* the
  tail of the last segment is corruption and raises
  :class:`~repro.errors.WALError`.
* ``checkpoint-NNNNNNNN.bin`` — one frame holding the full engine state
  (catalog, committed version chains, commit logs, audit entries, clock
  and id counters).  Checkpoint ``N`` covers everything before segment
  ``N``: recovery loads the newest readable checkpoint and replays only
  segments ``>= N``.  Checkpoints are written to a temp file, fsynced,
  and atomically renamed; compaction then deletes the segments and
  checkpoints they supersede.

Append path ("How to Write to SSDs" playbook): records are buffered and
written in batches, with the fsync cadence a policy knob —
``"always"`` (fsync per record), ``"commit"`` (fsync on commit/abort/DDL
boundaries), ``"batch"`` (default: fsync when the buffer exceeds
``batch_bytes`` and on flush/checkpoint/close) or ``"never"`` (fsync
only on close).

What is logged: DDL, the audit stream (BEGIN / STATEMENT entries as
they are recorded), and at commit one record carrying the transaction's
published writes per table — ``(rowid, values, stmt_ts)`` triples in
write-set order, exactly what
:meth:`~repro.db.table.VersionedTable.replay_commit` needs to rebuild
the version chains and commit logs.  In-flight work is only logged at
its commit, so a crash discards uncommitted effects by construction.
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple
from zlib import crc32

from repro.db.auditlog import AuditEventKind, AuditLogEntry
from repro.db.schema import Column
from repro.db.transaction import IsolationLevel, Transaction
from repro.db.types import DataType
from repro.errors import WALError
from repro.faults.inject import fault_point
from repro.faults.retry import RetryPolicy
from repro.obs.metrics import StatsView
from repro.obs.trace import span

#: frame header: payload length, payload crc32 (little-endian u32 each).
_FRAME = struct.Struct("<II")

_FORMAT_VERSION = 1

FSYNC_POLICIES = ("always", "commit", "batch", "never")

#: record kinds that end a durability unit under the "commit" policy.
_COMMIT_KINDS = frozenset({"commit", "abort", "create_table",
                           "drop_table"})

_SEGMENT_PREFIX = "segment-"
_SEGMENT_SUFFIX = ".log"
_CHECKPOINT_PREFIX = "checkpoint-"
_CHECKPOINT_SUFFIX = ".bin"


def _encode_record(kind: str, data) -> bytes:
    payload = pickle.dumps((kind, data),
                           protocol=pickle.HIGHEST_PROTOCOL)
    return _FRAME.pack(len(payload), crc32(payload)) + payload


def _scan_frames(raw: bytes) -> Tuple[List[Tuple[str, object]], int]:
    """Decode whole frames from ``raw``; returns ``(records,
    valid_bytes)`` where ``valid_bytes`` is the offset after the last
    intact record (a torn/corrupt tail is simply not included)."""
    records: List[Tuple[str, object]] = []
    offset = 0
    size = len(raw)
    while offset + _FRAME.size <= size:
        length, checksum = _FRAME.unpack_from(raw, offset)
        start = offset + _FRAME.size
        end = start + length
        if end > size:
            break  # torn: payload incomplete
        payload = raw[start:end]
        if crc32(payload) != checksum:
            break  # torn: partially written frame
        try:
            kind, data = pickle.loads(payload)
        except Exception as exc:
            raise WALError(
                f"undecodable WAL record at offset {offset}: "
                f"{exc!r}") from exc
        records.append((kind, data))
        offset = end
    return records, offset


def record_offsets(segment_path: str) -> List[int]:
    """End offset of every intact record in a segment file — the legal
    truncation points of the crash/recover differential tests."""
    with open(segment_path, "rb") as fh:
        raw = fh.read()
    offsets: List[int] = []
    offset = 0
    while offset + _FRAME.size <= len(raw):
        length, checksum = _FRAME.unpack_from(raw, offset)
        end = offset + _FRAME.size + length
        if end > len(raw):
            break
        if crc32(raw[offset + _FRAME.size:end]) != checksum:
            break
        offsets.append(end)
        offset = end
    return offsets


def _db_is_pristine(db) -> bool:
    """No tables, no audit entries, clock never ticked: safe to replay
    a recorded history into."""
    return (not db.tables and not db.audit_log.entries
            and db.clock.now() == 0)


# -- engine state capture / restore (the checkpoint payload) ------------


def capture_state(db) -> Dict:
    """Full durable state of a database, checkpoint-shaped.  Only
    committed versions are captured: a transaction in flight at
    checkpoint time re-applies its writes through its own later commit
    record during replay."""
    tables = []
    for name in db.catalog.table_names():
        schema = db.catalog.get(name)
        table = db.tables[name]
        tables.append({
            "name": name,
            "columns": [(c.name, c.dtype.value, c.nullable,
                         c.primary_key) for c in schema.columns],
            "state": table.checkpoint_state(),
        })
    return {
        "format": _FORMAT_VERSION,
        "history_id": db.history_id,
        "clock": db.clock.now(),
        "next_xid": db.mvcc._next_xid,
        "next_session_id": db._next_session_id,
        "config": {
            "audit_enabled": db.config.audit_enabled,
            "timetravel_enabled": db.config.timetravel_enabled,
            "default_isolation": db.config.default_isolation.value,
        },
        "tables": tables,
        "audit": [(e.kind.value, e.xid, e.ts, e.isolation.value,
                   e.user, e.session_id, e.stmt_index, e.sql)
                  for e in db.audit_log.entries],
    }


def restore_state(db, state: Dict) -> None:
    """Load a checkpoint into a pristine database."""
    if state.get("format") != _FORMAT_VERSION:
        raise WALError(
            f"unsupported checkpoint format "
            f"{state.get('format')!r} (expected {_FORMAT_VERSION})")
    config = state.get("config") or {}
    if "audit_enabled" in config:
        db.config.audit_enabled = config["audit_enabled"]
    if "timetravel_enabled" in config:
        db.config.timetravel_enabled = config["timetravel_enabled"]
    if "default_isolation" in config:
        db.config.default_isolation = IsolationLevel(
            config["default_isolation"])
    db.history_id = state["history_id"]
    for tdef in state["tables"]:
        columns = [Column(name=name, dtype=DataType(dtype),
                          nullable=nullable, primary_key=pk)
                   for name, dtype, nullable, pk in tdef["columns"]]
        db.create_table(tdef["name"], columns)
        db.tables[tdef["name"]].restore_checkpoint_state(tdef["state"])
    for kind, xid, ts, isolation, user, session_id, stmt_index, sql \
            in state["audit"]:
        db.audit_log.append(AuditLogEntry(
            kind=AuditEventKind(kind), xid=xid, ts=ts,
            isolation=IsolationLevel(isolation), user=user,
            session_id=session_id, stmt_index=stmt_index, sql=sql))
    db.clock.restore(state["clock"])
    db.mvcc._next_xid = state["next_xid"]
    db._next_session_id = state["next_session_id"]


# -- recovery report ----------------------------------------------------


@dataclass
class RecoveryReport:
    """What :meth:`WriteAheadLog.attach` did to rebuild the database."""

    #: checkpoint the restore started from (None = replayed from zero).
    checkpoint_index: Optional[int] = None
    segments_replayed: int = 0
    records_replayed: int = 0
    commits_replayed: int = 0
    #: bytes dropped from the torn tail of the last segment.
    torn_bytes_dropped: int = 0

    @property
    def recovered(self) -> bool:
        return (self.checkpoint_index is not None
                or self.records_replayed > 0)


@dataclass
class WALStats(StatsView):
    """Observable work the log performed since it was opened."""

    records_appended: int = 0
    bytes_appended: int = 0
    flushes: int = 0
    fsyncs: int = 0
    checkpoints: int = 0
    segments_compacted: int = 0
    checkpoints_compacted: int = 0
    #: transient append failures absorbed by the retry policy.
    appends_retried: int = 0
    #: transient fsync failures absorbed by the retry policy.
    fsyncs_retried: int = 0
    #: append/flush failures that exhausted the retry budget and
    #: quarantined the log (flipping the database read-only).
    quarantines: int = 0
    #: checkpoints whose expensive half ran on the background thread.
    checkpoints_background: int = 0
    #: background checkpoints that failed (the covered segments stay
    #: on disk, so recovery is unaffected — just un-compacted).
    checkpoint_failures: int = 0


class WriteAheadLog:
    """Append-only, segmented, checkpointed log of one history.

    ``path`` is a directory (created if missing).  ``fsync`` picks the
    durability policy (see the module docstring); ``batch_bytes``
    bounds the append buffer; ``checkpoint_every`` (commits) enables
    automatic checkpoint + compaction, ``None`` leaves checkpoints
    manual.
    """

    def __init__(self, path: str, fsync: str = "batch",
                 batch_bytes: int = 64 * 1024,
                 checkpoint_every: Optional[int] = None,
                 checkpoint_async: bool = False,
                 retry: Optional[RetryPolicy] = None):
        if fsync not in FSYNC_POLICIES:
            raise WALError(
                f"unknown fsync policy {fsync!r}; expected one of "
                f"{FSYNC_POLICIES}")
        if batch_bytes < 1:
            raise WALError(
                f"batch_bytes must be >= 1, got {batch_bytes}")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise WALError(
                f"checkpoint_every must be >= 1, got "
                f"{checkpoint_every}")
        self.path = path
        os.makedirs(path, exist_ok=True)
        self.fsync = fsync
        self.batch_bytes = batch_bytes
        self.checkpoint_every = checkpoint_every
        #: automatic checkpoints run their expensive half (pickle,
        #: tmp-file write + fsync + rename, compaction) on a background
        #: thread so the append path isn't stalled; the state capture
        #: and segment rotation stay synchronous for consistency.
        self.checkpoint_async = checkpoint_async
        #: absorbs transient append/fsync failures; exhaustion
        #: quarantines the log (see :meth:`_quarantine`).
        self.retry = retry if retry is not None \
            else RetryPolicy(attempts=3, base_delay=0.002,
                             max_delay=0.05)
        self.retry.on_retry = self._count_retry
        self.stats = WALStats()
        self.history_id: Optional[str] = None
        self.last_recovery: Optional[RecoveryReport] = None
        self.quarantine_reason: Optional[str] = None
        self.last_checkpoint_error: Optional[BaseException] = None
        self._fh = None
        self._segment_index: Optional[int] = None
        self._buffer: List[bytes] = []
        self._buffered_bytes = 0
        self._dirty = False  # unsynced bytes reached the OS
        self._commits_since_checkpoint = 0
        self._closed = False
        self._quarantined = False
        self._db = None  # the attached Database (for quarantine)
        self._ckpt_thread: Optional[threading.Thread] = None

    # -- file layout -----------------------------------------------------

    def _segment_path(self, index: int) -> str:
        return os.path.join(
            self.path, f"{_SEGMENT_PREFIX}{index:08d}{_SEGMENT_SUFFIX}")

    def _checkpoint_path(self, index: int) -> str:
        return os.path.join(
            self.path,
            f"{_CHECKPOINT_PREFIX}{index:08d}{_CHECKPOINT_SUFFIX}")

    def _indexes(self, prefix: str, suffix: str) -> List[int]:
        out = []
        for entry in os.listdir(self.path):
            if entry.startswith(prefix) and entry.endswith(suffix):
                stem = entry[len(prefix):-len(suffix)]
                if stem.isdigit():
                    out.append(int(stem))
        return sorted(out)

    def segment_indexes(self) -> List[int]:
        return self._indexes(_SEGMENT_PREFIX, _SEGMENT_SUFFIX)

    def checkpoint_indexes(self) -> List[int]:
        return self._indexes(_CHECKPOINT_PREFIX, _CHECKPOINT_SUFFIX)

    def has_history(self) -> bool:
        """Anything durable to replay: a checkpoint, or a segment with
        at least one whole record."""
        if self.checkpoint_indexes():
            return True
        return any(os.path.getsize(self._segment_path(i)) >= _FRAME.size
                   for i in self.segment_indexes())

    # -- attach / recovery -----------------------------------------------

    def attach(self, db) -> RecoveryReport:
        """Bind this log to ``db`` and leave it open for append.

        * existing history + pristine ``db`` → replay it in (restores
          ``history_id``, catalog, version chains, audit log, clock and
          id counters), truncating a torn final record;
        * fresh log + non-pristine ``db`` → bootstrap: write an initial
          checkpoint of the current state so the log is self-contained;
        * existing history + non-pristine ``db`` → :class:`WALError`.
        """
        if self._closed:
            raise WALError("write-ahead log is closed")
        if self._fh is not None:
            raise WALError("write-ahead log is already attached")
        report = RecoveryReport()
        had_history = self.has_history()
        if had_history:
            if not _db_is_pristine(db):
                raise WALError(
                    f"cannot replay WAL {self.path!r} into a non-empty "
                    f"database; recover into a fresh Database() "
                    f"(Database.open does exactly that)")
            self._recover(db, report)
        if self._segment_index is None:
            existing = self.segment_indexes()
            self._segment_index = existing[-1] if existing else 0
        self._fh = open(self._segment_path(self._segment_index), "ab")
        if self.history_id is None:
            self.history_id = db.history_id
        if self._fh.tell() == 0:
            self._append("header", {
                "format": _FORMAT_VERSION,
                "history_id": self.history_id,
                "segment": self._segment_index,
            })
            self._flush(sync=self.fsync != "never")
        if not had_history and not _db_is_pristine(db):
            # bootstrap a fresh log over an already-populated database
            self.checkpoint(db)
        self._db = db
        self.last_recovery = report
        return report

    def _recover(self, db, report: RecoveryReport) -> None:
        base = 0
        state = None
        checkpoints = self.checkpoint_indexes()
        for index in reversed(checkpoints):
            try:
                state = self._read_checkpoint(index)
            except WALError:
                # a checkpoint torn by a crash mid-write (rename never
                # happened for the good copy): fall back to an older
                # one — compaction only runs after a successful rename,
                # so the segments it needs still exist.
                continue
            base = index
            break
        if checkpoints and state is None:
            # compaction deleted the segments older checkpoints covered,
            # so replaying from scratch would silently lose history —
            # refuse rather than recover a partial database
            raise WALError(
                f"no readable checkpoint in {self.path!r} (every "
                f"checkpoint file is corrupt)")
        if state is not None:
            restore_state(db, state)
            self.history_id = state["history_id"]
            report.checkpoint_index = base
        segments = [i for i in self.segment_indexes() if i >= base]
        for position, index in enumerate(segments):
            path = self._segment_path(index)
            with open(path, "rb") as fh:
                raw = fh.read()
            records, valid_bytes = _scan_frames(raw)
            if valid_bytes < len(raw):
                if position != len(segments) - 1:
                    raise WALError(
                        f"corrupt record in non-final WAL segment "
                        f"{path!r} at offset {valid_bytes}")
                os.truncate(path, valid_bytes)
                report.torn_bytes_dropped += len(raw) - valid_bytes
            for kind, data in records:
                self._apply(db, kind, data, report)
            report.segments_replayed += 1
        self._segment_index = segments[-1] if segments else base

    def _read_checkpoint(self, index: int) -> Dict:
        path = self._checkpoint_path(index)
        with open(path, "rb") as fh:
            raw = fh.read()
        records, valid_bytes = _scan_frames(raw)
        if len(records) != 1 or valid_bytes != len(raw) \
                or records[0][0] != "checkpoint":
            raise WALError(f"corrupt checkpoint file {path!r}")
        return records[0][1]

    def _apply(self, db, kind: str, data, report: RecoveryReport) -> None:
        if kind == "header":
            history_id = data["history_id"]
            if self.history_id is None:
                self.history_id = history_id
                db.history_id = history_id
            elif history_id != self.history_id:
                raise WALError(
                    f"WAL segment header names history "
                    f"{history_id!r}, expected {self.history_id!r}")
            return
        report.records_replayed += 1
        if kind == "create_table":
            columns = [Column(name=name, dtype=DataType(dtype),
                              nullable=nullable, primary_key=pk)
                       for name, dtype, nullable, pk in data["columns"]]
            db.create_table(data["name"], columns)
            return
        if kind == "drop_table":
            db.drop_table(data["name"])
            return
        if kind not in ("begin", "statement", "commit", "abort"):
            raise WALError(f"unknown WAL record kind {kind!r}")
        xid, ts = data["xid"], data["ts"]
        db.clock.advance_to(ts)
        if xid >= db.mvcc._next_xid:
            db.mvcc._next_xid = xid + 1
        session_id = data.get("session_id", 0)
        if session_id >= db._next_session_id:
            db._next_session_id = session_id + 1
        if kind == "commit":
            for table_name, rows in data["writes"].items():
                table = db.tables.get(table_name)
                if table is not None:
                    table.replay_commit(xid, ts, rows)
            report.commits_replayed += 1
        if kind in ("begin", "statement") or data.get("audit"):
            db.audit_log.append(AuditLogEntry(
                kind=AuditEventKind(kind.upper()), xid=xid, ts=ts,
                isolation=IsolationLevel(data["isolation"]),
                user=data["user"], session_id=session_id,
                stmt_index=data.get("index"), sql=data.get("sql")))

    # -- append path -----------------------------------------------------

    def _count_retry(self, site: str) -> None:
        if site == "wal.fsync":
            self.stats.fsyncs_retried += 1
        else:
            self.stats.appends_retried += 1

    def _quarantine(self, exc: BaseException) -> None:
        """An append-path failure survived the whole retry budget: the
        log can no longer promise durability for new writes, so it is
        quarantined and the attached database flips to explicit
        read-only — degraded, never silently divergent.  The recorded
        history stays fully queryable and reenactable."""
        if self._quarantined:
            return
        self._quarantined = True
        self.quarantine_reason = repr(exc)
        self.stats.quarantines += 1
        db = self._db
        if db is not None:
            db.quarantine(f"WAL append failure: {exc!r}")

    @property
    def quarantined(self) -> bool:
        return self._quarantined

    def _append(self, kind: str, data) -> None:
        if self._closed:
            raise WALError("write-ahead log is closed")
        if self._quarantined:
            raise WALError(
                f"write-ahead log is quarantined "
                f"({self.quarantine_reason}); the database is "
                f"read-only")
        with span("wal.append") as sp:
            frame = _encode_record(kind, data)
            sp.set("kind", kind)
            sp.set("bytes", len(frame))
            try:
                # the fault point sits before any buffering, so a
                # retried admission is exactly idempotent
                self.retry.call(fault_point, "wal.append",
                                site="wal.append", kind=kind)
            except Exception as exc:
                self._quarantine(exc)
                raise WALError(
                    f"WAL append of {kind!r} record failed after "
                    f"{self.retry.attempts} attempts; the log is "
                    f"quarantined and the database is read-only"
                ) from exc
            self._buffer.append(frame)
            self._buffered_bytes += len(frame)
            self.stats.records_appended += 1
            self.stats.bytes_appended += len(frame)
            try:
                if self.fsync == "always":
                    self._flush(sync=True)
                elif self.fsync == "commit" and kind in _COMMIT_KINDS:
                    self._flush(sync=True)
                elif self._buffered_bytes >= self.batch_bytes:
                    self._flush(sync=self.fsync == "batch")
            except Exception as exc:
                self._quarantine(exc)
                raise WALError(
                    f"WAL flush after {kind!r} record failed; the log "
                    f"is quarantined and the database is read-only"
                ) from exc

    def _fsync_once(self) -> None:
        fault_point("wal.fsync")
        os.fsync(self._fh.fileno())

    def _flush(self, sync: bool) -> None:
        if self._buffer:
            self._fh.write(b"".join(self._buffer))
            self._fh.flush()
            self._buffer = []
            self._buffered_bytes = 0
            self._dirty = True
            self.stats.flushes += 1
        if sync and self._dirty:
            with span("wal.fsync"):
                # fsync of already-written bytes is idempotent, so the
                # whole call is the retryable unit
                self.retry.call(self._fsync_once, site="wal.fsync")
            self._dirty = False
            self.stats.fsyncs += 1

    def flush(self, sync: bool = True) -> None:
        """Push buffered records to the file (and, by default, to
        stable storage).  A failure that survives the retry budget
        quarantines the log like an append failure would."""
        if self._closed or self._fh is None:
            return
        try:
            self._flush(sync=sync)
        except Exception as exc:
            self._quarantine(exc)
            raise WALError(
                f"WAL flush failed; the log is quarantined and the "
                f"database is read-only") from exc

    # -- capture points (called by the engine) ---------------------------

    @staticmethod
    def _txn_meta(txn: Transaction) -> Dict:
        return {"xid": txn.xid, "isolation": txn.isolation.value,
                "user": txn.user, "session_id": txn.session_id}

    def log_create_table(self, schema) -> None:
        self._append("create_table", {
            "name": schema.name,
            "columns": [(c.name, c.dtype.value, c.nullable,
                         c.primary_key) for c in schema.columns],
        })

    def log_drop_table(self, name: str) -> None:
        self._append("drop_table", {"name": name})

    def log_begin(self, txn: Transaction) -> None:
        data = self._txn_meta(txn)
        data["ts"] = txn.begin_ts
        self._append("begin", data)

    def log_statement(self, txn: Transaction, stmt_index: int, ts: int,
                      sql: str) -> None:
        data = self._txn_meta(txn)
        data.update(ts=ts, index=stmt_index, sql=sql)
        self._append("statement", data)

    def log_commit(self, txn: Transaction, commit_ts: int,
                   writes: Dict[str, List[Tuple]],
                   audited: bool) -> None:
        data = self._txn_meta(txn)
        data.update(ts=commit_ts, writes=writes, audit=audited)
        self._append("commit", data)
        self._commits_since_checkpoint += 1

    def log_abort(self, txn: Transaction, ts: int,
                  audited: bool) -> None:
        data = self._txn_meta(txn)
        data.update(ts=ts, audit=audited)
        self._append("abort", data)

    # -- checkpoints and compaction --------------------------------------

    def maybe_checkpoint(self, db) -> bool:
        """Automatic checkpoint when ``checkpoint_every`` commits have
        accumulated since the last one.  It never fails the commit that
        triggered it, which is already logged and applied: a failure
        of the checkpoint's own work is absorbed (see
        :meth:`_checkpoint_failed`) and the next attempt comes
        ``checkpoint_every`` commits later.  A failure to flush the log
        itself quarantines it, as :meth:`flush` does.  With
        ``checkpoint_async`` the expensive half runs on a background
        thread (at most one in flight — a due checkpoint is skipped
        while one is running)."""
        if self.checkpoint_every is None:
            return False
        if self._commits_since_checkpoint < self.checkpoint_every:
            return False
        if self.checkpoint_async:
            return self.checkpoint_background(db) is not None
        try:
            self.flush()
        except WALError:
            return False  # quarantined: the database is read-only now
        try:
            self.checkpoint(db)
        except Exception as exc:
            self._commits_since_checkpoint = 0
            self._checkpoint_failed(exc)
            return False
        return True

    def checkpoint(self, db) -> int:
        """Write a full-state checkpoint, rotate to a new segment and
        compact everything the checkpoint supersedes.  Returns the new
        checkpoint's index."""
        if self._closed or self._fh is None:
            raise WALError("write-ahead log is not attached")
        self._join_background_checkpoint()
        with span("wal.checkpoint") as sp:
            index = self._do_checkpoint(db)
            sp.set("index", index)
        return index

    def checkpoint_background(self, db) -> Optional[int]:
        """Checkpoint without stalling the append path.

        The parts that must see a consistent engine + log (durable
        flush, :func:`capture_state`, segment rotation) run on the
        caller's thread; the expensive parts (pickling the state,
        tmp-file write + fsync + atomic rename, compaction) run on a
        background thread.  Recovery stays safe in every interleaving:
        until the rename lands, the superseded segments are still on
        disk and replayable; compaction only ever deletes what the
        durable checkpoint covers.  At most one checkpoint is in
        flight — returns ``None`` (and leaves the commit counter
        running) when one already is, else the new index."""
        if self._closed or self._fh is None:
            raise WALError("write-ahead log is not attached")
        thread = self._ckpt_thread
        if thread is not None and thread.is_alive():
            return None
        self._flush(sync=True)
        next_index = self._segment_index + 1
        state = capture_state(db)
        self._rotate_segment(next_index)
        self._commits_since_checkpoint = 0
        thread = threading.Thread(
            target=self._background_checkpoint,
            args=(next_index, state),
            name="wal-checkpoint", daemon=True)
        self._ckpt_thread = thread
        thread.start()
        return next_index

    def _background_checkpoint(self, index: int, state: Dict) -> None:
        try:
            with span("wal.checkpoint") as sp:
                fault_point("wal.checkpoint")
                self._write_checkpoint(index, state)
                self._compact_below(index)
                sp.set("index", index)
                sp.set("mode", "background")
            self.stats.checkpoints += 1
            self.stats.checkpoints_background += 1
        except Exception as exc:
            self._checkpoint_failed(exc)

    def _checkpoint_failed(self, exc: BaseException) -> None:
        """Record a failed automatic or background checkpoint instead
        of raising it.  Nothing is lost: the segments it would have
        superseded are still on disk, and recovery replays them."""
        self.last_checkpoint_error = exc
        self.stats.checkpoint_failures += 1

    def _join_background_checkpoint(self,
                                    timeout: float = 30.0) -> None:
        thread = self._ckpt_thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=timeout)
        self._ckpt_thread = None

    def _write_checkpoint(self, index: int, state: Dict) -> None:
        """Durably publish a checkpoint file: tmp write, fsync, atomic
        rename."""
        frame = _encode_record("checkpoint", state)
        final_path = self._checkpoint_path(index)
        tmp_path = final_path + ".tmp"
        with open(tmp_path, "wb") as fh:
            fh.write(frame)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, final_path)

    def _rotate_segment(self, next_index: int) -> None:
        """Further appends land in the segment the checkpoint does not
        cover."""
        self._fh.close()
        self._segment_index = next_index
        self._fh = open(self._segment_path(next_index), "ab")
        self._dirty = False
        self._append("header", {
            "format": _FORMAT_VERSION,
            "history_id": self.history_id,
            "segment": next_index,
        })
        self._flush(sync=self.fsync != "never")

    def _compact_below(self, next_index: int) -> None:
        for index in self.segment_indexes():
            if index < next_index:
                os.unlink(self._segment_path(index))
                self.stats.segments_compacted += 1
        for index in self.checkpoint_indexes():
            if index < next_index:
                os.unlink(self._checkpoint_path(index))
                self.stats.checkpoints_compacted += 1

    def _do_checkpoint(self, db) -> int:
        # everything logged so far must be durable before the
        # checkpoint can claim to cover it
        self._flush(sync=True)
        next_index = self._segment_index + 1
        fault_point("wal.checkpoint")
        self._write_checkpoint(next_index, capture_state(db))
        self._rotate_segment(next_index)
        self._compact_below(next_index)
        self.stats.checkpoints += 1
        self._commits_since_checkpoint = 0
        return next_index

    # -- lifecycle -------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Flush, fsync and close the current segment.  Idempotent."""
        if self._closed:
            return
        self._join_background_checkpoint()
        self._closed = True
        if self._fh is not None:
            if self._buffer:
                self._fh.write(b"".join(self._buffer))
                self._fh.flush()
                self._buffer = []
                self._buffered_bytes = 0
                self._dirty = True
                self.stats.flushes += 1
            if self._dirty:
                os.fsync(self._fh.fileno())
                self._dirty = False
                self.stats.fsyncs += 1
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self._closed else f"segment={self._segment_index}"
        return f"<WriteAheadLog {self.path!r} {state}>"
