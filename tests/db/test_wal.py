"""Write-ahead log: append, recovery, torn tails, checkpoints.

The crash/recover *differential* sweep (every truncation point of
seeded concurrent histories, reenacted and compared) lives in
``tests/backends/test_differential.py``; this file unit-tests the WAL
mechanism itself — format, policies, recovery edge cases, checkpoint
rotation and compaction.
"""

import json
import os
import pickle
import shutil

import pytest

from repro import Database, WriteAheadLog
from repro.db.engine import DatabaseConfig
from repro.db.wal import capture_state, record_offsets
from repro.errors import WALError


def seed_history(db):
    """A small history with DDL, inserts, updates, a delete and an
    aborted transaction."""
    db.execute("CREATE TABLE acct (id INT, bal INT)")
    db.execute("INSERT INTO acct VALUES (1, 100), (2, 200), (3, 300)")
    s = db.connect(user="teller")
    s.begin()
    s.execute("UPDATE acct SET bal = bal - 40 WHERE id = 1")
    s.execute("UPDATE acct SET bal = bal + 40 WHERE id = 2")
    s.commit()
    r = db.connect(user="rollback")
    r.begin()
    r.execute("UPDATE acct SET bal = 0 WHERE id = 3")
    r.rollback()
    db.execute("DELETE FROM acct WHERE id = 3")


def snapshot(db, table="acct"):
    """Full (rowid, values, creator_xid) triples at the current time."""
    return sorted(db.table_snapshot(table, db.clock.now()))


def row_values(db, table="acct", ts=None):
    ts = db.clock.now() if ts is None else ts
    return sorted(values for _, values, _ in db.table_snapshot(table, ts))


def audit_tuples(db):
    return [(e.kind.value, e.xid, e.ts, e.user, e.stmt_index, e.sql)
            for e in db.audit_log.entries]


def wal_db(path, **wal_options):
    db = Database()
    db.attach_wal(str(path), **wal_options)
    return db


class TestRoundtrip:
    def test_recovered_state_matches_live(self, tmp_path):
        db = wal_db(tmp_path / "wal")
        seed_history(db)
        db.wal.close()

        rec = Database.open(str(tmp_path / "wal"))
        assert rec.last_recovery.recovered
        assert rec.history_id == db.history_id
        assert rec.clock.now() == db.clock.now()
        assert rec.mvcc._next_xid == db.mvcc._next_xid
        assert audit_tuples(rec) == audit_tuples(db)
        assert snapshot(rec) == snapshot(db)
        rec.wal.close()

    def test_aborted_work_is_not_recovered(self, tmp_path):
        db = wal_db(tmp_path / "wal")
        seed_history(db)
        db.wal.close()
        rec = Database.open(str(tmp_path / "wal"))
        # the rolled-back UPDATE (bal = 0) must not resurface
        assert (3, 0) not in row_values(rec)
        rec.wal.close()

    def test_uncommitted_work_at_crash_is_discarded(self, tmp_path):
        db = wal_db(tmp_path / "wal")
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1)")
        s = db.connect(user="inflight")
        s.begin()
        s.execute("INSERT INTO t VALUES (2)")
        db.wal.flush()  # crash before commit
        rec = Database.open(str(tmp_path / "wal"))
        assert row_values(rec, "t") == [(1,)]
        # the in-flight BEGIN/STATEMENT are on the recovered timeline
        # as an active transaction, without physical effects
        record = rec.audit_log.transaction_record(s.txn.xid)
        assert not record.committed and not record.aborted
        rec.wal.close()

    def test_writes_continue_after_recovery(self, tmp_path):
        db = wal_db(tmp_path / "wal")
        seed_history(db)
        live_xid = db.mvcc._next_xid
        db.wal.close()
        rec = Database.open(str(tmp_path / "wal"))
        s = rec.connect(user="resumed")
        s.begin()
        s.execute("UPDATE acct SET bal = bal + 1 WHERE id = 1")
        xid = s.txn.xid
        s.commit()
        assert xid >= live_xid  # no xid reuse across the crash
        rec.wal.close()
        # the continuation itself is durable: recover again
        rec2 = Database.open(str(tmp_path / "wal"))
        assert snapshot(rec2) == snapshot(rec)
        assert rec2.audit_log.transaction_record(xid).committed
        rec2.wal.close()

    def test_drop_table_is_replayed(self, tmp_path):
        db = wal_db(tmp_path / "wal")
        db.execute("CREATE TABLE keep (a INT)")
        db.execute("CREATE TABLE gone (a INT)")
        db.execute("INSERT INTO keep VALUES (1)")
        db.execute("DROP TABLE gone")
        db.wal.close()
        rec = Database.open(str(tmp_path / "wal"))
        assert rec.catalog.has("keep") and not rec.catalog.has("gone")
        rec.wal.close()

    def test_every_record_prefix_is_consistent(self, tmp_path):
        """Each boundary prefix recovers without error and commits a
        monotonically growing subset of the full history."""
        db = wal_db(tmp_path / "wal", fsync="never")
        seed_history(db)
        db.wal.flush()
        db.wal.close()
        (segment,) = sorted((tmp_path / "wal").glob("segment-*.log"))
        raw = segment.read_bytes()
        offsets = record_offsets(str(segment))
        assert offsets[-1] == len(raw)
        previous = -1
        for cut in offsets:
            crash = tmp_path / "crash"
            crash.mkdir(exist_ok=True)
            (crash / segment.name).write_bytes(raw[:cut])
            rec = Database.open(str(crash))
            n_committed = sum(
                1 for xid in rec.audit_log.transaction_ids()
                if rec.audit_log.transaction_record(xid).committed)
            assert n_committed >= previous
            previous = n_committed
            rec.wal.close()
            (crash / segment.name).unlink()


class TestTornTail:
    def test_torn_final_record_is_truncated(self, tmp_path):
        db = wal_db(tmp_path / "wal", fsync="never")
        seed_history(db)
        db.wal.flush()
        db.wal.close()
        (segment,) = sorted((tmp_path / "wal").glob("segment-*.log"))
        offsets = record_offsets(str(segment))
        full_size = segment.stat().st_size
        os.truncate(segment, full_size - 3)  # tear the last record

        rec = Database.open(str(tmp_path / "wal"))
        report = rec.last_recovery
        assert report.torn_bytes_dropped == (full_size - 3) - offsets[-2]
        # the file itself was repaired back to the last whole record
        assert segment.stat().st_size == offsets[-2]
        rec.wal.close()

    def test_recovery_after_torn_tail_reaches_prefix_state(self,
                                                           tmp_path):
        db = wal_db(tmp_path / "wal", fsync="never")
        db.execute("CREATE TABLE t (a INT)")
        for i in range(5):
            db.execute(f"INSERT INTO t VALUES ({i})")
        db.wal.flush()
        db.wal.close()
        (segment,) = sorted((tmp_path / "wal").glob("segment-*.log"))
        os.truncate(segment, segment.stat().st_size - 1)
        rec = Database.open(str(tmp_path / "wal"))
        # the torn record was the last INSERT's commit
        assert row_values(rec, "t") == [(i,) for i in range(4)]
        rec.wal.close()

    def test_corrupt_interior_segment_raises(self, tmp_path):
        db = wal_db(tmp_path / "wal", checkpoint_every=2)
        seed_history(db)  # rotates segments via auto checkpoints
        db.wal.close()
        segments = sorted((tmp_path / "wal").glob("segment-*.log"))
        checkpoints = sorted(
            (tmp_path / "wal").glob("checkpoint-*.bin"))
        # compaction leaves exactly one (segment, checkpoint) pair; to
        # get a *non-final* segment, forge a later empty-ish one
        assert len(segments) == 1
        index = int(segments[0].name[len("segment-"):-len(".log")])
        raw = segments[0].read_bytes()
        os.truncate(segments[0], len(raw) - 1)  # now mid-log corruption
        later = (tmp_path / "wal" /
                 f"segment-{index + 1:08d}.log")
        later.write_bytes(b"")
        # drop the checkpoint so replay must read the corrupt segment
        for cp in checkpoints:
            cp.unlink()
        with pytest.raises(WALError, match="non-final"):
            Database.open(str(tmp_path / "wal"))


class TestAttachErrors:
    def test_bad_fsync_policy(self, tmp_path):
        with pytest.raises(WALError, match="fsync policy"):
            WriteAheadLog(str(tmp_path / "wal"), fsync="sometimes")

    def test_bad_batch_bytes_and_checkpoint_every(self, tmp_path):
        with pytest.raises(WALError, match="batch_bytes"):
            WriteAheadLog(str(tmp_path / "wal"), batch_bytes=0)
        with pytest.raises(WALError, match="checkpoint_every"):
            WriteAheadLog(str(tmp_path / "wal"), checkpoint_every=0)

    def test_replay_into_nonempty_database_raises(self, tmp_path):
        db = wal_db(tmp_path / "wal")
        seed_history(db)
        db.wal.close()
        populated = Database()
        populated.execute("CREATE TABLE other (a INT)")
        with pytest.raises(WALError, match="non-empty"):
            populated.attach_wal(str(tmp_path / "wal"))

    def test_double_attach_raises(self, tmp_path):
        db = wal_db(tmp_path / "wal")
        with pytest.raises(WALError, match="already"):
            db.attach_wal(str(tmp_path / "wal2"))
        db.wal.close()

    def test_timetravel_disabled_raises(self, tmp_path):
        db = Database(DatabaseConfig(timetravel_enabled=False))
        with pytest.raises(WALError, match="timetravel_enabled"):
            db.attach_wal(str(tmp_path / "wal"))

    def test_closed_wal_refuses_appends(self, tmp_path):
        db = wal_db(tmp_path / "wal")
        db.wal.close()
        with pytest.raises(WALError, match="closed"):
            db.execute("CREATE TABLE t (a INT)")


class TestFsyncPolicies:
    def test_always_fsyncs_per_record(self, tmp_path):
        db = wal_db(tmp_path / "wal", fsync="always")
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1)")
        stats = db.wal.stats
        assert stats.fsyncs >= stats.records_appended
        db.wal.close()

    def test_commit_fsyncs_on_boundaries_only(self, tmp_path):
        db = wal_db(tmp_path / "wal", fsync="commit")
        before = db.wal.stats.fsyncs
        s = db.connect(user="u")
        db.execute("CREATE TABLE t (a INT)")  # DDL: one boundary
        s.begin()
        s.execute("INSERT INTO t VALUES (1)")  # begin+stmt: buffered
        mid = db.wal.stats.fsyncs
        s.commit()  # commit: second boundary
        assert db.wal.stats.fsyncs == before + 2
        assert mid == before + 1
        db.wal.close()

    def test_never_fsyncs_only_on_close(self, tmp_path):
        db = wal_db(tmp_path / "wal", fsync="never")
        seed_history(db)
        db.wal.flush(sync=False)
        assert db.wal.stats.fsyncs == 0
        db.wal.close()
        assert db.wal.stats.fsyncs == 1

    def test_batch_flushes_when_buffer_fills(self, tmp_path):
        db = wal_db(tmp_path / "wal", fsync="batch", batch_bytes=256)
        seed_history(db)
        stats = db.wal.stats
        assert stats.flushes > 0
        assert stats.fsyncs > 0
        # batching means strictly fewer syncs than records
        assert stats.fsyncs < stats.records_appended
        db.wal.close()


class TestCheckpoints:
    def test_manual_checkpoint_compacts_and_recovers(self, tmp_path):
        db = wal_db(tmp_path / "wal")
        seed_history(db)
        index = db.wal.checkpoint(db)
        assert db.wal.segment_indexes() == [index]
        assert db.wal.checkpoint_indexes() == [index]
        db.execute("INSERT INTO acct VALUES (9, 900)")
        db.wal.close()

        rec = Database.open(str(tmp_path / "wal"))
        assert rec.last_recovery.checkpoint_index == index
        # only the post-checkpoint tail was replayed
        assert rec.last_recovery.commits_replayed == 1
        assert snapshot(rec) == snapshot(db)
        assert audit_tuples(rec) == audit_tuples(db)
        assert rec.clock.now() == db.clock.now()
        rec.wal.close()

    def test_auto_checkpoint_every_n_commits(self, tmp_path):
        db = wal_db(tmp_path / "wal", checkpoint_every=3)
        db.execute("CREATE TABLE t (a INT)")
        for i in range(7):
            db.execute(f"INSERT INTO t VALUES ({i})")
        stats = db.wal.stats
        assert stats.checkpoints >= 2
        assert stats.segments_compacted >= 2
        db.wal.close()
        rec = Database.open(str(tmp_path / "wal"))
        assert row_values(rec, "t") == [(i,) for i in range(7)]
        rec.wal.close()

    def test_time_travel_survives_checkpoint(self, tmp_path):
        """A checkpoint preserves *history*, not just the final state:
        AS-OF reads behind the checkpoint still answer."""
        db = wal_db(tmp_path / "wal")
        db.execute("CREATE TABLE t (a INT, b INT)")
        db.execute("INSERT INTO t VALUES (1, 10)")
        ts_before = db.clock.now()
        db.execute("UPDATE t SET b = 20 WHERE a = 1")
        db.wal.checkpoint(db)
        db.wal.close()
        rec = Database.open(str(tmp_path / "wal"))
        assert row_values(rec, "t", ts=ts_before) == [(1, 10)]
        assert row_values(rec, "t") == [(1, 20)]
        rec.wal.close()

    def test_corrupt_newest_checkpoint_falls_back(self, tmp_path):
        db = wal_db(tmp_path / "wal")
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1)")
        first = db.wal.checkpoint(db)
        db.execute("INSERT INTO t VALUES (2)")
        second = db.wal.checkpoint(db)
        db.execute("INSERT INTO t VALUES (3)")
        db.wal.close()
        # compaction removed everything before `second`; re-create the
        # crash window where the new checkpoint's rename tore
        assert db.wal.checkpoint_indexes() == [second]
        cp = (tmp_path / "wal" /
              f"checkpoint-{second:08d}.bin")
        cp.write_bytes(cp.read_bytes()[:10])
        with pytest.raises(WALError):
            Database.open(str(tmp_path / "wal"))
        assert first < second  # (sanity: indexes are monotonic)

    def test_bootstrap_checkpoint_for_existing_database(self, tmp_path):
        """Attaching a fresh WAL to an already-populated database
        writes an initial checkpoint so the log is self-contained."""
        db = Database()
        seed_history(db)
        db.attach_wal(str(tmp_path / "wal"))
        assert db.wal.checkpoint_indexes()  # bootstrap happened
        db.execute("INSERT INTO acct VALUES (7, 700)")
        db.wal.close()
        rec = Database.open(str(tmp_path / "wal"))
        assert rec.history_id == db.history_id
        assert snapshot(rec) == snapshot(db)
        assert audit_tuples(rec) == audit_tuples(db)
        rec.wal.close()


class TestFormatStability:
    FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                           "wal_pr14")

    def test_checkpoint_written_before_the_live_map_opens_identically(
            self, tmp_path):
        """``fixtures/wal_pr14/wal`` (a checkpoint plus a tail segment)
        and the two ``expected_*`` files beside it were written by
        commit 4cc6a4b, before tables kept a live-state map.  The map
        is derived state — rebuilt on recovery, never stored — so the
        old files must read exactly as that commit read them, and a
        checkpoint taken now must carry exactly what one carried
        then."""
        wal_dir = tmp_path / "wal"
        shutil.copytree(os.path.join(self.FIXTURE, "wal"), wal_dir)
        with open(os.path.join(self.FIXTURE,
                               "expected_snapshots.json")) as fh:
            expected = json.load(fh)
        with open(os.path.join(self.FIXTURE,
                               "expected_tables.pickle"), "rb") as fh:
            expected_tables = pickle.load(fh)

        rec = Database.open(str(wal_dir))
        try:
            assert rec.last_recovery.checkpoint_index == 1
            assert rec.last_recovery.commits_replayed > 0
            assert rec.clock.now() == expected["clock"]
            for name, by_ts in expected["snapshots"].items():
                for ts, rows in by_ts.items():
                    got = [[rowid, list(values), xid] for rowid, values,
                           xid in rec.table_snapshot(name, int(ts))]
                    assert got == rows, (name, ts)
            assert capture_state(rec)["tables"] == expected_tables
        finally:
            rec.wal.close()
