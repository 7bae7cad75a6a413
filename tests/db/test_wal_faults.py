"""WAL under injected faults: retry absorption, quarantine-to-read-only
degradation and background checkpointing.

The mechanism (format, recovery, torn tails) is covered by
``test_wal.py``; this file exercises the hardened append path —
transient failures absorbed by the retry budget, persistent failures
quarantining the log and flipping the database to explicit read-only
while the recorded prefix stays recoverable — plus the asynchronous
checkpoint mode.
"""

import time

import pytest

from repro import Database
from repro.errors import ReadOnlyHistoryError, WALError
from repro.faults import FaultPlan, armed, disarm


def teardown_function(_fn):
    disarm()


def wal_db(path, **wal_options):
    db = Database()
    db.attach_wal(str(path), **wal_options)
    return db


def row_values(db, table="acct", ts=None):
    ts = db.clock.now() if ts is None else ts
    return sorted(values for _, values, _ in
                  db.table_snapshot(table, ts))


def seed(db):
    db.execute("CREATE TABLE acct (id INT, bal INT)")
    db.execute("INSERT INTO acct VALUES (1, 100), (2, 200)")


# -- transient faults absorbed by the retry budget -------------------------

class TestRetryAbsorption:
    def test_transient_append_faults_are_invisible(self, tmp_path):
        db = wal_db(tmp_path / "wal")
        with armed(FaultPlan(seed=1).on("wal.append", count=2)):
            seed(db)
            db.execute("UPDATE acct SET bal = 150 WHERE id = 1")
        assert db.wal.stats.appends_retried == 2
        assert not db.wal.quarantined
        assert not db.read_only
        db.wal.close()
        rec = Database.open(str(tmp_path / "wal"))
        assert row_values(rec) == row_values(db)
        rec.wal.close()

    def test_transient_fsync_faults_are_invisible(self, tmp_path):
        db = wal_db(tmp_path / "wal", fsync="always")
        with armed(FaultPlan(seed=1).on("wal.fsync", count=1)):
            seed(db)
        assert db.wal.stats.fsyncs_retried == 1
        assert not db.wal.quarantined
        db.wal.close()

    def test_probabilistic_transients_never_corrupt(self, tmp_path):
        db = wal_db(tmp_path / "wal", fsync="always")
        plan = FaultPlan(seed=7).on("wal.append", probability=0.2,
                                    count=8) \
                                .on("wal.fsync", probability=0.2,
                                    count=8)
        with armed(plan):
            seed(db)
            for k in range(6):
                db.execute(f"UPDATE acct SET bal = bal + {k} "
                           f"WHERE id = 2")
        assert not db.wal.quarantined
        db.wal.close()
        rec = Database.open(str(tmp_path / "wal"))
        assert row_values(rec) == row_values(db)
        rec.wal.close()


# -- persistent faults: quarantine + read-only -----------------------------

class TestQuarantine:
    def test_exhausted_append_quarantines_and_flips_read_only(
            self, tmp_path):
        db = wal_db(tmp_path / "wal")
        seed(db)
        before = row_values(db)
        with armed(FaultPlan(seed=1).on("wal.append")):
            with pytest.raises(WALError, match="quarantined"):
                db.execute("UPDATE acct SET bal = 0 WHERE id = 1")
        assert db.wal.quarantined
        assert db.wal.quarantine_reason is not None
        assert db.wal.stats.quarantines == 1
        assert db.read_only
        assert "WAL append failure" in db.read_only_reason
        # the recorded history is untouched and still queryable
        assert row_values(db) == before

    def test_quarantined_database_refuses_writes_with_typed_error(
            self, tmp_path):
        db = wal_db(tmp_path / "wal")
        seed(db)
        with armed(FaultPlan(seed=1).on("wal.append")):
            with pytest.raises(WALError):
                db.execute("UPDATE acct SET bal = 0 WHERE id = 1")
        # faults disarmed — but the quarantine is sticky
        with pytest.raises(ReadOnlyHistoryError, match="read-only"):
            db.execute("INSERT INTO acct VALUES (3, 300)")
        with pytest.raises(ReadOnlyHistoryError):
            db.execute("CREATE TABLE other (x INT)")
        with pytest.raises(ReadOnlyHistoryError):
            db.execute("DROP TABLE acct")
        assert db.wal.stats.quarantines == 1  # not double-counted

    def test_recovery_after_quarantine_reaches_prefix_state(
            self, tmp_path):
        db = wal_db(tmp_path / "wal")
        seed(db)
        db.execute("UPDATE acct SET bal = 150 WHERE id = 1")
        prefix = row_values(db)
        with armed(FaultPlan(seed=1).on("wal.append")):
            with pytest.raises(WALError):
                db.execute("UPDATE acct SET bal = 0 WHERE id = 1")
        db.wal.close()
        rec = Database.open(str(tmp_path / "wal"))
        assert row_values(rec) == prefix
        assert not rec.read_only  # a fresh attach starts clean
        rec.execute("UPDATE acct SET bal = 1 WHERE id = 2")
        rec.wal.close()

    def test_open_transaction_can_still_roll_back(self, tmp_path):
        db = wal_db(tmp_path / "wal")
        seed(db)
        session = db.connect(user="analyst")
        session.begin()
        session.execute("UPDATE acct SET bal = 999 WHERE id = 1")
        with armed(FaultPlan(seed=1).on("wal.append")):
            with pytest.raises(WALError):
                session.execute("UPDATE acct SET bal = 0 WHERE id = 2")
            # the abort path swallows WAL errors: rollback must always
            # succeed, even against a quarantined log
            session.rollback()
        assert row_values(db) == [(1, 100), (2, 200)]

    def test_quarantined_flush_raises_typed_error(self, tmp_path):
        db = wal_db(tmp_path / "wal")
        seed(db)
        with armed(FaultPlan(seed=1).on("wal.append")):
            with pytest.raises(WALError):
                db.execute("UPDATE acct SET bal = 0 WHERE id = 1")
        with pytest.raises(WALError, match="quarantined"):
            db.wal.log_create_table(
                db.catalog.get("acct"))


# -- background checkpointing ----------------------------------------------

class TestBackgroundCheckpoint:
    def _wait_for(self, predicate, timeout=5.0):
        deadline = time.monotonic() + timeout
        while not predicate():
            assert time.monotonic() < deadline, \
                "background checkpoint never finished"
            time.sleep(0.01)

    def test_background_checkpoint_compacts_and_recovers(
            self, tmp_path):
        db = wal_db(tmp_path / "wal", checkpoint_async=True)
        seed(db)
        db.execute("UPDATE acct SET bal = 150 WHERE id = 1")
        index = db.wal.checkpoint_background(db)
        assert index is not None
        self._wait_for(
            lambda: db.wal.stats.checkpoints_background == 1)
        assert db.wal.stats.checkpoints == 1
        assert db.wal.checkpoint_indexes() == [index]
        assert db.wal.segment_indexes() == [index]
        # appends continue in the rotated segment while/after the
        # checkpoint publishes
        db.execute("UPDATE acct SET bal = 175 WHERE id = 1")
        db.wal.close()
        rec = Database.open(str(tmp_path / "wal"))
        assert row_values(rec) == row_values(db)
        rec.wal.close()

    def test_auto_checkpoint_async_mode(self, tmp_path):
        db = wal_db(tmp_path / "wal", checkpoint_every=2,
                    checkpoint_async=True)
        seed(db)
        for k in range(4):
            db.execute(f"UPDATE acct SET bal = bal + {k} "
                       f"WHERE id = 1")
        self._wait_for(
            lambda: db.wal.stats.checkpoints_background >= 1)
        db.wal.close()
        rec = Database.open(str(tmp_path / "wal"))
        assert row_values(rec) == row_values(db)
        rec.wal.close()

    def test_failed_background_checkpoint_loses_nothing(
            self, tmp_path):
        db = wal_db(tmp_path / "wal", checkpoint_async=True)
        seed(db)
        with armed(FaultPlan(seed=1).on("wal.checkpoint")):
            index = db.wal.checkpoint_background(db)
            assert index is not None
            self._wait_for(
                lambda: db.wal.stats.checkpoint_failures == 1)
        assert db.wal.last_checkpoint_error is not None
        assert db.wal.stats.checkpoints_background == 0
        # nothing was compacted: the full history is still replayable
        db.execute("UPDATE acct SET bal = 1 WHERE id = 2")
        db.wal.close()
        rec = Database.open(str(tmp_path / "wal"))
        assert row_values(rec) == row_values(db)
        rec.wal.close()

    def test_failed_sync_checkpoint_raises_and_recovers(
            self, tmp_path):
        db = wal_db(tmp_path / "wal")
        seed(db)
        from repro.faults import TransientInjectedFault
        with armed(FaultPlan(seed=1).on("wal.checkpoint", count=1)):
            with pytest.raises(TransientInjectedFault):
                db.wal.checkpoint(db)
        # the log is not quarantined by a checkpoint failure — appends
        # and a later checkpoint still work
        assert not db.wal.quarantined
        db.execute("UPDATE acct SET bal = 1 WHERE id = 2")
        db.wal.checkpoint(db)
        db.wal.close()
        rec = Database.open(str(tmp_path / "wal"))
        assert row_values(rec) == row_values(db)
        rec.wal.close()

    def test_failed_auto_checkpoint_never_fails_its_commit(
            self, tmp_path):
        """The commit that triggers an automatic checkpoint is already
        logged and applied: a failed checkpoint must not raise out of
        it (a client retrying the error would apply it twice), and the
        next attempt waits another ``checkpoint_every`` commits."""
        path = str(tmp_path / "wal")
        db = Database.open(path, fsync="commit", checkpoint_every=2)
        db.execute("CREATE TABLE acct (id INT, bal INT)")
        session = db.connect()
        stamps = []
        for key in (1, 2, 3):
            session.begin()
            session.execute(f"INSERT INTO acct VALUES ({key}, 0)")
            with armed(FaultPlan(seed=1).on("wal.checkpoint")):
                stamps.append(session.commit())
        assert all(isinstance(ts, int) for ts in stamps)
        assert db.wal.stats.checkpoint_failures == 1
        assert db.wal.stats.checkpoints == 0
        assert db.wal.last_checkpoint_error is not None
        assert not db.wal.quarantined
        db.wal.close()
        rec = Database.open(path)
        assert row_values(rec) == [(1, 0), (2, 0), (3, 0)]
        rec.wal.close()

    def test_only_one_background_checkpoint_in_flight(self, tmp_path):
        db = wal_db(tmp_path / "wal", checkpoint_async=True)
        seed(db)
        with armed(FaultPlan(seed=1).on("wal.checkpoint", count=1,
                                        latency=0.3, error=None)):
            first = db.wal.checkpoint_background(db)
            assert first is not None
            # while the first is sleeping in the fault, a second is
            # refused
            assert db.wal.checkpoint_background(db) is None
        self._wait_for(
            lambda: db.wal.stats.checkpoints_background == 1)
        db.wal.close()
