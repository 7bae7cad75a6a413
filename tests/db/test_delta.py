"""Delta extraction over versioned storage.

`VersionedTable.scan_delta` / `Database.table_delta` answer "which rows
differ between the committed snapshots at two timestamps" by slicing
the per-table commit log — the substrate of incremental snapshot
materialization in the SQLite backend.  The invariant every test here
circles: *snapshot(ts_from) patched with delta(ts_from, ts_to) equals
snapshot(ts_to)*, including the creator-xid annotation, with edge cases
(empty intervals, aborts, reverts, insert+delete churn) handled by
construction rather than special cases.
"""

import pytest

from repro import Database
from repro.errors import TimeTravelError


@pytest.fixture
def db():
    db = Database()
    db.execute("CREATE TABLE t (k INT, v INT)")
    db.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
    return db


def run_txn(db, statements, commit=True):
    session = db.connect()
    session.begin()
    for sql in statements:
        session.execute(sql)
    xid = session.txn.xid
    if commit:
        session.commit()
    else:
        session.rollback()
    return xid


def snapshot_map(db, table, ts):
    return {rowid: (values, xid)
            for rowid, values, xid in db.table_snapshot(table, ts)}


def apply_delta(snapshot, delta):
    """The patch protocol the SQLite backend implements in SQL:
    delete every delta rowid, re-insert the ones with a new state."""
    patched = dict(snapshot)
    for rowid, values, xid in delta:
        patched.pop(rowid, None)
        if values is not None:
            patched[rowid] = (values, xid)
    return patched


def assert_delta_reconstructs(db, table, ts_from, ts_to):
    before = snapshot_map(db, table, ts_from)
    after = snapshot_map(db, table, ts_to)
    delta = db.table_delta(table, ts_from, ts_to)
    assert apply_delta(before, delta) == after
    # and the estimate is a true upper bound computed without chain walks
    assert db.table_delta_estimate(table, ts_from, ts_to) >= len(delta)


# -- basic shapes ---------------------------------------------------------

def test_same_timestamp_delta_is_empty(db):
    ts = db.clock.now()
    assert db.table_delta("t", ts, ts) == []
    assert db.table_delta_estimate("t", ts, ts) == 0


def test_insert_update_delete_delta(db):
    ts0 = db.clock.now()
    xid = run_txn(db, [
        "UPDATE t SET v = 99 WHERE k = 1",
        "DELETE FROM t WHERE k = 2",
        "INSERT INTO t VALUES (4, 40)",
    ])
    ts1 = db.clock.now()
    delta = db.table_delta("t", ts0, ts1)
    by_rowid = {rowid: (values, delta_xid)
                for rowid, values, delta_xid in delta}
    assert by_rowid[1] == ((1, 99), xid)       # update: new values
    assert by_rowid[2] == (None, None)         # delete: absent at ts_to
    assert set(by_rowid) == {1, 2, 4}
    assert by_rowid[4] == ((4, 40), xid)       # insert
    assert_delta_reconstructs(db, "t", ts0, ts1)


def test_delta_is_directional(db):
    ts0 = db.clock.now()
    run_txn(db, ["DELETE FROM t WHERE k = 3", "INSERT INTO t VALUES (5, 50)"])
    ts1 = db.clock.now()
    forward = {rowid: values for rowid, values, _
               in db.table_delta("t", ts0, ts1)}
    backward = {rowid: values for rowid, values, _
                in db.table_delta("t", ts1, ts0)}
    assert forward[3] is None and forward[4] == (5, 50)
    # reversed: the delete reappears, the insert vanishes
    assert backward[3] == (3, 30) and backward[4] is None
    assert_delta_reconstructs(db, "t", ts1, ts0)


# -- edge cases -----------------------------------------------------------

def test_abort_only_interval_is_empty(db):
    ts0 = db.clock.now()
    run_txn(db, ["UPDATE t SET v = 0", "DELETE FROM t"], commit=False)
    ts1 = db.clock.now()
    assert db.table_delta("t", ts0, ts1) == []
    assert db.table_delta_estimate("t", ts0, ts1) == 0


def test_revert_to_original_values_is_still_a_delta(db):
    """Two updates that net out to the original *values* still change
    the creating transaction — the row must be reported (reenactment
    annotations carry ``__xid__``)."""
    ts0 = db.clock.now()
    run_txn(db, ["UPDATE t SET v = 99 WHERE k = 1"])
    reverter = run_txn(db, ["UPDATE t SET v = 10 WHERE k = 1"])
    ts1 = db.clock.now()
    delta = db.table_delta("t", ts0, ts1)
    assert len(delta) == 1
    rowid, values, xid = delta[0]
    assert values == (1, 10)      # back to the original values
    assert xid == reverter        # ...but created by the reverting txn
    assert_delta_reconstructs(db, "t", ts0, ts1)


def test_insert_then_delete_inside_interval_nets_nothing(db):
    ts0 = db.clock.now()
    run_txn(db, ["INSERT INTO t VALUES (9, 90)"])
    run_txn(db, ["DELETE FROM t WHERE k = 9"])
    ts1 = db.clock.now()
    assert db.table_delta("t", ts0, ts1) == []
    # the estimate still counts both commits — it is an upper bound
    assert db.table_delta_estimate("t", ts0, ts1) == 2
    assert_delta_reconstructs(db, "t", ts0, ts1)


def test_interval_straddling_only_part_of_history(db):
    """Timestamps inside the history slice correctly: only commits in
    the interval contribute."""
    run_txn(db, ["UPDATE t SET v = 11 WHERE k = 1"])
    ts_mid = db.clock.now()
    run_txn(db, ["UPDATE t SET v = 12 WHERE k = 1",
                 "UPDATE t SET v = 21 WHERE k = 2"])
    ts_end = db.clock.now()
    delta = db.table_delta("t", ts_mid, ts_end)
    assert {rowid for rowid, _, _ in delta} == {1, 2}
    assert_delta_reconstructs(db, "t", ts_mid, ts_end)


def test_multi_hop_deltas_compose(db):
    """Patching hop by hop over a chain of commits reproduces every
    intermediate snapshot — the timeline-scan access pattern."""
    timestamps = [db.clock.now()]
    for k in range(5):
        run_txn(db, [f"UPDATE t SET v = v + {k + 1} WHERE k = 1",
                     f"INSERT INTO t VALUES ({10 + k}, {k})"])
        timestamps.append(db.clock.now())
    state = snapshot_map(db, "t", timestamps[0])
    for ts_from, ts_to in zip(timestamps, timestamps[1:]):
        state = apply_delta(state,
                            db.table_delta("t", ts_from, ts_to))
        assert state == snapshot_map(db, "t", ts_to)


def test_hops_across_a_history_off_stretch(db):
    """A commit published with history off leaves no commit-log entry:
    every hop reaching below it still reconstructs its end state, in
    both directions, and its estimate is the whole table — never an
    affordable 0."""
    timestamps = [db.clock.now()]
    run_txn(db, ["UPDATE t SET v = 11 WHERE k = 1"])
    timestamps.append(db.clock.now())
    db.config.timetravel_enabled = False
    run_txn(db, ["INSERT INTO t VALUES (4, 40)",
                 "DELETE FROM t WHERE k = 3"])
    db.config.timetravel_enabled = True
    run_txn(db, ["UPDATE t SET v = 41 WHERE k = 4"])
    timestamps += [db.clock.now() - 1, db.clock.now()]
    for ts_from in timestamps:
        for ts_to in timestamps:
            assert_delta_reconstructs(db, "t", ts_from, ts_to)
    assert db.table_delta_estimate("t", timestamps[1], timestamps[2]) \
        == db.table_cardinality("t")
    state = snapshot_map(db, "t", timestamps[0])
    for ts_to, hop in zip(timestamps[1:],
                          db.table_delta_chain("t", timestamps)):
        state = apply_delta(state, hop)
        assert state == snapshot_map(db, "t", ts_to)


def test_timetravel_disabled_raises(db):
    db.config.timetravel_enabled = False
    with pytest.raises(TimeTravelError):
        db.table_delta("t", 1, 2)


def test_cardinality_upper_bounds_snapshots(db):
    run_txn(db, ["DELETE FROM t WHERE k = 1"])
    ts = db.clock.now()
    assert db.table_cardinality("t") >= \
        len(db.table_snapshot("t", ts))


# -- write sets off the commit log ------------------------------------------

def commit_ts(db, xid):
    return db.audit_log.transaction_record(xid).commit_ts


def test_rows_written_by_reads_the_commit_log(db):
    """Updated and deleted stored rows are the transaction's write set;
    rows it inserted — even ones it then updated or deleted — are not
    (reenactment gives those synthetic ids)."""
    xid = run_txn(db, ["UPDATE t SET v = v WHERE k = 1",
                       "DELETE FROM t WHERE k = 3",
                       "INSERT INTO t VALUES (4, 40), (5, 50)",
                       "UPDATE t SET v = 0 WHERE k = 4",
                       "DELETE FROM t WHERE k = 5"])
    later = run_txn(db, ["UPDATE t SET v = 1 WHERE k = 2"])
    assert db.rows_written_by(xid, commit_ts(db, xid)) == {"t": {1, 3}}
    assert db.rows_written_by(later, commit_ts(db, later)) == {"t": {2}}


def test_insert_only_and_aborted_writes_are_not_in_storage(db):
    inserter = run_txn(db, ["INSERT INTO t VALUES (4, 40)"])
    assert db.rows_written_by(inserter, commit_ts(db, inserter)) == {}
    run_txn(db, ["UPDATE t SET v = 0"], commit=False)
    # the abort left no commit-log entry for any later read to find
    assert db.table("t").rows_published_by(inserter,
                                           commit_ts(db, inserter)) == set()


def test_rows_written_by_refuses_what_the_log_cannot_answer(db):
    """A commit published without history has no log entries: the
    read raises rather than answering "wrote nothing"."""
    db.config.timetravel_enabled = False
    unlogged = run_txn(db, ["UPDATE t SET v = 0 WHERE k = 1"])
    with pytest.raises(TimeTravelError):
        db.rows_written_by(unlogged, commit_ts(db, unlogged))
    db.config.timetravel_enabled = True
    with pytest.raises(TimeTravelError, match="predates the commit log"):
        db.rows_written_by(unlogged, commit_ts(db, unlogged))
    logged = run_txn(db, ["UPDATE t SET v = 0 WHERE k = 2"])
    assert db.rows_written_by(logged, commit_ts(db, logged)) == {"t": {2}}


@pytest.mark.parametrize("older_checkpoint", [False, True],
                         ids=["unlogged_ts_kept", "no_unlogged_ts_key"])
def test_a_checkpoint_round_trip_with_history_off_still_refuses(
        db, older_checkpoint):
    """Two logged updates, then history off: a later update prunes row
    1's chain and a delete reclaims row 2's.  A checkpoint carries
    ``_unlogged_ts``, so the restored table refuses both logged write
    sets as the live one does.  A checkpoint without it (as builds that
    did not store it wrote one) is refused by the pruned and reclaimed
    chains themselves — never read as "wrote nothing"."""
    from repro.db.wal import capture_state, restore_state

    updated = run_txn(db, ["UPDATE t SET v = 0 WHERE k = 1"])
    deleted = run_txn(db, ["UPDATE t SET v = 0 WHERE k = 2"])
    db.config.timetravel_enabled = False
    run_txn(db, ["UPDATE t SET v = 1 WHERE k = 1",
                 "DELETE FROM t WHERE k = 2"])
    assert 2 not in db.table("t").rows  # reclaimed
    state = capture_state(db)
    (table_state,) = [t["state"] for t in state["tables"]]
    assert table_state["unlogged_ts"] == db.table("t")._unlogged_ts
    if older_checkpoint:
        del table_state["unlogged_ts"]
    restored = Database()
    restore_state(restored, state)
    restored.config.timetravel_enabled = True
    match = ("history pruned after logging" if older_checkpoint
             else "predates the commit log")
    for xid in (updated, deleted):
        with pytest.raises(TimeTravelError, match=match):
            restored.rows_written_by(xid, commit_ts(restored, xid))
