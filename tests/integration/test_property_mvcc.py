"""Property-based MVCC invariants, checked against a reference model."""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro import Database, DatabaseConfig
from repro.db.table import ROLLBACK_MAX_SHARE
from repro.errors import TransactionError


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10**6),
       n_steps=st.integers(min_value=3, max_value=25))
def test_si_reads_are_repeatable(seed, n_steps):
    """Within an SI transaction, a table read returns the same rows no
    matter how many concurrent transactions commit in between."""
    import random
    rng = random.Random(seed)
    db = Database()
    db.execute("CREATE TABLE t (k INT, v INT)")
    db.execute("INSERT INTO t VALUES (1,1), (2,2), (3,3)")
    reader = db.connect()
    reader.begin("SERIALIZABLE")
    first = sorted(reader.execute("SELECT * FROM t").rows)
    for _ in range(n_steps):
        action = rng.choice(["update", "insert", "delete"])
        if action == "update":
            db.execute(f"UPDATE t SET v = v + 1 "
                       f"WHERE k = {rng.randint(1, 3)}")
        elif action == "insert":
            db.execute(f"INSERT INTO t VALUES ({rng.randint(10, 99)}, 0)")
        else:
            db.execute(f"DELETE FROM t WHERE k = {rng.randint(10, 99)}")
        assert sorted(reader.execute("SELECT * FROM t").rows) == first
    reader.commit()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_time_travel_reconstructs_every_committed_state(seed):
    """Record the table state after every commit; later, AS OF each
    commit timestamp must reproduce exactly the recorded state."""
    import random
    rng = random.Random(seed)
    db = Database()
    db.execute("CREATE TABLE t (k INT, v INT)")
    states = []
    for step in range(10):
        action = rng.choice(["insert", "update", "delete"])
        if action == "insert" or step == 0:
            db.execute(f"INSERT INTO t VALUES ({step}, {step * 10})")
        elif action == "update":
            db.execute(f"UPDATE t SET v = v + 1 WHERE k <= {step}")
        else:
            db.execute(f"DELETE FROM t WHERE k = {rng.randint(0, step)}")
        ts = db.clock.now()
        rows = sorted(db.execute("SELECT * FROM t").rows)
        states.append((ts, rows))
    for ts, expected in states:
        historical = sorted(
            db.execute(f"SELECT * FROM t AS OF {ts}").rows)
        assert historical == expected


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10**6),
       n_txns=st.integers(min_value=2, max_value=5))
def test_no_lost_updates_under_si(seed, n_txns):
    """Counter invariant: concurrent increments either commit (and are
    counted) or abort — the final value equals the number of commits."""
    import random
    rng = random.Random(seed)
    db = Database()
    db.execute("CREATE TABLE c (id INT, n INT)")
    db.execute("INSERT INTO c VALUES (1, 0)")
    sessions = [db.connect() for _ in range(n_txns)]
    for session in sessions:
        session.begin("SERIALIZABLE")
    committed = 0
    order = list(range(n_txns))
    rng.shuffle(order)
    alive = set(order)
    for index in order:
        session = sessions[index]
        try:
            session.execute("UPDATE c SET n = n + 1 WHERE id = 1")
        except TransactionError:
            alive.discard(index)
    rng.shuffle(order)
    for index in order:
        if index not in alive:
            continue
        try:
            sessions[index].commit()
            committed += 1
        except TransactionError:
            pass
    final = db.execute("SELECT n FROM c").rows[0][0]
    assert final == committed


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_aborted_transactions_leave_no_trace_in_data(seed):
    import random
    rng = random.Random(seed)
    db = Database()
    db.execute("CREATE TABLE t (k INT, v INT)")
    db.execute("INSERT INTO t VALUES (1, 1)")
    before = sorted(db.execute("SELECT * FROM t").rows)
    session = db.connect()
    session.begin()
    for _ in range(rng.randint(1, 5)):
        action = rng.choice(["update", "insert", "delete"])
        if action == "update":
            session.execute("UPDATE t SET v = v * 2")
        elif action == "insert":
            session.execute(f"INSERT INTO t VALUES "
                            f"({rng.randint(2, 9)}, 0)")
        else:
            session.execute("DELETE FROM t WHERE k > 1")
    session.rollback()
    assert sorted(db.execute("SELECT * FROM t").rows) == before


# -- the fused read path against the per-chain reference -------------------
#
# ``VersionedTable.state_at`` answers reads from the live map rolled
# back along the commit log (near the present) or from one walk over
# the chains (far in the past, or with no commit log).  The reference
# is what both replaced: ``VersionChain.committed_at`` / ``visible_to``
# asked of every chain, one at a time.

def _reference_committed(table, ts):
    return [(rowid, version.values, version.xid)
            for rowid in sorted(table.rows)
            for version in [table.rows[rowid].committed_at(ts)]
            if version is not None]


def _reference_visible(table, xid, ts):
    return [(rowid, version.values, version.xid)
            for rowid in sorted(table.rows)
            for version in [table.rows[rowid].visible_to(xid, ts)]
            if version is not None]


def _check_reads(db, sessions=()):
    """Every committed read at every timestamp, and every active
    transaction's view, equals the per-chain reference.  Returns which
    sides of the ``state_at`` cutover the committed reads fell on."""
    now = db.clock.now()
    sides = set()
    for name, table in db.tables.items():
        for ts in range(now + 1):
            expected = _reference_committed(table, ts)
            assert table.scan(ts) == expected, (name, ts)
            assert table.row_count_committed(ts) == len(expected)
            if db.config.timetravel_enabled:
                assert db.table_snapshot(name, ts) == expected, (name, ts)
                suffix = table.delta_size_estimate(ts, now)
                sides.add("walk" if suffix > ROLLBACK_MAX_SHARE
                          * table.cardinality() else "rollback")
        assert table.scan() == _reference_committed(table, now), name
        for session in sessions:
            if not session.in_transaction:
                continue
            txn = session.txn
            for stmt_ts in (txn.begin_ts, now):
                assert db.mvcc.read(txn, table, stmt_ts) == \
                    _reference_visible(table, txn.xid,
                                       txn.snapshot_ts(stmt_ts)), \
                    (name, txn.xid, stmt_ts)
    return sides


def _random_history(db, seed, n_steps, check_every=7):
    """Three sessions interleave SI and READ COMMITTED transactions of
    inserts, updates, deletes, re-deletes and aborts on ``t``; a
    trigger writes ``log`` through the same transaction.  Reads are
    checked against the reference along the way, with transactions in
    flight.  Returns the sessions (some still mid-transaction)."""
    import random
    rng = random.Random(seed)
    db.execute("CREATE TABLE t (k INT, v INT)")
    db.execute("CREATE TABLE log (k INT, what TEXT)")

    def record(db_, txn, ts, table, rowid, old, new):
        db_.mvcc.insert(txn, db_.table("log"),
                        ((old or new)[0], "del" if new is None else "upd"),
                        ts)

    db.create_trigger("t", "update", record)
    db.create_trigger("t", "delete", record)
    db.execute("INSERT INTO t VALUES " + ", ".join(
        f"({k}, {k})" for k in range(1, 9)))
    sessions = [db.connect(user=f"u{i}") for i in range(3)]
    next_key = 100
    for step in range(n_steps):
        session = rng.choice(sessions)
        if not session.in_transaction:
            session.begin(rng.choice(["SERIALIZABLE", "READ COMMITTED"]))
        action = rng.choice(["insert", "update", "update", "delete",
                             "redelete", "commit", "commit", "abort"])
        try:
            if action == "insert":
                next_key += 1
                session.execute(f"INSERT INTO t VALUES ({next_key}, 0)")
            elif action == "update":
                session.execute(f"UPDATE t SET v = v + 1 "
                                f"WHERE k = {rng.randint(1, 8)}")
            elif action == "delete":
                session.execute(f"DELETE FROM t "
                                f"WHERE k = {rng.randint(1, next_key)}")
            elif action == "redelete":
                # write, delete and delete again inside one transaction
                key = rng.randint(1, 8)
                session.execute(f"UPDATE t SET v = -1 WHERE k = {key}")
                session.execute(f"DELETE FROM t WHERE k = {key}")
                session.execute(f"DELETE FROM t WHERE k = {key}")
            elif action == "commit":
                session.commit()
            else:
                session.rollback()
        except TransactionError:
            pass  # conflict: the session's transaction was aborted
        if step % check_every == 0:
            _check_reads(db, sessions)
    return sessions


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10**6),
       n_steps=st.integers(min_value=5, max_value=40),
       timetravel=st.booleans())
def test_fused_scan_equals_per_chain_reference(seed, n_steps, timetravel):
    """With and without history: with time travel off there is no
    commit log to roll back along, rows are pruned and reclaimed, and
    the live map must be maintained all the same (it is what
    trigger-based history reads)."""
    db = Database(DatabaseConfig(timetravel_enabled=timetravel))
    sessions = _random_history(db, seed, n_steps)
    _check_reads(db, sessions)


def test_reference_check_runs_both_sides_of_the_cutover():
    """The property above is only worth its name if its timestamps fall
    on both sides of ``ROLLBACK_MAX_SHARE``."""
    db = Database()
    sessions = _random_history(db, seed=7, n_steps=40)
    assert _check_reads(db, sessions) == {"walk", "rollback"}


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10**6),
       n_steps=st.integers(min_value=5, max_value=40),
       checkpoint_every=st.sampled_from([None, 4]))
def test_fused_scan_equals_reference_after_recovery(
        tmp_path_factory, seed, n_steps, checkpoint_every):
    """The live map is derived state: rebuilt by pure WAL replay
    (``checkpoint_every=None``) and by checkpoint + tail, it must answer
    every read as the original database does."""
    wal_dir = str(tmp_path_factory.mktemp("wal"))
    db = Database.open(wal_dir, checkpoint_every=checkpoint_every)
    sessions = _random_history(db, seed, n_steps, check_every=1000)
    for session in sessions:
        if session.in_transaction:
            session.rollback()
    _check_reads(db)
    db.wal.close()

    recovered = Database.open(wal_dir)
    try:
        if checkpoint_every is None:
            assert recovered.last_recovery.checkpoint_index is None
        _check_reads(recovered)
        for name in db.tables:
            for ts in range(db.clock.now() + 1):
                assert recovered.table_snapshot(name, ts) == \
                    db.table_snapshot(name, ts), (name, ts)
    finally:
        recovered.wal.close()
