"""Timeline scans are storage reads.

``timeline_states`` answers every tick from one AS-OF read at the
earliest tick plus the commit log's delta chain applied forward; no
engine runs.  Pinned here:

* every sparkline cell equals the per-probe ``COUNT(*)`` an engine
  computes over the AS-OF state, and every full state equals
  ``table_snapshot`` — rows in rowid order, type-strict, with an AS-OF
  scan's attributes;
* results are keyed by the caller's *original* timestamps even when
  the request arrives unsorted and with duplicates;
* a commit published with history off is inside the answer at every
  later tick;
* a tick that is not a commit timestamp, or a database without time
  travel, is a typed error;
* through the service, a timeline job runs no plan on its worker's
  session.
"""

import pytest

from repro import Database, ReenactmentService
from repro.algebra import operators as op
from repro.algebra.expressions import Literal
from repro.backends import SQLiteBackend
from repro.db.auditlog import AuditEventKind
from repro.debugger.timeline import timeline_states
from repro.errors import AuditLogError, TimeTravelError

from conftest import build_history


def history(n_rows=30, n_commits=8):
    """One table, a seed commit, then single-row update/insert/delete
    commits — a distinct committed state at each returned timestamp,
    with churn in both directions so counts actually move."""
    db = Database()
    db.execute("CREATE TABLE acct (id INT, bal INT)")
    conn = db.connect()
    conn.begin()
    for i in range(n_rows):
        conn.execute(f"INSERT INTO acct VALUES ({i}, 100)")
    conn.commit()
    timestamps = [db.clock.now()]
    for k in range(n_commits - 1):
        conn.begin()
        if k % 3 == 0:
            conn.execute(f"DELETE FROM acct WHERE id = {k}")
        elif k % 3 == 1:
            conn.execute(f"INSERT INTO acct VALUES ({n_rows + k}, 7)")
        else:
            conn.execute(f"UPDATE acct SET bal = bal + 1 "
                         f"WHERE id = {n_rows // 2}")
        conn.commit()
        timestamps.append(db.clock.now())
    return db, timestamps


def assert_stored(db, table, states, ticks):
    """Each ``states[ts]`` is ``table_snapshot(table, ts)``: attributes,
    rows in rowid order, and the type of every value."""
    attrs = [f"{table}.{c}" for c in db.catalog.get(table).column_names]
    for ts in ticks:
        rows = [values for _rowid, values, _xid
                in db.table_snapshot(table, ts)]
        assert states[ts].attrs == attrs, f"ts={ts}"
        assert [[type(v) for v in row] for row in states[ts].rows] \
            == [[type(v) for v in row] for row in rows], f"ts={ts}"
        assert states[ts].rows == rows, f"ts={ts}"


class TestEquivalence:
    @pytest.mark.parametrize("isolation",
                             ["SERIALIZABLE", "READ COMMITTED"])
    @pytest.mark.parametrize("seed", range(3))
    def test_sparkline_cells_match_per_probe_counts(self, seed,
                                                    isolation):
        """Every sparkline cell equals the ``COUNT(*)`` SQLite computes
        over the AS-OF state at that tick, across seeded concurrent
        histories at both isolation levels."""
        db = build_history(seed, isolation)
        ticks = sorted({e.ts for e in db.audit_log.entries
                        if e.kind is AuditEventKind.COMMIT})
        assert ticks
        ctx = db.context(params={})
        with SQLiteBackend().open_session() as session:
            for table in sorted(db.catalog.table_names()):
                columns = list(db.catalog.get(table).column_names)
                cells = timeline_states(db, table, ticks,
                                        mode="sparkline")
                for ts in ticks:
                    probe = session.execute_plan(op.Aggregation(
                        op.TableScan(table=table, columns=columns,
                                     binding=table, as_of=Literal(ts)),
                        [], [], [op.AggSpec(func="COUNT", expr=None,
                                            name="n_rows")]), ctx)
                    assert cells[ts].rows == probe.rows, \
                        f"seed={seed} isolation={isolation} " \
                        f"table={table} ts={ts}"

    def test_results_keyed_by_callers_original_timestamps(self):
        db, timestamps = history()
        request = [timestamps[4], timestamps[0], timestamps[4],
                   timestamps[2], timestamps[6]]
        states = timeline_states(db, "acct", request)
        assert set(states) == set(request)
        assert_stored(db, "acct", states, request)
        counts = timeline_states(db, "acct", request, mode="sparkline")
        for ts in request:
            assert counts[ts].attrs == ["n_rows"]
            assert counts[ts].rows == [(len(states[ts].rows),)]

    def test_history_off_stretch_is_inside_later_states(self):
        """A commit published with history off leaves no commit-log
        entry; every later tick must still hold its row."""
        db = Database()
        db.execute("CREATE TABLE t (k INT, x INT)")
        db.execute("INSERT INTO t VALUES (1, 1)")
        db.execute("UPDATE t SET x = x + 10 WHERE k = 1")
        db.config.timetravel_enabled = False
        db.execute("INSERT INTO t VALUES (2, 2)")
        db.config.timetravel_enabled = True
        db.execute("UPDATE t SET x = x + 100 WHERE k = 2")
        ticks = list(range(1, db.clock.now() + 1))
        assert_stored(db, "t", timeline_states(db, "t", ticks), ticks)
        counts = timeline_states(db, "t", ticks, mode="sparkline")
        assert counts[ticks[-1]].rows == [(2,)]


class TestCutover:
    """Where a scan starts and stops."""

    def test_empty_timestamp_list(self):
        db, _ = history(n_commits=2)
        for mode in ("full", "sparkline"):
            assert timeline_states(db, "acct", [], mode=mode) == {}


class TestAdmission:
    """Scans that must be refused with a typed error, never answered
    wrong."""

    def test_timetravel_disabled_refused(self):
        db, timestamps = history(n_commits=4)
        db.config.timetravel_enabled = False
        with pytest.raises(TimeTravelError):
            timeline_states(db, "acct", timestamps, mode="sparkline")

    def test_none_timestamp_refused(self):
        db, timestamps = history(n_commits=4)
        with pytest.raises(AuditLogError, match="tick None"):
            timeline_states(db, "acct", [timestamps[0], None])
        with ReenactmentService(db, workers=1, store=None) as service:
            handle = service.timeline_scan("acct", [None],
                                           mode="sparkline")
            with pytest.raises(AuditLogError, match="tick None"):
                handle.result(timeout=60)


class TestService:
    def test_service_timeline_scan_reads_storage(self):
        db, timestamps = history()
        with ReenactmentService(db, backend="sqlite",
                                workers=2) as service:
            result = service.timeline_scan(
                "acct", timestamps).result(timeout=60)
            sessions = service.stats().sessions
        assert_stored(db, "acct", result, timestamps)
        assert sessions["plans_executed"] == 0
        assert sessions["snapshots_materialized"] == 0
