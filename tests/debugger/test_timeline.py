"""Timeline model tests (Fig. 3)."""

import pytest

from repro import Database
from repro.debugger import TransactionTimeline
from repro.errors import AuditLogError
from repro.workloads import setup_bank, run_write_skew_history


@pytest.fixture
def timeline_env():
    db = Database()
    setup_bank(db)
    t1, t2 = run_write_skew_history(db)
    return db, t1, t2


class TestConstruction:
    def test_rows_sorted_by_begin(self, timeline_env):
        db, t1, t2 = timeline_env
        timeline = TransactionTimeline.from_database(db)
        begins = [r.begin_ts for r in timeline.rows]
        assert begins == sorted(begins)
        assert len(timeline) == 3  # setup insert + T1 + T2

    def test_statement_intervals_abut(self, timeline_env):
        db, t1, _ = timeline_env
        row = TransactionTimeline.from_database(db).row(t1)
        assert len(row.statements) == 2
        first, second = row.statements
        assert first.end == second.start
        assert second.end == row.end_ts  # last statement ends at commit

    def test_status_classification(self, timeline_env):
        db, t1, _ = timeline_env
        session = db.connect()
        session.begin()
        session.execute("UPDATE account SET bal = 0 WHERE bal = 12345")
        aborted_xid = session.txn.xid
        session.rollback()
        timeline = TransactionTimeline.from_database(db)
        assert timeline.row(t1).status == "committed"
        assert timeline.row(aborted_xid).status == "aborted"

    def test_detail_panel_content(self, timeline_env):
        db, _, t2 = timeline_env
        detail = TransactionTimeline.from_database(db).row(t2).detail()
        assert f"T{t2}" in detail
        assert "SERIALIZABLE" in detail
        assert "bob" in detail
        assert "UPDATE account" in detail


class TestInteractions:
    def test_window_restriction(self, timeline_env):
        db, t1, t2 = timeline_env
        record_t2 = db.audit_log.transaction_record(t2)
        windowed = TransactionTimeline.from_database(db).window(
            record_t2.begin_ts, record_t2.commit_ts)
        xids = [r.xid for r in windowed]
        assert t2 in xids
        assert windowed.start_ts == record_t2.begin_ts

    def test_window_excludes_disjoint(self, timeline_env):
        db, _, t2 = timeline_env
        end = db.audit_log.transaction_record(t2).commit_ts
        later = TransactionTimeline.from_database(db).window(
            end + 100, end + 200)
        assert len(later) == 0

    def test_search(self, timeline_env):
        db, t1, t2 = timeline_env
        timeline = TransactionTimeline.from_database(db)
        hits = timeline.search("overdraft")
        assert {r.xid for r in hits} >= {t1, t2}
        assert timeline.search("no such text") == []

    def test_unknown_row(self, timeline_env):
        db, _, _ = timeline_env
        with pytest.raises(AuditLogError, match="not on the timeline"):
            TransactionTimeline.from_database(db).row(999)

    def test_empty_timeline(self):
        timeline = TransactionTimeline.from_database(Database())
        assert len(timeline) == 0


class TestTableMentions:
    """Word-boundary table matching in ``filter(table=...)`` — the
    regression the naive substring test invited: ``account`` matching
    ``accounts`` (and vice versa)."""

    def test_prefix_name_does_not_match_longer_name(self):
        from repro.debugger.timeline import _mentions_table
        assert not _mentions_table(
            "UPDATE accounts SET bal = 0", "account")
        assert not _mentions_table(
            "SELECT * FROM accounts_bak", "account")
        assert not _mentions_table(
            "INSERT INTO account2 VALUES (1)", "account")

    def test_whole_word_matches_through_punctuation(self):
        from repro.debugger.timeline import _mentions_table
        assert _mentions_table("UPDATE account SET bal = 0", "account")
        assert _mentions_table("SELECT * FROM account;", "account")
        assert _mentions_table('DELETE FROM "account" WHERE 1',
                               "account")
        assert _mentions_table("JOIN main.account ON 1=1", "account")
        assert _mentions_table("UPDATE ACCOUNT SET bal = 0", "account")

    def test_filter_level_regression(self):
        """A history over ``account`` *and* ``accounts``: filtering by
        either name must select only its own transactions."""
        db = Database()
        db.execute("CREATE TABLE account (x INT)")
        db.execute("CREATE TABLE accounts (y INT)")
        short = db.connect(user="short")
        short.begin()
        short.execute("INSERT INTO account VALUES (1)")
        short.commit()
        longer = db.connect(user="longer")
        longer.begin()
        longer.execute("INSERT INTO accounts VALUES (2)")
        longer.commit()
        timeline = TransactionTimeline.from_database(db)
        assert {r.user for r in timeline.filter(table="account")} \
            == {"short"}
        assert {r.user for r in timeline.filter(table="accounts")} \
            == {"longer"}


class TestTimelineStates:
    def test_fallback_sorts_and_dedupes_before_the_pipeline(self):
        """Unsorted, duplicated caller ticks reach storage as one
        sorted, deduplicated series — one AS-OF read at the earliest
        tick and one delta chain over the rest — while the result is
        keyed by the caller's original timestamps."""
        from repro.debugger.timeline import timeline_states
        db = Database()
        db.execute("CREATE TABLE t (x INT)")
        ticks = []
        for i in range(5):
            conn = db.connect()
            conn.begin()
            conn.execute(f"INSERT INTO t VALUES ({i})")
            conn.commit()
            ticks.append(db.clock.now())
        request = [ticks[3], ticks[0], ticks[3], ticks[1], ticks[4],
                   ticks[0]]
        reads = []
        for name in ("table_snapshot", "table_delta_chain"):
            def record(table, at, _read=getattr(db, name), _name=name):
                reads.append((_name, at))
                return _read(table, at)
            setattr(db, name, record)
        states = timeline_states(db, "t", request, mode="sparkline")
        assert reads == [("table_snapshot", ticks[0]),
                         ("table_delta_chain",
                          [ticks[0], ticks[1], ticks[3], ticks[4]])]
        assert set(states) == set(request)
        assert {ts: states[ts].rows[0][0] for ts in request} \
            == {ticks[0]: 1, ticks[1]: 2, ticks[3]: 4, ticks[4]: 5}


class TestActiveTransactions:
    def test_active_last_statement_interval_is_open(self, timeline_env):
        db, _, _ = timeline_env
        session = db.connect(user="live")
        session.begin()
        session.execute("UPDATE account SET bal = bal + 1 "
                        "WHERE cust = 'Alice'")
        row = TransactionTimeline.from_database(db).row(session.txn.xid)
        assert row.status == "active"
        assert row.statements[-1].end is None

    def test_render_extends_open_interval_to_view_edge(self,
                                                       timeline_env):
        """An open interval renders to the view's right edge instead of
        crashing on (or inventing) a missing end timestamp."""
        from repro.debugger import render_timeline
        db, _, _ = timeline_env
        session = db.connect(user="live")
        session.begin()
        session.execute("UPDATE account SET bal = bal + 1 "
                        "WHERE cust = 'Alice'")
        # widen the view past the last commit so the open interval has
        # somewhere to extend into
        text = render_timeline(TransactionTimeline.from_database(
            db, end_ts=db.clock.now() + 5))
        active_line = next(
            line for line in text.splitlines()
            if line.startswith(f"T{session.txn.xid}"))
        # the statement bar runs from its '|' start to the edge marker
        bar = active_line[active_line.index("|"):]
        assert "=" in bar and "?" in bar
