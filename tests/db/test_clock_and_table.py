"""Logical clock and versioned-table mechanism tests."""

import pytest

from repro.db.clock import LogicalClock
from repro.db.schema import Column, TableSchema
from repro.db.table import VersionedTable
from repro.db.types import DataType
from repro.errors import ExecutionError


class TestLogicalClock:
    def test_monotonic(self):
        clock = LogicalClock()
        stamps = [clock.tick() for _ in range(10)]
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == 10

    def test_now_does_not_advance(self):
        clock = LogicalClock()
        clock.tick()
        assert clock.now() == clock.now()

    def test_advance_to_never_goes_backwards(self):
        clock = LogicalClock()
        clock.advance_to(100)
        assert clock.now() == 100
        clock.advance_to(50)
        assert clock.now() == 100

    def test_custom_start(self):
        assert LogicalClock(start=41).tick() == 42


@pytest.fixture
def table():
    return VersionedTable(TableSchema("t", [
        Column("a", DataType.INT), Column("b", DataType.STRING)]))


class TestVersionedTable:
    def test_rowids_monotonic(self, table):
        first = table.insert_row(1, (1, "x"), stmt_ts=1)
        second = table.insert_row(1, (2, "y"), stmt_ts=1)
        assert second == first + 1

    def test_scan_orders_by_rowid(self, table):
        rowids = [table.insert_row(1, (i, "v"), stmt_ts=1)
                  for i in range(5)]
        # publish out of rowid order: the live map's insertion order
        # must not leak into the scan
        for rowid in reversed(rowids):
            table.commit_rows(1, [rowid], commit_ts=2)
        assert [rowid for rowid, _, _ in table.scan(2)] == rowids
        assert [rowid for rowid, _, _ in table.scan()] == rowids

    def test_scan_overlays_own_writes(self, table):
        rowid = table.insert_row(1, (1, "old"), stmt_ts=1)
        table.commit_rows(1, [rowid], commit_ts=2)
        table.write_row(7, rowid, (1, "mine"), stmt_ts=3)
        mine = table.scan(2, xid=7, written=[rowid])
        other = table.scan(2, xid=8, written=[rowid])
        assert mine == [(rowid, (1, "mine"), 7)]
        assert other == [(rowid, (1, "old"), 1)]
        assert table.scan(2) == other

    def test_abort_rows_removes_empty_chains(self, table):
        rowid = table.insert_row(5, (1, "x"), stmt_ts=1)
        table.abort_rows(5, [rowid])
        assert rowid not in table.rows

    def test_commit_without_history_prunes(self, table):
        rowid = table.insert_row(1, (1, "a"), stmt_ts=1)
        table.commit_rows(1, [rowid], commit_ts=2)
        table.write_row(2, rowid, (1, "b"), stmt_ts=3)
        table.commit_rows(2, [rowid], commit_ts=4, keep_history=False)
        assert len(table.rows[rowid].versions) == 1

    def test_unknown_rowid_raises(self, table):
        with pytest.raises(ExecutionError, match="does not exist"):
            table.chain(99)

    def test_version_history_lists_committed_only(self, table):
        rowid = table.insert_row(1, (1, "a"), stmt_ts=1)
        table.commit_rows(1, [rowid], commit_ts=2)
        table.write_row(3, rowid, (1, "pending"), stmt_ts=3)
        history = list(table.version_history())
        assert len(history) == 1

    def test_row_count_committed_at_time(self, table):
        r1 = table.insert_row(1, (1, "a"), stmt_ts=1)
        table.commit_rows(1, [r1], commit_ts=2)
        r2 = table.insert_row(2, (2, "b"), stmt_ts=3)
        table.commit_rows(2, [r2], commit_ts=4)
        assert table.row_count_committed(2) == 1
        assert table.row_count_committed(4) == 2

    def test_latest_scan_skips_tombstones(self, table):
        rowid = table.insert_row(1, (1, "a"), stmt_ts=1)
        table.commit_rows(1, [rowid], commit_ts=2)
        table.write_row(2, rowid, None, stmt_ts=3)  # delete
        assert table.scan(2, xid=2, written=[rowid]) == []
        table.commit_rows(2, [rowid], commit_ts=4)
        assert table.scan() == []
        assert table.scan(4) == []
        assert table.scan(3) == [(rowid, (1, "a"), 1)]

    def test_deleted_rows_are_reclaimed_without_history(self, table):
        """Time travel off: a deleted row leaves no chain behind."""
        rowids = [table.insert_row(1, (i, "v"), stmt_ts=1)
                  for i in range(5)]
        table.commit_rows(1, rowids, commit_ts=2, keep_history=False)
        assert table.cardinality() == 5
        for rowid in rowids:
            table.write_row(2, rowid, None, stmt_ts=3)
        table.commit_rows(2, rowids, commit_ts=4, keep_history=False)
        assert table.rows == {}
        assert table.cardinality() == 0
        assert table.scan() == [] and table.scan(4) == []

    def test_database_without_time_travel_reclaims_deleted_rows(self):
        from repro import Database, DatabaseConfig
        db = Database(DatabaseConfig(timetravel_enabled=False))
        db.execute("CREATE TABLE t (a INT)")
        for a in range(5):
            db.execute(f"INSERT INTO t VALUES ({a})")
        assert db.table_cardinality("t") == 5
        for a in range(5):
            db.execute(f"DELETE FROM t WHERE a = {a}")
        assert db.table_cardinality("t") == 0
        assert db.execute("SELECT * FROM t").rows == []

    def test_scan_equals_per_chain_visibility_when_history_is_mixed(
            self, table):
        """Commits with and without history on one table (a database
        whose ``timetravel_enabled`` was flipped while live): reads
        before the unlogged commit have no complete log to roll back
        along and must still agree with ``committed_at``."""
        r1 = table.insert_row(1, (1, "a"), stmt_ts=1)
        r2 = table.insert_row(1, (2, "b"), stmt_ts=1)
        table.commit_rows(1, [r1, r2], commit_ts=2)
        table.write_row(2, r2, (2, "c"), stmt_ts=3)
        table.commit_rows(2, [r2], commit_ts=4)
        table.write_row(3, r1, (1, "z"), stmt_ts=5)
        table.commit_rows(3, [r1], commit_ts=6, keep_history=False)
        table.write_row(4, r2, None, stmt_ts=7)
        table.commit_rows(4, [r2], commit_ts=8)
        for ts in range(10):
            expected = [(rowid, version.values, version.xid)
                        for rowid in sorted(table.rows)
                        for version in [table.rows[rowid].committed_at(ts)]
                        if version is not None]
            assert table.scan(ts) == expected, ts
        assert table.scan(5) == [(r2, (2, "c"), 2)]  # r1's past is pruned
        assert table.scan() == [(r1, (1, "z"), 3)]
