"""ASCII renderer tests."""

import os

import pytest

from repro import Database
from repro.debugger import (TransactionInspector, TransactionTimeline,
                            render_debug_panel, render_detail_panel,
                            render_timeline)
from repro.workloads import setup_bank, run_write_skew_history


@pytest.fixture
def skewed():
    db = Database()
    setup_bank(db)
    t1, t2 = run_write_skew_history(db)
    return db, t1, t2


class TestTimelineRendering:
    def test_rows_and_legend(self, skewed):
        db, t1, t2 = skewed
        text = render_timeline(TransactionTimeline.from_database(db))
        assert f"T{t1}" in text and f"T{t2}" in text
        assert "C" in text  # commit markers
        assert "statement start" in text  # legend

    def test_width_respected(self, skewed):
        db, _, _ = skewed
        text = render_timeline(TransactionTimeline.from_database(db),
                               width=40)
        bar_lines = [line for line in text.splitlines()
                     if line.startswith("T")]
        assert bar_lines
        for line in bar_lines:
            assert len(line) <= 40 + 7  # label + brackets margin

    def test_abort_marker(self, skewed):
        db, _, _ = skewed
        s = db.connect()
        s.begin()
        s.execute("UPDATE account SET bal = 1 WHERE bal = -999")
        s.rollback()
        text = render_timeline(TransactionTimeline.from_database(db))
        assert "X" in text

    def test_empty_timeline(self):
        text = render_timeline(
            TransactionTimeline.from_database(Database()))
        assert "empty" in text


class TestDetailPanel:
    def test_detail(self, skewed):
        db, _, t2 = skewed
        row = TransactionTimeline.from_database(db).row(t2)
        text = render_detail_panel(row)
        assert "isolation" in text
        assert "statements" in text


class TestDebugPanel:
    def test_full_panel(self, skewed):
        db, _, t2 = skewed
        inspector = TransactionInspector(db, t2)
        text = render_debug_panel(inspector)
        assert "initial state" in text
        assert "after statement [0]" in text
        assert "after statement [1]" in text
        assert "account:" in text and "overdraft:" in text
        assert "UPDATE account" in text

    def test_affected_marker_and_creator(self, skewed):
        db, _, t2 = skewed
        inspector = TransactionInspector(db, t2)
        text = render_debug_panel(inspector)
        assert "*" in text
        assert f"T{t2}" in text

    def test_deleted_marker(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1)")
        s = db.connect()
        s.begin()
        s.execute("DELETE FROM t WHERE a = 1")
        xid = s.txn.xid
        s.commit()
        text = render_debug_panel(TransactionInspector(db, xid))
        assert "DELETED" in text


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize("show_unaffected, name", [
    (False, "skewed_panel_filter_on.txt"),
    (True, "skewed_panel_filter_off.txt")])
def test_debug_panel_renders_as_recorded(skewed, show_unaffected, name):
    """The whole panel of the write-skew example, byte for byte, with
    the affected-rows filter on and off."""
    db, _, t2 = skewed
    inspector = TransactionInspector(db, t2,
                                     show_unaffected=show_unaffected)
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as recorded:
        assert render_debug_panel(inspector) + "\n" == recorded.read()
