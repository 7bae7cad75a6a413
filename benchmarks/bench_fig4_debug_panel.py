"""E8 — Fig. 4: the debug panel.

Computes the full panel for T2 of the running example — every column's
intermediate table states via prefix reenactment plus the provenance
graph for a clicked tuple — and for a larger synthetic transaction.
"""

import pytest
from conftest import report

from repro import Database
from repro.debugger import TransactionInspector, render_debug_panel


def test_debug_panel_running_example(benchmark, skew_db):
    db, _, t2 = skew_db

    def build_panel():
        inspector = TransactionInspector(db, t2, show_unaffected=True)
        return inspector, render_debug_panel(inspector)

    inspector, text = benchmark(build_panel)
    assert "after statement [1]" in text
    state = inspector.column(0).states["account"]
    checking = [r for r in state.rows if r.values[1] == "Checking"][0]
    assert checking.values[2] == 50  # Bob's "outdated balance" finding
    report("Fig. 4 debug panel (T2)", [
        "statement columns: initial + 2",
        "outdated checking balance visible: 50 (not -20)",
    ])


def test_provenance_graph_click(benchmark, skew_db):
    db, _, t2 = skew_db
    inspector = TransactionInspector(db, t2, show_unaffected=True)
    state = inspector.column(0).states["account"]
    savings = [r for r in state.rows if r.values[1] == "Savings"][0]

    graph = benchmark(
        lambda: inspector.provenance_graph("account", savings.rowid))
    assert len(graph.nodes) >= 2


@pytest.fixture(scope="module")
def long_txn_db():
    db = Database()
    db.execute("CREATE TABLE items (k INT, v INT)")
    db.execute("INSERT INTO items VALUES " + ", ".join(
        f"({i}, {i * 10})" for i in range(1, 201)))
    session = db.connect()
    session.begin()
    for i in range(10):
        session.execute(
            f"UPDATE items SET v = v + 1 WHERE k % 10 = {i}")
    xid = session.txn.xid
    session.commit()
    return db, xid


def test_debug_panel_ten_statement_transaction(benchmark, long_txn_db):
    db, xid = long_txn_db

    def build():
        inspector = TransactionInspector(db, xid)
        return inspector.columns()

    columns = benchmark.pedantic(build, rounds=3, iterations=1)
    assert len(columns) == 11
    benchmark.extra_info["statements"] = 10
    benchmark.extra_info["rows"] = 200
