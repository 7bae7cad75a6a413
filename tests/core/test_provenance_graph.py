"""Provenance-graph tests (Fig. 4's click action).

Every check runs on the graph an inspector on the in-memory backend
and one on SQLite read off their panels; the two must be the same
graph.
"""

import pytest

from repro import Database
from repro.debugger import TransactionInspector, render_graph
from repro.errors import ReenactmentError

BACKENDS = ["memory", "sqlite"]


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE src (k INT, v INT)")
    database.execute("CREATE TABLE dst (k INT, total INT)")
    database.execute("INSERT INTO src VALUES (1,10), (1,20), (2,5)")
    return database


def run_txn(db, *stmts):
    s = db.connect()
    s.begin()
    for stmt in stmts:
        s.execute(stmt)
    xid = s.txn.xid
    s.commit()
    return xid


def inspectors(db, xid):
    """One inspector of transaction ``xid`` per backend; their graphs
    are equal."""
    out = [TransactionInspector(db, xid, backend=backend)
           for backend in BACKENDS]
    graphs = [inspector.transaction_graph() for inspector in out]
    assert all(graph == graphs[0] for graph in graphs)
    return out


def graphs(db, xid):
    return [inspector.transaction_graph()
            for inspector in inspectors(db, xid)]


class TestUpdateChains:
    def test_update_edge(self, db):
        xid = run_txn(db, "UPDATE src SET v = v + 1 WHERE k = 2")
        for graph in graphs(db, xid):
            assert graph.edges[("src", 3, -1), ("src", 3, 0)] \
                == ("update", 0)

    def test_two_updates_chain_through_columns(self, db):
        xid = run_txn(db,
                      "UPDATE src SET v = v + 1 WHERE k = 2",
                      "UPDATE src SET v = v * 10 WHERE k = 2")
        for graph in graphs(db, xid):
            assert (("src", 3, -1), ("src", 3, 0)) in graph.edges
            assert (("src", 3, 0), ("src", 3, 1)) in graph.edges
            assert graph.nodes[("src", 3, 1)].values == (2, 60)

    def test_unchanged_rows_have_no_new_nodes(self, db):
        xid = run_txn(db, "UPDATE src SET v = 0 WHERE k = 2")
        for graph in graphs(db, xid):
            # rows 1 and 2 (k=1) only exist as initial versions
            assert ("src", 1, 0) not in graph
            assert ("src", 1, -1) in graph

    def test_delete_edge(self, db):
        xid = run_txn(db, "DELETE FROM src WHERE k = 1")
        for graph in graphs(db, xid):
            kind, _ = graph.edges[("src", 1, -1), ("src", 1, 0)]
            assert kind == "delete"
            assert graph.nodes[("src", 1, 0)].deleted


class TestInsertSources:
    def test_aggregated_insert_sources(self, db):
        xid = run_txn(db,
                      "INSERT INTO dst (SELECT k, SUM(v) FROM src "
                      "GROUP BY k)")
        for graph in graphs(db, xid):
            inserted = [k for k in graph.nodes
                        if k[0] == "dst" and k[2] == 0]
            assert len(inserted) == 2
            group1 = [k for k in inserted
                      if graph.nodes[k].values == (1, 30)][0]
            sources = {graph.nodes[p].rowid
                       for p in graph.predecessors(group1)}
            assert sources == {1, 2}

    def test_insert_after_update_links_to_updated_version(self, db):
        xid = run_txn(db,
                      "UPDATE src SET v = 100 WHERE k = 2",
                      "INSERT INTO dst (SELECT k, v FROM src "
                      "WHERE v = 100)")
        for graph in graphs(db, xid):
            inserted = [k for k in graph.nodes
                        if k[0] == "dst" and k[2] == 1][0]
            # the source is the *statement-0* version, not the initial
            assert graph.predecessors(inserted) == [("src", 3, 0)]

    def test_insert_values_has_no_source_edges(self, db):
        xid = run_txn(db, "INSERT INTO dst VALUES (9, 9)")
        for graph in graphs(db, xid):
            inserted = [k for k in graph.nodes if k[0] == "dst"]
            assert len(inserted) == 1
            assert graph.predecessors(inserted[0]) == []


class TestProvenanceOf:
    def test_ancestors_subgraph(self, db):
        xid = run_txn(db,
                      "UPDATE src SET v = v + 1 WHERE k = 1",
                      "INSERT INTO dst (SELECT k, SUM(v) FROM src "
                      "WHERE k = 1 GROUP BY k)")
        for inspector in inspectors(db, xid):
            inserted = [k for k in inspector.transaction_graph().nodes
                        if k[0] == "dst" and k[2] == 1][0]
            sub = inspector.provenance_graph("dst", inserted[1])
            # contains: the inserted tuple, 2 updated versions, 2 initial
            assert len(sub.nodes) == 5
            # and nothing about row 3 (k=2)
            assert ("src", 3, -1) not in sub

    def test_latest_column_chosen_by_default(self, db):
        xid = run_txn(db,
                      "UPDATE src SET v = 1 WHERE k = 2",
                      "UPDATE src SET v = 2 WHERE k = 2")
        for inspector in inspectors(db, xid):
            sub = inspector.provenance_graph("src", 3)
            assert ("src", 3, 1) in sub and ("src", 3, 0) in sub

    def test_unknown_tuple_raises(self, db):
        xid = run_txn(db, "UPDATE src SET v = 0 WHERE k = 2")
        for inspector in inspectors(db, xid):
            with pytest.raises(ReenactmentError, match="does not appear"):
                inspector.provenance_graph("src", 999)
            with pytest.raises(ReenactmentError,
                               match="no tuple version src\\[1\\] at "
                                     "column 0"):
                inspector.provenance_graph("src", 1, column=0)


class TestRendering:
    def test_render_contains_labels_and_edges(self, db):
        xid = run_txn(db, "UPDATE src SET v = v + 1 WHERE k = 2")
        for graph in graphs(db, xid):
            text = render_graph(graph)
            assert "src[3]" in text
            assert "<-[update]-" in text
            assert f"T{xid}" in text


class TestReadCommitted:
    """Under READ COMMITTED each statement reads the committed state
    at its own time, so concurrent commits show up between columns."""

    def test_concurrent_update_is_not_the_statements_edge(self):
        db = Database()
        db.execute("CREATE TABLE t (k INT, v INT)")
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
        debugged = db.connect()
        debugged.begin("READ COMMITTED")
        debugged.execute("UPDATE t SET v = 11 WHERE k = 1")
        rival = run_txn(db, "UPDATE t SET v = 21 WHERE k = 2")
        debugged.execute("UPDATE t SET v = 12 WHERE k = 1")
        xid = debugged.txn.xid
        debugged.commit()
        for graph in graphs(db, xid):
            # the rival's version is a node of the column the debugged
            # statement shows it in, derived from nothing it did
            concurrent = graph.nodes[("t", 2, 1)]
            assert (concurrent.values, concurrent.creator_xid) \
                == ((2, 21), rival)
            assert graph.predecessors(("t", 2, 1)) == []
            assert graph.edges == {
                (("t", 1, -1), ("t", 1, 0)): ("update", 0),
                (("t", 1, 0), ("t", 1, 1)): ("update", 1)}

    def test_insert_sources_are_the_versions_the_statement_read(self):
        db = Database()
        db.execute("CREATE TABLE src (k INT, v INT)")
        db.execute("CREATE TABLE dst (k INT, total INT)")
        db.execute("INSERT INTO src VALUES (1, 10), (2, 5)")
        debugged = db.connect()
        debugged.begin("READ COMMITTED")
        debugged.execute("INSERT INTO dst VALUES (0, 0)")
        run_txn(db, "UPDATE src SET v = 99 WHERE k = 1",
                "INSERT INTO src VALUES (3, 7)")
        debugged.execute("INSERT INTO dst (SELECT k, v FROM src)")
        xid = debugged.txn.xid
        debugged.commit()
        for graph in graphs(db, xid):
            inserted = [key for key in graph.nodes
                        if key[0] == "dst" and key[2] == 1]
            assert len(inserted) == 3
            for key in inserted:
                (source,) = graph.predecessors(key)
                assert graph.edges[source, key] == ("insert-source", 1)
                assert source[0] == "src"
                assert graph.nodes[source].values \
                    == graph.nodes[key].values
