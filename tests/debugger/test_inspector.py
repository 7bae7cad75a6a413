"""Debug-panel model tests (Fig. 4): per-statement intermediate states,
affected-row filtering, creator attribution, provenance click action.

These tests walk through Example 2 of the paper: Bob inspecting T2.
"""

import pytest

from repro import Database
from repro.debugger import TransactionInspector
from repro.errors import ReenactmentError
from repro.workloads import setup_bank, run_write_skew_history


@pytest.fixture
def skewed():
    db = Database()
    setup_bank(db)
    t1, t2 = run_write_skew_history(db)
    return db, t1, t2


class TestColumns:
    def test_one_column_per_statement_plus_initial(self, skewed):
        db, _, t2 = skewed
        inspector = TransactionInspector(db, t2)
        columns = inspector.columns()
        assert [c.index for c in columns] == [-1, 0, 1]
        assert columns[0].sql is None
        assert "UPDATE account" in columns[1].sql
        assert "INSERT INTO overdraft" in columns[2].sql

    def test_initial_state_is_transaction_snapshot(self, skewed):
        """The heart of Example 2: T2's snapshot shows the *outdated*
        checking balance of 50 — T1's debit is invisible under SI."""
        db, _, t2 = skewed
        inspector = TransactionInspector(db, t2, show_unaffected=True)
        initial = inspector.column(-1).states["account"]
        values = sorted(r.values for r in initial.rows)
        assert values == [("Alice", "Checking", 50),
                          ("Alice", "Savings", 30)]

    def test_state_after_update(self, skewed):
        db, _, t2 = skewed
        inspector = TransactionInspector(db, t2, show_unaffected=True)
        after = inspector.column(0).states["account"]
        values = sorted(r.values for r in after.rows)
        assert values == [("Alice", "Checking", 50),
                          ("Alice", "Savings", -10)]

    def test_overdraft_stays_empty(self, skewed):
        """Bob 'observes that both transactions did not insert any
        tuples into the overdraft table'."""
        db, _, t2 = skewed
        inspector = TransactionInspector(db, t2, show_unaffected=True)
        final = inspector.column(1).states["overdraft"]
        assert final.rows == []

    def test_creator_attribution(self, skewed):
        db, t1, t2 = skewed
        inspector = TransactionInspector(db, t2, show_unaffected=True)
        after = inspector.column(0).states["account"]
        by_type = {r.values[1]: r for r in after.rows}
        assert by_type["Savings"].creator_xid == t2
        assert by_type["Checking"].creator_xid != t2


class TestColumnIndex:
    """Columns run from -1 (initial states) to n-1; anything else is
    an error, not Python's negative indexing."""

    @pytest.mark.parametrize("index", ["below", "far_below", "past"])
    def test_out_of_range_column_rejected(self, skewed, index):
        db, _, t2 = skewed
        inspector = TransactionInspector(db, t2)
        n = len(inspector.statements)
        wanted = {"below": -2, "far_below": -n - 1, "past": n}[index]
        with pytest.raises(ReenactmentError,
                           match=rf"no panel column {wanted}; columns run "
                                 rf"from -1 \(initial states\) to {n - 1}"):
            inspector.column(wanted)

    def test_every_valid_column(self, skewed):
        db, _, t2 = skewed
        inspector = TransactionInspector(db, t2)
        n = len(inspector.statements)
        assert [inspector.column(k).index for k in range(-1, n)] \
            == list(range(-1, n))


class TestFiltering:
    def test_affected_filter_default(self, skewed):
        db, _, t2 = skewed
        inspector = TransactionInspector(db, t2)
        state = inspector.column(0).states["account"]
        visible = state.visible_rows(inspector.show_unaffected)
        assert len(visible) == 1
        assert visible[0].values[1] == "Savings"

    def test_toggle_unaffected(self, skewed):
        db, _, t2 = skewed
        inspector = TransactionInspector(db, t2)
        assert inspector.toggle_unaffected() is True
        state = inspector.column(0).states["account"]
        assert len(state.visible_rows(inspector.show_unaffected)) == 2

    def test_select_tables(self, skewed):
        """A selection filters the states the panel already holds; it
        computes none again."""
        db, _, t2 = skewed
        inspector = TransactionInspector(db, t2)
        before = inspector.column(0).states["overdraft"]
        inspector.select_tables(["overdraft"])
        column = inspector.column(0)
        assert list(column.states) == ["overdraft"]
        assert column.states["overdraft"] is before

    def test_select_unknown_table_rejected(self, skewed):
        db, _, t2 = skewed
        inspector = TransactionInspector(db, t2)
        with pytest.raises(ReenactmentError, match="not touched"):
            inspector.select_tables(["ghost"])

    def test_selection_keeps_the_transactions_order(self, skewed):
        db, _, t2 = skewed
        given = TransactionInspector(db, t2,
                                     tables=["overdraft", "account"])
        assert given.selected_tables == ["account", "overdraft"]
        inspector = TransactionInspector(db, t2)
        inspector.select_tables(["overdraft", "account"])
        assert inspector.selected_tables == given.selected_tables
        assert list(inspector.column(0).states) == given.selected_tables


def test_unknown_table_rejected_at_construction(skewed):
    """The constructor checks its ``tables`` like :meth:`select_tables`
    does, instead of dropping the unknown name and rendering an empty
    panel."""
    db, _, t2 = skewed
    with pytest.raises(ReenactmentError, match="not touched"):
        TransactionInspector(db, t2, tables=["nope"])
    with pytest.raises(ReenactmentError, match="not touched"):
        TransactionInspector(db, t2, tables=["account", "nope"])


def test_a_panel_is_one_compile(skewed, monkeypatch):
    """``columns()`` compiles every prefix in one batch: the optimizer
    runs once for the whole panel, not once per column, and every
    column still executes its own plan.  The provenance graph is read
    off the same batch: clicks optimize and execute no more, and a
    click after the first evaluates nothing at all."""
    from repro.algebra.evaluator import Evaluator
    from repro.core.optimizer import ProvenanceOptimizer
    from repro.core.reenactor import Reenactor
    calls, batches, evaluations = [], [], []
    optimize = ProvenanceOptimizer.optimize
    execute_all = Reenactor.execute_all
    evaluate = Evaluator.evaluate

    def counting(self, plan):
        calls.append(plan)
        return optimize(self, plan)

    def counting_batches(self, compiles, session=None):
        batches.append(compiles)
        return execute_all(self, compiles, session=session)

    def counting_evaluations(self, plan, *args, **kwargs):
        evaluations.append(plan)
        return evaluate(self, plan, *args, **kwargs)

    monkeypatch.setattr(ProvenanceOptimizer, "optimize", counting)
    monkeypatch.setattr(Reenactor, "execute_all", counting_batches)
    monkeypatch.setattr(Evaluator, "evaluate", counting_evaluations)
    db, _, t2 = skewed
    inspector = TransactionInspector(db, t2)
    columns = inspector.columns()
    assert len(calls) == 1
    assert len(calls[0]) == len(columns) * len(inspector.selected_tables)
    assert inspector.last_stats.plans_executed == len(calls[0])
    savings = [r for r in inspector.column(0).states["account"].rows
               if r.values[1] == "Savings"][0]
    inspector.provenance_graph("account", savings.rowid)
    evaluated = len(evaluations)
    graph = inspector.provenance_graph("account", savings.rowid, 0)
    assert ("account", savings.rowid, -1) in graph
    assert len(calls) == 1 and len(batches) == 1
    assert len(evaluations) == evaluated


class TestTimelineStrip:
    def test_strip_counts_every_boundary(self, skewed):
        """The cardinality strip above the panel: committed row counts
        at the begin time and every statement boundary.  The write-skew
        history never changes either table's cardinality, so the strip
        is flat.  The counts are storage reads: whatever the panel's
        backend, the strip opens no session on it."""
        db, _, t2 = skewed
        inspector = TransactionInspector(db, t2, backend="sqlite")

        def no_session():
            raise AssertionError("the strip opened a backend session")

        inspector.backend.open_session = no_session
        strip = inspector.timeline_strip()
        assert set(strip) == {"account", "overdraft"}
        record = db.audit_log.transaction_record(t2)
        boundaries = {record.begin_ts}
        for stmt in record.statements:
            start, end = record.statement_interval(stmt.index)
            boundaries.add(start)
            if end is not None:
                boundaries.add(end)
        for table, cells in strip.items():
            assert set(cells) == boundaries
        assert set(strip["account"].values()) == {2}
        assert set(strip["overdraft"].values()) == {0}

    def test_strip_single_table_filter(self, skewed):
        db, _, t2 = skewed
        inspector = TransactionInspector(db, t2)
        strip = inspector.timeline_strip("overdraft")
        assert set(strip) == {"overdraft"}

    def test_strip_unknown_table_rejected(self, skewed):
        db, _, t2 = skewed
        inspector = TransactionInspector(db, t2)
        with pytest.raises(ReenactmentError, match="not touched"):
            inspector.timeline_strip("ghost")


class TestDeletes:
    def test_deleted_rows_shown_as_tombstones(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        s = db.connect()
        s.begin()
        s.execute("DELETE FROM t WHERE a = 1")
        xid = s.txn.xid
        s.commit()
        inspector = TransactionInspector(db, xid)
        state = inspector.column(0).states["t"]
        deleted = [r for r in state.rows if r.deleted]
        assert len(deleted) == 1 and deleted[0].values == (1,)
        assert deleted[0].affected


class TestProvenanceClick:
    def test_graph_for_updated_tuple(self, skewed):
        db, _, t2 = skewed
        inspector = TransactionInspector(db, t2, show_unaffected=True)
        state = inspector.column(0).states["account"]
        savings = [r for r in state.rows
                   if r.values[1] == "Savings"][0]
        graph = inspector.provenance_graph("account", savings.rowid)
        assert ("account", savings.rowid, 0) in graph
        assert ("account", savings.rowid, -1) in graph

    def test_whatif_entry_point(self, skewed):
        db, t1, _ = skewed
        inspector = TransactionInspector(db, t1)
        scenario = inspector.whatif()
        scenario.insert_statement(
            0, "UPDATE account SET bal = bal WHERE cust = 'Alice'")
        result = scenario.run()
        assert result.conflicts


def test_whatif_runs_on_the_inspectors_backend(skewed):
    """A scenario started from the panel runs where the panel runs:
    it shares the inspector's reenactor (backend, parsed statements)
    instead of building a default one."""
    from repro.backends import ExecutionBackend, InMemoryBackend

    class Recording(ExecutionBackend):
        name = "recording"

        def __init__(self):
            self.plans = []

        def execute_plan(self, plan, ctx):
            self.plans.append(plan)
            return InMemoryBackend().execute_plan(plan, ctx)

    db, t1, _ = skewed
    backend = Recording()
    scenario = TransactionInspector(db, t1, backend=backend).whatif()
    assert scenario.reenactor.backend is backend
    scenario.insert_statement(
        0, "UPDATE account SET bal = bal WHERE cust = 'Alice'")
    assert scenario.run().conflicts
    assert backend.plans, "the scenario ran on another backend"


class TestColumnsShareViews:
    """Column k is column k-1 plus what statement k changed: a row the
    statement left alone is the same view object in both columns, and
    only changed, inserted and deleted rows are new views."""

    @staticmethod
    def history():
        db = Database()
        db.execute("CREATE TABLE t (k INT, v INT)")
        db.execute("CREATE TABLE u (k INT)")
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
        s = db.connect()
        s.begin()
        s.execute("UPDATE t SET v = v + 1 WHERE k = 1")
        s.execute("INSERT INTO t VALUES (4, 40)")
        s.execute("INSERT INTO u VALUES (7)")
        s.execute("DELETE FROM t WHERE k = 2")
        xid = s.txn.xid
        s.commit()
        return db, xid

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_unchanged_rows_keep_their_view(self, backend):
        db, xid = self.history()
        columns = TransactionInspector(db, xid, show_unaffected=True,
                                       backend=backend).columns()
        for before, after in zip(columns, columns[1:]):
            old = {v.rowid: v for v in before.states["t"].rows}
            new = {v.rowid: v for v in after.states["t"].rows}
            written = [{1}, set(new) - set(old), set(), {2}][after.index]
            assert len(written) == (after.index != 2)
            for rowid, view in new.items():
                assert (view is old.get(rowid)) == (rowid not in written), \
                    (after.index, rowid)
        final = {v.rowid: v for v in columns[-1].states["t"].rows}
        assert final[2].deleted and final[1].values == (1, 11)
        assert [v.values for v in columns[-1].states["t"].rows] \
            == [(1, 11), (2, 20), (3, 30), (4, 40)]

    def test_an_equal_row_of_another_type_is_a_new_view(self):
        """``1 == 1.0``, but a view shows its values' types."""
        from repro.algebra.evaluator import Relation
        db, xid = self.history()
        inspector = TransactionInspector(db, xid)
        attrs = ["k", "v", "__rowid__", "__xid__", "__upd__", "__del__"]
        first, carried = inspector._state_from_relation(
            "t", Relation(attrs, [(1, 10, 1, 1, False, False)]), {})
        same, carried = inspector._state_from_relation(
            "t", Relation(attrs, [(1, 10, 1, 1, False, False)]), carried)
        assert same.rows[0] is first.rows[0]
        other, _ = inspector._state_from_relation(
            "t", Relation(attrs, [(1, 10.0, 1, 1, False, False)]), carried)
        assert other.rows[0] is not first.rows[0]
        assert type(other.rows[0].values[1]) is float

    @pytest.mark.parametrize("concurrent", [
        ["INSERT INTO t VALUES (4, 40)", "DELETE FROM t WHERE k = 2"],
        ["INSERT INTO t VALUES (4, 40)"]])
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_read_committed_rebase_keeps_the_reference_order(
            self, backend, concurrent):
        """A commit between two statements of a READ COMMITTED
        transaction brings a stored row into the later columns (and
        drops one): every column is still stored rows by rowid, then
        inserted rows in insertion order, equal to its prefix
        reenactment."""
        from repro.core.reenactor import ReenactmentOptions, Reenactor
        db = Database()
        db.execute("CREATE TABLE t (k INT, v INT)")
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
        debugged = db.connect()
        debugged.begin("read committed")
        debugged.execute("UPDATE t SET v = v + 1 WHERE k = 1")
        debugged.execute("INSERT INTO t VALUES (9, 90)")
        other = db.connect()
        other.begin()
        for sql in concurrent:
            other.execute(sql)
        other.commit()
        debugged.execute("UPDATE t SET v = v + 100 WHERE k = 3")
        debugged.execute("INSERT INTO t VALUES (10, 100)")
        xid = debugged.txn.xid
        debugged.commit()

        inspector = TransactionInspector(db, xid, show_unaffected=True,
                                         backend=backend)
        reenactor = Reenactor(db, backend=backend)
        orders = []
        for column in inspector.columns():
            rows = column.states["t"].rows
            rowids = [v.rowid for v in rows]
            assert rowids == sorted(rowids, key=lambda r: (r < 0, abs(r)))
            reference = reenactor.reenact(xid, ReenactmentOptions(
                upto=column.index + 1, table="t", annotations=True,
                include_deleted=True)).table("t")
            assert [(v.rowid,) + v.values for v in rows] == [
                (row[reference.column_index("__rowid__")],) + row[:2]
                for row in reference.rows]
            orders.append([v.values[0] for v in rows])
        dropped = 2 if len(concurrent) == 2 else None
        assert orders[2] == [1, 2, 3, 9]
        assert orders[3] == [k for k in (1, 2, 3, 4, 9) if k != dropped]
        assert orders[4] == orders[3] + [10]
