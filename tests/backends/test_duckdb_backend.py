"""DuckDBBackend specifics: registration gating, typed temp-table
materialization, the ``$name`` parameter dialect, window-compiled
timeline scans on the vectorized engine.

The heavy cross-validation lives in the differential harness (every
``duckdb``-parametrized sweep in ``test_differential.py``); this module
pins the driver-level behaviors that are DuckDB's own.  Everything
functional skips cleanly when the optional ``duckdb`` driver is not
installed; the registration-gating tests always run.
"""

import pytest

from repro import Database
from repro.backends import (HAVE_DUCKDB, DuckDBBackend,
                            available_backends, resolve_backend)
from repro.core.reenactor import ReenactmentOptions, Reenactor
from repro.debugger.timeline import timeline_states
from repro.errors import ExecutionError

from conftest import assert_relations_match, requires_duckdb
from planner_policy import FORCE_DELTA, policy_backend


class TestRegistrationGating:
    """Always-run: the optional dependency is wired correctly in both
    directions."""

    def test_registered_iff_driver_importable(self):
        assert ("duckdb" in available_backends()) == HAVE_DUCKDB

    @pytest.mark.skipif(HAVE_DUCKDB,
                        reason="driver installed: constructor works")
    def test_constructor_refuses_without_driver(self):
        with pytest.raises(ExecutionError, match="duckdb"):
            DuckDBBackend()

    def test_dialect_config_always_present(self):
        # the config layer never depends on the driver
        assert DuckDBBackend.dialect_config.name == "duckdb"
        assert DuckDBBackend.dialect_config.typed_temp_columns
        assert DuckDBBackend.dialect_config.window_functions


def run_txn(db, statements):
    session = db.connect()
    session.begin()
    for sql in statements:
        session.execute(sql)
    xid = session.txn.xid
    session.commit()
    return xid


@pytest.fixture
def account_db(db):
    db.execute("CREATE TABLE account (cust TEXT, typ TEXT, bal INT)")
    db.execute("INSERT INTO account VALUES "
               "('Alice', 'checking', 100), ('Bob', 'savings', 50), "
               "('Eve', 'savings', 9)")
    return db


def both(db, xid, **options):
    mem = Reenactor(db).reenact(
        xid, ReenactmentOptions(**options)).table("account")
    duck = Reenactor(db).reenact(
        xid, ReenactmentOptions(backend="duckdb", **options)
    ).table("account")
    return mem, duck


@requires_duckdb
class TestReenactment:
    def test_update_delete_insert_chain(self, account_db):
        xid = run_txn(account_db, [
            "UPDATE account SET bal = bal + 10 WHERE bal > 20",
            "DELETE FROM account WHERE cust = 'Eve'",
            "INSERT INTO account VALUES ('Carol', 'checking', 7)",
        ])
        mem, duck = both(account_db, xid)
        assert_relations_match(mem, duck)

    def test_annotations_and_tombstones_typed(self, account_db):
        xid = run_txn(account_db, [
            "UPDATE account SET bal = 0 WHERE cust = 'Alice'",
            "DELETE FROM account WHERE cust = 'Bob'",
        ])
        mem, duck = both(account_db, xid, annotations=True,
                         include_deleted=True)
        assert_relations_match(mem, duck)
        assert all(isinstance(v, bool)
                   for v in duck.column("__upd__")
                   + duck.column("__del__"))

    def test_insert_select_row_number(self, account_db):
        xid = run_txn(account_db, [
            "INSERT INTO account (SELECT cust, 'backup', bal "
            "FROM account WHERE bal >= 50)",
        ])
        mem, duck = both(account_db, xid, annotations=True)
        assert_relations_match(mem, duck)

    def test_provenance_left_join(self, account_db):
        xid = run_txn(account_db, [
            "UPDATE account SET bal = bal + 1 WHERE cust = 'Alice'",
        ])
        mem, duck = both(account_db, xid, annotations=True,
                         with_provenance=True)
        assert_relations_match(mem, duck)


@requires_duckdb
class TestSessionMachinery:
    def test_snapshot_reuse_across_plans(self, account_db):
        xid = run_txn(account_db,
                      ["UPDATE account SET bal = bal + 1"])
        reenactor = Reenactor(account_db)
        options = ReenactmentOptions(backend="duckdb")
        with DuckDBBackend().open_session() as session:
            reenactor.reenact(xid, options, session=session)
            reenactor.reenact(xid, options, session=session)
            stats = session.stats
        assert stats.snapshots_reused > 0
        assert all(count == 1
                   for count in stats.materializations.values())

    def test_forced_delta_materialization(self, account_db):
        xids = [run_txn(account_db,
                        [f"UPDATE account SET bal = bal + {k}"])
                for k in (1, 2, 3)]
        reenactor = Reenactor(account_db)
        options = ReenactmentOptions(backend="duckdb")
        backend = policy_backend(FORCE_DELTA, "duckdb")
        with backend.open_session() as session:
            for xid in xids:
                reenactor.reenact(xid, options, session=session)
            stats = session.stats
        assert stats.delta_materializations > 0

    def test_sparkline_windowscan_single_query(self, account_db):
        timestamps = []
        for k in range(6):
            run_txn(account_db,
                    [f"UPDATE account SET bal = bal + {k + 1} "
                     f"WHERE cust = 'Alice'"])
            timestamps.append(account_db.clock.now())
        with DuckDBBackend().open_session() as session:
            for mode in ("full", "sparkline"):
                states = timeline_states(account_db, "account",
                                         timestamps, session=session,
                                         mode=mode)
                reference = timeline_states(account_db, "account",
                                            timestamps, mode=mode)
                for ts in timestamps:
                    assert_relations_match(states[ts], reference[ts],
                                           context=f"mode={mode} "
                                                   f"ts={ts}")
            stats = session.stats
        # the dense sparkline is one window pass; the full-state scan
        # walks the per-probe pipeline on every engine
        assert stats.window_scans == 1
        assert stats.plans_executed == len(timestamps)

    def test_named_params_filtered_to_statement(self, account_db):
        """The context may carry more params than one statement uses;
        DuckDB rejects extras, so the session must filter."""
        xid = run_txn(account_db,
                      ["UPDATE account SET bal = bal + 1"])
        reenactor = Reenactor(account_db)
        result = reenactor.reenact(
            xid, ReenactmentOptions(backend="duckdb"))
        assert result.table("account").rows

    def test_resolve_by_name(self, account_db):
        backend = resolve_backend("duckdb")
        assert isinstance(backend, DuckDBBackend)
