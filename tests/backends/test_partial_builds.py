"""Partial snapshot builds: a cold session copies only the rows a
batch's statements can touch, and completes the entry on demand.

Three layers:

* the key sets :func:`repro.core.reenactor.snapshot_analysis` reads
  off the optimized plans (``CompiledReenactment.row_keys``);
* the planner's choice (:func:`repro.backends.planner.plan_snapshots`
  and :func:`~repro.backends.planner.batch_row_keys`) — no connection;
* the SQLite session: type edges against a full state and the
  interpreter, completion before another batch's read, before a
  spill and when the completion itself fails.
"""

import pytest

from repro import Database, SnapshotStore
from repro.backends import SQLiteBackend
from repro.backends.binder import context_realm
from repro.backends.planner import (SnapshotRequest, batch_row_keys,
                                    plan_snapshots)
from repro.core.reenactor import ReenactmentOptions, Reenactor
from repro.errors import ExecutionError
from repro.faults import FaultPlan, armed
from repro.obs.explain import ExplainCollector

from conftest import assert_relations_match

ROWS = 12


def run_txn(db, statements, isolation=None):
    session = db.connect()
    session.begin(isolation)
    for sql in statements:
        session.execute(sql)
    xid = session.txn.xid
    session.commit()
    return xid


@pytest.fixture
def kv_db():
    db = Database()
    db.execute("CREATE TABLE t (k INT, s TEXT, v INT)")
    db.execute("INSERT INTO t VALUES " + ", ".join(
        f"({k}, 's{k % 3}', {k * 10})" for k in range(1, ROWS + 1)))
    db.execute("CREATE TABLE u (k INT, w INT)")
    db.execute("INSERT INTO u VALUES (1, 1), (2, 2)")
    return db


def row_keys(db, statements, isolation=None):
    xid = run_txn(db, statements, isolation)
    reenactor = Reenactor(db)
    compiled = reenactor.compile(reenactor.transaction_record(xid))
    return {pair: dict(keys) for pair, keys in compiled.row_keys.items()}


def plan_ops(events):
    return [step["op"] for event in events
            for step in event.get("steps", ())]


def temp_tables(session):
    return {row[0] for row in session.conn.execute(
        "SELECT name FROM sqlite_temp_master WHERE type = 'table'")}


def resident_rows(session, db, xid):
    ((_, ts),) = Reenactor(db).compile(
        db.audit_log.transaction_record(xid)).snapshots
    name = session.cache.lookup(context_realm(db.context()), ("t", ts))
    return session.conn.execute(
        f'SELECT COUNT(*) FROM "{name}"').fetchone()[0]


# -- key sets, read off the optimized plans -------------------------------

@pytest.mark.parametrize("where, expected", [
    ("k = 3", {"k": {3}}),
    ("3 = k", {"k": {3}}),
    ("k IN (1, 2)", {"k": {1, 2}}),
    ("k = 1 OR s = 's2'", {"k": {1}, "s": {"s2"}}),
    ("k = 1 AND v > 5", {"k": {1}}),
    ("k IN (1, 2, 3) AND s = 's1'", {"s": {"s1"}}),
])
def test_key_conditions_become_row_keys(kv_db, where, expected):
    (keys,) = row_keys(kv_db, [f"UPDATE t SET v = v + 1 WHERE {where}"]
                       ).values()
    assert keys == {column: frozenset(values)
                    for column, values in expected.items()}


@pytest.mark.parametrize("where", [
    "v > 5",
    "k = 1 OR v > 5",
    "k = 1.5",
    "k <> 1",
    "k NOT IN (1, 2)",
    "k IN (SELECT k FROM u)",
    "k = 1 AND k IN (SELECT k FROM u)",
])
def test_conditions_that_do_not_reduce_leave_no_keys(kv_db, where):
    assert row_keys(kv_db,
                    [f"UPDATE t SET v = v + 1 WHERE {where}"]) == {}


def test_a_statement_without_condition_leaves_no_keys(kv_db):
    assert row_keys(kv_db, ["DELETE FROM t"]) == {}


def test_statements_union_their_keys(kv_db):
    (keys,) = row_keys(kv_db, [
        "UPDATE t SET v = v + 1 WHERE k = 3",
        "DELETE FROM t WHERE k = 5 AND v < 100",
        "UPDATE t SET v = 0 WHERE s = 's0'",
    ]).values()
    assert keys == {"k": {3, 5}, "s": {"s0"}}


def test_a_condition_on_an_assigned_column_leaves_no_keys(kv_db):
    """The pushed predicate composes the earlier assignment: ``k = 50``
    over ``CASE WHEN k = 1 THEN 50 ELSE k END`` is no atom."""
    assert row_keys(kv_db, ["UPDATE t SET k = 50 WHERE k = 1",
                            "UPDATE t SET v = 0 WHERE k = 50"]) == {}


def test_an_insert_only_transaction_reads_no_stored_row(kv_db):
    (keys,) = row_keys(kv_db, ["INSERT INTO t VALUES (99, 'x', 1)"]
                       ).values()
    assert keys == {}


def test_a_subquery_leaves_both_tables_without_keys(kv_db):
    assert row_keys(kv_db, [
        "UPDATE t SET v = v + 1 "
        "WHERE k = 2 AND v IN (SELECT w FROM u WHERE k = 1)"]) == {}


def test_an_insert_select_keys_the_table_it_reads(kv_db):
    keys = row_keys(kv_db, [
        "INSERT INTO t (SELECT k, 'x', w FROM u WHERE k = 1)"])
    assert {table: found for (table, _ts), found in keys.items()} \
        == {"t": {}, "u": {"k": {1}}}


def test_a_read_committed_rebase_reads_its_state_whole(kv_db):
    """The first statement's state feeds only its condition; the
    second's is read by the re-base's anti-join, so it has no keys —
    and a batch reading one table at two times builds neither
    partially (:func:`batch_row_keys`)."""
    keys = row_keys(kv_db, ["UPDATE t SET v = 1 WHERE k = 1",
                            "UPDATE t SET v = 2 WHERE k = 2"],
                    isolation="READ COMMITTED")
    assert list(keys.values()) == [{"k": {1}}]


# -- the planner's choice ---------------------------------------------------

KEYS = (("k", frozenset({1})),)


def request(ts, keys=KEYS, plain=True):
    return SnapshotRequest(("t", ts), "t", ts, plain, keys)


class FlatHistory:
    def table_cardinality(self, table):
        return 100

    def table_delta_estimate(self, table, ts_from, ts_to):
        return abs(ts_to - ts_from)


def ops(requests, cached=None, store_attached=False):
    return [(step.op, step.source_ts) for _key, step in plan_snapshots(
        requests, cached or {}, FlatHistory(), 0.5, store_attached)]


def test_a_keyed_miss_with_nothing_to_hop_from_is_a_partial_build():
    assert ops([request(10)]) == [("partial-build", None)]
    assert ops([request(10, keys=None)]) == [("full-build", None)]


def test_a_neighbor_or_a_store_wins_over_a_partial_build():
    assert ops([request(10)], cached={"t": [9]}) \
        == [("clone-delta", 9)]
    assert ops([request(10)], store_attached=True) \
        == [("rehydrate-batch", None)]
    assert ops([request(10, plain=False)]) == [("full-build", None)]


def test_batch_keys_are_the_union_over_the_series():
    one = {("t", 5): (("k", frozenset({1})),)}
    two = {("t", 5): (("k", frozenset({2})), ("s", frozenset({"x"})))}
    assert batch_row_keys([one, two]) == {
        ("t", 5): (("k", frozenset({1, 2})), ("s", frozenset({"x"})))}


def test_a_read_without_keys_or_at_another_ts_refuses_them():
    keyed = {("t", 5): KEYS, ("u", 5): KEYS}
    assert batch_row_keys([keyed, [("t", 5)]]) == {("u", 5): KEYS}
    assert batch_row_keys([keyed, {("u", 6): KEYS}]) == {("t", 5): KEYS}
    assert batch_row_keys([[("t", 5), ("u", None)]]) == {}


# -- type edges: a partial build answers like the whole state -------------

TYPED_VALUES = {"i": [3, 1, 0, None], "f": [3.0, 2.5, 1.0, None],
                "b": [True, False, True, None],
                "s": ["3", "x", "1", None]}
LITERALS = ["3", "1", "0", "'3'", "'x'", "'1'"]


@pytest.fixture
def typed_db():
    db = Database()
    db.execute("CREATE TABLE t (i INT, f FLOAT, b BOOL, s TEXT, n INT)")
    db.execute("INSERT INTO t VALUES " + ", ".join(
        "(" + ", ".join("NULL" if TYPED_VALUES[c][r] is None
                        else repr(TYPED_VALUES[c][r]).lower()
                        if isinstance(TYPED_VALUES[c][r], bool)
                        else repr(TYPED_VALUES[c][r])
                        for c in "ifbs") + f", {r})"
        for r in range(4)))
    return db


@pytest.mark.parametrize("column", sorted(TYPED_VALUES))
def test_type_edges_match_the_full_state_and_the_interpreter(typed_db,
                                                             column):
    db = typed_db
    xids = [run_txn(db, [f"UPDATE t SET n = n + 100 "
                         f"WHERE {column} = {literal}"])
            for literal in LITERALS]
    reenactor = Reenactor(db, backend="sqlite")
    options = ReenactmentOptions(annotations=True, include_deleted=True)
    built = []
    for xid in xids:
        truth = Reenactor(db).reenact(xid, options).table("t")
        with ExplainCollector() as explained:
            cold = reenactor.reenact(xid, options).table("t")
        built += plan_ops(explained.events)
        compiled = reenactor.compile(reenactor.transaction_record(xid),
                                     options)
        with SQLiteBackend().open_session() as session:
            # primed without keys: the whole state, then reused
            session.prime_snapshots(compiled.snapshots, db.context())
            with ExplainCollector() as explained:
                warm = reenactor.execute(compiled, session=session) \
                    .table("t")
            assert set(plan_ops(explained.events)) == {"reuse-cached"}
            assert session.stats.full_materializations == 1
        context = f"{column} xid={xid}"
        assert_relations_match(truth, cold, context=context)
        assert_relations_match(truth, warm, context=context)
    assert built.count("partial-build") == len(xids)


# -- completion on demand ---------------------------------------------------

def test_another_batch_completes_the_entry_before_reading_it(kv_db):
    xid = run_txn(kv_db, ["UPDATE t SET v = v + 1 WHERE k = 3"])
    reenactor = Reenactor(kv_db, backend="sqlite")
    whole = ReenactmentOptions(annotations=True, with_provenance=True)
    with SQLiteBackend().open_session() as session:
        first = reenactor.reenact(xid, session=session)
        assert resident_rows(session, kv_db, xid) == 1
        # not split: every row of the state goes through the engine
        second = reenactor.reenact(xid, whole, session=session)
        assert resident_rows(session, kv_db, xid) == ROWS
        stats = session.stats
    assert stats.full_materializations == stats.snapshots_materialized \
        == 1
    assert list(stats.materializations.values()) == [1]
    memory = Reenactor(kv_db)
    assert_relations_match(memory.reenact(xid).table("t"),
                           first.table("t"))
    assert_relations_match(memory.reenact(xid, whole).table("t"),
                           second.table("t"))
    assert len(second.table("t").rows) == ROWS


def test_a_partial_entry_reaches_a_spill_store_only_complete(kv_db):
    first = run_txn(kv_db, ["UPDATE t SET v = v + 1 WHERE k = 3"])
    second = run_txn(kv_db, ["UPDATE u SET w = 0 WHERE k = 1"])
    ts = kv_db.audit_log.transaction_record(first).begin_ts
    reenactor = Reenactor(kv_db, backend="sqlite")
    store = SnapshotStore()
    with SQLiteBackend(cache_capacity=1).open_session() as session:
        reenactor.reenact(first, session=session)
        assert resident_rows(session, kv_db, first) == 1
        session.attach_spill_store(store)
        # a full build of ('u', ts') — written through — evicts ('t', ts)
        reenactor.reenact(second, session=session)
        assert session.stats.snapshots_evicted == 1
        assert session.stats.snapshots_spilled == 2
    realm = kv_db.history_id
    assert ("t", ts) in store.inventory(realm)
    assert sorted(store.get(realm, "t", ts)) == sorted(
        tuple(values) + (rowid, xid)
        for rowid, values, xid in kv_db.table_snapshot("t", ts))
    store.close()


def test_a_failed_completion_is_typed_and_leaves_nothing(kv_db):
    xid = run_txn(kv_db, ["UPDATE t SET v = v + 1 WHERE k = 3"])
    reenactor = Reenactor(kv_db, backend="sqlite")
    whole = ReenactmentOptions(annotations=True, with_provenance=True)
    truth = Reenactor(kv_db).reenact(xid, whole).table("t")
    with SQLiteBackend().open_session() as session:
        reenactor.reenact(xid, session=session)
        with armed(FaultPlan(seed=1).on("snapshot.complete", count=1)):
            with pytest.raises(ExecutionError,
                               match=r"completing partial snapshot "
                                     r"\('t', \d+\).*InjectedFault"):
                reenactor.reenact(xid, whole, session=session)
        assert len(session.cache) == 0
        assert temp_tables(session) == set()
        # the session still answers: the state is built again, whole
        again = reenactor.reenact(xid, whole, session=session)
        assert session.stats.full_materializations == 2
    assert_relations_match(truth, again.table("t"))
