"""Property-based tests for READ COMMITTED re-basing edge cases.

The RC statement input is rebuilt before every statement by merging the
transaction's own rows (``__upd__``) with the committed statement-time
snapshot of everything it has not written (rowid anti-join,
:meth:`Reenactor._rc_input`).  The properties below hammer the corners
of that merge:

* **empty write-set** — statements whose predicate matches nothing
  still force a re-base; the anti-join's left side then contributes the
  whole snapshot and the own-rows side is empty;
* **insert-then-delete in one transaction** — a synthetic-rowid row
  enters the chain, is tombstoned by the same transaction, and must
  survive the re-base as a tombstone (not resurrect, not leak into the
  final state);
* **parameterized statements** — bind parameters are resolved before
  audit logging, so reenactment must reproduce parameterized histories
  exactly.

Every property is checked against ground truth (the equivalence
oracle) *and* across execution backends.
"""

import random
import time
from collections import Counter

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro import Database
from repro.core.equivalence import check_transaction_equivalence
from repro.core.reenactor import ReenactmentOptions, Reenactor
from repro.workloads.simulator import HistorySimulator, TxnOp, TxnScript

SETTINGS = dict(deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

STRICT = ReenactmentOptions(annotations=True, include_deleted=True)


def make_db(n_rows=12):
    db = Database()
    db.execute("CREATE TABLE account (id INT, owner TEXT, bal INT)")
    values = ", ".join(f"({i}, 'acct-{i}', {i * 10})"
                       for i in range(1, n_rows + 1))
    db.execute(f"INSERT INTO account VALUES {values}")
    return db


def run_interleaved(db, main_ops, rng, concurrent_deltas=2):
    """Run ``main_ops`` as one RC transaction with concurrent committed
    single-statement writers interleaved at seed-chosen points."""
    scripts = [TxnScript("M", main_ops, isolation="READ COMMITTED")]
    for index in range(concurrent_deltas):
        target = rng.randint(1, 12)
        delta = rng.randint(-30, 30)
        scripts.append(TxnScript(
            f"C{index}",
            [f"UPDATE account SET bal = bal + {delta} "
             f"WHERE id = {target}"]))
    slots = {s.name: len(s.normalized_ops()) + 1 for s in scripts}
    pending = [name for name, count in slots.items()
               for _ in range(count)]
    rng.shuffle(pending)
    outcomes = HistorySimulator(db).run(scripts, pending)
    return outcomes


def assert_correct_everywhere(db, xid):
    """Ground-truth equivalence + backend agreement for one txn."""
    report = check_transaction_equivalence(db, xid)
    assert report.ok, [c.detail for c in report.failures()]
    mem = Reenactor(db).reenact(xid, STRICT)
    sq = Reenactor(db, backend="sqlite").reenact(xid, STRICT)
    for table in mem.tables:
        left = sorted(map(repr, mem.tables[table].rows))
        right = sorted(map(repr, sq.tables[table].rows))
        assert left == right, (table, left, right)


@settings(max_examples=20, **SETTINGS)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_rc_empty_write_set(seed):
    """A no-match statement between real writes: the re-base must pick
    up concurrent commits without inventing or losing writes."""
    rng = random.Random(seed)
    db = make_db()
    missing = 1000 + rng.randint(0, 50)
    ops = [
        f"UPDATE account SET bal = bal + 1 WHERE id = {rng.randint(1, 12)}",
        f"UPDATE account SET bal = 0 WHERE id = {missing}",  # matches none
        f"DELETE FROM account WHERE id = {missing}",          # matches none
        f"UPDATE account SET bal = bal - 1 WHERE id = {rng.randint(1, 12)}",
    ]
    outcomes = run_interleaved(db, ops, rng)
    if outcomes["M"].committed:
        assert_correct_everywhere(db, outcomes["M"].xid)


@settings(max_examples=20, **SETTINGS)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_rc_whole_transaction_empty_write_set(seed):
    """Every statement matches nothing: reenactment must reproduce the
    statement-time snapshot unchanged, with an empty write-set."""
    rng = random.Random(seed)
    db = make_db()
    ops = [f"UPDATE account SET bal = -1 WHERE id = {1000 + i}"
           for i in range(rng.randint(1, 3))]
    outcomes = run_interleaved(db, ops, rng)
    if not outcomes["M"].committed:
        return
    xid = outcomes["M"].xid
    assert_correct_everywhere(db, xid)
    result = Reenactor(db).reenact(xid, STRICT)
    assert not any(result.table("account").column("__upd__"))


@settings(max_examples=20, **SETTINGS)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_rc_insert_then_delete_same_transaction(seed):
    """The transaction inserts a row and deletes it again; the
    synthetic-rowid tombstone must survive every later re-base."""
    rng = random.Random(seed)
    db = make_db()
    new_id = 500 + rng.randint(0, 9)
    ops = [
        f"INSERT INTO account VALUES ({new_id}, 'temp', 1)",
        f"UPDATE account SET bal = bal + 1 WHERE id = {rng.randint(1, 12)}",
        f"DELETE FROM account WHERE id = {new_id}",
        f"UPDATE account SET bal = bal + 1 WHERE id = {rng.randint(1, 12)}",
    ]
    outcomes = run_interleaved(db, ops, rng)
    if not outcomes["M"].committed:
        return
    xid = outcomes["M"].xid
    assert_correct_everywhere(db, xid)
    relation = Reenactor(db).reenact(xid, STRICT).table("account")
    ids = relation.column("id")
    dels = relation.column("__del__")
    tombstoned = [d for i, d in zip(ids, dels) if i == new_id]
    assert tombstoned == [True], \
        "inserted-then-deleted row must appear exactly once, as a tombstone"
    final = Reenactor(db).reenact(xid).table("account")
    assert new_id not in final.column("id")


def rc_chain(n_statements, n_rows=40):
    """One committed READ COMMITTED transaction of ``n_statements``
    single-row UPDATEs on one table."""
    db = make_db(n_rows)
    session = db.connect()
    session.begin("READ COMMITTED")
    for i in range(n_statements):
        session.execute(f"UPDATE account SET bal = bal + 1 "
                        f"WHERE id = {i % n_rows + 1}")
    xid = session.txn.xid
    session.commit()
    return db, xid


def test_rc_chain_compiles_linearly():
    """Each statement re-bases the chain over its own rows, which the
    re-base reads twice (the union and the anti-join's id list).  Kept
    one node through every layer — built once, rewritten once, printed
    once, evaluated once — the plan grows by a fixed number of nodes
    per statement; expanded once per reference it grew ×4 per two
    statements, and 32 statements never finished."""
    from repro.algebra import operators as op
    from repro.algebra.sqlgen import Dialect, generate_sql, get_dialect
    sqlite = Dialect(get_dialect("sqlite"))
    sizes = {}
    for n in (8, 32):
        db, xid = rc_chain(n)
        truth = sorted(db.execute("SELECT id, owner, bal FROM account")
                       .rows)
        for backend in ("memory", "sqlite"):
            reenactor = Reenactor(db, backend=backend)
            start = time.perf_counter()
            compiled = reenactor.compile(reenactor.transaction_record(xid))
            result = reenactor.execute(compiled)
            elapsed = time.perf_counter() - start
            assert elapsed < 2.0, (n, backend, elapsed)
            assert sorted(result.table("account").rows) == truth
        plan = compiled.plans["account"]
        sizes[n] = (sum(1 for _ in op.walk_plan(plan)),
                    len(generate_sql(plan, dialect=sqlite)))
    (nodes_8, sql_8), (nodes_32, sql_32) = sizes[8], sizes[32]
    # linear: a fixed cost per re-based statement over a cheaper first
    # statement (no re-base) puts 4x the statements just above 4x the
    # nodes — the tree form had 4**12 times as many
    assert nodes_32 <= 4.5 * nodes_8, sizes
    assert sql_32 <= 5 * sql_8, sizes


def test_rc_compile_keeps_own_rows_one_node():
    """After the optimizer, a re-base still reads the transaction's own
    rows through one node under both parents — the union and the
    anti-join's id list — optimized or not, split or whole."""
    from repro.algebra import operators as op
    db, xid = rc_chain(4)
    reenactor = Reenactor(db)
    record = reenactor.transaction_record(xid)
    for options in (ReenactmentOptions(), STRICT,
                    ReenactmentOptions(optimize=False),
                    ReenactmentOptions(only_affected=True)):
        plan = reenactor.compile(record, options).plans["account"]
        rebases = [node for node in op.walk_plan(plan)
                   if isinstance(node, op.Join) and node.kind == "anti"]
        assert len(rebases) == 3, options  # every statement but the first
        referrers = Counter(id(child) for node in op.walk_plan(plan)
                            for child in node.children())
        for join in rebases:
            own = join.right.child  # the id list over the own rows
            assert referrers[id(own)] == 2, options


@settings(max_examples=20, **SETTINGS)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_rc_parameterized_statements(seed):
    """Bind parameters under RC: audit logging stores the bound text,
    so reenactment must agree with the original parameterized run."""
    rng = random.Random(seed)
    db = make_db()
    ops = [
        TxnOp("UPDATE account SET bal = bal + :d WHERE id = :i",
              {"d": rng.randint(-20, 20), "i": rng.randint(1, 12)}),
        TxnOp("INSERT INTO account VALUES (:id, :owner, :bal)",
              {"id": 900 + rng.randint(0, 9), "owner": "param",
               "bal": rng.randint(0, 99)}),
        TxnOp("DELETE FROM account WHERE bal < :cut",
              {"cut": rng.randint(-10, 25)}),
    ]
    outcomes = run_interleaved(db, ops, rng)
    if outcomes["M"].committed:
        assert_correct_everywhere(db, outcomes["M"].xid)
